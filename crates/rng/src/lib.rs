//! Deterministic pseudo-random number generation for the MINT reproduction.
//!
//! The MINT hardware design consults a small in-DRAM true-random-number
//! generator (TRNG) once per refresh interval to draw the Selected Activation
//! Number (SAN). The paper's threat model assumes the attacker *cannot*
//! observe the outcome of that generator, so for the purposes of security
//! analysis and simulation any uniform generator is a faithful stand-in.
//!
//! We provide our own small, dependency-free generators instead of pulling in
//! the `rand` ecosystem because the experiments in this repository must be
//! bit-for-bit reproducible across runs and platforms: every Monte-Carlo
//! trial, every attack schedule and every workload trace is derived from an
//! explicit seed.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator used for seeding and for
//!   cheap one-off draws.
//! * [`Xoshiro256StarStar`] — the main workhorse; 256-bit state, passes
//!   BigCrush, supports `jump()` for independent substreams.
//!
//! Both implement the [`Rng64`] trait, which also supplies unbiased bounded
//! draws (Lemire rejection), floating-point draws and Bernoulli trials.
//!
//! # Examples
//!
//! ```
//! use mint_rng::{Rng64, Xoshiro256StarStar};
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let san = rng.gen_range_u32(74); // URAND over 0..=73, slot 0 = transitive
//! assert!(san < 74);
//! ```

mod splitmix;
mod xoshiro;

pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256StarStar;

/// A deterministic source of 64-bit random words.
///
/// All simulation components in this repository take an `impl Rng64` (or a
/// concrete [`Xoshiro256StarStar`]) so that experiments are reproducible from
/// a single seed.
pub trait Rng64 {
    /// Returns the next 64 random bits from the stream.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of [`next_u64`]).
    ///
    /// [`next_u64`]: Rng64::next_u64
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draws a uniformly distributed integer in `0..bound`.
    ///
    /// Uses Lemire's multiply-shift method with rejection, so the result is
    /// exactly uniform (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    fn gen_range_u32(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "gen_range_u32 bound must be non-zero");
        // Lemire: https://arxiv.org/abs/1805.10941
        let mut x = self.next_u32();
        let mut m = (x as u64) * (bound as u64);
        let mut l = m as u32;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u32();
                m = (x as u64) * (bound as u64);
                l = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Draws a uniformly distributed integer in `0..bound` (64-bit version).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range_u64 bound must be non-zero");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Draws a uniformly distributed integer in the inclusive range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    fn gen_range_inclusive_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "gen_range_inclusive_u32 requires lo <= hi");
        let span = (hi - lo) as u64 + 1;
        lo + self.gen_range_u64(span) as u32
    }

    /// Draws a float uniformly from `[0, 1)` with 53 bits of precision.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        // 53 high bits scaled by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64))
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    ///
    /// Not available on `dyn Rng64` (generic method); shuffle before erasing
    /// the type, or use a concrete generator.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.gen_range_u64(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Derives a child seed from `(root, stream)`.
///
/// This is how experiments fan out into independent deterministic substreams
/// (one per Monte-Carlo trial, per bank, per workload, ...). The mixing is
/// one SplitMix64 step over the XOR of the inputs with distinct large odd
/// constants, which is enough to decorrelate adjacent stream indices.
///
/// # Examples
///
/// ```
/// use mint_rng::derive_seed;
/// let a = derive_seed(7, 0);
/// let b = derive_seed(7, 1);
/// assert_ne!(a, b);
/// ```
#[must_use]
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut s = SplitMix64::new(root ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    s.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_draw_is_in_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for bound in [1u32, 2, 3, 73, 74, 1000, u32::MAX] {
            for _ in 0..100 {
                assert!(rng.gen_range_u32(bound) < bound);
            }
        }
    }

    #[test]
    fn inclusive_range_hits_endpoints() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.gen_range_inclusive_u32(0, 73);
            assert!(v <= 73);
            seen_lo |= v == 0;
            seen_hi |= v == 73;
        }
        assert!(
            seen_lo && seen_hi,
            "both endpoints should appear in 10k draws"
        );
    }

    #[test]
    fn uniformity_chi_square_74_slots() {
        // MINT draws URAND(0,73): check the 74-bucket histogram is flat.
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let n = 740_000u64;
        let mut counts = [0u64; 74];
        for _ in 0..n {
            counts[rng.gen_range_u32(74) as usize] += 1;
        }
        let expected = n as f64 / 74.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 73 degrees of freedom; 99.9th percentile is ~112. Generous margin.
        assert!(chi2 < 130.0, "chi-square too large: {chi2}");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-1.0));
        assert!(rng.gen_bool(2.0));
    }

    #[test]
    fn gen_bool_rate_matches_p() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let p = 1.0 / 73.0;
        let n = 1_000_000;
        let hits = (0..n).filter(|_| rng.gen_bool(p)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 5e-4, "rate {rate} vs p {p}");
    }

    #[test]
    fn derive_seed_distinct_streams() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1000 {
            assert!(seen.insert(derive_seed(99, stream)));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let mut empty: [u32; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [42u32];
        rng.shuffle(&mut one);
        assert_eq!(one, [42]);
    }
}
