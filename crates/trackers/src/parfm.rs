//! PARFM: buffer every activation, mitigate one at random (paper §V-G).

use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// PARFM (from the Mithril paper, as characterised in MINT §V-G): a
/// past-centric probabilistic tracker that buffers *all* activations of the
/// tREFI window — up to `MaxACT` = 73 entries — and at REF mitigates one
/// buffered entry chosen uniformly at random, then clears the buffer.
///
/// Selection probability per activation is exactly `1/M` like MINT's, but
/// the cost is 73 entries instead of 1, and — crucially — PARFM only sees
/// demand activations, so it is **vulnerable to transitive attacks** (its
/// Table III MinTRH-D of 4096 comes from the 8192 silent victim refreshes a
/// single-sided attack can aim at a victim-of-victim per tREFW).
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::Parfm;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(2);
/// let mut parfm = Parfm::new(73);
/// for _ in 0..73 {
///     parfm.on_activation(RowId(11), &mut rng);
/// }
/// // The buffer holds only row 11, so mitigation is guaranteed.
/// assert!(parfm.on_refresh(&mut rng).mitigates(RowId(11)));
/// ```
#[derive(Debug, Clone)]
pub struct Parfm {
    capacity: usize,
    buffer: Vec<RowId>,
    /// Activations that arrived with a full buffer (possible only under
    /// refresh postponement, where they become invisible — §VI-B).
    overflow: u64,
}

impl Parfm {
    /// Creates a PARFM tracker able to buffer `capacity` activations
    /// (`MaxACT` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PARFM capacity must be non-zero");
        Self {
            capacity,
            buffer: Vec::with_capacity(capacity),
            overflow: 0,
        }
    }

    /// Number of buffered activations.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Activations lost to a full buffer (§VI-B postponement weakness).
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflow
    }
}

impl InDramTracker for Parfm {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        if self.buffer.len() < self.capacity {
            self.buffer.push(row);
        } else {
            self.overflow += 1;
        }
        None
    }

    fn on_refresh(&mut self, rng: &mut dyn Rng64) -> MitigationDecision {
        if self.buffer.is_empty() {
            return MitigationDecision::None;
        }
        let idx = rng.gen_range_u64(self.buffer.len() as u64) as usize;
        let row = self.buffer[idx];
        self.buffer.clear();
        MitigationDecision::Aggressor(row)
    }

    fn name(&self) -> &'static str {
        "PARFM"
    }

    fn live_entries(&self) -> usize {
        self.buffer.len()
    }

    fn overflow_count(&self) -> u64 {
        self.overflow
    }

    fn entries(&self) -> usize {
        self.capacity
    }

    /// 18 bits of row address per buffered entry.
    fn storage_bits(&self) -> u64 {
        self.capacity as u64 * 18
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.buffer.clear();
        self.overflow = 0;
    }

    /// `[overflow, len, rows…]` in buffer order (order matters: mitigation
    /// indexes the buffer with an RNG draw).
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.u64(&mut self.overflow)?;
        let len = c.count(self.buffer.len(), self.capacity, "PARFM buffer")?;
        self.buffer.resize(len, RowId(0));
        self.buffer.iter_mut().try_for_each(|row| c.u32(&mut row.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn selection_probability_proportional_to_copies() {
        // A row with c of the 73 buffer slots is selected w.p. c/73.
        let mut r = rng(1);
        let mut parfm = Parfm::new(73);
        let trials = 100_000;
        let copies = 5u32;
        let mut hits = 0;
        for _ in 0..trials {
            for i in 0..73u32 {
                let row = if i < copies { RowId(9) } else { RowId(100 + i) };
                parfm.on_activation(row, &mut r);
            }
            if parfm.on_refresh(&mut r).mitigates(RowId(9)) {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / f64::from(trials);
        let expect = f64::from(copies) / 73.0;
        assert!((rate - expect).abs() < 3e-3, "{rate} vs {expect}");
    }

    #[test]
    fn empty_window_selects_nothing() {
        let mut r = rng(2);
        let mut parfm = Parfm::new(73);
        assert!(parfm.on_refresh(&mut r).is_none());
    }

    #[test]
    fn partial_window_always_selects_something() {
        // Unlike InDRAM-PARA, PARFM never wastes a REF if anything ran.
        let mut r = rng(3);
        let mut parfm = Parfm::new(73);
        for _ in 0..1000 {
            parfm.on_activation(RowId(1), &mut r);
            assert!(parfm.on_refresh(&mut r).mitigates(RowId(1)));
        }
    }

    #[test]
    fn postponement_overflow_makes_acts_invisible() {
        // §VI-B: with REFs postponed, everything past MaxACT is lost.
        let mut r = rng(4);
        let mut parfm = Parfm::new(73);
        for i in 0..73u32 {
            parfm.on_activation(RowId(1000 + i), &mut r); // decoys fill buffer
        }
        for _ in 0..292 {
            parfm.on_activation(RowId(666), &mut r); // attack row invisible
        }
        assert_eq!(parfm.overflowed(), 292);
        assert!(!parfm.on_refresh(&mut r).mitigates(RowId(666)));
    }

    #[test]
    fn refresh_clears_buffer() {
        let mut r = rng(5);
        let mut parfm = Parfm::new(73);
        for _ in 0..73 {
            parfm.on_activation(RowId(2), &mut r);
        }
        let _ = parfm.on_refresh(&mut r);
        assert_eq!(parfm.buffered(), 0);
    }

    #[test]
    fn metadata() {
        let parfm = Parfm::new(73);
        assert_eq!(parfm.entries(), 73);
        assert_eq!(parfm.storage_bits(), 73 * 18);
        assert_eq!(parfm.name(), "PARFM");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = Parfm::new(0);
    }
}
