//! Blacksmith-style non-uniform frequency patterns (paper §II-F / §III-C).

use crate::{AccessPattern, ROW_STRIDE};
use mint_dram::RowId;
use mint_rng::{Rng64, SplitMix64};

/// Configuration of a [`Blacksmith`] pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlacksmithConfig {
    /// Number of aggressor pairs in the fuzzed pattern.
    pub pairs: u32,
    /// Slots per tREFI (MaxACT).
    pub max_act: u32,
    /// Seed for the fuzzer that assigns frequency/phase/amplitude.
    pub seed: u64,
}

impl Default for BlacksmithConfig {
    fn default() -> Self {
        Self {
            pairs: 12,
            max_act: 73,
            seed: 0xB1AC_6161,
        }
    }
}

/// A Blacksmith-style pattern: aggressor pairs hammered with fuzzer-chosen
/// *frequency*, *phase* and *amplitude*, synchronised to the refresh
/// interval (the attack's signature move — §III-C notes that Blacksmith uses
/// refresh-interval synchronisation to park its hammers on a tracker's most
/// vulnerable position).
///
/// Each pair `i` is assigned:
/// * `period_i`  — hammer every `period_i` tREFI (frequency),
/// * `phase_i`   — starting slot offset inside the tREFI,
/// * `amplitude_i` — back-to-back double-sided rounds per visit.
///
/// Unused slots fall to a rotating set of decoy rows, mimicking the original
/// attack's filler accesses. The assignment is deterministic in the seed.
///
/// # Examples
///
/// ```
/// use mint_attacks::{AccessPattern, Blacksmith, BlacksmithConfig};
///
/// let mut b = Blacksmith::new(BlacksmithConfig::default());
/// // A full tREFI always produces MaxACT activations (no idle slots).
/// let acts: Vec<_> = (0..73).map(|s| b.next_act(0, s)).collect();
/// assert!(acts.iter().all(Option::is_some));
/// ```
#[derive(Debug, Clone)]
pub struct Blacksmith {
    config: BlacksmithConfig,
    /// Per-pair (low_aggressor, period, phase, amplitude).
    pairs: Vec<(RowId, u32, u32, u32)>,
    /// Precomputed slot schedule for one hyper-period of tREFIs.
    schedule: Vec<Vec<RowId>>,
}

impl Blacksmith {
    /// Fuzzes a pattern from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pairs == 0` or `max_act == 0`.
    #[must_use]
    pub fn new(config: BlacksmithConfig) -> Self {
        assert!(config.pairs > 0, "need at least one aggressor pair");
        assert!(config.max_act > 0, "window must have at least one slot");
        let mut rng = SplitMix64::new(config.seed);
        let mut pairs = Vec::with_capacity(config.pairs as usize);
        for i in 0..config.pairs {
            // Pairs are double-sided: rows (base, base+2) with victim between.
            let base = RowId(1000 + i * (ROW_STRIDE + 2));
            let period = 1 + rng.gen_range_u32(4); // every 1..=4 tREFI
            let phase = rng.gen_range_u32(config.max_act);
            let amplitude = 1 + rng.gen_range_u32(3); // 1..=3 rounds per visit
            pairs.push((base, period, phase, amplitude));
        }
        let hyper: u32 = pairs.iter().map(|p| p.1).fold(1, lcm);
        let mut schedule = Vec::with_capacity(hyper as usize);
        for refi in 0..hyper {
            schedule.push(Self::build_refi(&pairs, refi, config.max_act));
        }
        Self {
            config,
            pairs,
            schedule,
        }
    }

    fn build_refi(pairs: &[(RowId, u32, u32, u32)], refi: u32, max_act: u32) -> Vec<RowId> {
        let mut slots: Vec<Option<RowId>> = vec![None; max_act as usize];
        for &(base, period, phase, amplitude) in pairs {
            if refi % period != 0 {
                continue;
            }
            // `amplitude` double-sided rounds starting at `phase` (wrapping).
            let mut s = phase;
            for _ in 0..amplitude {
                for agg in [base, RowId(base.0 + 2)] {
                    let idx = (s % max_act) as usize;
                    if slots[idx].is_none() {
                        slots[idx] = Some(agg);
                    }
                    s += 1;
                }
            }
        }
        // Fillers: rotate decoy rows through the leftover slots. The decoy
        // region sits below 64K so the pattern fits any bank size used in
        // this repository.
        let mut decoy = 0u32;
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    decoy += 1;
                    RowId(60_000 + (decoy % 64) * ROW_STRIDE)
                })
            })
            .collect()
    }

    /// The configuration the pattern was fuzzed from.
    #[must_use]
    pub fn config(&self) -> &BlacksmithConfig {
        &self.config
    }

    /// The fuzzed aggressor pairs as (low, high) rows.
    #[must_use]
    pub fn aggressor_pairs(&self) -> Vec<(RowId, RowId)> {
        self.pairs
            .iter()
            .map(|&(b, ..)| (b, RowId(b.0 + 2)))
            .collect()
    }
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl AccessPattern for Blacksmith {
    fn next_act(&mut self, refi: u64, slot: u32) -> Option<RowId> {
        let r = (refi % self.schedule.len() as u64) as usize;
        self.schedule[r].get(slot as usize).copied()
    }

    fn name(&self) -> &'static str {
        "blacksmith"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.pairs.iter().map(|&(b, ..)| RowId(b.0 + 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let mut a = Blacksmith::new(BlacksmithConfig::default());
        let mut b = Blacksmith::new(BlacksmithConfig::default());
        for refi in 0..20 {
            for slot in 0..73 {
                assert_eq!(a.next_act(refi, slot), b.next_act(refi, slot));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Blacksmith::new(BlacksmithConfig::default());
        let mut b = Blacksmith::new(BlacksmithConfig {
            seed: 42,
            ..BlacksmithConfig::default()
        });
        let sa: Vec<_> = (0..73).map(|s| a.next_act(0, s)).collect();
        let sb: Vec<_> = (0..73).map(|s| b.next_act(0, s)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn all_slots_filled() {
        let mut b = Blacksmith::new(BlacksmithConfig::default());
        for refi in 0..8 {
            for slot in 0..73 {
                assert!(b.next_act(refi, slot).is_some());
            }
        }
    }

    #[test]
    fn victims_are_between_pairs() {
        let b = Blacksmith::new(BlacksmithConfig::default());
        let victims = b.target_victims();
        let pairs = b.aggressor_pairs();
        assert_eq!(victims.len(), pairs.len());
        for ((lo, hi), v) in pairs.iter().zip(&victims) {
            assert_eq!(v.0, lo.0 + 1);
            assert_eq!(hi.0, lo.0 + 2);
        }
    }

    #[test]
    fn schedule_repeats_with_hyper_period() {
        let mut b = Blacksmith::new(BlacksmithConfig::default());
        let hyper = b.schedule.len() as u64;
        for slot in 0..73 {
            assert_eq!(b.next_act(0, slot), b.next_act(hyper, slot));
        }
    }

    #[test]
    #[should_panic(expected = "at least one aggressor pair")]
    fn zero_pairs_rejected() {
        let _ = Blacksmith::new(BlacksmithConfig {
            pairs: 0,
            ..BlacksmithConfig::default()
        });
    }
}
