//! Graphene: the memory-controller-side Misra-Gries tracker used in the
//! paper's storage comparison (Table IX).

use crate::count_table::CountTable;
use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// Configuration of a [`Graphene`] tracker.
///
/// Graphene (MICRO 2020) sizes its Misra-Gries table against the worst case:
/// to guarantee that any row reaching the mitigation threshold `T_mit` is
/// tracked, a table observing `W` activations per reset window needs
/// `entries ≥ W / T_mit` counters. Graphene mitigates at `T_mit = TRH / 4`
/// (a quarter of the threshold, since an aggressor may be hammered from both
/// sides and be in flight), which is the sizing reproduced here for
/// Table IX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrapheneConfig {
    /// Misra-Gries entries.
    pub entries: usize,
    /// Counter value at which a tracked row is (proactively) mitigated.
    pub mitigation_threshold: u64,
}

impl GrapheneConfig {
    /// Sizes Graphene for a double-sided Rowhammer threshold `trh_d`,
    /// observing `acts_per_window` activations between table resets
    /// (one tREFW: 598 016 for the paper's DDR5 configuration).
    ///
    /// # Panics
    ///
    /// Panics if `trh_d < 4`.
    #[must_use]
    pub fn for_threshold(trh_d: u32, acts_per_window: u64) -> Self {
        assert!(trh_d >= 4, "threshold too small to size Graphene");
        let t_mit = u64::from(trh_d) / 4;
        let entries = acts_per_window.div_ceil(t_mit) as usize;
        Self {
            entries,
            mitigation_threshold: t_mit,
        }
    }

    /// SRAM bytes: 18-bit row address plus a counter wide enough for the
    /// mitigation threshold, per entry.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        let counter_bits = 64 - self.mitigation_threshold.leading_zeros() as u64;
        (self.entries as u64 * (18 + counter_bits)).div_ceil(8)
    }
}

/// Graphene, included for the Table IX storage comparison and as an extra
/// baseline: a Misra-Gries aggressor table that *proactively* mitigates any
/// row whose counter reaches the mitigation threshold (returning the
/// decision straight from [`on_activation`](InDramTracker::on_activation),
/// as the MC-side original does with its own refresh commands).
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::{Graphene, GrapheneConfig};
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(8);
/// let mut g = Graphene::new(GrapheneConfig { entries: 8, mitigation_threshold: 5 });
/// let mut mitigated = false;
/// for _ in 0..5 {
///     mitigated |= g.on_activation(RowId(3), &mut rng).is_some();
/// }
/// assert!(mitigated); // fires exactly at the threshold
/// ```
#[derive(Debug, Clone)]
pub struct Graphene {
    config: GrapheneConfig,
    table: CountTable,
}

impl Graphene {
    /// Creates a Graphene tracker.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `mitigation_threshold == 0`.
    #[must_use]
    pub fn new(config: GrapheneConfig) -> Self {
        assert!(config.entries > 0, "Graphene needs at least one entry");
        assert!(
            config.mitigation_threshold > 0,
            "mitigation threshold must be non-zero"
        );
        Self {
            config,
            table: CountTable::new(config.entries),
        }
    }

    /// The configuration (including derived storage size).
    #[must_use]
    pub fn config(&self) -> &GrapheneConfig {
        &self.config
    }

    /// Tracked count for `row`.
    #[must_use]
    pub fn count(&self, row: RowId) -> Option<u64> {
        self.table.get(row)
    }

    /// Resets the table (Graphene does this every reset window).
    pub fn reset_window(&mut self) {
        self.table.clear();
    }
}

impl InDramTracker for Graphene {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        if let Some(c) = self.table.increment(row) {
            if c >= self.config.mitigation_threshold {
                self.table.remove(row);
                return Some(MitigationDecision::Aggressor(row));
            }
            return None;
        }
        if !self.table.is_full() {
            self.table.set(row, 1);
            return None;
        }
        // Misra-Gries spill: decrement all, evict zeros.
        self.table.decrement_all();
        None
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        // Graphene mitigates proactively on threshold crossings, not at REF.
        MitigationDecision::None
    }

    fn name(&self) -> &'static str {
        "Graphene"
    }

    fn live_entries(&self) -> usize {
        self.table.len()
    }

    fn entries(&self) -> usize {
        self.config.entries
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bytes() * 8
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.table.clear();
    }

    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        self.table.walk(c, self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_rng::Xoshiro256StarStar;
    use std::collections::HashMap;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn sizing_scales_inversely_with_threshold() {
        let w = 598_016;
        let at_3k = GrapheneConfig::for_threshold(3000, w);
        let at_300 = GrapheneConfig::for_threshold(300, w);
        assert!(at_300.entries >= 9 * at_3k.entries);
        assert!(at_300.storage_bytes() > at_3k.storage_bytes());
        // Paper Table IX reports tens/hundreds of KB; our analytic sizing is
        // leaner but must still be orders of magnitude above MINT's 15 B.
        assert!(at_3k.storage_bytes() > 2_000);
        assert!(at_300.storage_bytes() > 20_000);
    }

    #[test]
    fn proactive_mitigation_at_threshold() {
        let mut r = rng(1);
        let mut g = Graphene::new(GrapheneConfig {
            entries: 4,
            mitigation_threshold: 3,
        });
        assert!(g.on_activation(RowId(1), &mut r).is_none());
        assert!(g.on_activation(RowId(1), &mut r).is_none());
        let d = g.on_activation(RowId(1), &mut r);
        assert_eq!(d, Some(MitigationDecision::Aggressor(RowId(1))));
        // Counter cleared afterwards.
        assert_eq!(g.count(RowId(1)), None);
    }

    #[test]
    fn guarantee_no_row_exceeds_threshold_plus_spill() {
        // Misra-Gries property: with entries = W / T, no row can reach its
        // true count T without being tracked; hence no row crosses
        // 2T unmitigated even under churn.
        let mut r = rng(2);
        let t = 10u64;
        let w = 400u64;
        let entries = (w / t) as usize;
        let mut g = Graphene::new(GrapheneConfig {
            entries,
            mitigation_threshold: t,
        });
        let mut unmitigated: HashMap<RowId, u64> = HashMap::new();
        let mut worst = 0u64;
        for i in 0..w {
            // Adversarial churn: 50 rows round-robin + one hot row.
            let row = if i % 3 == 0 {
                RowId(999)
            } else {
                RowId((i % 50) as u32)
            };
            let c = unmitigated.entry(row).or_insert(0);
            *c += 1;
            if g.on_activation(row, &mut r).is_some() {
                *c = 0;
            }
            worst = worst.max(*unmitigated.get(&row).unwrap());
        }
        assert!(worst <= 2 * t, "worst unmitigated count {worst} > 2T");
    }

    #[test]
    fn refresh_is_a_no_op() {
        let mut r = rng(3);
        let mut g = Graphene::new(GrapheneConfig {
            entries: 4,
            mitigation_threshold: 100,
        });
        g.on_activation(RowId(1), &mut r);
        assert!(g.on_refresh(&mut r).is_none());
        assert_eq!(g.count(RowId(1)), Some(1));
    }

    #[test]
    #[should_panic(expected = "threshold too small")]
    fn tiny_threshold_rejected() {
        let _ = GrapheneConfig::for_threshold(3, 1000);
    }

    #[test]
    fn reset_window_clears() {
        let mut r = rng(4);
        let mut g = Graphene::new(GrapheneConfig {
            entries: 4,
            mitigation_threshold: 100,
        });
        g.on_activation(RowId(1), &mut r);
        g.reset_window();
        assert_eq!(g.count(RowId(1)), None);
    }
}
