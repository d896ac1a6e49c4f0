//! Mithril: counter-based-summary tracking (paper §II-G).

use crate::count_table::CountTable;
use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// Configuration of a [`Mithril`] tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MithrilConfig {
    /// Number of counter entries per bank (677 in the paper's Table III
    /// sizing for MinTRH-D = 1400).
    pub entries: usize,
}

impl MithrilConfig {
    /// The paper's Table III configuration: 677 entries.
    #[must_use]
    pub fn table3() -> Self {
        Self { entries: 677 }
    }
}

/// Mithril (HPCA 2022), as characterised in MINT §II-G / §V-G: a
/// Counter-based Summary (space-saving) sketch over row activations with
/// proactive mitigation.
///
/// * On an activation of a tracked row, its counter increments; an untracked
///   row replaces the minimum-count entry, inheriting `min + 1` (the classic
///   space-saving over-approximation, which guarantees no row's true count
///   is ever *under*-estimated).
/// * At each REF the entry with the highest counter is mitigated and "the
///   counter value is reduced by the min count" (the paper's description of
///   Mithril's proactive variant).
/// * Mitigative refreshes are counted like demand activations, so the design
///   is immune to transitive attacks.
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::{Mithril, MithrilConfig};
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(4);
/// let mut m = Mithril::new(MithrilConfig { entries: 4 });
/// for _ in 0..9 {
///     m.on_activation(RowId(1), &mut rng);
/// }
/// assert!(m.on_refresh(&mut rng).mitigates(RowId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Mithril {
    config: MithrilConfig,
    /// (row → counter); size bounded by `config.entries`.
    table: CountTable,
}

impl Mithril {
    /// Creates a Mithril tracker.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries == 0`.
    #[must_use]
    pub fn new(config: MithrilConfig) -> Self {
        assert!(config.entries > 0, "Mithril needs at least one entry");
        Self {
            config,
            table: CountTable::new(config.entries),
        }
    }

    /// Stored (over-approximate) count for `row`, if tracked.
    #[must_use]
    pub fn count(&self, row: RowId) -> Option<u64> {
        self.table.get(row)
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.table.len()
    }

    fn min_count(&mut self) -> u64 {
        if !self.table.is_full() {
            // Space-saving treats unoccupied slots as count 0.
            return 0;
        }
        self.table.min().map_or(0, |(_, min)| min)
    }

    fn observe(&mut self, row: RowId) {
        if self.table.increment(row).is_some() {
            return;
        }
        if !self.table.is_full() {
            self.table.set(row, 1);
            return;
        }
        // Replace a minimum entry; inherit min + 1.
        let (_, min) = self
            .table
            .pop_min()
            .expect("table is full, hence non-empty");
        self.table.set(row, min + 1);
    }
}

impl InDramTracker for Mithril {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        self.observe(row);
        None
    }

    fn on_mitigative_refresh(&mut self, row: RowId) {
        self.observe(row);
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        // Every live count is at least 1 (the walk refuses 0).
        let Some((row, max)) = self.table.max() else {
            return MitigationDecision::None;
        };
        let min = self.min_count();
        let remaining = max.saturating_sub(min.max(1));
        if remaining == 0 {
            self.table.remove(row);
        } else {
            self.table.set(row, remaining);
        }
        MitigationDecision::Aggressor(row)
    }

    fn name(&self) -> &'static str {
        "Mithril"
    }

    fn live_entries(&self) -> usize {
        self.table.len()
    }

    fn entries(&self) -> usize {
        self.config.entries
    }

    /// 18-bit row address + 16-bit counter per entry.
    fn storage_bits(&self) -> u64 {
        self.config.entries as u64 * 34
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

    fn small(entries: usize) -> Mithril {
        Mithril::new(MithrilConfig { entries })
    }

    #[test]
    fn tracks_and_mitigates_max() {
        let mut r = rng(1);
        let mut m = small(4);
        for _ in 0..5 {
            m.on_activation(RowId(1), &mut r);
        }
        for _ in 0..3 {
            m.on_activation(RowId(2), &mut r);
        }
        assert!(m.on_refresh(&mut r).mitigates(RowId(1)));
    }

    #[test]
    fn space_saving_never_underestimates() {
        // The stored count of any tracked row is ≥ its true count.
        let mut r = rng(2);
        let mut m = small(3);
        // Churn through many rows to force replacements.
        let mut true_counts: HashMap<RowId, u64> = HashMap::new();
        for i in 0..200u32 {
            let row = RowId(i % 10);
            m.on_activation(row, &mut r);
            *true_counts.entry(row).or_insert(0) += 1;
            if let Some(stored) = m.count(row) {
                assert!(
                    stored >= 1,
                    "stored count must be positive after observation"
                );
            }
        }
        for (row, &true_c) in &true_counts {
            if let Some(stored) = m.count(*row) {
                assert!(
                    stored >= true_c,
                    "row {row}: stored {stored} vs true {true_c}"
                );
            }
        }
    }

    #[test]
    fn replacement_inherits_min_plus_one() {
        let mut r = rng(3);
        let mut m = small(2);
        for _ in 0..10 {
            m.on_activation(RowId(1), &mut r);
        }
        for _ in 0..4 {
            m.on_activation(RowId(2), &mut r);
        }
        // Table full: {1:10, 2:4}. New row replaces min (row 2) with 5.
        m.on_activation(RowId(3), &mut r);
        assert_eq!(m.count(RowId(3)), Some(5));
        assert_eq!(m.count(RowId(2)), None);
    }

    #[test]
    fn mitigation_reduces_by_min() {
        let mut r = rng(4);
        let mut m = small(2);
        for _ in 0..10 {
            m.on_activation(RowId(1), &mut r);
        }
        for _ in 0..4 {
            m.on_activation(RowId(2), &mut r);
        }
        // max=10 (row 1), min=4 → row 1 drops to 6.
        assert!(m.on_refresh(&mut r).mitigates(RowId(1)));
        assert_eq!(m.count(RowId(1)), Some(6));
    }

    #[test]
    fn counts_mitigative_refreshes_for_transitive_immunity() {
        let mut r = rng(5);
        let mut m = small(8);
        // 20 silent refreshes on the same victim row must dominate.
        for _ in 0..20 {
            m.on_mitigative_refresh(RowId(7));
        }
        for i in 0..5u32 {
            m.on_activation(RowId(100 + i), &mut r);
        }
        assert!(m.on_refresh(&mut r).mitigates(RowId(7)));
    }

    #[test]
    fn empty_table_no_decision() {
        let mut r = rng(6);
        let mut m = small(4);
        assert!(m.on_refresh(&mut r).is_none());
    }

    #[test]
    fn occupancy_bounded_by_entries() {
        let mut r = rng(7);
        let mut m = small(5);
        for i in 0..1000u32 {
            m.on_activation(RowId(i), &mut r);
        }
        assert!(m.occupied() <= 5);
    }

    #[test]
    fn metadata() {
        let m = small(677);
        assert_eq!(m.entries(), 677);
        assert_eq!(m.storage_bits(), 677 * 34);
        assert_eq!(m.name(), "Mithril");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = small(0);
    }

    #[test]
    fn reset_clears_table() {
        let mut r = rng(8);
        let mut m = small(4);
        m.on_activation(RowId(1), &mut r);
        m.reset(&mut r);
        assert_eq!(m.occupied(), 0);
    }
}
