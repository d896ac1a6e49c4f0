//! ProTRR-style Misra-Gries victim tracking (paper §II-G).

use crate::count_table::CountTable;
use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// Configuration of a [`ProTrr`] tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProTrrConfig {
    /// Misra-Gries table entries per bank.
    pub entries: usize,
    /// Victims inserted per activation on each side (the blast radius of
    /// the device; 1 by default).
    pub blast_radius: u32,
}

impl Default for ProTrrConfig {
    fn default() -> Self {
        Self {
            entries: 677,
            blast_radius: 1,
        }
    }
}

/// ProTRR (S&P 2022), as characterised in MINT §II-G: principled in-DRAM
/// victim tracking with a Misra-Gries frequent-items table.
///
/// Every activation of row `r` inserts `r`'s potential victims (`r ± 1` for
/// blast radius 1) into the table. Insertion follows Misra-Gries: tracked
/// victims increment; if the table is full, **all** counters decrement
/// instead (zero-count entries are evicted). At each REF the victim with the
/// highest count is refreshed directly
/// ([`MitigationDecision::VictimRefresh`]) and removed from the table.
///
/// Tracking victims (not aggressors) means a double-sided pair contributes
/// 2× to the shared victim's count — ProTRR does not suffer the
/// counter-doubling weakness of aggressor-counting schemes (§V-F).
///
/// # Examples
///
/// ```
/// use mint_core::{InDramTracker, MitigationDecision};
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::{ProTrr, ProTrrConfig};
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(5);
/// let mut t = ProTrr::new(ProTrrConfig::default());
/// // Double-sided attack on victim row 21.
/// for _ in 0..8 {
///     t.on_activation(RowId(20), &mut rng);
///     t.on_activation(RowId(22), &mut rng);
/// }
/// assert_eq!(
///     t.on_refresh(&mut rng),
///     MitigationDecision::VictimRefresh(RowId(21))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ProTrr {
    config: ProTrrConfig,
    table: CountTable,
}

impl ProTrr {
    /// Creates a ProTRR tracker.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries == 0`.
    #[must_use]
    pub fn new(config: ProTrrConfig) -> Self {
        assert!(config.entries > 0, "ProTRR needs at least one entry");
        Self {
            config,
            table: CountTable::new(config.entries),
        }
    }

    /// Tracked count for a victim row.
    #[must_use]
    pub fn count(&self, victim: RowId) -> Option<u64> {
        self.table.get(victim)
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.table.len()
    }

    fn insert_victim(&mut self, victim: RowId) {
        if self.table.increment(victim).is_some() {
            return;
        }
        if !self.table.is_full() {
            self.table.set(victim, 1);
            return;
        }
        // Misra-Gries: decrement everyone, evict zeros.
        self.table.decrement_all();
    }
}

impl InDramTracker for ProTrr {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        for victim in row.neighbours(self.config.blast_radius) {
            self.insert_victim(victim);
        }
        None
    }

    fn on_mitigative_refresh(&mut self, row: RowId) {
        // A victim refresh activates `row`, endangering *its* neighbours.
        for victim in row.neighbours(self.config.blast_radius) {
            self.insert_victim(victim);
        }
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        let Some((victim, _)) = self.table.max() else {
            return MitigationDecision::None;
        };
        self.table.remove(victim);
        MitigationDecision::VictimRefresh(victim)
    }

    fn name(&self) -> &'static str {
        "ProTRR"
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

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn tracker(entries: usize) -> ProTrr {
        ProTrr::new(ProTrrConfig {
            entries,
            blast_radius: 1,
        })
    }

    #[test]
    fn victims_counted_double_for_double_sided() {
        let mut r = rng(1);
        let mut t = tracker(16);
        for _ in 0..5 {
            t.on_activation(RowId(10), &mut r);
            t.on_activation(RowId(12), &mut r);
        }
        // Shared victim 11 got 2 per round; outer victims 9/13 got 1.
        assert_eq!(t.count(RowId(11)), Some(10));
        assert_eq!(t.count(RowId(9)), Some(5));
        assert_eq!(t.count(RowId(13)), Some(5));
    }

    #[test]
    fn refresh_targets_hottest_victim_directly() {
        let mut r = rng(2);
        let mut t = tracker(16);
        for _ in 0..3 {
            t.on_activation(RowId(10), &mut r);
            t.on_activation(RowId(12), &mut r);
        }
        assert_eq!(
            t.on_refresh(&mut r),
            MitigationDecision::VictimRefresh(RowId(11))
        );
        // Removed from the table after mitigation.
        assert_eq!(t.count(RowId(11)), None);
    }

    #[test]
    fn misra_gries_decrement_on_full_table() {
        let mut r = rng(3);
        let mut t = tracker(2);
        t.on_activation(RowId(10), &mut r); // victims 9, 11 fill the table
        assert_eq!(t.occupied(), 2);
        // New victim pair arrives. Victim 99 hits a full table: everyone
        // decrements to zero and evicts. Victim 101 then finds free space.
        t.on_activation(RowId(100), &mut r);
        assert_eq!(t.occupied(), 1);
        assert_eq!(t.count(RowId(101)), Some(1));
        assert_eq!(t.count(RowId(9)), None);
        assert_eq!(t.count(RowId(11)), None);
    }

    #[test]
    fn mitigative_refresh_counts_next_tier_victims() {
        let _r = rng(4);
        let mut t = tracker(16);
        // Refreshing row 20 endangers 19 and 21.
        t.on_mitigative_refresh(RowId(20));
        assert_eq!(t.count(RowId(19)), Some(1));
        assert_eq!(t.count(RowId(21)), Some(1));
    }

    #[test]
    fn empty_table_no_decision() {
        let mut r = rng(5);
        let mut t = tracker(4);
        assert!(t.on_refresh(&mut r).is_none());
    }

    #[test]
    fn metadata() {
        let t = tracker(677);
        assert_eq!(t.entries(), 677);
        assert_eq!(t.storage_bits(), 677 * 34);
        assert_eq!(t.name(), "ProTRR");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = tracker(0);
    }

    #[test]
    fn reset_clears_table() {
        let mut r = rng(6);
        let mut t = tracker(4);
        t.on_activation(RowId(1), &mut r);
        t.reset(&mut r);
        assert_eq!(t.occupied(), 0);
    }
}
