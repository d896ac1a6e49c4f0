//! PRCT: the idealized Per-Row Counter-Table (paper §II-H).

use crate::count_table::CountTable;
use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// The idealized Per-Row Counter-Table: one activation counter per DRAM row,
/// held in SRAM (impractically large — 128K entries per bank — but the
/// paper's yardstick for how good *any* in-DRAM tracker could be at a given
/// mitigation rate).
///
/// Behaviour (paper §II-H and §V-G):
///
/// * every activation — demand **or mitigative refresh** — increments the
///   activated row's counter (counting silent refreshes is what makes PRCT
///   immune to transitive attacks);
/// * at each REF the row with the highest non-zero counter is mitigated and
///   its counter cleared (the paper's PRCT "always picks a row to be
///   mitigated as long as there is at least one activation").
///
/// Its MinTRH is set purely by the mitigation rate: the ProTRR Feinting
/// attack pushes two final rows to ~623 activations each, so MinTRH-D = 623
/// (Table III).
///
/// The implementation stores only the non-zero counters in a hash map; the
/// reported [`entries`](InDramTracker::entries)/storage reflect the modelled
/// hardware (one counter per row).
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::Prct;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// let mut prct = Prct::new(1024);
/// prct.on_activation(RowId(5), &mut rng);
/// prct.on_activation(RowId(5), &mut rng);
/// prct.on_activation(RowId(9), &mut rng);
/// assert!(prct.on_refresh(&mut rng).mitigates(RowId(5)));
/// ```
#[derive(Debug, Clone)]
pub struct Prct {
    rows: u32,
    counters: CountTable,
}

impl Prct {
    /// Creates a PRCT for a bank of `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    #[must_use]
    pub fn new(rows: u32) -> Self {
        assert!(rows > 0, "PRCT needs at least one row");
        Self {
            rows,
            counters: CountTable::growing(rows as usize),
        }
    }

    /// Current counter value for `row`.
    #[must_use]
    pub fn count(&self, row: RowId) -> u64 {
        self.counters.get(row).unwrap_or(0)
    }

    /// Number of rows with a non-zero counter.
    #[must_use]
    pub fn active_rows(&self) -> usize {
        self.counters.len()
    }

    fn bump(&mut self, row: RowId) {
        if self.counters.increment(row).is_none() {
            self.counters.set(row, 1);
        }
    }
}

impl InDramTracker for Prct {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        self.bump(row);
        None
    }

    fn on_mitigative_refresh(&mut self, row: RowId) {
        // A victim refresh is an activation of the victim row; counting it
        // is what defeats Half-Double (paper §V-G "PRCT ... immune").
        self.bump(row);
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        match self.counters.max() {
            Some((row, _)) => {
                self.counters.remove(row);
                MitigationDecision::Aggressor(row)
            }
            None => MitigationDecision::None,
        }
    }

    fn name(&self) -> &'static str {
        "PRCT"
    }

    fn live_entries(&self) -> usize {
        self.counters.len()
    }

    fn entries(&self) -> usize {
        self.rows as usize
    }

    /// One 16-bit counter per row (idealized hardware).
    fn storage_bits(&self) -> u64 {
        u64::from(self.rows) * 16
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.counters.clear();
    }

    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        self.counters.walk(c, self.name())
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
    fn mitigates_hottest_row() {
        let mut r = rng(1);
        let mut prct = Prct::new(128);
        for _ in 0..10 {
            prct.on_activation(RowId(3), &mut r);
        }
        for _ in 0..7 {
            prct.on_activation(RowId(4), &mut r);
        }
        assert!(prct.on_refresh(&mut r).mitigates(RowId(3)));
        // Counter cleared: next REF picks the runner-up.
        assert!(prct.on_refresh(&mut r).mitigates(RowId(4)));
        assert!(prct.on_refresh(&mut r).is_none());
    }

    #[test]
    fn counts_mitigative_refreshes() {
        let mut r = rng(2);
        let mut prct = Prct::new(128);
        // Transitive attack shape: victim refreshes hammer row 9 silently.
        for _ in 0..5 {
            prct.on_mitigative_refresh(RowId(9));
        }
        prct.on_activation(RowId(50), &mut r);
        // Row 9's silent count (5) beats row 50's demand count (1).
        assert!(prct.on_refresh(&mut r).mitigates(RowId(9)));
    }

    #[test]
    fn deterministic_tie_break() {
        let mut r = rng(3);
        let mut prct = Prct::new(128);
        prct.on_activation(RowId(20), &mut r);
        prct.on_activation(RowId(10), &mut r);
        assert!(prct.on_refresh(&mut r).mitigates(RowId(10)));
    }

    #[test]
    fn always_mitigates_when_any_activation_exists() {
        let mut r = rng(4);
        let mut prct = Prct::new(128);
        prct.on_activation(RowId(1), &mut r);
        assert!(prct.on_refresh(&mut r).is_some());
    }

    #[test]
    fn entries_and_storage_model_full_table() {
        let prct = Prct::new(128 * 1024);
        assert_eq!(prct.entries(), 128 * 1024);
        assert_eq!(prct.storage_bits(), 128 * 1024 * 16);
        assert_eq!(prct.name(), "PRCT");
    }

    #[test]
    fn reset_clears_counters() {
        let mut r = rng(5);
        let mut prct = Prct::new(128);
        prct.on_activation(RowId(2), &mut r);
        prct.reset(&mut r);
        assert_eq!(prct.active_rows(), 0);
        assert!(prct.on_refresh(&mut r).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        let _ = Prct::new(0);
    }
}
