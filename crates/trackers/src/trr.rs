//! A vendor-TRR-like low-cost tracker (paper §II-F): few entries, easily
//! defeated by many-aggressor patterns.

use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// A DDR4-TRR-style tracker: a small table (1–30 entries, per Hassan et
/// al.'s reverse engineering) of recently-hot aggressor rows with saturating
/// counters; at REF the hottest entry is mitigated and evicted.
///
/// Unlike [`Mithril`](crate::Mithril)'s space-saving sketch, a new row that
/// misses a full table simply evicts the *coldest* entry and starts from
/// count 1 — losing all history. That is exactly the weakness
/// TRRespass-style many-aggressor patterns exploit: with more aggressor rows
/// than table entries, every aggressor keeps getting evicted before
/// accumulating a meaningful count, and mitigation effectively targets
/// decoys (`mint-sim` demonstrates this; the gauntlet example prints it).
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::SimpleTrr;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(6);
/// let mut trr = SimpleTrr::new(16);
/// for _ in 0..50 {
///     trr.on_activation(RowId(3), &mut rng);
/// }
/// assert!(trr.on_refresh(&mut rng).mitigates(RowId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct SimpleTrr {
    capacity: usize,
    /// (row, count) pairs; linear scans are fine at ≤30 entries.
    table: Vec<(RowId, u64)>,
}

impl SimpleTrr {
    /// Creates a TRR-like tracker with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TRR needs at least one entry");
        Self {
            capacity,
            table: Vec::with_capacity(capacity),
        }
    }

    /// Tracked count for `row`.
    #[must_use]
    pub fn count(&self, row: RowId) -> Option<u64> {
        self.table.iter().find(|(r, _)| *r == row).map(|(_, c)| *c)
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.table.len()
    }
}

impl InDramTracker for SimpleTrr {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        if let Some(entry) = self.table.iter_mut().find(|(r, _)| *r == row) {
            entry.1 += 1;
            return None;
        }
        if self.table.len() < self.capacity {
            self.table.push((row, 1));
            return None;
        }
        // Evict the coldest entry; the newcomer starts over at 1.
        let coldest = self
            .table
            .iter()
            .enumerate()
            .min_by_key(|(_, (r, c))| (*c, r.0))
            .map(|(i, _)| i)
            .expect("table is full, hence non-empty");
        self.table[coldest] = (row, 1);
        None
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        let Some(hottest) = self
            .table
            .iter()
            .enumerate()
            .max_by_key(|(_, (r, c))| (*c, u32::MAX - r.0))
            .map(|(i, _)| i)
        else {
            return MitigationDecision::None;
        };
        let (row, _) = self.table.swap_remove(hottest);
        MitigationDecision::Aggressor(row)
    }

    fn name(&self) -> &'static str {
        "TRR"
    }

    fn live_entries(&self) -> usize {
        self.table.len()
    }

    fn entries(&self) -> usize {
        self.capacity
    }

    /// 18-bit row + 10-bit saturating counter per entry.
    fn storage_bits(&self) -> u64 {
        self.capacity as u64 * 28
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.table.clear();
    }

    /// `[len, row₀, count₀, …]` in table order. The order never decides
    /// eviction or mitigation — both select by a total `(count, row)`
    /// order — so walking it as stored only keeps the checkpoint bytes
    /// literal. Loading refuses counts no live entry holds (0, or 2^63
    /// and above).
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        let len = c.count(self.table.len(), self.capacity, "TRR table")?;
        self.table.resize(len, (RowId(0), 0));
        for (row, count) in &mut self.table {
            c.u32(&mut row.0)?;
            c.u64(count)?;
            crate::count_table::check_count("TRR table", *row, *count)?;
        }
        Ok(())
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
    fn tracks_single_aggressor_fine() {
        let mut r = rng(1);
        let mut trr = SimpleTrr::new(4);
        for _ in 0..10 {
            trr.on_activation(RowId(5), &mut r);
        }
        assert!(trr.on_refresh(&mut r).mitigates(RowId(5)));
    }

    #[test]
    fn many_aggressors_exceed_capacity() {
        // TRRespass shape: with more aggressors than entries, at least
        // (aggressors − capacity) rows are untracked at any moment, so a
        // majority of attack activations land on rows with no history.
        let mut r = rng(2);
        let mut trr = SimpleTrr::new(4);
        let mut untracked_hits = 0u32;
        let mut total = 0u32;
        for _round in 0..100u32 {
            for agg in 0..8u32 {
                if trr.count(RowId(agg)).is_none() {
                    untracked_hits += 1;
                }
                trr.on_activation(RowId(agg), &mut r);
                total += 1;
            }
            assert!(trr.occupied() <= 4);
        }
        assert!(
            untracked_hits * 2 >= total,
            "at least half the attack ACTs must hit untracked rows \
             ({untracked_hits}/{total})"
        );
    }

    #[test]
    fn eviction_picks_coldest() {
        let mut r = rng(3);
        let mut trr = SimpleTrr::new(2);
        for _ in 0..5 {
            trr.on_activation(RowId(1), &mut r);
        }
        trr.on_activation(RowId(2), &mut r);
        trr.on_activation(RowId(3), &mut r); // evicts row 2 (count 1)
        assert_eq!(trr.count(RowId(1)), Some(5));
        assert_eq!(trr.count(RowId(2)), None);
        assert_eq!(trr.count(RowId(3)), Some(1));
    }

    #[test]
    fn refresh_evicts_the_mitigated_row() {
        let mut r = rng(4);
        let mut trr = SimpleTrr::new(4);
        trr.on_activation(RowId(1), &mut r);
        let _ = trr.on_refresh(&mut r);
        assert_eq!(trr.occupied(), 0);
    }

    #[test]
    fn empty_no_decision_and_metadata() {
        let mut r = rng(5);
        let mut trr = SimpleTrr::new(16);
        assert!(trr.on_refresh(&mut r).is_none());
        assert_eq!(trr.entries(), 16);
        assert_eq!(trr.name(), "TRR");
    }

    #[test]
    fn walk_refuses_counts_no_run_reaches() {
        let load = |words: &[u64]| {
            let mut trr = SimpleTrr::new(2);
            let mut c = StateCursor::loading(words);
            trr.walk_state(&mut c)
                .and_then(|()| c.finish())
                .map(|_| trr)
        };
        assert_eq!(load(&[1, 5, 3]).unwrap().count(RowId(5)), Some(3));
        for bad in [0, 1 << 63, u64::MAX] {
            let err = load(&[2, 7, 1, 5, bad]).unwrap_err();
            assert!(err.contains("row 5 has count"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = SimpleTrr::new(0);
    }
}
