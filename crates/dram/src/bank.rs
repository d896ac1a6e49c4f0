//! Per-row hammer accounting for one DRAM bank.

use crate::stats::BankStats;
use crate::RowId;

/// Configuration for a [`Bank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Number of rows in the bank.
    pub rows: u32,
    /// Victim rows refreshed on either side of a mitigated aggressor.
    pub blast_radius: u32,
    /// Rowhammer threshold: if a row accumulates this many hammers without a
    /// refresh, a [`FailureRecord`] is logged. `None` disables checking
    /// (useful when only maxima are of interest).
    pub trh: Option<u32>,
}

impl Default for BankConfig {
    fn default() -> Self {
        Self {
            rows: crate::DDR5_ROWS_PER_BANK,
            blast_radius: 1,
            trh: None,
        }
    }
}

/// A Rowhammer failure: a row reached the threshold without a refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureRecord {
    /// The victim row that accumulated `hammers` disturbances.
    pub row: RowId,
    /// Hammer count at the moment the threshold was crossed.
    pub hammers: u32,
    /// Simulation timestamp (whatever unit the driver uses; the security
    /// simulator passes the global ACT index).
    pub at: u64,
}

/// A single DRAM bank modelled at the granularity the Rowhammer analysis
/// needs: a hammer counter per row.
///
/// Semantics:
///
/// * [`demand_activate`](Self::demand_activate) — a normal ACT: each row
///   within the blast radius gains one hammer.
/// * [`victim_refresh`](Self::victim_refresh) — refreshing a row clears its
///   hammer counter **and silently activates it**, hammering *its*
///   neighbours. This is the mechanism behind Half-Double/transitive attacks.
/// * [`auto_refresh_step`](Self::auto_refresh_step) — the background refresh
///   sweep; clears counters without the activation side-effect (the per-row
///   rate of one activation per 32 ms is negligible and conventionally
///   ignored, matching the Sariou–Wolman model's treatment).
///
/// The bank records the first time each row crosses the configured TRH in
/// [`failures`](Self::failures) and tracks the all-time maximum hammer count
/// for bound-style experiments.
#[derive(Debug, Clone)]
pub struct Bank {
    config: BankConfig,
    hammers: Vec<u32>,
    /// Rows that already failed (so each row is reported at most once).
    failed: Vec<bool>,
    failures: Vec<FailureRecord>,
    auto_ptr: u32,
    max_hammers_ever: u32,
    now: u64,
    stats: BankStats,
}

impl Bank {
    /// Creates a bank with all hammer counters at zero.
    ///
    /// # Panics
    ///
    /// Panics if `config.rows == 0`.
    #[must_use]
    pub fn new(config: BankConfig) -> Self {
        assert!(config.rows > 0, "bank must have at least one row");
        Self {
            hammers: vec![0; config.rows as usize],
            failed: vec![false; config.rows as usize],
            failures: Vec::new(),
            auto_ptr: 0,
            max_hammers_ever: 0,
            now: 0,
            stats: BankStats::default(),
            config,
        }
    }

    /// The bank configuration.
    #[must_use]
    pub fn config(&self) -> &BankConfig {
        &self.config
    }

    /// Whether `row` is a valid row of this bank.
    #[must_use]
    pub fn contains(&self, row: RowId) -> bool {
        row.0 < self.config.rows
    }

    /// Current hammer count of `row` (0 for out-of-range rows).
    #[must_use]
    pub fn hammers(&self, row: RowId) -> u32 {
        self.hammers.get(row.index()).copied().unwrap_or(0)
    }

    /// Largest hammer count any row ever reached.
    #[must_use]
    pub fn max_hammers_ever(&self) -> u32 {
        self.max_hammers_ever
    }

    /// All threshold crossings recorded so far (each row at most once).
    #[must_use]
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// Aggregate event counters.
    #[must_use]
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Advances the bank's notion of time (used only to timestamp failures).
    pub fn set_time(&mut self, now: u64) {
        self.now = now;
    }

    /// A demand activation of `row`: restores `row`'s own charge (an
    /// activation rewrites the row's cells, clearing its accumulated
    /// disturbance) and hammers every neighbour within the blast radius.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn demand_activate(&mut self, row: RowId) {
        assert!(self.contains(row), "{row} out of range");
        self.stats.demand_acts += 1;
        self.hammers[row.index()] = 0; // self-restore
        self.hammer_neighbours(row);
    }

    /// A *silent* activation: identical disturbance effect to a demand ACT,
    /// but accounted separately. Victim refreshes use this internally; it is
    /// public so attack code can model other silent-activation channels.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn silent_activate(&mut self, row: RowId) {
        assert!(self.contains(row), "{row} out of range");
        self.stats.silent_acts += 1;
        self.hammers[row.index()] = 0; // self-restore
        self.hammer_neighbours(row);
    }

    /// Refreshes a single row as part of a mitigation: clears its hammer
    /// counter, then silently activates it (disturbing *its* neighbours).
    /// Out-of-range rows are ignored (mitigating row 0 has only one victim).
    pub fn victim_refresh(&mut self, row: RowId) {
        if !self.contains(row) {
            return;
        }
        self.stats.victim_refreshes += 1;
        self.hammers[row.index()] = 0;
        self.stats.silent_acts += 1;
        self.hammer_neighbours(row);
    }

    /// Applies a full aggressor mitigation: refreshes every row within
    /// `blast_radius` of `aggressor` on both sides.
    pub fn mitigate_aggressor(&mut self, aggressor: RowId) {
        self.stats.mitigations += 1;
        let radius = self.config.blast_radius;
        for victim in aggressor.neighbours(radius) {
            self.victim_refresh(victim);
        }
    }

    /// Applies a *transitive* mitigation at `distance` (paper §V-E): for
    /// distance 1 this refreshes the victims-of-victims (e.g. rows `r±2` for
    /// blast radius 1) rather than the direct victims.
    pub fn mitigate_transitive(&mut self, aggressor: RowId, distance: u32) {
        self.stats.transitive_mitigations += 1;
        let reach = i64::from(self.config.blast_radius) + i64::from(distance);
        for side in [-1i64, 1] {
            if let Some(victim) = aggressor.offset(side * reach) {
                self.victim_refresh(victim);
            }
        }
    }

    /// One tREFI's worth of the background auto-refresh sweep: clears the
    /// hammer counters of the next `rows_per_step` rows (wrapping).
    pub fn auto_refresh_step(&mut self, rows_per_step: u32) {
        for _ in 0..rows_per_step {
            let r = self.auto_ptr as usize;
            self.hammers[r] = 0;
            self.stats.auto_refreshes += 1;
            self.auto_ptr = (self.auto_ptr + 1) % self.config.rows;
        }
    }

    /// Clears all hammer state, failures and statistics (a fresh tREFW-style
    /// reset for reuse across Monte-Carlo trials).
    pub fn reset(&mut self) {
        self.hammers.fill(0);
        self.failed.fill(false);
        self.failures.clear();
        self.auto_ptr = 0;
        self.max_hammers_ever = 0;
        self.now = 0;
        self.stats = BankStats::default();
    }

    fn hammer_neighbours(&mut self, row: RowId) {
        let radius = self.config.blast_radius;
        let rows = self.config.rows;
        for victim in row.neighbours(radius) {
            if victim.0 >= rows {
                continue;
            }
            let h = &mut self.hammers[victim.index()];
            *h += 1;
            if *h > self.max_hammers_ever {
                self.max_hammers_ever = *h;
            }
            if let Some(trh) = self.config.trh {
                if *h >= trh && !self.failed[victim.index()] {
                    self.failed[victim.index()] = true;
                    self.failures.push(FailureRecord {
                        row: victim,
                        hammers: *h,
                        at: self.now,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_bank(trh: Option<u32>) -> Bank {
        Bank::new(BankConfig {
            rows: 64,
            blast_radius: 1,
            trh,
        })
    }

    #[test]
    fn demand_act_hammers_both_neighbours() {
        let mut b = small_bank(None);
        b.demand_activate(RowId(10));
        assert_eq!(b.hammers(RowId(9)), 1);
        assert_eq!(b.hammers(RowId(11)), 1);
        assert_eq!(b.hammers(RowId(10)), 0);
    }

    #[test]
    fn edge_row_has_single_victim() {
        let mut b = small_bank(None);
        b.demand_activate(RowId(0));
        assert_eq!(b.hammers(RowId(1)), 1);
        b.demand_activate(RowId(63));
        assert_eq!(b.hammers(RowId(62)), 1);
        // Nothing beyond the top edge was touched (would have panicked on
        // index otherwise), and stats counted both.
        assert_eq!(b.stats().demand_acts, 2);
    }

    #[test]
    fn double_sided_accumulates_on_shared_victim() {
        let mut b = small_bank(None);
        for _ in 0..50 {
            b.demand_activate(RowId(20));
            b.demand_activate(RowId(22));
        }
        assert_eq!(b.hammers(RowId(21)), 100);
        assert_eq!(b.hammers(RowId(19)), 50);
        assert_eq!(b.hammers(RowId(23)), 50);
    }

    #[test]
    fn victim_refresh_clears_and_silently_hammers() {
        let mut b = small_bank(None);
        for _ in 0..5 {
            b.demand_activate(RowId(30)); // hammers 29 and 31
        }
        b.victim_refresh(RowId(31));
        assert_eq!(b.hammers(RowId(31)), 0);
        // The refresh of 31 is an activation of 31: rows 30 and 32 got hit.
        assert_eq!(b.hammers(RowId(30)), 1);
        assert_eq!(b.hammers(RowId(32)), 1);
        assert_eq!(b.stats().victim_refreshes, 1);
    }

    #[test]
    fn mitigate_aggressor_refreshes_blast_radius() {
        let mut b = small_bank(None);
        for _ in 0..9 {
            b.demand_activate(RowId(40));
        }
        assert_eq!(b.hammers(RowId(39)), 9);
        b.mitigate_aggressor(RowId(40));
        assert_eq!(b.hammers(RowId(39)), 0);
        assert_eq!(b.hammers(RowId(41)), 0);
        // Refreshes of 39 and 41 each hammered row 40 once, and rows 38/42.
        assert_eq!(b.hammers(RowId(40)), 2);
        assert_eq!(b.hammers(RowId(38)), 1);
        assert_eq!(b.hammers(RowId(42)), 1);
    }

    #[test]
    fn transitive_attack_mechanism_is_modelled() {
        // Paper Fig 12(a): hammering C and mitigating it each time silently
        // hammers A and E via the victim refreshes of B and D.
        let mut b = small_bank(None);
        let c = RowId(10);
        for _ in 0..100 {
            b.demand_activate(c);
            b.mitigate_aggressor(c); // refreshes B(9) and D(11)
        }
        // A (row 8) was hammered once per mitigation by B's refresh.
        assert_eq!(b.hammers(RowId(8)), 100);
        assert_eq!(b.hammers(RowId(12)), 100);
        // B and D never accumulate: refreshed every round, then re-hammered
        // once by the *other* victim's refresh... (C's refreshes of B and D
        // happen in order: B first, clearing B, then D; D's refresh hammers
        // C and E only, so B keeps just the hammer from C's next ACT.)
        assert!(b.hammers(RowId(9)) <= 2);
    }

    #[test]
    fn transitive_mitigation_reaches_distance_two() {
        let mut b = small_bank(None);
        for _ in 0..7 {
            b.demand_activate(RowId(20));
            b.mitigate_aggressor(RowId(20));
        }
        assert_eq!(b.hammers(RowId(18)), 7);
        b.mitigate_transitive(RowId(20), 1);
        assert_eq!(b.hammers(RowId(18)), 0);
        assert_eq!(b.hammers(RowId(22)), 0);
        assert_eq!(b.stats().transitive_mitigations, 1);
    }

    #[test]
    fn failure_recorded_once_at_threshold() {
        let mut b = small_bank(Some(10));
        for i in 0..25u64 {
            b.set_time(i);
            b.demand_activate(RowId(5));
        }
        let fails = b.failures();
        // Rows 4 and 6 each crossed at hammer 10 (time index 9).
        assert_eq!(fails.len(), 2);
        assert!(fails.iter().all(|f| f.hammers == 10 && f.at == 9));
        assert_eq!(b.max_hammers_ever(), 25);
    }

    #[test]
    fn auto_refresh_sweep_wraps_and_clears() {
        let mut b = small_bank(None);
        for r in 0..64u32 {
            if r != 5 {
                // hammer every row a bit via its neighbour
            }
        }
        for _ in 0..10 {
            b.demand_activate(RowId(33));
        }
        // Sweep the whole bank in 4 steps of 16.
        for _ in 0..4 {
            b.auto_refresh_step(16);
        }
        assert_eq!(b.hammers(RowId(32)), 0);
        assert_eq!(b.hammers(RowId(34)), 0);
        assert_eq!(b.stats().auto_refreshes, 64);
        // Pointer wrapped; another step refreshes row 0 again without panic.
        b.auto_refresh_step(16);
        assert_eq!(b.stats().auto_refreshes, 80);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut b = small_bank(Some(3));
        for _ in 0..5 {
            b.demand_activate(RowId(7));
        }
        assert!(!b.failures().is_empty());
        b.reset();
        assert!(b.failures().is_empty());
        assert_eq!(b.max_hammers_ever(), 0);
        assert_eq!(b.hammers(RowId(6)), 0);
        assert_eq!(b.stats().demand_acts, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn demand_activate_out_of_range_panics() {
        let mut b = small_bank(None);
        b.demand_activate(RowId(64));
    }

    #[test]
    fn blast_radius_two() {
        let mut b = Bank::new(BankConfig {
            rows: 64,
            blast_radius: 2,
            trh: None,
        });
        b.demand_activate(RowId(10));
        for r in [8u32, 9, 11, 12] {
            assert_eq!(b.hammers(RowId(r)), 1, "row {r}");
        }
        assert_eq!(b.hammers(RowId(7)), 0);
        assert_eq!(b.hammers(RowId(13)), 0);
    }
}
