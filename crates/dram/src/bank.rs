//! Per-row hammer accounting for one DRAM bank.

use crate::stats::BankStats;
use crate::RowId;

/// Rows per storage page: 1,024 `[current, all-time max]` pairs, 8 KiB.
///
/// An activation looks its page up once, unless its neighbourhood
/// straddles a page edge (2 rows in 1,024 at blast radius 1), and a bank
/// that an attack touches in one or two places allocates one or two pages
/// instead of a dense array per row.
const PAGE_ROWS: usize = 1024;

/// One page of per-row `[current, all-time max]` hammer pairs.
type Page = [[u32; 2]; PAGE_ROWS];

/// A zeroed page, allocated on its first hammer.
fn new_page() -> Box<Page> {
    Box::new([[0; 2]; PAGE_ROWS])
}

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
    /// REF commands per refresh window (tREFI per tREFW): each
    /// [`auto_refresh`](Bank::auto_refresh) sweeps `rows / refis_per_refw`
    /// rows, so the sweep covers the bank once per window.
    pub refis_per_refw: u32,
}

impl Default for BankConfig {
    fn default() -> Self {
        Self {
            rows: crate::DDR5_ROWS_PER_BANK,
            blast_radius: 1,
            trh: None,
            refis_per_refw: crate::DDR5_REFI_PER_REFW,
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
/// needs: a hammer counter per row, plus the largest value it ever held.
///
/// Semantics:
///
/// * [`demand_activate`](Self::demand_activate) — a normal ACT: the row
///   restores its own charge and each row within the blast radius gains
///   one hammer.
/// * [`victim_refresh`](Self::victim_refresh) — refreshing a row clears its
///   hammer counter **and silently activates it**, hammering *its*
///   neighbours. This is the mechanism behind Half-Double/transitive attacks.
/// * [`auto_refresh`](Self::auto_refresh) — one REF's share of the
///   background refresh sweep, which clears counters in row order without
///   the activation side-effect (the per-row rate of one activation per
///   32 ms is negligible and conventionally ignored, matching the
///   Sariou–Wolman model's treatment).
///
/// The bank records the first time each row crosses the configured TRH in
/// [`failures`](Self::failures), keeps every row's all-time maximum
/// ([`row_maxima`](Self::row_maxima)) and the bank's
/// ([`max_hammers_ever`](Self::max_hammers_ever)), so one run answers every
/// threshold question afterwards.
///
/// Rows live in pages of 1,024 `[current, max]` pairs, allocated on a
/// page's first hammer. Reading, restoring or sweeping a row of a page
/// that was never hammered allocates nothing, so a bank an attack touches
/// in one place costs a few KiB whatever its size.
#[derive(Debug, Clone)]
pub struct Bank {
    config: BankConfig,
    /// Pages of `[current, all-time max]` pairs (`None` = all zero).
    pages: Vec<Option<Box<Page>>>,
    peaks: Peaks,
    auto_ptr: u32,
    /// Rows owed to the sweep, in `1 / refis_per_refw` units.
    sweep_credit: u64,
    stats: BankStats,
}

/// What a hammer can change beyond its row's pair: the bank's maximum and
/// the failure log.
#[derive(Debug, Clone)]
struct Peaks {
    /// A row fails when a new maximum of its reaches this count: the
    /// threshold, or 1 for a threshold of 0 (every row fails on its first
    /// hammer); 0 never matches, so it disables checking.
    fail_at: u32,
    max_hammers_ever: u32,
    failures: Vec<FailureRecord>,
    now: u64,
}

impl Peaks {
    /// One hammer of `row`, whose pair is `slot`. Only a new all-time
    /// maximum of the row can raise the bank's or cross the threshold,
    /// and a count that climbs one at a time reaches the threshold as a
    /// new maximum exactly once, so each row fails at most once.
    #[inline]
    fn hammer(&mut self, slot: &mut [u32; 2], row: usize) {
        slot[0] += 1;
        if slot[0] > slot[1] {
            slot[1] = slot[0];
            self.max_hammers_ever = self.max_hammers_ever.max(slot[0]);
            if slot[0] == self.fail_at {
                self.failures.push(FailureRecord {
                    row: RowId(row as u32),
                    hammers: slot[0],
                    at: self.now,
                });
            }
        }
    }
}

impl Bank {
    /// Creates a bank with all hammer counters at zero. No page is
    /// allocated until a row is hammered.
    ///
    /// # Panics
    ///
    /// Panics if `config.rows == 0` or `config.refis_per_refw == 0`.
    #[must_use]
    pub fn new(config: BankConfig) -> Self {
        assert!(config.rows > 0, "bank must have at least one row");
        assert!(
            config.refis_per_refw > 0,
            "the sweep needs at least one REF per window"
        );
        Self {
            pages: vec![None; (config.rows as usize).div_ceil(PAGE_ROWS)],
            peaks: Peaks {
                fail_at: config.trh.map_or(0, |trh| trh.max(1)),
                max_hammers_ever: 0,
                failures: Vec::new(),
                now: 0,
            },
            auto_ptr: 0,
            sweep_credit: 0,
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
        let r = row.index();
        self.pages
            .get(r / PAGE_ROWS)
            .and_then(Option::as_ref)
            .map_or(0, |page| page[r % PAGE_ROWS][0])
    }

    /// Largest hammer count any row ever reached.
    #[must_use]
    pub fn max_hammers_ever(&self) -> u32 {
        self.peaks.max_hammers_ever
    }

    /// Every row's all-time maximum hammer count, as `(row, max)` in row
    /// order; rows never hammered are absent.
    pub fn row_maxima(&self) -> impl Iterator<Item = (RowId, u32)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| page.as_ref().map(|page| (p * PAGE_ROWS, page)))
            .flat_map(|(base, page)| {
                page.iter()
                    .enumerate()
                    .filter(|(_, pair)| pair[1] > 0)
                    .map(move |(i, pair)| (RowId((base + i) as u32), pair[1]))
            })
    }

    /// All threshold crossings recorded so far (each row at most once).
    #[must_use]
    pub fn failures(&self) -> &[FailureRecord] {
        &self.peaks.failures
    }

    /// Aggregate event counters.
    #[must_use]
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Advances the bank's notion of time (used only to timestamp failures).
    pub fn set_time(&mut self, now: u64) {
        self.peaks.now = now;
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
        self.activate(row.index());
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
        self.activate(row.index());
    }

    /// Refreshes a single row as part of a mitigation: clears its hammer
    /// counter, then silently activates it (disturbing *its* neighbours).
    /// Out-of-range rows are ignored (mitigating row 0 has only one victim).
    pub fn victim_refresh(&mut self, row: RowId) {
        if !self.contains(row) {
            return;
        }
        self.stats.victim_refreshes += 1;
        self.stats.silent_acts += 1;
        self.activate(row.index());
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

    /// One REF's share of the background sweep: `rows / refis_per_refw`
    /// rows in row order, with the remainder carried as credit, so every
    /// `refis_per_refw` calls sweep exactly `rows` rows even when the
    /// division is not exact.
    pub fn auto_refresh(&mut self) {
        let per_window = u64::from(self.config.refis_per_refw);
        self.sweep_credit += u64::from(self.config.rows);
        let rows = self.sweep_credit / per_window;
        self.sweep_credit %= per_window;
        self.auto_refresh_step(u32::try_from(rows).expect("a REF sweeps at most `rows` rows"));
    }

    /// Sweeps the next `rows_per_step` rows (wrapping): clears their
    /// hammer counters, keeping their maxima.
    pub fn auto_refresh_step(&mut self, rows_per_step: u32) {
        for _ in 0..rows_per_step {
            let r = self.auto_ptr as usize;
            if let Some(page) = &mut self.pages[r / PAGE_ROWS] {
                page[r % PAGE_ROWS][0] = 0;
            }
            self.auto_ptr = (self.auto_ptr + 1) % self.config.rows;
        }
        self.stats.auto_refreshes += u64::from(rows_per_step);
    }

    /// Clears all hammer state, maxima, failures, the sweep position and
    /// credit, and statistics: the bank is as [`new`](Self::new) left it.
    pub fn reset(&mut self) {
        self.pages.fill(None);
        self.peaks.max_hammers_ever = 0;
        self.peaks.failures.clear();
        self.peaks.now = 0;
        self.auto_ptr = 0;
        self.sweep_credit = 0;
        self.stats = BankStats::default();
    }

    /// One activation of row `r`: self-restore, then one hammer on every
    /// in-bank row within the blast radius, in row order.
    fn activate(&mut self, r: usize) {
        let radius = self.config.blast_radius as usize;
        let lo = r.saturating_sub(radius);
        let hi = r.saturating_add(radius).min(self.config.rows as usize - 1);
        let p = r / PAGE_ROWS;
        if lo < hi && lo / PAGE_ROWS == p && hi / PAGE_ROWS == p {
            // The whole neighbourhood shares one page: one lookup.
            let base = p * PAGE_ROWS;
            let page = self.pages[p].get_or_insert_with(new_page);
            page[r - base][0] = 0;
            for v in lo..r {
                self.peaks.hammer(&mut page[v - base], v);
            }
            for v in r + 1..hi + 1 {
                self.peaks.hammer(&mut page[v - base], v);
            }
            return;
        }
        // The neighbourhood crosses a page edge (or has no victim).
        if let Some(page) = &mut self.pages[p] {
            page[r % PAGE_ROWS][0] = 0;
        }
        for v in (lo..r).chain(r + 1..=hi) {
            let page = self.pages[v / PAGE_ROWS].get_or_insert_with(new_page);
            self.peaks.hammer(&mut page[v % PAGE_ROWS], v);
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
            refis_per_refw: 4,
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
            ..BankConfig::default()
        });
        b.demand_activate(RowId(10));
        for r in [8u32, 9, 11, 12] {
            assert_eq!(b.hammers(RowId(r)), 1, "row {r}");
        }
        assert_eq!(b.hammers(RowId(7)), 0);
        assert_eq!(b.hammers(RowId(13)), 0);
    }

    #[test]
    fn auto_refresh_carries_credit_for_uneven_windows() {
        // 10 rows over 4 REFs: 2.5 rows per REF, paid as 2, 3, 2, 3.
        let mut b = Bank::new(BankConfig {
            rows: 10,
            refis_per_refw: 4,
            ..BankConfig::default()
        });
        let mut swept = Vec::new();
        for _ in 0..8 {
            let before = b.stats().auto_refreshes;
            b.auto_refresh();
            swept.push(b.stats().auto_refreshes - before);
        }
        assert_eq!(swept, [2, 3, 2, 3, 2, 3, 2, 3]);
        // A reset drops the credit: the next REF pays 2 again, not 3.
        b.auto_refresh();
        b.reset();
        b.auto_refresh();
        assert_eq!(b.stats().auto_refreshes, 2);
    }

    #[test]
    fn pages_are_allocated_by_hammers_only() {
        let rows = PAGE_ROWS as u32 + 1;
        let mut b = Bank::new(BankConfig {
            rows,
            ..BankConfig::default()
        });
        b.auto_refresh_step(rows);
        assert!(
            b.pages.iter().all(Option::is_none),
            "a sweep allocates nothing"
        );
        // The last row is alone in its page: activating it restores a row
        // of a missing page and hammers only row `rows - 2`, in page 0.
        b.demand_activate(RowId(rows - 1));
        assert!(b.pages[0].is_some());
        assert!(b.pages[1].is_none(), "a restore allocates nothing");
        assert_eq!(b.hammers(RowId(rows - 2)), 1);
        // A neighbourhood across the page edge hammers both pages.
        b.demand_activate(RowId(PAGE_ROWS as u32 - 1));
        assert_eq!(b.hammers(RowId(PAGE_ROWS as u32)), 1);
        assert_eq!(b.hammers(RowId(PAGE_ROWS as u32 - 2)), 1);
        assert!(b.pages[1].is_some());
        b.reset();
        assert!(b.pages.iter().all(Option::is_none));
    }

    #[test]
    fn row_maxima_outlive_restores() {
        let mut b = small_bank(None);
        for _ in 0..6 {
            b.demand_activate(RowId(20));
        }
        b.victim_refresh(RowId(21)); // clears 21, hammers 20 and 22
        let maxima: Vec<(RowId, u32)> = b.row_maxima().collect();
        assert_eq!(
            maxima,
            [
                (RowId(19), 6),
                (RowId(20), 1),
                (RowId(21), 6),
                (RowId(22), 1)
            ]
        );
        assert_eq!(b.hammers(RowId(21)), 0);
    }

    #[test]
    fn thresholds_of_zero_and_one_fail_on_the_first_hammer() {
        for trh in [0, 1] {
            let mut b = small_bank(Some(trh));
            for t in 0..3 {
                b.set_time(t);
                b.demand_activate(RowId(5));
            }
            let rows: Vec<(u32, u32, u64)> = b
                .failures()
                .iter()
                .map(|f| (f.row.0, f.hammers, f.at))
                .collect();
            assert_eq!(rows, [(4, 1, 0), (6, 1, 0)], "trh {trh}");
        }
    }
}
