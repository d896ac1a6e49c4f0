//! Differential oracle for the paged disturbance model.
//!
//! `mint_dram::Bank` is the repository's one disturbance model. It keeps
//! per-row `[current, all-time max]` pairs in 1,024-row pages allocated on
//! their first hammer, looks a page up once per activation unless the
//! neighbourhood crosses a page edge, derives each row's first threshold
//! crossing from its maximum, and paces the background sweep with a
//! credit per REF. This suite keeps the two models it replaced as
//! test-local references, verbatim apart from their packaging:
//!
//! * `DenseBank` — the dense bank: a counter and a failed flag per row,
//!   swept one REF share at a time by the Monte-Carlo engine's credit
//!   loop;
//! * `HashOracle` — the red-team oracle's two hash maps (current count and
//!   all-time maximum per row) with its own credit-paced sweep.
//!
//! Random streams of demand and silent ACTs, victim refreshes, aggressor
//! and transitive mitigations, REF shares, clock moves and resets drive
//! all three. The row counts put neighbourhoods across page edges
//! (`PAGE − 1`, `PAGE + 1` and `3·PAGE + 5` rows among them), the streams
//! favour rows 0 and `rows − 1` and the page edges, blast radii run 1–3,
//! sweep pacings mostly do not divide the row count, and thresholds cover
//! none, 0, 1 and counts the stream crosses. After every step, every row's
//! count, the per-row maxima, the bank's maximum, the failure log as
//! `(row, hammers, at)` and the statistics must agree. Any divergence
//! prints the deterministic case index that replays it exactly (see
//! `mint_exp::prop`).

use mint_dram::{Bank, BankConfig, BankStats, FailureRecord, RowId};
use mint_exp::prop::{forall, u32_in, u64_in};
use mint_rng::{Rng64, Xoshiro256StarStar};
use std::collections::HashMap;

/// The bank's page size in rows (`mint_dram`'s private `PAGE_ROWS`).
const PAGE: u32 = 1024;

/// Steps per case.
const STEPS: u32 = 300;

/// The original dense bank, with the Monte-Carlo engine's sweep credit.
struct DenseBank {
    config: BankConfig,
    hammers: Vec<u32>,
    failed: Vec<bool>,
    failures: Vec<FailureRecord>,
    auto_ptr: u32,
    max_hammers_ever: u32,
    now: u64,
    stats: BankStats,
    /// The engine's per-run sweep credit (a reset starts a fresh run).
    auto_credit: u64,
}

impl DenseBank {
    fn new(config: BankConfig) -> Self {
        Self {
            hammers: vec![0; config.rows as usize],
            failed: vec![false; config.rows as usize],
            failures: Vec::new(),
            auto_ptr: 0,
            max_hammers_ever: 0,
            now: 0,
            stats: BankStats::default(),
            auto_credit: 0,
            config,
        }
    }

    fn contains(&self, row: RowId) -> bool {
        row.0 < self.config.rows
    }

    fn demand_activate(&mut self, row: RowId) {
        assert!(self.contains(row), "{row} out of range");
        self.stats.demand_acts += 1;
        self.hammers[row.index()] = 0;
        self.hammer_neighbours(row);
    }

    fn silent_activate(&mut self, row: RowId) {
        assert!(self.contains(row), "{row} out of range");
        self.stats.silent_acts += 1;
        self.hammers[row.index()] = 0;
        self.hammer_neighbours(row);
    }

    fn victim_refresh(&mut self, row: RowId) {
        if !self.contains(row) {
            return;
        }
        self.stats.victim_refreshes += 1;
        self.hammers[row.index()] = 0;
        self.stats.silent_acts += 1;
        self.hammer_neighbours(row);
    }

    fn mitigate_aggressor(&mut self, aggressor: RowId) {
        self.stats.mitigations += 1;
        let radius = self.config.blast_radius;
        for victim in aggressor.neighbours(radius) {
            self.victim_refresh(victim);
        }
    }

    fn mitigate_transitive(&mut self, aggressor: RowId, distance: u32) {
        self.stats.transitive_mitigations += 1;
        let reach = i64::from(self.config.blast_radius) + i64::from(distance);
        for side in [-1i64, 1] {
            if let Some(victim) = aggressor.offset(side * reach) {
                self.victim_refresh(victim);
            }
        }
    }

    fn auto_refresh_step(&mut self, rows_per_step: u32) {
        for _ in 0..rows_per_step {
            let r = self.auto_ptr as usize;
            self.hammers[r] = 0;
            self.stats.auto_refreshes += 1;
            self.auto_ptr = (self.auto_ptr + 1) % self.config.rows;
        }
    }

    /// One REF's share of the sweep, as the engine paced it.
    fn ref_share(&mut self) {
        self.auto_credit += u64::from(self.config.rows);
        while self.auto_credit >= u64::from(self.config.refis_per_refw) {
            self.auto_refresh_step(1);
            self.auto_credit -= u64::from(self.config.refis_per_refw);
        }
    }

    fn reset(&mut self) {
        self.hammers.fill(0);
        self.failed.fill(false);
        self.failures.clear();
        self.auto_ptr = 0;
        self.max_hammers_ever = 0;
        self.now = 0;
        self.stats = BankStats::default();
        self.auto_credit = 0;
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

/// The red-team oracle's original model: two hash maps and a
/// credit-paced sweep.
struct HashOracle {
    rows: u32,
    blast_radius: u32,
    refis_per_refw: u64,
    hammers: HashMap<u32, u32>,
    row_max: HashMap<u32, u32>,
    sweep_ptr: u32,
    sweep_credit: u64,
}

impl HashOracle {
    fn new(config: BankConfig) -> Self {
        Self {
            rows: config.rows,
            blast_radius: config.blast_radius,
            refis_per_refw: u64::from(config.refis_per_refw),
            hammers: HashMap::new(),
            row_max: HashMap::new(),
            sweep_ptr: 0,
            sweep_credit: 0,
        }
    }

    fn activate(&mut self, row: u32) {
        self.hammers.remove(&row);
        let radius = i64::from(self.blast_radius);
        for d in 1..=radius {
            for side in [-d, d] {
                let Some(victim) = row.checked_add_signed(side as i32) else {
                    continue;
                };
                if victim >= self.rows {
                    continue;
                }
                let h = self.hammers.entry(victim).or_insert(0);
                *h += 1;
                let m = self.row_max.entry(victim).or_insert(0);
                if *h > *m {
                    *m = *h;
                }
            }
        }
    }

    fn sweep(&mut self) {
        self.sweep_credit += u64::from(self.rows);
        while self.sweep_credit >= self.refis_per_refw {
            self.hammers.remove(&self.sweep_ptr);
            self.sweep_ptr = (self.sweep_ptr + 1) % self.rows;
            self.sweep_credit -= self.refis_per_refw;
        }
    }

    /// A victim refresh as the oracle saw it: an activation of an
    /// in-bank row.
    fn victim_refresh(&mut self, row: RowId) {
        if row.0 < self.rows {
            self.activate(row.0);
        }
    }

    fn reset(&mut self) {
        *self = Self::new(BankConfig {
            rows: self.rows,
            blast_radius: self.blast_radius,
            trh: None,
            refis_per_refw: self.refis_per_refw as u32,
        });
    }
}

/// One step of a stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Demand(u32),
    Silent(u32),
    VictimRefresh(u32),
    Mitigate(u32),
    Transitive(u32, u32),
    RefShare,
    SetTime(u64),
    Reset,
}

/// The three models side by side.
struct Trio {
    bank: Bank,
    dense: DenseBank,
    oracle: HashOracle,
}

impl Trio {
    fn new(config: BankConfig) -> Self {
        Self {
            bank: Bank::new(config),
            dense: DenseBank::new(config),
            oracle: HashOracle::new(config),
        }
    }

    fn apply(&mut self, op: Op) {
        let radius = self.dense.config.blast_radius;
        match op {
            Op::Demand(r) => {
                self.bank.demand_activate(RowId(r));
                self.dense.demand_activate(RowId(r));
                self.oracle.activate(r);
            }
            Op::Silent(r) => {
                self.bank.silent_activate(RowId(r));
                self.dense.silent_activate(RowId(r));
                self.oracle.activate(r);
            }
            Op::VictimRefresh(r) => {
                self.bank.victim_refresh(RowId(r));
                self.dense.victim_refresh(RowId(r));
                self.oracle.victim_refresh(RowId(r));
            }
            Op::Mitigate(a) => {
                self.bank.mitigate_aggressor(RowId(a));
                self.dense.mitigate_aggressor(RowId(a));
                for v in RowId(a).neighbours(radius) {
                    self.oracle.victim_refresh(v);
                }
            }
            Op::Transitive(a, distance) => {
                self.bank.mitigate_transitive(RowId(a), distance);
                self.dense.mitigate_transitive(RowId(a), distance);
                let reach = i64::from(radius) + i64::from(distance);
                for side in [-1i64, 1] {
                    if let Some(v) = RowId(a).offset(side * reach) {
                        self.oracle.victim_refresh(v);
                    }
                }
            }
            Op::RefShare => {
                self.bank.auto_refresh();
                self.dense.ref_share();
                self.oracle.sweep();
            }
            Op::SetTime(t) => {
                self.bank.set_time(t);
                self.dense.now = t;
            }
            Op::Reset => {
                self.bank.reset();
                self.dense.reset();
                self.oracle.reset();
            }
        }
    }

    fn check(&self, what: &str) {
        let rows = self.dense.config.rows;
        let mut nonzero = 0;
        for r in 0..rows {
            let h = self.bank.hammers(RowId(r));
            assert_eq!(h, self.dense.hammers[r as usize], "{what}: row {r}");
            nonzero += usize::from(h > 0);
        }
        for r in [rows, rows + 1, rows + PAGE] {
            assert_eq!(self.bank.hammers(RowId(r)), 0, "{what}: row {r} is outside");
        }
        for (&r, &h) in &self.oracle.hammers {
            assert_eq!(self.bank.hammers(RowId(r)), h, "{what}: oracle row {r}");
        }
        assert_eq!(self.oracle.hammers.len(), nonzero, "{what}: oracle rows");

        let maxima: Vec<(u32, u32)> = self.bank.row_maxima().map(|(r, m)| (r.0, m)).collect();
        let mut want: Vec<(u32, u32)> = self.oracle.row_max.iter().map(|(&r, &m)| (r, m)).collect();
        want.sort_unstable();
        assert_eq!(maxima, want, "{what}: row maxima");
        let oracle_max = want.iter().map(|&(_, m)| m).max().unwrap_or(0);
        assert_eq!(
            (self.bank.max_hammers_ever(), self.dense.max_hammers_ever),
            (oracle_max, oracle_max),
            "{what}: bank maximum"
        );

        let failures = |f: &[FailureRecord]| -> Vec<(u32, u32, u64)> {
            f.iter().map(|f| (f.row.0, f.hammers, f.at)).collect()
        };
        assert_eq!(
            failures(self.bank.failures()),
            failures(&self.dense.failures),
            "{what}: failures"
        );
        assert_eq!(self.bank.stats(), &self.dense.stats, "{what}: stats");
    }
}

/// A row near one of the stream's hot spots, clipped to the bank.
fn near(rng: &mut Xoshiro256StarStar, spots: &[u32], rows: u32) -> u32 {
    let spot = spots[rng.gen_range_u32(spots.len() as u32) as usize];
    let offset = i64::from(u32_in(rng, 0, 9)) - 4;
    (i64::from(spot) + offset).clamp(0, i64::from(rows) - 1) as u32
}

fn random_op(rng: &mut Xoshiro256StarStar, spots: &[u32], rows: u32) -> Op {
    let roll = u32_in(rng, 0, 100);
    let row = near(rng, spots, rows);
    match roll {
        0..=44 => Op::Demand(row),
        45..=49 => Op::Silent(row),
        // Some refreshes name rows past the bank's end, which are ignored.
        50..=59 => Op::VictimRefresh(if roll == 59 {
            rows + u32_in(rng, 0, 3)
        } else {
            row
        }),
        60..=67 => Op::Mitigate(row),
        68..=72 => Op::Transitive(row, u32_in(rng, 1, 3)),
        73..=92 => Op::RefShare,
        93..=98 => Op::SetTime(u64_in(rng, 0, 1 << 40)),
        _ => Op::Reset,
    }
}

/// Random configurations and streams over `rows` rows.
fn run_suite(rows: u32, cases: u64, seed: u64) {
    forall(cases, seed, |case, rng| {
        let blast_radius = u32_in(rng, 1, 4);
        let trh = match u32_in(rng, 0, 5) {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            _ => Some(u32_in(rng, 2, 24)),
        };
        // Pacings: small primes, one above the row count (shares of 0 or
        // 1 row), and uniform draws; most do not divide `rows`.
        let refis_per_refw = match u32_in(rng, 0, 4) {
            0 => [3, 7, 13][u32_in(rng, 0, 3) as usize],
            1 => rows + 1,
            _ => u32_in(rng, 1, 2 * rows + 2),
        };
        let config = BankConfig {
            rows,
            blast_radius,
            trh,
            refis_per_refw,
        };
        // Hot spots: both ends of the bank and every page edge.
        let mut spots = vec![0, rows - 1];
        spots.extend((1..=rows / PAGE).map(|k| k * PAGE));
        let mut trio = Trio::new(config);
        for step in 0..STEPS {
            let op = random_op(rng, &spots, rows);
            trio.apply(op);
            trio.check(&format!("case {case} step {step} {op:?} {config:?}"));
        }
    });
}

#[test]
fn tiny_banks_agree() {
    for rows in [1, 2, 3, 7] {
        run_suite(rows, 8, 0xB0_0000 + u64::from(rows));
    }
}

#[test]
fn a_bank_just_under_one_page_agrees() {
    run_suite(PAGE - 1, 12, 0xB1);
}

#[test]
fn a_bank_of_exactly_one_page_agrees() {
    run_suite(PAGE, 12, 0xB2);
}

#[test]
fn a_bank_one_row_past_a_page_agrees() {
    run_suite(PAGE + 1, 12, 0xB3);
}

#[test]
fn a_bank_of_several_pages_agrees() {
    run_suite(3 * PAGE + 5, 12, 0xB4);
}
