//! Property-based tests of the DRAM bank hammer model: conservation laws
//! the whole security analysis rests on.
//!
//! Cases are generated by the deterministic `mint_exp::prop` driver — case
//! `i` of a suite replays from `derive_seed(suite_seed, i)`.

use mint_rh::dram::{Bank, BankConfig, RowId};
use mint_rh::exp::prop::{forall, u32_in, vec_u32};

const CASES: u64 = 64;

fn total_hammers(bank: &Bank, rows: u32) -> u64 {
    (0..rows).map(|r| u64::from(bank.hammers(RowId(r)))).sum()
}

/// Without refreshes, total hammers equal activations × neighbours
/// reached, minus what self-restores erase — never more than
/// 2 × blast × ACTs.
#[test]
fn hammer_conservation_upper_bound() {
    forall(CASES, 0xBA01, |case, rng| {
        let acts = vec_u32(rng, 1, 300, 1, 62);
        let blast = u32_in(rng, 1, 3);
        let rows = 64;
        let mut bank = Bank::new(BankConfig {
            rows,
            blast_radius: blast,
            trh: None,
            ..BankConfig::default()
        });
        for &a in &acts {
            bank.demand_activate(RowId(a));
        }
        let total = total_hammers(&bank, rows);
        assert!(
            total <= acts.len() as u64 * u64::from(2 * blast),
            "case {case}: total {total} for {} acts at blast {blast}",
            acts.len()
        );
    });
}

/// Hammering distinct, well-separated rows conserves exactly
/// (no self-restore interference).
#[test]
fn hammer_conservation_exact_when_separated() {
    forall(CASES, 0xBA02, |case, rng| {
        let n_rows = u32_in(rng, 1, 10);
        let rows = 64;
        let mut bank = Bank::new(BankConfig {
            rows,
            blast_radius: 1,
            trh: None,
            ..BankConfig::default()
        });
        for i in 0..n_rows {
            bank.demand_activate(RowId(4 + i * 5)); // stride 5 > 2×blast+1
        }
        assert_eq!(
            total_hammers(&bank, rows),
            u64::from(n_rows) * 2,
            "case {case}"
        );
    });
}

/// A full auto-refresh sweep restores a pristine bank no matter what
/// preceded it.
#[test]
fn full_sweep_clears_everything() {
    forall(CASES, 0xBA03, |case, rng| {
        let acts = vec_u32(rng, 0, 200, 1, 62);
        let rows = 64;
        let mut bank = Bank::new(BankConfig {
            rows,
            blast_radius: 1,
            trh: None,
            ..BankConfig::default()
        });
        for &a in &acts {
            bank.demand_activate(RowId(a));
        }
        bank.auto_refresh_step(rows);
        assert_eq!(total_hammers(&bank, rows), 0, "case {case}");
    });
}

/// Mitigating an aggressor always zeroes its direct victims,
/// regardless of prior state.
#[test]
fn mitigation_zeroes_direct_victims() {
    forall(CASES, 0xBA04, |case, rng| {
        let acts = vec_u32(rng, 0, 200, 1, 62);
        let aggressor = u32_in(rng, 2, 61);
        let rows = 64;
        let mut bank = Bank::new(BankConfig {
            rows,
            blast_radius: 1,
            trh: None,
            ..BankConfig::default()
        });
        for &a in &acts {
            bank.demand_activate(RowId(a));
        }
        bank.mitigate_aggressor(RowId(aggressor));
        // The two victim refreshes happen in order (low then high): the
        // high victim's refresh can re-hammer only rows at distance 2,
        // never the victims themselves.
        assert_eq!(bank.hammers(RowId(aggressor - 1)), 0, "case {case}");
        assert_eq!(bank.hammers(RowId(aggressor + 1)), 0, "case {case}");
    });
}

/// Failure records appear exactly when a TRH is configured and some
/// row reaches it; max_hammers_ever is an upper bound for every row.
#[test]
fn failure_detection_consistent() {
    forall(CASES, 0xBA05, |case, rng| {
        let reps = u32_in(rng, 1, 120);
        let trh = u32_in(rng, 5, 200);
        let rows = 64;
        let mut bank = Bank::new(BankConfig {
            rows,
            blast_radius: 1,
            trh: Some(trh),
            ..BankConfig::default()
        });
        for _ in 0..reps {
            bank.demand_activate(RowId(30));
        }
        let expect_failure = reps >= trh;
        assert_eq!(
            !bank.failures().is_empty(),
            expect_failure,
            "case {case}: reps {reps}, trh {trh}"
        );
        for r in 0..rows {
            assert!(
                bank.hammers(RowId(r)) <= bank.max_hammers_ever(),
                "case {case}"
            );
        }
        if expect_failure {
            // Both victims crossed at exactly the threshold.
            assert!(
                bank.failures().iter().all(|f| f.hammers == trh),
                "case {case}"
            );
        }
    });
}

/// Reset always restores the pristine state.
#[test]
fn reset_is_pristine() {
    forall(CASES, 0xBA06, |case, rng| {
        let acts = vec_u32(rng, 0, 100, 1, 62);
        let rows = 64;
        let mut bank = Bank::new(BankConfig {
            rows,
            blast_radius: 1,
            trh: Some(3),
            ..BankConfig::default()
        });
        for &a in &acts {
            bank.demand_activate(RowId(a));
        }
        bank.reset();
        assert_eq!(total_hammers(&bank, rows), 0, "case {case}");
        assert!(bank.failures().is_empty(), "case {case}");
        assert_eq!(bank.max_hammers_ever(), 0, "case {case}");
        assert_eq!(bank.stats().demand_acts, 0, "case {case}");
    });
}
