//! Determinism contract of the `mint-exp` engine, end to end:
//!
//! * the Monte-Carlo failure estimate fanned out through `par_map` counts
//!   exactly what a sequential replay of the same per-trial streams counts;
//! * `derive_seed` fan-out gives distinct per-trial streams (regression);
//! * a Fig 10-style sweep through `par_map` renders byte-identical output
//!   at `available_parallelism` and at 1 thread.

use mint_rh::analysis::patterns;
use mint_rh::analysis::{MinTrhSolver, TargetMttf};
use mint_rh::attacks::Pattern1;
use mint_rh::core::{Mint, MintConfig};
use mint_rh::dram::RowId;
use mint_rh::exp::par_map_jobs;
use mint_rh::rng::{derive_seed, Rng64, Xoshiro256StarStar};
use mint_rh::sim::{estimate_failure_prob, Engine, SimConfig};

/// A real Monte-Carlo simulation (fresh tracker + pattern per trial) fanned
/// out at the resolved worker count counts exactly the failures of a
/// sequential loop over the same `derive_seed(seed, i)` streams, and that
/// count is pinned.
#[test]
fn sim_monte_carlo_parallel_is_bit_identical() {
    let cfg = SimConfig {
        bank_rows: 4096,
        ..SimConfig::small()
    }
    .with_trh(500);
    let (trials, seed) = (200u32, 0xF00D);
    let sequential = (0..u64::from(trials))
        .filter(|&i| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(seed, i));
            let mut tracker = Mint::new(MintConfig::ddr5_default(), &mut rng);
            let mut pattern = Pattern1::new(RowId(2000));
            Engine::new(cfg)
                .run(&mut tracker, &mut pattern, &mut rng)
                .failed()
        })
        .count();
    let parallel = estimate_failure_prob(
        cfg,
        trials,
        seed,
        &|r| Box::new(Mint::new(MintConfig::ddr5_default(), r)),
        &|| Box::new(Pattern1::new(RowId(2000))),
    );
    assert_eq!(parallel, (u32::try_from(sequential).unwrap(), trials));
    assert_eq!(parallel, (22, 200), "some trials fail and some survive");
}

/// Regression: `derive_seed` fan-out yields pairwise-distinct streams —
/// distinct seeds AND distinct first draws for every trial index a large
/// experiment would use.
#[test]
fn derive_seed_fanout_gives_distinct_streams() {
    use std::collections::HashSet;
    let master = 0xDECAF;
    let mut seeds = HashSet::new();
    let mut first_draws = HashSet::new();
    for trial in 0..8192u64 {
        let seed = derive_seed(master, trial);
        assert!(seeds.insert(seed), "duplicate seed at trial {trial}");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        assert!(
            first_draws.insert(rng.next_u64()),
            "duplicate first draw at trial {trial}"
        );
    }
    // And different masters give different fans.
    assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
}

/// Acceptance check: a Fig 10-style pattern sweep fanned out at
/// `available_parallelism` produces byte-identical output to the same
/// sweep forced to 1 thread.
#[test]
fn fig10_style_sweep_is_byte_identical_across_job_counts() {
    let solver = MinTrhSolver::new(TargetMttf::paper_default(), 0.032);
    let ks: Vec<u32> = (1..=73).collect();
    let render = |jobs: usize| -> String {
        par_map_jobs(Some(jobs), &ks, |_, &k| {
            format!("{k}\t{}\n", patterns::pattern2_min_trh(&solver, k, 73, 73))
        })
        .concat()
    };
    let n = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let seq = render(1);
    let par = render(n);
    assert_eq!(seq.as_bytes(), par.as_bytes());
    assert_eq!(seq.lines().count(), 73);
}
