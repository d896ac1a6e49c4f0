//! The DIMM scale-out's backward-compatibility contract, pinned.
//!
//! PR "Scale out to a full DIMM" moved [`Sim`] onto a system-level
//! admission loop over a [`System`](mint_memsys::System) of N channels ×
//! R ranks. Two things must hold forever after:
//!
//! 1. **1×1 byte identity** — on the default single-channel,
//!    single-rank Table VI topology, the System path reproduces the
//!    legacy single-`Channel` path *byte for byte*: durations, the full
//!    [`SimResult`], per-core finish times and request counts, and the
//!    energy split to the last bit of the f64s. The first three
//!    constants below were captured from the pre-refactor scheduler
//!    (commit 57b251f); the last four, one per table tracker on the
//!    benchmark's mcf zoo cell (4 × 10,000 requests, seed 1), where
//!    Mithril's 677-entry tables fill and churn, were captured before
//!    those trackers moved onto the shared `CountTable`. None may ever
//!    drift.
//! 2. **Worker-count invariance at scale** — a multi-channel run is
//!    bit-identical whether the per-channel pipelines are constructed
//!    and the grid cells fanned out on 1 worker or N.
//!
//! The red-team oracle's summaries are pinned the same way: one digest of
//! the whole [`OracleSummary`] (every counter plus the per-row maxima)
//! for each zoo scheme × the four red-team patterns at
//! [`RedteamConfig::quick`]. They were captured from the oracle's own
//! hash-map disturbance model, before the oracle moved onto
//! `mint_dram::Bank`, and must never drift either.

// The energy goldens are 17-significant-digit round-trip captures: the
// extra digits are what make `to_bits` equality meaningful.
#![allow(clippy::excessive_precision)]

use mint_attacks::redteam_patterns;
use mint_memsys::backend::max_act_per_trefi;
use mint_memsys::{
    workload_by_name, MitigationScheme, RunReport, SchedulePolicy, Sim, SystemConfig,
};
use mint_redteam::{run_attack, OracleSummary, RedteamConfig};
use mint_rng::derive_seed;

/// One legacy golden: everything a [`RunReport`] exposes, flattened to
/// exact integers and exact f64 bit patterns.
struct Golden {
    name: &'static str,
    scheme: MitigationScheme,
    policy: SchedulePolicy,
    workload: &'static str,
    requests_per_core: u32,
    seed: u64,
    duration_ps: u64,
    /// (requests, row_hits, demand_acts, mitigative_acts, rfm_commands,
    /// drfm_commands, reads, writes, refs)
    result: (u64, u64, u64, u64, u64, u64, u64, u64, u64),
    /// Per-core (finish_ps, requests).
    cores: [(u64, u64); 4],
    /// (act_j, non_act_j) — compared bit-exactly via `to_bits`.
    energy: (f64, f64),
}

/// Captured before the System and count-table refactors; see the module
/// docs.
const GOLDENS: [Golden; 7] = [
    Golden {
        name: "mint-frfcfs-mcf",
        scheme: MitigationScheme::Mint,
        policy: SchedulePolicy::FrFcfs { starvation_cap: 4 },
        workload: "mcf",
        requests_per_core: 5_000,
        seed: 7,
        duration_ps: 121_524_937,
        result: (20_000, 4_927, 15_073, 434, 0, 0, 14_503, 5_497, 1_024),
        cores: [
            (120_880_136, 5_000),
            (121_524_937, 5_000),
            (120_328_041, 5_000),
            (120_129_079, 5_000),
        ],
        energy: (3.41154000000000020e-5, 4.34865339263119935e-5),
    },
    Golden {
        name: "baseline-fcfs-lbm",
        scheme: MitigationScheme::Baseline,
        policy: SchedulePolicy::Fcfs,
        workload: "lbm",
        requests_per_core: 3_000,
        seed: 42,
        duration_ps: 79_440_200,
        result: (12_000, 9_472, 2_528, 0, 0, 0, 6_561, 5_439, 672),
        cores: [
            (76_183_500, 3_000),
            (77_733_230, 3_000),
            (79_440_200, 3_000),
            (78_608_200, 3_000),
        ],
        energy: (5.56160000000000025e-6, 2.74071299999999993e-5),
    },
    Golden {
        name: "rfm16-frfcfs-mcf",
        scheme: MitigationScheme::MintRfm { rfm_th: 16 },
        policy: SchedulePolicy::FrFcfs { starvation_cap: 4 },
        workload: "mcf",
        requests_per_core: 4_000,
        seed: 99,
        duration_ps: 107_394_689,
        result: (16_000, 3_890, 12_110, 1_480, 270, 0, 11_478, 4_522, 896),
        cores: [
            (104_312_115, 4_000),
            (107_394_689, 4_000),
            (107_328_345, 4_000),
            (106_013_493, 4_000),
        ],
        energy: (2.98980000000000007e-5, 3.65313837530639938e-5),
    },
    Golden {
        name: "mithril-frfcfs-mcf",
        scheme: MitigationScheme::Mithril,
        policy: SchedulePolicy::FrFcfs { starvation_cap: 4 },
        workload: "mcf",
        requests_per_core: 10_000,
        seed: 1,
        duration_ps: 243_969_460,
        result: (40_000, 9_811, 30_189, 3_960, 0, 0, 28_852, 11_148, 2_016),
        cores: [
            (240_997_597, 10_000),
            (243_969_460, 10_000),
            (243_801_330, 10_000),
            (240_238_183, 10_000),
        ],
        energy: (7.51278000000000026e-5, 8.70435515169599902e-5),
    },
    Golden {
        name: "protrr-frfcfs-mcf",
        scheme: MitigationScheme::ProTrr,
        policy: SchedulePolicy::FrFcfs { starvation_cap: 4 },
        workload: "mcf",
        requests_per_core: 10_000,
        seed: 1,
        duration_ps: 243_969_460,
        result: (40_000, 9_811, 30_189, 1_983, 0, 0, 28_852, 11_148, 2_016),
        cores: [
            (240_997_597, 10_000),
            (243_969_460, 10_000),
            (243_801_330, 10_000),
            (240_238_183, 10_000),
        ],
        energy: (7.07783999999999931e-5, 8.70435515169599902e-5),
    },
    Golden {
        name: "prct-frfcfs-mcf",
        scheme: MitigationScheme::Prct,
        policy: SchedulePolicy::FrFcfs { starvation_cap: 4 },
        workload: "mcf",
        requests_per_core: 10_000,
        seed: 1,
        duration_ps: 243_969_460,
        result: (40_000, 9_811, 30_189, 3_956, 0, 0, 28_852, 11_148, 2_016),
        cores: [
            (240_997_597, 10_000),
            (243_969_460, 10_000),
            (243_801_330, 10_000),
            (240_238_183, 10_000),
        ],
        energy: (7.51189999999999969e-5, 8.70435515169599902e-5),
    },
    Golden {
        name: "graphene-frfcfs-mcf",
        scheme: MitigationScheme::Graphene,
        policy: SchedulePolicy::FrFcfs { starvation_cap: 4 },
        workload: "mcf",
        requests_per_core: 10_000,
        seed: 1,
        duration_ps: 243_969_460,
        result: (40_000, 9_811, 30_189, 0, 0, 0, 28_852, 11_148, 2_016),
        cores: [
            (240_997_597, 10_000),
            (243_969_460, 10_000),
            (243_801_330, 10_000),
            (240_238_183, 10_000),
        ],
        energy: (6.64157999999999952e-5, 8.70435515169599902e-5),
    },
];

fn run(g: &Golden, cfg: SystemConfig) -> RunReport {
    let spec = workload_by_name(g.workload).expect("workload in the suite");
    Sim::new(cfg)
        .scheme(g.scheme)
        .policy(g.policy)
        .workload(&[spec; 4], g.requests_per_core)
        .seed(g.seed)
        .run()
}

#[test]
fn one_by_one_system_reproduces_the_legacy_channel_byte_for_byte() {
    let cfg = SystemConfig::table6();
    assert_eq!((cfg.channels, cfg.ranks), (1, 1), "Table VI is a 1x1 DIMM");
    for g in &GOLDENS {
        let r = run(g, cfg);
        assert_eq!(r.perf.duration_ps, g.duration_ps, "{}: duration", g.name);
        let s = &r.perf.result;
        assert_eq!(
            (
                s.requests,
                s.row_hits,
                s.demand_acts,
                s.mitigative_acts,
                s.rfm_commands,
                s.drfm_commands,
                s.reads,
                s.writes,
                s.refs,
            ),
            g.result,
            "{}: SimResult",
            g.name
        );
        for (i, (core, want)) in r.cores.iter().zip(&g.cores).enumerate() {
            assert_eq!(
                (core.finish_ps, core.requests),
                *want,
                "{}: core {i}",
                g.name
            );
        }
        assert_eq!(
            (r.energy.act_j.to_bits(), r.energy.non_act_j.to_bits()),
            (g.energy.0.to_bits(), g.energy.1.to_bits()),
            "{}: energy must match to the last f64 bit",
            g.name
        );
    }
}

#[test]
fn multi_channel_runs_are_bit_identical_at_jobs_1_and_4() {
    let cfg = SystemConfig {
        channels: 4,
        ranks: 2,
        ..SystemConfig::table6()
    };
    let reports: Vec<RunReport> = [1, 4]
        .iter()
        .map(|&jobs| {
            mint_exp::set_jobs(jobs);
            let r = run(&GOLDENS[0], cfg);
            mint_exp::set_jobs(0);
            r
        })
        .collect();
    let (one, four) = (&reports[0], &reports[1]);
    assert_eq!(one.perf.duration_ps, four.perf.duration_ps);
    assert_eq!(one.perf.result, four.perf.result);
    for (a, b) in one.cores.iter().zip(&four.cores) {
        assert_eq!((a.finish_ps, a.requests), (b.finish_ps, b.requests));
    }
    assert_eq!(one.energy.act_j.to_bits(), four.energy.act_j.to_bits());
    assert_eq!(
        one.energy.non_act_j.to_bits(),
        four.energy.non_act_j.to_bits()
    );
    // And scaling out actually engaged every channel: the run serviced
    // the full request budget.
    assert_eq!(one.perf.result.requests, 20_000);
}

/// FNV-1a over every field of an [`OracleSummary`], `row_maxima`
/// included, as little-endian words.
fn summary_digest(s: &OracleSummary) -> u64 {
    let mut words = vec![
        u64::from(s.max_hammers),
        u64::from(s.hottest_row),
        s.demand_acts,
        s.victim_refreshes,
        s.refs,
        s.rfm_commands,
        s.drfm_commands,
        s.row_maxima.len() as u64,
    ];
    words.extend(
        s.row_maxima
            .iter()
            .map(|&(row, max)| u64::from(row) << 32 | u64::from(max)),
    );
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Digests of the red-team oracle's [`OracleSummary`] (see
/// [`summary_digest`]) for every zoo scheme (zoo order) × the four
/// `redteam_patterns` (pattern-1, pattern-2, pattern-2-multi, pattern-3)
/// at [`RedteamConfig::quick`], cell `i` seeded as `redteam_sweep` seeds
/// it. Captured from the oracle's own hash-map model, before the oracle
/// moved onto `mint_dram::Bank`; see the module docs.
#[rustfmt::skip]
const ORACLE_GOLDENS: [(&str, [u64; 4]); 12] = [
    ("Baseline", [0x3a1db6443129cf5f, 0xf454ce665ab4743a, 0x307d90bd41133b15, 0x641fd4f84779f43e]),
    ("MINT", [0x6423b3d698a58acf, 0x8401b05c4a76d531, 0x0e8899b123e92874, 0xfd9fde676c98c22c]),
    ("MINT+RFM32", [0xd5ece99a2ff0f50b, 0xf0d886479a45bfed, 0x82cb003218065f87, 0x15fc6b8055506fbd]),
    ("MINT+RFM16", [0xbaa3109648aaf7e6, 0x0b0e8ffb7b61b7ea, 0xab9983c201949cc4, 0xf71d7311d9cde71a]),
    ("MC-PARA(1/40)", [0x0421591d43da7909, 0x5b83c8b077a96442, 0x902f3bc08b121fba, 0x33ce25e7a1186913]),
    ("Graphene", [0x3a1db6443129cf5f, 0xf454ce665ab4743a, 0x307d90bd41133b15, 0xe8aba17f8dfa540c]),
    ("Mithril", [0xc63e2b4caf40be57, 0x0830a56db7f1b1c1, 0xb1e4411e27663037, 0xba84f6d0c4ea6f18]),
    ("ProTRR", [0x2ea3e18d6c4604bb, 0x8ddb3f710bf07446, 0x8757dcc53b4b0345, 0x4f17f478c0c2d74a]),
    ("TRR", [0x3e35d20ac9a4d5be, 0x01d8f60e33e0194c, 0xde9113b47a94f246, 0x1c0569b119604515]),
    ("PRCT", [0xbb6e99e5a5e99d50, 0x0830a56db7f1b1c1, 0x3b73b2cd50dcd12a, 0xba84f6d0c4ea6f18]),
    ("PrIDE", [0x41a3b6e2752f9c4c, 0xdb13c8e8d3656567, 0x09a3f9211db61e96, 0xf639cce8d6476b23]),
    ("PARFM", [0x3e35d20ac9a4d5be, 0xca11bb9f4adff5d7, 0xb098a70f998494da, 0xfa70f2050c9894bb]),
];

#[test]
fn red_team_oracle_summaries_match_their_goldens() {
    let rc = RedteamConfig::quick();
    let schemes = MitigationScheme::zoo();
    let patterns = redteam_patterns(rc.base_row, max_act_per_trefi() as u32);
    assert_eq!((schemes.len(), patterns.len()), (12, 4));
    let grid: Vec<(usize, usize)> = (0..schemes.len())
        .flat_map(|s| (0..patterns.len()).map(move |p| (s, p)))
        .collect();
    let summaries = mint_exp::par_map(&grid, |i, &(s, p)| {
        run_attack(
            &rc,
            schemes[s],
            &patterns[p],
            derive_seed(rc.seed, i as u64),
        )
        .0
    });
    for (i, &(s, p)) in grid.iter().enumerate() {
        let (label, digests) = ORACLE_GOLDENS[s];
        assert_eq!(schemes[s].label(), label, "zoo order");
        assert_eq!(
            summary_digest(&summaries[i]),
            digests[p],
            "{label} × {}: {:?}",
            patterns[p].name(),
            summaries[i]
        );
    }
}
