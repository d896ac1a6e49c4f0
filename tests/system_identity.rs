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

// The energy goldens are 17-significant-digit round-trip captures: the
// extra digits are what make `to_bits` equality meaningful.
#![allow(clippy::excessive_precision)]

use mint_memsys::{
    workload_by_name, MitigationScheme, RunReport, SchedulePolicy, Sim, SystemConfig,
};

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
