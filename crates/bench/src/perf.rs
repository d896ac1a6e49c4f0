//! Performance/energy experiments: Fig 16, Fig 17 and Table VIII.
//!
//! Every (workload, scheme) cell is an independent seeded run, so the full
//! grids fan out through [`mint_memsys::ScenarioGrid`] (which rides the
//! `mint_exp::par_map`). Rows are assembled and averaged in workload
//! order, so the rendered tables are byte-identical for any worker count.

use crate::titled;
use mint_analysis::textable::TexTable;
use mint_memsys::{
    mixes, spec_rate_workloads, EnergyModel, MitigationBackend, MitigationScheme, ScenarioGrid,
    SystemConfig, WorkloadSpec,
};
use mint_rng::Xoshiro256StarStar;

/// Requests per core per run — enough for stable averages, small enough
/// that the full 34-workload × 4-scheme sweep runs in seconds.
pub const REQUESTS_PER_CORE: u32 = 40_000;

/// MC-PARA sampling probability tuned for a MinTRH similar to MINT's
/// (≈1.5K → p ≈ 1/40).
pub const MC_PARA_P: f64 = 1.0 / 40.0;

fn schemes_fig16() -> Vec<MitigationScheme> {
    vec![
        MitigationScheme::Baseline,
        MitigationScheme::Mint,
        MitigationScheme::MintRfm { rfm_th: 32 },
        MitigationScheme::MintRfm { rfm_th: 16 },
    ]
}

fn workload_suite() -> Vec<(String, [WorkloadSpec; 4])> {
    let mut suite: Vec<(String, [WorkloadSpec; 4])> = spec_rate_workloads()
        .into_iter()
        .map(|w| (format!("{}_r", w.name), [w; 4]))
        .collect();
    for (i, m) in mixes().into_iter().enumerate() {
        suite.push((format!("mix{}", i + 1), m));
    }
    suite
}

/// Runs the whole suite under `schemes` with per-workload seeds
/// `seed_base + index`; returns one normalized row per workload.
fn run_suite(
    suite: &[(String, [WorkloadSpec; 4])],
    schemes: &[MitigationScheme],
    seed_base: u64,
) -> Vec<Vec<mint_memsys::NormalizedPerf>> {
    let specs: Vec<[WorkloadSpec; 4]> = suite.iter().map(|(_, s)| *s).collect();
    ScenarioGrid::new(SystemConfig::table6())
        .schemes(schemes)
        .workloads(&specs)
        .requests_per_core(REQUESTS_PER_CORE)
        .seed_base(seed_base)
        .run()
}

/// Fig 16: normalized performance of MINT, MINT+RFM32 and MINT+RFM16 over
/// the 17 rate + 17 mixed workloads.
#[must_use]
pub fn fig16() -> String {
    let suite = workload_suite();
    let grid = run_suite(&suite, &schemes_fig16(), 1000);
    let mut tab = TexTable::new(vec!["Workload", "MINT", "MINT+RFM32", "MINT+RFM16"]);
    let mut sums = [0.0f64; 3];
    for ((name, _), row) in suite.iter().zip(&grid) {
        let vals = [row[1].normalized, row[2].normalized, row[3].normalized];
        for (s, v) in sums.iter_mut().zip(vals) {
            *s += v;
        }
        tab.row(vec![
            name.clone(),
            format!("{:.4}", vals[0]),
            format!("{:.4}", vals[1]),
            format!("{:.4}", vals[2]),
        ]);
    }
    let n = suite.len() as f64;
    tab.row(vec![
        "GMEAN/AVG".into(),
        format!("{:.4}", sums[0] / n),
        format!("{:.4}", sums[1] / n),
        format!("{:.4}", sums[2] / n),
    ]);
    titled(
        "Fig 16: normalized performance (paper: MINT 1.000, RFM32 ~0.998, RFM16 ~0.984)",
        &tab.to_text(),
    )
}

/// Fig 17: MINT (with RFM16 for equal threshold) vs blocking MC-PARA.
#[must_use]
pub fn fig17() -> String {
    let schemes = vec![
        MitigationScheme::Baseline,
        MitigationScheme::Mint,
        MitigationScheme::McPara { p: MC_PARA_P },
    ];
    let suite = workload_suite();
    let grid = run_suite(&suite, &schemes, 2000);
    let mut tab = TexTable::new(vec!["Workload", "MINT", "MC-PARA"]);
    let mut sums = [0.0f64; 2];
    for ((name, _), row) in suite.iter().zip(&grid) {
        let vals = [row[1].normalized, row[2].normalized];
        for (s, v) in sums.iter_mut().zip(vals) {
            *s += v;
        }
        tab.row(vec![
            name.clone(),
            format!("{:.4}", vals[0]),
            format!("{:.4}", vals[1]),
        ]);
    }
    let n = suite.len() as f64;
    tab.row(vec![
        "AVG".into(),
        format!("{:.4}", sums[0] / n),
        format!("{:.4}", sums[1] / n),
    ]);
    titled(
        "Fig 17: MINT vs MC-PARA with blocking DRFM (paper: MC-PARA 2-9% slowdown)",
        &tab.to_text(),
    )
}

/// Table VIII: memory energy overheads, averaged over the rate workloads.
#[must_use]
pub fn table8() -> String {
    let model = EnergyModel::ddr5_default();
    let schemes = schemes_fig16();
    let suite: Vec<(String, [WorkloadSpec; 4])> = spec_rate_workloads()
        .into_iter()
        .map(|w| (w.name.to_owned(), [w; 4]))
        .collect();
    let grid = run_suite(&suite, &schemes, 3000);
    let mut act = [0.0f64; 4];
    let mut non_act = [0.0f64; 4];
    let mut total = [0.0f64; 4];
    for row in &grid {
        let base = &row[0];
        let base_e = model.energy(&base.result, base.duration_ps, false);
        for (j, (&scheme, cell)) in schemes.iter().zip(row).enumerate() {
            let with_hw = !matches!(scheme, MitigationScheme::Baseline);
            let e = model.energy(&cell.result, cell.duration_ps, with_hw);
            act[j] += e.act_j / base_e.act_j;
            non_act[j] += e.non_act_j / base_e.non_act_j;
            total[j] += e.total_j() / base_e.total_j();
        }
    }
    let n = grid.len() as f64;
    let mut tab = TexTable::new(vec!["Config", "ACT Energy", "Non-ACT Energy", "Total"]);
    let names = ["Base (No Mitig)", "MINT", "MINT+RFM32", "MINT+RFM16"];
    for j in 0..4 {
        tab.row(vec![
            names[j].into(),
            format!("{:.2}x", act[j] / n),
            format!("{:.2}x", non_act[j] / n),
            format!("{:.2}x", total[j] / n),
        ]);
    }
    titled(
        "Table VIII: memory energy overheads (paper: MINT 1.06x/1.00x/1.01x)",
        &tab.to_text(),
    )
}

/// The workload subset the zoo summary averages over: a memory-intensity
/// spread — two memory-bound, one average, one compute-bound — enough for
/// a meaningful average at zoo scale.
pub const ZOO_WORKLOADS: [&str; 4] = ["lbm", "mcf", "gcc", "povray"];

/// Per-scheme aggregate of the tracker-zoo sweep: storage next to
/// normalized performance, row-hit rate and mitigation traffic. One record
/// per [`MitigationScheme::zoo`] entry, consumed by both the human table
/// ([`tracker_zoo`]) and the machine-readable `BENCH_perf.json`
/// ([`perf_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemePerfSummary {
    /// Scheme label (e.g. `"MINT+RFM16"`).
    pub label: String,
    /// Tracker entries per bank (0 for stateless schemes).
    pub entries_per_bank: u64,
    /// Tracker SRAM bits per bank (0 for stateless schemes).
    pub sram_bits_per_bank: u64,
    /// Normalized performance averaged over the workload subset
    /// (1.0 = baseline).
    pub normalized_perf: f64,
    /// Row-buffer hit rate over all serviced requests of the subset.
    pub row_hit_rate: f64,
    /// Mitigative ACTs per 1000 demand ACTs.
    pub mitig_acts_per_1k_demand: f64,
    /// RFM + DRFM commands issued across the subset.
    pub rfm_drfm_commands: u64,
}

/// Runs the full zoo over [`ZOO_WORKLOADS`] at `requests_per_core` and
/// aggregates one [`SchemePerfSummary`] per scheme.
#[must_use]
pub fn zoo_perf_summaries(requests_per_core: u32) -> Vec<SchemePerfSummary> {
    let cfg = SystemConfig::table6();
    let schemes = MitigationScheme::zoo();
    let rate = spec_rate_workloads();
    let suite: Vec<[WorkloadSpec; 4]> = ZOO_WORKLOADS
        .iter()
        .map(|n| {
            let w = rate
                .iter()
                .find(|w| w.name == *n)
                .copied()
                .expect("known workload");
            [w; 4]
        })
        .collect();
    let grid = ScenarioGrid::new(cfg)
        .schemes(&schemes)
        .workloads(&suite)
        .requests_per_core(requests_per_core)
        .seed_base(9000)
        .run();

    let mut probe_rng = Xoshiro256StarStar::seed_from_u64(0);
    schemes
        .iter()
        .enumerate()
        .map(|(s, &scheme)| {
            let backend = MitigationBackend::for_scheme(scheme, &cfg, &mut probe_rng);
            let (entries, bits) = backend
                .tracker()
                .map_or((0, 0), |t| (t.entries() as u64, t.storage_bits()));
            let mut perf = 0.0;
            let mut mitig = 0u64;
            let mut demand = 0u64;
            let mut hits = 0u64;
            let mut requests = 0u64;
            let mut cmds = 0u64;
            for row in &grid {
                perf += row[s].normalized;
                mitig += row[s].result.mitigative_acts;
                demand += row[s].result.demand_acts;
                hits += row[s].result.row_hits;
                requests += row[s].result.requests;
                cmds += row[s].result.rfm_commands + row[s].result.drfm_commands;
            }
            SchemePerfSummary {
                label: scheme.label(),
                entries_per_bank: entries,
                sram_bits_per_bank: bits,
                normalized_perf: perf / grid.len() as f64,
                row_hit_rate: hits as f64 / requests.max(1) as f64,
                mitig_acts_per_1k_demand: 1000.0 * mitig as f64 / demand.max(1) as f64,
                rfm_drfm_commands: cmds,
            }
        })
        .collect()
}

/// Renders zoo summaries as the machine-readable `BENCH_perf.json`
/// payload: per-scheme slowdown and row-hit rate (plus the storage and
/// traffic columns), with enough run metadata to interpret the numbers.
/// Records are emitted in the order the summaries were built — for
/// [`zoo_perf_summaries`] that is exactly [`MitigationScheme::zoo`]
/// order, pinned by test so `BENCH_perf.json` diffs stay clean across
/// refactors (a map-keyed rewrite would scramble them).
/// Hand-rendered JSON — the workspace is dependency-free by design.
#[must_use]
pub fn perf_json(summaries: &[SchemePerfSummary], requests_per_core: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"source\": \"figx_tracker_zoo\",\n");
    out.push_str(&format!("  \"requests_per_core\": {requests_per_core},\n"));
    out.push_str(&format!(
        "  \"workloads\": [{}],\n",
        ZOO_WORKLOADS
            .iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"schemes\": [\n");
    let rows: Vec<String> = summaries
        .iter()
        .map(|s| {
            format!(
                "    {{\"scheme\": \"{}\", \"normalized_perf\": {:.6}, \
                 \"slowdown_pct\": {:.4}, \"row_hit_rate\": {:.6}, \
                 \"entries_per_bank\": {}, \"sram_bits_per_bank\": {}, \
                 \"mitig_acts_per_1k_demand\": {:.4}, \"rfm_drfm_commands\": {}}}",
                s.label,
                s.normalized_perf,
                (1.0 - s.normalized_perf) * 100.0,
                s.row_hit_rate,
                s.entries_per_bank,
                s.sram_bits_per_bank,
                s.mitig_acts_per_1k_demand,
                s.rfm_drfm_commands,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Tracker zoo (Table-IX-style): every `MitigationScheme` backed by a
/// `mint_trackers` implementation runs the same workload subset through the
/// memory system; the table reports per-bank storage (entries and SRAM
/// bits) next to normalized performance and the mitigation traffic that
/// produced it.
///
/// The paper's argument in one table: the SRAM-heavy baselines (Graphene,
/// Mithril, ProTRR, PRCT) buy their security with thousands-to-128K
/// entries, MC-PARA buys it with blocking DRFM bank time, and MINT matches
/// them with a single entry and no slowdown.
#[must_use]
pub fn tracker_zoo() -> String {
    tracker_zoo_table(&zoo_perf_summaries(REQUESTS_PER_CORE))
}

/// Renders precomputed zoo summaries as the human-readable table (see
/// [`tracker_zoo`]; split out so `figx_tracker_zoo` can render the table
/// and `BENCH_perf.json` from one sweep).
#[must_use]
pub fn tracker_zoo_table(summaries: &[SchemePerfSummary]) -> String {
    let mut tab = TexTable::new(vec![
        "Scheme",
        "Entries/bank",
        "SRAM bits/bank",
        "Norm. perf",
        "Row-hit rate",
        "Mitig ACTs/1K demand",
        "RFM/DRFM cmds",
    ]);
    for s in summaries {
        tab.row(vec![
            s.label.clone(),
            if s.entries_per_bank == 0 {
                "-".into()
            } else {
                s.entries_per_bank.to_string()
            },
            if s.sram_bits_per_bank == 0 {
                "-".into()
            } else {
                s.sram_bits_per_bank.to_string()
            },
            format!("{:.4}", s.normalized_perf),
            format!("{:.4}", s.row_hit_rate),
            format!("{:.2}", s.mitig_acts_per_1k_demand),
            s.rfm_drfm_commands.to_string(),
        ]);
    }
    titled(
        "Tracker zoo: storage vs performance across the full baseline set \
         (paper Table IX: MINT 15 B vs KB-scale SRAM trackers; in-DRAM schemes 1.000 perf)",
        &tab.to_text(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_memsys::{workload_by_name, NormalizedPerf, Sim};

    /// One reduced-size smoke run shared by the tests (the full suite runs
    /// in the binaries).
    fn quick(scheme: MitigationScheme, seed: u64) -> NormalizedPerf {
        let mcf = workload_by_name("mcf").unwrap();
        Sim::ddr5()
            .scheme(scheme)
            .workload(&[mcf; 4], 10_000)
            .seed(seed)
            .run()
            .perf
    }

    #[test]
    fn fig16_shape_on_mcf() {
        let base = quick(MitigationScheme::Baseline, 5);
        let mint = quick(MitigationScheme::Mint, 5).normalize(&base);
        let rfm16 = quick(MitigationScheme::MintRfm { rfm_th: 16 }, 5).normalize(&base);
        assert!((mint.normalized - 1.0).abs() < 1e-9, "{}", mint.normalized);
        assert!(rfm16.normalized <= 1.0);
        assert!(rfm16.normalized > 0.90, "{}", rfm16.normalized);
    }

    #[test]
    fn fig17_shape_on_mcf() {
        // mcf is the worst case: low locality → mostly misses → many DRFM
        // samples, and the shared transaction queue propagates each DRFM
        // stall across cores (the pre-pipeline scalar model kept stalls
        // per-bank, which understated exactly this effect).
        let base = quick(MitigationScheme::Baseline, 6);
        let para = quick(MitigationScheme::McPara { p: MC_PARA_P }, 6).normalize(&base);
        assert!(
            (0.70..0.999).contains(&para.normalized),
            "MC-PARA should cost percents-to-tens-of-percents: {}",
            para.normalized
        );
    }

    #[test]
    fn mitigative_acts_present_for_mint() {
        let mint = quick(MitigationScheme::Mint, 7);
        assert!(mint.result.mitigative_acts > 0);
        let ratio = 1.0 + mint.result.mitigative_acts as f64 / mint.result.demand_acts as f64;
        assert!((1.0..1.6).contains(&ratio), "ACT ratio {ratio}");
    }

    #[test]
    fn perf_json_is_well_formed_and_complete() {
        // A small sweep: the JSON must carry one record per zoo scheme
        // with the slowdown/row-hit fields, balanced braces and no NaNs.
        let summaries = zoo_perf_summaries(2_000);
        assert_eq!(summaries.len(), MitigationScheme::zoo().len());
        let json = perf_json(&summaries, 2_000);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"requests_per_core\": 2000"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        for scheme in MitigationScheme::zoo() {
            assert!(
                json.contains(&format!("\"scheme\": \"{}\"", scheme.label())),
                "{} missing",
                scheme.label()
            );
        }
        for field in [
            "normalized_perf",
            "slowdown_pct",
            "row_hit_rate",
            "sram_bits_per_bank",
        ] {
            assert_eq!(
                json.matches(field).count(),
                summaries.len(),
                "{field} once per scheme"
            );
        }
        // Baseline leads the zoo and normalizes to exactly 1.0; every
        // in-DRAM scheme matches its timeline.
        assert!((summaries[0].normalized_perf - 1.0).abs() < 1e-12);
        assert!(summaries[0].row_hit_rate > 0.0);
        // The table renderer consumes the same records.
        let table = tracker_zoo_table(&summaries);
        assert!(table.contains("Row-hit rate"));
        assert!(table.contains("MINT+RFM16"));
    }

    #[test]
    fn perf_json_schemes_follow_zoo_order() {
        // The machine-readable artifact must list schemes in the stable
        // `MitigationScheme::zoo()` order — not in the order of some
        // intermediate map — so BENCH_perf.json diffs are clean.
        let summaries = zoo_perf_summaries(1_000);
        let zoo = MitigationScheme::zoo();
        assert_eq!(
            summaries
                .iter()
                .map(|s| s.label.clone())
                .collect::<Vec<_>>(),
            zoo.iter().map(MitigationScheme::label).collect::<Vec<_>>(),
            "summaries must come out in zoo order"
        );
        let json = perf_json(&summaries, 1_000);
        let mut pos = 0;
        for scheme in &zoo {
            let needle = format!("\"scheme\": \"{}\"", scheme.label());
            let at = json[pos..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{} missing or out of zoo order", scheme.label()));
            pos += at + needle.len();
        }
    }

    #[test]
    fn suite_grid_matches_direct_runs() {
        // One workload through the grid == the same runs done by hand.
        let schemes = vec![MitigationScheme::Baseline, MitigationScheme::Mint];
        let grid = {
            let mcf = workload_by_name("mcf").unwrap();
            let specs: Vec<[WorkloadSpec; 4]> = vec![[mcf; 4]];
            ScenarioGrid::new(SystemConfig::table6())
                .schemes(&schemes)
                .workloads(&specs)
                .requests_per_core(10_000)
                .seeds(&[9])
                .run()
        };
        let base = quick(schemes[0], 9);
        let mint = quick(schemes[1], 9).normalize(&base);
        assert_eq!(grid[0][1].duration_ps, mint.duration_ps);
        assert_eq!(grid[0][1].normalized.to_bits(), mint.normalized.to_bits());
    }
}
