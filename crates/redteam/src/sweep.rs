//! Scheme × pattern security sweeps and performance-under-attack co-runs,
//! fanned out through `mint_exp::par_map` (bit-identical for any worker
//! count).

use crate::oracle::{GroundTruthOracle, OracleSummary, SecurityVerdict};
use crate::source::AttackSource;
use mint_attacks::PatternSpec;
use mint_dram::RowId;
use mint_memsys::{
    workload_by_name, AddressDecoder, AddressMapping, CoreStream, MitigationScheme, RequestSource,
    RunReport, SchedulePolicy, Sim, SystemConfig,
};
use mint_rng::derive_seed;

/// Everything one red-team campaign needs: the system under test, where
/// and how long to attack, the threshold grid to judge against, and the
/// benign co-run load.
#[derive(Debug, Clone)]
pub struct RedteamConfig {
    /// The system under test.
    pub cfg: SystemConfig,
    /// Address mapping for both attacker and benign cores.
    pub mapping: AddressMapping,
    /// Channel arbitration policy.
    pub policy: SchedulePolicy,
    /// The system-global bank the attacker hammers (any channel/rank of
    /// the topology).
    pub target_bank: u32,
    /// First attack row (patterns spread upward from here).
    pub base_row: RowId,
    /// Attack duration of the security cells, in tREFI.
    pub attack_refis: u64,
    /// Attack duration of the slowdown co-runs, in tREFI (shorter: the
    /// benign cores must cover the whole window with real traffic).
    pub corun_refis: u64,
    /// Rowhammer thresholds every cell is judged against.
    pub trh_grid: Vec<u32>,
    /// Benign workload name (from `spec_rate_workloads`) for co-runs.
    pub benign_workload: &'static str,
    /// Requests per benign core in co-runs.
    pub benign_requests_per_core: u32,
    /// Master seed; every cell derives its own substream.
    pub seed: u64,
}

impl RedteamConfig {
    /// The bench-scale default: 2048 tREFI of attack (a quarter tREFW —
    /// enough for an unmitigated pattern to blow through the device-scale
    /// thresholds), judged at the paper's device threshold (1400, MINT's
    /// Table III MinTRH-D) and a high-headroom 4800.
    #[must_use]
    pub fn default_sweep() -> Self {
        Self {
            cfg: SystemConfig::table6(),
            mapping: AddressMapping::default(),
            policy: SchedulePolicy::default(),
            target_bank: 5,
            base_row: RowId(4000),
            attack_refis: 2048,
            corun_refis: 256,
            trh_grid: vec![1400, 4800],
            benign_workload: "mcf",
            benign_requests_per_core: 60_000,
            seed: 0xBAD_5EED,
        }
    }

    /// A seconds-scale variant for tests and CI smoke: short windows,
    /// small benign load, same structure.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            attack_refis: 256,
            corun_refis: 64,
            benign_requests_per_core: 4_000,
            trh_grid: vec![200, 1400],
            ..Self::default_sweep()
        }
    }

    fn benign_spec(&self) -> mint_memsys::WorkloadSpec {
        workload_by_name(self.benign_workload)
            .unwrap_or_else(|| panic!("unknown benign workload {:?}", self.benign_workload))
    }
}

/// One security cell: one scheme facing one pattern, judged against the
/// whole threshold grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityCell {
    /// The scheme under attack.
    pub scheme: MitigationScheme,
    /// Its display label.
    pub scheme_label: String,
    /// The mounted pattern's name.
    pub pattern: &'static str,
    /// What the oracle saw.
    pub summary: OracleSummary,
    /// One verdict per entry of the config's `trh_grid` (same order).
    pub verdicts: Vec<SecurityVerdict>,
    /// Wall-clock of the attack run (ps).
    pub duration_ps: u64,
}

/// One slowdown cell: how much one scheme's mitigation machinery slows
/// the *benign* cores while core 0 hammers.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownCell {
    /// The scheme under attack.
    pub scheme_label: String,
    /// Latest benign-core finish time (ps).
    pub benign_finish_ps: u64,
    /// Requests the benign cores completed.
    pub benign_requests: u64,
    /// `benign_finish / baseline benign_finish` for identical traffic:
    /// 1.0 = the scheme costs the victims nothing under attack, higher =
    /// the mitigation machinery steals their bank time.
    pub slowdown: f64,
}

/// The full campaign result: every security cell (scheme-major, pattern
/// order preserved) plus one slowdown cell per scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct RedteamReport {
    /// The thresholds every cell was judged against.
    pub trh_grid: Vec<u32>,
    /// Scheme × pattern grid, scheme-major.
    pub cells: Vec<SecurityCell>,
    /// Per-scheme benign-core slowdown under the worst-case pattern.
    pub slowdowns: Vec<SlowdownCell>,
}

impl RedteamReport {
    /// Whether any (scheme, pattern) cell escaped at `trh`.
    #[must_use]
    pub fn any_escape_at(&self, trh: u32) -> bool {
        self.cells
            .iter()
            .any(|c| c.verdicts.iter().any(|v| v.trh == trh && v.escaped))
    }

    /// Whether any cell held `trh` with positive margin.
    #[must_use]
    pub fn any_positive_margin_at(&self, trh: u32) -> bool {
        self.cells
            .iter()
            .any(|c| c.verdicts.iter().any(|v| v.trh == trh && v.margin_acts > 0))
    }
}

/// Mounts `pattern` on `scheme` for `refis` tREFI (attacker only) and
/// returns the oracle's summary plus the unified run report.
#[must_use]
pub fn run_attack(
    rc: &RedteamConfig,
    scheme: MitigationScheme,
    pattern: &PatternSpec,
    seed: u64,
) -> (OracleSummary, RunReport) {
    let source = AttackSource::new(
        &rc.cfg,
        rc.mapping,
        rc.target_bank,
        pattern.build(),
        pattern.name(),
        rc.attack_refis,
    );
    let mut oracle = GroundTruthOracle::new(&rc.cfg, rc.target_bank);
    let run = Sim::new(rc.cfg)
        .scheme(scheme)
        .policy(rc.policy)
        .mapping(rc.mapping)
        .sources(vec![Box::new(source) as Box<dyn RequestSource>])
        .seed(seed)
        .observer(&mut oracle)
        .run();
    (oracle.summary(), run)
}

/// Caps an inner source at a request budget — so co-runs can bound the
/// benign cores without also truncating the attacker (which is already
/// bounded by its tREFI limit).
struct Limited<S> {
    inner: S,
    remaining: u32,
}

impl<S: RequestSource> RequestSource for Limited<S> {
    fn next_request(&mut self) -> Option<mint_memsys::Request> {
        self.next_request_at(0)
    }

    fn next_request_at(&mut self, ready_at_ps: u64) -> Option<mint_memsys::Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_request_at(ready_at_ps)
    }
}

/// Builds and drives the attacker+victim co-run (attacker on core 0 for
/// `corun_refis`, `cores − 1` benign streams capped at
/// `benign_requests_per_core` each), feeding events to `observer` if any.
fn corun_observed(
    rc: &RedteamConfig,
    scheme: MitigationScheme,
    pattern: &PatternSpec,
    seed: u64,
    observer: Option<&mut dyn mint_memsys::ChannelObserver>,
) -> RunReport {
    let spec = rc.benign_spec();
    let decoder = AddressDecoder::new(&rc.cfg, rc.mapping);
    let think = spec.think_time_ps(&rc.cfg);
    let mut sources: Vec<Box<dyn RequestSource>> = vec![Box::new(AttackSource::new(
        &rc.cfg,
        rc.mapping,
        rc.target_bank,
        pattern.build(),
        pattern.name(),
        rc.corun_refis,
    ))];
    for core in 1..rc.cfg.cores {
        sources.push(Box::new(Limited {
            inner: CoreStream::new(spec, decoder, think, derive_seed(seed, u64::from(core))),
            remaining: rc.benign_requests_per_core,
        }));
    }
    let mut sim = Sim::new(rc.cfg)
        .scheme(scheme)
        .policy(rc.policy)
        .mapping(rc.mapping)
        .sources(sources)
        .seed(seed);
    if let Some(obs) = observer {
        sim = sim.observer(obs);
    }
    sim.run()
}

/// Attacker on core 0, benign cores on the rest: returns the oracle's
/// summary and the run report (per-core outcomes included, so callers
/// can read off the benign finish times). The attacker runs its full
/// `corun_refis`; only the benign cores are capped at
/// `benign_requests_per_core`.
#[must_use]
pub fn run_corun(
    rc: &RedteamConfig,
    scheme: MitigationScheme,
    pattern: &PatternSpec,
    seed: u64,
) -> (OracleSummary, RunReport) {
    let mut oracle = GroundTruthOracle::new(&rc.cfg, rc.target_bank);
    let run = corun_observed(rc, scheme, pattern, seed, Some(&mut oracle));
    (oracle.summary(), run)
}

/// Latest finish over the benign (non-attacker) cores of a co-run.
fn benign_finish(run: &RunReport) -> (u64, u64) {
    run.cores
        .iter()
        .skip(1)
        .fold((0, 0), |(finish, requests), c| {
            (finish.max(c.finish_ps), requests + c.requests)
        })
}

/// Runs the full campaign: every `(scheme, pattern)` security cell plus a
/// per-scheme benign-slowdown co-run under `patterns[slowdown_pattern]`
/// (the worst-case pattern-2 in the canonical grid), all fanned out
/// through [`mint_exp::par_map`] — results are bit-identical for any
/// `--jobs` count.
///
/// The first scheme is the slowdown normalisation baseline (pass the zoo
/// and that is `Baseline`).
///
/// # Panics
///
/// Panics if `schemes` or `patterns` is empty.
#[must_use]
pub fn redteam_sweep(
    rc: &RedteamConfig,
    schemes: &[MitigationScheme],
    patterns: &[PatternSpec],
) -> RedteamReport {
    assert!(!schemes.is_empty(), "need at least one scheme");
    assert!(!patterns.is_empty(), "need at least one pattern");
    let grid: Vec<(usize, usize)> = (0..schemes.len())
        .flat_map(|s| (0..patterns.len()).map(move |p| (s, p)))
        .collect();
    let cells: Vec<SecurityCell> = mint_exp::par_map(&grid, |i, &(s, p)| {
        let (summary, run) =
            run_attack(rc, schemes[s], &patterns[p], derive_seed(rc.seed, i as u64));
        SecurityCell {
            scheme: schemes[s],
            scheme_label: schemes[s].label(),
            pattern: patterns[p].name(),
            verdicts: rc.trh_grid.iter().map(|&t| summary.verdict(t)).collect(),
            summary,
            duration_ps: run.perf.duration_ps,
        }
    });

    // Slowdown co-runs: the *same* seed for every scheme, so every scheme
    // faces identical benign traffic and the finish-time ratio isolates
    // the mitigation machinery's cost. No oracle rides these runs — the
    // security question is answered by the attack cells above, and the
    // event log would tax the largest runs of the campaign for nothing.
    let slowdown_pattern = patterns.len().min(2) - 1;
    let corun_seed = derive_seed(rc.seed, 0xC00F);
    let scheme_idx: Vec<usize> = (0..schemes.len()).collect();
    let runs = mint_exp::par_map(&scheme_idx, |_, &s| {
        corun_observed(
            rc,
            schemes[s],
            &patterns[slowdown_pattern],
            corun_seed,
            None,
        )
    });
    let base = benign_finish(&runs[0]).0.max(1);
    let slowdowns: Vec<SlowdownCell> = schemes
        .iter()
        .zip(&runs)
        .map(|(scheme, run)| {
            let (finish, requests) = benign_finish(run);
            SlowdownCell {
                scheme_label: scheme.label(),
                benign_finish_ps: finish,
                benign_requests: requests,
                slowdown: finish as f64 / base as f64,
            }
        })
        .collect();

    RedteamReport {
        trh_grid: rc.trh_grid.clone(),
        cells,
        slowdowns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_attacks::redteam_patterns;
    use mint_memsys::backend::max_act_per_trefi;

    fn quick() -> RedteamConfig {
        RedteamConfig::quick()
    }

    fn patterns(rc: &RedteamConfig) -> Vec<PatternSpec> {
        redteam_patterns(rc.base_row, max_act_per_trefi() as u32)
    }

    #[test]
    fn baseline_escapes_where_prct_holds() {
        let rc = quick();
        let specs = patterns(&rc);
        let p3 = specs.iter().find(|p| p.name() == "pattern-3").unwrap();
        let (base, _) = run_attack(&rc, MitigationScheme::Baseline, p3, 7);
        let (prct, _) = run_attack(&rc, MitigationScheme::Prct, p3, 7);
        // Unmitigated pattern-3 piles 3 ACTs per tREFI on each victim;
        // over 256 tREFI that is ~768 hammers (minus one sweep reset).
        let v = base.verdict(200);
        assert!(
            v.escaped,
            "baseline must escape TRH 200: {:?}",
            base.max_hammers
        );
        assert!(!v.escape_rows.is_empty());
        // PRCT mitigates one row per REF out of 24 aggressors: far lower.
        assert!(
            prct.max_hammers < base.max_hammers / 2,
            "PRCT {} vs baseline {}",
            prct.max_hammers,
            base.max_hammers
        );
    }

    #[test]
    fn attack_lands_intended_activation_counts() {
        // Pattern-1 over N tREFI must produce exactly N demand ACTs on
        // the attacked bank (one per tREFI, none merged into row hits —
        // the REF closes the row buffer between activations).
        let rc = quick();
        let specs = patterns(&rc);
        let p1 = specs.iter().find(|p| p.name() == "pattern-1").unwrap();
        let (summary, run) = run_attack(&rc, MitigationScheme::Baseline, p1, 3);
        assert_eq!(summary.demand_acts, rc.attack_refis);
        assert_eq!(run.perf.result.requests, rc.attack_refis);
        assert_eq!(run.cores.len(), 1);
        assert_eq!(run.cores[0].requests, rc.attack_refis);
        // The victims accumulated close to one hammer per tREFI (the
        // sweep reset them at most once in a quarter-tREFW window).
        assert!(
            summary.max_hammers >= (rc.attack_refis as u32) * 3 / 4,
            "got {}",
            summary.max_hammers
        );
    }

    #[test]
    fn full_window_pattern_stays_within_max_act_per_trefi() {
        let rc = quick();
        let specs = patterns(&rc);
        let p2 = specs.iter().find(|p| p.name() == "pattern-2").unwrap();
        let (summary, run) = run_attack(&rc, MitigationScheme::Baseline, p2, 5);
        let max_act = max_act_per_trefi();
        // ≤ MaxACT per tREFI on average — and the run cannot have taken
        // fewer tREFI than intended.
        let refis_elapsed = run.perf.duration_ps / rc.cfg.t_refi_ps + 1;
        assert!(
            summary.demand_acts <= refis_elapsed * max_act,
            "{} ACTs over {} tREFI exceeds MaxACT = {}",
            summary.demand_acts,
            refis_elapsed,
            max_act
        );
        assert_eq!(summary.demand_acts, rc.attack_refis * max_act);
    }

    #[test]
    fn attack_on_a_far_channel_reaches_its_bank() {
        // The same campaign mounted on channel 1 / rank 1 of a 2×2
        // topology: routing, the rank-aware pipeline, and the
        // system-global event rebase all have to line up for the oracle
        // to see the attack at all.
        let mut rc = quick();
        rc.cfg = SystemConfig {
            channels: 2,
            ranks: 2,
            ..rc.cfg
        };
        rc.target_bank = rc.cfg.banks_per_channel() + rc.cfg.banks + 5;
        let specs = patterns(&rc);
        let p1 = specs.iter().find(|p| p.name() == "pattern-1").unwrap();
        let (summary, run) = run_attack(&rc, MitigationScheme::Baseline, p1, 3);
        assert_eq!(summary.demand_acts, rc.attack_refis);
        assert_eq!(run.perf.result.requests, rc.attack_refis);
        assert!(summary.max_hammers >= (rc.attack_refis as u32) * 3 / 4);
    }

    #[test]
    fn corun_reports_benign_cores() {
        let rc = quick();
        let specs = patterns(&rc);
        let (_, run) = run_corun(&rc, MitigationScheme::Baseline, &specs[1], 11);
        assert_eq!(run.cores.len(), rc.cfg.cores as usize);
        let (finish, requests) = benign_finish(&run);
        assert!(finish > 0);
        assert_eq!(
            requests,
            u64::from(rc.benign_requests_per_core) * u64::from(rc.cfg.cores - 1),
            "each benign core is capped at exactly its budget"
        );
        // The benign budget must not truncate the attacker: pattern-2
        // fills every slot, so core 0 lands MaxACT × corun_refis ACTs.
        assert_eq!(
            run.cores[0].requests,
            rc.corun_refis * max_act_per_trefi(),
            "attacker runs its full tREFI window regardless of the benign cap"
        );
    }

    #[test]
    fn sweep_is_deterministic_across_job_counts() {
        let rc = quick();
        let schemes = [
            MitigationScheme::Baseline,
            MitigationScheme::Mint,
            MitigationScheme::McPara { p: 1.0 / 40.0 },
        ];
        mint_exp::set_jobs(1);
        let one = redteam_sweep(&rc, &schemes, &patterns(&rc));
        mint_exp::set_jobs(4);
        let four = redteam_sweep(&rc, &schemes, &patterns(&rc));
        mint_exp::set_jobs(0);
        assert_eq!(one, four, "jobs 1 vs 4 must be bit-identical");
        assert_eq!(one.cells.len(), schemes.len() * 4);
        assert_eq!(one.slowdowns.len(), schemes.len());
        assert!((one.slowdowns[0].slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn empty_schemes_rejected() {
        let rc = quick();
        let _ = redteam_sweep(&rc, &[], &patterns(&rc));
    }
}
