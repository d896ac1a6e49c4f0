//! The simulated workloads: which cells each one runs, how a cell is run
//! through the production surface, and the goldens its outputs are held
//! to.

use std::collections::HashMap;

use mint_attacks::{redteam_patterns, PatternSpec};
use mint_memsys::backend::max_act_per_trefi;
use mint_memsys::{
    AddressDecoder, AddressMapping, CoreStream, MitigationScheme, Request, RequestSource,
    RunReport, ScenarioFrontend, ScenarioSpec, SchedulePolicy, Sim, SystemConfig,
};
use mint_redteam::{AttackSource, GroundTruthOracle, OracleSummary, RedteamConfig};
use mint_rng::derive_seed;

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seed held out from tuning: goldens exist for it so a change can be
/// checked on traffic it was not written against.
pub const HELD_OUT_SEED: u64 = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The tracker zoo on a 4-core mcf rate cell (tracker-bound).
    ZooMcf,
    /// MINT under the 32-core saturating stream (planner- and
    /// admission-bound).
    Saturate,
    /// The red-team campaign: attacks observed by the ground-truth oracle
    /// plus benign co-runs (observer- and event-bound).
    Redteam,
    /// The resident scenario service over a unix socket.
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZooMcf,
        Workload::Saturate,
        Workload::Redteam,
        Workload::Serve,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooMcf => "zoo_mcf",
            Workload::Saturate => "saturate",
            Workload::Redteam => "redteam",
            Workload::Serve => "serve",
        }
    }

    /// The tail percentile `job_tail_ms` reports, fixed per workload so
    /// runs stay comparable: the highest round percentile that keeps at
    /// least ten samples beyond it in a 20-second run on a 2-vCPU host
    /// (about 95 passes for `zoo_mcf`, 65 for `redteam`, 190 for
    /// `saturate`, 1,100 served jobs), with room for a slower host. A run
    /// extends itself until the rule holds.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ZooMcf => 85.0,
            Workload::Redteam => 80.0,
            Workload::Saturate => 90.0,
            Workload::Serve => 98.0,
        }
    }
}

/// Input sizes. `full` is what the benchmark measures; `tiny` drives the
/// same code paths in tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub zoo_requests_per_core: u32,
    pub saturate_requests_per_core: u32,
    pub attack_refis: u64,
    pub corun_refis: u64,
    pub benign_requests_per_core: u32,
    pub serve_short_requests: u32,
    pub serve_long_requests: u32,
    pub serve_grid_requests: u32,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            zoo_requests_per_core: 10_000,
            saturate_requests_per_core: 3_000,
            attack_refis: 256,
            corun_refis: 32,
            benign_requests_per_core: 5_000,
            serve_short_requests: 1_500,
            serve_long_requests: 50_000,
            serve_grid_requests: 1_000,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            zoo_requests_per_core: 300,
            saturate_requests_per_core: 40,
            attack_refis: 16,
            corun_refis: 8,
            benign_requests_per_core: 300,
            serve_short_requests: 200,
            // Still crosses one 65,536-request checkpoint slice.
            serve_long_requests: 17_000,
            serve_grid_requests: 100,
        }
    }
}

/// Where one cell's requests come from.
pub enum Frontend {
    /// A declarative scenario cell (synthetic per-core streams).
    Spec(ScenarioSpec),
    /// A red-team security cell: the attacker alone on core 0, the
    /// ground-truth oracle observing every command.
    Attack { pattern: usize },
    /// A red-team slowdown co-run: the attacker on core 0, benign cores on
    /// the rest, no observer.
    Corun { pattern: usize },
}

/// One simulation cell.
pub struct Cell {
    /// Unique within the workload; used in goldens and digests.
    pub label: String,
    pub scheme: MitigationScheme,
    /// The effective system (topology overrides applied).
    pub cfg: SystemConfig,
    pub policy: SchedulePolicy,
    pub mapping: AddressMapping,
    pub seed: u64,
    pub frontend: Frontend,
}

/// What the production surface returned for a cell.
pub struct CellRun {
    pub report: RunReport,
    pub oracle: Option<OracleSummary>,
}

/// A workload's cells plus the campaign context red-team cells need.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub cells: Vec<Cell>,
    pub redteam: Option<(RedteamConfig, Vec<PatternSpec>)>,
}

impl Plan {
    /// Builds the cell list of a simulated workload from its seed
    /// ([`Workload::Serve`] has none of its own).
    pub fn new(workload: Workload, seed: u64, scale: &Scale) -> Result<Plan, String> {
        let mut plan = Plan {
            workload,
            seed,
            cells: Vec::new(),
            redteam: None,
        };
        match workload {
            Workload::ZooMcf => {
                for scheme in MitigationScheme::zoo() {
                    let text = format!(
                        "scheme = {}\nworkload = mcf\nrequests = {}\nseed = {seed}\n",
                        scheme.label(),
                        scale.zoo_requests_per_core
                    );
                    plan.cells.push(Cell::from_spec(scheme.label(), &text)?);
                }
            }
            Workload::Saturate => {
                for (channels, ranks) in [(1, 1), (4, 2)] {
                    let text = format!(
                        "scheme = MINT\nworkload = saturate\ncores = 32\nchannels = {channels}\n\
                         ranks = {ranks}\nrequests = {}\nseed = {seed}\npolicy = FR-FCFS\n\
                         mapping = RoBaRaCoCh\n",
                        scale.saturate_requests_per_core
                    );
                    plan.cells.push(Cell::from_spec(
                        format!("MINT/{channels}ch{ranks}rk"),
                        &text,
                    )?);
                }
            }
            Workload::Redteam => {
                let rc = RedteamConfig {
                    attack_refis: scale.attack_refis,
                    corun_refis: scale.corun_refis,
                    benign_requests_per_core: scale.benign_requests_per_core,
                    seed,
                    ..RedteamConfig::default_sweep()
                };
                let patterns = redteam_patterns(
                    rc.base_row,
                    u32::try_from(max_act_per_trefi()).expect("MaxACT fits u32"),
                );
                let zoo = MitigationScheme::zoo();
                // The campaign's seeding: security cell i of the
                // scheme-major grid runs derive_seed(seed, i); every
                // co-run shares one seed so each scheme faces identical
                // benign traffic, under pattern-2.
                for (s, &scheme) in zoo.iter().enumerate() {
                    for (p, pattern) in patterns.iter().enumerate() {
                        let i = s * patterns.len() + p;
                        plan.cells.push(Cell::redteam(
                            &rc,
                            scheme,
                            format!("{}/{}", scheme.label(), pattern.name()),
                            derive_seed(seed, i as u64),
                            Frontend::Attack { pattern: p },
                        ));
                    }
                }
                let slowdown_pattern = patterns.len().min(2) - 1;
                for &scheme in &zoo {
                    plan.cells.push(Cell::redteam(
                        &rc,
                        scheme,
                        format!("{}/corun", scheme.label()),
                        derive_seed(seed, 0xC00F),
                        Frontend::Corun {
                            pattern: slowdown_pattern,
                        },
                    ));
                }
                plan.redteam = Some((rc, patterns));
            }
            Workload::Serve => return Err("serve builds its cells from its job mix".into()),
        }
        Ok(plan)
    }

    fn campaign(&self) -> &(RedteamConfig, Vec<PatternSpec>) {
        self.redteam
            .as_ref()
            .expect("red-team cells carry their campaign")
    }
}

impl Cell {
    /// A cell from scenario text, exactly as `ScenarioSpec::to_sim` would
    /// configure it on the Table VI system.
    pub fn from_spec(label: impl Into<String>, text: &str) -> Result<Cell, String> {
        let spec = ScenarioSpec::parse(text).map_err(|e| format!("cell spec: {e}"))?;
        let mut cfg = SystemConfig::table6();
        if let Some(cores) = spec.cores {
            cfg.cores = cores;
        }
        if let Some(channels) = spec.channels {
            cfg.channels = channels;
        }
        if let Some(ranks) = spec.ranks {
            cfg.ranks = ranks;
        }
        if !matches!(spec.frontend, ScenarioFrontend::Workload(_)) {
            return Err(format!("{text:?}: only workload cells are benchmarked"));
        }
        Ok(Cell {
            label: label.into(),
            scheme: spec.scheme,
            cfg,
            policy: spec.policy,
            mapping: spec.mapping,
            seed: spec.seed,
            frontend: Frontend::Spec(spec),
        })
    }

    fn redteam(
        rc: &RedteamConfig,
        scheme: MitigationScheme,
        label: String,
        seed: u64,
        frontend: Frontend,
    ) -> Cell {
        Cell {
            label,
            scheme,
            cfg: rc.cfg,
            policy: rc.policy,
            mapping: rc.mapping,
            seed,
            frontend,
        }
    }

    /// The cell's request sources and per-core budget, built exactly as
    /// the production path builds them.
    pub fn sources(&self, plan: &Plan) -> (Vec<Box<dyn RequestSource>>, Option<u32>) {
        match &self.frontend {
            Frontend::Spec(spec) => {
                let ScenarioFrontend::Workload(cell) = &spec.frontend else {
                    unreachable!("from_spec admits workload cells only");
                };
                let decoder = AddressDecoder::new(&self.cfg, self.mapping);
                let sources = cell
                    .resolve(self.cfg.cores)
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| {
                        Box::new(CoreStream::new(
                            w,
                            decoder,
                            w.think_time_ps(&self.cfg),
                            derive_seed(self.seed, i as u64),
                        )) as Box<dyn RequestSource>
                    })
                    .collect();
                (sources, Some(spec.requests_per_core))
            }
            Frontend::Attack { pattern } => {
                let (rc, patterns) = plan.campaign();
                (
                    vec![attack_source(rc, &patterns[*pattern], rc.attack_refis)],
                    None,
                )
            }
            Frontend::Corun { pattern } => {
                let (rc, patterns) = plan.campaign();
                let spec = mint_memsys::workload_by_name(rc.benign_workload)
                    .expect("the campaign's benign workload exists");
                let decoder = AddressDecoder::new(&rc.cfg, rc.mapping);
                let think = spec.think_time_ps(&rc.cfg);
                let mut sources = vec![attack_source(rc, &patterns[*pattern], rc.corun_refis)];
                for core in 1..rc.cfg.cores {
                    sources.push(Box::new(Limited {
                        inner: CoreStream::new(
                            spec,
                            decoder,
                            think,
                            derive_seed(self.seed, u64::from(core)),
                        ),
                        remaining: rc.benign_requests_per_core,
                    }));
                }
                (sources, None)
            }
        }
    }

    /// A fresh observer for cells that carry one (the security cells).
    pub fn observer(&self, plan: &Plan) -> Option<GroundTruthOracle> {
        match self.frontend {
            Frontend::Attack { .. } => {
                let (rc, _) = plan.campaign();
                Some(GroundTruthOracle::new(&rc.cfg, rc.target_bank))
            }
            Frontend::Spec(_) | Frontend::Corun { .. } => None,
        }
    }

    /// Runs the cell through the production surface: `ScenarioSpec::to_sim`
    /// for scenario cells, `mint_redteam::run_attack` for security cells,
    /// and the campaign's `Sim` construction for co-runs (whose builder
    /// the red-team crate keeps private).
    pub fn run(&self, plan: &Plan) -> Result<CellRun, String> {
        match &self.frontend {
            Frontend::Spec(spec) => {
                let sim = spec
                    .to_sim(SystemConfig::table6())
                    .map_err(|e| format!("{}: {e}", self.label))?;
                Ok(CellRun {
                    report: sim.run(),
                    oracle: None,
                })
            }
            Frontend::Attack { pattern } => {
                let (rc, patterns) = plan.campaign();
                let (summary, report) =
                    mint_redteam::run_attack(rc, self.scheme, &patterns[*pattern], self.seed);
                Ok(CellRun {
                    report,
                    oracle: Some(summary),
                })
            }
            Frontend::Corun { .. } => {
                let (sources, budget) = self.sources(plan);
                let sim = Sim::new(self.cfg)
                    .scheme(self.scheme)
                    .policy(self.policy)
                    .mapping(self.mapping)
                    .seed(self.seed)
                    .sources(sources)
                    .per_core_budget(budget);
                Ok(CellRun {
                    report: sim.run(),
                    oracle: None,
                })
            }
        }
    }
}

fn attack_source(rc: &RedteamConfig, pattern: &PatternSpec, refis: u64) -> Box<dyn RequestSource> {
    Box::new(AttackSource::new(
        &rc.cfg,
        rc.mapping,
        rc.target_bank,
        pattern.build(),
        pattern.name(),
        refis,
    ))
}

/// Caps a benign co-run core at a request budget without capping the
/// attacker — the campaign's own wrapper, which the red-team crate keeps
/// private.
struct Limited<S> {
    inner: S,
    remaining: u32,
}

impl<S: RequestSource> RequestSource for Limited<S> {
    fn next_request(&mut self) -> Option<Request> {
        self.next_request_at(0)
    }

    fn next_request_at(&mut self, ready_at_ps: u64) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_request_at(ready_at_ps)
    }
}

/// Recorded digests, keyed by `(workload, seed, cell label)`.
pub struct Goldens(HashMap<(String, u64, String), String>);

/// The golden digests shipped with the benchmark (`golden.txt`).
pub const GOLDEN_TEXT: &str = include_str!("../golden.txt");

impl Goldens {
    /// Parses `workload seed label digest` lines (`#` comments allowed).
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, seed, label, digest] = fields[..] else {
                return Err(format!("golden line {}: expected 4 fields", n + 1));
            };
            let seed = seed
                .parse()
                .map_err(|e| format!("golden line {}: bad seed: {e}", n + 1))?;
            map.insert(
                (workload.to_string(), seed, label.to_string()),
                digest.to_string(),
            );
        }
        Ok(Goldens(map))
    }

    pub fn get(&self, workload: Workload, seed: u64, label: &str) -> Option<&str> {
        self.0
            .get(&(workload.name().to_string(), seed, label.to_string()))
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_plan_has_unique_labels() {
        for w in [Workload::ZooMcf, Workload::Saturate, Workload::Redteam] {
            let plan = Plan::new(w, DEFAULT_SEED, &Scale::tiny()).unwrap();
            let mut labels: Vec<&str> = plan.cells.iter().map(|c| c.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), plan.cells.len(), "{}", w.name());
        }
    }

    #[test]
    fn shipped_goldens_parse() {
        let g = Goldens::parse(GOLDEN_TEXT).unwrap();
        assert!(g.get(Workload::ZooMcf, DEFAULT_SEED, "Mithril").is_some());
        assert!(Goldens::parse("zoo_mcf 1 x").is_err());
    }
}
