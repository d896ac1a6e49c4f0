//! Declarative scenarios: describe [`Sim`] cells and grids as data.
//!
//! The paper's evaluation is a grid of scenarios; bench binaries and
//! sweeps should describe those cells as *data*, not as bespoke argument
//! plumbing. A [`ScenarioSpec`] is one cell — scheme, scheduler, mapping,
//! seed and a frontend — parsed from a small `key = value` text format
//! (same conventions as [`parse_trace`](crate::parse_trace): `#`
//! comments, blank lines ignored, line-numbered errors, no external
//! dependencies). A [`ScenarioGrid`] is a scheme × workload grid that
//! fans its cells through `mint_exp::par_map`, normalizing each
//! workload row against the first scheme — bit-identical for any
//! `--jobs` count, and cell-for-cell identical to running each [`Sim`]
//! by hand.
//!
//! ```
//! use mint_memsys::ScenarioSpec;
//!
//! let spec = ScenarioSpec::parse(
//!     "# one zoo cell\n\
//!      scheme = MINT+RFM16\n\
//!      workload = lbm\n\
//!      requests = 500\n\
//!      seed = 11\n",
//! )
//! .unwrap();
//! let report = spec.run().unwrap();
//! assert_eq!(report.perf.result.requests, 4 * 500);
//! ```
//!
//! The grid form adds plural axes (`schemes = …`, `workloads = …`, with
//! `zoo` expanding to the full [`MitigationScheme::zoo`]); see
//! [`ScenarioGrid::parse`]. [`parse_any`] classifies a file as one or the
//! other, which is what the `run_scenario` bench binary feeds on.

use crate::address::AddressMapping;
use crate::config::{MitigationScheme, SystemConfig};
use crate::sim::{NormalizedPerf, RunReport, Sim};
use crate::workload::{mixes, read_trace_file, workload_by_name, WorkloadSpec};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// A malformed scenario line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError {
    /// 1-based line number (0 for file-level errors such as missing
    /// required keys).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.reason)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for ScenarioParseError {}

/// One workload cell of a scenario, kept in its declarative form so
/// [`ScenarioSpec::to_text`] round-trips exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadCell {
    /// A rate run: one named SPEC2017 workload replicated on every core.
    Rate(String),
    /// Mix `n` of the canonical [`mixes`] (1-based, as printed in the
    /// paper's tables).
    Mix(usize),
    /// An explicit per-core list, rendered `a+b+c+d`.
    PerCore(Vec<String>),
}

impl WorkloadCell {
    /// Parses one whitespace-free cell token: a rate workload name
    /// (`lbm`), a mix index (`mix3`), or a `+`-joined per-core list
    /// (`lbm+mcf+gcc+povray`).
    ///
    /// # Errors
    ///
    /// Returns a message (no line number — the caller owns that) for
    /// unknown workload names and out-of-range mix indices.
    pub fn parse(token: &str) -> Result<WorkloadCell, String> {
        if let Some(n) = token.strip_prefix("mix") {
            if let Ok(idx) = n.parse::<usize>() {
                let count = mixes().len();
                if (1..=count).contains(&idx) {
                    return Ok(WorkloadCell::Mix(idx));
                }
                return Err(format!("mix index {idx} out of range 1..={count}"));
            }
        }
        let check = |name: &str| -> Result<(), String> {
            if workload_by_name(name).is_some() {
                Ok(())
            } else {
                Err(format!("unknown workload {name:?}"))
            }
        };
        if token.contains('+') {
            let names: Vec<String> = token.split('+').map(str::to_owned).collect();
            for name in &names {
                check(name)?;
            }
            return Ok(WorkloadCell::PerCore(names));
        }
        check(token)?;
        Ok(WorkloadCell::Rate(token.to_owned()))
    }

    /// The canonical text form (the inverse of [`parse`](Self::parse)).
    #[must_use]
    pub fn to_token(&self) -> String {
        match self {
            WorkloadCell::Rate(name) => name.clone(),
            WorkloadCell::Mix(n) => format!("mix{n}"),
            WorkloadCell::PerCore(names) => names.join("+"),
        }
    }

    /// Checks that the cell fits `cores`: a mix or per-core list names
    /// exactly one workload per core, a rate cell fits any count.
    fn check_cores(&self, cores: u32) -> Result<(), String> {
        let named = match self {
            WorkloadCell::Rate(_) => return Ok(()),
            WorkloadCell::Mix(n) => mixes()[n - 1].len(),
            WorkloadCell::PerCore(names) => names.len(),
        };
        if named == cores as usize {
            Ok(())
        } else {
            Err(format!(
                "workload {} names {named} per-core workloads for {cores} cores",
                self.to_token()
            ))
        }
    }

    /// Resolves the cell into one [`WorkloadSpec`] per core.
    ///
    /// # Panics
    ///
    /// Panics on unknown names or a per-core list whose length differs
    /// from `cores` — [`parse`](Self::parse) validates names, and
    /// [`ScenarioSpec::to_sim`] and [`ScenarioGrid::parse`] check the
    /// length first, so this only fires for hand-built cells.
    #[must_use]
    pub fn resolve(&self, cores: u32) -> Vec<WorkloadSpec> {
        let lookup = |name: &str| {
            workload_by_name(name).unwrap_or_else(|| panic!("unknown workload {name:?}"))
        };
        match self {
            WorkloadCell::Rate(name) => vec![lookup(name); cores as usize],
            WorkloadCell::Mix(n) => {
                let mix = mixes()[n - 1];
                assert_eq!(mix.len(), cores as usize, "one workload spec per core");
                mix.to_vec()
            }
            WorkloadCell::PerCore(names) => {
                assert_eq!(names.len(), cores as usize, "one workload spec per core");
                names.iter().map(|n| lookup(n)).collect()
            }
        }
    }
}

/// The frontend half of a [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioFrontend {
    /// Synthetic per-core streams from a [`WorkloadCell`].
    Workload(WorkloadCell),
    /// A plain-text trace file ([`read_trace_file`]), dealt round-robin
    /// across the cores.
    Trace(String),
}

/// One declarative scenario cell: deserializes into a [`Sim`] builder.
///
/// The text form is `key = value` lines (blank lines and `#` comments —
/// whole-line or trailing — ignored, keys in any order, each at most
/// once):
///
/// | key | value | default |
/// |---|---|---|
/// | `scheme` | a [`MitigationScheme::parse`] label | `Baseline` |
/// | `policy` | a [`SchedulePolicy::parse`] label | FR-FCFS |
/// | `mapping` | an [`AddressMapping::parse`] label | `RoBaRaCoCh` |
/// | `seed` | master seed (u64) | 0 |
/// | `cores` | request-generating cores (1 to 1024) | target config's |
/// | `channels` | memory channels (power of two, 1 to 64) | target config's |
/// | `ranks` | ranks per channel (power of two, 1 to 16) | target config's |
/// | `workload` | a [`WorkloadCell`] token | — |
/// | `requests` | LLC misses per core (workload frontend) | 10000 |
/// | `trace` | path to a trace file | — |
/// | `telemetry` | `on`/`off` — collect [`RunReport::telemetry`] | `off` |
///
/// Exactly one of `workload` / `trace` must be present.
///
/// [`SchedulePolicy::parse`]: crate::SchedulePolicy::parse
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scheme under evaluation.
    pub scheme: MitigationScheme,
    /// Channel arbitration policy.
    pub policy: crate::sched::SchedulePolicy,
    /// Physical-address mapping.
    pub mapping: AddressMapping,
    /// Master seed.
    pub seed: u64,
    /// Core-count override (`None` = the target config's cores). Mix and
    /// per-core workload cells still demand one spec per core, so this
    /// mainly scales *rate* cells (`workload = saturate`, 32 cores).
    pub cores: Option<u32>,
    /// Memory-channel override (`None` = the target config's topology).
    pub channels: Option<u32>,
    /// Ranks-per-channel override (`None` = the target config's topology).
    pub ranks: Option<u32>,
    /// Requests per core (workload frontend; traces run dry).
    pub requests_per_core: u32,
    /// Where requests come from.
    pub frontend: ScenarioFrontend,
    /// Collect the observability report ([`Sim::telemetry`]).
    pub telemetry: bool,
}

/// Default requests per core when a spec omits `requests`.
pub const DEFAULT_REQUESTS_PER_CORE: u32 = 10_000;

impl ScenarioSpec {
    /// Parses the single-cell text form (see the type docs for the keys).
    ///
    /// # Errors
    ///
    /// Returns the first malformed line (1-based, counting blank/comment
    /// lines) and why it failed; missing/conflicting frontend keys report
    /// line 0.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioParseError> {
        let pairs = parse_kv(text)?;
        let mut spec = ScenarioSpec {
            scheme: MitigationScheme::Baseline,
            policy: crate::sched::SchedulePolicy::default(),
            mapping: AddressMapping::default(),
            seed: 0,
            cores: None,
            channels: None,
            ranks: None,
            requests_per_core: DEFAULT_REQUESTS_PER_CORE,
            frontend: ScenarioFrontend::Trace(String::new()), // placeholder
            telemetry: false,
        };
        let mut frontend = None;
        for Pair { line, key, value } in pairs {
            let err = |reason: String| ScenarioParseError { line, reason };
            match key.as_str() {
                "scheme" => {
                    spec.scheme = MitigationScheme::parse(&value)
                        .ok_or_else(|| err(format!("unknown scheme {value:?}")))?;
                }
                "policy" => {
                    spec.policy = crate::sched::SchedulePolicy::parse(&value)
                        .ok_or_else(|| err(format!("unknown policy {value:?}")))?;
                }
                "mapping" => {
                    spec.mapping = AddressMapping::parse(&value)
                        .ok_or_else(|| err(format!("unknown mapping {value:?}")))?;
                }
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|e| err(format!("bad seed {value:?}: {e}")))?;
                }
                "requests" => {
                    spec.requests_per_core = parse_requests(&value).map_err(&err)?;
                }
                "cores" => {
                    spec.cores = Some(parse_cores(&value).map_err(&err)?);
                }
                "channels" => {
                    spec.channels =
                        Some(parse_topology("channels", MAX_CHANNELS, &value).map_err(&err)?);
                }
                "ranks" => {
                    spec.ranks = Some(parse_topology("ranks", MAX_RANKS, &value).map_err(&err)?);
                }
                "workload" => {
                    set_frontend(
                        &mut frontend,
                        ScenarioFrontend::Workload(WorkloadCell::parse(&value).map_err(&err)?),
                        line,
                    )?;
                }
                "trace" => {
                    set_frontend(&mut frontend, ScenarioFrontend::Trace(value), line)?;
                }
                "telemetry" => {
                    spec.telemetry = parse_switch("telemetry", &value).map_err(&err)?;
                }
                other => return Err(err(format!("unknown key {other:?}"))),
            }
        }
        spec.frontend = frontend.ok_or(ScenarioParseError {
            line: 0,
            reason: "missing frontend: need `workload = …` or `trace = …`".to_owned(),
        })?;
        Ok(spec)
    }

    /// Renders the canonical text form; `parse(to_text(s)) == s` for any
    /// valid spec (pinned by test).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scheme = {}\n", self.scheme.label()));
        out.push_str(&format!("policy = {}\n", self.policy.label()));
        out.push_str(&format!("mapping = {}\n", self.mapping.label()));
        out.push_str(&format!("seed = {}\n", self.seed));
        if let Some(cores) = self.cores {
            out.push_str(&format!("cores = {cores}\n"));
        }
        if let Some(channels) = self.channels {
            out.push_str(&format!("channels = {channels}\n"));
        }
        if let Some(ranks) = self.ranks {
            out.push_str(&format!("ranks = {ranks}\n"));
        }
        if self.telemetry {
            out.push_str("telemetry = on\n");
        }
        match &self.frontend {
            ScenarioFrontend::Workload(cell) => {
                out.push_str(&format!("workload = {}\n", cell.to_token()));
                out.push_str(&format!("requests = {}\n", self.requests_per_core));
            }
            ScenarioFrontend::Trace(path) => {
                out.push_str(&format!("trace = {path}\n"));
                out.push_str(&format!("requests = {}\n", self.requests_per_core));
            }
        }
        out
    }

    /// Deserializes the spec into a ready-to-run [`Sim`] on `cfg` (with
    /// the spec's `channels`/`ranks` overrides applied, when present).
    ///
    /// # Errors
    ///
    /// Returns an error for a mix or per-core workload cell that does not
    /// name one workload per core, and I/O and parse errors for a trace
    /// frontend whose file is unreadable or malformed.
    pub fn to_sim(&self, cfg: SystemConfig) -> Result<Sim<'static>, Box<dyn std::error::Error>> {
        let mut cfg = cfg;
        if let Some(cores) = self.cores {
            cfg.cores = cores;
        }
        if let Some(channels) = self.channels {
            cfg.channels = channels;
        }
        if let Some(ranks) = self.ranks {
            cfg.ranks = ranks;
        }
        let mut sim = Sim::new(cfg)
            .scheme(self.scheme)
            .policy(self.policy)
            .mapping(self.mapping)
            .seed(self.seed);
        if self.telemetry {
            sim = sim.telemetry();
        }
        Ok(match &self.frontend {
            ScenarioFrontend::Workload(cell) => {
                cell.check_cores(cfg.cores)?;
                sim.workload(&cell.resolve(cfg.cores), self.requests_per_core)
            }
            ScenarioFrontend::Trace(path) => sim.trace(&read_trace_file(path)?),
        })
    }

    /// Builds and runs the scenario on the evaluated Table VI system.
    ///
    /// # Errors
    ///
    /// Propagates [`to_sim`](Self::to_sim) errors.
    pub fn run(&self) -> Result<RunReport, Box<dyn std::error::Error>> {
        Ok(self.to_sim(SystemConfig::table6())?.run())
    }
}

/// A declarative scheme × workload grid.
///
/// Every `(workload, scheme)` cell is an independent seeded [`Sim`] run
/// (workload `w` always runs with `seeds[w]`, so every scheme faces
/// identical traffic); each workload row is normalized against the
/// **first** scheme. Cells fan out via [`mint_exp::par_map`], so results
/// are bit-identical for any worker count — and cell-for-cell identical
/// to running each builder by hand.
///
/// The text form shares the [`ScenarioSpec`] conventions with plural
/// axes: `schemes = <label>…` (or `zoo`), `workloads = <cell>…`,
/// `requests = N`, `cores = N` / `channels = N` / `ranks = R` topology
/// overrides (cores nonzero, the rest nonzero powers of two), and either
/// `seed_base = N` (workload `w`
/// seeds at `seed_base + w`) or an explicit `seeds = <u64>…` list.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// The system under test.
    pub cfg: SystemConfig,
    /// Scheme axis; the first scheme is the normalization baseline.
    pub schemes: Vec<MitigationScheme>,
    /// Channel arbitration policy (shared by every cell).
    pub policy: crate::sched::SchedulePolicy,
    /// Physical-address mapping (shared by every cell).
    pub mapping: AddressMapping,
    /// Workload axis: one spec per core, per workload.
    pub workloads: Vec<Vec<WorkloadSpec>>,
    /// Display labels, parallel to `workloads`.
    pub workload_labels: Vec<String>,
    /// LLC misses per core per cell.
    pub requests_per_core: u32,
    /// The per-workload seed axis (shared across the scheme axis).
    pub seeds: SeedAxis,
    /// Collect per-cell observability reports
    /// ([`run_reports`](Self::run_reports)).
    pub telemetry: bool,
}

/// The per-workload seed axis of a [`ScenarioGrid`]: an explicit list,
/// or a base resolved against the workload axis at run time (so the
/// builder chain is order-insensitive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedAxis {
    /// One explicit seed per workload.
    Explicit(Vec<u64>),
    /// Workload `w` runs with `base + w`, wrapping (the bench-suite convention).
    Base(u64),
}

impl ScenarioGrid {
    /// An empty grid on `cfg` with the production defaults; chain the
    /// axis setters to populate it.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        Self {
            cfg,
            schemes: Vec::new(),
            policy: crate::sched::SchedulePolicy::default(),
            mapping: AddressMapping::default(),
            workloads: Vec::new(),
            workload_labels: Vec::new(),
            requests_per_core: DEFAULT_REQUESTS_PER_CORE,
            seeds: SeedAxis::Base(0),
            telemetry: false,
        }
    }

    /// Sets the scheme axis (first scheme = normalization baseline).
    #[must_use]
    pub fn schemes(mut self, schemes: &[MitigationScheme]) -> Self {
        self.schemes = schemes.to_vec();
        self
    }

    /// Sets the channel arbitration policy for every cell.
    #[must_use]
    pub fn policy(mut self, policy: crate::sched::SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the physical-address mapping for every cell.
    #[must_use]
    pub fn mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the workload axis; labels derive from the spec names
    /// (`lbm`, or `a+b+c+d` for heterogeneous cells).
    #[must_use]
    pub fn workloads<W: AsRef<[WorkloadSpec]>>(mut self, workloads: &[W]) -> Self {
        self.workloads = workloads.iter().map(|w| w.as_ref().to_vec()).collect();
        self.workload_labels = self.workloads.iter().map(|w| cell_label(w)).collect();
        self
    }

    /// Sets the per-core request budget of every cell.
    #[must_use]
    pub fn requests_per_core(mut self, requests: u32) -> Self {
        self.requests_per_core = requests;
        self
    }

    /// Sets explicit per-workload seeds.
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = SeedAxis::Explicit(seeds.to_vec());
        self
    }

    /// Seeds workload `w` at `base + w` (the bench-suite convention);
    /// resolved against the workload axis at run time, so it chains
    /// before or after [`workloads`](Self::workloads).
    #[must_use]
    pub fn seed_base(mut self, base: u64) -> Self {
        self.seeds = SeedAxis::Base(base);
        self
    }

    /// Collects per-cell observability reports when running through
    /// [`run_reports`](Self::run_reports).
    #[must_use]
    pub fn telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Parses the grid text form (see the type docs) onto the evaluated
    /// Table VI system.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line and why it failed; missing
    /// required keys (`schemes`, `workloads`), workload cells that do not
    /// fit the core count and a `seeds` list of the wrong length report
    /// line 0.
    pub fn parse(text: &str) -> Result<ScenarioGrid, ScenarioParseError> {
        let pairs = parse_kv(text)?;
        let mut grid = ScenarioGrid::new(SystemConfig::table6());
        let mut had_seed_base = false;
        let mut had_seeds = false;
        let mut cells: Vec<WorkloadCell> = Vec::new();
        for Pair { line, key, value } in pairs {
            let err = |reason: String| ScenarioParseError { line, reason };
            match key.as_str() {
                "schemes" => {
                    if value.eq_ignore_ascii_case("zoo") {
                        grid.schemes = MitigationScheme::zoo();
                    } else {
                        grid.schemes = value
                            .split_whitespace()
                            .map(|s| {
                                MitigationScheme::parse(s)
                                    .ok_or_else(|| err(format!("unknown scheme {s:?}")))
                            })
                            .collect::<Result<_, _>>()?;
                    }
                }
                "workloads" => {
                    cells = value
                        .split_whitespace()
                        .map(|t| WorkloadCell::parse(t).map_err(&err))
                        .collect::<Result<_, _>>()?;
                }
                "policy" => {
                    grid.policy = crate::sched::SchedulePolicy::parse(&value)
                        .ok_or_else(|| err(format!("unknown policy {value:?}")))?;
                }
                "mapping" => {
                    grid.mapping = AddressMapping::parse(&value)
                        .ok_or_else(|| err(format!("unknown mapping {value:?}")))?;
                }
                "requests" => {
                    grid.requests_per_core = parse_requests(&value).map_err(&err)?;
                }
                "cores" => {
                    grid.cfg.cores = parse_cores(&value).map_err(&err)?;
                }
                "channels" => {
                    grid.cfg.channels =
                        parse_topology("channels", MAX_CHANNELS, &value).map_err(&err)?;
                }
                "ranks" => {
                    grid.cfg.ranks = parse_topology("ranks", MAX_RANKS, &value).map_err(&err)?;
                }
                "seed_base" => {
                    had_seed_base = true;
                    grid.seeds = SeedAxis::Base(
                        value
                            .parse()
                            .map_err(|e| err(format!("bad seed_base {value:?}: {e}")))?,
                    );
                }
                "telemetry" => {
                    grid.telemetry = parse_switch("telemetry", &value).map_err(&err)?;
                }
                "seeds" => {
                    had_seeds = true;
                    grid.seeds = SeedAxis::Explicit(
                        value
                            .split_whitespace()
                            .map(|s| s.parse().map_err(|e| err(format!("bad seed {s:?}: {e}"))))
                            .collect::<Result<_, _>>()?,
                    );
                }
                other => return Err(err(format!("unknown key {other:?}"))),
            }
        }
        let file_err = |reason: &str| ScenarioParseError {
            line: 0,
            reason: reason.to_owned(),
        };
        if grid.schemes.is_empty() {
            return Err(file_err("missing `schemes = …`"));
        }
        if cells.is_empty() {
            return Err(file_err("missing `workloads = …`"));
        }
        if had_seeds && had_seed_base {
            return Err(file_err("give either `seed_base` or `seeds`, not both"));
        }
        for cell in &cells {
            cell.check_cores(grid.cfg.cores).map_err(|e| file_err(&e))?;
        }
        if let SeedAxis::Explicit(seeds) = &grid.seeds {
            if seeds.len() != cells.len() {
                return Err(file_err(&format!(
                    "`seeds` lists {} seeds for {} workloads; give one per workload",
                    seeds.len(),
                    cells.len()
                )));
            }
        }
        grid.workload_labels = cells.iter().map(WorkloadCell::to_token).collect();
        grid.workloads = cells.iter().map(|c| c.resolve(grid.cfg.cores)).collect();
        Ok(grid)
    }

    /// Runs every `(workload, scheme)` cell and returns, per workload,
    /// the per-scheme results normalized against the first scheme.
    /// Telemetry stays off whatever the grid's flag says.
    ///
    /// # Panics
    ///
    /// Panics if `schemes` is empty or an explicit seed axis has
    /// `workloads.len() != seeds.len()` (the per-cell panics of
    /// [`Sim::build`] also apply).
    #[must_use]
    pub fn run(&self) -> Vec<Vec<NormalizedPerf>> {
        self.run_polled(u64::MAX, &|_| true)
            .expect("a check that always answers true never stops a grid")
    }

    /// [`run`](Self::run) with every cell polled through
    /// [`Session::run_polled`](crate::Session::run_polled): each cell asks
    /// `go_on` before its first decision and after every `every` requests
    /// it services. The cells running in parallel share the check. Once it
    /// answers `false` in any cell, the grid stops and returns `None`:
    /// running cells halt at their next poll and the cells left do not
    /// start, none of them asking `go_on` again.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`run`](Self::run), and if
    /// `every` is 0.
    #[must_use]
    pub fn run_polled(
        &self,
        every: u64,
        go_on: &(dyn Fn(u64) -> bool + Sync),
    ) -> Option<Vec<Vec<NormalizedPerf>>> {
        let rows = self.run_cells(false, every, go_on)?;
        Some(
            rows.into_iter()
                .map(|row| {
                    let base = row[0].perf;
                    row.iter().map(|cell| cell.perf.normalize(&base)).collect()
                })
                .collect(),
        )
    }

    /// Runs every `(workload, scheme)` cell like [`run`](Self::run) but
    /// returns the full per-cell [`RunReport`]s (telemetry attached when
    /// the grid's `telemetry` flag is set), indexed `[workload][scheme]`.
    /// Cells fan out through the same deterministic
    /// [`mint_exp::par_map`], so reports are bit-identical for any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`run`](Self::run).
    #[must_use]
    pub fn run_reports(&self) -> Vec<Vec<RunReport>> {
        self.run_cells(self.telemetry, u64::MAX, &|_| true)
            .expect("a check that always answers true never stops a grid")
    }

    /// The one grid runner: resolves the seed axis and fans every
    /// `(workload, scheme)` cell through [`mint_exp::par_map`], each
    /// polled as [`run_polled`](Self::run_polled) describes, returning the
    /// reports indexed `[workload][scheme]`, or `None` once a check
    /// stopped the grid.
    fn run_cells(
        &self,
        telemetry: bool,
        every: u64,
        go_on: &(dyn Fn(u64) -> bool + Sync),
    ) -> Option<Vec<Vec<RunReport>>> {
        assert!(!self.schemes.is_empty(), "need at least one scheme");
        let seeds: Vec<u64> = match &self.seeds {
            SeedAxis::Explicit(seeds) => {
                assert_eq!(self.workloads.len(), seeds.len(), "one seed per workload");
                seeds.clone()
            }
            // Wrapping, so a base near `u64::MAX` goes on from 0 in debug
            // and release builds alike instead of panicking in debug.
            SeedAxis::Base(base) => (0..self.workloads.len() as u64)
                .map(|i| base.wrapping_add(i))
                .collect(),
        };
        let cells: Vec<(usize, usize)> = (0..self.workloads.len())
            .flat_map(|w| (0..self.schemes.len()).map(move |s| (w, s)))
            .collect();
        let halted = AtomicBool::new(false);
        let flat = mint_exp::par_map(&cells, |_, &(w, s)| {
            if halted.load(Ordering::Relaxed) {
                return None;
            }
            let mut sim = Sim::new(self.cfg)
                .scheme(self.schemes[s])
                .policy(self.policy)
                .mapping(self.mapping)
                .workload(&self.workloads[w], self.requests_per_core)
                .seed(seeds[w]);
            if telemetry {
                sim = sim.telemetry();
            }
            let report = sim
                .build()
                .run_polled(every, &mut |k| !halted.load(Ordering::Relaxed) && go_on(k));
            if report.is_none() {
                halted.store(true, Ordering::Relaxed);
            }
            report
        });
        let mut flat = flat
            .into_iter()
            .collect::<Option<Vec<RunReport>>>()?
            .into_iter();
        Some(
            (0..self.workloads.len())
                .map(|_| flat.by_ref().take(self.schemes.len()).collect())
                .collect(),
        )
    }
}

/// A parsed scenario file: one cell or a grid (see [`parse_any`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// A single [`ScenarioSpec`] cell.
    Cell(ScenarioSpec),
    /// A scheme × workload [`ScenarioGrid`].
    Grid(ScenarioGrid),
}

/// Classifies and parses a scenario file: the plural axes (`schemes` /
/// `workloads`) make it a grid, otherwise it is a single cell.
///
/// # Errors
///
/// Propagates the respective parser's line-numbered error.
pub fn parse_any(text: &str) -> Result<Scenario, ScenarioParseError> {
    let is_grid = parse_kv(text)?
        .iter()
        .any(|p| p.key == "schemes" || p.key == "workloads");
    if is_grid {
        ScenarioGrid::parse(text).map(Scenario::Grid)
    } else {
        ScenarioSpec::parse(text).map(Scenario::Cell)
    }
}

/// Display label for a resolved workload cell: the shared name for a
/// rate run, `a+b+c+d` for heterogeneous cells.
fn cell_label(specs: &[WorkloadSpec]) -> String {
    match specs {
        [] => String::new(),
        [first, rest @ ..] if rest.iter().all(|w| w.name == first.name) => first.name.to_owned(),
        _ => specs.iter().map(|w| w.name).collect::<Vec<_>>().join("+"),
    }
}

/// Parses a `requests` value: a positive integer — a zero budget would
/// otherwise surface as a builder panic deep inside [`Sim::build`]
/// instead of a line-numbered parse error.
fn parse_requests(value: &str) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(0) => Err(format!("bad requests {value:?}: need at least 1 per core")),
        Ok(r) => Ok(r),
        Err(e) => Err(format!("bad requests {value:?}: {e}")),
    }
}

/// Largest `cores` a scenario may ask for. With [`MAX_CHANNELS`] and
/// [`MAX_RANKS`] it bounds what one spec can make the process allocate
/// (per-core rings, per-channel banks and queues), far above any
/// evaluated system (32 cores on 4 channels × 2 ranks).
const MAX_CORES: u32 = 1024;
/// Largest `channels` a scenario may ask for.
const MAX_CHANNELS: u32 = 64;
/// Largest `ranks` (per channel) a scenario may ask for.
const MAX_RANKS: u32 = 16;

/// Parses a `cores` value: a count in `1..=MAX_CORES` — cores are request
/// generators, not address bits, so unlike `channels`/`ranks` they need
/// not be a power of two (mixes still demand exactly one spec per core,
/// checked when the workload cell resolves).
fn parse_cores(value: &str) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(0) => Err("bad cores 0: need at least one core".to_owned()),
        Ok(n) if n > MAX_CORES => Err(format!("bad cores {n}: at most {MAX_CORES}")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("bad cores {value:?}: {e}")),
    }
}

/// Parses an on/off switch value (`telemetry`).
fn parse_switch(key: &str, value: &str) -> Result<bool, String> {
    match value.to_ascii_lowercase().as_str() {
        "on" | "true" | "1" => Ok(true),
        "off" | "false" | "0" => Ok(false),
        _ => Err(format!("bad {key} {value:?}: expected on or off")),
    }
}

/// Parses a topology axis (`channels` / `ranks`): a nonzero power of two,
/// because the decoder slices the physical address with bit masks — any
/// other count would silently alias banks instead of failing here with a
/// line number — and at most `max`.
fn parse_topology(key: &str, max: u32, value: &str) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(n) if n > max => Err(format!("bad {key} {n}: at most {max}")),
        Ok(n) if n.is_power_of_two() => Ok(n),
        Ok(n) => Err(format!("bad {key} {n}: need a nonzero power of two")),
        Err(e) => Err(format!("bad {key} {value:?}: {e}")),
    }
}

/// One `key = value` line.
struct Pair {
    line: usize,
    key: String,
    value: String,
}

/// Splits the text into `key = value` pairs, ignoring blank lines and
/// `#` comments (whole-line or trailing), rejecting duplicate keys.
fn parse_kv(text: &str) -> Result<Vec<Pair>, ScenarioParseError> {
    let mut out: Vec<Pair> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |reason: String| ScenarioParseError {
            line: i + 1,
            reason,
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!("expected `key = value`, got {line:?}")));
        };
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if value.is_empty() {
            return Err(err(format!("empty value for key {key:?}")));
        }
        if out.iter().any(|p| p.key == key) {
            return Err(err(format!("duplicate key {key:?}")));
        }
        out.push(Pair {
            line: i + 1,
            key,
            value,
        });
    }
    Ok(out)
}

/// Records a frontend key, rejecting a second one.
fn set_frontend(
    slot: &mut Option<ScenarioFrontend>,
    frontend: ScenarioFrontend,
    line: usize,
) -> Result<(), ScenarioParseError> {
    if slot.is_some() {
        return Err(ScenarioParseError {
            line,
            reason: "conflicting frontends: give either `workload` or `trace`, once".to_owned(),
        });
    }
    *slot = Some(frontend);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulePolicy;

    #[test]
    fn cell_spec_parses_with_defaults() {
        let spec = ScenarioSpec::parse("workload = lbm\n").unwrap();
        assert_eq!(spec.scheme, MitigationScheme::Baseline);
        assert_eq!(spec.policy, SchedulePolicy::frfcfs());
        assert_eq!(spec.mapping, AddressMapping::RoBaRaCoCh);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.cores, None);
        assert_eq!(spec.channels, None);
        assert_eq!(spec.ranks, None);
        assert_eq!(spec.requests_per_core, DEFAULT_REQUESTS_PER_CORE);
        assert_eq!(
            spec.frontend,
            ScenarioFrontend::Workload(WorkloadCell::Rate("lbm".into()))
        );
    }

    #[test]
    fn cell_spec_round_trips_through_text() {
        for spec in [
            ScenarioSpec {
                scheme: MitigationScheme::MintRfm { rfm_th: 16 },
                policy: SchedulePolicy::Fcfs,
                mapping: AddressMapping::RoCoRaBaCh,
                seed: 99,
                cores: None,
                channels: Some(4),
                ranks: Some(2),
                requests_per_core: 1234,
                frontend: ScenarioFrontend::Workload(WorkloadCell::Mix(3)),
                telemetry: true,
            },
            ScenarioSpec {
                scheme: MitigationScheme::McPara { p: 1.0 / 40.0 },
                policy: SchedulePolicy::FrFcfs { starvation_cap: 7 },
                mapping: AddressMapping::ChRaBaRoCo,
                seed: 0,
                cores: Some(32),
                channels: Some(2),
                ranks: None,
                requests_per_core: 1,
                frontend: ScenarioFrontend::Workload(WorkloadCell::PerCore(vec![
                    "lbm".into(),
                    "mcf".into(),
                    "gcc".into(),
                    "povray".into(),
                ])),
                telemetry: false,
            },
            ScenarioSpec {
                scheme: MitigationScheme::Mint,
                policy: SchedulePolicy::default(),
                mapping: AddressMapping::default(),
                seed: 7,
                cores: None,
                channels: None,
                ranks: None,
                requests_per_core: DEFAULT_REQUESTS_PER_CORE,
                frontend: ScenarioFrontend::Trace("examples/traces/sample100.trace".into()),
                telemetry: false,
            },
        ] {
            let round = ScenarioSpec::parse(&spec.to_text()).unwrap();
            assert_eq!(round, spec, "text form:\n{}", spec.to_text());
        }
    }

    /// Satellite of the serve PR: one exhaustive property test covering
    /// every `ScenarioSpec` key — `scheme`, `policy`, `mapping`, `seed`,
    /// `cores`, `channels`, `ranks`, all three `workload` cell shapes
    /// plus `trace`, and `requests` — through `to_text` → `parse`.
    #[test]
    fn every_spec_key_round_trips_through_text() {
        use crate::workload::{mixes, spec_rate_workloads};
        use mint_exp::prop::{forall, u32_in, u64_in, usize_in};

        let schemes = MitigationScheme::zoo();
        let mappings = AddressMapping::all();
        let mut names: Vec<&'static str> = spec_rate_workloads().iter().map(|w| w.name).collect();
        names.push("saturate");
        let mix_count = mixes().len();

        forall(64, 0x5CE_4A210, |case, rng| {
            let pick_name = |rng: &mut _| names[usize_in(rng, 0, names.len())].to_owned();
            let policy = match usize_in(rng, 0, 3) {
                0 => SchedulePolicy::Fcfs,
                1 => SchedulePolicy::frfcfs(),
                _ => SchedulePolicy::FrFcfs {
                    starvation_cap: u32_in(rng, 0, 64),
                },
            };
            let frontend = match usize_in(rng, 0, 4) {
                0 => ScenarioFrontend::Workload(WorkloadCell::Rate(pick_name(rng))),
                1 => ScenarioFrontend::Workload(WorkloadCell::Mix(usize_in(rng, 1, mix_count + 1))),
                2 => {
                    // A 1-element list has no `+` and canonically
                    // re-parses as a rate cell; per-core means >= 2.
                    let n = usize_in(rng, 2, 6);
                    ScenarioFrontend::Workload(WorkloadCell::PerCore(
                        (0..n).map(|_| pick_name(rng)).collect(),
                    ))
                }
                _ => ScenarioFrontend::Trace(format!("traces/case{case}.trace")),
            };
            let pow2 = |rng: &mut _| 1u32 << usize_in(rng, 0, 4);
            let spec = ScenarioSpec {
                scheme: schemes[usize_in(rng, 0, schemes.len())],
                policy,
                mapping: mappings[usize_in(rng, 0, mappings.len())],
                seed: u64_in(rng, 0, u64::MAX),
                cores: (usize_in(rng, 0, 2) == 1).then(|| u32_in(rng, 1, 64)),
                channels: (usize_in(rng, 0, 2) == 1).then(|| pow2(rng)),
                ranks: (usize_in(rng, 0, 2) == 1).then(|| pow2(rng)),
                requests_per_core: u32_in(rng, 1, 1_000_000),
                frontend,
                telemetry: usize_in(rng, 0, 2) == 1,
            };
            let text = spec.to_text();
            let round =
                ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(round, spec, "case {case}:\n{text}");
        });
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("workload = lbm\nbogus line\n", 2, "expected `key = value`"),
            ("scheme = nope\nworkload = lbm\n", 1, "unknown scheme"),
            ("workload = lbm\npolicy = lifo\n", 2, "unknown policy"),
            ("mapping = RowMajor\nworkload = lbm\n", 1, "unknown mapping"),
            ("workload = lbm\nseed = -3\n", 2, "bad seed"),
            ("workload = lbm\nrequests = many\n", 2, "bad requests"),
            ("workload = lbm\nrequests = 0\n", 2, "at least 1 per core"),
            ("workload = lbm\ncores = 0\n", 2, "at least one core"),
            ("workload = lbm\ncores = x\n", 2, "bad cores"),
            ("workload = lbm\nchannels = 3\n", 2, "nonzero power of two"),
            ("workload = lbm\nchannels = x\n", 2, "bad channels"),
            ("workload = lbm\nranks = 0\n", 2, "nonzero power of two"),
            ("workload = lbm\nranks = -1\n", 2, "bad ranks"),
            ("workload = lbm\ncores = 1025\n", 2, "at most 1024"),
            ("workload = lbm\ncores = 4294967295\n", 2, "at most 1024"),
            ("workload = lbm\nchannels = 128\n", 2, "at most 64"),
            ("workload = lbm\nchannels = 2147483648\n", 2, "at most 64"),
            ("workload = lbm\nranks = 32\n", 2, "at most 16"),
            ("workload = lbm\nranks = 1073741824\n", 2, "at most 16"),
            (
                "workload = lbm\nscheme = MINT+RFM4294967295\n",
                2,
                "unknown scheme",
            ),
            ("workload = nosuch\n", 1, "unknown workload"),
            ("workload = mix99\n", 1, "out of range"),
            ("workload = lbm\nworkload = mcf\n", 2, "duplicate key"),
            ("workload = lbm\ntrace = foo\n", 2, "conflicting frontends"),
            ("workload = lbm\nvolume = 11\n", 2, "unknown key"),
            ("workload =\n", 1, "empty value"),
            // Comment and blank lines still count towards line numbers.
            (
                "# header\n\nworkload = lbm # fine\nseed = x # boom\n",
                4,
                "bad seed",
            ),
        ] {
            let e = ScenarioSpec::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.reason.contains(needle), "{text:?} → {}", e.reason);
            assert!(e.to_string().contains("scenario line"));
        }
        let e = ScenarioSpec::parse("seed = 4\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.reason.contains("missing frontend"));
        assert!(e.to_string().starts_with("scenario:"));
    }

    #[test]
    fn grid_parses_axes_and_seeds() {
        let grid = ScenarioGrid::parse(
            "# tiny zoo\n\
             schemes = Baseline MINT mint+rfm16\n\
             workloads = lbm mix2 lbm+mcf+gcc+povray\n\
             requests = 777\n\
             seed_base = 40\n\
             policy = fcfs\n\
             mapping = RoCoRaBaCh\n",
        )
        .unwrap();
        assert_eq!(grid.schemes.len(), 3);
        assert_eq!(grid.schemes[2], MitigationScheme::MintRfm { rfm_th: 16 });
        assert_eq!(grid.workloads.len(), 3);
        assert_eq!(
            grid.workload_labels,
            vec!["lbm", "mix2", "lbm+mcf+gcc+povray"]
        );
        assert_eq!(grid.workloads[0].len(), 4);
        assert_eq!(grid.seeds, SeedAxis::Base(40));
        assert_eq!(grid.requests_per_core, 777);
        assert_eq!(grid.policy, SchedulePolicy::Fcfs);
        assert_eq!(grid.mapping, AddressMapping::RoCoRaBaCh);

        let zoo = ScenarioGrid::parse("schemes = zoo\nworkloads = mcf\n").unwrap();
        assert_eq!(zoo.schemes, MitigationScheme::zoo());
        assert_eq!(zoo.seeds, SeedAxis::Base(0));
    }

    #[test]
    fn topology_keys_set_the_grid_config_and_reject_bad_counts() {
        let grid = ScenarioGrid::parse(
            "schemes = zoo\nworkloads = mcf\ncores = 8\nchannels = 2\nranks = 4\n",
        )
        .unwrap();
        assert_eq!(grid.cfg.cores, 8);
        assert_eq!(grid.cfg.channels, 2);
        assert_eq!(grid.cfg.ranks, 4);
        assert_eq!(
            grid.workloads[0].len(),
            8,
            "rate cells resolve against the overridden core count \
             regardless of key order"
        );
        let dflt = ScenarioGrid::parse("schemes = zoo\nworkloads = mcf\n").unwrap();
        assert_eq!(
            (dflt.cfg.channels, dflt.cfg.ranks),
            (1, 1),
            "topology defaults to the Table VI single-channel DIMM"
        );
        let e = ScenarioGrid::parse("schemes = zoo\nworkloads = mcf\nchannels = 6\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.reason.contains("nonzero power of two"), "{}", e.reason);
        // The caps admit the largest system and refuse beyond it, with
        // the cell parsers' line-numbered errors.
        let max = ScenarioGrid::parse(
            "schemes = mint\nworkloads = mcf\ncores = 1024\nchannels = 64\nranks = 16\n",
        )
        .unwrap();
        assert_eq!(
            (max.cfg.cores, max.cfg.channels, max.cfg.ranks),
            (1024, 64, 16)
        );
        for (text, line, needle) in [
            (
                "schemes = mint\nworkloads = mcf\ncores = 4294967295\n",
                3,
                "at most 1024",
            ),
            (
                "schemes = mint\nworkloads = mcf\nchannels = 2147483648\n",
                3,
                "at most 64",
            ),
            (
                "workloads = mcf\nranks = 1073741824\nschemes = mint\n",
                2,
                "at most 16",
            ),
            (
                "schemes = mint MINT+RFM4294967295\nworkloads = mcf\n",
                1,
                "unknown scheme",
            ),
        ] {
            let e = ScenarioGrid::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.reason.contains(needle), "{text:?} → {}", e.reason);
        }
    }

    #[test]
    fn cell_topology_overrides_apply_to_the_sim_config() {
        let spec = ScenarioSpec::parse("workload = lbm\nchannels = 2\nranks = 2\nrequests = 10\n")
            .unwrap();
        assert_eq!((spec.channels, spec.ranks), (Some(2), Some(2)));
        let report = spec.run().unwrap();
        assert_eq!(
            report.perf.result.requests,
            4 * 10,
            "the overridden sim runs"
        );
    }

    #[test]
    fn cores_override_scales_a_rate_cell() {
        let spec = ScenarioSpec::parse("workload = saturate\ncores = 32\nrequests = 5\n").unwrap();
        assert_eq!(spec.cores, Some(32));
        let report = spec.run().unwrap();
        assert_eq!(report.cores.len(), 32, "one outcome per overridden core");
        assert_eq!(report.perf.result.requests, 32 * 5);
    }

    #[test]
    fn grid_rejects_missing_axes_and_seed_conflicts() {
        assert!(ScenarioGrid::parse("workloads = lbm\n")
            .unwrap_err()
            .reason
            .contains("missing `schemes"));
        assert!(ScenarioGrid::parse("schemes = zoo\n")
            .unwrap_err()
            .reason
            .contains("missing `workloads"));
        assert!(
            ScenarioGrid::parse("schemes = zoo\nworkloads = lbm\nseed_base = 1\nseeds = 2\n")
                .unwrap_err()
                .reason
                .contains("not both")
        );
    }

    #[test]
    fn core_count_mismatches_are_errors_not_panics() {
        // A cell whose per-core list or mix does not match the effective
        // core count fails in to_sim instead of tripping resolve.
        for text in [
            "workload = mcf+lbm\nrequests = 200\n",
            "workload = mix1\ncores = 32\n",
            "workload = lbm+lbm+lbm+lbm\ncores = 2\n",
        ] {
            let spec = ScenarioSpec::parse(text).unwrap();
            let err = spec.to_sim(SystemConfig::table6()).err().expect(text);
            assert!(err.to_string().contains("per-core workloads"), "{err}");
        }
        assert!(ScenarioSpec::parse("workload = mix1\n")
            .unwrap()
            .to_sim(SystemConfig::table6())
            .is_ok());
        // A grid reports both mismatches as line-0 errors.
        let e = ScenarioGrid::parse("schemes = mint\nworkloads = lbm mcf+lbm\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.reason.contains("mcf+lbm names 2"), "{}", e.reason);
        let e =
            ScenarioGrid::parse("schemes = mint\nworkloads = mcf lbm\nseeds = 1\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.reason.contains("1 seeds for 2 workloads"), "{}", e.reason);
    }

    #[test]
    fn parse_any_classifies_cell_vs_grid() {
        match parse_any("workload = lbm\n").unwrap() {
            Scenario::Cell(c) => assert_eq!(c.requests_per_core, DEFAULT_REQUESTS_PER_CORE),
            Scenario::Grid(_) => panic!("single cell misclassified"),
        }
        match parse_any("schemes = zoo\nworkloads = lbm\n").unwrap() {
            Scenario::Grid(g) => assert_eq!(g.schemes.len(), MitigationScheme::zoo().len()),
            Scenario::Cell(_) => panic!("grid misclassified"),
        }
    }

    #[test]
    fn grid_run_matches_hand_built_sims() {
        let grid = ScenarioGrid::parse(
            "schemes = Baseline MINT\nworkloads = mcf\nrequests = 1000\nseed_base = 9\n",
        )
        .unwrap();
        let rows = grid.run();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 2);
        assert!(
            (rows[0][0].normalized - 1.0).abs() < 1e-12,
            "baseline is 1.0"
        );
        let direct = Sim::ddr5()
            .scheme(MitigationScheme::Mint)
            .workload(&grid.workloads[0], 1000)
            .seed(9)
            .run();
        assert_eq!(rows[0][1].duration_ps, direct.perf.duration_ps);
        assert_eq!(rows[0][1].result, direct.perf.result);
    }

    #[test]
    fn grid_seed_base_chains_in_any_order() {
        // seed_base resolves against the workload axis at run time, so
        // calling it before .workloads() must seed identically.
        let schemes = [MitigationScheme::Baseline, MitigationScheme::Mint];
        let cells = [[workload_by_name("mcf").unwrap(); 4]];
        let before = ScenarioGrid::new(SystemConfig::table6())
            .seed_base(9000)
            .schemes(&schemes)
            .workloads(&cells)
            .requests_per_core(800)
            .run();
        let after = ScenarioGrid::new(SystemConfig::table6())
            .schemes(&schemes)
            .workloads(&cells)
            .requests_per_core(800)
            .seed_base(9000)
            .run();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "one seed per workload")]
    fn grid_seed_mismatch_rejected() {
        let mut grid = ScenarioGrid::parse("schemes = zoo\nworkloads = lbm\n").unwrap();
        grid.seeds = SeedAxis::Explicit(vec![1, 2]);
        let _ = grid.run();
    }

    #[test]
    fn scheme_policy_mapping_labels_round_trip() {
        for scheme in MitigationScheme::zoo() {
            assert_eq!(
                MitigationScheme::parse(&scheme.label()),
                Some(scheme),
                "{}",
                scheme.label()
            );
        }
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::frfcfs(),
            SchedulePolicy::FrFcfs { starvation_cap: 9 },
        ] {
            assert_eq!(SchedulePolicy::parse(&policy.label()), Some(policy));
        }
        for mapping in AddressMapping::all() {
            assert_eq!(AddressMapping::parse(mapping.label()), Some(mapping));
        }
        assert_eq!(MitigationScheme::parse("bogus"), None);
        // MINT's selection span is `rfm_th + 1`: thresholds run 1..u32::MAX.
        for (label, rfm_th) in [
            ("MINT+RFM0", None),
            ("MINT+RFM1", Some(1)),
            ("MINT+RFM4294967294", Some(u32::MAX - 1)),
            ("MINT+RFM4294967295", None),
            ("MINT+RFM4294967296", None),
        ] {
            let want = rfm_th.map(|rfm_th| MitigationScheme::MintRfm { rfm_th });
            assert_eq!(MitigationScheme::parse(label), want, "{label}");
        }
        assert_eq!(SchedulePolicy::parse("lifo"), None);
        assert_eq!(AddressMapping::parse("RowMajor"), None);
    }
}
