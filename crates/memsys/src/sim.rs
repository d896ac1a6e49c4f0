//! The unified run surface: the [`Sim`] builder, the [`Session`] it
//! produces, and the one [`RunReport`] every run returns.
//!
//! The paper's evaluation is a grid of *scenarios* — scheme × frontend
//! (synthetic workload, text trace, or attack source) × mapping ×
//! scheduler × seed. Before this module the run surface was one free
//! function per combination, each threading the knobs slightly
//! differently and returning a different shape. [`Sim`] replaces them
//! with a single typed builder:
//!
//! ```
//! use mint_memsys::{MitigationScheme, Sim};
//! use mint_memsys::workload::spec_rate_workloads;
//!
//! let lbm = spec_rate_workloads()
//!     .into_iter()
//!     .find(|w| w.name == "lbm")
//!     .unwrap();
//! let report = Sim::ddr5()
//!     .scheme(MitigationScheme::Mint)
//!     .workload(&[lbm; 4], 2_000)
//!     .seed(11)
//!     .run();
//! assert_eq!(report.perf.result.requests, 4 * 2_000);
//! assert_eq!(report.cores.len(), 4);
//! assert!(report.energy.total_j() > 0.0);
//! ```
//!
//! Every configuration knob has the production default (Table VI config,
//! FR-FCFS, row-interleaved mapping, seed 0), so a scenario names only
//! what it changes. [`Sim::build`] resolves the frontend into per-core
//! [`RequestSource`]s and returns a [`Session`]; [`Session::run`] drives
//! the channel to completion and returns the [`RunReport`] — aggregate
//! [`NormalizedPerf`], per-core [`CoreOutcome`]s, the energy breakdown,
//! and (when captured) the executed command events. Runs are
//! bit-deterministic for a given builder state: the per-core streams and
//! the channel derive their RNG substreams from the builder seed, so a
//! run is byte-identical however a surrounding sweep is parallelised
//! (pinned against pre-redesign goldens by `tests/system_identity.rs`).

use crate::address::{AddressDecoder, AddressMapping};
use crate::config::{MitigationScheme, SystemConfig};
use crate::controller::SimResult;
use crate::energy::{EnergyModel, EnergyReport};
use crate::events::{ChannelObserver, MemEvent};
use crate::sched::SchedulePolicy;
use crate::snapshot::Checkpoint;
use crate::system::System;
use crate::telemetry::{collect_report, SessionTelemetry};
use crate::workload::{CoreStream, Request, RequestSource, TraceEntry, TraceSource, WorkloadSpec};
use mint_core::StateCursor;
use mint_obs::TelemetryReport;
use mint_rng::derive_seed;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// Requests a batching source prefills per [`RequestSource::refill`]
/// call (the per-core ring size of a [`Session`]).
const GEN_BATCH: usize = 16;

/// Aggregate outcome of one run: duration, controller statistics, and a
/// normalization slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedPerf {
    /// Total simulated time (ps) — lower is faster.
    pub duration_ps: u64,
    /// Controller statistics.
    pub result: SimResult,
    /// Weighted speedup vs. a reference duration (1.0 = baseline); filled
    /// by [`normalize`](NormalizedPerf::normalize).
    pub normalized: f64,
}

impl NormalizedPerf {
    /// Normalizes against the baseline run of the same workload.
    #[must_use]
    pub fn normalize(mut self, baseline: &NormalizedPerf) -> Self {
        self.normalized = baseline.duration_ps as f64 / self.duration_ps as f64;
        self
    }
}

/// What one core did over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreOutcome {
    /// Completion time of the core's last serviced request (0 if it never
    /// issued).
    pub finish_ps: u64,
    /// Requests the channel serviced for this core.
    pub requests: u64,
}

/// The one result shape every [`Sim`] run returns: the aggregate perf,
/// the per-core breakdown, the energy bill, and — when
/// [`Sim::capture_events`] is set — the executed command stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The aggregate result: duration, controller statistics (command
    /// counts live in [`SimResult`]) and the normalization slot.
    pub perf: NormalizedPerf,
    /// One outcome per request source, in source order.
    pub cores: Vec<CoreOutcome>,
    /// Energy breakdown of the run ([`EnergyModel::ddr5_default`];
    /// mitigation-hardware static draw included for every scheme except
    /// `Baseline`).
    pub energy: EnergyReport,
    /// The executed device commands, in service order — empty unless
    /// [`Sim::capture_events`] was requested (the log is off by default,
    /// so perf sweeps pay nothing for it).
    pub events: Vec<MemEvent>,
    /// The per-layer metrics report — `None` unless [`Sim::telemetry`]
    /// was requested (every hook is a dead branch by default, so
    /// non-telemetry runs stay bit-identical).
    pub telemetry: Option<TelemetryReport>,
}

/// The outcome of [`Session::run_until`] / [`Session::resume_until`]:
/// either the run completed before reaching the stop point, or it paused
/// into a restorable [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionRun {
    /// Every source ran dry (or hit its budget) before the stop point;
    /// the report is identical to what [`Session::run`] would return.
    Finished(RunReport),
    /// The run paused at the stop point. Feed the checkpoint to
    /// [`Session::resume`] on an identically built session — in this
    /// process or, via [`Checkpoint::to_bytes`], a fresh one — to
    /// continue it bit-identically.
    Paused(Checkpoint),
}

/// The frontend half of a scenario: where requests come from.
enum Frontend<'a> {
    /// Not configured yet — [`Sim::build`] rejects this.
    Unset,
    /// One synthetic [`CoreStream`] per core, each capped at a request
    /// budget.
    Workload {
        specs: Vec<WorkloadSpec>,
        requests_per_core: u32,
    },
    /// A shared text trace dealt round-robin across the cores and run dry.
    Trace { entries: Vec<TraceEntry> },
    /// Arbitrary caller-built sources (attackers, co-runs), optionally
    /// budget-capped per core via [`Sim::per_core_budget`].
    Sources(Vec<Box<dyn RequestSource + 'a>>),
}

/// Builder for one simulation scenario: system config, scheme, scheduler,
/// mapping, frontend, observer and seed — every knob with the production
/// default, chainable in any order. See the [module docs](self) for an
/// end-to-end example.
pub struct Sim<'a> {
    cfg: SystemConfig,
    scheme: MitigationScheme,
    policy: SchedulePolicy,
    mapping: AddressMapping,
    seed: u64,
    frontend: Frontend<'a>,
    source_budget: Option<u32>,
    observer: Option<&'a mut dyn ChannelObserver>,
    capture_events: bool,
    telemetry: bool,
}

impl Sim<'_> {
    /// A scenario on `cfg` with the production defaults: `Baseline`
    /// scheme, FR-FCFS scheduling, row-interleaved mapping, seed 0, no
    /// frontend yet.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        Self {
            cfg,
            scheme: MitigationScheme::Baseline,
            policy: SchedulePolicy::default(),
            mapping: AddressMapping::default(),
            seed: 0,
            frontend: Frontend::Unset,
            source_budget: None,
            observer: None,
            capture_events: false,
            telemetry: false,
        }
    }

    /// A scenario on the evaluated DDR5 system ([`SystemConfig::table6`]).
    #[must_use]
    pub fn ddr5() -> Self {
        Self::new(SystemConfig::table6())
    }
}

impl<'a> Sim<'a> {
    /// Sets the mitigation scheme under evaluation (default `Baseline`).
    #[must_use]
    pub fn scheme(mut self, scheme: MitigationScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the channel arbitration policy (default FR-FCFS).
    #[must_use]
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the physical-address mapping (default `RoBaRaCoCh`).
    #[must_use]
    pub fn mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the master seed (default 0). Per-core streams and the channel
    /// derive independent substreams from it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Frontend: one synthetic [`CoreStream`] per core (one spec per
    /// core), each running `requests_per_core` LLC misses. Core `i`
    /// streams with substream `derive_seed(seed, i)`.
    #[must_use]
    pub fn workload(mut self, specs: &[WorkloadSpec], requests_per_core: u32) -> Self {
        self.frontend = Frontend::Workload {
            specs: specs.to_vec(),
            requests_per_core,
        };
        self
    }

    /// Frontend: replay `entries` dealt round-robin across the configured
    /// cores ([`TraceSource::split`]) and run to exhaustion.
    #[must_use]
    pub fn trace(mut self, entries: &[TraceEntry]) -> Self {
        self.frontend = Frontend::Trace {
            entries: entries.to_vec(),
        };
        self
    }

    /// Frontend: arbitrary request sources, one per core, any count — the
    /// entry point for attacker/victim co-runs. Sources run dry unless
    /// [`per_core_budget`](Sim::per_core_budget) caps them.
    #[must_use]
    pub fn sources(mut self, sources: Vec<Box<dyn RequestSource + 'a>>) -> Self {
        self.frontend = Frontend::Sources(sources);
        self
    }

    /// Caps each source of a [`sources`](Sim::sources) frontend at
    /// `budget` requests (`None` = run every source dry; at least one
    /// source must be finite then). Chainable before or after
    /// [`sources`](Sim::sources); ignored by the workload/trace
    /// frontends, which own their budgets.
    #[must_use]
    pub fn per_core_budget(mut self, budget: Option<u32>) -> Self {
        self.source_budget = budget;
        self
    }

    /// Feeds every executed device command to `observer` in service
    /// order — the ground-truth tap security oracles ride.
    #[must_use]
    pub fn observer(mut self, observer: &'a mut dyn ChannelObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Collects the executed command events into
    /// [`RunReport::events`] (off by default; the event log costs memory
    /// proportional to the run).
    #[must_use]
    pub fn capture_events(mut self) -> Self {
        self.capture_events = true;
        self
    }

    /// Turns on the observability subsystem: counters, histograms and
    /// sim-time sampling across every layer, collected into
    /// [`RunReport::telemetry`] (off by default). Sampling is driven by
    /// simulated picoseconds only, so telemetry never perturbs a run —
    /// the rest of the report stays byte-identical.
    #[must_use]
    pub fn telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Resolves the frontend into per-core sources and returns the
    /// runnable [`Session`].
    ///
    /// # Panics
    ///
    /// Panics if no frontend was configured, if a workload frontend has
    /// `specs.len() != cfg.cores` or `requests_per_core == 0`, or if a
    /// sources frontend is empty.
    #[must_use]
    pub fn build(self) -> Session<'a> {
        let (sources, budget): (Vec<Box<dyn RequestSource + 'a>>, Option<u32>) = match self.frontend
        {
            Frontend::Unset => {
                panic!("no request source configured — call .workload(), .trace() or .sources()")
            }
            Frontend::Workload {
                specs,
                requests_per_core,
            } => {
                assert_eq!(
                    specs.len(),
                    self.cfg.cores as usize,
                    "one workload spec per core"
                );
                assert!(requests_per_core > 0, "need at least one request per core");
                let decoder = AddressDecoder::new(&self.cfg, self.mapping);
                let sources = specs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        Box::new(CoreStream::new(
                            *spec,
                            decoder,
                            spec.think_time_ps(&self.cfg),
                            derive_seed(self.seed, i as u64),
                        )) as Box<dyn RequestSource>
                    })
                    .collect();
                (sources, Some(requests_per_core))
            }
            Frontend::Trace { entries } => {
                let sources =
                    TraceSource::split(&entries, self.cfg.cores, self.cfg.core_cycle_ps())
                        .into_iter()
                        .map(|s| Box::new(s) as Box<dyn RequestSource>)
                        .collect();
                (sources, None)
            }
            Frontend::Sources(sources) => {
                assert!(!sources.is_empty(), "need at least one request source");
                (sources, self.source_budget)
            }
        };
        Session {
            cfg: self.cfg,
            scheme: self.scheme,
            policy: self.policy,
            mapping: self.mapping,
            seed: self.seed,
            sources,
            budget,
            observer: self.observer,
            capture_events: self.capture_events,
            telemetry: self.telemetry,
        }
    }

    /// [`build`](Sim::build) + [`Session::run`] in one call.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`build`](Sim::build).
    #[must_use]
    pub fn run(self) -> RunReport {
        self.build().run()
    }
}

/// One core's frontend state while a [`Session`] runs.
struct CoreCtx<'a> {
    source: Box<dyn RequestSource + 'a>,
    /// Next request and its issue time, once the core is ready to send it.
    pending: Option<(Request, u64)>,
    /// Prefilled upcoming requests ([`RequestSource::refill`]); drained
    /// before the source is asked again.
    ring: VecDeque<Request>,
    /// Routed channel of the pending request (cached at fetch so the
    /// admission loop never decodes an address twice).
    route: usize,
    /// When the core front-end can work on its next request.
    ready_at: u64,
    /// Requests still allowed (None = until the source runs dry).
    remaining: Option<u32>,
    /// Completion time of the core's last serviced request.
    finish: u64,
    /// Requests the channel serviced for this core.
    serviced: u64,
}

impl CoreCtx<'_> {
    /// Pulls the next request out of the source (respecting the budget)
    /// and stamps its issue time.
    ///
    /// Drains the prefilled ring first and refills it with the core's
    /// *current* ready time when empty — sources whose request content
    /// depends on that time refill one request per call by contract, so
    /// batching never feeds them a stale clock.
    fn fetch(&mut self) {
        debug_assert!(self.pending.is_none());
        match &mut self.remaining {
            Some(0) => return,
            Some(n) => *n -= 1,
            None => {}
        }
        let req = match self.ring.pop_front() {
            Some(req) => Some(req),
            None => {
                self.source.refill(self.ready_at, GEN_BATCH, &mut self.ring);
                self.ring.pop_front()
            }
        };
        if let Some(req) = req {
            let issue = self.ready_at + req.think_time_ps;
            self.pending = Some((req, issue));
        }
    }

    /// Walks one core's frontend: the source's block, the pending request
    /// and its issue time, the ring, the clock, the budget left (present
    /// exactly when the session's `budget` is) and the counters.
    fn walk_state(
        &mut self,
        c: &mut StateCursor,
        budget: Option<u32>,
        decoder: &AddressDecoder,
    ) -> Result<(), String> {
        let source = &mut self.source;
        c.block("request source", |c| source.walk_state(c))?;
        let (mut req, mut issue) = self.pending.unwrap_or_default();
        let pending = c.opt(self.pending.is_some(), |c| {
            walk_request(c, &mut req, decoder)?;
            c.u64(&mut issue)
        })?;
        self.pending = pending.then_some((req, issue));
        let queued = c.count(self.ring.len(), usize::MAX, "request ring")?;
        self.ring.resize(queued, Request::default());
        self.ring
            .iter_mut()
            .try_for_each(|req| walk_request(c, req, decoder))?;
        c.u64(&mut self.ready_at)?;
        let mut left = self.remaining.unwrap_or(0);
        let budgeted = c.padded(self.remaining.is_some(), |c| c.u32(&mut left))?;
        if budgeted != budget.is_some() {
            return Err("the request budget does not match the session's".to_string());
        }
        self.remaining = budgeted.then_some(left);
        c.u64(&mut self.finish)?;
        c.u64(&mut self.serviced)
    }
}

/// `[addr, is_read, think_time_ps]`; the address must decode.
fn walk_request(
    c: &mut StateCursor,
    req: &mut Request,
    decoder: &AddressDecoder,
) -> Result<(), String> {
    c.u64(&mut req.addr)?;
    decoder.try_decode(req.addr).map_err(|e| e.to_string())?;
    c.bool(&mut req.is_read)?;
    c.u64(&mut req.think_time_ps)
}

/// One service step of the run loops: serve the earliest-ready
/// channel, forward its drained events, credit the owning core (MLP
/// stall model) and fetch that core's next request. Returns the serviced
/// core's index, or `None` when every channel is empty (run over).
#[allow(clippy::too_many_arguments)]
fn service_step(
    system: &mut System,
    cores: &mut [CoreCtx],
    mlp: u64,
    mlp_shift: Option<u32>,
    observer: &mut Option<&mut dyn ChannelObserver>,
    capture_events: bool,
    events: &mut Vec<MemEvent>,
    stel: &mut Option<Box<SessionTelemetry>>,
) -> Option<usize> {
    let ch = system.earliest_ready()?;
    let c = system
        .service_channel(ch)
        .expect("earliest-ready channel is non-empty");
    if observer.is_some() || capture_events {
        for e in system.drain_events_global(ch) {
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_event(&e);
            }
            if capture_events {
                events.push(e);
            }
        }
    }
    let idx = c.core as usize;
    let core = &mut cores[idx];
    // Blocking-miss core with an MLP overlap factor: the core absorbs
    // 1/MLP of the memory stall.
    let stall = match mlp_shift {
        Some(s) => (c.completion_ps - c.arrival_ps) >> s,
        None => (c.completion_ps - c.arrival_ps) / mlp,
    };
    core.ready_at = c.arrival_ps + stall;
    core.finish = core.finish.max(c.completion_ps);
    core.serviced += 1;
    core.fetch();
    if let Some(t) = stel.as_deref_mut() {
        t.note_service(c.completion_ps);
        if core.pending.is_some() {
            t.generated += 1;
        }
    }
    Some(idx)
}

/// A fully resolved scenario, ready to run: built by [`Sim::build`],
/// consumed by [`Session::run`].
pub struct Session<'a> {
    cfg: SystemConfig,
    scheme: MitigationScheme,
    policy: SchedulePolicy,
    mapping: AddressMapping,
    seed: u64,
    sources: Vec<Box<dyn RequestSource + 'a>>,
    budget: Option<u32>,
    observer: Option<&'a mut dyn ChannelObserver>,
    capture_events: bool,
    telemetry: bool,
}

impl Session<'_> {
    /// Drives every source through a fresh [`System`] until all are
    /// exhausted (or have issued their budget) and returns the unified
    /// [`RunReport`].
    ///
    /// Admission and service interleave deterministically at the system
    /// level: each pending request routes to its channel by decoded
    /// address, the earliest issuable request whose routed channel can
    /// admit it (room in the queue, issue no later than that channel's
    /// next scheduling decision — so every channel's scheduler arbitrates
    /// over all of its arrived traffic) is admitted first, and otherwise
    /// the earliest-ready channel serves (ties to the lowest channel
    /// index). With one channel this is exactly the legacy single-channel
    /// loop. Drained command events go to the observer (and the report,
    /// when captured) after every scheduling decision, in service order
    /// with system-global bank indices — bit-deterministic regardless of
    /// how a surrounding sweep is parallelised.
    #[must_use]
    pub fn run(self) -> RunReport {
        match self.drive(None, Stops::Never) {
            Ok(Some(SessionRun::Finished(report))) => report,
            _ => unreachable!("a run with no stop point neither pauses, halts nor fails"),
        }
    }

    /// [`run`](Session::run) with a caller's check: asks `go_on` before
    /// the first service decision and again after every `every` requests
    /// serviced, passing the count serviced so far (0, `every`,
    /// 2·`every`, … while requests are left). Once `go_on` answers
    /// `false` the run stops, `go_on` is not asked again, and the result
    /// is `None`; otherwise the report is [`run`](Session::run)'s, bit for
    /// bit.
    ///
    /// The poll shares the loop-top compare of
    /// [`run_until`](Session::run_until)'s pause, so a caller can stop a
    /// long run (a cancel, a deadline) without checkpointing it.
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    #[must_use]
    pub fn run_polled(self, every: u64, go_on: &mut dyn FnMut(u64) -> bool) -> Option<RunReport> {
        assert!(every >= 1, "a poll needs a period of at least one request");
        match self.drive(None, Stops::Poll { every, go_on }) {
            Ok(Some(SessionRun::Finished(report))) => Some(report),
            Ok(None) => None,
            Ok(Some(SessionRun::Paused(_))) | Err(_) => {
                unreachable!("a polled run neither pauses nor fails")
            }
        }
    }

    /// Runs until `stop_after` requests have been serviced system-wide,
    /// then pauses into a [`Checkpoint`] — or finishes normally if the
    /// run completes first.
    ///
    /// The pause point is deterministic: the checkpoint captures the
    /// exact dynamic state after the `stop_after`-th service decision —
    /// scheduler slab and planner caches, bank and tracker state, timing
    /// rings, RNG stream positions, per-core frontends and the events
    /// captured so far — so `run_until(k)` followed by
    /// [`Session::resume`] on an identically built session reproduces
    /// [`Session::run`] bit for bit, reports, event streams and energy
    /// included (pinned by `tests/checkpoint_identity.rs`). `k = 0`
    /// pauses before the first service decision.
    ///
    /// # Errors
    ///
    /// Returns an error if any request source does not support
    /// checkpointing (its [`RequestSource::walk_state`] refuses).
    pub fn run_until(self, stop_after: u64) -> Result<SessionRun, String> {
        self.drive(None, Stops::PauseAt(stop_after)).map(unpolled)
    }

    /// Continues a paused run from `checkpoint` to completion.
    ///
    /// The session must be built with the *same* builder state (config,
    /// scheme, policy, mapping, seed and frontend shape) as the run that
    /// produced the checkpoint — the checkpoint carries only dynamic
    /// state, and restore validates structure (channel, rank, bank and
    /// core counts, index bounds), not provenance.
    ///
    /// # Errors
    ///
    /// Returns an error on a malformed or structurally incompatible
    /// checkpoint, or if a request source does not support restore.
    pub fn resume(self, checkpoint: &Checkpoint) -> Result<RunReport, String> {
        match self.drive(Some(checkpoint), Stops::Never)? {
            Some(SessionRun::Finished(report)) => Ok(report),
            _ => unreachable!("no stop point requested"),
        }
    }

    /// [`resume`](Session::resume) with another pause point: continues
    /// from `checkpoint` and pauses again once `stop_after` total
    /// requests — counting those serviced before the checkpoint — have
    /// been serviced.
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`Session::resume`].
    pub fn resume_until(
        self,
        checkpoint: &Checkpoint,
        stop_after: u64,
    ) -> Result<SessionRun, String> {
        self.drive(Some(checkpoint), Stops::PauseAt(stop_after))
            .map(unpolled)
    }

    /// The one run loop behind every entry point: starts fresh or from a
    /// checkpoint, runs the incremental admission loop, and stops where
    /// `stops` says: never, at a pause, or at every poll. `None` means a
    /// poll's check halted the run.
    ///
    /// The stop check sits at the loop top — right after a service
    /// decision's fetch and arrival push — where the loop invariant
    /// holds: the arrival heap/set contains `(issue, core)` exactly for
    /// the cores with a pending request. That is what lets resume
    /// rebuild the arrivals from the restored pendings instead of
    /// serializing the heap.
    fn drive(
        mut self,
        resume: Option<&Checkpoint>,
        mut stops: Stops<'_>,
    ) -> Result<Option<SessionRun>, String> {
        let mut system = System::new(self.cfg, self.scheme, self.policy, self.mapping, self.seed);
        let single_channel = system.channel_count() == 1;
        let observe = self.observer.is_some() || self.capture_events;
        if observe {
            system.enable_event_log();
        }
        // Telemetry goes live before any restore so a telemetry-on
        // checkpoint finds its per-layer words expected everywhere.
        if self.telemetry {
            system.enable_telemetry();
        }
        let mut stel: Option<Box<SessionTelemetry>> = self
            .telemetry
            .then(|| Box::new(SessionTelemetry::new(self.cfg.t_refi_ps)));
        // Captured runs produce one event per executed command; reserve a
        // chunk up front so the early doublings never land in the hot loop.
        let mut events = Vec::with_capacity(if self.capture_events { 4096 } else { 0 });
        let mlp = u64::from(self.cfg.core_mlp).max(1);
        // The common MLP values are powers of two; divide by shift then
        // (the stall division runs once per serviced request).
        let mlp_shift = if mlp.is_power_of_two() {
            Some(mlp.trailing_zeros())
        } else {
            None
        };
        let budget = self.budget;
        let mut cores: Vec<CoreCtx> = self
            .sources
            .into_iter()
            .map(|source| CoreCtx {
                source,
                pending: None,
                ring: VecDeque::new(),
                route: 0,
                ready_at: 0,
                remaining: budget,
                finish: 0,
                serviced: 0,
            })
            .collect();
        if let Some(checkpoint) = resume {
            // Construction-time RNG draws are immaterial: restore
            // overwrites every stream position, pending request and
            // counter with the checkpointed state. The initial fetch is
            // skipped — the paused run already performed it.
            let mut c = StateCursor::loading(&checkpoint.words);
            walk_session(
                &mut c,
                &mut system,
                &mut cores,
                budget,
                &mut events,
                &mut stel,
            )?;
            c.finish()?;
        } else {
            for c in &mut cores {
                c.fetch();
                if let Some(t) = stel.as_deref_mut() {
                    if c.pending.is_some() {
                        t.generated += 1;
                    }
                }
            }
        }
        let mut serviced_total: u64 = cores.iter().map(|c| c.serviced).sum();
        let mut next_stop = match stops {
            Stops::Never => None,
            Stops::PauseAt(k) => Some(k),
            Stops::Poll { .. } => Some(serviced_total),
        };

        if single_channel {
            // Incremental single-channel admission: admissibility is
            // monotone in the issue time (a full queue or a too-late
            // arrival stays inadmissible for every later arrival), so
            // only the *minimum* pending `(issue, core)` key can ever be
            // admitted — a binary min-heap (contiguous, no tree nodes)
            // beats an ordered set here, and peek is free. The heap pops
            // exactly the key a sorted scan of every pending arrival
            // would admit (`tests/admission_oracle.rs` replays that scan
            // step for step).
            let mut arrivals: BinaryHeap<Reverse<(u64, usize)>> =
                BinaryHeap::with_capacity(cores.len());
            for (i, c) in cores.iter().enumerate() {
                if let Some(&(_, issue)) = c.pending.as_ref() {
                    arrivals.push(Reverse((issue, i)));
                }
            }
            loop {
                if next_stop.is_some_and(|k| serviced_total >= k) {
                    match at_stop(&mut stops, &mut next_stop, serviced_total, &system, &cores) {
                        AtStop::Run => {}
                        AtStop::Halt => return Ok(None),
                        AtStop::Pause => {
                            return pause(&mut system, &mut cores, budget, &mut events, &mut stel)
                        }
                    }
                }
                if let Some(&Reverse((issue, i))) = arrivals.peek() {
                    if system.admissible(0, issue) {
                        arrivals.pop();
                        let (req, _) = cores[i].pending.take().expect("pending checked");
                        if let Some(t) = stel.as_deref_mut() {
                            t.admitted += 1;
                            t.ring_depth.record(cores[i].ring.len() as u64);
                        }
                        system.push_to(0, req, i as u32, issue);
                        continue;
                    }
                }
                let Some(idx) = service_step(
                    &mut system,
                    &mut cores,
                    mlp,
                    mlp_shift,
                    &mut self.observer,
                    self.capture_events,
                    &mut events,
                    &mut stel,
                ) else {
                    break;
                };
                serviced_total += 1;
                if let Some(&(_, issue)) = cores[idx].pending.as_ref() {
                    arrivals.push(Reverse((issue, idx)));
                }
            }
        } else {
            // Incremental multi-channel admission: pending arrivals live
            // in an ordered `(issue, core)` set mutated only when a core
            // fetches or is admitted — O(log cores) per admit instead of
            // a full re-sort per decision — with each pending request's
            // routed channel cached at fetch time. A blocked channel
            // must not starve another channel's admissible arrival, so
            // the scan walks the set in order — exactly the order a
            // per-decision re-sort of the pending arrivals would give.
            let mut arrivals: BTreeSet<(u64, usize)> = BTreeSet::new();
            for (i, c) in cores.iter_mut().enumerate() {
                if let Some(&(req, issue)) = c.pending.as_ref() {
                    c.route = system.route(req.addr);
                    arrivals.insert((issue, i));
                }
            }
            loop {
                if next_stop.is_some_and(|k| serviced_total >= k) {
                    match at_stop(&mut stops, &mut next_stop, serviced_total, &system, &cores) {
                        AtStop::Run => {}
                        AtStop::Halt => return Ok(None),
                        AtStop::Pause => {
                            return pause(&mut system, &mut cores, budget, &mut events, &mut stel)
                        }
                    }
                }
                let mut admitted = None;
                for &(issue, i) in &arrivals {
                    let ch = cores[i].route;
                    if system.admissible(ch, issue) {
                        admitted = Some((issue, i, ch));
                        break;
                    }
                }
                if let Some((issue, i, ch)) = admitted {
                    arrivals.remove(&(issue, i));
                    let (req, _) = cores[i].pending.take().expect("pending checked");
                    if let Some(t) = stel.as_deref_mut() {
                        t.admitted += 1;
                        t.ring_depth.record(cores[i].ring.len() as u64);
                    }
                    system.push_to(ch, req, i as u32, issue);
                    continue;
                }
                let Some(idx) = service_step(
                    &mut system,
                    &mut cores,
                    mlp,
                    mlp_shift,
                    &mut self.observer,
                    self.capture_events,
                    &mut events,
                    &mut stel,
                ) else {
                    break;
                };
                serviced_total += 1;
                if let Some(&(req, issue)) = cores[idx].pending.as_ref() {
                    cores[idx].route = system.route(req.addr);
                    arrivals.insert((issue, idx));
                }
            }
        }

        Ok(Some(SessionRun::Finished(finish_report(
            self.scheme,
            system,
            &cores,
            events,
            stel,
        ))))
    }
}

/// Where [`Session::drive`] stops to look up from the run.
enum Stops<'p> {
    /// Nowhere: run to completion.
    Never,
    /// Pause into a checkpoint once this many requests are serviced.
    PauseAt(u64),
    /// Ask `go_on` at 0, `every`, 2·`every`, … requests serviced.
    Poll {
        every: u64,
        go_on: &'p mut dyn FnMut(u64) -> bool,
    },
}

/// What the run loops do at a stop point.
enum AtStop {
    Run,
    Pause,
    /// A poll's check answered `false`.
    Halt,
}

/// The branch behind the loop top's stop compare, taken once per stop
/// point: a pause pauses; a poll asks its check and moves `next_stop` to
/// the next poll point. A run with nothing left to service is over, so
/// it is not polled. Out of line and cold, so the hot loop's code stays
/// as it is without a poll.
#[cold]
#[inline(never)]
fn at_stop(
    stops: &mut Stops,
    next_stop: &mut Option<u64>,
    serviced: u64,
    system: &System,
    cores: &[CoreCtx],
) -> AtStop {
    let Stops::Poll { every, go_on } = stops else {
        return AtStop::Pause;
    };
    if system.pending() == 0 && cores.iter().all(|c| c.pending.is_none()) {
        *next_stop = None;
        return AtStop::Run;
    }
    if !go_on(serviced) {
        return AtStop::Halt;
    }
    *next_stop = Some(serviced.saturating_add(*every));
    AtStop::Run
}

/// A pause or a straight run ends finished or paused: only a poll halts.
fn unpolled(run: Option<SessionRun>) -> SessionRun {
    run.expect("only a poll halts a run")
}

/// Walks the full dynamic state of a paused run — system, cores, captured
/// events, telemetry — and checks its cross-layer accounting.
/// Builder-derived state (config, scheme, decoder, policy, observer) is
/// *not* walked: [`Session::resume`] must be handed an identically built
/// session.
fn walk_session(
    c: &mut StateCursor,
    system: &mut System,
    cores: &mut [CoreCtx],
    budget: Option<u32>,
    events: &mut Vec<MemEvent>,
    stel: &mut Option<Box<SessionTelemetry>>,
) -> Result<(), String> {
    c.fixed(cores.len(), "session cores")?;
    // The generation-mode word: sessions always prefill their rings, so
    // it is a constant `true`, kept so the layout stays version 1.
    let mut batched = true;
    c.bool(&mut batched)?;
    if !batched {
        return Err("session: unbatched-generation checkpoints are unsupported".into());
    }
    system.walk_state(c)?;
    for (i, core) in cores.iter_mut().enumerate() {
        core.walk_state(c, budget, system.decoder())
            .map_err(|e| format!("session: core {i}: {e}"))?;
    }
    check_accounting(system, cores, budget)?;
    let n = c.count(events.len(), usize::MAX, "session: event log")?;
    events.resize(n, MemEvent::Pre { bank: 0, at_ps: 0 });
    events.iter_mut().try_for_each(|e| e.walk(c))?;
    // Telemetry words ride behind the stable layout, and only when the
    // layer is enabled — a non-telemetry checkpoint is unchanged.
    if let Some(t) = stel.as_deref_mut() {
        t.walk_state(c)?;
    }
    Ok(())
}

/// Pauses the run into a checkpoint: [`walk_session`] with a saving
/// cursor.
fn pause(
    system: &mut System,
    cores: &mut [CoreCtx],
    budget: Option<u32>,
    events: &mut Vec<MemEvent>,
    stel: &mut Option<Box<SessionTelemetry>>,
) -> Result<Option<SessionRun>, String> {
    let mut c = StateCursor::saving();
    walk_session(&mut c, system, cores, budget, events, stel)?;
    Ok(Some(SessionRun::Paused(Checkpoint { words: c.finish()? })))
}

/// The frontend's books must balance against the queues, or a resumed
/// run would trip a queue invariant or overrun its budget: a core (a
/// blocking-miss core) has at most one request pending or queued, a
/// budgeted core accounts for at most its budget, and the cores'
/// serviced counts sum to the channels'.
fn check_accounting(system: &System, cores: &[CoreCtx], budget: Option<u32>) -> Result<(), String> {
    let mut outstanding: Vec<u64> = cores
        .iter()
        .map(|c| u64::from(c.pending.is_some()))
        .collect();
    for core in system.queued_cores() {
        *outstanding
            .get_mut(core as usize)
            .ok_or("session: a queued request names no core")? += 1;
    }
    for (i, (c, &n)) in cores.iter().zip(&outstanding).enumerate() {
        let used = c
            .serviced
            .saturating_add(n + u64::from(c.remaining.unwrap_or(0)));
        if n > 1 || budget.is_some_and(|b| used > u64::from(b)) {
            return Err(format!(
                "session: core {i} has {n} outstanding, {used} accounted"
            ));
        }
    }
    let serviced = cores
        .iter()
        .fold(0, |sum: u64, c| sum.saturating_add(c.serviced));
    if serviced != system.result().requests {
        return Err(format!(
            "session: cores serviced {serviced} requests, channels not"
        ));
    }
    Ok(())
}

/// Aggregates a completed run into its [`RunReport`].
fn finish_report(
    scheme: MitigationScheme,
    mut system: System,
    cores: &[CoreCtx],
    events: Vec<MemEvent>,
    stel: Option<Box<SessionTelemetry>>,
) -> RunReport {
    let duration = cores.iter().map(|c| c.finish).max().unwrap_or(0);
    system.finish(duration);
    let result = system.result();
    let with_hw = !matches!(scheme, MitigationScheme::Baseline);
    // Collection runs after `finish` so trailing-refresh commands are in
    // the per-channel results the report summarizes.
    let telemetry = stel.map(|t| collect_report(&t, &system, duration));
    RunReport {
        perf: NormalizedPerf {
            duration_ps: duration,
            result,
            normalized: 1.0,
        },
        cores: cores
            .iter()
            .map(|c| CoreOutcome {
                finish_ps: c.finish,
                requests: c.serviced,
            })
            .collect(),
        energy: EnergyModel::ddr5_default().energy(&result, duration, with_hw),
        events,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{parse_trace, spec_rate_workloads};

    fn rate4(spec: WorkloadSpec) -> Vec<WorkloadSpec> {
        vec![spec; 4]
    }

    fn run(scheme: MitigationScheme, spec: WorkloadSpec) -> NormalizedPerf {
        Sim::ddr5()
            .scheme(scheme)
            .workload(&rate4(spec), 30_000)
            .seed(11)
            .run()
            .perf
    }

    fn lbm() -> WorkloadSpec {
        spec_rate_workloads()
            .into_iter()
            .find(|w| w.name == "lbm")
            .unwrap()
    }

    #[test]
    fn mint_has_zero_slowdown() {
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let mint = run(MitigationScheme::Mint, spec).normalize(&base);
        assert!(
            (mint.normalized - 1.0).abs() < 1e-9,
            "MINT normalized perf {}",
            mint.normalized
        );
        assert!(mint.result.mitigative_acts > 0);
    }

    #[test]
    fn rfm16_slowdown_is_small() {
        // With the per-REF RAA decrement, RFM16 only fires on banks that
        // exceed 16 ACTs per tREFI — slowdown stays within a few percent
        // even for the most memory-intensive workload (paper avg: 1.6%).
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let rfm = run(MitigationScheme::MintRfm { rfm_th: 16 }, spec).normalize(&base);
        assert!(rfm.normalized <= 1.0);
        assert!(
            rfm.normalized > 0.90,
            "RFM16 slowdown should be a few percent, got {}",
            rfm.normalized
        );
    }

    #[test]
    fn rfm32_costs_less_than_rfm16() {
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let rfm32 = run(MitigationScheme::MintRfm { rfm_th: 32 }, spec).normalize(&base);
        let rfm16 = run(MitigationScheme::MintRfm { rfm_th: 16 }, spec).normalize(&base);
        assert!(
            rfm32.normalized >= rfm16.normalized,
            "RFM32 {} vs RFM16 {}",
            rfm32.normalized,
            rfm16.normalized
        );
    }

    #[test]
    fn mc_para_is_worse_than_mint_rfm() {
        let spec = lbm();
        let base = run(MitigationScheme::Baseline, spec);
        let rfm16 = run(MitigationScheme::MintRfm { rfm_th: 16 }, spec).normalize(&base);
        let para = run(MitigationScheme::McPara { p: 1.0 / 64.0 }, spec).normalize(&base);
        assert!(
            para.normalized < rfm16.normalized - 0.005,
            "MC-PARA {} should clearly lose to MINT+RFM16 {}",
            para.normalized,
            rfm16.normalized
        );
    }

    #[test]
    fn compute_bound_workload_barely_notices() {
        let povray = spec_rate_workloads()
            .into_iter()
            .find(|w| w.name == "povray")
            .unwrap();
        let base = run(MitigationScheme::Baseline, povray);
        let para = run(MitigationScheme::McPara { p: 1.0 / 64.0 }, povray).normalize(&base);
        assert!(
            para.normalized > 0.97,
            "compute-bound slowdown should be tiny, got {}",
            para.normalized
        );
    }

    #[test]
    fn frfcfs_beats_fcfs_on_row_hit_rate() {
        // A high-locality workload keeps every core streaming inside one
        // row; whenever two cores collide on a bank, FCFS ping-pongs the
        // row buffer while FR-FCFS batches each stream's hits. The
        // scheduler must turn that into a strictly higher hit rate.
        let spec = lbm(); // 0.85 row-buffer locality
        let specs = rate4(spec);
        let run_policy = |policy| {
            Sim::ddr5()
                .policy(policy)
                .workload(&specs, 20_000)
                .seed(13)
                .run()
                .perf
        };
        let fcfs = run_policy(SchedulePolicy::Fcfs);
        let frfcfs = run_policy(SchedulePolicy::frfcfs());
        assert!(
            frfcfs.result.row_hit_rate() > fcfs.result.row_hit_rate(),
            "FR-FCFS {} must beat FCFS {}",
            frfcfs.result.row_hit_rate(),
            fcfs.result.row_hit_rate()
        );
    }

    #[test]
    fn determinism() {
        let spec = lbm();
        let a = run(MitigationScheme::Mint, spec);
        let b = run(MitigationScheme::Mint, spec);
        assert_eq!(a.duration_ps, b.duration_ps);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn trace_replay_is_deterministic_and_complete() {
        let text: String = (0..50)
            .map(|i| {
                format!(
                    "{} {} 0x{:x}\n",
                    i % 7,
                    if i % 3 == 0 { 'W' } else { 'R' },
                    i * 64
                )
            })
            .collect();
        let entries = parse_trace(&text).unwrap();
        let run = || {
            Sim::ddr5()
                .scheme(MitigationScheme::Mint)
                .trace(&entries)
                .seed(3)
                .run()
                .perf
        };
        let a = run();
        let b = run();
        assert_eq!(a.duration_ps, b.duration_ps);
        assert_eq!(a.result, b.result);
        assert_eq!(a.result.requests, 50, "every trace entry is serviced");
        assert_eq!(a.result.writes, 17);
    }

    #[test]
    fn report_carries_cores_energy_and_optional_events() {
        let spec = lbm();
        let plain = Sim::ddr5().workload(&rate4(spec), 500).seed(7).run();
        assert_eq!(plain.cores.len(), 4);
        assert_eq!(
            plain.cores.iter().map(|c| c.requests).sum::<u64>(),
            plain.perf.result.requests
        );
        assert!(plain.energy.total_j() > 0.0);
        assert!(plain.events.is_empty(), "event capture is off by default");

        let captured = Sim::ddr5()
            .workload(&rate4(spec), 500)
            .seed(7)
            .capture_events()
            .run();
        assert_eq!(
            captured.perf, plain.perf,
            "event capture must not perturb the run"
        );
        assert!(
            captured.events.len() as u64 >= captured.perf.result.demand_acts,
            "every demand ACT is an event"
        );
    }

    #[test]
    fn baseline_energy_excludes_mitigation_hw() {
        // Identical timelines (MINT rides REF time), but only MINT pays
        // the TRNG+DMQ static draw.
        let spec = lbm();
        let base = Sim::ddr5().workload(&rate4(spec), 2_000).seed(9).run();
        let mint = Sim::ddr5()
            .scheme(MitigationScheme::Mint)
            .workload(&rate4(spec), 2_000)
            .seed(9)
            .run();
        assert_eq!(base.perf.duration_ps, mint.perf.duration_ps);
        assert!(mint.energy.non_act_j > base.energy.non_act_j);
    }

    #[test]
    fn per_core_budget_chains_in_any_order() {
        // The builder is chainable in any order: a budget set before the
        // sources frontend must cap it all the same (a dropped budget on
        // all-infinite CoreStreams would hang the run).
        let cfg = SystemConfig::table6();
        let mk = || -> Vec<Box<dyn RequestSource>> {
            let decoder = crate::address::AddressDecoder::new(&cfg, AddressMapping::default());
            (0..2u64)
                .map(|i| {
                    Box::new(CoreStream::new(
                        lbm(),
                        decoder,
                        lbm().think_time_ps(&cfg),
                        derive_seed(3, i),
                    )) as Box<dyn RequestSource>
                })
                .collect()
        };
        let before = Sim::new(cfg)
            .per_core_budget(Some(200))
            .sources(mk())
            .seed(3)
            .run();
        let after = Sim::new(cfg)
            .sources(mk())
            .per_core_budget(Some(200))
            .seed(3)
            .run();
        assert_eq!(before, after);
        assert_eq!(before.perf.result.requests, 400);
    }

    #[test]
    #[should_panic(expected = "one workload spec per core")]
    fn wrong_core_count_rejected() {
        let _ = Sim::ddr5().workload(&[lbm()], 10).run();
    }

    #[test]
    #[should_panic(expected = "at least one request per core")]
    fn zero_requests_rejected() {
        let _ = Sim::ddr5().workload(&rate4(lbm()), 0).run();
    }

    #[test]
    #[should_panic(expected = "no request source configured")]
    fn missing_frontend_rejected() {
        let _ = Sim::ddr5().run();
    }

    #[test]
    #[should_panic(expected = "at least one request source")]
    fn empty_sources_rejected() {
        let _ = Sim::ddr5().sources(Vec::new()).run();
    }

    #[test]
    fn run_until_pauses_and_resume_matches_run() {
        // The exhaustive scheme x topology x split sweep lives in
        // tests/checkpoint_identity.rs; this pins the mechanism itself.
        let build = || Sim::ddr5().workload(&rate4(lbm()), 500).seed(7).build();
        let straight = build().run();
        let SessionRun::Paused(ckpt) = build().run_until(100).expect("pausable run") else {
            panic!("a mid-run stop point must pause");
        };
        let resumed = build().resume(&ckpt).expect("resume");
        assert_eq!(resumed, straight);
    }

    #[test]
    fn run_polled_answers_like_run_and_polls_every_period() {
        // 4 x lbm at 3,000 requests per core polled every 1,000: the
        // check sees 0, 1,000, ... 11,000 and not the total, on both
        // admission loops (1x1 and 2ch x 2rk), for the whole zoo.
        const EVERY: u64 = 1_000;
        let dimm = SystemConfig {
            channels: 2,
            ranks: 2,
            ..SystemConfig::table6()
        };
        for cfg in [SystemConfig::table6(), dimm] {
            for scheme in MitigationScheme::zoo() {
                let build = || {
                    Sim::new(cfg)
                        .scheme(scheme)
                        .workload(&rate4(lbm()), 3_000)
                        .seed(5)
                        .build()
                };
                let straight = build().run();
                let mut asked = Vec::new();
                let polled = build().run_polled(EVERY, &mut |k| {
                    asked.push(k);
                    true
                });
                let what = format!("{} on {} channel(s)", scheme.label(), cfg.channels);
                assert_eq!(polled.as_ref(), Some(&straight), "{what}");
                let polls: Vec<u64> = (0..straight.perf.result.requests)
                    .step_by(EVERY as usize)
                    .collect();
                assert_eq!(asked, polls, "{what}");
            }
        }
    }

    #[test]
    fn a_poll_answering_false_halts_the_run_and_is_not_asked_again() {
        for halt_at in [1, 2, 7] {
            let mut asked = 0;
            let polled = Sim::ddr5()
                .workload(&rate4(lbm()), 3_000)
                .seed(5)
                .build()
                .run_polled(1_000, &mut |_| {
                    asked += 1;
                    asked < halt_at
                });
            assert!(polled.is_none(), "halted at call {halt_at}");
            assert_eq!(asked, halt_at);
        }
    }

    #[test]
    fn checkpoints_of_the_unbatched_generation_mode_are_refused() {
        let build = || Sim::ddr5().workload(&rate4(lbm()), 50).seed(7).build();
        let SessionRun::Paused(mut ckpt) = build().run_until(10).expect("pausable run") else {
            panic!("a mid-run stop point must pause");
        };
        // Word 0 is the core count, word 1 the generation-mode flag.
        assert_eq!(ckpt.words[1], 1, "checkpoints record batched generation");
        ckpt.words[1] = 0;
        let err = build()
            .resume(&ckpt)
            .expect_err("unbatched mode is refused");
        assert!(err.contains("unbatched"), "got: {err}");
    }
}
