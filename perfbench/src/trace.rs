//! The traced run: a copy of the session loop that records sampled spans
//! at each layer seam, and a replay of a cell's command stream through
//! fresh tracker backends.
//!
//! Both are reconstructions from public API, so each carries a self-check:
//! the loop copy must reproduce `Sim::run`'s report bit for bit, and the
//! replay must reproduce the logged mitigation stream exactly. A copy that
//! drifted from the program would time a different program.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::time::Instant;

use mint_core::{InDramTracker, MitigationDecision};
use mint_dram::RowId;
use mint_memsys::backend::refis_per_refw;
use mint_memsys::{
    ChannelObserver, CoreOutcome, EnergyModel, MemEvent, MitigationBackend, MitigationScheme,
    NormalizedPerf, Request, RequestSource, RunReport, System, SystemConfig,
};
use mint_rng::{derive_seed, Rng64, Xoshiro256StarStar};

use crate::cells::Cell;

/// Requests a batching source prefills per refill (the session's per-core
/// ring size).
const GEN_BATCH: usize = 16;

/// One loop iteration in 2^SAMPLE_SHIFT is timed. Rare enough that the
/// caches and predictors a timed iteration disturbs have recovered long
/// before the next.
const SAMPLE_SHIFT: u32 = 6;

/// Layers the loop copy attributes time to, in [`LoopSpans::self_ns`]
/// order.
pub const LAYERS: [&str; 7] = [
    "system.admit",
    "sched.plan",
    "controller.service",
    "events.drain",
    "oracle.observe",
    "workload.fetch",
    "session",
];
const ADMIT: usize = 0;
const PLAN: usize = 1;
const SERVICE: usize = 2;
const DRAIN: usize = 3;
const OBSERVE: usize = 4;
const FETCH: usize = 5;
const SESSION: usize = 6;

/// The cost of one clock read, calibrated back to back and subtracted
/// from every tracker call the replay times.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub read_ns: f64,
}

impl Clock {
    pub fn calibrate() -> Clock {
        let mut gaps: Vec<f64> = (0..2001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as f64
            })
            .collect();
        gaps.sort_by(f64::total_cmp);
        Clock {
            read_ns: gaps[gaps.len() / 2],
        }
    }
}

/// Sampled span totals and exact counts of one loop-copy run.
#[derive(Debug, Clone, Default)]
pub struct LoopSpans {
    /// Raw sampled interval time per layer (ns).
    pub raw_ns: [f64; 7],
    /// Timed intervals per layer.
    pub intervals: [u64; 7],
    /// Loop iterations, and how many of them were timed.
    pub steps: u64,
    pub sampled: u64,
    /// Requests, each admitted once and serviced by one decision.
    pub requests: u64,
    /// `Channel::plans_computed`, summed over channels.
    pub plans: u64,
    /// Exact counts over every iteration, kept by capturing runs only.
    pub refills: u64,
    pub probes: u64,
    pub events: u64,
    /// `System::new` time (ns).
    pub build_ns: f64,
    /// Wall time of the admission/service loop (ns).
    pub loop_ns: f64,
    /// Wall time of the whole run: build, loop and finish (ns).
    pub total_ns: f64,
    /// Up to [`RAW_SPAN_CAP`] individual spans, for the trace file.
    pub raw: Vec<Span>,
}

/// One recorded span: the loop iteration that caused it, its layer and
/// its interval (ns since the run's loop started).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub step: u64,
    pub layer: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Raw spans kept per loop-copy run.
pub const RAW_SPAN_CAP: usize = 2_000;

impl LoopSpans {
    /// What timing costs per interval, measured in situ: a timed
    /// iteration should cost what an untimed one does, so whatever the
    /// timed iterations take beyond the untimed mean is instrumentation,
    /// spread over their intervals. (A back-to-back clock calibration
    /// underestimates it: reads inside the loop also stall the pipeline.)
    /// Net of it, the self times sum to the copy's own loop time, so the
    /// traced run checks that sum against the production loop instead.
    pub fn interval_cost_ns(&self) -> f64 {
        let sampled_ns: f64 = self.raw_ns.iter().sum();
        let intervals: u64 = self.intervals.iter().sum();
        if self.sampled == 0 || self.steps <= self.sampled || intervals == 0 {
            return 0.0;
        }
        let (n, total) = (self.sampled as f64, self.steps as f64);
        let untimed_mean = (self.loop_ns - sampled_ns) / (total - n);
        let excess = (sampled_ns / n - untimed_mean).max(0.0);
        excess * n / intervals as f64
    }

    /// Estimated self time per layer over the whole run (ns): sampled
    /// intervals net of the instrumentation cost, scaled by the sampling
    /// rate.
    pub fn self_ns(&self) -> [f64; 7] {
        if self.sampled == 0 {
            return [0.0; 7];
        }
        let scale = self.steps as f64 / self.sampled as f64;
        let cost = self.interval_cost_ns();
        let mut out = [0.0; 7];
        for (l, o) in out.iter_mut().enumerate() {
            *o = (self.raw_ns[l] - self.intervals[l] as f64 * cost).max(0.0) * scale;
        }
        out
    }

    pub fn absorb(&mut self, o: &LoopSpans) {
        for l in 0..7 {
            self.raw_ns[l] += o.raw_ns[l];
            self.intervals[l] += o.intervals[l];
        }
        self.steps += o.steps;
        self.sampled += o.sampled;
        self.requests += o.requests;
        self.plans += o.plans;
        self.refills += o.refills;
        self.probes += o.probes;
        self.events += o.events;
        self.build_ns += o.build_ns;
        self.loop_ns += o.loop_ns;
        self.total_ns += o.total_ns;
    }
}

/// Times the intervals of sampled iterations.
struct Sampler {
    state: u64,
    /// Untimed iterations left before the next timed one.
    countdown: u64,
    origin: Instant,
    last: Option<Instant>,
    spans: LoopSpans,
}

impl Sampler {
    fn new(origin: Instant) -> Self {
        Self {
            state: 0x9E37_79B9_7F4A_7C15,
            countdown: 0,
            origin,
            last: None,
            spans: LoopSpans::default(),
        }
    }

    /// Starts an iteration and times one in 2^SAMPLE_SHIFT on average.
    /// The gaps between timed iterations are drawn at random (xorshift),
    /// so the choice never aliases with the loop's own periodic patterns,
    /// and an untimed iteration pays only a countdown.
    #[inline]
    fn begin(&mut self) {
        self.spans.steps += 1;
        self.last = None;
        if self.countdown > 0 {
            self.countdown -= 1;
            return;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        // Uniform on [0, 2^(SAMPLE_SHIFT+1) − 2]: mean gap 2^SAMPLE_SHIFT − 1.
        self.countdown = self.state % ((2 << SAMPLE_SHIFT) - 1);
        self.spans.sampled += 1;
        self.last = Some(Instant::now());
    }

    /// Whether the current iteration is timed.
    #[inline]
    fn timing(&self) -> bool {
        self.last.is_some()
    }

    /// Closes the current interval of a timed iteration into `layer`.
    #[inline]
    fn lap(&mut self, layer: usize) {
        if let Some(last) = self.last {
            let now = Instant::now();
            self.spans.raw_ns[layer] += (now - last).as_nanos() as f64;
            self.spans.intervals[layer] += 1;
            if self.spans.raw.len() < RAW_SPAN_CAP {
                self.spans.raw.push(Span {
                    step: self.spans.steps,
                    layer,
                    start_ns: (last - self.origin).as_nanos() as u64,
                    end_ns: (now - self.origin).as_nanos() as u64,
                });
            }
            self.last = Some(now);
        }
    }
}

/// One core's frontend state (the session's per-core context).
struct Core {
    source: Box<dyn RequestSource>,
    pending: Option<(Request, u64)>,
    ring: VecDeque<Request>,
    route: usize,
    ready_at: u64,
    remaining: Option<u32>,
    finish: u64,
    serviced: u64,
}

impl Core {
    /// Pulls the next request (ring first, batched refill when empty) and
    /// stamps its issue time, counting refills when `COUNT` is set.
    #[inline]
    fn fetch<const COUNT: bool>(&mut self, refills: &mut u64) {
        match &mut self.remaining {
            Some(0) => return,
            Some(n) => *n -= 1,
            None => {}
        }
        let req = match self.ring.pop_front() {
            Some(req) => Some(req),
            None => {
                if COUNT {
                    *refills += 1;
                }
                self.source.refill(self.ready_at, GEN_BATCH, &mut self.ring);
                self.ring.pop_front()
            }
        };
        if let Some(req) = req {
            self.pending = Some((req, self.ready_at + req.think_time_ps));
        }
    }
}

/// The loop copy's result: the report it computed, its spans, and the
/// events it captured (when asked to).
pub struct LoopRun {
    pub report: RunReport,
    pub spans: LoopSpans,
    pub events: Vec<MemEvent>,
}

/// Drives `sources` through a fresh [`System`] the way `Session::run`
/// does, calling only public `System` methods, with sampled spans. The
/// event log is on when an observer rides or `capture` is set. Only a
/// capturing run also counts refills, probes and events: the faithful
/// run does no work per iteration beyond the sampling countdown, so its
/// time can be held against the program's.
pub fn run_loop(
    cell: &Cell,
    sources: Vec<Box<dyn RequestSource>>,
    budget: Option<u32>,
    observer: Option<&mut dyn ChannelObserver>,
    capture: bool,
) -> LoopRun {
    if capture {
        drive::<true>(cell, sources, budget, observer)
    } else {
        drive::<false>(cell, sources, budget, observer)
    }
}

fn drive<const CAPTURE: bool>(
    cell: &Cell,
    sources: Vec<Box<dyn RequestSource>>,
    budget: Option<u32>,
    mut observer: Option<&mut dyn ChannelObserver>,
) -> LoopRun {
    let run_start = Instant::now();
    let mut system = System::new(cell.cfg, cell.scheme, cell.policy, cell.mapping, cell.seed);
    let build_ns = run_start.elapsed().as_nanos() as f64;
    let single_channel = system.channel_count() == 1;
    let log = observer.is_some() || CAPTURE;
    if log {
        system.enable_event_log();
    }
    let mlp = u64::from(cell.cfg.core_mlp).max(1);
    let mlp_shift = mlp.is_power_of_two().then(|| mlp.trailing_zeros());
    let mut cores: Vec<Core> = sources
        .into_iter()
        .map(|source| Core {
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
    let loop_start = Instant::now();
    let mut s = Sampler::new(loop_start);
    for c in &mut cores {
        c.fetch::<CAPTURE>(&mut s.spans.refills);
    }
    let mut captured = Vec::new();
    let mut batch: Vec<MemEvent> = Vec::new();

    // One service decision: serve the earliest-ready channel, forward its
    // events, credit the core (blocking miss absorbing 1/MLP of the
    // stall) and fetch its next request. Returns the serviced core.
    let mut service = |system: &mut System, cores: &mut [Core], s: &mut Sampler| {
        let ch = system.earliest_ready()?;
        s.lap(PLAN);
        let c = system
            .service_channel(ch)
            .expect("earliest-ready channel is non-empty");
        s.lap(SERVICE);
        if log && s.timing() {
            // Buffered, so the drain and the observer get spans of their
            // own; the buffering is instrumentation and is taken off with
            // the rest.
            batch.clear();
            batch.extend(system.drain_events_global(ch));
            s.lap(DRAIN);
            if let Some(obs) = observer.as_deref_mut() {
                for e in &batch {
                    obs.on_event(e);
                }
                s.lap(OBSERVE);
            }
            if CAPTURE {
                s.spans.events += batch.len() as u64;
                captured.extend_from_slice(&batch);
                s.lap(DRAIN);
            }
        } else if log {
            // Forwarded as `Sim::run` forwards them.
            for e in system.drain_events_global(ch) {
                if let Some(obs) = observer.as_deref_mut() {
                    obs.on_event(&e);
                }
                if CAPTURE {
                    s.spans.events += 1;
                    captured.push(e);
                }
            }
        }
        let idx = c.core as usize;
        let core = &mut cores[idx];
        let stall = match mlp_shift {
            Some(shift) => (c.completion_ps - c.arrival_ps) >> shift,
            None => (c.completion_ps - c.arrival_ps) / mlp,
        };
        core.ready_at = c.arrival_ps + stall;
        core.finish = core.finish.max(c.completion_ps);
        core.serviced += 1;
        s.lap(SESSION);
        core.fetch::<CAPTURE>(&mut s.spans.refills);
        s.lap(FETCH);
        Some(idx)
    };

    if single_channel {
        // Only the minimum pending (issue, core) key can be admissible.
        let mut arrivals: BinaryHeap<Reverse<(u64, usize)>> = cores
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.pending.map(|(_, issue)| Reverse((issue, i))))
            .collect();
        loop {
            s.begin();
            if let Some(&Reverse((issue, i))) = arrivals.peek() {
                if CAPTURE {
                    s.spans.probes += 1;
                }
                if system.admissible(0, issue) {
                    arrivals.pop();
                    let (req, _) = cores[i].pending.take().expect("pending checked");
                    system.push_to(0, req, i as u32, issue);
                    s.lap(ADMIT);
                    continue;
                }
            }
            s.lap(ADMIT);
            let Some(idx) = service(&mut system, &mut cores, &mut s) else {
                break;
            };
            if let Some((_, issue)) = cores[idx].pending {
                arrivals.push(Reverse((issue, idx)));
            }
            s.lap(ADMIT);
        }
    } else {
        // Pending arrivals in (issue, core) order, each with its routed
        // channel cached at fetch; a blocked channel must not starve
        // another channel's admissible arrival.
        let mut arrivals: BTreeSet<(u64, usize)> = BTreeSet::new();
        for (i, c) in cores.iter_mut().enumerate() {
            if let Some((req, issue)) = c.pending {
                c.route = system.route(req.addr);
                arrivals.insert((issue, i));
            }
        }
        loop {
            s.begin();
            let mut admitted = None;
            for &(issue, i) in &arrivals {
                if CAPTURE {
                    s.spans.probes += 1;
                }
                let ch = cores[i].route;
                if system.admissible(ch, issue) {
                    admitted = Some((issue, i, ch));
                    break;
                }
            }
            if let Some((issue, i, ch)) = admitted {
                arrivals.remove(&(issue, i));
                let (req, _) = cores[i].pending.take().expect("pending checked");
                system.push_to(ch, req, i as u32, issue);
                s.lap(ADMIT);
                continue;
            }
            s.lap(ADMIT);
            let Some(idx) = service(&mut system, &mut cores, &mut s) else {
                break;
            };
            if let Some((req, issue)) = cores[idx].pending {
                cores[idx].route = system.route(req.addr);
                arrivals.insert((issue, idx));
            }
            s.lap(ADMIT);
        }
    }
    let loop_ns = loop_start.elapsed().as_nanos() as f64;

    let duration = cores.iter().map(|c| c.finish).max().unwrap_or(0);
    system.finish(duration);
    let result = system.result();
    let with_hw = !matches!(cell.scheme, MitigationScheme::Baseline);
    let report = RunReport {
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
        events: Vec::new(),
        telemetry: None,
    };
    let mut spans = s.spans;
    // Every request is admitted once and serviced by one decision.
    spans.requests = result.requests;
    spans.plans = (0..system.channel_count())
        .map(|ch| system.channel(ch).plans_computed())
        .sum();
    spans.build_ns = build_ns;
    spans.loop_ns = loop_ns;
    spans.total_ns = run_start.elapsed().as_nanos() as f64;
    LoopRun {
        report,
        spans,
        events: captured,
    }
}

/// Host time the replayed backends spent, by call kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Per-activation calls (`on_activation`, MC-PARA's sampling draw).
    pub act_ns: f64,
    pub act_calls: u64,
    /// Per-refresh calls (`on_refresh` at REF and RFM, the MC-side table
    /// reset).
    pub ref_ns: f64,
    pub ref_calls: u64,
    /// `on_mitigative_refresh` calls.
    pub victim_ns: f64,
    pub victim_calls: u64,
    /// Mitigations reproduced (victim refreshes matched to the log).
    pub mitigations: u64,
}

impl ReplayStats {
    pub fn total_ns(&self) -> f64 {
        self.act_ns + self.ref_ns + self.victim_ns
    }

    pub fn absorb(&mut self, o: &ReplayStats) {
        self.act_ns += o.act_ns;
        self.act_calls += o.act_calls;
        self.ref_ns += o.ref_ns;
        self.ref_calls += o.ref_calls;
        self.victim_ns += o.victim_ns;
        self.victim_calls += o.victim_calls;
        self.mitigations += o.mitigations;
    }
}

/// Runs `f`, returning its value and its duration net of clock cost.
#[inline]
fn timed<T>(clock: Clock, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    let ns = (t0.elapsed().as_nanos() as f64 - clock.read_ns).max(0.0);
    (v, ns)
}

/// Replays a cell's captured command stream (system-global bank indices)
/// through fresh per-bank backends built and seeded like the channels'
/// own, timing every tracker call, and checks that the replay requests
/// exactly the logged victim refreshes.
pub fn replay(
    cfg: &SystemConfig,
    scheme: MitigationScheme,
    seed: u64,
    events: &[MemEvent],
    clock: Clock,
) -> Result<ReplayStats, String> {
    let bpc = cfg.banks_per_channel();
    let mut rngs: Vec<Xoshiro256StarStar> = Vec::new();
    let mut banks: Vec<MitigationBackend> = Vec::new();
    for c in 0..cfg.channels {
        // Each channel's engine seeds one generator, builds its banks'
        // backends from it in bank order, then draws from it at run time.
        let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(seed, 0xC0 + u64::from(c)));
        for _ in 0..bpc {
            banks.push(MitigationBackend::for_scheme(scheme, cfg, &mut rng));
        }
        rngs.push(rng);
    }
    let refw = refis_per_refw();
    let mut st = ReplayStats::default();
    // Victim refreshes the replay requested and the log has yet to show,
    // as (bank, row, at_ps).
    let mut expected: VecDeque<(u32, u32, u64)> = VecDeque::new();
    // Performs a mitigation as the engine does: one victim refresh per
    // in-bank victim row, each shown to the tracker that asked for it.
    let apply = |st: &mut ReplayStats,
                 expected: &mut VecDeque<(u32, u32, u64)>,
                 mut tracker: Option<&mut (dyn InDramTracker + Send)>,
                 d: MitigationDecision,
                 bank: u32,
                 at_ps: u64| {
        for v in d.victim_rows(cfg.blast_radius) {
            if v.0 >= cfg.rows_per_bank {
                continue;
            }
            expected.push_back((bank, v.0, at_ps));
            if let Some(t) = tracker.as_deref_mut() {
                let ((), ns) = timed(clock, || t.on_mitigative_refresh(v));
                st.victim_ns += ns;
                st.victim_calls += 1;
            }
        }
    };
    for (n, e) in events.iter().enumerate() {
        let bank = e.bank();
        let rng = &mut rngs[(bank / bpc) as usize];
        let backend = &mut banks[bank as usize];
        match *e {
            MemEvent::Act { row, at_ps, .. } => match backend {
                MitigationBackend::None => {}
                MitigationBackend::InDram(t) | MitigationBackend::McTracker(t) => {
                    let (d, ns) = timed(clock, || t.on_activation(RowId(row), rng));
                    st.act_ns += ns;
                    st.act_calls += 1;
                    if let Some(d) = d {
                        apply(&mut st, &mut expected, Some(t.as_mut()), d, bank, at_ps);
                    }
                }
                MitigationBackend::McSample { p } => {
                    let p = *p;
                    let (hit, ns) = timed(clock, || rng.gen_bool(p));
                    st.act_ns += ns;
                    st.act_calls += 1;
                    if hit {
                        apply(
                            &mut st,
                            &mut expected,
                            None,
                            MitigationDecision::Aggressor(RowId(row)),
                            bank,
                            at_ps,
                        );
                    }
                }
            },
            MemEvent::Ref {
                ref_index, at_ps, ..
            } => match backend {
                MitigationBackend::InDram(t) => {
                    let (d, ns) = timed(clock, || t.on_refresh(rng));
                    st.ref_ns += ns;
                    st.ref_calls += 1;
                    apply(&mut st, &mut expected, Some(t.as_mut()), d, bank, at_ps);
                }
                MitigationBackend::McTracker(t) if ref_index % refw == 0 => {
                    let ((), ns) = timed(clock, || t.reset(rng));
                    st.ref_ns += ns;
                    st.ref_calls += 1;
                }
                _ => {}
            },
            MemEvent::Rfm { at_ps, .. } => {
                if let MitigationBackend::InDram(t) = backend {
                    let (d, ns) = timed(clock, || t.on_refresh(rng));
                    st.ref_ns += ns;
                    st.ref_calls += 1;
                    apply(&mut st, &mut expected, Some(t.as_mut()), d, bank, at_ps);
                }
            }
            MemEvent::MitigativeRefresh { row, at_ps, .. } => {
                let logged = (bank, row, at_ps);
                match expected.pop_front() {
                    Some(want) if want == logged => st.mitigations += 1,
                    want => {
                        return Err(format!(
                            "event {n}: log has victim refresh {logged:?}, replay expected {want:?}"
                        ))
                    }
                }
            }
            MemEvent::Pre { .. } | MemEvent::Drfm { .. } => {}
        }
    }
    if let Some(extra) = expected.front() {
        return Err(format!(
            "replay requested {} victim refreshes the log never shows (first {extra:?})",
            expected.len()
        ));
    }
    Ok(st)
}
