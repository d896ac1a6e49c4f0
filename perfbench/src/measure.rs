//! Timed and traced runs of the simulated workloads, and the per-layer
//! metrics the traced run yields.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mint_memsys::{ChannelObserver, MitigationScheme};

use crate::cells::{Goldens, Plan};
use crate::host::{self, HostClock};
use crate::serve::ServeLayers;
use crate::stats::{self, report_digest};
use crate::trace::{self, Clock, LoopSpans, ReplayStats, Span, LAYERS};

/// The largest share of the traced loop's time the layer spans may leave
/// unexplained before the traced run fails its self-check.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.15;

/// Timed loop iterations below which that check is not applied.
pub const MIN_CHECKED_SAMPLES: u64 = 10_000;

/// One timed pass over a workload's cells.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub requests: u64,
    /// Summed `Sim::run` host seconds.
    pub host_s: f64,
    /// The same at the reference host speed.
    pub scaled_s: f64,
}

/// The timed (untraced) run of a simulated workload, checked. Its job is
/// one pass over the workload's cells (one zoo sweep, one saturate pair,
/// one red-team campaign): cells of different schemes differ in cost by
/// 10×, so a percentile over single cells would land on the edge between
/// two schemes and jump with them. Every pass carries the same requests,
/// so `req_per_s` and `jobs_per_s` are one measurement in two units.
pub struct Timed {
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Seconds of each pass at the reference speed (the job latencies).
    pub fn latencies_s(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.scaled_s).collect()
    }

    fn scaled_total_s(&self) -> f64 {
        self.passes.iter().map(|p| p.scaled_s).sum()
    }

    /// Requests per second at the reference speed, over all passes.
    pub fn req_per_s(&self) -> f64 {
        let requests: u64 = self.passes.iter().map(|p| p.requests).sum();
        requests as f64 / self.scaled_total_s()
    }

    /// Passes per second at the reference speed.
    pub fn jobs_per_s(&self) -> f64 {
        self.passes.len() as f64 / self.scaled_total_s()
    }

    /// The host's mean speed over the passes, relative to the reference.
    pub fn host_speed(&self) -> f64 {
        self.scaled_total_s() / self.passes.iter().map(|p| p.host_s).sum::<f64>()
    }
}

/// Runs one untimed warm-up pass, then whole timed passes over the plan's
/// cells for about `seconds` (and until the tail percentile has ten
/// samples beyond it), reading `host` after every pass and checking every
/// cell's digest against its golden — or, for seeds without goldens,
/// against the warm-up pass.
pub fn timed_sim(
    plan: &Plan,
    goldens: &Goldens,
    seconds: f64,
    host: &mut HostClock,
) -> Result<Timed, String> {
    let tail = plan.workload.tail_percentile();
    let cap = (3.0 * seconds).clamp(30.0, 120.0);
    let mut out = Timed {
        passes: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut first: Vec<Option<String>> = vec![None; plan.cells.len()];
    let mut start = Instant::now();
    let mut warm = false;
    loop {
        let mut pass = (0u64, 0.0);
        for (cell, first) in plan.cells.iter().zip(&mut first) {
            let t = Instant::now();
            let run = cell.run(plan)?;
            let dt = t.elapsed().as_secs_f64();
            pass.0 += run.report.perf.result.requests;
            pass.1 += dt;
            out.attempted += 1;
            let digest = report_digest(&run.report, run.oracle.as_ref());
            let want = match (goldens.get(plan.workload, plan.seed, &cell.label), &*first) {
                (Some(golden), _) => Some(golden.to_string()),
                (None, Some(earlier)) => Some(earlier.clone()),
                (None, None) => None,
            };
            if first.is_none() {
                eprintln!(
                    "digest {} {} {} {digest} ({:.3} ms)",
                    plan.workload.name(),
                    plan.seed,
                    cell.label,
                    dt * 1e3
                );
                *first = Some(digest.clone());
            }
            if want.as_ref().is_some_and(|w| *w != digest) {
                out.failed += 1;
                eprintln!(
                    "mismatch: {} seed {} cell {}: digest {digest}, expected {}",
                    plan.workload.name(),
                    plan.seed,
                    cell.label,
                    want.unwrap_or_default()
                );
            }
        }
        if !warm {
            warm = true;
            start = Instant::now();
            host.read();
            continue;
        }
        let before = host.last();
        let after = host.read();
        out.passes.push(Pass {
            requests: pass.0,
            host_s: pass.1,
            scaled_s: host::at_reference(pass.1, before, after),
        });
        let passes = out.passes.len();
        eprintln!(
            "pass {passes}: {:.4}s of cell runs, host reference {:.3} ms",
            pass.1,
            after / 1e6
        );
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes as f64;
        let tail_ok = stats::tail_ok(passes, tail);
        if tail_ok && elapsed + per_pass / 2.0 >= seconds {
            break;
        }
        if elapsed >= cap {
            if tail_ok {
                break;
            }
            return Err(format!(
                "only {passes} passes in {elapsed:.0}s: too few for the p{tail} tail"
            ));
        }
    }
    Ok(out)
}

/// Per-scheme totals of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeAgg {
    pub requests: u64,
    pub sim_ns: f64,
    pub tracker_ns: f64,
}

/// Loop-copy runs per cell in the traced run, each bracketed in time by
/// production runs, so a change in host speed hits both sides alike.
pub const TRACE_REPS: usize = 5;

/// Everything the traced run of a set of cells measured.
#[derive(Default)]
pub struct TraceAgg {
    /// The loop copy run as the production run is (observer when the cell
    /// has one, no capture, no counting), [`TRACE_REPS`] times per cell.
    pub faithful: LoopSpans,
    /// The faithful runs of observed cells only.
    pub observed: LoopSpans,
    /// Events those runs forwarded (counted by the capturing runs).
    pub observed_events: u64,
    /// The loop copy with the event log on, capturing for the replay and
    /// counting, once per cell.
    pub capture: LoopSpans,
    pub replay: ReplayStats,
    /// Mean host time of a production run (`Sim::run`), summed over cells.
    pub sim_ns: f64,
    /// For every faithful run, the mean of the production runs on either
    /// side of it…
    pub reference_ns: f64,
    /// …and the same less what the copy timed outside its loop (sources,
    /// observer, `System::new`, report, oracle summary): the program's
    /// loop time, measured apart from the spans, which the layer self
    /// times are checked against.
    pub reference_loop_ns: f64,
    /// Demand ACTs + CAS bursts + RFM + DRFM over all cells.
    pub commands: u64,
    pub cells: u64,
    pub schemes: BTreeMap<String, SchemeAgg>,
    /// Raw spans of each cell's first faithful run, for the trace file.
    pub spans: Vec<(String, Vec<Span>)>,
}

/// Traces every cell of `plan`: production runs (`Sim::run`, the
/// untraced reference) alternating with [`TRACE_REPS`] faithful
/// loop-copy runs with spans, then one capturing loop-copy run and the
/// tracker replay of the captured stream. Fails on the first self-check
/// that breaks.
pub fn trace_cells(plan: &Plan, clock: Clock, agg: &mut TraceAgg) -> Result<(), String> {
    for cell in &plan.cells {
        // The first run gives the reference report; its time, with cold
        // caches, is not used.
        let run = cell.run(plan)?;
        let t = Instant::now();
        std::hint::black_box(cell.run(plan)?);
        let mut before_ns = t.elapsed().as_nanos() as f64;
        let mut sim_ns = 0.0;
        let mut observed = false;
        for rep in 0..TRACE_REPS {
            // What `Sim::run` does outside its loop — building sources,
            // observer and system, then the report and the oracle's
            // summary — is timed on the copy's side and taken off the
            // production time.
            let t = Instant::now();
            let (sources, budget) = cell.sources(plan);
            let mut oracle = cell.observer(plan);
            let mut outside_ns = t.elapsed().as_nanos() as f64;
            let observer = oracle.as_mut().map(|o| o as &mut dyn ChannelObserver);
            let faithful = trace::run_loop(cell, sources, budget, observer, false);
            let t = Instant::now();
            let summary = oracle.as_ref().map(|o| o.summary());
            outside_ns +=
                t.elapsed().as_nanos() as f64 + faithful.spans.total_ns - faithful.spans.loop_ns;
            let t = Instant::now();
            std::hint::black_box(cell.run(plan)?);
            let after_ns = t.elapsed().as_nanos() as f64;
            if faithful.report != run.report {
                return Err(format!(
                    "self-check: the loop copy diverged from Sim::run on cell {}: {:?} vs {:?}",
                    cell.label, faithful.report.perf, run.report.perf
                ));
            }
            if summary != run.oracle {
                return Err(format!(
                    "self-check: the loop copy's oracle diverged on cell {}",
                    cell.label
                ));
            }
            let bracket_ns = (before_ns + after_ns) / 2.0;
            before_ns = after_ns;
            sim_ns += bracket_ns / TRACE_REPS as f64;
            agg.reference_ns += bracket_ns;
            agg.reference_loop_ns += (bracket_ns - outside_ns).max(0.0);
            agg.faithful.absorb(&faithful.spans);
            observed = oracle.is_some();
            if observed {
                agg.observed.absorb(&faithful.spans);
            }
            if rep == 0 {
                agg.spans.push((cell.label.clone(), faithful.spans.raw));
            }
        }

        let (sources, budget) = cell.sources(plan);
        let captured = trace::run_loop(cell, sources, budget, None, true);
        if captured.report != run.report {
            return Err(format!(
                "self-check: the capturing loop copy diverged on cell {}",
                cell.label
            ));
        }
        let replay = trace::replay(&cell.cfg, cell.scheme, cell.seed, &captured.events, clock)
            .map_err(|e| format!("self-check: tracker replay of cell {}: {e}", cell.label))?;

        let r = &run.report.perf.result;
        agg.commands += r.demand_acts + r.requests + r.rfm_commands + r.drfm_commands;
        agg.cells += 1;
        agg.sim_ns += sim_ns;
        agg.capture.absorb(&captured.spans);
        if observed {
            agg.observed_events += captured.spans.events * TRACE_REPS as u64;
        }
        agg.replay.absorb(&replay);
        let s = agg.schemes.entry(metric_label(cell.scheme)).or_default();
        s.requests += r.requests;
        s.sim_ns += sim_ns;
        s.tracker_ns += replay.total_ns();
    }
    Ok(())
}

/// A scheme label reduced to `[a-z0-9_.-]` for metric names
/// (`MC-PARA(1/40)` → `mc-para_1_40`).
pub fn metric_label(scheme: MitigationScheme) -> String {
    let lower = scheme.label().to_ascii_lowercase();
    let mapped: String = lower
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    mapped.trim_matches('_').to_string()
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// How far the layer self times of the traced loop copy miss the
/// production loop's own time, measured apart from the spans:
/// `|1 − Σ self / reference loop|`. Spans that drop time, count it twice,
/// or mis-estimate their own cost, and a copy that runs at another speed
/// than the program, all show here.
pub fn unattributed_share(agg: &TraceAgg) -> f64 {
    let attributed: f64 = agg.faithful.self_ns().iter().sum();
    if agg.reference_loop_ns > 0.0 {
        (1.0 - attributed / agg.reference_loop_ns).abs()
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not exercise report 0.
pub fn layer_metrics(agg: &TraceAgg, serve: &ServeLayers) -> Vec<Metric> {
    let f = &agg.faithful;
    let own = f.self_ns();
    // Every request is serviced by one scheduling decision.
    let requests = f.requests as f64;
    let c = &agg.capture;
    let capture_self = c.self_ns();
    let observed_self = agg.observed.self_ns();
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    push("workload.ns_per_req", ratio(own[5], requests), "ns/req");
    push(
        "workload.refills_per_req",
        ratio(c.refills as f64, c.requests as f64),
        "refill/req",
    );
    push("system.admit_ns_per_req", ratio(own[0], requests), "ns/req");
    push(
        "system.probes_per_admit",
        ratio(c.probes as f64, c.requests as f64),
        "probe/admit",
    );
    push(
        "sched.plan_ns_per_decision",
        ratio(own[1], requests),
        "ns/decision",
    );
    push(
        "sched.plans_per_decision",
        ratio(f.plans as f64, requests),
        "plan/decision",
    );
    push(
        "controller.ns_per_decision",
        ratio(own[2], requests),
        "ns/decision",
    );
    push(
        "controller.cmds_per_req",
        ratio(agg.commands as f64, c.requests as f64),
        "cmd/req",
    );
    let r = &agg.replay;
    push(
        "trackers.ns_per_act",
        ratio(r.act_ns, r.act_calls as f64),
        "ns/act",
    );
    push(
        "trackers.ns_per_ref",
        ratio(r.ref_ns, r.ref_calls as f64),
        "ns/ref",
    );
    // Baseline carries no tracker, so it has no tracker metric.
    for scheme in MitigationScheme::zoo().into_iter().skip(1) {
        let label = metric_label(scheme);
        let s = agg.schemes.get(&label).copied().unwrap_or_default();
        push(
            &format!("trackers.{label}.ns_per_req"),
            ratio(s.tracker_ns, s.requests as f64),
            "ns/req",
        );
    }
    for scheme in MitigationScheme::zoo() {
        let label = metric_label(scheme);
        let s = agg.schemes.get(&label).copied().unwrap_or_default();
        push(
            &format!("sim.{label}.ns_per_req"),
            ratio(s.sim_ns, s.requests as f64),
            "ns/req",
        );
    }
    push(
        "system.build_ms",
        ratio(c.build_ns / 1e6, agg.cells as f64),
        "ms",
    );
    push(
        "events.ns_per_event",
        ratio(capture_self[3], c.events as f64),
        "ns/event",
    );
    push(
        "events.per_req",
        ratio(c.events as f64, c.requests as f64),
        "event/req",
    );
    push(
        "oracle.ns_per_event",
        ratio(observed_self[4], agg.observed_events as f64),
        "ns/event",
    );
    push("snapshot.save_ms", serve.save_ms, "ms");
    push("snapshot.restore_ms", serve.restore_ms, "ms");
    push("snapshot.kib", serve.kib, "KiB");
    push("serve.parse_us", serve.parse_us, "us");
    push("serve.render_us", serve.render_us, "us");
    push("serve.overhead_ms", serve.overhead_ms, "ms");
    push("obs.overhead", serve.obs_overhead, "ratio");
    push(
        "trace.overhead",
        ratio(f.total_ns, agg.reference_ns),
        "ratio",
    );
    push(
        "trace.unattributed_share",
        unattributed_share(agg),
        "fraction",
    );
    out
}

/// Renders the traced run for the trace file: per-layer self time, then
/// the raw sampled spans of each cell's faithful run.
pub fn trace_file(agg: &TraceAgg) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# layer\testimated_self_ns\tsampled_intervals");
    for (l, ns) in agg.faithful.self_ns().iter().enumerate() {
        let _ = writeln!(s, "{}\t{ns:.0}\t{}", LAYERS[l], agg.faithful.intervals[l]);
    }
    let _ = writeln!(
        s,
        "# loop_ns\t{:.0}\n# instrumentation_ns_per_interval\t{:.1}",
        agg.faithful.loop_ns,
        agg.faithful.interval_cost_ns()
    );
    let _ = writeln!(s, "# cell\tstep\tlayer\tstart_ns\tend_ns");
    for (cell, spans) in &agg.spans {
        for sp in spans {
            let _ = writeln!(
                s,
                "{cell}\t{}\t{}\t{}\t{}",
                sp.step, LAYERS[sp.layer], sp.start_ns, sp.end_ns
            );
        }
    }
    s
}
