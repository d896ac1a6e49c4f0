//! The benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo_mcf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` runs the traced pass and reports the per-layer metrics instead.
//! Every run prints one `name value unit` line per metric, then a JSON
//! summary as its last line. `--record-golden` prints the golden digests
//! of the simulated workloads at the default and held-out seeds (the
//! content of `golden.txt`). See README.md for the workloads, metrics and
//! predictions.

mod cells;
mod host;
mod measure;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use cells::{Goldens, Plan, Scale, Workload, DEFAULT_SEED, GOLDEN_TEXT, HELD_OUT_SEED};
use host::HostClock;
use measure::{Metric, TraceAgg, UNATTRIBUTED_TOLERANCE};
use serve::ServeLayers;
use stats::{median, percentile, report_digest};
use trace::Clock;

/// `setup_s` is the median of this many samples of set-up time…
const SETUP_SAMPLES: usize = 21;
/// …each the mean of this many back-to-back set-ups.
const SETUP_BATCH: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    RecordGolden,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            return Ok(Command::RecordGolden);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: need a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: need 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required (zoo_mcf, saturate, redteam, serve)")?,
        seed,
        seconds,
        trace,
    }))
}

/// Fixes the harness worker count (which sizes `System::new`'s channel
/// fan-out and the service pool) at no more than the host's parallelism,
/// so `MINT_JOBS` cannot change what is measured. Returns (workers,
/// nproc).
fn fix_workers() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = nproc.min(2);
    mint_exp::set_jobs(workers);
    (workers, nproc)
}

/// What one run measured.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// `key=value` facts about the run (percentile, sample count, …).
    facts: Vec<(String, String)>,
    /// The traced run's span file, when tracing.
    trace_text: Option<String>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Runs `setup` [`SETUP_SAMPLES`] × [`SETUP_BATCH`] times, handing all
/// but the last result to `discard` (untimed), and returns the last
/// result with the median over samples of the mean set-up time within a
/// sample — set-up takes microseconds, so one sample averages a batch —
/// each sample at the reference host speed read around it.
fn repeated_setup<T>(
    host: &mut HostClock,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut samples = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_SAMPLES {
        let before = host.last();
        let mut spent = 0.0;
        for _ in 0..SETUP_BATCH {
            if let Some(prev) = kept.take() {
                discard(prev)?;
            }
            let t = Instant::now();
            kept = Some(setup()?);
            spent += t.elapsed().as_secs_f64();
        }
        samples.push(host::at_reference(
            spent / SETUP_BATCH as f64,
            before,
            host.read(),
        ));
    }
    Ok((kept.expect("at least one setup"), median(&samples)))
}

/// The latency, throughput, set-up and memory metrics every workload
/// reports.
fn end_to_end(
    latencies_s: &[f64],
    req_per_s: f64,
    jobs_per_s: f64,
    setup_s: f64,
    tail: f64,
) -> Result<Vec<Metric>, String> {
    if !stats::tail_ok(latencies_s.len(), tail) {
        return Err(format!(
            "{} jobs leave fewer than {} beyond p{tail}",
            latencies_s.len(),
            stats::TAIL_BEYOND
        ));
    }
    Ok(vec![
        metric("req_per_s", req_per_s, "req/s"),
        metric("job_p50_ms", median(latencies_s) * 1e3, "ms"),
        metric("job_tail_ms", percentile(latencies_s, tail).0 * 1e3, "ms"),
        metric("jobs_per_s", jobs_per_s, "job/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", stats::peak_rss_mib()?, "MiB"),
    ])
}

/// The quartiles of the job latencies, for the facts line.
fn iqr_ms(latencies_s: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(latencies_s);
    format!("{:.3}..{:.3}", q1 * 1e3, q3 * 1e3)
}

/// Runs one workload end to end (or traced) and returns its metrics.
fn measure_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    golden_text: &str,
    workers: usize,
) -> Result<Outcome, String> {
    let tail = workload.tail_percentile();
    let mut facts = vec![("tail_percentile".to_string(), format!("p{tail}"))];
    let mut host = HostClock::new();
    if workload == Workload::Serve {
        let ((running, mixes), setup_s) = repeated_setup(
            &mut host,
            || {
                let mixes: Vec<_> = (0..workers).map(|c| serve::mix(seed, scale, c)).collect();
                Ok((serve::start(workers)?, mixes))
            },
            |(running, _)| serve::stop(running, Vec::new()),
        )?;
        facts.push(("connections".into(), mixes.len().to_string()));
        facts.push((
            "in_flight_per_connection".into(),
            serve::IN_FLIGHT.to_string(),
        ));
        if traced {
            let layers = serve::trace_layers(&running, &mixes)?;
            serve::stop(running, Vec::new())?;
            let plan = Plan {
                workload,
                seed,
                cells: serve::plain_cells(&mixes)?,
                redteam: None,
            };
            return traced_outcome(&plan, &layers, facts);
        }
        let min_jobs = (1..)
            .find(|&n| stats::tail_ok(n, tail))
            .expect("some sample count satisfies the tail rule");
        let (served, others) = serve::run_timed(&running, &mixes, seconds, min_jobs, &mut host)?;
        serve::stop(running, others)?;
        facts.push(("samples".into(), served.latencies_s.len().to_string()));
        facts.push(("job_iqr_ms".into(), iqr_ms(&served.latencies_s)));
        facts.push((
            "host_speed".into(),
            format!("{:.3}", served.scaled_s / served.wall_s),
        ));
        return Ok(Outcome {
            metrics: end_to_end(
                &served.latencies_s,
                served.requests as f64 / served.scaled_s,
                served.latencies_s.len() as f64 / served.scaled_s,
                setup_s,
                tail,
            )?,
            attempted: served.attempted,
            failed: served.failed,
            facts,
            trace_text: None,
        });
    }

    let ((plan, goldens), setup_s) = repeated_setup(
        &mut host,
        || {
            Ok((
                Plan::new(workload, seed, scale)?,
                Goldens::parse(golden_text)?,
            ))
        },
        |_| Ok(()),
    )?;
    if traced {
        return traced_outcome(&plan, &ServeLayers::default(), facts);
    }
    let timed = measure::timed_sim(&plan, &goldens, seconds, &mut host)?;
    let latencies_s = timed.latencies_s();
    facts.push(("samples".into(), latencies_s.len().to_string()));
    facts.push(("job_iqr_ms".into(), iqr_ms(&latencies_s)));
    facts.push(("host_speed".into(), format!("{:.3}", timed.host_speed())));
    Ok(Outcome {
        metrics: end_to_end(
            &latencies_s,
            timed.req_per_s(),
            timed.jobs_per_s(),
            setup_s,
            tail,
        )?,
        attempted: timed.attempted,
        failed: timed.failed,
        facts,
        trace_text: None,
    })
}

/// Traces `plan`'s cells, checks the span reconciliation, and reports the
/// per-layer metrics.
fn traced_outcome(
    plan: &Plan,
    serve: &ServeLayers,
    mut facts: Vec<(String, String)>,
) -> Result<Outcome, String> {
    let clock = Clock::calibrate();
    let mut agg = TraceAgg::default();
    measure::trace_cells(plan, clock, &mut agg)?;
    let share = measure::unattributed_share(&agg);
    // The share is a sampled estimate; below a sample floor (the tests'
    // tiny cells) it is reported but too noisy to hold to the tolerance.
    if agg.faithful.sampled >= measure::MIN_CHECKED_SAMPLES && share > UNATTRIBUTED_TOLERANCE {
        return Err(format!(
            "self-check: layer self times miss the production loop's time by {:.1}% \
             (tolerance {:.0}%)",
            share * 100.0,
            UNATTRIBUTED_TOLERANCE * 100.0
        ));
    }
    facts.push(("traced_cells".into(), agg.cells.to_string()));
    facts.push(("clock_read_ns".into(), clock.read_ns.to_string()));
    Ok(Outcome {
        metrics: measure::layer_metrics(&agg, serve),
        attempted: agg.cells,
        failed: 0,
        facts,
        trace_text: Some(measure::trace_file(&agg)),
    })
}

/// The last line of every run.
fn json_summary(o: &Outcome) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in &o.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        fields.join(", ")
    ))
}

fn record_golden() -> Result<(), String> {
    println!("# workload seed cell digest (printed by --record-golden)");
    for workload in [Workload::ZooMcf, Workload::Saturate, Workload::Redteam] {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let plan = Plan::new(workload, seed, &Scale::full())?;
            for cell in &plan.cells {
                let run = cell.run(&plan)?;
                println!(
                    "{} {seed} {} {}",
                    workload.name(),
                    cell.label,
                    report_digest(&run.report, run.oracle.as_ref())
                );
            }
        }
    }
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let command = parse_args(argv)?;
    let (workers, nproc) = fix_workers();
    let args = match command {
        Command::RecordGolden => return record_golden(),
        Command::Run(args) => args,
    };
    let outcome = measure_workload(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Scale::full(),
        GOLDEN_TEXT,
        workers,
    )?;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut facts = format!(
        "# perfbench workload={} seed={} trace={} workers={workers} nproc={nproc} profile={profile}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &outcome.facts {
        facts.push_str(&format!(" {k}={v}"));
    }
    println!("{facts}");
    if let Some(text) = &outcome.trace_text {
        let path = std::path::Path::new(serve::WORK_DIR).join(format!(
            "trace-{}-{}.tsv",
            args.workload.name(),
            args.seed
        ));
        std::fs::create_dir_all(serve::WORK_DIR).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {} fraction ({} of {} operations failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", json_summary(&outcome)?);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-size pass of a workload through the same code path the
    /// benchmark runs, timed and traced.
    fn tiny(workload: Workload) {
        let (workers, _) = fix_workers();
        for traced in [false, true] {
            let o = measure_workload(workload, 3, 0.2, traced, &Scale::tiny(), "", workers)
                .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
            assert_eq!(o.failed, 0, "{}", workload.name());
            assert!(o.attempted > 0);
            json_summary(&o).expect("finite metrics");
            let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
            if traced {
                assert!(names.contains(&"trackers.mithril.ns_per_req"));
                assert!(names.contains(&"trace.unattributed_share"));
            } else {
                assert_eq!(
                    names,
                    [
                        "req_per_s",
                        "job_p50_ms",
                        "job_tail_ms",
                        "jobs_per_s",
                        "setup_s",
                        "peak_rss_mb"
                    ]
                );
            }
        }
    }

    #[test]
    fn tiny_zoo_mcf() {
        tiny(Workload::ZooMcf);
    }

    #[test]
    fn tiny_saturate() {
        tiny(Workload::Saturate);
    }

    #[test]
    fn tiny_redteam() {
        tiny(Workload::Redteam);
    }

    #[test]
    fn tiny_serve() {
        tiny(Workload::Serve);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload zoo_mcf --seed 7 --seconds 3 --trace 1")).is_ok());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload serve --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    #[test]
    fn a_golden_mismatch_counts_as_a_failure() {
        let plan = Plan::new(Workload::Saturate, 3, &Scale::tiny()).unwrap();
        let wrong = format!("saturate 3 {} 0000000000000000\n", plan.cells[0].label);
        let goldens = Goldens::parse(&wrong).unwrap();
        let timed = measure::timed_sim(&plan, &goldens, 0.01, &mut HostClock::new()).unwrap();
        assert!(timed.failed > 0);
        assert_eq!(
            timed.failed,
            timed.attempted / 2,
            "every run of the first cell fails, none of the second"
        );
    }
}
