//! # mint-serve — the resident scenario service
//!
//! `run_scenario --serve` turns the batch scenario runner into a
//! long-lived job server: clients stream `ScenarioSpec` / `ScenarioGrid`
//! text wrapped in JSON-lines envelopes (see [`wire`]) over stdin or a
//! unix socket, and the service streams one result line back per job.
//!
//! The execution model:
//!
//! * **Persistent worker pool** — [`Service`] holds `workers` threads
//!   (default: the `mint-exp` jobs resolution, i.e. `--jobs` /
//!   `MINT_JOBS` / available parallelism) fed from a bounded queue of
//!   [`QUEUE_DEPTH`] jobs; intake blocks when the queue is full, so an
//!   arbitrarily long input stream never balloons memory.
//! * **Concurrent connections** — [`Service::serve_unix`] accepts any
//!   number of simultaneous clients; every connection runs its own
//!   intake/emitter pair over the *shared* bounded queue and worker
//!   pool, and each job carries its reply channel, so responses route
//!   back to the submitting connection only.
//! * **Deterministic ordering** — every response line is tagged with its
//!   connection-local input-order sequence number at intake and
//!   re-serialized by that connection's emitter thread, so each
//!   connection's output byte stream is identical for any worker count
//!   (pinned by `ci_smoke`'s serve leg at jobs 1 vs 4).
//! * **Polled jobs** — a cell job runs as one live session through
//!   `Session::run_polled`, and a grid job runs every cell that way
//!   through `ScenarioGrid::run_polled`. Each asks for a pending cancel
//!   and a spent `timeout_ms` budget before its first decision and after
//!   every [`CHUNK`] requests, without forking a thread per job or
//!   checkpointing the session; the answer is the batch run's, bit for
//!   bit.
//! * **No host files** — a cell whose frontend is a `trace = <path>`
//!   answers `ok:false` before anything opens the path; batch
//!   `run_scenario` still replays traces.
//! * **Graceful drain** — EOF or a `shutdown` envelope stops intake;
//!   queued jobs still run and stream their results before
//!   [`Service::serve`] returns. Over a socket, `shutdown` also stops
//!   the accept loop once the other live connections have drained.
//! * **Service stats** — workers feed a [`ServeStats`] ledger (jobs
//!   completed, failed, cancelled and timed out, queue-wait and
//!   run-latency histograms); a `stats` envelope
//!   returns it as Prometheus text. This is the one layer of the stack
//!   allowed to read the wall clock — simulation telemetry is sampled
//!   on simulated picoseconds only.

pub mod wire;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, OnceLock};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mint_memsys::{parse_any, Scenario, ScenarioFrontend, SystemConfig};
use mint_obs::{Log2Histogram, Section, TelemetryReport};
use mint_rng::derive_seed;
use wire::Envelope;

/// Requests serviced between cancel/timeout checks of a running job (per
/// cell, for a grid), so a cancelled or timed-out job stops at the
/// following multiple of this.
pub const CHUNK: u64 = 65_536;

/// Jobs the intake loops may queue ahead of the workers before they
/// block (backpressure toward the clients rather than unbounded
/// buffering); shared across every connection of a socket service.
pub const QUEUE_DEPTH: usize = 16;

/// What `serve` saw on its input stream, returned after the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs accepted onto the queue (parsed `submit` envelopes).
    pub submitted: u64,
    /// Whether intake ended on a `shutdown` envelope (`false` = EOF).
    pub shutdown: bool,
}

/// Wall-clock service statistics, fed by the workers and rendered by
/// the `stats` envelope. Latencies are log₂-bucketed milliseconds.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Jobs a worker finished (success or error line emitted).
    pub jobs_completed: u64,
    /// Jobs answered with an error of their spec (it does not parse,
    /// build or fit the cores, or it names a trace file).
    pub jobs_failed: u64,
    /// Jobs a cancel stopped, queued or running.
    pub jobs_cancelled: u64,
    /// Jobs stopped by their `timeout_ms` budget.
    pub jobs_timed_out: u64,
    /// Submit-to-pickup wait per job, in milliseconds.
    pub queue_wait_ms: Log2Histogram,
    /// Pickup-to-result run time per job, in milliseconds.
    pub job_latency_ms: Log2Histogram,
}

impl ServeStats {
    /// Renders the ledger as a one-section [`TelemetryReport`]
    /// (section `serve`, the wall-clock edge of the obs stack).
    #[must_use]
    pub fn to_report(&self) -> TelemetryReport {
        let mut sec = Section::new("serve");
        sec.counter("jobs_completed", self.jobs_completed);
        sec.counter("jobs_failed", self.jobs_failed);
        sec.counter("jobs_cancelled", self.jobs_cancelled);
        sec.counter("jobs_timed_out", self.jobs_timed_out);
        sec.histogram("queue_wait_ms", self.queue_wait_ms.clone());
        sec.histogram("job_latency_ms", self.job_latency_ms.clone());
        let mut report = TelemetryReport::new();
        report.push(sec);
        report
    }

    /// Counts a finished job under its outcome: every `ok:false` answer
    /// in exactly one of failed, cancelled and timed out.
    fn record(&mut self, answer: &Result<String, JobError>) {
        self.jobs_completed += 1;
        match answer {
            Ok(_) => {}
            Err(JobError::Failed(_)) => self.jobs_failed += 1,
            Err(JobError::Cancelled) => self.jobs_cancelled += 1,
            Err(JobError::TimedOut(_)) => self.jobs_timed_out += 1,
        }
    }
}

/// Why a job answers `ok:false`.
#[derive(Debug)]
enum JobError {
    /// The spec's own error: it does not parse, build or fit, or it
    /// names a trace file.
    Failed(String),
    Cancelled,
    /// The `timeout_ms` budget, spent.
    TimedOut(u64),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Failed(why) => f.write_str(why),
            JobError::Cancelled => f.write_str("cancelled"),
            JobError::TimedOut(ms) => write!(f, "timed out after {ms}ms"),
        }
    }
}

struct Job {
    /// Connection-local submission order; the reply channel routes the
    /// line back to the emitter that understands this numbering.
    seq: u64,
    id: u64,
    spec: String,
    seed_base: Option<u64>,
    timeout_ms: Option<u64>,
    submitted: Instant,
    reply: mpsc::Sender<(u64, String)>,
    /// The submitting connection's live jobs, where its cancels land.
    live: LiveJobs,
}

impl Job {
    /// Whether a cancel for this job's id is pending on its connection.
    fn cancelled(&self) -> bool {
        self.live
            .lock()
            .expect("live jobs lock")
            .get(&self.id)
            .is_some_and(|live| live.cancelled)
    }

    /// Why the job must stop now, if it must: a pending cancel, or its
    /// `timeout_ms` budget spent since `started`.
    fn interrupted(&self, started: Instant) -> Option<JobError> {
        if self.cancelled() {
            return Some(JobError::Cancelled);
        }
        let budget = self.timeout_ms?;
        (started.elapsed() >= Duration::from_millis(budget)).then_some(JobError::TimedOut(budget))
    }

    /// Takes the answered job off its connection's live jobs. A pending
    /// cancel for its id is spent, so a later job reusing the id runs.
    fn answered(&self) {
        let mut live = self.live.lock().expect("live jobs lock");
        if let Some(entry) = live.get_mut(&self.id) {
            entry.jobs -= 1;
            entry.cancelled = false;
            if entry.jobs == 0 {
                live.remove(&self.id);
            }
        }
    }
}

/// One connection's queued and running jobs, by id. A cancel reaches
/// only these: it cannot stop another connection's job, and a cancel
/// for an id with no live job is acknowledged and dropped, so unspent
/// cancels die with their jobs and their connection.
type LiveJobs = Arc<Mutex<HashMap<u64, Live>>>;

/// The live jobs sharing one id on one connection.
#[derive(Debug, Default)]
struct Live {
    jobs: usize,
    cancelled: bool,
}

/// State shared by every worker and connection of one service run.
#[derive(Clone, Default)]
struct Shared {
    stats: Arc<Mutex<ServeStats>>,
}

/// A scenario service: a worker pool that serves one envelope stream
/// (stdin mode) or any number of concurrent socket connections.
#[derive(Debug, Clone, Copy)]
pub struct Service {
    workers: usize,
}

impl Default for Service {
    fn default() -> Self {
        Self::new()
    }
}

impl Service {
    /// A service sized by the `mint-exp` jobs resolution (`set_jobs` >
    /// `MINT_JOBS` > available parallelism).
    #[must_use]
    pub fn new() -> Self {
        Self {
            workers: mint_exp::resolve_jobs(None),
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Runs the service over one envelope stream: reads JSON-lines
    /// requests from `input` until EOF or `shutdown`, drains the queue,
    /// and writes one response line per request to `output` in input
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading `input` or writing `output`;
    /// malformed request lines are *not* errors (they produce an
    /// `"id":null` error line and the stream continues).
    pub fn serve<R, W>(&self, input: R, output: W) -> io::Result<ServeSummary>
    where
        R: BufRead,
        W: Write + Send,
    {
        let shared = Shared::default();
        std::thread::scope(|scope| {
            let job_tx = spawn_workers(scope, self.workers, &shared);
            let summary = handle_connection(input, output, &job_tx, &shared);
            // Closing the queue lets the workers drain and exit.
            drop(job_tx);
            summary
        })
    }

    /// Binds a unix socket at `path` (replacing any stale socket file)
    /// and serves connections **concurrently** over one shared worker
    /// pool and bounded job queue, until any connection sends
    /// `shutdown`; the socket file is removed on the way out.
    ///
    /// Each connection keeps its own submission-order output stream —
    /// jobs carry their reply channel, so interleaved clients never see
    /// each other's lines.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept failures; per-connection I/O errors only
    /// end that connection.
    pub fn serve_unix(&self, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let shutdown = AtomicBool::new(false);
        let shared = Shared::default();
        let result = std::thread::scope(|scope| -> io::Result<()> {
            let job_tx = spawn_workers(scope, self.workers, &shared);
            loop {
                let (stream, _) = listener.accept()?;
                if shutdown.load(Ordering::SeqCst) {
                    // Woken by the shutdown connection below (or a
                    // late client racing it); stop accepting.
                    break;
                }
                let reader = BufReader::new(stream.try_clone()?);
                let job_tx = job_tx.clone();
                let shared = shared.clone();
                let shutdown = &shutdown;
                let wake = path.to_path_buf();
                scope.spawn(move || {
                    let served = handle_connection(reader, stream, &job_tx, &shared);
                    drop(job_tx);
                    if let Ok(summary) = served {
                        if summary.shutdown && !shutdown.swap(true, Ordering::SeqCst) {
                            // Unblock the accept loop so it can exit.
                            let _ = UnixStream::connect(&wake);
                        }
                    }
                });
            }
            Ok(())
        });
        let _ = std::fs::remove_file(path);
        result
    }
}

/// Spawns the shared worker pool on `scope` and returns the bounded job
/// sender; workers exit when the last sender clone drops.
fn spawn_workers<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    workers: usize,
    shared: &Shared,
) -> mpsc::SyncSender<Job> {
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(QUEUE_DEPTH);
    let job_rx = Arc::new(Mutex::new(job_rx));
    for _ in 0..workers {
        let job_rx = Arc::clone(&job_rx);
        let shared = shared.clone();
        scope.spawn(move || loop {
            let job = job_rx.lock().expect("job queue lock").recv();
            let Ok(job) = job else { break };
            let waited = job.submitted.elapsed();
            let picked = Instant::now();
            let answer = run_job(&job);
            job.answered();
            {
                let mut stats = shared.stats.lock().expect("stats lock");
                stats.record(&answer);
                stats.queue_wait_ms.record(waited.as_millis() as u64);
                stats
                    .job_latency_ms
                    .record(picked.elapsed().as_millis() as u64);
            }
            let line = answer.unwrap_or_else(|e| wire::error_line(Some(job.id), &e.to_string()));
            // A dropped reply channel means that connection is gone;
            // keep serving the others.
            let _ = job.reply.send((job.seq, line));
        });
    }
    job_tx
}

/// One connection's intake/emitter pair over the shared pool: reads
/// envelopes from `input` until EOF or `shutdown` and streams response
/// lines to `output` in this connection's submission order.
fn handle_connection<R, W>(
    input: R,
    output: W,
    job_tx: &mpsc::SyncSender<Job>,
    shared: &Shared,
) -> io::Result<ServeSummary>
where
    R: BufRead,
    W: Write + Send,
{
    let (line_tx, line_rx) = mpsc::channel::<(u64, String)>();
    let live = LiveJobs::default();
    std::thread::scope(|scope| {
        let emitter = scope.spawn(move || -> io::Result<()> {
            let mut output = output;
            let mut held: BTreeMap<u64, String> = BTreeMap::new();
            let mut next = 0u64;
            for (seq, line) in line_rx {
                held.insert(seq, line);
                while let Some(line) = held.remove(&next) {
                    writeln!(output, "{line}")?;
                    output.flush()?;
                    next += 1;
                }
            }
            Ok(())
        });

        let mut seq = 0u64;
        let mut summary = ServeSummary {
            submitted: 0,
            shutdown: false,
        };
        let mut intake_err = None;
        for line in input.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    intake_err = Some(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            match Envelope::parse_line(&line) {
                Ok(Envelope::Submit {
                    id,
                    spec,
                    seed_base,
                    timeout_ms,
                }) => {
                    summary.submitted += 1;
                    live.lock()
                        .expect("live jobs lock")
                        .entry(id)
                        .or_default()
                        .jobs += 1;
                    let job = Job {
                        seq,
                        id,
                        spec,
                        seed_base,
                        timeout_ms,
                        submitted: Instant::now(),
                        reply: line_tx.clone(),
                        live: Arc::clone(&live),
                    };
                    // Workers hold the receiver for the service scope's
                    // lifetime, so this only blocks (backpressure),
                    // never fails.
                    job_tx.send(job).expect("worker pool alive");
                    seq += 1;
                }
                Ok(Envelope::Cancel { id }) => {
                    if let Some(entry) = live.lock().expect("live jobs lock").get_mut(&id) {
                        entry.cancelled = true;
                    }
                    let _ = line_tx.send((seq, wire::cancel_ack_line(id)));
                    seq += 1;
                }
                Ok(Envelope::Stats { id }) => {
                    let text = shared
                        .stats
                        .lock()
                        .expect("stats lock")
                        .to_report()
                        .to_prometheus();
                    let _ = line_tx.send((seq, wire::stats_line(id, &text)));
                    seq += 1;
                }
                Ok(Envelope::Shutdown) => {
                    summary.shutdown = true;
                    break;
                }
                Err(e) => {
                    let _ = line_tx.send((seq, wire::error_line(None, &e)));
                    seq += 1;
                }
            }
        }
        // Dropping this connection's line sender lets the emitter finish
        // once every in-flight job has replied (each job holds a clone).
        drop(line_tx);
        let emitted = emitter.join().expect("emitter thread");
        emitted?;
        if let Some(e) = intake_err {
            return Err(e);
        }
        Ok(summary)
    })
}

/// Runs one job to its answer line, or to why it answers `ok:false`.
fn run_job(job: &Job) -> Result<String, JobError> {
    if job.cancelled() {
        return Err(JobError::Cancelled);
    }
    let scenario = parse_any(&job.spec).map_err(|e| JobError::Failed(e.to_string()))?;
    // The check at every poll point of the job's cells; the first one to
    // answer `false` records why.
    let started = Instant::now();
    let stopped = OnceLock::new();
    let go_on = |_: u64| match job.interrupted(started) {
        None => true,
        Some(why) => {
            stopped.get_or_init(|| why);
            false
        }
    };
    let answer = match scenario {
        Scenario::Cell(mut spec) => {
            // A trace names a file on the service's host, and a parse
            // error would echo its lines: refuse it before anything opens
            // the path.
            if let ScenarioFrontend::Trace(_) = spec.frontend {
                return Err(JobError::Failed(
                    "the service reads no trace files: give a `workload`".to_owned(),
                ));
            }
            if let Some(base) = job.seed_base {
                spec.seed = derive_seed(base, job.id);
            }
            let sim = spec
                .to_sim(SystemConfig::table6())
                .map_err(|e| JobError::Failed(e.to_string()))?;
            sim.build()
                .run_polled(CHUNK, &mut |k| go_on(k))
                .map(|report| wire::ok_cell_line(job.id, &spec.scheme.label(), &report))
        }
        Scenario::Grid(grid) => grid
            .run_polled(CHUNK, &go_on)
            .map(|rows| wire::ok_grid_line(job.id, &grid, &rows)),
    };
    answer.ok_or_else(|| {
        stopped
            .into_inner()
            .expect("a check that answers false records why")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const CELL: &str = "scheme = mint\nworkload = mcf\nrequests = 400\nseed = 9";
    const GRID: &str =
        "schemes = Baseline MINT\nworkloads = mcf lbm\nrequests = 300\nseed_base = 5";
    /// A cell of a dozen [`CHUNK`]s: still running long after intake has
    /// read the lines behind it, so a cancel reaches it deterministically.
    const LONG: &str = "scheme = mint\nworkload = mcf\nrequests = 200000\nseed = 9";
    /// A grid of two cells, each of 80 000 requests (more than [`CHUNK`]).
    const LONG_GRID: &str =
        "schemes = Baseline MINT\nworkloads = mcf\nrequests = 20000\nseed_base = 9";
    /// A spec that fails to parse.
    const BAD_SPEC: &str = "scheme = mnit\nworkload = mcf";

    /// A plain submit envelope: no seed base, no timeout.
    fn submit(id: u64, spec: &str) -> String {
        Envelope::Submit {
            id,
            spec: spec.to_string(),
            seed_base: None,
            timeout_ms: None,
        }
        .to_line()
    }

    /// The batch runner's answer to cell `spec`, through the wire formatter.
    fn batch_line(id: u64, spec: &str) -> String {
        let Scenario::Cell(cell) = parse_any(spec).unwrap() else {
            panic!("cell spec");
        };
        wire::ok_cell_line(id, &cell.scheme.label(), &cell.run().unwrap())
    }

    fn serve_lines(workers: usize, input: &str) -> (ServeSummary, Vec<String>) {
        let mut out = Vec::new();
        let summary = Service::new()
            .workers(workers)
            .serve(Cursor::new(input.to_string()), &mut out)
            .expect("in-memory serve");
        let text = String::from_utf8(out).expect("utf8 output");
        (summary, text.lines().map(str::to_string).collect())
    }

    #[test]
    fn output_bytes_are_worker_count_invariant_and_match_batch() {
        let input = [
            submit(1, CELL),
            submit(2, GRID),
            Envelope::Submit {
                id: 3,
                spec: CELL.to_string(),
                seed_base: Some(0xABCD),
                timeout_ms: None,
            }
            .to_line(),
        ]
        .join("\n");

        let (summary, lines) = serve_lines(1, &input);
        assert_eq!(
            summary,
            ServeSummary {
                submitted: 3,
                shutdown: false
            },
            "EOF drain without a shutdown envelope"
        );
        assert_eq!(lines.len(), 3);
        for workers in [2, 4] {
            assert_eq!(serve_lines(workers, &input).1, lines, "workers = {workers}");
        }

        // Each line is byte-identical to rendering the batch runner's
        // report through the same wire formatter.
        let Scenario::Cell(cell) = parse_any(CELL).unwrap() else {
            panic!("cell spec");
        };
        let report = cell.run().unwrap();
        assert_eq!(
            lines[0],
            wire::ok_cell_line(1, &cell.scheme.label(), &report)
        );
        let Scenario::Grid(grid) = parse_any(GRID).unwrap() else {
            panic!("grid spec");
        };
        assert_eq!(lines[1], wire::ok_grid_line(2, &grid, &grid.run()));
        let mut derived = cell.clone();
        derived.seed = derive_seed(0xABCD, 3);
        assert_ne!(derived.seed, cell.seed, "seed_base overrides the spec seed");
        let derived_report = derived.run().unwrap();
        assert_eq!(
            lines[2],
            wire::ok_cell_line(3, &derived.scheme.label(), &derived_report)
        );
    }

    #[test]
    fn shutdown_stops_intake_and_cancel_drops_queued_jobs() {
        // One worker runs the long job 1 while job 5 waits in the queue
        // behind it: the cancels stop job 1 at a poll and drop job 5
        // before it starts.
        let input = [
            submit(1, LONG),
            submit(5, CELL),
            Envelope::Cancel { id: 5 }.to_line(),
            Envelope::Cancel { id: 1 }.to_line(),
            Envelope::Shutdown.to_line(),
            submit(6, CELL),
        ]
        .join("\n");
        let (summary, lines) = serve_lines(1, &input);
        assert_eq!(
            summary,
            ServeSummary {
                submitted: 2,
                shutdown: true
            },
            "the post-shutdown submit is never read"
        );
        assert_eq!(
            lines,
            [
                wire::error_line(Some(1), "cancelled"),
                wire::error_line(Some(5), "cancelled"),
                wire::cancel_ack_line(5),
                wire::cancel_ack_line(1),
            ]
        );
    }

    #[test]
    fn a_cancel_is_spent_on_the_job_it_stops() {
        // One worker keeps the two same-id jobs in order: the first is
        // cancelled and answers so, which spends the cancel; the second
        // runs.
        let input = [
            submit(9, LONG),
            Envelope::Cancel { id: 9 }.to_line(),
            submit(9, CELL),
        ];
        let (summary, lines) = serve_lines(1, &input.join("\n"));
        assert_eq!(summary.submitted, 2);
        assert_eq!(
            lines,
            [
                wire::error_line(Some(9), "cancelled"),
                wire::cancel_ack_line(9),
                batch_line(9, CELL)
            ]
        );
    }

    #[test]
    fn a_cancel_without_a_live_job_is_acknowledged_and_dropped() {
        // Nothing named 7 is queued or running when the cancel arrives,
        // so the submit after it runs.
        let input = [Envelope::Cancel { id: 7 }.to_line(), submit(7, CELL)];
        let (_, lines) = serve_lines(1, &input.join("\n"));
        assert_eq!(lines, [wire::cancel_ack_line(7), batch_line(7, CELL)]);
    }

    #[test]
    fn a_cell_crossing_slice_boundaries_answers_like_the_batch_run() {
        // 4 cores × 20 000 requests = 80 000 > `CHUNK`: the answer comes
        // from a session that ran on past a poll.
        let spec = "scheme = mint\nworkload = mcf\nrequests = 20000\nseed = 9";
        let (_, lines) = serve_lines(1, &submit(4, spec));
        assert_eq!(lines, [batch_line(4, spec)]);
    }

    #[test]
    fn bad_lines_and_bad_specs_report_without_stopping_the_stream() {
        let input = [
            "{\"v\":1,\"id\":1,\"op\":\"conga\"}".to_string(),
            submit(2, "scheme = mnit\nworkload = mcf"),
            Envelope::Submit {
                id: 3,
                spec: CELL.to_string(),
                seed_base: None,
                timeout_ms: Some(0),
            }
            .to_line(),
        ]
        .join("\n");
        let (summary, lines) = serve_lines(1, &input);
        assert_eq!(summary.submitted, 2);
        assert_eq!(lines[0], wire::error_line(None, "unknown op \"conga\""));
        assert!(
            lines[1].contains("\"id\":2,\"ok\":false") && lines[1].contains("scenario line 1"),
            "spec errors carry the line number: {}",
            lines[1]
        );
        assert_eq!(
            lines[2],
            wire::error_line(Some(3), "timed out after 0ms"),
            "a zero budget times out deterministically before the first chunk"
        );
    }

    #[test]
    fn a_grid_with_a_zero_budget_times_out() {
        let input = Envelope::Submit {
            id: 1,
            spec: GRID.to_string(),
            seed_base: None,
            timeout_ms: Some(0),
        }
        .to_line();
        let (_, lines) = serve_lines(1, &input);
        assert_eq!(lines, [wire::error_line(Some(1), "timed out after 0ms")]);
    }

    #[test]
    fn a_cancel_stops_a_running_grid() {
        // `QUEUE_DEPTH` jobs behind the grid fill the queue, so intake
        // reads the cancel only once the one worker has taken the grid
        // off it: the cancel reaches a running grid, not a queued one.
        let mut input = vec![submit(1, LONG_GRID)];
        input.extend((0..QUEUE_DEPTH as u64).map(|i| submit(100 + i, BAD_SPEC)));
        input.push(Envelope::Cancel { id: 1 }.to_line());
        let (_, lines) = serve_lines(1, &input.join("\n"));
        assert_eq!(lines.len(), QUEUE_DEPTH + 2);
        assert_eq!(lines[0], wire::error_line(Some(1), "cancelled"));
        assert_eq!(lines[QUEUE_DEPTH + 1], wire::cancel_ack_line(1));
    }

    #[test]
    fn a_cell_that_does_not_fit_the_cores_fails_alone() {
        // Two per-core workloads on the 4-core default: the job answers
        // an error and the valid job queued behind it still runs.
        let input = [
            submit(1, "scheme = mint\nworkload = mcf+lbm\nrequests = 200"),
            submit(2, CELL),
        ]
        .join("\n");
        for workers in [1, 2] {
            let (summary, lines) = serve_lines(workers, &input);
            assert_eq!(summary.submitted, 2);
            assert_eq!(lines.len(), 2, "workers = {workers}: {lines:?}");
            assert!(
                lines[0].contains("\"id\":1,\"ok\":false") && lines[0].contains("per-core"),
                "workers = {workers}: {}",
                lines[0]
            );
            assert!(
                lines[1].contains("\"id\":2,\"ok\":true"),
                "workers = {workers}: {}",
                lines[1]
            );
        }
    }

    #[test]
    fn telemetry_jobs_carry_stats_and_stats_verb_answers() {
        let telem_cell = format!("{CELL}\ntelemetry = on");
        let input = [submit(1, &telem_cell), Envelope::Stats { id: 2 }.to_line()].join("\n");
        let (summary, lines) = serve_lines(2, &input);
        assert_eq!(summary.submitted, 1);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"stats\":{\"generated\":"),
            "telemetry job line carries the stats object: {}",
            lines[0]
        );
        // The stats verb answers immediately (before the job finishes,
        // possibly) with a Prometheus payload naming the serve metrics.
        assert!(
            lines[1].contains("\"kind\":\"stats\"")
                && lines[1].contains("mint_serve_jobs_completed"),
            "{}",
            lines[1]
        );

        // A non-telemetry job's line is byte-identical to the pre-stats
        // wire format — the fragment only appears when asked for.
        let (_, plain) = serve_lines(1, &submit(1, CELL));
        assert!(!plain[0].contains("\"stats\""), "{}", plain[0]);
    }

    #[test]
    fn serve_stats_ledger_renders_prometheus() {
        let mut stats = ServeStats {
            jobs_completed: 3,
            ..ServeStats::default()
        };
        stats.queue_wait_ms.record(0);
        stats.job_latency_ms.record(17);
        let text = stats.to_report().to_prometheus();
        assert!(text.contains("# TYPE mint_serve_jobs_completed counter"));
        assert!(text.contains("mint_serve_jobs_completed 3"));
        assert!(text.contains("mint_serve_queue_wait_ms_count 1"));
        assert!(text.contains("mint_serve_job_latency_ms_sum 17"));
    }

    /// A socket service of `workers` workers in a temp directory of its
    /// own (named after `test`), once its socket exists.
    fn start_unix(
        test: &str,
        workers: usize,
    ) -> (std::path::PathBuf, std::thread::JoinHandle<io::Result<()>>) {
        let dir = std::env::temp_dir().join(format!("mint-serve-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mint.sock");
        let service = Service::new().workers(workers);
        let sock = path.clone();
        let server = std::thread::spawn(move || service.serve_unix(&sock));
        let mut tries = 0;
        while !path.exists() && tries < 500 {
            std::thread::sleep(Duration::from_millis(10));
            tries += 1;
        }
        (path, server)
    }

    /// Shuts the service down from a connection of its own and removes
    /// its directory.
    fn stop_unix(path: &Path, server: std::thread::JoinHandle<io::Result<()>>) {
        let mut stream = UnixStream::connect(path).unwrap();
        writeln!(stream, "{}", Envelope::Shutdown.to_line()).unwrap();
        drop(stream);
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_cancel_stays_on_its_connection() {
        let (path, server) = start_unix("cancel-scope", 1);
        // Connection A cancels id 7; its acknowledgement means intake
        // has handled the cancel.
        let mut a = UnixStream::connect(&path).unwrap();
        writeln!(a, "{}", Envelope::Cancel { id: 7 }.to_line()).unwrap();
        let mut a_lines = BufReader::new(a.try_clone().unwrap()).lines();
        assert_eq!(a_lines.next().unwrap().unwrap(), wire::cancel_ack_line(7));
        // Connection B's job 7 is not A's to cancel.
        let mut b = UnixStream::connect(&path).unwrap();
        writeln!(b, "{}", submit(7, CELL)).unwrap();
        b.shutdown(std::net::Shutdown::Write).unwrap();
        let b_lines: Vec<String> = BufReader::new(b).lines().map(Result::unwrap).collect();
        assert_eq!(b_lines, [batch_line(7, CELL)]);
        // Nor did A's cancel wait for a job 7 of its own.
        writeln!(a, "{}", submit(7, CELL)).unwrap();
        a.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(a_lines.next().unwrap().unwrap(), batch_line(7, CELL));
        assert!(a_lines.next().is_none());
        stop_unix(&path, server);
    }

    #[test]
    fn stats_count_failed_cancelled_and_timed_out_jobs() {
        let (path, server) = start_unix("outcomes", 1);
        let mut stream = UnixStream::connect(&path).unwrap();
        let mut answers = BufReader::new(stream.try_clone().unwrap()).lines();
        let mut answer = || answers.next().unwrap().unwrap();
        // Each job's answer is read before the next job is sent, and a
        // worker records a job's outcome before it answers, so the ledger
        // holds every job by the time `stats` reads it. The line that is
        // not an envelope and the cancel's acknowledgement are not jobs.
        writeln!(stream, "{}", submit(1, CELL)).unwrap();
        assert_eq!(answer(), batch_line(1, CELL));
        writeln!(stream, "this line is not JSON").unwrap();
        assert!(answer().starts_with("{\"v\":1,\"id\":null,\"ok\":false"));
        writeln!(stream, "{}", submit(2, BAD_SPEC)).unwrap();
        assert!(answer().starts_with("{\"v\":1,\"id\":2,\"ok\":false"));
        writeln!(stream, "{}", submit(3, LONG)).unwrap();
        writeln!(stream, "{}", Envelope::Cancel { id: 3 }.to_line()).unwrap();
        assert_eq!(answer(), wire::error_line(Some(3), "cancelled"));
        assert_eq!(answer(), wire::cancel_ack_line(3));
        let timed = Envelope::Submit {
            id: 4,
            spec: CELL.to_string(),
            seed_base: None,
            timeout_ms: Some(0),
        };
        writeln!(stream, "{}", timed.to_line()).unwrap();
        assert_eq!(answer(), wire::error_line(Some(4), "timed out after 0ms"));
        writeln!(stream, "{}", Envelope::Stats { id: 5 }.to_line()).unwrap();
        let stats = answer();
        for (outcome, jobs) in [
            ("completed", 4),
            ("failed", 1),
            ("cancelled", 1),
            ("timed_out", 1),
        ] {
            assert!(
                stats.contains(&format!("mint_serve_jobs_{outcome} {jobs}\\n")),
                "{stats}"
            );
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(answers.next().is_none());
        stop_unix(&path, server);
    }

    #[test]
    fn a_served_trace_is_refused_before_its_file_is_read() {
        let (path, server) = start_unix("trace", 1);
        // A host file whose first line the trace parser would echo in
        // its error, were the service to open it.
        let marker = "host-only-line-5e1f";
        let file = path.with_file_name("host.trace");
        std::fs::write(&file, format!("{marker}\n")).unwrap();
        let spec = format!("scheme = mint\ntrace = {}", file.display());
        let mut stream = UnixStream::connect(&path).unwrap();
        let mut answers = BufReader::new(stream.try_clone().unwrap()).lines();
        writeln!(stream, "{}", submit(1, &spec)).unwrap();
        let answer = answers.next().unwrap().unwrap();
        assert!(
            answer.contains("\"ok\":false") && !answer.contains(marker),
            "{answer}"
        );
        writeln!(stream, "{}", Envelope::Stats { id: 2 }.to_line()).unwrap();
        let stats = answers.next().unwrap().unwrap();
        assert!(stats.contains("mint_serve_jobs_failed 1\\n"), "{stats}");
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(answers.next().is_none());
        stop_unix(&path, server);
    }

    #[test]
    fn concurrent_unix_connections_share_the_pool_and_keep_streams_apart() {
        let (path, server) = start_unix("streams", 2);

        // Two clients submit interleaved jobs concurrently; each must
        // read back exactly its own jobs, in its own submission order.
        let client = |ids: Vec<u64>, path: std::path::PathBuf| {
            std::thread::spawn(move || {
                let mut stream = UnixStream::connect(&path).unwrap();
                for id in &ids {
                    writeln!(stream, "{}", submit(*id, CELL)).unwrap();
                }
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let reader = BufReader::new(stream);
                let lines: Vec<String> = reader.lines().map(Result::unwrap).collect();
                (ids, lines)
            })
        };
        let a = client(vec![10, 11], path.clone());
        let b = client(vec![20, 21, 22], path.clone());
        let (ids_a, lines_a) = a.join().unwrap();
        let (ids_b, lines_b) = b.join().unwrap();
        let expected_line = {
            let Scenario::Cell(cell) = parse_any(CELL).unwrap() else {
                panic!("cell spec");
            };
            let report = cell.run().unwrap();
            move |id: u64| wire::ok_cell_line(id, "MINT", &report)
        };
        assert_eq!(
            lines_a,
            ids_a.iter().map(|&i| expected_line(i)).collect::<Vec<_>>()
        );
        assert_eq!(
            lines_b,
            ids_b.iter().map(|&i| expected_line(i)).collect::<Vec<_>>()
        );

        // Shutdown from a third connection stops the service.
        stop_unix(&path, server);
    }
}
