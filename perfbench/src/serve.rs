//! The `serve` workload: `mint_serve::Service` in-process on a unix
//! socket, driven by a closed-loop client, every answer checked byte for
//! byte against the batch run of the same spec.

use std::collections::{btree_map, BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mint_memsys::{parse_any, MitigationScheme, Scenario, SessionRun, SystemConfig};
use mint_rng::derive_seed;
use mint_serve::wire::{self, Envelope};
use mint_serve::{Service, CHUNK};

use crate::cells::{Cell, Scale};
use crate::host::{self, HostClock};
use crate::stats::median;

/// Jobs each connection keeps in flight (closed loop). Two connections
/// with one each never hold more jobs than the service has workers, so a
/// latency is service time, not time queued behind the other
/// connection's long cell.
pub const IN_FLIGHT: usize = 1;

/// The closed loop runs in epochs of about this many seconds; the host
/// reference is read between them, when nothing is in flight.
const EPOCH_S: f64 = 1.0;

/// Where the benchmark keeps its socket and trace files, relative to the
/// directory it runs in.
pub const WORK_DIR: &str = ".perfbench";

/// What a mix entry asks the service for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A short cell.
    Cell,
    /// A short cell with `telemetry = on` (the answer carries stats).
    Telemetry,
    /// A long cell crossing several checkpoint slices.
    Long,
    /// A small scheme × workload grid.
    Grid,
    /// A spec with a line-numbered error.
    BadSpec,
    /// The `stats` verb (not a job).
    Stats,
}

/// One entry of a connection's job mix.
#[derive(Debug, Clone)]
pub struct Entry {
    pub kind: Kind,
    pub spec: String,
}

/// Connection `conn`'s job mix, cycled for the whole run. The two
/// connections split the zoo between their short cells, so every scheme
/// is served.
pub fn mix(seed: u64, scale: &Scale, conn: usize) -> Vec<Entry> {
    let zoo = MitigationScheme::zoo();
    let base = derive_seed(seed, 0x5E00 + conn as u64);
    let workloads = ["mcf", "lbm", "omnetpp"];
    let cell = |k: usize, telemetry: bool| {
        let scheme = zoo[(conn * 6 + k) % zoo.len()];
        let mut spec = format!(
            "scheme = {}\nworkload = {}\nrequests = {}\nseed = {}\n",
            scheme.label(),
            workloads[k % workloads.len()],
            scale.serve_short_requests,
            derive_seed(base, k as u64)
        );
        if telemetry {
            spec.push_str("telemetry = on\n");
        }
        spec
    };
    let entry = |kind, spec: String| Entry { kind, spec };
    vec![
        entry(Kind::Cell, cell(0, false)),
        entry(Kind::Cell, cell(1, false)),
        entry(Kind::Telemetry, cell(6 + conn, true)),
        entry(
            Kind::Long,
            format!(
                "scheme = PRCT\nworkload = mcf\nrequests = {}\nseed = {}\n",
                scale.serve_long_requests,
                derive_seed(base, 100)
            ),
        ),
        entry(Kind::Cell, cell(2, false)),
        entry(
            Kind::Grid,
            format!(
                "schemes = Baseline MINT\nworkloads = mcf lbm\nrequests = {}\nseed_base = {}\n",
                scale.serve_grid_requests,
                derive_seed(base, 200) % 1_000_000
            ),
        ),
        entry(Kind::Cell, cell(3, false)),
        entry(
            Kind::BadSpec,
            "scheme = MINT\nworkload = mcf\nrequests = plenty\n".to_string(),
        ),
        entry(Kind::Cell, cell(4, false)),
        entry(Kind::Telemetry, cell(9 + conn, true)),
        entry(Kind::Cell, cell(5, false)),
        entry(Kind::Stats, String::new()),
    ]
}

/// The request line for entry `e` submitted as job `id`.
pub fn request_line(e: &Entry, id: u64) -> String {
    match e.kind {
        Kind::Stats => Envelope::Stats { id }.to_line(),
        _ => Envelope::Submit {
            id,
            spec: e.spec.clone(),
            seed_base: None,
            timeout_ms: None,
        }
        .to_line(),
    }
}

/// A running service plus the connection that saw it answer.
pub struct Running {
    pub path: PathBuf,
    pub server: JoinHandle<std::io::Result<()>>,
    pub first: UnixStream,
}

/// Binds the service on a fresh socket, starts its worker pool, and
/// waits until it answers a `stats` verb on a first connection.
pub fn start(workers: usize) -> Result<Running, String> {
    static STARTS: AtomicUsize = AtomicUsize::new(0);
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let path = Path::new(WORK_DIR).join(format!(
        "serve-{}-{}.sock",
        std::process::id(),
        STARTS.fetch_add(1, Ordering::Relaxed)
    ));
    // A stale socket would satisfy the connect below before the new
    // service bound; remove it first (serve_unix also replaces it).
    let _ = std::fs::remove_file(&path);
    let service = Service::new().workers(workers);
    let sock = path.clone();
    let server = std::thread::spawn(move || service.serve_unix(&sock));
    let deadline = Instant::now() + Duration::from_secs(30);
    // Poll by yielding, not sleeping: a sleep's granularity would be
    // counted as the service's start-up time.
    let mut stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline && !server.is_finished() => {
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("connect {}: {e}", path.display())),
        }
    };
    writeln!(stream, "{}", Envelope::Stats { id: 0 }.to_line())
        .map_err(|e| format!("send stats: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read stats answer: {e}"))?;
    if !is_stats_answer(line.trim_end(), 0) {
        return Err(format!("unexpected answer to stats: {line:?}"));
    }
    Ok(Running {
        path,
        server,
        first: stream,
    })
}

/// Sends `shutdown` on `stream`, reads the connection to its end and
/// joins the service.
pub fn stop(run: Running, others: Vec<UnixStream>) -> Result<(), String> {
    for s in others {
        let _ = s.shutdown(std::net::Shutdown::Write);
        drain_to_eof(s)?;
    }
    let mut first = run.first;
    writeln!(first, "{}", Envelope::Shutdown.to_line()).map_err(|e| e.to_string())?;
    let _ = first.shutdown(std::net::Shutdown::Write);
    drain_to_eof(first)?;
    run.server
        .join()
        .map_err(|_| "service thread panicked".to_string())?
        .map_err(|e| format!("service: {e}"))?;
    let _ = std::fs::remove_file(&run.path);
    Ok(())
}

fn drain_to_eof(stream: UnixStream) -> Result<(), String> {
    match BufReader::new(stream).lines().next() {
        None => Ok(()),
        Some(Ok(line)) => Err(format!("unexpected line after the last answer: {line}")),
        Some(Err(e)) => Err(e.to_string()),
    }
}

fn is_stats_answer(line: &str, id: u64) -> bool {
    line.starts_with(&format!(
        "{{\"v\":1,\"id\":{id},\"ok\":true,\"kind\":\"stats\",\"result\":{{\"prometheus\":"
    )) && line.contains("mint_serve_jobs_completed")
}

/// One answered request.
pub struct Answer {
    pub conn: usize,
    pub entry: usize,
    pub id: u64,
    pub line: String,
    pub latency_s: f64,
    /// The epoch of the closed loop it was answered in.
    pub epoch: usize,
}

/// One connection's side of the closed loop. Its place in the cycled mix
/// carries over from epoch to epoch.
struct Client<'a> {
    conn: usize,
    mix: &'a [Entry],
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    sent: usize,
}

impl<'a> Client<'a> {
    fn new(stream: &UnixStream, conn: usize, mix: &'a [Entry]) -> Result<Self, String> {
        Ok(Self {
            conn,
            mix,
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            sent: 0,
        })
    }

    fn submit(&mut self, pending: &mut VecDeque<(usize, u64, Instant)>) -> Result<(), String> {
        let entry = self.sent % self.mix.len();
        let id = (self.conn as u64 + 1) * 1_000_000 + self.sent as u64;
        let line = request_line(&self.mix[entry], id);
        pending.push_back((entry, id, Instant::now()));
        writeln!(self.writer, "{line}")
            .map_err(|e| format!("connection {}: send: {e}", self.conn))?;
        self.sent += 1;
        Ok(())
    }

    /// Keeps [`IN_FLIGHT`] requests outstanding, submitting the next
    /// entry of the mix each time an answer arrives, until `deadline`;
    /// then waits for the last answers. `answered` counts jobs across
    /// connections (the `stats` verb is not a job).
    fn epoch(
        &mut self,
        epoch: usize,
        deadline: Instant,
        answered: &AtomicUsize,
    ) -> Result<Vec<Answer>, String> {
        let mut pending = VecDeque::new();
        for _ in 0..IN_FLIGHT {
            self.submit(&mut pending)?;
        }
        let mut answers = Vec::new();
        let mut line = String::new();
        while let Some(&(entry, id, at)) = pending.front() {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("connection {}: read: {e}", self.conn))?;
            if n == 0 {
                return Err(format!(
                    "connection {}: closed with {id} unanswered",
                    self.conn
                ));
            }
            let latency_s = at.elapsed().as_secs_f64();
            pending.pop_front();
            answers.push(Answer {
                conn: self.conn,
                entry,
                id,
                line: line.trim_end().to_string(),
                latency_s,
                epoch,
            });
            if self.mix[entry].kind != Kind::Stats {
                answered.fetch_add(1, Ordering::Relaxed);
            }
            if Instant::now() < deadline {
                self.submit(&mut pending)?;
            }
        }
        Ok(answers)
    }
}

/// The batch result an entry must be answered with, rendered per job id.
pub enum Expected {
    Cell {
        label: String,
        report: Box<mint_memsys::RunReport>,
    },
    Grid {
        grid: Box<mint_memsys::ScenarioGrid>,
        rows: Vec<Vec<mint_memsys::NormalizedPerf>>,
    },
    Error(String),
    Stats,
}

impl Expected {
    /// Runs entry `e` the batch way (`ScenarioSpec::run`, `ScenarioGrid::run`).
    pub fn batch(e: &Entry) -> Result<Expected, String> {
        if e.kind == Kind::Stats {
            return Ok(Expected::Stats);
        }
        Ok(match parse_any(&e.spec) {
            Err(err) => Expected::Error(err.to_string()),
            Ok(Scenario::Cell(spec)) => Expected::Cell {
                label: spec.scheme.label(),
                report: Box::new(spec.run().map_err(|err| err.to_string())?),
            },
            Ok(Scenario::Grid(grid)) => {
                let rows = grid.run();
                Expected::Grid {
                    grid: Box::new(grid),
                    rows,
                }
            }
        })
    }

    /// Whether `line` is the right answer for job `id`.
    pub fn matches(&self, id: u64, line: &str) -> bool {
        match self {
            Expected::Stats => is_stats_answer(line, id),
            _ => self.render(id).as_deref() == Some(line),
        }
    }

    /// The exact answer line for job `id` (none for `stats`, whose
    /// payload is wall-clock).
    pub fn render(&self, id: u64) -> Option<String> {
        match self {
            Expected::Cell { label, report } => Some(wire::ok_cell_line(id, label, report)),
            Expected::Grid { grid, rows } => Some(wire::ok_grid_line(id, grid, rows)),
            Expected::Error(err) => Some(wire::error_line(Some(id), err)),
            Expected::Stats => None,
        }
    }

    /// Simulated requests the job serviced.
    pub fn requests(&self) -> u64 {
        match self {
            Expected::Cell { report, .. } => report.perf.result.requests,
            Expected::Grid { rows, .. } => rows.iter().flatten().map(|c| c.result.requests).sum(),
            Expected::Error(_) | Expected::Stats => 0,
        }
    }
}

/// The outcome of the timed closed loop, checked.
pub struct Served {
    /// Submit-to-answer latency of every job (the `stats` verb excluded),
    /// at the reference host speed.
    pub latencies_s: Vec<f64>,
    pub requests: u64,
    /// The epochs' wall time, as measured and at the reference speed.
    pub wall_s: f64,
    pub scaled_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the closed loop on every connection in epochs of [`EPOCH_S`]
/// until `seconds` have passed and at least `min_jobs` jobs were
/// answered. Between epochs, with nothing in flight, `host` is read, and
/// each epoch's latencies and wall time are scaled by the readings around
/// it. Then every answer is checked against its batch result.
pub fn run_timed(
    running: &Running,
    mixes: &[Vec<Entry>],
    seconds: f64,
    min_jobs: usize,
    host: &mut HostClock,
) -> Result<(Served, Vec<UnixStream>), String> {
    let mut streams = vec![running.first.try_clone().map_err(|e| e.to_string())?];
    for _ in 1..mixes.len() {
        streams.push(UnixStream::connect(&running.path).map_err(|e| format!("connect: {e}"))?);
    }
    let answered = AtomicUsize::new(0);
    // Every epoch starts and ends at this barrier; a deadline of `None`
    // at the start tells the clients the loop is over.
    let barrier = Barrier::new(mixes.len() + 1);
    let deadline: Mutex<Option<Instant>> = Mutex::new(None);
    // Per epoch: (wall seconds, the same at the reference speed).
    let mut epochs: Vec<(f64, f64)> = Vec::new();
    host.read();
    let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(mixes)
            .enumerate()
            .map(|(conn, (stream, mix))| {
                let (barrier, deadline, answered) = (&barrier, &deadline, &answered);
                scope.spawn(move || {
                    let mut client = Client::new(stream, conn, mix);
                    let mut answers = Vec::new();
                    for epoch in 0.. {
                        barrier.wait();
                        let Some(until) = *deadline
                            .lock()
                            .expect("no thread panics holding the deadline")
                        else {
                            break;
                        };
                        // A failed client keeps meeting the barrier, so
                        // the others are not left waiting.
                        if let Ok(c) = &mut client {
                            match c.epoch(epoch, until, answered) {
                                Ok(a) => answers.extend(a),
                                Err(e) => client = Err(e),
                            }
                        }
                        barrier.wait();
                    }
                    client.map(|_| answers)
                })
            })
            .collect();
        let start = Instant::now();
        let hard_stop = (3.0 * seconds).clamp(30.0, 120.0);
        loop {
            let before = host.last();
            *deadline
                .lock()
                .expect("no thread panics holding the deadline") =
                Some(Instant::now() + Duration::from_secs_f64(EPOCH_S));
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            let wall = t.elapsed().as_secs_f64();
            let after = host.read();
            epochs.push((wall, host::at_reference(wall, before, after)));
            let elapsed = start.elapsed().as_secs_f64();
            let enough = answered.load(Ordering::Relaxed) >= min_jobs;
            if (elapsed >= seconds && enough) || elapsed >= hard_stop {
                break;
            }
        }
        *deadline
            .lock()
            .expect("no thread panics holding the deadline") = None;
        barrier.wait();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut answers = Vec::new();
    for r in results {
        answers.extend(r?);
    }

    let mut expected: BTreeMap<(usize, usize), Expected> = BTreeMap::new();
    let mut served = Served {
        latencies_s: Vec::new(),
        requests: 0,
        wall_s: epochs.iter().map(|e| e.0).sum(),
        scaled_s: epochs.iter().map(|e| e.1).sum(),
        attempted: 0,
        failed: 0,
    };
    for a in &answers {
        let entry = &mixes[a.conn][a.entry];
        let want = match expected.entry((a.conn, a.entry)) {
            btree_map::Entry::Occupied(known) => known.into_mut(),
            btree_map::Entry::Vacant(slot) => slot.insert(Expected::batch(entry)?),
        };
        served.attempted += 1;
        if !want.matches(a.id, &a.line) {
            served.failed += 1;
            eprintln!(
                "mismatch: serve job {} ({:?}) answered {:?}, batch says {:?}",
                a.id,
                entry.kind,
                a.line,
                want.render(a.id)
            );
        }
        if entry.kind != Kind::Stats {
            let (wall, scaled) = epochs[a.epoch];
            served.requests += want.requests();
            served.latencies_s.push(a.latency_s * scaled / wall);
        }
    }
    // Connection 0 is the one `stop` shuts the service down on.
    streams.remove(0);
    Ok((served, streams))
}

/// Per-layer numbers only the serve workload has.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    pub parse_us: f64,
    pub render_us: f64,
    pub overhead_ms: f64,
    pub save_ms: f64,
    pub restore_ms: f64,
    pub kib: f64,
    pub obs_overhead: f64,
}

/// Times the serve-only layers on the mix: envelope parsing and answer
/// rendering, per-job service overhead over the batch run (one job in
/// flight, so no queueing), checkpoint save/restore on the long cells,
/// and telemetry cost on the telemetry cells.
pub fn trace_layers(running: &Running, mixes: &[Vec<Entry>]) -> Result<ServeLayers, String> {
    const REPS: u32 = 50;
    let entries: Vec<&Entry> = mixes.iter().flatten().collect();
    let mut out = ServeLayers::default();

    let lines: Vec<String> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| request_line(e, i as u64))
        .collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for line in &lines {
            std::hint::black_box(Envelope::parse_line(std::hint::black_box(line)))?;
        }
    }
    out.parse_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS) / lines.len() as f64;

    // Batch each entry once untimed (warming caches and allocator), then
    // time it OVERHEAD_REPS times; then time its rendering.
    const OVERHEAD_REPS: usize = 3;
    let mut batch = Vec::new();
    for e in &entries {
        let want = Expected::batch(e)?;
        let mut s = Vec::new();
        for _ in 0..OVERHEAD_REPS {
            let t = Instant::now();
            std::hint::black_box(Expected::batch(e)?);
            s.push(t.elapsed().as_secs_f64());
        }
        batch.push((want, median(&s)));
    }
    let rendered: Vec<&Expected> = batch
        .iter()
        .map(|(w, _)| w)
        .filter(|w| matches!(w, Expected::Cell { .. } | Expected::Grid { .. }))
        .collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for (i, w) in rendered.iter().enumerate() {
            std::hint::black_box(w.render(i as u64));
        }
    }
    out.render_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS) / rendered.len() as f64;

    // Service overhead: answer latency (median of OVERHEAD_REPS, one job
    // at a time on the first connection) minus the batch run.
    let mut writer = running.first.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(running.first.try_clone().map_err(|e| e.to_string())?);
    let mut overheads = Vec::new();
    let mut line = String::new();
    for (i, (e, (want, batch_s))) in entries.iter().zip(&batch).enumerate() {
        if e.kind == Kind::Stats {
            continue;
        }
        let mut latencies = Vec::new();
        for rep in 0..OVERHEAD_REPS {
            let id = 9_000_000 + (i * OVERHEAD_REPS + rep) as u64;
            let t = Instant::now();
            writeln!(writer, "{}", request_line(e, id)).map_err(|e| e.to_string())?;
            line.clear();
            reader.read_line(&mut line).map_err(|e| e.to_string())?;
            latencies.push(t.elapsed().as_secs_f64());
            if !want.matches(id, line.trim_end()) {
                return Err(format!(
                    "serve job {id} answered {line:?} in the traced run"
                ));
            }
        }
        overheads.push((median(&latencies) - batch_s) * 1e3);
    }
    out.overhead_ms = median(&overheads);

    let snap = checkpoint_costs(&entries)?;
    out.save_ms = snap.save_ms;
    out.restore_ms = snap.restore_ms;
    out.kib = snap.kib;

    // Telemetry on over off, on the telemetry cells.
    let (mut on, mut off) = (0.0, 0.0);
    for e in entries.iter().filter(|e| e.kind == Kind::Telemetry) {
        let Ok(Scenario::Cell(spec)) = parse_any(&e.spec) else {
            return Err("telemetry entry is a cell".into());
        };
        let mut plain = spec.clone();
        plain.telemetry = false;
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(spec.run().map_err(|e| e.to_string())?);
            on += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(plain.run().map_err(|e| e.to_string())?);
            off += t.elapsed().as_secs_f64();
        }
    }
    out.obs_overhead = on / off;
    Ok(out)
}

/// What a checkpoint costs the service.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCosts {
    pub save_ms: f64,
    pub restore_ms: f64,
    /// Encoded size of the timed checkpoint.
    pub kib: f64,
}

/// Times the checkpoint work the service does at a slice boundary of the
/// mix's long cells: the pause that saves the session (inside
/// `run_until`/`resume_until`) and the restore into a fresh session
/// (inside `resume_until`). The public calls never do one without
/// running on or doing the other, so both are timed on a checkpoint one
/// request before the end, where running on is one decision:
/// `resume_until(c, last)` restores and pauses again at once, and
/// `resume(c)` restores and finishes. Their difference is the save, and
/// `resume(c)` less `System::new` is the restore. The state there is the
/// largest the cell reaches (its size grows with position, like the
/// service's last slice boundary).
pub fn checkpoint_costs(entries: &[&Entry]) -> Result<CheckpointCosts, String> {
    const REPS: usize = 7;
    let (mut save, mut restore, mut kib) = (Vec::new(), Vec::new(), Vec::new());
    for e in entries.iter().filter(|e| e.kind == Kind::Long) {
        let Ok(Scenario::Cell(spec)) = parse_any(&e.spec) else {
            return Err("long entry is a cell".into());
        };
        let cell = Cell::from_spec("long", &e.spec)?;
        let build = || {
            spec.to_sim(SystemConfig::table6())
                .map(|sim| sim.build())
                .map_err(|e| e.to_string())
        };
        let last = spec.run().map_err(|e| e.to_string())?.perf.result.requests - 1;
        if last < CHUNK {
            return Err(format!(
                "a long cell of {last} requests crosses no slice boundary"
            ));
        }
        let SessionRun::Paused(ckpt) = build()?.run_until(last)? else {
            return Err("the long cell must pause one request before its end".into());
        };
        kib.push(ckpt.to_bytes().len() as f64 / 1024.0);
        let (mut new, mut round, mut finish) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPS {
            let t = Instant::now();
            std::hint::black_box(mint_memsys::System::new(
                cell.cfg,
                cell.scheme,
                cell.policy,
                cell.mapping,
                cell.seed,
            ));
            new.push(t.elapsed().as_secs_f64() * 1e3);

            let session = build()?;
            let t = Instant::now();
            let paused = session.resume_until(&ckpt, last)?;
            round.push(t.elapsed().as_secs_f64() * 1e3);
            if !matches!(paused, SessionRun::Paused(_)) {
                return Err("a checkpoint resumed at its own position must pause there".into());
            }

            let session = build()?;
            let t = Instant::now();
            std::hint::black_box(session.resume(&ckpt)?);
            finish.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let (new, round, finish) = (median(&new), median(&round), median(&finish));
        save.push((round - finish).max(0.0));
        restore.push((finish - new).max(0.0));
    }
    if save.is_empty() {
        return Ok(CheckpointCosts::default());
    }
    Ok(CheckpointCosts {
        save_ms: median(&save),
        restore_ms: median(&restore),
        kib: median(&kib),
    })
}

/// The mix's plain cells (no telemetry), for the loop copy and the
/// tracker replay.
pub fn plain_cells(mixes: &[Vec<Entry>]) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for (conn, mix) in mixes.iter().enumerate() {
        for (i, e) in mix.iter().enumerate() {
            if matches!(e.kind, Kind::Cell | Kind::Long) {
                let spec = mint_memsys::ScenarioSpec::parse(&e.spec).map_err(|e| e.to_string())?;
                cells.push(Cell::from_spec(
                    format!("{}/c{conn}e{i}", spec.scheme.label()),
                    &e.spec,
                )?);
            }
        }
    }
    Ok(cells)
}
