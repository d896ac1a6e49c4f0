//! Workload frontends: the [`RequestSource`] trait and its two
//! implementations — synthetic SPEC2017-rate-like streams ([`CoreStream`],
//! standing in for SPEC2017 traces) and text-trace replay
//! ([`TraceSource`]).
//!
//! The paper drives Gem5 with 17 SPEC2017 rate workloads and 17 mixes. We
//! cannot redistribute SPEC traces, so each workload is summarised by the
//! two parameters that determine its memory behaviour in this study — LLC
//! misses per kilo-instruction (MPKI) and row-buffer locality — plus a read
//! fraction for the energy model. The MPKI values follow published SPEC2017
//! memory characterisation studies; what matters for the reproduction is
//! the *spread* (memory-bound lbm/mcf/bwaves vs compute-bound povray/x264),
//! which is what makes the Fig 16/17 averages meaningful.
//!
//! For real access patterns, [`TraceSource`] replays plain-text traces
//! (one request per line, see [`parse_trace`]) deterministically
//! interleaved across cores, feeding the same channel pipeline as the
//! synthetic streams.

use crate::address::AddressDecoder;
use mint_core::StateCursor;
use mint_rng::{Rng64, SplitMix64};
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;

/// A synthetic workload: the memory-behaviour summary of one SPEC-rate run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (SPEC2017-style).
    pub name: &'static str,
    /// LLC misses per kilo-instruction.
    pub mpki: f64,
    /// Probability that a request hits the currently open row.
    pub row_buffer_locality: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
}

impl WorkloadSpec {
    /// Instructions between consecutive LLC misses.
    #[must_use]
    pub fn instructions_per_miss(&self) -> f64 {
        1000.0 / self.mpki
    }

    /// Compute time between LLC misses for this workload on a core of
    /// `cfg`: instructions-per-miss ÷ IPC, in ps, rounded to nearest (a
    /// truncating cast would shave up to a full cycle off every gap,
    /// biasing compute-bound workloads fast).
    #[must_use]
    pub fn think_time_ps(&self, cfg: &crate::config::SystemConfig) -> u64 {
        let exact =
            self.instructions_per_miss() / f64::from(cfg.core_ipc) * cfg.core_cycle_ps() as f64;
        exact.round() as u64
    }
}

/// Looks a workload up by name: the 17 [`spec_rate_workloads`], plus the
/// synthetic [`saturation_spec`] (`saturate`).
#[must_use]
pub fn workload_by_name(name: &str) -> Option<WorkloadSpec> {
    if name == "saturate" {
        return Some(saturation_spec());
    }
    spec_rate_workloads().into_iter().find(|w| w.name == name)
}

/// The synthetic saturation workload (`saturate`): MPKI far beyond any
/// SPEC rate entry, so every core re-arrives the instant it can and the
/// transaction queue stays pinned at its depth. This is the
/// arbitration-dominated stress cell of `examples/scenarios/saturation32.scn`
/// and of the `saturate` benchmark workload (`perfbench`); it is *not* part
/// of the 17-workload evaluation zoo.
#[must_use]
pub fn saturation_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "saturate",
        mpki: 1000.0,
        row_buffer_locality: 0.6,
        read_fraction: 0.67,
    }
}

/// The 17 SPEC2017 rate workloads (paper §VIII-A).
#[must_use]
pub fn spec_rate_workloads() -> Vec<WorkloadSpec> {
    fn w(name: &'static str, mpki: f64, rbl: f64, rf: f64) -> WorkloadSpec {
        WorkloadSpec {
            name,
            mpki,
            row_buffer_locality: rbl,
            read_fraction: rf,
        }
    }
    vec![
        w("perlbench", 0.8, 0.55, 0.75),
        w("gcc", 4.9, 0.50, 0.70),
        w("bwaves", 18.5, 0.80, 0.80),
        w("mcf", 22.0, 0.25, 0.72),
        w("cactuBSSN", 9.0, 0.65, 0.68),
        w("namd", 1.5, 0.60, 0.78),
        w("parest", 3.2, 0.55, 0.74),
        w("povray", 0.3, 0.60, 0.80),
        w("lbm", 31.0, 0.85, 0.55),
        w("omnetpp", 8.5, 0.30, 0.70),
        w("wrf", 7.0, 0.70, 0.65),
        w("xalancbmk", 6.5, 0.35, 0.76),
        w("x264", 2.0, 0.65, 0.60),
        w("blender", 1.8, 0.60, 0.70),
        w("cam4", 4.5, 0.60, 0.66),
        w("fotonik3d", 15.5, 0.80, 0.77),
        w("roms", 10.2, 0.75, 0.73),
    ]
}

/// The 17 mixed workloads: deterministic 4-way combinations of the rate
/// set, one per mix index (paper §VIII-A evaluates 17 mixes).
#[must_use]
pub fn mixes() -> Vec<[WorkloadSpec; 4]> {
    let base = spec_rate_workloads();
    let n = base.len();
    let mut rng = SplitMix64::new(0x5EC_2017);
    (0..17)
        .map(|_| {
            [
                base[rng.gen_range_u64(n as u64) as usize],
                base[rng.gen_range_u64(n as u64) as usize],
                base[rng.gen_range_u64(n as u64) as usize],
                base[rng.gen_range_u64(n as u64) as usize],
            ]
        })
        .collect()
}

/// One memory request produced by a frontend source: a physical byte
/// address plus the compute gap preceding it. The channel's
/// [`AddressDecoder`] slices the address into
/// bank/row/column coordinates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Request {
    /// Physical byte address of the accessed cache line.
    pub addr: u64,
    /// Whether the request is a read.
    pub is_read: bool,
    /// Core compute time (ps) preceding this request.
    pub think_time_ps: u64,
}

/// Anything that can feed one core's LLC-miss stream into the channel:
/// synthetic generators ([`CoreStream`]) and trace replay
/// ([`TraceSource`]) implement this, so the controller pipeline is
/// frontend-agnostic.
pub trait RequestSource {
    /// The next request, or `None` when the stream is exhausted
    /// (synthetic streams never are; the session bounds them by request
    /// count).
    fn next_request(&mut self) -> Option<Request>;

    /// The next request, told when the issuing core is ready
    /// (`ready_at_ps`). The session issues the returned request at
    /// `ready_at_ps + think_time_ps`, so a source that wants its request
    /// on the bus at an *absolute* time `T` can override this and return
    /// `think_time_ps = T.saturating_sub(ready_at_ps)` — which is how
    /// `mint-redteam`'s `AttackSource` pins activations to tREFI slots
    /// without drifting on memory stalls. The default ignores the hint
    /// (gap-based sources pace relatively).
    fn next_request_at(&mut self, ready_at_ps: u64) -> Option<Request> {
        let _ = ready_at_ps;
        self.next_request()
    }

    /// Refills `out` with upcoming requests in stream order — at most
    /// `max`, fewer (possibly zero) when the stream runs dry. The
    /// default pulls exactly **one** request via
    /// [`next_request_at`](Self::next_request_at), so sources whose
    /// request content depends on the core's ready time (absolute-slot
    /// pacing like `mint-redteam`'s `AttackSource`) stay exact by
    /// construction: every refill sees the genuine `ready_at_ps`.
    /// Sources whose content is independent of service times (synthetic
    /// streams, traces) override this to amortise the per-request
    /// dispatch; overrides must draw RNG values in exactly the
    /// one-at-a-time order so every stream stays bit-identical.
    fn refill(&mut self, ready_at_ps: u64, max: usize, out: &mut VecDeque<Request>) {
        let _ = max;
        if let Some(req) = self.next_request_at(ready_at_ps) {
            out.push_back(req);
        }
    }

    /// Walks the source's stream position through a checkpoint cursor
    /// (see [`StateCursor`]): saving appends it, loading restores it
    /// into a freshly built source of the same stream. The default
    /// refuses, so [`Session::run_until`](crate::Session::run_until)
    /// returns an error rather than silently losing the stream.
    ///
    /// # Errors
    ///
    /// Errors when the source does not support checkpointing or the words
    /// do not describe its stream.
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        let _ = c;
        Err("this request source does not support checkpoint/restore".to_string())
    }
}

/// Generates the LLC-miss stream of one core running one workload.
///
/// Requests alternate between row-buffer hits (same bank+row as the
/// previous request with probability `row_buffer_locality`, fresh column)
/// and fresh rows in random banks, encoded to physical addresses with the
/// channel's mapping. Think time between misses follows the workload's
/// MPKI at the configured core IPC.
#[derive(Debug, Clone)]
pub struct CoreStream {
    spec: WorkloadSpec,
    rng: SplitMix64,
    decoder: AddressDecoder,
    banks: u32,
    rows: u32,
    columns: u32,
    think_ps: u64,
    last: Option<(u32, u32)>,
}

impl CoreStream {
    /// Creates a stream for `spec`, encoding addresses with `decoder`.
    /// `think_ps` is the compute time between misses (derived from MPKI,
    /// IPC and clock by the caller).
    #[must_use]
    pub fn new(spec: WorkloadSpec, decoder: AddressDecoder, think_ps: u64, seed: u64) -> Self {
        let org = *decoder.org();
        Self {
            spec,
            rng: SplitMix64::new(seed),
            decoder,
            // System-global bank range: a core's misses spread over every
            // channel and rank of the topology, not just channel 0 / rank
            // 0 (at 1 channel × 1 rank this is the historical range, so
            // the RNG draws — and the streams — are unchanged).
            banks: org.total_banks(),
            rows: org.rows,
            columns: org.columns,
            think_ps,
            last: None,
        }
    }

    /// The workload being generated.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }
}

impl CoreStream {
    /// One stream step — the single place the per-request RNG draw order
    /// lives, shared by [`next_request`](RequestSource::next_request) and
    /// the batch [`refill`](RequestSource::refill) so the two paths are
    /// bit-identical by construction.
    #[inline]
    fn gen_one(&mut self) -> Request {
        let reuse = self
            .last
            .filter(|_| self.rng.gen_bool(self.spec.row_buffer_locality));
        let (bank, row) = reuse.unwrap_or_else(|| {
            let bank = self.rng.gen_range_u32(self.banks);
            let row = self.rng.gen_range_u32(self.rows);
            (bank, row)
        });
        self.last = Some((bank, row));
        let column = self.rng.gen_range_u32(self.columns);
        Request {
            addr: self.decoder.encode_bank_row(bank, row, column),
            is_read: self.rng.gen_bool(self.spec.read_fraction),
            think_time_ps: self.think_ps,
        }
    }
}

impl RequestSource for CoreStream {
    fn next_request(&mut self) -> Option<Request> {
        Some(self.gen_one())
    }

    /// Generates `max` requests in one pass. Request content is
    /// independent of service times (the RNG is private to this core's
    /// stream), so prefilling ahead of the core's clock — even past the
    /// run's request budget — changes nothing about the consumed prefix.
    fn refill(&mut self, _ready_at_ps: u64, max: usize, out: &mut VecDeque<Request>) {
        out.reserve(max);
        for _ in 0..max {
            out.push_back(self.gen_one());
        }
    }

    /// `[rng, last-valid, bank, row]` — the RNG stream position plus the
    /// row-locality memory (spec, decoder and think time are rebuilt from
    /// the run spec).
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        let mut rng = self.rng.state();
        c.u64(&mut rng)?;
        self.rng = SplitMix64::new(rng);
        let (mut bank, mut row) = self.last.unwrap_or((0, 0));
        let valid = c.padded(self.last.is_some(), |c| {
            c.u32(&mut bank)?;
            c.u32(&mut row)
        })?;
        if valid && (bank >= self.banks || row >= self.rows) {
            return Err(format!(
                "CoreStream: last row {row} of bank {bank} is outside the organisation"
            ));
        }
        self.last = valid.then_some((bank, row));
        Ok(())
    }
}

/// One parsed trace line: `<gap> <R|W> <addr>` — the number of core clock
/// cycles of compute since the previous request of the trace, the request
/// direction, and the physical byte address (hex with `0x` prefix, or
/// decimal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Core cycles of compute preceding this request.
    pub gap_cycles: u64,
    /// Whether the request is a read.
    pub is_read: bool,
    /// Physical byte address.
    pub addr: u64,
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a plain-text trace: one `<gap> <R|W> <addr>` triple per line.
/// Blank lines and `#` comments — whole-line or trailing (everything from
/// the first `#` to end of line) — are ignored. Addresses accept
/// `0x`-prefixed hex or decimal; `R`/`W` are case-insensitive.
///
/// # Errors
///
/// Returns the first malformed line (1-based, counting blank/comment
/// lines) and why it failed.
///
/// # Examples
///
/// ```
/// use mint_memsys::parse_trace;
/// let t = parse_trace("# warmup\n100 R 0x1F40  # hammer row\n5 W 8000\n").unwrap();
/// assert_eq!(t.len(), 2);
/// assert_eq!(t[0].addr, 0x1F40);
/// assert!(!t[1].is_read);
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<TraceEntry>, TraceParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        // Strip a trailing comment first so `10 R 0x40  # note` parses;
        // a whole-line comment reduces to the empty string below.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |reason: String| TraceParseError {
            line: i + 1,
            reason,
        };
        let mut parts = line.split_whitespace();
        let (Some(gap), Some(rw), Some(addr)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(err(format!("expected `<gap> <R|W> <addr>`, got {line:?}")));
        };
        if parts.next().is_some() {
            return Err(err(format!("trailing fields after the triple: {line:?}")));
        }
        let gap_cycles: u64 = gap
            .parse()
            .map_err(|e| err(format!("bad gap {gap:?}: {e}")))?;
        let is_read = match rw {
            "R" | "r" => true,
            "W" | "w" => false,
            other => return Err(err(format!("bad direction {other:?} (want R or W)"))),
        };
        let addr = match addr.strip_prefix("0x").or_else(|| addr.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16)
                .map_err(|e| err(format!("bad hex address {addr:?}: {e}")))?,
            None => addr
                .parse()
                .map_err(|e| err(format!("bad address {addr:?}: {e}")))?,
        };
        out.push(TraceEntry {
            gap_cycles,
            is_read,
            addr,
        });
    }
    Ok(out)
}

/// Reads and parses a trace file (plain text; see [`parse_trace`]).
///
/// # Errors
///
/// Returns an I/O error for unreadable files and a boxed
/// [`TraceParseError`] for malformed lines.
pub fn read_trace_file(
    path: impl AsRef<Path>,
) -> Result<Vec<TraceEntry>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_trace(&text)?)
}

/// Replays a slice of trace entries as one core's request stream; built
/// via [`TraceSource::split`], which deals a shared trace round-robin
/// across cores (entry `i` goes to core `i % cores` — deterministic, so a
/// replay is bit-identical no matter how the surrounding sweep is
/// parallelised).
#[derive(Debug, Clone)]
pub struct TraceSource {
    entries: Vec<TraceEntry>,
    cycle_ps: u64,
    pos: usize,
}

impl TraceSource {
    /// A source replaying `entries` with gaps of `cycle_ps` per cycle.
    #[must_use]
    pub fn new(entries: Vec<TraceEntry>, cycle_ps: u64) -> Self {
        Self {
            entries,
            cycle_ps,
            pos: 0,
        }
    }

    /// Deals `entries` round-robin across `cores` sources (entry `i` →
    /// core `i % cores`), each converting gaps at `cycle_ps`.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn split(entries: &[TraceEntry], cores: u32, cycle_ps: u64) -> Vec<TraceSource> {
        assert!(cores > 0, "need at least one core");
        (0..cores as usize)
            .map(|c| {
                TraceSource::new(
                    entries
                        .iter()
                        .skip(c)
                        .step_by(cores as usize)
                        .copied()
                        .collect(),
                    cycle_ps,
                )
            })
            .collect()
    }

    /// Entries remaining to replay.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.entries.len() - self.pos
    }
}

impl RequestSource for TraceSource {
    fn next_request(&mut self) -> Option<Request> {
        let e = self.entries.get(self.pos)?;
        self.pos += 1;
        Some(Request {
            addr: e.addr,
            is_read: e.is_read,
            think_time_ps: e.gap_cycles * self.cycle_ps,
        })
    }

    /// Converts the next `max` parsed entries in one pass (fewer at the
    /// end of the trace).
    fn refill(&mut self, _ready_at_ps: u64, max: usize, out: &mut VecDeque<Request>) {
        let take = max.min(self.remaining());
        out.reserve(take);
        for e in &self.entries[self.pos..self.pos + take] {
            out.push_back(Request {
                addr: e.addr,
                is_read: e.is_read,
                think_time_ps: e.gap_cycles * self.cycle_ps,
            });
        }
        self.pos += take;
    }

    /// `[pos]` — the cursor into the parsed trace (the entries themselves
    /// are rebuilt by re-parsing the trace file named in the run spec).
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        let mut pos = self.pos as u64;
        c.u64(&mut pos)?;
        self.pos = usize::try_from(pos)
            .ok()
            .filter(|&p| p <= self.entries.len())
            .ok_or_else(|| {
                format!(
                    "TraceSource: position {pos} past end of {}-entry trace",
                    self.entries.len()
                )
            })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;
    use crate::config::SystemConfig;
    use mint_exp::prop::{f64_in, forall, u32_in, u64_in, usize_in};

    fn decoder() -> AddressDecoder {
        AddressDecoder::new(&SystemConfig::table6(), AddressMapping::default())
    }

    #[test]
    fn seventeen_rate_workloads() {
        let w = spec_rate_workloads();
        assert_eq!(w.len(), 17);
        let names: std::collections::HashSet<_> = w.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 17, "names must be unique");
    }

    #[test]
    fn mpki_spread_covers_memory_and_compute_bound() {
        let w = spec_rate_workloads();
        let max = w.iter().map(|s| s.mpki).fold(0.0, f64::max);
        let min = w.iter().map(|s| s.mpki).fold(f64::MAX, f64::min);
        assert!(max > 25.0, "need memory-bound workloads, max {max}");
        assert!(min < 1.0, "need compute-bound workloads, min {min}");
    }

    #[test]
    fn seventeen_mixes_deterministic() {
        let a = mixes();
        let b = mixes();
        assert_eq!(a.len(), 17);
        for (x, y) in a.iter().zip(b.iter()) {
            for (p, q) in x.iter().zip(y.iter()) {
                assert_eq!(p.name, q.name);
            }
        }
    }

    #[test]
    fn stream_reuses_rows_per_locality() {
        let spec = WorkloadSpec {
            name: "test",
            mpki: 10.0,
            row_buffer_locality: 0.9,
            read_fraction: 0.7,
        };
        let d = decoder();
        let mut s = CoreStream::new(spec, d, 1000, 1);
        let mut hits = 0;
        let mut last = None;
        let n = 20_000;
        for _ in 0..n {
            let r = s.next_request().unwrap();
            let a = d.decode(r.addr);
            let key = (a.flat_bank(d.org().banks_per_group), a.row);
            if last == Some(key) {
                hits += 1;
            }
            last = Some(key);
        }
        let rate = f64::from(hits) / f64::from(n);
        assert!((rate - 0.9).abs() < 0.02, "hit rate {rate}");
    }

    #[test]
    fn stream_zero_locality_rarely_repeats() {
        let spec = WorkloadSpec {
            name: "test",
            mpki: 10.0,
            row_buffer_locality: 0.0,
            read_fraction: 0.7,
        };
        let d = decoder();
        let mut s = CoreStream::new(spec, d, 1000, 2);
        let mut last = None;
        let mut repeats = 0;
        for _ in 0..10_000 {
            let r = s.next_request().unwrap();
            let a = d.decode(r.addr);
            let key = (a.flat_bank(d.org().banks_per_group), a.row);
            if last == Some(key) {
                repeats += 1;
            }
            last = Some(key);
        }
        assert!(repeats < 10, "{repeats}");
    }

    #[test]
    fn stream_addresses_decode_in_range() {
        let spec = spec_rate_workloads()[0];
        let d = decoder();
        let mut s = CoreStream::new(spec, d, 1000, 3);
        let org = *d.org();
        for _ in 0..1000 {
            let r = s.next_request().unwrap();
            let a = d.decode(r.addr);
            assert!(a.flat_bank(org.banks_per_group) < org.bank_groups * org.banks_per_group);
            assert!(a.row < org.rows);
            assert!(a.column < org.columns);
        }
    }

    #[test]
    fn think_time_rounds_to_nearest() {
        let cfg = SystemConfig::table6();
        let mk = |mpki: f64| WorkloadSpec {
            name: "t",
            mpki,
            row_buffer_locality: 0.5,
            read_fraction: 0.5,
        };
        // mcf at Table VI: 1000/22 instr/miss ÷ 3 IPC × 333 ps/cycle
        // = 5045.45… ps → 5045 (truncation agreed here).
        assert_eq!(mk(22.0).think_time_ps(&cfg), 5045);
        // povray-ish: 1000/0.3 ÷ 3 × 333 lands at 369_999.999…94 in f64 —
        // a truncating cast would shave it to 369_999; round-to-nearest
        // keeps the exact 370_000.
        assert_eq!(mk(0.3).think_time_ps(&cfg), 370_000);
        // 2 instr/miss ÷ 3 × 333 = 221.999…97 in f64: truncation said 221,
        // nearest says 222.
        assert_eq!(mk(500.0).think_time_ps(&cfg), 222);
        // The exact .5 boundary (representable: 1/2 instr-per-cycle ratio
        // × odd 333 = 166.5): rounds *up* to 167 per round-half-away-from-
        // zero, where truncation gave 166.
        let ipc2 = SystemConfig { core_ipc: 2, ..cfg };
        assert_eq!(mk(1000.0).think_time_ps(&ipc2), 167);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(workload_by_name("mcf").unwrap().name, "mcf");
        assert!(workload_by_name("nosuch").is_none());
    }

    #[test]
    fn instructions_per_miss() {
        let w = WorkloadSpec {
            name: "t",
            mpki: 20.0,
            row_buffer_locality: 0.5,
            read_fraction: 0.5,
        };
        assert!((w.instructions_per_miss() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn trace_parses_comments_blanks_hex_and_decimal() {
        let text = "# header\n\n10 R 0x40\n0 w 128\n   # indented comment\n7 r 0xFF40\n";
        let t = parse_trace(text).unwrap();
        assert_eq!(t.len(), 3);
        let inline =
            parse_trace("10 R 0x40 # hammer the aggressor\n0 w 128# no space needed\n").unwrap();
        assert_eq!(inline.len(), 2);
        assert_eq!(inline[0].addr, 0x40);
        assert_eq!(inline[1].addr, 128);
        assert!(!inline[1].is_read);
        assert_eq!(
            t[0],
            TraceEntry {
                gap_cycles: 10,
                is_read: true,
                addr: 0x40
            }
        );
        assert_eq!(
            t[1],
            TraceEntry {
                gap_cycles: 0,
                is_read: false,
                addr: 128
            }
        );
        assert_eq!(t[2].addr, 0xFF40);
    }

    #[test]
    fn trace_parse_errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("10 R\n", 1, "expected"),
            ("10 R 0x40\nfoo R 0x40\n", 2, "bad gap"),
            ("10 X 0x40\n", 1, "bad direction"),
            ("10 R 0xZZ\n", 1, "bad hex"),
            ("10 R 12 34\n", 1, "trailing"),
            ("10 R nope\n", 1, "bad address"),
            // Comment and blank lines still count towards line numbers,
            // and a trailing comment never hides the malformed triple.
            (
                "# header\n\n10 R 0x40 # fine\nfoo R 0x40 # boom\n",
                4,
                "bad gap",
            ),
            ("10 R # address swallowed by the comment\n", 1, "expected"),
        ] {
            let e = parse_trace(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.reason.contains(needle), "{text:?} → {}", e.reason);
            assert!(e.to_string().contains("trace line"));
        }
    }

    #[test]
    fn core_stream_refill_equals_the_sequential_stream() {
        // A batch refill must hand out exactly the requests one-at-a-time
        // pulls would, in order, whatever the spec, topology, seed and
        // batch sizes — and leave the stream at the same position.
        forall(48, 0x9E4B, |case, rng| {
            let pool = spec_rate_workloads();
            let spec = WorkloadSpec {
                row_buffer_locality: f64_in(rng, 0.0, 1.0),
                read_fraction: f64_in(rng, 0.0, 1.0),
                ..pool[usize_in(rng, 0, pool.len())]
            };
            let cfg = SystemConfig {
                channels: 1 << usize_in(rng, 0, 3),
                ranks: 1 << usize_in(rng, 0, 3),
                ..SystemConfig::table6()
            };
            let mappings = AddressMapping::all();
            let mapping = mappings[usize_in(rng, 0, mappings.len())];
            let decoder = AddressDecoder::new(&cfg, mapping);
            let mut sequential = CoreStream::new(spec, decoder, 1_000, u64_in(rng, 0, u64::MAX));
            let mut batched = sequential.clone();
            let mut ring = VecDeque::new();
            for round in 0..40 {
                let max = usize_in(rng, 0, 40);
                batched.refill(u64_in(rng, 0, u64::MAX), max, &mut ring);
                assert_eq!(ring.len(), max, "case {case}, round {round}");
                for got in ring.drain(..) {
                    assert_eq!(
                        Some(got),
                        sequential.next_request(),
                        "case {case}, round {round}"
                    );
                }
            }
            let words = |s: &mut CoreStream| {
                let mut c = StateCursor::saving();
                s.walk_state(&mut c).expect("a live stream saves");
                c.finish().expect("saving finishes")
            };
            assert_eq!(words(&mut batched), words(&mut sequential));
        });
    }

    #[test]
    fn trace_refill_equals_the_sequential_replay_and_runs_dry_mid_batch() {
        let mut dry_mid_batch = 0;
        forall(48, 0x7EAC, |case, rng| {
            let entries: Vec<TraceEntry> = (0..usize_in(rng, 0, 200))
                .map(|_| TraceEntry {
                    gap_cycles: u64_in(rng, 0, 1_000),
                    is_read: rng.gen_bool(0.5),
                    addr: u64_in(rng, 0, 1 << 34) & !63,
                })
                .collect();
            let cycle_ps = u64_in(rng, 1, 1_000);
            let mut sequential = TraceSource::new(entries.clone(), cycle_ps);
            let mut batched = TraceSource::new(entries, cycle_ps);
            let mut ring = VecDeque::new();
            loop {
                let max = usize_in(rng, 1, 33);
                batched.refill(0, max, &mut ring);
                let got = ring.len();
                for req in ring.drain(..) {
                    assert_eq!(Some(req), sequential.next_request(), "case {case}");
                }
                if got < max {
                    // The trace ran dry inside this batch: both sides are
                    // exhausted, and later refills stay empty.
                    dry_mid_batch += usize::from(got > 0);
                    assert_eq!(sequential.next_request(), None, "case {case}");
                    batched.refill(0, max, &mut ring);
                    assert!(ring.is_empty(), "case {case}");
                    break;
                }
            }
        });
        assert!(dry_mid_batch > 0, "some trace must run dry mid-batch");
    }

    #[test]
    fn default_refill_pulls_one_request_at_the_callers_ready_time() {
        /// Paces to the ready time it is given, like an absolute-slot
        /// attacker, and keeps the default `refill`.
        struct Pinned {
            asked: Vec<u64>,
            left: u32,
        }
        impl RequestSource for Pinned {
            fn next_request(&mut self) -> Option<Request> {
                self.next_request_at(0)
            }
            fn next_request_at(&mut self, ready_at_ps: u64) -> Option<Request> {
                self.asked.push(ready_at_ps);
                self.left = self.left.checked_sub(1)?;
                Some(Request {
                    addr: ready_at_ps & !63,
                    is_read: true,
                    think_time_ps: 0,
                })
            }
        }
        forall(32, 0xDEF1, |case, rng| {
            let mut source = Pinned {
                asked: Vec::new(),
                left: u32_in(rng, 0, 8),
            };
            let mut ring = VecDeque::new();
            for round in 0..10 {
                let ready = u64_in(rng, 0, u64::MAX);
                let had = source.left;
                source.asked.clear();
                source.refill(ready, usize_in(rng, 1, 64), &mut ring);
                assert_eq!(source.asked, [ready], "case {case}, round {round}");
                let want = (had > 0).then_some(Request {
                    addr: ready & !63,
                    is_read: true,
                    think_time_ps: 0,
                });
                assert!(ring.drain(..).eq(want), "case {case}, round {round}");
            }
        });
    }

    #[test]
    fn trace_split_interleaves_round_robin() {
        let entries: Vec<TraceEntry> = (0..10)
            .map(|i| TraceEntry {
                gap_cycles: i,
                is_read: true,
                addr: i * 64,
            })
            .collect();
        let mut sources = TraceSource::split(&entries, 4, 333);
        assert_eq!(sources.len(), 4);
        assert_eq!(sources[0].remaining(), 3); // entries 0, 4, 8
        assert_eq!(sources[3].remaining(), 2); // entries 3, 7
        let r = sources[1].next_request().unwrap();
        assert_eq!(r.addr, 64);
        assert_eq!(r.think_time_ps, 333);
        let r = sources[1].next_request().unwrap();
        assert_eq!(r.addr, 5 * 64);
        assert_eq!(sources[1].next_request().unwrap().addr, 9 * 64);
        assert_eq!(sources[1].next_request(), None);
    }
}
