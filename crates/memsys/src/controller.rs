//! The bank/backend engine of the DDR5 channel: per-bank state, REF/RFM/
//! DRFM scheduling and a per-bank mitigation backend (any tracker of the
//! zoo, not just MINT).
//!
//! This is the *execution* layer of the command-level pipeline
//! (`source → queue → scheduler → timing → bank/backend`): given a decoded
//! address and an earliest start time it plays the request against the
//! bank's row buffer, the REF windows and the scheme's mitigation
//! machinery, and reports when the request starts and completes. *When* a
//! request gets here — and in what order relative to other banks — is the
//! [`Channel`](crate::Channel) scheduler's decision; the inter-bank
//! constraints (tRRD/tFAW/tCCD) live in [`timing`](crate::timing) and are
//! layered on by the channel, so direct [`MemoryController::service`]
//! calls (unit tests, single-bank studies) see pure per-bank behaviour.

use crate::address::{AddressDecoder, AddressMapping, DecodedAddr};
use crate::backend::{refis_per_refw, MitigationBackend};
use crate::config::{MitigationScheme, SystemConfig};
use crate::events::MemEvent;
use crate::telemetry::EngineTelemetry;
use crate::workload::Request;
use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::{Rng64, Xoshiro256StarStar};

/// Aggregate statistics of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimResult {
    /// Requests serviced.
    pub requests: u64,
    /// Row-buffer hits (CAS only, no ACT).
    pub row_hits: u64,
    /// Demand activations (row misses).
    pub demand_acts: u64,
    /// Mitigative victim-refresh activations performed by the device or
    /// the controller — one per victim row actually refreshed, per
    /// [`MitigationDecision::victim_act_count`] (an aggressor mitigation
    /// costs 2 at blast radius 1, a ProTRR-style victim refresh exactly 1).
    pub mitigative_acts: u64,
    /// RFM commands issued (MINT+RFM only).
    pub rfm_commands: u64,
    /// DRFM commands issued (MC-PARA and Graphene).
    pub drfm_commands: u64,
    /// Reads (for the energy model).
    pub reads: u64,
    /// Writes.
    pub writes: u64,
    /// Per-bank REF events elapsed: one per (REF command, bank) pair, for
    /// every REF command whose tRFC window *started* by the end of the run
    /// (including the one at t = 0 — a partial final tREFI still paid for
    /// its REF). This is exactly what [`EnergyModel`](crate::EnergyModel)
    /// multiplies by its per-REF-per-bank energy.
    pub refs: u64,
}

impl SimResult {
    /// Row-buffer hit rate over all serviced requests (0 when idle).
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.row_hits as f64 / self.requests as f64
    }

    /// Accumulates another controller's statistics into this one — how a
    /// multi-channel [`System`](crate::System) folds per-channel results
    /// into the run total.
    pub fn absorb(&mut self, other: &SimResult) {
        self.requests += other.requests;
        self.row_hits += other.row_hits;
        self.demand_acts += other.demand_acts;
        self.mitigative_acts += other.mitigative_acts;
        self.rfm_commands += other.rfm_commands;
        self.drfm_commands += other.drfm_commands;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refs += other.refs;
    }
}

/// When one serviced request started, finished, and whether it hit the
/// open row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// When the bank actually began the request (≥ the requested earliest
    /// start: pushed past bank busy time and REF windows).
    pub start_ps: u64,
    /// When the data transfer completed.
    pub completion_ps: u64,
    /// Whether the request hit the open row (no ACT needed).
    pub row_hit: bool,
}

/// The *cold* per-bank state: mitigation bookkeeping touched only when a
/// bank is actually serviced. The two *hot* fields the channel scheduler
/// scans every decision — ready time and open row — live in dense
/// struct-of-arrays form on [`MemoryController`] (`bank_ready_ps` /
/// `bank_open_row`) so the FR-FCFS lookahead walks two flat arrays
/// instead of striding through backend-sized structs.
#[derive(Debug)]
struct BankState {
    raa: u32,
    /// REF index this bank has processed mitigations up to.
    ref_cursor: u64,
    backend: MitigationBackend,
}

/// Sentinel for "no row open" in the dense `bank_open_row` array (rows are
/// decoder outputs bounded by `rows_per_bank`, which never reaches it).
pub(crate) const OPEN_NONE: u32 = u32::MAX;

/// Pushes `start` past the all-bank REF window it collides with, without
/// touching any per-bank state — the pure timing rule shared by the bank
/// engine and the channel scheduler's lookahead (REF blocks every bank for
/// tRFC at each tREFI boundary).
#[must_use]
pub fn past_ref_window(cfg: &SystemConfig, start: u64) -> u64 {
    let offset = start % cfg.t_refi_ps;
    if offset < cfg.t_rfc_ps {
        start - offset + cfg.t_rfc_ps
    } else {
        start
    }
}

/// The per-bank execution engine of a single-channel DDR5 memory system.
///
/// The engine models the three bank-time thieves the paper measures — REF
/// (tRFC every tREFI, all banks), RFM (tRFC/2 per threshold crossing, one
/// bank) and DRFM (tRFC per sampled activation, one bank) — plus
/// row-buffer hit/miss latencies. Each bank carries a real
/// [`MitigationBackend`] (MINT or any baseline tracker of the zoo), so
/// mitigative activations are counted with the actual selection logic,
/// not a constant.
#[derive(Debug)]
pub struct MemoryController {
    cfg: SystemConfig,
    scheme: MitigationScheme,
    decoder: AddressDecoder,
    banks: Vec<BankState>,
    /// When each bank finishes its current work (hot, scheduler-scanned).
    bank_ready_ps: Vec<u64>,
    /// Open row per bank, [`OPEN_NONE`] when closed (hot,
    /// scheduler-scanned).
    bank_open_row: Vec<u32>,
    rng: Xoshiro256StarStar,
    result: SimResult,
    /// Executed-command log (service order); only fed when
    /// [`enable_event_log`](Self::enable_event_log) was called.
    events: Vec<MemEvent>,
    log_events: bool,
    /// Engine-side telemetry (per-bank ACT totals, precharges); only fed
    /// when [`enable_telemetry`](Self::enable_telemetry) was called.
    telemetry: Option<Box<EngineTelemetry>>,
    /// Memoised tREFI quotient of the last service: the REF index, the
    /// start of its period and the start of the period after it. Service
    /// times are near-monotone, so the per-service `start / tREFI` is
    /// strength-reduced to compares: in-period calls reuse the quotient,
    /// small forward crossings *step* the boundary pair one period at a
    /// time, and only long jumps (or out-of-order callers) pay a real
    /// division — never a stale quotient, both bounds are checked.
    ref_quot: u64,
    ref_base_ps: u64,
    ref_next_ps: u64,
}

/// The victims of `decision` that actually exist in a bank of `rows` rows
/// (`victim_rows` clips the row-0 edge itself; the top edge is ours to
/// enforce, like `bank.contains` in the sim engine).
fn in_bank_victims(
    decision: MitigationDecision,
    blast_radius: u32,
    rows: u32,
) -> impl Iterator<Item = RowId> {
    decision
        .victim_rows(blast_radius)
        .into_iter()
        .filter(move |v| v.0 < rows)
}

/// Where the engine drops [`MemEvent`]s for one mitigation site: the
/// shared log plus the gate and the (bank, time) coordinates every event
/// of the site carries.
struct EventSink<'a> {
    events: &'a mut Vec<MemEvent>,
    on: bool,
    bank: u32,
    at_ps: u64,
}

impl EventSink<'_> {
    fn push(&mut self, event: MemEvent) {
        if self.on {
            self.events.push(event);
        }
    }
}

/// Performs a mitigation: charges one mitigative ACT per in-bank victim
/// row and — when a tracker performs it — shows the tracker its own
/// (otherwise silent) victim refreshes, which is what makes PRCT, Mithril
/// and ProTRR immune to transitive attacks (§V-G). Every mitigation site
/// (REF, RFM, in-DRAM proactive, Graphene DRFM, MC-PARA sampling) charges
/// through here, so cost accounting cannot drift between them — and every
/// victim refresh lands in the event log as one
/// [`MemEvent::MitigativeRefresh`].
fn apply_mitigation(
    result: &mut SimResult,
    mut tracker: Option<&mut dyn InDramTracker>,
    decision: MitigationDecision,
    blast_radius: u32,
    rows: u32,
    sink: &mut EventSink<'_>,
) {
    if decision.is_none() {
        return;
    }
    for v in in_bank_victims(decision, blast_radius, rows) {
        result.mitigative_acts += 1;
        sink.push(MemEvent::MitigativeRefresh {
            bank: sink.bank,
            row: v.0,
            at_ps: sink.at_ps,
        });
        if let Some(t) = tracker.as_deref_mut() {
            t.on_mitigative_refresh(v);
        }
    }
}

impl MemoryController {
    /// Creates a controller for the given scheme with the default address
    /// mapping.
    #[must_use]
    pub fn new(cfg: SystemConfig, scheme: MitigationScheme, seed: u64) -> Self {
        Self::with_mapping(cfg, scheme, AddressMapping::default(), seed)
    }

    /// Creates a controller decoding request addresses with `mapping`.
    #[must_use]
    pub fn with_mapping(
        cfg: SystemConfig,
        scheme: MitigationScheme,
        mapping: AddressMapping,
        seed: u64,
    ) -> Self {
        let decoder = AddressDecoder::new(&cfg, mapping);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        // One bank state per (rank, bank) of the channel, rank-major —
        // indexed by `DecodedAddr::channel_bank`.
        let channel_banks = cfg.banks_per_channel();
        let banks = (0..channel_banks)
            .map(|_| BankState {
                raa: 0,
                ref_cursor: 0,
                backend: MitigationBackend::for_scheme(scheme, &cfg, &mut rng),
            })
            .collect();
        Self {
            cfg,
            scheme,
            decoder,
            banks,
            bank_ready_ps: vec![0; channel_banks as usize],
            bank_open_row: vec![OPEN_NONE; channel_banks as usize],
            rng,
            result: SimResult::default(),
            events: Vec::new(),
            log_events: false,
            telemetry: None,
            ref_quot: 0,
            ref_base_ps: 0,
            ref_next_ps: cfg.t_refi_ps,
        }
    }

    /// Turns on the executed-command log ([`MemEvent`] per ACT/PRE/REF/
    /// RFM/DRFM/victim-refresh, in service order). Off by default — the
    /// perf sweeps pay nothing for the hook. The buffer is preallocated
    /// here and recycled by [`drain_events`](Self::drain_events) (drain
    /// keeps capacity), so `capture_events` runs don't regrow it every
    /// batch.
    pub fn enable_event_log(&mut self) {
        self.log_events = true;
        if self.events.capacity() == 0 {
            self.events.reserve(4096);
        }
    }

    /// Drains the executed-command log accumulated since the last drain
    /// (empty unless [`enable_event_log`](Self::enable_event_log) was
    /// called).
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, MemEvent> {
        self.events.drain(..)
    }

    /// Turns on engine-side telemetry (per-bank activation totals and
    /// precharge counts). Off by default — every hook site is a branch on
    /// a dead `Option`, so non-telemetry runs pay nothing.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(EngineTelemetry::new(self.banks.len())));
        }
    }

    /// The engine's telemetry state, when enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&EngineTelemetry> {
        self.telemetry.as_deref()
    }

    /// Number of banks this controller manages (ranks × banks).
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn result(&self) -> SimResult {
        self.result
    }

    /// The scheme this controller evaluates.
    #[must_use]
    pub fn scheme(&self) -> MitigationScheme {
        self.scheme
    }

    /// The address decoder in force.
    #[must_use]
    pub fn decoder(&self) -> &AddressDecoder {
        &self.decoder
    }

    /// When `bank` finishes its current work (0 when idle).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_ready_ps(&self, bank: u32) -> u64 {
        self.bank_ready_ps[bank as usize]
    }

    /// The row currently open in `bank`'s row buffer, if any. This is the
    /// engine's *lazy* view: a REF boundary the bank has not yet crossed in
    /// service order may still close it (the channel scheduler treats the
    /// prediction as a hint; the engine settles hit/miss truthfully).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn open_row(&self, bank: u32) -> Option<u32> {
        let row = self.bank_open_row[bank as usize];
        (row != OPEN_NONE).then_some(row)
    }

    /// The dense per-bank hot state — `(ready_ps, open_row)` arrays, the
    /// latter with [`OPEN_NONE`] sentinels — scanned by the channel
    /// scheduler's earliest-start lookahead without per-bank accessor
    /// calls.
    pub(crate) fn bank_tables(&self) -> (&[u64], &[u32]) {
        (&self.bank_ready_ps, &self.bank_open_row)
    }

    /// The mitigation backend of one bank (introspection for tests and
    /// Table-IX-style storage reports).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn backend(&self, bank: usize) -> &MitigationBackend {
        &self.banks[bank].backend
    }

    /// Pushes `start` past any REF window it collides with, and processes
    /// the device's per-REF mitigation for this bank (counting the victim
    /// refreshes the tracker requests).
    ///
    /// An all-bank REF precharges every bank, so each crossed tREFI
    /// boundary also closes this bank's row buffer — post-REF requests to
    /// the previously open row are genuine row misses whose ACTs the
    /// tracker must observe.
    fn align_with_refresh(&mut self, bank: usize, start: u64) -> u64 {
        let refi = self.cfg.t_refi_ps;
        let rows = self.cfg.rows_per_bank;
        let blast = self.cfg.blast_radius;
        let refw = refis_per_refw();
        // Process REF-boundary mitigations this bank has crossed.
        let (current_ref, ref_base) = self.ref_index_at(start);
        if self.banks[bank].ref_cursor < current_ref {
            // REF is an all-bank precharge: the row buffer does not survive.
            if self.bank_open_row[bank] != OPEN_NONE {
                if self.log_events {
                    self.events.push(MemEvent::Pre {
                        bank: bank as u32,
                        at_ps: (self.banks[bank].ref_cursor + 1) * refi,
                    });
                }
                if let Some(t) = &mut self.telemetry {
                    t.precharges += 1;
                }
            }
            self.bank_open_row[bank] = OPEN_NONE;
        }
        while self.banks[bank].ref_cursor < current_ref {
            self.banks[bank].ref_cursor += 1;
            let b = &mut self.banks[bank];
            let mut sink = EventSink {
                events: &mut self.events,
                on: self.log_events,
                bank: bank as u32,
                at_ps: b.ref_cursor * refi,
            };
            sink.push(MemEvent::Ref {
                bank: bank as u32,
                ref_index: b.ref_cursor,
                at_ps: b.ref_cursor * refi,
            });
            match &mut b.backend {
                MitigationBackend::None | MitigationBackend::McSample { .. } => {}
                MitigationBackend::InDram(tracker) => {
                    let d = tracker.on_refresh(&mut self.rng);
                    apply_mitigation(
                        &mut self.result,
                        Some(tracker.as_mut()),
                        d,
                        blast,
                        rows,
                        &mut sink,
                    );
                }
                MitigationBackend::McTracker(tracker) => {
                    // MC-side tables (Graphene) mitigate on threshold
                    // crossings, not at REF — but they reset their table
                    // every tREFW.
                    if b.ref_cursor % refw == 0 {
                        tracker.reset(&mut self.rng);
                    }
                }
            }
            // DDR5 RFM: each REF decrements the Rolling Accumulated ACT
            // counter by the threshold, so only banks exceeding RFM_TH
            // activations per tREFI ever trigger an RFM command (this is
            // why the paper's RFM overheads are small: "MINT incurs RFM
            // overheads only when ACT count is greater than RFMTH").
            if let MitigationScheme::MintRfm { rfm_th } = self.scheme {
                b.raa = b.raa.saturating_sub(rfm_th);
            }
        }
        // past_ref_window, reusing this call's period base instead of
        // dividing a second time.
        let offset = start - ref_base;
        if offset < self.cfg.t_rfc_ps {
            ref_base + self.cfg.t_rfc_ps
        } else {
            start
        }
    }

    /// The tREFI index and period base containing `start`, via the
    /// memoised boundary pair: in-period calls are two compares, small
    /// forward crossings step the pair one period at a time, and only
    /// long jumps (or out-of-order starts) divide — always the answer
    /// of `(start / tREFI, ⌊start / tREFI⌋ · tREFI)`.
    #[inline]
    fn ref_index_at(&mut self, start: u64) -> (u64, u64) {
        let refi = self.cfg.t_refi_ps;
        if start < self.ref_base_ps || start >= self.ref_next_ps {
            // Step forward for near crossings (the steady-state case:
            // service times advance by less than a few tREFI per call);
            // rebuild by division for long idle gaps or regressions.
            let mut steps = 4u32;
            loop {
                if start >= self.ref_base_ps && start < self.ref_next_ps {
                    break;
                }
                if start < self.ref_base_ps || steps == 0 {
                    let q = start / refi;
                    self.ref_quot = q;
                    self.ref_base_ps = q * refi;
                    self.ref_next_ps = self.ref_base_ps + refi;
                    break;
                }
                steps -= 1;
                self.ref_quot += 1;
                self.ref_base_ps = self.ref_next_ps;
                self.ref_next_ps += refi;
            }
        }
        (self.ref_quot, self.ref_base_ps)
    }

    /// Services one request arriving at `arrival_ps`; returns its
    /// completion time. Convenience wrapper over
    /// [`service_decoded`](Self::service_decoded) that decodes `req.addr`
    /// with the controller's mapping.
    pub fn service(&mut self, req: Request, arrival_ps: u64) -> u64 {
        let decoded = self.decoder.decode(req.addr);
        self.service_decoded(decoded, req.is_read, arrival_ps)
            .completion_ps
    }

    /// Services one decoded request no earlier than `not_before_ps`;
    /// reports start, completion and hit/miss. Bank state is indexed by
    /// the decoded `(rank, bank_group, bank)` coordinates
    /// ([`DecodedAddr::channel_bank`]); the decoded channel is the
    /// [`System`](crate::System) router's concern, not this controller's.
    ///
    /// # Panics
    ///
    /// Panics if the decoded rank/bank is out of range for the configured
    /// channel.
    pub fn service_decoded(
        &mut self,
        decoded: DecodedAddr,
        is_read: bool,
        not_before_ps: u64,
    ) -> ServiceOutcome {
        let bank_idx = decoded.channel_bank(self.decoder.org()) as usize;
        assert!(bank_idx < self.banks.len(), "bank out of range");
        self.result.requests += 1;
        if is_read {
            self.result.reads += 1;
        } else {
            self.result.writes += 1;
        }
        let row = decoded.row;
        debug_assert!(row != OPEN_NONE, "row collides with the open-row sentinel");
        let start0 = not_before_ps.max(self.bank_ready_ps[bank_idx]);
        let start = self.align_with_refresh(bank_idx, start0);

        let prev_open = self.bank_open_row[bank_idx];
        let is_hit = prev_open == row;
        if !is_hit {
            if self.log_events {
                if prev_open != OPEN_NONE {
                    // Row conflict: the miss precharges the old row first.
                    self.events.push(MemEvent::Pre {
                        bank: bank_idx as u32,
                        at_ps: start,
                    });
                }
                self.events.push(MemEvent::Act {
                    bank: bank_idx as u32,
                    row,
                    at_ps: start,
                });
            }
            if let Some(t) = &mut self.telemetry {
                t.bank_acts[bank_idx] += 1;
                if prev_open != OPEN_NONE {
                    t.precharges += 1;
                }
            }
        }
        let (latency, busy) = if is_hit {
            self.result.row_hits += 1;
            (self.cfg.hit_latency_ps(), self.cfg.hit_latency_ps())
        } else {
            (
                self.cfg.miss_latency_ps(),
                self.cfg.t_rc_ps.max(self.cfg.miss_latency_ps()),
            )
        };
        let completion = start + latency;
        let mut ready = start + busy;

        // A mitigation command (RFM/DRFM) behind the ACT precharges the
        // bank, so the freshly opened row does not survive it.
        let mut row_survives = true;

        if !is_hit {
            self.result.demand_acts += 1;
            let rows = self.cfg.rows_per_bank;
            let blast = self.cfg.blast_radius;
            let b = &mut self.banks[bank_idx];
            let mut sink = EventSink {
                events: &mut self.events,
                on: self.log_events,
                bank: bank_idx as u32,
                at_ps: start,
            };
            match &mut b.backend {
                MitigationBackend::None => {}
                MitigationBackend::InDram(tracker) => {
                    // The device sees every demand ACT. REF-synchronised
                    // trackers return None here; if an RFM-co-designed
                    // tracker volunteers a decision, it rides refresh time
                    // (no extra bank block).
                    if let Some(d) = tracker.on_activation(RowId(row), &mut self.rng) {
                        apply_mitigation(
                            &mut self.result,
                            Some(tracker.as_mut()),
                            d,
                            blast,
                            rows,
                            &mut sink,
                        );
                    }
                }
                MitigationBackend::McSample { p } => {
                    // MC-PARA: sampled ACTs are followed by a blocking DRFM
                    // around the just-activated row; no tracker sees the
                    // victim refreshes (that is PARA's whole design).
                    let p = *p;
                    if self.rng.gen_bool(p) {
                        self.result.drfm_commands += 1;
                        sink.push(MemEvent::Drfm {
                            bank: bank_idx as u32,
                            at_ps: start,
                        });
                        apply_mitigation(
                            &mut self.result,
                            None,
                            MitigationDecision::Aggressor(RowId(row)),
                            blast,
                            rows,
                            &mut sink,
                        );
                        ready += self.cfg.t_drfm_ps;
                        row_survives = false;
                    }
                }
                MitigationBackend::McTracker(tracker) => {
                    // Graphene: the MC-side table counts the ACT; a
                    // threshold crossing issues a DRFM-priced mitigation.
                    if let Some(d) = tracker.on_activation(RowId(row), &mut self.rng) {
                        self.result.drfm_commands += 1;
                        sink.push(MemEvent::Drfm {
                            bank: bank_idx as u32,
                            at_ps: start,
                        });
                        apply_mitigation(
                            &mut self.result,
                            Some(tracker.as_mut()),
                            d,
                            blast,
                            rows,
                            &mut sink,
                        );
                        ready += self.cfg.t_drfm_ps;
                        row_survives = false;
                    }
                }
            }

            // MINT+RFM: the MC counts per-bank activations and issues an
            // RFM (a bank-blocking mitigation opportunity) each threshold
            // crossing.
            if let MitigationScheme::MintRfm { rfm_th } = self.scheme {
                let b = &mut self.banks[bank_idx];
                b.raa += 1;
                if b.raa >= rfm_th {
                    b.raa = 0;
                    self.result.rfm_commands += 1;
                    let mut sink = EventSink {
                        events: &mut self.events,
                        on: self.log_events,
                        bank: bank_idx as u32,
                        at_ps: start,
                    };
                    sink.push(MemEvent::Rfm {
                        bank: bank_idx as u32,
                        at_ps: start,
                    });
                    if let MitigationBackend::InDram(tracker) = &mut b.backend {
                        let d = tracker.on_refresh(&mut self.rng);
                        apply_mitigation(
                            &mut self.result,
                            Some(tracker.as_mut()),
                            d,
                            blast,
                            rows,
                            &mut sink,
                        );
                    }
                    ready += self.cfg.t_rfm_ps;
                    row_survives = false;
                }
            }
        }

        if !row_survives {
            // The mitigation command behind the ACT precharges the bank.
            if self.log_events {
                self.events.push(MemEvent::Pre {
                    bank: bank_idx as u32,
                    at_ps: ready,
                });
            }
            if let Some(t) = &mut self.telemetry {
                t.precharges += 1;
            }
        }
        self.bank_open_row[bank_idx] = if row_survives { row } else { OPEN_NONE };
        self.bank_ready_ps[bank_idx] = ready;
        ServiceOutcome {
            start_ps: start,
            completion_ps: completion,
            row_hit: is_hit,
        }
    }

    /// Walks the engine's dynamic state: bank slabs (RAA counters, REF
    /// cursors, tracker words), the hot ready/open-row arrays, the RNG
    /// stream position, accumulated statistics, the REF memoisation
    /// triple and the (empty) event log. Config, scheme, decoder and the
    /// `log_events` knob are *not* walked — a restore target is rebuilt
    /// from the same spec.
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.fixed(self.banks.len(), "engine banks")?;
        for b in &mut self.banks {
            c.u32(&mut b.raa)?;
            c.u64(&mut b.ref_cursor)?;
            b.backend.walk_state(c)?;
        }
        self.bank_ready_ps.iter_mut().try_for_each(|t| c.u64(t))?;
        self.bank_open_row
            .iter_mut()
            .try_for_each(|row| c.u32(row))?;
        let mut rng = self.rng.state();
        rng.iter_mut().try_for_each(|s| c.u64(s))?;
        if rng == [0; 4] {
            return Err("engine: all-zero RNG state".to_string());
        }
        self.rng = Xoshiro256StarStar::from_state(rng);
        let r = &mut self.result;
        c.u64(&mut r.requests)?;
        c.u64(&mut r.row_hits)?;
        c.u64(&mut r.demand_acts)?;
        c.u64(&mut r.mitigative_acts)?;
        c.u64(&mut r.rfm_commands)?;
        c.u64(&mut r.drfm_commands)?;
        c.u64(&mut r.reads)?;
        c.u64(&mut r.writes)?;
        c.u64(&mut r.refs)?;
        c.u64(&mut self.ref_quot)?;
        c.u64(&mut self.ref_base_ps)?;
        c.u64(&mut self.ref_next_ps)?;
        let refi = self.cfg.t_refi_ps;
        if self.ref_quot.checked_mul(refi) != Some(self.ref_base_ps)
            || self.ref_base_ps.checked_add(refi) != Some(self.ref_next_ps)
        {
            return Err("engine: REF memo is not one tREFI period".to_string());
        }
        // Sessions drain the log after every service: a pause finds it empty.
        c.count(self.events.len(), 0, "engine: undrained events")?;
        // Telemetry words ride behind the stable layout, and only when the
        // layer is enabled — a non-telemetry checkpoint is unchanged.
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.walk_state(c)?;
        }
        Ok(())
    }

    /// Finalises the run at `end_ps`, recording elapsed REF events.
    ///
    /// A REF command fires at every tREFI boundary starting at t = 0 (the
    /// controller blocks `[k·tREFI, k·tREFI + tRFC)` for every `k ≥ 0`),
    /// and each all-bank REF refreshes every bank of every rank of the
    /// channel — so the run elapses
    /// `(⌊end/tREFI⌋ + 1) × ranks × banks` per-bank REF events. Rounding
    /// is *up* to the REF whose window has started: a partial final tREFI
    /// has already paid its REF energy, which keeps [`SimResult::refs`]
    /// consistent with the per-REF-per-bank energy the
    /// [`EnergyModel`](crate::EnergyModel) multiplies by.
    pub fn finish(&mut self, end_ps: u64) {
        self.result.refs =
            (end_ps / self.cfg.t_refi_ps + 1) * u64::from(self.cfg.banks_per_channel());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_in(cfg: &SystemConfig, bank: u32, row: u32) -> Request {
        let d = AddressDecoder::new(cfg, AddressMapping::default());
        Request {
            addr: d.encode_bank_row(bank, row, 0),
            is_read: true,
            think_time_ps: 0,
        }
    }

    fn req(bank: u32, row: u32) -> Request {
        req_in(&SystemConfig::table6(), bank, row)
    }

    fn mc(scheme: MitigationScheme) -> MemoryController {
        MemoryController::new(SystemConfig::table6(), scheme, 7)
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut m = mc(MitigationScheme::Baseline);
        let t_rfc = SystemConfig::table6().t_rfc_ps;
        // Issue after the initial REF window to avoid alignment noise.
        let c1 = m.service(req(0, 10), t_rfc);
        let c2 = m.service(req(0, 10), c1); // same row: hit
        let c3 = m.service(req(0, 99), c2); // different row: miss
        let miss1 = c1 - t_rfc;
        let hit = c2 - c1;
        assert_eq!(miss1, SystemConfig::table6().miss_latency_ps());
        assert_eq!(hit, SystemConfig::table6().hit_latency_ps());
        assert!(c3 - c2 >= SystemConfig::table6().miss_latency_ps());
        assert_eq!(m.result().row_hits, 1);
        assert_eq!(m.result().demand_acts, 2);
    }

    #[test]
    fn hit_ignores_the_column() {
        // Two different columns of the same row are both row hits — the
        // decoder's column field affects the address, not the row buffer.
        let cfg = SystemConfig::table6();
        let d = AddressDecoder::new(&cfg, AddressMapping::default());
        let mut m = mc(MitigationScheme::Baseline);
        let mk = |col| Request {
            addr: d.encode_bank_row(0, 10, col),
            is_read: true,
            think_time_ps: 0,
        };
        let c1 = m.service(mk(0), cfg.t_rfc_ps);
        let _ = m.service(mk(97), c1);
        assert_eq!(m.result().row_hits, 1);
        assert_eq!(m.result().demand_acts, 1);
    }

    #[test]
    fn refresh_window_blocks_service() {
        let mut m = mc(MitigationScheme::Baseline);
        // Arrive right at a tREFI boundary: must wait out tRFC.
        let refi = SystemConfig::table6().t_refi_ps;
        let c = m.service(req(0, 1), refi);
        assert!(c >= refi + SystemConfig::table6().t_rfc_ps);
    }

    #[test]
    fn memoized_ref_index_equals_division() {
        // The memoised boundary pair must answer exactly what a division
        // per call would, whatever the call sequence: in-period steps,
        // crossings of one to a few periods (the stepping path), long
        // jumps past the step budget, and regressions.
        use mint_exp::prop::{forall, u64_in, usize_in};
        forall(64, 0x4EF1, |case, rng| {
            let refi = u64_in(rng, 1, 8_000_000);
            let cfg = SystemConfig {
                t_refi_ps: refi,
                ..SystemConfig::table6()
            };
            let mut m = MemoryController::new(cfg, MitigationScheme::Baseline, 7);
            let mut t = 0u64;
            for step in 0..300 {
                t = match usize_in(rng, 0, 4) {
                    0 => t + u64_in(rng, 0, refi),
                    1 => t + u64_in(rng, refi, 6 * refi),
                    2 => t + u64_in(rng, 6 * refi, 1_000 * refi),
                    _ => u64_in(rng, 0, t + 1),
                };
                assert_eq!(
                    m.ref_index_at(t),
                    (t / refi, t / refi * refi),
                    "case {case}, step {step}: t = {t}, tREFI = {refi}"
                );
            }
        });
    }

    #[test]
    fn past_ref_window_matches_service_alignment() {
        let cfg = SystemConfig::table6();
        assert_eq!(past_ref_window(&cfg, 0), cfg.t_rfc_ps);
        assert_eq!(past_ref_window(&cfg, cfg.t_rfc_ps - 1), cfg.t_rfc_ps);
        assert_eq!(past_ref_window(&cfg, cfg.t_rfc_ps), cfg.t_rfc_ps);
        assert_eq!(
            past_ref_window(&cfg, cfg.t_refi_ps + 5),
            cfg.t_refi_ps + cfg.t_rfc_ps
        );
        let mid = cfg.t_refi_ps / 2;
        assert_eq!(past_ref_window(&cfg, mid), mid);
    }

    #[test]
    fn ref_closes_the_row_buffer() {
        // Regression: an all-bank REF precharges every bank, so a request
        // that crosses a tREFI boundary must re-activate even if it targets
        // the row that was open before the REF.
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::Baseline);
        let c1 = m.service(req(0, 10), cfg.t_rfc_ps);
        assert_eq!(m.result().demand_acts, 1);
        // Next request to the same row, but after the next REF boundary.
        let _ = m.service(req(0, 10), cfg.t_refi_ps + cfg.t_rfc_ps);
        assert_eq!(m.result().row_hits, 0, "post-REF access must be a miss");
        assert_eq!(m.result().demand_acts, 2, "its ACT must be visible");
        let _ = c1;
    }

    #[test]
    fn ref_closes_rows_on_every_bank_independently() {
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::Baseline);
        let _ = m.service(req(0, 10), cfg.t_rfc_ps);
        let _ = m.service(req(1, 10), cfg.t_rfc_ps);
        // Bank 0 crosses the REF; bank 1 is accessed within the same window
        // and keeps its row open until *it* crosses one.
        let _ = m.service(req(0, 10), cfg.t_refi_ps + cfg.t_rfc_ps);
        let _ = m.service(req(1, 10), cfg.t_rfc_ps + 1_000_000);
        assert_eq!(m.result().row_hits, 1, "bank 1 pre-REF access still hits");
        let _ = m.service(req(1, 10), cfg.t_refi_ps + cfg.t_rfc_ps);
        assert_eq!(m.result().row_hits, 1, "bank 1 post-REF access misses");
    }

    #[test]
    fn rfm_closes_the_row_buffer() {
        // With RFM_TH = 1 every ACT triggers an RFM, which precharges the
        // bank: back-to-back same-row requests can never hit.
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::MintRfm { rfm_th: 1 });
        let mut t = cfg.t_rfc_ps;
        for _ in 0..4 {
            t = m.service(req(0, 10), t);
        }
        assert_eq!(m.result().row_hits, 0, "RFM must close the row");
        assert_eq!(m.result().demand_acts, 4);
    }

    #[test]
    fn drfm_closes_the_row_buffer() {
        // MC-PARA with p = 1: every ACT is followed by a DRFM.
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::McPara { p: 1.0 });
        let mut t = cfg.t_rfc_ps;
        for _ in 0..4 {
            t = m.service(req(0, 10), t);
        }
        assert_eq!(m.result().row_hits, 0, "DRFM must close the row");
        assert_eq!(m.result().drfm_commands, 4);
    }

    #[test]
    fn mint_adds_no_bank_time_but_counts_mitigations() {
        let cfg = SystemConfig::table6();
        let mut base = mc(MitigationScheme::Baseline);
        let mut mint = mc(MitigationScheme::Mint);
        let mut t_base = cfg.t_rfc_ps;
        let mut t_mint = cfg.t_rfc_ps;
        for i in 0..2000u32 {
            t_base = base.service(req(i % 4, i), t_base);
            t_mint = mint.service(req(i % 4, i), t_mint);
        }
        assert_eq!(t_base, t_mint, "MINT must not add bank time");
        assert!(mint.result().mitigative_acts > 0);
        assert_eq!(base.result().mitigative_acts, 0);
    }

    #[test]
    fn in_dram_zoo_adds_no_bank_time() {
        // Every in-DRAM tracker mitigates inside the REF's tRFC: bank
        // timing must be bit-identical to the baseline.
        let cfg = SystemConfig::table6();
        for scheme in [
            MitigationScheme::Mithril,
            MitigationScheme::ProTrr,
            MitigationScheme::SimpleTrr,
            MitigationScheme::Prct,
            MitigationScheme::Pride,
            MitigationScheme::Parfm,
        ] {
            let mut base = mc(MitigationScheme::Baseline);
            let mut zoo = mc(scheme);
            let mut t_base = cfg.t_rfc_ps;
            let mut t_zoo = cfg.t_rfc_ps;
            for i in 0..2000u32 {
                t_base = base.service(req(i % 4, i), t_base);
                t_zoo = zoo.service(req(i % 4, i), t_zoo);
            }
            assert_eq!(t_base, t_zoo, "{} must not add bank time", scheme.label());
            assert!(
                zoo.result().mitigative_acts > 0,
                "{} should mitigate on this hammer-y stream",
                scheme.label()
            );
        }
    }

    #[test]
    fn protrr_charges_one_act_per_victim_refresh() {
        // ProTRR's REF mitigation is a single-row VictimRefresh; the old
        // constant `+= 2` would double-charge it.
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::ProTrr);
        let mut t = cfg.t_rfc_ps;
        // Hammer one row on bank 0 across several tREFI windows.
        for i in 0..2000u32 {
            t = m.service(req(0, 1000 + (i % 2)), t);
        }
        let refs_crossed = t / cfg.t_refi_ps;
        assert!(m.result().mitigative_acts > 0);
        assert!(
            m.result().mitigative_acts <= refs_crossed,
            "one victim ACT per REF opportunity at most: {} acts over {} REFs",
            m.result().mitigative_acts,
            refs_crossed
        );
    }

    #[test]
    fn graphene_issues_drfm_on_threshold_crossings() {
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::Graphene);
        let mut t = cfg.t_rfc_ps;
        // Alternate two rows so every ACT misses and the table counts up to
        // the Graphene mitigation threshold (350 for TRH 1400).
        for i in 0..2000u32 {
            t = m.service(req(0, 10 + (i % 2)), t);
        }
        assert!(
            m.result().drfm_commands >= 2,
            "2×1000 ACTs over threshold 350 must trigger DRFMs, got {}",
            m.result().drfm_commands
        );
        assert_eq!(
            m.result().mitigative_acts,
            2 * m.result().drfm_commands,
            "each Graphene DRFM refreshes the aggressor's two victims"
        );
    }

    #[test]
    fn victims_clip_at_both_bank_edges() {
        // An aggressor at the top row of the bank has only one in-bank
        // victim, exactly like row 0 — the phantom outside row must be
        // neither charged as a mitigative ACT nor shown to any tracker.
        let cfg = SystemConfig {
            rows_per_bank: 64,
            ..SystemConfig::table6()
        };
        let top = cfg.rows_per_bank - 1;
        let mut m = MemoryController::new(cfg, MitigationScheme::McPara { p: 1.0 }, 3);
        let _ = m.service(req_in(&cfg, 0, top), cfg.t_rfc_ps);
        assert_eq!(m.result().drfm_commands, 1);
        assert_eq!(
            m.result().mitigative_acts,
            1,
            "top-row aggressor has a single in-bank victim"
        );
        let _ = m.service(req_in(&cfg, 0, 0), cfg.t_rfc_ps * 2);
        assert_eq!(m.result().mitigative_acts, 2, "row 0 likewise");
        let _ = m.service(req_in(&cfg, 0, 30), cfg.t_rfc_ps * 3);
        assert_eq!(m.result().mitigative_acts, 4, "interior rows cost 2");
    }

    #[test]
    fn blast_radius_is_config_driven() {
        // Blast radius 2 charges four victim ACTs per aggressor mitigation
        // on an interior row — the old hardcoded constant only ever
        // charged two.
        let cfg = SystemConfig {
            blast_radius: 2,
            ..SystemConfig::table6()
        };
        let mut m = MemoryController::new(cfg, MitigationScheme::McPara { p: 1.0 }, 3);
        let _ = m.service(req_in(&cfg, 0, 500), cfg.t_rfc_ps);
        assert_eq!(m.result().drfm_commands, 1);
        assert_eq!(
            m.result().mitigative_acts,
            4,
            "blast radius 2 refreshes two victims per side"
        );
    }

    #[test]
    fn rfm_blocks_bank_periodically() {
        let cfg = SystemConfig::table6();
        let mut base = mc(MitigationScheme::Baseline);
        let mut rfm = mc(MitigationScheme::MintRfm { rfm_th: 16 });
        let mut t_base = cfg.t_rfc_ps;
        let mut t_rfm = cfg.t_rfc_ps;
        for i in 0..2000u32 {
            t_base = base.service(req(0, i), t_base);
            t_rfm = rfm.service(req(0, i), t_rfm);
        }
        assert!(t_rfm > t_base, "RFM16 must slow a bank-hammering stream");
        // Back-to-back ACTs run at ~81 per tREFI; the REF decrement absorbs
        // 16 of those per interval, so most ACTs still accumulate RAA.
        assert!(
            rfm.result().rfm_commands >= 80,
            "got {}",
            rfm.result().rfm_commands
        );
    }

    #[test]
    fn drfm_blocks_with_probability() {
        let cfg = SystemConfig::table6();
        let mut para = mc(MitigationScheme::McPara { p: 0.25 });
        let mut t = cfg.t_rfc_ps;
        for i in 0..4000u32 {
            t = para.service(req(0, i), t);
        }
        let drfms = para.result().drfm_commands;
        assert!(
            (800..1200).contains(&drfms),
            "expected ≈1000 DRFMs at p=0.25, got {drfms}"
        );
    }

    #[test]
    fn per_bank_queues_are_independent() {
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::Baseline);
        let t0 = cfg.t_rfc_ps;
        let c0 = m.service(req(0, 1), t0);
        // A request to another bank at the same instant is not delayed by
        // bank 0's busy time (the engine models no inter-bank constraints;
        // those are the channel's).
        let c1 = m.service(req(1, 1), t0);
        assert_eq!(c0, c1);
    }

    #[test]
    fn refs_count_started_windows() {
        let cfg = SystemConfig::table6();
        let banks = u64::from(cfg.banks);
        let mut m = mc(MitigationScheme::Baseline);
        m.finish(0);
        assert_eq!(m.result().refs, banks, "the t=0 REF always elapsed");
        m.finish(cfg.t_refi_ps - 1);
        assert_eq!(m.result().refs, banks, "partial window: still one REF");
        m.finish(cfg.t_refi_ps);
        assert_eq!(m.result().refs, 2 * banks);
        m.finish(10 * cfg.t_refi_ps + 1);
        assert_eq!(m.result().refs, 11 * banks);
    }

    #[test]
    fn refs_scale_with_ranks() {
        // Regression: `finish` used to multiply by `cfg.banks` alone,
        // silently under-counting REF energy on multi-rank channels.
        let cfg = SystemConfig {
            ranks: 2,
            ..SystemConfig::table6()
        };
        let mut m = MemoryController::new(cfg, MitigationScheme::Baseline, 7);
        m.finish(0);
        assert_eq!(
            m.result().refs,
            2 * u64::from(cfg.banks),
            "an all-bank REF sweeps every rank"
        );
        m.finish(cfg.t_refi_ps);
        assert_eq!(m.result().refs, 2 * 2 * u64::from(cfg.banks));
    }

    #[test]
    fn ranks_carry_independent_bank_state() {
        // Regression: bank state used to be indexed by the in-rank flat
        // bank only, so the same bank number on two ranks aliased one row
        // buffer. The same (bank_group, bank, row) on rank 0 and rank 1
        // must be two independent row buffers.
        let cfg = SystemConfig {
            ranks: 2,
            ..SystemConfig::table6()
        };
        let mut m = MemoryController::new(cfg, MitigationScheme::Baseline, 7);
        let at = |rank| DecodedAddr {
            channel: 0,
            rank,
            bank_group: 2,
            bank: 1,
            row: 42,
            column: 0,
        };
        let t0 = cfg.t_rfc_ps;
        let o0 = m.service_decoded(at(0), true, t0);
        assert!(!o0.row_hit);
        // Same coordinates on rank 1: its own bank, so this is a miss —
        // and it is not delayed by rank 0's busy bank either.
        let o1 = m.service_decoded(at(1), true, t0);
        assert!(!o1.row_hit, "rank 1 must not see rank 0's open row");
        assert_eq!(o0.start_ps, o1.start_ps, "independent bank ready times");
        // Re-touching rank 0's row is a genuine hit.
        let o2 = m.service_decoded(at(0), true, o0.completion_ps);
        assert!(o2.row_hit);
        assert_eq!(m.result().row_hits, 1);
        assert_eq!(m.result().demand_acts, 2);
    }

    #[test]
    fn event_log_is_off_by_default_and_complete_when_on() {
        let cfg = SystemConfig::table6();
        let mut silent = mc(MitigationScheme::Mint);
        let _ = silent.service(req(0, 10), cfg.t_rfc_ps);
        assert_eq!(silent.drain_events().count(), 0, "log off by default");

        let mut m = mc(MitigationScheme::Mint);
        m.enable_event_log();
        // One miss per tREFI across several boundaries: every demand ACT
        // and every crossed REF must appear, in service order.
        let mut t = cfg.t_rfc_ps;
        let mut acts = 0u64;
        let mut refs = 0u64;
        for i in 0..40u32 {
            t = m.service(req(0, i), t);
            for e in m.drain_events() {
                match e {
                    MemEvent::Act { bank, row, .. } => {
                        assert_eq!(bank, 0);
                        assert_eq!(row, i);
                        acts += 1;
                    }
                    MemEvent::Ref { bank, .. } => {
                        assert_eq!(bank, 0);
                        refs += 1;
                    }
                    MemEvent::Pre { .. } | MemEvent::MitigativeRefresh { .. } => {}
                    other => panic!("unexpected event {other:?} under MINT"),
                }
            }
        }
        assert_eq!(acts, 40, "one ACT event per demand miss");
        assert_eq!(refs, t / cfg.t_refi_ps, "one REF event per crossed tREFI");
    }

    #[test]
    fn mitigation_events_name_every_victim() {
        // MC-PARA at p = 1: every ACT gets a DRFM whose two victim
        // refreshes are logged, followed by the mitigation's precharge.
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::McPara { p: 1.0 });
        m.enable_event_log();
        let _ = m.service(req(0, 500), cfg.t_rfc_ps);
        let events: Vec<MemEvent> = m.drain_events().collect();
        assert!(matches!(events[0], MemEvent::Act { row: 500, .. }));
        assert!(matches!(events[1], MemEvent::Drfm { bank: 0, .. }));
        assert!(matches!(
            events[2],
            MemEvent::MitigativeRefresh { row: 499, .. }
        ));
        assert!(matches!(
            events[3],
            MemEvent::MitigativeRefresh { row: 501, .. }
        ));
        assert!(matches!(events[4], MemEvent::Pre { .. }));
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn rfm_events_are_logged() {
        let cfg = SystemConfig::table6();
        let mut m = mc(MitigationScheme::MintRfm { rfm_th: 1 });
        m.enable_event_log();
        let t = m.service(req(0, 10), cfg.t_rfc_ps);
        let _ = m.service(req(0, 11), t);
        let events: Vec<MemEvent> = m.drain_events().collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, MemEvent::Rfm { bank: 0, .. })),
            "RFM_TH = 1 must log an RFM command: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, MemEvent::Pre { .. })),
            "the RFM precharges the bank"
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut m = mc(MitigationScheme::McPara { p: 0.1 });
            let mut t = 0;
            for i in 0..1000u32 {
                t = m.service(req(i % 8, i * 7), t);
            }
            (t, m.result())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zoo_determinism() {
        for scheme in MitigationScheme::zoo() {
            let run = || {
                let mut m = mc(scheme);
                let mut t = 0;
                for i in 0..500u32 {
                    t = m.service(req(i % 8, i * 3 % 64), t);
                }
                (t, m.result())
            };
            assert_eq!(run(), run(), "{} must be deterministic", scheme.label());
        }
    }
}
