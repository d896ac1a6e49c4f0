//! The channel scheduler: a bounded transaction queue drained by a
//! pluggable [`SchedulePolicy`] under the inter-bank timing constraints.
//!
//! A [`Channel`] is the command-level pipeline of the memory system:
//!
//! ```text
//! RequestSource ──► TransQueue ──► SchedulePolicy ──► TimingState ──► banks
//!   (frontend)       (bounded)     (FCFS/FR-FCFS)     (tRRD/tFAW/tCCD)  (engine)
//! ```
//!
//! Scheduling works in *decision steps*: among all queued transactions the
//! channel computes each one's earliest possible start (bank busy time,
//! REF windows, tRRD/tFAW for the ACT of a predicted miss, tCCD for the
//! CAS), then arbitrates among the transactions achieving the global
//! minimum. Because every step issues the earliest-startable transaction,
//! command times are monotone — which keeps the rolling timing windows
//! honest and the whole pipeline bit-deterministic for any worker count.

use crate::address::{AddressDecoder, AddressMapping, DecodedAddr};
use crate::config::{MitigationScheme, SystemConfig};
use crate::controller::{past_ref_window, MemoryController, SimResult};
use crate::telemetry::SchedTelemetry;
use crate::timing::{InterBankTiming, TimingState};
use crate::workload::Request;
use mint_core::StateCursor;

/// How the channel arbitrates among simultaneously issuable transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// First-come-first-served: strictly oldest-first among issuable
    /// transactions (the scalar model this pipeline replaced serviced each
    /// bank in arrival order; FCFS is its channel-level equivalent).
    Fcfs,
    /// FR-FCFS: row-hit-first, then oldest-first, with a starvation cap —
    /// once an issuable transaction has been bypassed `starvation_cap`
    /// times by younger row hits it gains absolute priority.
    FrFcfs {
        /// Bypass budget before an old transaction is force-served.
        starvation_cap: u32,
    },
}

impl SchedulePolicy {
    /// The production default: FR-FCFS with a bypass budget of 4.
    #[must_use]
    pub fn frfcfs() -> Self {
        SchedulePolicy::FrFcfs { starvation_cap: 4 }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SchedulePolicy::Fcfs => "FCFS".to_owned(),
            SchedulePolicy::FrFcfs { starvation_cap } => format!("FR-FCFS(cap{starvation_cap})"),
        }
    }

    /// Parses a policy from its [`label`](SchedulePolicy::label) form,
    /// case-insensitively — `"fcfs"`, `"fr-fcfs"` / `"frfcfs"` (the
    /// production cap), or `"fr-fcfs(capN)"` for an explicit starvation
    /// cap. The inverse of `label`, used by the declarative
    /// [`ScenarioSpec`](crate::ScenarioSpec) text format. Returns `None`
    /// for unknown policies.
    #[must_use]
    pub fn parse(s: &str) -> Option<SchedulePolicy> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "fcfs" => return Some(SchedulePolicy::Fcfs),
            "fr-fcfs" | "frfcfs" => return Some(SchedulePolicy::frfcfs()),
            _ => {}
        }
        let cap = lower
            .strip_prefix("fr-fcfs(cap")
            .or_else(|| lower.strip_prefix("frfcfs(cap"))?
            .strip_suffix(')')?;
        cap.parse()
            .ok()
            .map(|starvation_cap| SchedulePolicy::FrFcfs { starvation_cap })
    }
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        Self::frfcfs()
    }
}

/// One in-flight transaction of the bounded queue.
#[derive(Debug, Clone, Copy, Default)]
struct Transaction {
    id: u64,
    core: u32,
    arrival_ps: u64,
    decoded: DecodedAddr,
    /// Channel-local bank index (`decoded.channel_bank(..)`, rank-major),
    /// resolved once at admission — the planner reads it per slot per
    /// decision.
    bank: u32,
    is_read: bool,
    /// Times an older issuable transaction was passed over for a younger
    /// row hit (FR-FCFS starvation accounting).
    bypassed: u32,
}

/// One slab slot of the transaction queue.
///
/// Slots are stable: a transaction keeps its index for its whole queue
/// residency, service frees the slot onto a free list in O(1), and FCFS
/// order lives in the age key `(arrival_ps, id)` rather than in storage
/// order. Each slot also carries the incremental planner's cache: the
/// transaction's earliest start and predicted CAS offset, plus a dirty
/// bit cleared whenever the slot's bank is serviced.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    occupied: bool,
    /// This slot's position in the channel's dense `active` index list
    /// (meaningful only while occupied; maintained by push/service).
    active_pos: u32,
    /// Bank inputs (ready time, open row) unchanged since `start_ps` was
    /// cached; the global clock/ACT/CAS/REF horizons are revalidated
    /// cheaply at plan time instead of being tracked eagerly.
    fresh: bool,
    /// Whether the latest planning pass left `start_ps` exact (computed
    /// or revalidated). Slots whose pure floor already exceeded the
    /// running minimum are skipped and marked inexact — they are provably
    /// not candidates, so neither arbitration nor starvation accounting
    /// may read their stale starts.
    exact: bool,
    /// Cached earliest start (exact only when `exact` is set).
    start_ps: u64,
    /// Cached CAS offset: 0 = predicted row hit, tRP + tRCD = miss.
    cas_off_ps: u64,
    /// The pure floor `max(clock, arrival, bank_ready)` — a lower bound
    /// on the true earliest start, maintained incrementally: set at
    /// admission, raised to the new clock after every service (plus a
    /// bank-ready recompute for the serviced bank's slots).
    base_ps: u64,
    tx: Transaction,
}

/// The two all-bank REF windows at/after the planning clock, hoisted out
/// of the per-transaction fixpoint so the hot loop replaces
/// [`past_ref_window`]'s division with two compares. Exact for any
/// `t >= clock`; times beyond the second window (or degenerate configs
/// with `tRFC >= tREFI`) fall back to the shared rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefWindows {
    /// Start/end of the REF window of the tREFI period containing the
    /// base time, and of the period after it.
    w0_start: u64,
    w0_end: u64,
    w1_start: u64,
    w1_end: u64,
    /// Whether the periodic fast path applies (`tRFC < tREFI`, so one
    /// push lands outside every window and the rule is idempotent).
    fast: bool,
}

impl RefWindows {
    fn at(cfg: &SystemConfig, base: u64) -> Self {
        let fast = cfg.t_rfc_ps < cfg.t_refi_ps;
        let w0_start = if fast { base - base % cfg.t_refi_ps } else { 0 };
        Self {
            w0_start,
            w0_end: w0_start + cfg.t_rfc_ps,
            w1_start: w0_start + cfg.t_refi_ps,
            w1_end: w0_start + cfg.t_refi_ps + cfg.t_rfc_ps,
            fast,
        }
    }

    /// Monotonically advances the pair until it contains `base`,
    /// stepping whole periods without dividing; long jumps (a channel
    /// idle for many tREFI) fall back to the division rebuild.
    fn advance_to(&mut self, cfg: &SystemConfig, base: u64) {
        debug_assert!(self.fast);
        let mut steps = 4u32;
        while base >= self.w1_start {
            if steps == 0 {
                *self = RefWindows::at(cfg, base);
                return;
            }
            steps -= 1;
            self.w0_start = self.w1_start;
            self.w0_end = self.w1_end;
            self.w1_start += cfg.t_refi_ps;
            self.w1_end += cfg.t_refi_ps;
        }
    }

    /// [`past_ref_window`] with the division amortised away.
    #[inline]
    fn adjust(&self, cfg: &SystemConfig, t: u64) -> u64 {
        if self.fast && t >= self.w0_start {
            if t < self.w0_end {
                return self.w0_end;
            }
            if t < self.w1_start {
                return t;
            }
            if t < self.w1_end {
                return self.w1_end;
            }
        }
        past_ref_window(cfg, t)
    }
}

/// Everything the per-slot earliest-start computation reads, borrowed
/// once per planning pass (disjoint from the slot slab, so the pass can
/// refresh slot caches while scanning).
struct PlanCtx<'a> {
    cfg: &'a SystemConfig,
    timing: &'a TimingState,
    /// Dense per-bank open rows (struct-of-arrays view of the engine).
    rows: &'a [u32],
    wins: RefWindows,
    /// No inter-bank constraint can delay a start at/after this time
    /// ([`TimingState::quiet_ps`]): one compare instead of the ACT/CAS
    /// checks for far-future starts.
    quiet_ps: u64,
}

impl PlanCtx<'_> {
    /// Whether a slot's cached start is provably still the scratch
    /// answer: bank inputs unchanged (`fresh`), the pure floor
    /// (clock/arrival/bank-ready pushed past REF) still lands exactly on
    /// it, and the global ACT/CAS horizons do not move it. A cached start
    /// *above* the pure floor was shaped by a rolling horizon that has
    /// since advanced (possibly opening an earlier slot), so it is
    /// recomputed rather than trusted.
    #[inline]
    fn reusable(&self, slot: &Slot) -> bool {
        if !slot.fresh || !self.wins.fast {
            return false;
        }
        if slot.start_ps != self.wins.adjust(self.cfg, slot.base_ps) {
            return false;
        }
        if slot.start_ps >= self.quiet_ps {
            return true;
        }
        let (rank, bg) = (slot.tx.decoded.rank, slot.tx.decoded.bank_group);
        (slot.cas_off_ps == 0 || slot.start_ps >= self.timing.earliest_act(rank, bg))
            && self.timing.cas_slot(slot.start_ps + slot.cas_off_ps, bg)
                == slot.start_ps + slot.cas_off_ps
    }

    /// Earliest feasible start of one transaction from current state:
    /// the same capped fixpoint as the scratch reference (bank busy time,
    /// REF windows, ACT spacing for a predicted miss, CAS slot), with the
    /// REF division hoisted into [`RefWindows`] and a one-compare exit
    /// for starts past every rolling horizon. Returns `(start, cas_off)`.
    #[inline]
    fn compute(&self, tx: &Transaction, base: u64) -> (u64, u64) {
        let predicted_hit = self.rows[tx.bank as usize] == tx.decoded.row;
        let cas_off = if predicted_hit {
            0
        } else {
            self.cfg.t_rp_ps + self.cfg.t_rcd_ps
        };
        let mut t = base;
        if self.wins.fast && t >= self.quiet_ps {
            // Past every ACT/CAS horizon; one REF push is already the
            // fixpoint (window ends never sit inside a window).
            return (self.wins.adjust(self.cfg, t), cas_off);
        }
        let (rank, bg) = (tx.decoded.rank, tx.decoded.bank_group);
        for _ in 0..4 {
            let prev = t;
            t = self.wins.adjust(self.cfg, t);
            if !predicted_hit {
                t = t.max(self.timing.earliest_act(rank, bg));
            }
            t = self.timing.cas_slot(t + cas_off, bg) - cas_off;
            if t == prev {
                break;
            }
        }
        (t, cas_off)
    }

    /// Leaves `slot` with an exact start for this pass: revalidates the
    /// cache or recomputes from `slot.base_ps`, and marks the slot exact.
    #[inline]
    fn refresh(&self, slot: &mut Slot) {
        if !self.reusable(slot) {
            let (s, off) = self.compute(&slot.tx, slot.base_ps);
            slot.start_ps = s;
            slot.cas_off_ps = off;
        }
        slot.fresh = true;
        slot.exact = true;
    }
}

/// What the channel reports back to the frontend when a transaction
/// finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The core (request source) that issued the transaction.
    pub core: u32,
    /// When the transaction entered the queue.
    pub arrival_ps: u64,
    /// When the bank began executing it.
    pub start_ps: u64,
    /// When its data transfer completed.
    pub completion_ps: u64,
    /// Whether it hit the open row.
    pub row_hit: bool,
}

/// A single-channel, command-level DDR5 memory pipeline: bounded
/// transaction queue → schedule policy → inter-bank timing → per-bank
/// engine (with mitigation backends).
#[derive(Debug)]
pub struct Channel {
    cfg: SystemConfig,
    policy: SchedulePolicy,
    engine: MemoryController,
    timing: TimingState,
    /// Stable-order transaction slab (see [`Slot`]); arbitration order is
    /// carried by age keys, never by storage position.
    slots: Vec<Slot>,
    /// Indices of vacated slots, reused before the slab grows.
    free: Vec<u32>,
    /// Dense, unordered list of the occupied slot indices: every planner
    /// scan walks exactly the live transactions, however large the slab
    /// has historically grown. Service removes by swap (order is
    /// irrelevant — arbitration is key-based).
    active: Vec<u32>,
    next_id: u64,
    /// Issue time of the most recent decision (command times are
    /// monotone).
    clock_ps: u64,
    /// The decision computed by the last [`plan`](Self::plan) call, kept
    /// until the queue or device state changes (every serviced request
    /// needs the plan twice — admission lookahead, then the decision
    /// itself — and the earliest-start scan is the scheduler's hot path).
    plan_cache: Option<Plan>,
    /// The two REF windows at/after the clock, rebuilt only when the
    /// clock crosses into the second period — so the planner's REF
    /// division runs once per tREFI of simulated time, not once per
    /// decision.
    wins: RefWindows,
    /// The active slot with the smallest floor (`base_ps`, slot index),
    /// maintained by push/service so a planning pass can seed its
    /// running minimum without rescanning every floor.
    seed_hint: Option<(u64, u32)>,
    /// Full planning passes run so far (cache hits don't count).
    plans_computed: u64,
    /// Scheduler telemetry (decision counters, queue-depth/wait
    /// histograms); only fed when
    /// [`enable_telemetry`](Self::enable_telemetry) was called.
    telemetry: Option<Box<SchedTelemetry>>,
    /// Plan with the retained scratch reference implementation instead
    /// of the incremental planner (differential-testing oracle).
    reference: bool,
}

/// One computed scheduling decision: which slot and when. The per-slot
/// earliest starts that starvation accounting needs live in the slot
/// caches, which every planning pass leaves current.
#[derive(Debug, Clone, Copy, Default)]
struct Plan {
    slot: usize,
    start_ps: u64,
}

/// The arbitration fronts of one planning pass: the oldest achiever of
/// the running minimum overall, among predicted row hits, and among
/// starved transactions (FR-FCFS only). Rebuilt from scratch whenever
/// the running minimum drops.
#[derive(Debug, Default, Clone, Copy)]
struct Bests {
    all: Option<((u64, u64), usize)>,
    hit: Option<((u64, u64), usize)>,
    starved: Option<((u64, u64), usize)>,
}

impl Bests {
    /// Folds one achiever of the current minimum into the fronts.
    #[inline]
    fn consider(&mut self, policy: SchedulePolicy, slot: &Slot, i: usize) {
        let key = (slot.tx.arrival_ps, slot.tx.id);
        if self.all.map_or(true, |(k, _)| key < k) {
            self.all = Some((key, i));
        }
        if let SchedulePolicy::FrFcfs { starvation_cap } = policy {
            if slot.tx.bypassed >= starvation_cap {
                if self.starved.map_or(true, |(k, _)| key < k) {
                    self.starved = Some((key, i));
                }
            } else if slot.cas_off_ps == 0 && self.hit.map_or(true, |(k, _)| key < k) {
                self.hit = Some((key, i));
            }
        }
    }
}

impl Channel {
    /// Creates a channel for `scheme` with the given arbitration policy
    /// and address mapping.
    #[must_use]
    pub fn new(
        cfg: SystemConfig,
        scheme: MitigationScheme,
        policy: SchedulePolicy,
        mapping: AddressMapping,
        seed: u64,
    ) -> Self {
        Self {
            cfg,
            policy,
            engine: MemoryController::with_mapping(cfg, scheme, mapping, seed),
            timing: TimingState::with_ranks(InterBankTiming::from_system(&cfg), cfg.ranks),
            slots: Vec::with_capacity(cfg.queue_depth as usize),
            free: Vec::with_capacity(cfg.queue_depth as usize),
            active: Vec::with_capacity(cfg.queue_depth as usize),
            next_id: 0,
            clock_ps: 0,
            plan_cache: None,
            wins: RefWindows::at(&cfg, 0),
            seed_hint: None,
            plans_computed: 0,
            telemetry: None,
            reference: false,
        }
    }

    /// Switches this channel between the incremental planner (the
    /// default) and the retained scratch reference implementation. Both
    /// produce bit-identical schedules; the reference path exists as the
    /// differential-testing oracle (`tests/sched_oracle.rs`).
    pub fn set_reference_planner(&mut self, on: bool) {
        self.reference = on;
        self.plan_cache = None;
        for s in &mut self.slots {
            s.fresh = false;
        }
    }

    /// Full planning passes run so far. Admission lookaheads answered
    /// from the plan cache and pushes that provably keep the plan don't
    /// count — the plan-cache tests pin that.
    #[must_use]
    pub fn plans_computed(&self) -> u64 {
        self.plans_computed
    }

    /// The arbitration policy in force.
    #[must_use]
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// The per-bank engine (stats, backends, decoder).
    #[must_use]
    pub fn engine(&self) -> &MemoryController {
        &self.engine
    }

    /// The decoder translating request addresses.
    #[must_use]
    pub fn decoder(&self) -> &AddressDecoder {
        self.engine.decoder()
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn result(&self) -> SimResult {
        self.engine.result()
    }

    /// Turns on the per-bank engine's executed-command log (see
    /// [`MemoryController::enable_event_log`]); events accumulate in
    /// service order and are read back with
    /// [`drain_events`](Self::drain_events).
    pub fn enable_event_log(&mut self) {
        self.engine.enable_event_log();
    }

    /// Drains the executed-command events accumulated since the last
    /// drain (empty unless the log was enabled).
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, crate::events::MemEvent> {
        self.engine.drain_events()
    }

    /// Turns on scheduler- and engine-side telemetry for this channel.
    /// Off by default — every hook site is a branch on a dead `Option`,
    /// so non-telemetry runs pay nothing and stay bit-identical.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::default());
        }
        self.engine.enable_telemetry();
    }

    /// The scheduler's telemetry state, when enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&SchedTelemetry> {
        self.telemetry.as_deref()
    }

    /// Queued (not yet serviced) transactions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.active.len()
    }

    /// Whether the bounded queue can accept another transaction.
    #[must_use]
    pub fn has_room(&self) -> bool {
        self.active.len() < self.cfg.queue_depth as usize
    }

    /// The REF windows for the current clock, rebuilt lazily on period
    /// crossings (`adjust` stays exact for any `t >= w0_start` via its
    /// fallback, so an aged pair is never wrong — only slower).
    #[inline]
    fn windows(&mut self) -> RefWindows {
        if self.wins.fast && self.clock_ps >= self.wins.w1_start {
            self.wins.advance_to(&self.cfg, self.clock_ps);
        }
        self.wins
    }

    /// Enqueues a request that arrived at `arrival_ps`.
    ///
    /// When a plan is cached, the push prices the newcomer against it.
    /// Strictly later: the newcomer can neither lower the minimum nor
    /// join (and win) the arbitration at it, so the plan survives — and
    /// the pure floor `max(clock, arrival, bank_ready)` (three reads)
    /// usually settles this without the exact fixpoint. Strictly
    /// earlier: every older transaction starts at/after the old planned
    /// start, so the newcomer is the *unique* new minimum and simply
    /// becomes the plan. Only an exact tie (which reopens arbitration)
    /// forces a replanning pass. Without a cached plan nothing is
    /// computed at all: the next pass prices every slot anyway (and may
    /// skip this one entirely by its floor).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (callers gate on
    /// [`has_room`](Self::has_room)).
    pub fn push(&mut self, req: Request, core: u32, arrival_ps: u64) {
        assert!(self.has_room(), "transaction queue overflow");
        let decoded = self.engine.decoder().decode(req.addr);
        let tx = Transaction {
            id: self.next_id,
            core,
            arrival_ps,
            decoded,
            bank: decoded.channel_bank(self.engine.decoder().org()),
            is_read: req.is_read,
            bypassed: 0,
        };
        self.next_id += 1;
        let base_ps = self
            .clock_ps
            .max(arrival_ps)
            .max(self.engine.bank_ready_ps(tx.bank));
        let mut slot = Slot {
            occupied: true,
            active_pos: self.active.len() as u32,
            fresh: false,
            exact: false,
            start_ps: 0,
            cas_off_ps: 0,
            base_ps,
            tx,
        };
        // The newcomer's start when it beats the cached plan outright
        // (adopted as the new plan once the slot index is known).
        let mut adopt: Option<u64> = None;
        if self.reference {
            // The reference planner recomputes everything at plan time
            // and always replans after a push (the original behaviour).
            self.plan_cache = None;
        } else if let Some(p) = self.plan_cache {
            if base_ps <= p.start_ps {
                let wins = self.windows();
                let (start_ps, cas_off_ps) = {
                    let ctx = PlanCtx {
                        cfg: &self.cfg,
                        timing: &self.timing,
                        rows: self.engine.bank_tables().1,
                        wins,
                        quiet_ps: self.timing.quiet_ps(),
                    };
                    ctx.compute(&tx, base_ps)
                };
                slot.fresh = true;
                slot.start_ps = start_ps;
                slot.cas_off_ps = cas_off_ps;
                if start_ps < p.start_ps {
                    // Pushes mutate no device state, so every other
                    // slot's start still sits at/after the old minimum:
                    // the newcomer wins unopposed.
                    adopt = Some(start_ps);
                } else if start_ps == p.start_ps {
                    // An equal start could still win the row-hit
                    // arbitration: replan.
                    self.plan_cache = None;
                }
            }
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.active.push(idx);
        if self.seed_hint.map_or(true, |(b, _)| base_ps < b) {
            self.seed_hint = Some((base_ps, idx));
        }
        if let Some(start_ps) = adopt {
            self.plan_cache = Some(Plan {
                slot: idx as usize,
                start_ps,
            });
        }
    }

    /// The earliest time any queued transaction could start (`None` when
    /// the queue is empty). The frontend compares this against its next
    /// arrival to decide whether to admit more traffic before the next
    /// scheduling decision.
    #[must_use]
    pub fn next_start_ps(&mut self) -> Option<u64> {
        self.plan().map(|p| p.start_ps)
    }

    /// Earliest feasible start of one queued transaction, recomputed from
    /// scratch — the reference planner's rule: bank busy time, REF
    /// windows, ACT spacing (predicted miss) and CAS slot, iterated to a
    /// fixpoint (the constraints are monotone, so the loop converges in a
    /// couple of rounds; the cap only guards degenerate configs). Returns
    /// `(start, cas_off)`.
    fn earliest_start_scratch(&self, tx: &Transaction) -> (u64, u64) {
        let (rank, bg) = (tx.decoded.rank, tx.decoded.bank_group);
        let predicted_hit = self.engine.open_row(tx.bank) == Some(tx.decoded.row);
        let cas_offset = if predicted_hit {
            0
        } else {
            self.cfg.t_rp_ps + self.cfg.t_rcd_ps
        };
        let mut t = self
            .clock_ps
            .max(tx.arrival_ps)
            .max(self.engine.bank_ready_ps(tx.bank));
        for _ in 0..4 {
            let prev = t;
            t = past_ref_window(&self.cfg, t);
            if !predicted_hit {
                t = t.max(self.timing.earliest_act(rank, bg));
            }
            t = self.timing.cas_slot(t + cas_offset, bg) - cas_offset;
            if t == prev {
                break;
            }
        }
        (t, cas_offset)
    }

    /// The next scheduling decision, computed on demand and cached until
    /// the queue or device state changes (a service, or a push that could
    /// alter the decision).
    fn plan(&mut self) -> Option<Plan> {
        if self.plan_cache.is_none() {
            self.plan_cache = if self.reference {
                self.compute_plan_scratch()
            } else {
                self.compute_plan()
            };
        }
        self.plan_cache
    }

    /// Computes the next scheduling decision incrementally and
    /// allocation-free. Per-slot pure floors `max(clock, arrival,
    /// bank_ready)` — lower bounds on the true earliest starts — are
    /// maintained incrementally by push/service, as is the slot with the
    /// smallest floor; the pass seeds its running minimum by refreshing
    /// that slot, then walks the queue once, skipping every slot whose
    /// floor is already strictly above the running minimum (provably not
    /// a candidate), revalidating or recomputing the rest, and folding
    /// the policy arbitration over the minimum's achievers as it goes.
    fn compute_plan(&mut self) -> Option<Plan> {
        self.plans_computed += 1;
        if self.active.is_empty() {
            return None;
        }
        let wins = self.windows();
        let ctx = PlanCtx {
            cfg: &self.cfg,
            timing: &self.timing,
            rows: self.engine.bank_tables().1,
            wins,
            quiet_ps: self.timing.quiet_ps(),
        };
        let (_, seed_idx) = self
            .seed_hint
            .map(|(b, i)| (b, i as usize))
            .expect("a non-empty active list always carries a seed hint");
        let mut t_min = {
            let slot = &mut self.slots[seed_idx];
            ctx.refresh(slot);
            slot.start_ps
        };
        // Arbitration folds into the refresh scan: the minimum's achiever
        // set is rebuilt whenever the running minimum drops, so one pass
        // both prices the queue and picks the winner. Age keys
        // `(arrival_ps, id)` are unique and scan-order independent, so
        // slab order never leaks into the decision. A starved transaction
        // outranks the hit set even when it is itself a hit, matching
        // the reference's starved-first precedence.
        let mut bests = Bests::default();
        bests.consider(self.policy, &self.slots[seed_idx], seed_idx);
        for &i in &self.active {
            if i as usize == seed_idx {
                continue;
            }
            let slot = &mut self.slots[i as usize];
            if slot.base_ps > t_min {
                // The floor alone puts this slot strictly after the
                // minimum: no exact start needed, and the stale cache must
                // not be mistaken for one.
                slot.exact = false;
                continue;
            }
            ctx.refresh(slot);
            if slot.start_ps < t_min {
                t_min = slot.start_ps;
                bests = Bests::default();
                bests.consider(self.policy, &self.slots[i as usize], i as usize);
            } else if slot.start_ps == t_min {
                bests.consider(self.policy, &self.slots[i as usize], i as usize);
            }
        }
        let pick = match self.policy {
            SchedulePolicy::Fcfs => bests.all,
            SchedulePolicy::FrFcfs { .. } => bests.starved.or(bests.hit).or(bests.all),
        };
        pick.map(|(_, slot)| Plan {
            slot,
            start_ps: t_min,
        })
    }

    /// The retained scratch reference planner: recomputes every earliest
    /// start from scratch with the original allocating algorithm (start
    /// and candidate vectors, selection-time row-buffer probes). Kept as
    /// the differential-testing oracle for [`compute_plan`](Self::compute_plan)
    /// — the `sched_oracle` prop test pins the two paths to identical
    /// decisions. Also refreshes the slot caches (starvation accounting
    /// reads them after any planner).
    fn compute_plan_scratch(&mut self) -> Option<Plan> {
        self.plans_computed += 1;
        let mut t_min = u64::MAX;
        for k in 0..self.active.len() {
            let i = self.active[k] as usize;
            let tx = self.slots[i].tx;
            let (s, off) = self.earliest_start_scratch(&tx);
            let slot = &mut self.slots[i];
            slot.start_ps = s;
            slot.cas_off_ps = off;
            slot.fresh = true;
            slot.exact = true;
            t_min = t_min.min(s);
        }
        if t_min == u64::MAX {
            return None;
        }
        // The issuable set: transactions achieving the earliest start.
        let candidates: Vec<usize> = self
            .active
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| self.slots[i].start_ps == t_min)
            .collect();
        let age_key = |i: usize| (self.slots[i].tx.arrival_ps, self.slots[i].tx.id);
        let oldest_of = |set: &[usize]| set.iter().copied().min_by_key(|&i| age_key(i));
        let pick = match self.policy {
            SchedulePolicy::Fcfs => oldest_of(&candidates),
            SchedulePolicy::FrFcfs { starvation_cap } => {
                let starved: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| self.slots[i].tx.bypassed >= starvation_cap)
                    .collect();
                if let Some(s) = oldest_of(&starved) {
                    Some(s)
                } else {
                    let hits: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let tx = &self.slots[i].tx;
                            self.engine.open_row(tx.bank) == Some(tx.decoded.row)
                        })
                        .collect();
                    oldest_of(&hits).or_else(|| oldest_of(&candidates))
                }
            }
        };
        pick.map(|slot| Plan {
            slot,
            start_ps: t_min,
        })
    }

    /// Performs one scheduling decision: selects a transaction per the
    /// policy, executes it on its bank, records the ACT/CAS in the
    /// inter-bank timing state and returns the completion. `None` when the
    /// queue is empty.
    pub fn service_next(&mut self) -> Option<Completion> {
        let Plan {
            slot: idx,
            start_ps: start,
        } = self.plan()?;
        self.plan_cache = None;
        let tx = self.slots[idx].tx;
        let picked_key = (tx.arrival_ps, tx.id);
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.decisions += 1;
            t.queue_depth.record(self.active.len() as u64);
            t.wait_ps.record(start.saturating_sub(tx.arrival_ps));
            // Delay beyond the REF-adjusted per-bank floor: time the pick
            // lost to the shared CAS bus and the tRRD/tFAW ACT windows
            // (`adjust` is exact for any time, aged pair or not).
            let floor = self.wins.adjust(&self.cfg, self.slots[idx].base_ps);
            t.interbank_delay_ps.record(start.saturating_sub(floor));
            if let SchedulePolicy::FrFcfs { starvation_cap } = self.policy {
                if tx.bypassed >= starvation_cap {
                    t.starved_picks += 1;
                }
            }
        }
        // O(1) slab removal; FCFS order lives in the age keys, not in
        // storage order, so nothing shifts. The dense active list swaps
        // the tail index into the vacated position.
        self.slots[idx].occupied = false;
        let pos = self.slots[idx].active_pos as usize;
        self.active.swap_remove(pos);
        if let Some(&moved) = self.active.get(pos) {
            self.slots[moved as usize].active_pos = pos as u32;
        }
        self.free.push(idx as u32);
        let outcome = self.engine.service_decoded(tx.decoded, tx.is_read, start);
        debug_assert!(outcome.start_ps >= start, "engine may not start early");
        // Record the commands for the rolling inter-bank windows. The CAS
        // of a miss trails the ACT by tRP + tRCD.
        let (rank, bg) = (tx.decoded.rank, tx.decoded.bank_group);
        if !outcome.row_hit {
            self.timing.record_act(outcome.start_ps, rank, bg);
        }
        self.timing.record_cas(
            outcome.start_ps
                + if outcome.row_hit {
                    0
                } else {
                    self.cfg.t_rp_ps + self.cfg.t_rcd_ps
                },
            bg,
        );
        self.clock_ps = outcome.start_ps;
        // One pass over the survivors does all the per-service slot
        // bookkeeping:
        // * starvation accounting — every *issuable* older transaction
        //   that was passed over loses one unit of patience (transactions
        //   whose banks are busy are waiting on the device, not on the
        //   policy; the planning pass left the cached starts current, so
        //   they are the issuability test; the engine service touches
        //   none of those cached inputs);
        // * floor maintenance — every floor rises to the new clock, and
        //   the serviced bank's slots pick up its new ready time;
        // * cache invalidation for the serviced bank (the service
        //   perturbs only its own bank's ready time and open row; the
        //   global clock/ACT/CAS/REF horizons are revalidated lazily at
        //   plan time);
        // * rebuilding the seed hint over the survivors' updated floors.
        let clock = self.clock_ps;
        let bank_ready = self.engine.bank_ready_ps(tx.bank);
        self.seed_hint = None;
        let mut bypasses = 0u64;
        for &i in &self.active {
            let s = &mut self.slots[i as usize];
            if s.exact && s.start_ps == start && (s.tx.arrival_ps, s.tx.id) < picked_key {
                s.tx.bypassed += 1;
                bypasses += 1;
            }
            if s.tx.bank == tx.bank {
                s.fresh = false;
                s.base_ps = clock.max(s.tx.arrival_ps).max(bank_ready);
            } else if s.base_ps < clock {
                s.base_ps = clock;
            }
            if self.seed_hint.map_or(true, |(b, _)| s.base_ps < b) {
                self.seed_hint = Some((s.base_ps, i));
            }
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.bypass_increments += bypasses;
        }
        Some(Completion {
            core: tx.core,
            arrival_ps: tx.arrival_ps,
            start_ps: outcome.start_ps,
            completion_ps: outcome.completion_ps,
            row_hit: outcome.row_hit,
        })
    }

    /// Finalises the run at `end_ps` (records elapsed REF events).
    pub fn finish(&mut self, end_ps: u64) {
        self.engine.finish(end_ps);
    }

    /// Walks the channel's dynamic state *exactly*: the engine and timing
    /// layers, then the slot slab field for field (including the planner
    /// caches, `exact` flags and the `active` list **in storage order** —
    /// the planner's skip rule and starvation accounting are scan-order
    /// sensitive, so a canonicalised restore could diverge from the
    /// straight run). The `reference` planner knob is not walked.
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        self.engine.walk_state(c)?;
        self.timing.walk_state(c)?;
        let org = *self.engine.decoder().org();
        let slots = c.count(self.slots.len(), self.cfg.queue_depth as usize, "slot slab")?;
        self.slots.resize(slots, Slot::default());
        for s in &mut self.slots {
            c.bool(&mut s.occupied)?;
            c.u32(&mut s.active_pos)?;
            c.bool(&mut s.fresh)?;
            c.bool(&mut s.exact)?;
            c.u64(&mut s.start_ps)?;
            c.u64(&mut s.cas_off_ps)?;
            c.u64(&mut s.base_ps)?;
            let tx = &mut s.tx;
            c.u64(&mut tx.id)?;
            c.u32(&mut tx.core)?;
            c.u64(&mut tx.arrival_ps)?;
            let d = &mut tx.decoded;
            c.u32(&mut d.channel)?;
            c.u32(&mut d.rank)?;
            c.u32(&mut d.bank_group)?;
            c.u32(&mut d.bank)?;
            c.u32(&mut d.row)?;
            c.u32(&mut d.column)?;
            c.u32(&mut tx.bank)?;
            c.bool(&mut tx.is_read)?;
            c.u32(&mut tx.bypassed)?;
            let in_org = d.channel < org.channels
                && d.rank < org.ranks
                && d.bank_group < org.bank_groups
                && d.bank < org.banks_per_group
                && d.row < org.rows
                && d.column < org.columns;
            if !in_org || tx.bank != d.channel_bank(&org) || s.base_ps < tx.arrival_ps {
                return Err(format!("channel: transaction {} is malformed", tx.id));
            }
        }
        walk_slot_list(c, &mut self.free, slots, "free list")?;
        walk_slot_list(c, &mut self.active, slots, "active list")?;
        c.u64(&mut self.next_id)?;
        c.u64(&mut self.clock_ps)?;
        let mut plan = self.plan_cache.unwrap_or_default();
        let mut plan_slot = plan.slot as u64;
        let has_plan = c.padded(self.plan_cache.is_some(), |c| {
            c.u64(&mut plan_slot)?;
            c.u64(&mut plan.start_ps)
        })?;
        plan.slot = usize::try_from(plan_slot).unwrap_or(usize::MAX);
        self.plan_cache = has_plan.then_some(plan);
        c.u64(&mut self.wins.w0_start)?;
        c.u64(&mut self.wins.w0_end)?;
        c.u64(&mut self.wins.w1_start)?;
        c.u64(&mut self.wins.w1_end)?;
        c.bool(&mut self.wins.fast)?;
        let (mut hint_base, mut hint_idx) = self.seed_hint.unwrap_or((0, 0));
        let has_hint = c.padded(self.seed_hint.is_some(), |c| {
            c.u64(&mut hint_base)?;
            c.u32(&mut hint_idx)
        })?;
        self.seed_hint = has_hint.then_some((hint_base, hint_idx));
        c.u64(&mut self.plans_computed)?;
        self.check_queue()?;
        // Telemetry words ride behind the stable layout, and only when the
        // layer is enabled — a non-telemetry checkpoint is unchanged.
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.walk_state(c)?;
        }
        Ok(())
    }

    /// The queue invariants planning and service rely on, which live state
    /// always holds: every slot is listed once — active (occupied, at its
    /// `active_pos`) or free (vacant); a cached plan names an occupied
    /// slot no earlier than its floor; a seed hint names an occupied slot
    /// and exists exactly while the queue is non-empty.
    fn check_queue(&self) -> Result<(), String> {
        let mut listed = vec![false; self.slots.len()];
        let active = self.active.iter().enumerate().map(|(p, &i)| (i, Some(p)));
        for (i, pos) in active.chain(self.free.iter().map(|&i| (i, None))) {
            let fits = self.slots.get(i as usize).is_some_and(|s| {
                s.occupied == pos.is_some() && pos.map_or(true, |p| s.active_pos as usize == p)
            });
            if !fits || std::mem::replace(&mut listed[i as usize], true) {
                return Err(format!("channel: slot {i} is listed out of place"));
            }
        }
        let plan = self.plan_cache.map_or(true, |p| {
            self.slots
                .get(p.slot)
                .is_some_and(|s| s.occupied && p.start_ps >= s.base_ps)
        });
        let hint = self.seed_hint.map_or(self.active.is_empty(), |(_, i)| {
            self.slots.get(i as usize).is_some_and(|s| s.occupied)
        });
        if listed.contains(&false) || !plan || !hint {
            return Err("channel: slot lists, plan and seed hint disagree".to_string());
        }
        Ok(())
    }

    /// The start a fresh readiness cache holds for this channel: the
    /// cached plan's start, or `u64::MAX` for an empty queue — `None`
    /// when a non-empty queue has no plan cached (the system's cache of
    /// a channel no push or service staled must agree).
    pub(crate) fn planned_start(&self) -> Option<u64> {
        match self.plan_cache {
            Some(p) => Some(p.start_ps),
            None if self.active.is_empty() => Some(u64::MAX),
            None => None,
        }
    }

    /// The cores of the queued transactions, one entry per transaction.
    pub(crate) fn queued_cores(&self) -> impl Iterator<Item = u32> + '_ {
        self.active.iter().map(|&i| self.slots[i as usize].tx.core)
    }
}

/// A counted list of slot indices (placed by `Channel::check_queue`).
fn walk_slot_list(
    c: &mut StateCursor,
    list: &mut Vec<u32>,
    slots: usize,
    what: &str,
) -> Result<(), String> {
    let len = c.count(list.len(), slots, what)?;
    list.resize(len, 0);
    list.iter_mut().try_for_each(|i| c.u32(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(policy: SchedulePolicy) -> Channel {
        Channel::new(
            SystemConfig::table6(),
            MitigationScheme::Baseline,
            policy,
            AddressMapping::default(),
            5,
        )
    }

    fn req(ch: &Channel, bank: u32, row: u32, col: u32) -> Request {
        Request {
            addr: ch.decoder().encode_bank_row(bank, row, col),
            is_read: true,
            think_time_ps: 0,
        }
    }

    fn drain(ch: &mut Channel) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = ch.service_next() {
            out.push(c);
        }
        out
    }

    #[test]
    fn frfcfs_serves_row_hit_before_older_miss() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::frfcfs());
        let t0 = cfg.t_rfc_ps;
        // Open row 10 on bank 0.
        let r0 = req(&ch, 0, 10, 0);
        ch.push(r0, 0, t0);
        let first = ch.service_next().unwrap();
        // Queue an older miss (row 99) and a younger hit (row 10) arriving
        // at the same instant — queue order (id) makes the miss older.
        let miss = req(&ch, 0, 99, 0);
        let hit = req(&ch, 0, 10, 1);
        ch.push(miss, 1, first.completion_ps);
        ch.push(hit, 2, first.completion_ps);
        let served = drain(&mut ch);
        assert_eq!(served[0].core, 2, "the row hit jumps the queue");
        assert!(served[0].row_hit);
        assert_eq!(served[1].core, 1);
        assert!(!served[1].row_hit);
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        let r0 = req(&ch, 0, 10, 0);
        ch.push(r0, 0, t0);
        let first = ch.service_next().unwrap();
        let miss = req(&ch, 0, 99, 0);
        let hit = req(&ch, 0, 10, 1);
        ch.push(miss, 1, first.completion_ps);
        ch.push(hit, 2, first.completion_ps);
        let served = drain(&mut ch);
        assert_eq!(served[0].core, 1, "FCFS ignores the row buffer");
        assert!(!served[0].row_hit);
        assert!(!served[1].row_hit, "the miss closed the younger hit's row");
    }

    #[test]
    fn starvation_cap_bounds_hit_bypassing() {
        let cfg = SystemConfig::table6();
        let cap = 3u32;
        let mut ch = channel(SchedulePolicy::FrFcfs {
            starvation_cap: cap,
        });
        let t0 = cfg.t_rfc_ps;
        let r0 = req(&ch, 0, 10, 0);
        ch.push(r0, 0, t0);
        let first = ch.service_next().unwrap();
        // One old miss stuck behind a stream of row hits; everything
        // arrives at the same instant so the whole queue stays issuable
        // and only the policy decides the order.
        let t = first.completion_ps;
        let miss = req(&ch, 0, 99, 0);
        ch.push(miss, 9, t);
        let mut order = Vec::new();
        for k in 0..8u32 {
            let hit = req(&ch, 0, 10, 1 + k);
            ch.push(hit, k, t);
            let c = ch.service_next().unwrap();
            order.push(c.core);
        }
        order.extend(drain(&mut ch).iter().map(|c| c.core));
        let miss_pos = order.iter().position(|&c| c == 9).unwrap();
        assert!(
            miss_pos <= cap as usize,
            "the old miss must be force-served after {cap} bypasses, order {order:?}"
        );
    }

    #[test]
    fn inter_bank_act_spacing_is_enforced() {
        let cfg = SystemConfig::table6();
        // Same-group pair (banks 0 and 1, both group 0) pays tRRD_L…
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        let a = req(&ch, 0, 1, 0);
        let b = req(&ch, 1, 1, 0);
        ch.push(a, 0, t0);
        ch.push(b, 1, t0);
        let served = drain(&mut ch);
        assert_eq!(served[1].start_ps - served[0].start_ps, cfg.t_rrd_l_ps);
        // …a cross-group pair (banks 0 and 4, groups 0 and 1) only tRRD_S.
        let mut ch = channel(SchedulePolicy::Fcfs);
        let a = req(&ch, 0, 1, 0);
        let c = req(&ch, 4, 1, 0);
        ch.push(a, 0, t0);
        ch.push(c, 1, t0);
        let served = drain(&mut ch);
        assert_eq!(served[1].start_ps - served[0].start_ps, cfg.t_rrd_s_ps);
    }

    #[test]
    fn scheduler_prefers_the_earlier_cross_group_act() {
        // With a same-group and a cross-group ACT both pending, the
        // cross-group one can issue tRRD_S after the first ACT while the
        // same-group one must wait tRRD_L — the earliest-startable rule
        // harvests that bank-group parallelism automatically.
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        let a = req(&ch, 0, 1, 0);
        let same_group = req(&ch, 1, 1, 0);
        let cross_group = req(&ch, 4, 1, 0);
        ch.push(a, 0, t0);
        ch.push(same_group, 1, t0);
        ch.push(cross_group, 2, t0);
        let served = drain(&mut ch);
        assert_eq!(
            served.iter().map(|c| c.core).collect::<Vec<_>>(),
            vec![0, 2, 1],
            "the cross-group ACT overtakes the older same-group one"
        );
        assert_eq!(served[1].start_ps - served[0].start_ps, cfg.t_rrd_s_ps);
    }

    #[test]
    fn faw_limits_act_bursts() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::Fcfs);
        let t0 = cfg.t_rfc_ps;
        // Five misses across five different bank groups.
        for bank in [0u32, 4, 8, 12, 16] {
            let r = req(&ch, bank, 1, 0);
            ch.push(r, 0, t0);
        }
        let served = drain(&mut ch);
        assert_eq!(
            served[4].start_ps - served[0].start_ps,
            cfg.t_faw_ps,
            "the fifth ACT waits for the rolling four-activate window"
        );
    }

    #[test]
    fn act_spacing_is_rank_local_but_cas_bus_is_shared() {
        // Five misses alternating between two ranks, each in its own bank
        // group: neither tRRD nor tFAW binds across ranks, so only the
        // shared CAS bus (tCCD_S between groups) paces the burst — well
        // inside what a single rank's four-activate window would allow.
        let cfg = SystemConfig {
            ranks: 2,
            ..SystemConfig::table6()
        };
        let mut ch = Channel::new(
            cfg,
            MitigationScheme::Baseline,
            SchedulePolicy::Fcfs,
            AddressMapping::default(),
            5,
        );
        let t0 = cfg.t_rfc_ps;
        for (i, bg) in [0u32, 1, 2, 3, 4].into_iter().enumerate() {
            let rank = (i as u32) % 2;
            let r = req(&ch, rank * cfg.banks + bg * cfg.banks_per_group(), 1, 0);
            ch.push(r, i as u32, t0);
        }
        let served = drain(&mut ch);
        assert_eq!(
            served[4].start_ps - served[0].start_ps,
            4 * cfg.t_ccd_s_ps,
            "cross-rank ACTs are paced only by the shared CAS bus"
        );
        assert!(4 * cfg.t_ccd_s_ps < cfg.t_faw_ps);
    }

    #[test]
    fn starts_are_monotone() {
        let cfg = SystemConfig::table6();
        let mut ch = channel(SchedulePolicy::frfcfs());
        let t0 = cfg.t_rfc_ps;
        for i in 0..20u32 {
            let r = req(&ch, i % 8, i % 3, 0);
            ch.push(r, 0, t0 + u64::from(i));
        }
        let served = drain(&mut ch);
        for w in served.windows(2) {
            assert!(w[1].start_ps >= w[0].start_ps);
        }
    }

    #[test]
    fn queue_capacity_is_bounded() {
        let cfg = SystemConfig {
            queue_depth: 2,
            ..SystemConfig::table6()
        };
        let mut ch = Channel::new(
            cfg,
            MitigationScheme::Baseline,
            SchedulePolicy::frfcfs(),
            AddressMapping::default(),
            1,
        );
        let r = req(&ch, 0, 0, 0);
        ch.push(r, 0, 0);
        assert!(ch.has_room());
        ch.push(r, 0, 0);
        assert!(!ch.has_room());
    }

    #[test]
    #[should_panic(expected = "transaction queue overflow")]
    fn overflow_panics() {
        let cfg = SystemConfig {
            queue_depth: 1,
            ..SystemConfig::table6()
        };
        let mut ch = Channel::new(
            cfg,
            MitigationScheme::Baseline,
            SchedulePolicy::frfcfs(),
            AddressMapping::default(),
            1,
        );
        let r = req(&ch, 0, 0, 0);
        ch.push(r, 0, 0);
        ch.push(r, 0, 0);
    }

    #[test]
    fn stepped_ref_windows_equal_a_fresh_rebuild() {
        // `advance_to` steps the window pair a period at a time and only
        // divides past its step budget; after any forward run of clocks
        // it must equal the pair `at` builds from scratch.
        use mint_exp::prop::{forall, u64_in, usize_in};
        forall(64, 0x3EF3, |case, rng| {
            let t_rfc_ps = u64_in(rng, 1, 500_000);
            let cfg = SystemConfig {
                t_rfc_ps,
                t_refi_ps: u64_in(rng, t_rfc_ps + 1, 8_000_000),
                ..SystemConfig::table6()
            };
            let refi = cfg.t_refi_ps;
            let mut t = 0u64;
            let mut wins = RefWindows::at(&cfg, t);
            for step in 0..300 {
                t += match usize_in(rng, 0, 3) {
                    0 => u64_in(rng, 0, refi),
                    1 => u64_in(rng, refi, 6 * refi),
                    _ => u64_in(rng, 6 * refi, 1_000 * refi),
                };
                wins.advance_to(&cfg, t);
                assert_eq!(
                    wins,
                    RefWindows::at(&cfg, t),
                    "case {case}, step {step}: t = {t}"
                );
            }
        });
    }

    #[test]
    fn empty_queue_has_no_plan() {
        let mut ch = channel(SchedulePolicy::frfcfs());
        assert_eq!(ch.next_start_ps(), None);
        assert_eq!(ch.service_next(), None);
    }

    #[test]
    fn push_of_a_provably_later_arrival_keeps_the_plan() {
        // A newcomer whose earliest start is strictly after the planned
        // start cannot change the decision, so the plan survives the push
        // without a replanning pass — and the schedule still matches a
        // reference channel that replans after every push.
        let cfg = SystemConfig::table6();
        let mut fast = channel(SchedulePolicy::frfcfs());
        let mut slow = channel(SchedulePolicy::frfcfs());
        slow.set_reference_planner(true);
        let t0 = cfg.t_rfc_ps;
        for (i, bank) in [0u32, 4, 8].into_iter().enumerate() {
            let r = req(&fast, bank, 1, 0);
            fast.push(r, i as u32, t0);
            slow.push(r, i as u32, t0);
        }
        let planned = fast.next_start_ps();
        assert!(planned.is_some());
        let plans_before = fast.plans_computed();
        // An arrival far beyond the planned start provably cannot win.
        let late_at = t0 + 10 * cfg.t_rc_ps;
        let late = req(&fast, 12, 1, 0);
        fast.push(late, 9, late_at);
        slow.push(late, 9, late_at);
        assert_eq!(fast.next_start_ps(), planned, "the plan survives");
        assert_eq!(fast.plans_computed(), plans_before, "no replan happened");
        loop {
            let a = fast.service_next();
            let b = slow.service_next();
            assert_eq!(a, b, "kept-plan schedule must equal the scratch one");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn reference_planner_matches_incremental_planner() {
        // Same request stream through both planners: identical
        // completions, step by step.
        let cfg = SystemConfig::table6();
        let mut fast = channel(SchedulePolicy::frfcfs());
        let mut slow = channel(SchedulePolicy::frfcfs());
        slow.set_reference_planner(true);
        let t0 = cfg.t_rfc_ps;
        for i in 0..24u32 {
            let r = req(&fast, i % 8, i % 3, i % 4);
            fast.push(r, i % 4, t0 + u64::from(i) * cfg.t_rrd_s_ps);
            slow.push(r, i % 4, t0 + u64::from(i) * cfg.t_rrd_s_ps);
            if i % 3 == 0 {
                assert_eq!(fast.service_next(), slow.service_next());
            }
        }
        loop {
            let a = fast.service_next();
            let b = slow.service_next();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
