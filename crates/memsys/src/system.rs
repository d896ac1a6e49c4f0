//! The DIMM layer: N independently-clocked [`Channel`] pipelines × R
//! ranks each, behind one request-routing front door.
//!
//! A [`System`] owns one command pipeline per channel of the
//! [`SystemConfig`] topology. Channels share nothing at the command
//! level — each has its own transaction queue, scheduler, inter-bank
//! timing state and per-bank engine (rank-aware: tRRD/tFAW windows are
//! tracked per rank, the CAS bus is shared per channel) — so the only
//! coupling is the frontend: the decoder's `channel` field routes every
//! request to its pipeline, and the [`Session`](crate::Session) admission
//! loop interleaves admissions and services across channels in
//! deterministic global-time order ([`earliest_ready`]
//! arbitrates by `(next start, channel index)`).
//!
//! Construction fans the per-channel pipelines across worker threads via
//! [`mint_exp::par_map`] (a channel's mitigation backends can carry
//! hundreds of thousands of per-row counters), with its usual
//! guarantee: channel `c` seeds its engine from `derive_seed(seed,
//! 0xC0 + c)` whatever the worker count, so results are bit-identical for
//! any `--jobs` value — and channel 0's substream is exactly the legacy
//! single-channel one, which is what pins the `channels = 1, ranks = 1`
//! `System` byte-for-byte to the pre-DIMM pipeline
//! (`tests/system_identity.rs`).
//!
//! Observers see one merged event stream: events drain per scheduling
//! decision in service order, with each channel's bank indices rebased by
//! [`MemEvent::with_bank_offset`] into the system-global bank space
//! (`channel × banks_per_channel + rank × banks_per_rank + flat_bank`).
//!
//! [`earliest_ready`]: System::earliest_ready

use crate::address::{AddressDecoder, AddressMapping};
use crate::config::{MitigationScheme, SystemConfig};
use crate::controller::SimResult;
use crate::events::MemEvent;
use crate::sched::{Channel, Completion, SchedulePolicy};
use crate::workload::Request;
use mint_core::StateCursor;
use mint_rng::derive_seed;

/// A full DIMM: one [`Channel`] pipeline per channel of the configured
/// topology, plus the routing decoder. See the [module docs](self).
#[derive(Debug)]
pub struct System {
    decoder: AddressDecoder,
    channels: Vec<Channel>,
    /// Bank-index rebase per channel (`channel × banks_per_channel`).
    bank_offset: u32,
    /// Cached per-channel next scheduling start (`u64::MAX` = empty
    /// queue). A push or service marks its channel stale; admissibility
    /// and earliest-ready queries recompute only stale entries, so
    /// multi-channel admission stops re-asking every planner per
    /// decision.
    next_start: Vec<u64>,
    /// Which [`next_start`](Self::next_start) entries need a recompute.
    stale: Vec<bool>,
}

impl System {
    /// Builds one pipeline per channel, fanned across worker threads.
    /// Channel `c`'s engine seeds from `derive_seed(seed, 0xC0 + c)` —
    /// independent per-channel substreams, and channel 0 identical to the
    /// legacy single-channel derivation.
    #[must_use]
    pub fn new(
        cfg: SystemConfig,
        scheme: MitigationScheme,
        policy: SchedulePolicy,
        mapping: AddressMapping,
        seed: u64,
    ) -> Self {
        let ids: Vec<u32> = (0..cfg.channels).collect();
        let channels = mint_exp::par_map(&ids, |_, &c| {
            Channel::new(
                cfg,
                scheme,
                policy,
                mapping,
                derive_seed(seed, 0xC0 + u64::from(c)),
            )
        });
        let count = channels.len();
        Self {
            decoder: AddressDecoder::new(&cfg, mapping),
            channels,
            bank_offset: cfg.banks_per_channel(),
            next_start: vec![u64::MAX; count],
            stale: vec![false; count],
        }
    }

    /// The number of channel pipelines.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// One channel's pipeline (index < [`channel_count`](Self::channel_count)).
    #[must_use]
    pub fn channel(&self, ch: usize) -> &Channel {
        &self.channels[ch]
    }

    /// The decoder the front door routes with.
    #[must_use]
    pub fn decoder(&self) -> &AddressDecoder {
        &self.decoder
    }

    /// Which channel services `addr` (the decoder's `channel` field).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the organisation's capacity (the
    /// decoder rejects out-of-range addresses rather than wrapping).
    #[must_use]
    pub fn route(&self, addr: u64) -> usize {
        self.decoder.decode(addr).channel as usize
    }

    /// The cached next start of channel `ch`, recomputed from the
    /// channel's planner only when a push or service staled it
    /// (`u64::MAX` = empty queue).
    #[inline]
    fn cached_next_start(&mut self, ch: usize) -> u64 {
        if self.stale[ch] {
            self.stale[ch] = false;
            self.next_start[ch] = self.channels[ch].next_start_ps().unwrap_or(u64::MAX);
        }
        self.next_start[ch]
    }

    /// Whether channel `ch` can admit a request issued at `issue_ps`
    /// right now: room in its queue, and no already-queued transaction
    /// would start before the newcomer arrives (each channel's scheduler
    /// must see all arrived traffic before committing a command).
    #[must_use]
    pub fn admissible(&mut self, ch: usize, issue_ps: u64) -> bool {
        self.channels[ch].has_room() && issue_ps <= self.cached_next_start(ch)
    }

    /// Enqueues a request on its routed channel.
    ///
    /// # Panics
    ///
    /// Panics if the routed channel's queue is full (callers gate on
    /// [`admissible`](Self::admissible)).
    pub fn push(&mut self, req: Request, core: u32, arrival_ps: u64) {
        let ch = self.route(req.addr);
        self.push_to(ch, req, core, arrival_ps);
    }

    /// [`push`](Self::push) with the route already resolved — the
    /// admission loop decides admissibility per routed channel and then
    /// pushes without decoding the address a second time.
    pub fn push_to(&mut self, ch: usize, req: Request, core: u32, arrival_ps: u64) {
        self.channels[ch].push(req, core, arrival_ps);
        self.stale[ch] = true;
    }

    /// The channel whose next scheduling decision comes first — the
    /// deterministic service order of the admission loop. Ties break to
    /// the lowest channel index; `None` when every queue is empty.
    /// Answered from the readiness cache: only channels a push or
    /// service staled re-ask their planner; the minimum is a scan over a
    /// dense array.
    #[must_use]
    pub fn earliest_ready(&mut self) -> Option<usize> {
        for ch in 0..self.channels.len() {
            self.cached_next_start(ch);
        }
        let mut best = u64::MAX;
        let mut best_ch = None;
        for (ch, &s) in self.next_start.iter().enumerate() {
            if s < best {
                best = s;
                best_ch = Some(ch);
            }
        }
        best_ch
    }

    /// Performs one scheduling decision on channel `ch` (see
    /// [`Channel::service_next`]).
    pub fn service_channel(&mut self, ch: usize) -> Option<Completion> {
        self.stale[ch] = true;
        self.channels[ch].service_next()
    }

    /// Queued (not yet serviced) transactions across all channels.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.channels.iter().map(Channel::pending).sum()
    }

    /// Turns on every channel engine's executed-command log.
    pub fn enable_event_log(&mut self) {
        for ch in &mut self.channels {
            ch.enable_event_log();
        }
    }

    /// Turns on scheduler- and engine-side telemetry on every channel.
    pub fn enable_telemetry(&mut self) {
        for ch in &mut self.channels {
            ch.enable_telemetry();
        }
    }

    /// Drains channel `ch`'s executed-command events accumulated since
    /// the last drain, rebased into the system-global bank space.
    pub fn drain_events_global(&mut self, ch: usize) -> impl Iterator<Item = MemEvent> + '_ {
        let offset = self.bank_offset * ch as u32;
        self.channels[ch]
            .drain_events()
            .map(move |e| e.with_bank_offset(offset))
    }

    /// Finalises the run at `end_ps` on every channel (records elapsed
    /// REF events for the whole wall-clock of the run).
    pub fn finish(&mut self, end_ps: u64) {
        for ch in &mut self.channels {
            ch.finish(end_ps);
        }
        // Finalisation advances engine state; drop any cached readiness.
        self.stale.fill(true);
    }

    /// The run statistics summed over all channels.
    #[must_use]
    pub fn result(&self) -> SimResult {
        let mut total = SimResult::default();
        for ch in &self.channels {
            total.absorb(&ch.result());
        }
        total
    }

    /// Walks every channel pipeline plus the readiness cache, whose
    /// fresh (unstaled) entries must agree with their channel's plan.
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.fixed(self.channels.len(), "system channels")?;
        for ch in &mut self.channels {
            ch.walk_state(c)?;
        }
        for s in &mut self.next_start {
            c.u64(s)?;
        }
        for b in &mut self.stale {
            c.bool(b)?;
        }
        for (ch, channel) in self.channels.iter().enumerate() {
            if !self.stale[ch] && channel.planned_start() != Some(self.next_start[ch]) {
                return Err(format!(
                    "system: readiness cache of channel {ch} disagrees with its planner"
                ));
            }
        }
        Ok(())
    }

    /// The issuing core of every queued transaction, channel by channel.
    pub(crate) fn queued_cores(&self) -> impl Iterator<Item = u32> + '_ {
        self.channels.iter().flat_map(Channel::queued_cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_exp::prop::{forall, u32_in, u64_in, usize_in};
    use mint_rng::Rng64;

    fn system(cfg: SystemConfig) -> System {
        System::new(
            cfg,
            MitigationScheme::Baseline,
            SchedulePolicy::frfcfs(),
            AddressMapping::default(),
            5,
        )
    }

    fn req(sys: &System, system_bank: u32, row: u32, col: u32) -> Request {
        Request {
            addr: sys.decoder().encode_bank_row(system_bank, row, col),
            is_read: true,
            think_time_ps: 0,
        }
    }

    #[test]
    fn topology_builds_one_pipeline_per_channel() {
        let cfg = SystemConfig {
            channels: 4,
            ranks: 2,
            ..SystemConfig::table6()
        };
        let sys = system(cfg);
        assert_eq!(sys.channel_count(), 4);
        assert_eq!(sys.pending(), 0);
    }

    #[test]
    fn requests_route_to_their_decoded_channel() {
        let cfg = SystemConfig {
            channels: 2,
            ..SystemConfig::table6()
        };
        let mut sys = system(cfg);
        let bpc = cfg.banks_per_channel();
        let t0 = cfg.t_rfc_ps;
        // One request per channel, by system-global bank index.
        let r0 = req(&sys, 0, 1, 0);
        let r1 = req(&sys, bpc, 1, 0);
        assert_eq!(sys.route(r0.addr), 0);
        assert_eq!(sys.route(r1.addr), 1);
        sys.push(r0, 0, t0);
        sys.push(r1, 1, t0);
        assert_eq!(sys.channel(0).pending(), 1);
        assert_eq!(sys.channel(1).pending(), 1);
        // Both channels run concurrently: each serves its request at the
        // same local start, undelayed by the other channel.
        let a = sys.earliest_ready().unwrap();
        let ca = sys.service_channel(a).unwrap();
        let b = sys.earliest_ready().unwrap();
        let cb = sys.service_channel(b).unwrap();
        assert_eq!((a, b), (0, 1), "ties break to the lowest channel");
        assert_eq!(ca.start_ps, cb.start_ps, "channels share no command bus");
        assert_eq!(sys.pending(), 0);
    }

    #[test]
    fn channel_seeds_are_independent_and_channel0_is_legacy() {
        // Channel c seeds from derive_seed(seed, 0xC0 + c): channel 0's
        // substream is the legacy single-channel one, and no two channels
        // share a substream.
        let seeds: Vec<u64> = (0..4u64).map(|c| derive_seed(5, 0xC0 + c)).collect();
        assert_eq!(seeds[0], derive_seed(5, 0xC0));
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn results_sum_over_channels() {
        let cfg = SystemConfig {
            channels: 2,
            ..SystemConfig::table6()
        };
        let mut sys = system(cfg);
        let bpc = cfg.banks_per_channel();
        let t0 = cfg.t_rfc_ps;
        for (i, bank) in [0, bpc, bpc + 4].into_iter().enumerate() {
            let r = req(&sys, bank, 1, 0);
            sys.push(r, i as u32, t0);
        }
        while let Some(ch) = sys.earliest_ready() {
            sys.service_channel(ch);
        }
        let total = sys.result();
        assert_eq!(total.requests, 3);
        assert_eq!(sys.channel(0).result().requests, 1);
        assert_eq!(sys.channel(1).result().requests, 2);
    }

    #[test]
    fn drained_events_carry_system_global_banks() {
        let cfg = SystemConfig {
            channels: 2,
            ..SystemConfig::table6()
        };
        let mut sys = system(cfg);
        sys.enable_event_log();
        let bpc = cfg.banks_per_channel();
        let t0 = cfg.t_rfc_ps;
        let r = req(&sys, bpc + 3, 7, 0);
        sys.push(r, 0, t0);
        let ch = sys.earliest_ready().unwrap();
        assert_eq!(ch, 1);
        sys.service_channel(ch).unwrap();
        let events: Vec<MemEvent> = sys.drain_events_global(ch).collect();
        assert!(events.iter().any(|e| matches!(
            e,
            MemEvent::Act {
                bank,
                row: 7,
                ..
            } if *bank == bpc + 3
        )));
    }

    #[test]
    fn admissibility_mirrors_the_routed_channel() {
        let cfg = SystemConfig {
            channels: 2,
            queue_depth: 1,
            ..SystemConfig::table6()
        };
        let mut sys = system(cfg);
        let bpc = cfg.banks_per_channel();
        let t0 = cfg.t_rfc_ps;
        let r = req(&sys, 0, 1, 0);
        sys.push(r, 0, t0);
        assert!(!sys.admissible(0, t0), "channel 0's queue is full");
        assert!(sys.admissible(1, t0), "channel 1 is untouched");
        let other = req(&sys, bpc, 1, 0);
        sys.push(other, 1, t0);
        assert!(!sys.admissible(1, t0));
    }

    #[test]
    fn readiness_cache_matches_asking_every_planner() {
        // `admissible` and `earliest_ready` answer from the per-channel
        // next-start cache that pushes and services stale. The uncached
        // rule asks every channel planner directly. Over random
        // push/service interleavings on 1, 2 and 4 channels the two must
        // agree at every step, on both sides of each planned start.
        forall(24, 0xCAC4E, |case, rng| {
            let cfg = SystemConfig {
                channels: 1 << usize_in(rng, 0, 3),
                queue_depth: u32_in(rng, 1, 9),
                ..SystemConfig::table6()
            };
            let mut sys = system(cfg);
            let mut arrival = cfg.t_rfc_ps;
            for step in 0..400 {
                let starts: Vec<Option<u64>> = sys
                    .channels
                    .iter_mut()
                    .map(Channel::next_start_ps)
                    .collect();
                let want_ready = starts
                    .iter()
                    .enumerate()
                    .filter_map(|(ch, s)| s.map(|s| (s, ch)))
                    .min()
                    .map(|(_, ch)| ch);
                assert_eq!(
                    sys.earliest_ready(),
                    want_ready,
                    "case {case}, step {step}: earliest_ready"
                );
                for (ch, &start) in starts.iter().enumerate() {
                    let room = sys.channel(ch).has_room();
                    let at = start.unwrap_or(arrival);
                    for issue in [arrival, at, at + 1] {
                        let want = room && start.map_or(true, |s| issue <= s);
                        assert_eq!(
                            sys.admissible(ch, issue),
                            want,
                            "case {case}, step {step}: admissible({ch}, {issue})"
                        );
                    }
                }
                let bank = u32_in(rng, 0, cfg.total_banks());
                let r = req(&sys, bank, u32_in(rng, 0, 4), u32_in(rng, 0, 8));
                let ch = sys.route(r.addr);
                if sys.channel(ch).has_room() && rng.gen_bool(0.6) {
                    arrival += u64_in(rng, 0, 6_000);
                    sys.push_to(ch, r, 0, arrival);
                } else if let Some(ready) = sys.earliest_ready() {
                    sys.service_channel(ready);
                }
            }
        });
    }
}
