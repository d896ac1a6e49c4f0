//! Per-layer telemetry state and report collection.
//!
//! Each layer that participates in observability owns an
//! `Option<Box<...Telemetry>>` — `None` (the default) costs one dead
//! branch per hook site, so a non-telemetry run is bit- and
//! byte-identical with the subsystem compiled in. The structs here are
//! plain counter/histogram bundles built on `mint-obs` primitives:
//! recording never reads a wall clock, so two identical runs produce
//! identical telemetry words.
//!
//! At the end of a run [`collect_report`] drains every layer into a
//! versioned [`TelemetryReport`] (sections `session`, `system`,
//! `ch{i}/sched`, `ch{i}/engine`, `ch{i}/tracker`) which rides on
//! [`RunReport::telemetry`](crate::RunReport::telemetry).
//!
//! For checkpoint/restore each struct walks its words through the same
//! [`StateCursor`] as the rest of the `MINTCKPT` payload; the owning
//! layer walks them only when it has telemetry enabled, so non-telemetry
//! checkpoints are unchanged.

use crate::system::System;
use mint_core::StateCursor;
use mint_obs::{Log2Histogram, Section, TelemetryReport, TimeSeries};

/// Scheduler-side telemetry for one [`Channel`](crate::sched::Channel).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedTelemetry {
    /// Scheduling decisions taken (transactions issued).
    pub decisions: u64,
    /// Decisions forced by the FR-FCFS starvation cap.
    pub starved_picks: u64,
    /// Times a pending transaction was bypassed by a younger one.
    pub bypass_increments: u64,
    /// Queue depth (live slots) observed at each decision.
    pub queue_depth: Log2Histogram,
    /// Per-request queueing delay, arrival to issue, in picoseconds.
    pub wait_ps: Log2Histogram,
    /// Issue delay beyond the per-bank floor — time lost to CAS-bus
    /// exclusion, tRRD/tFAW windows and refresh alignment, in
    /// picoseconds.
    pub interbank_delay_ps: Log2Histogram,
}

impl SchedTelemetry {
    /// Walks this state through a checkpoint cursor.
    ///
    /// # Errors
    ///
    /// Errors on a truncated or malformed word stream.
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.u64(&mut self.decisions)?;
        c.u64(&mut self.starved_picks)?;
        c.u64(&mut self.bypass_increments)?;
        walk_histogram(c, &mut self.queue_depth)?;
        walk_histogram(c, &mut self.wait_ps)?;
        walk_histogram(c, &mut self.interbank_delay_ps)
    }
}

/// Engine-side telemetry for one bank-level
/// [`MemoryController`](crate::controller::MemoryController).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineTelemetry {
    /// Demand activations per bank (index = flat bank id).
    pub bank_acts: Vec<u64>,
    /// Row precharges (row-conflict closes, refresh closes, and rows
    /// that did not survive their restoration window).
    pub precharges: u64,
}

impl EngineTelemetry {
    /// Fresh telemetry over `banks` banks.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        Self {
            bank_acts: vec![0; banks],
            precharges: 0,
        }
    }

    /// Walks this state through a checkpoint cursor.
    ///
    /// # Errors
    ///
    /// Errors on a truncated word stream or a bank-count mismatch.
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.fixed(self.bank_acts.len(), "telemetry banks")?;
        self.bank_acts.iter_mut().try_for_each(|a| c.u64(a))?;
        c.u64(&mut self.precharges)
    }
}

/// Session-level telemetry: request generation, admission and
/// completion across every core and channel.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTelemetry {
    /// Requests generated by the sources.
    pub generated: u64,
    /// Requests admitted into a channel.
    pub admitted: u64,
    /// Requests serviced to completion.
    pub serviced: u64,
    /// Source ring occupancy observed at each admission.
    pub ring_depth: Log2Histogram,
    /// Serviced-request total sampled once per period of simulated time.
    pub serviced_series: TimeSeries,
}

impl SessionTelemetry {
    /// Fresh telemetry sampling the serviced total every `period_ps`.
    #[must_use]
    pub fn new(period_ps: u64) -> Self {
        Self {
            generated: 0,
            admitted: 0,
            serviced: 0,
            ring_depth: Log2Histogram::new(),
            serviced_series: TimeSeries::new(period_ps),
        }
    }

    /// Counts one serviced request completing at `completion_ps` and
    /// advances the periodic sampler to it.
    #[inline]
    pub fn note_service(&mut self, completion_ps: u64) {
        self.serviced += 1;
        self.serviced_series.observe(completion_ps, self.serviced);
    }

    /// Walks this state through a checkpoint cursor.
    ///
    /// # Errors
    ///
    /// Errors on a truncated or malformed word stream.
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.u64(&mut self.generated)?;
        c.u64(&mut self.admitted)?;
        c.u64(&mut self.serviced)?;
        walk_histogram(c, &mut self.ring_depth)?;
        let mut words = self.serviced_series.encode_words();
        walk_words(c, &mut words)?;
        self.serviced_series = TimeSeries::decode_words(&words)?;
        Ok(())
    }
}

/// A histogram as the counted list of its `mint-obs` word encoding.
fn walk_histogram(c: &mut StateCursor, h: &mut Log2Histogram) -> Result<(), String> {
    let mut words = h.encode_words();
    walk_words(c, &mut words)?;
    *h = Log2Histogram::decode_words(&words)?;
    Ok(())
}

/// A length-prefixed word list (an encoded histogram or time series,
/// which checks its own length on decode).
fn walk_words(c: &mut StateCursor, words: &mut Vec<u64>) -> Result<(), String> {
    let len = c.count(words.len(), usize::MAX, "telemetry words")?;
    words.resize(len, 0);
    words.iter_mut().try_for_each(|w| c.u64(w))
}

/// Drains every layer of a finished run into a [`TelemetryReport`].
///
/// Section order is stack order: `session`, `system`, then per channel
/// `ch{i}/sched`, `ch{i}/engine`, `ch{i}/tracker`. Rates are per
/// simulated millisecond over `duration_ps`.
#[must_use]
pub fn collect_report(
    session: &SessionTelemetry,
    system: &System,
    duration_ps: u64,
) -> TelemetryReport {
    let ms = (duration_ps as f64 / 1e9).max(f64::MIN_POSITIVE);
    let mut report = TelemetryReport::new();

    let mut sec = Section::new("session");
    sec.counter("generated", session.generated);
    sec.counter("admitted", session.admitted);
    sec.counter("serviced", session.serviced);
    sec.gauge("gen_rate_per_ms", session.generated as f64 / ms);
    sec.histogram("ring_depth", session.ring_depth.clone());
    sec.time_series("serviced", session.serviced_series.clone());
    report.push(sec);

    let total_requests: u64 = (0..system.channel_count())
        .map(|ch| system.channel(ch).result().requests)
        .sum();
    let mut sys = Section::new("system");
    sys.counter("channels", system.channel_count() as u64);
    sys.counter("duration_ps", duration_ps);
    for ch in 0..system.channel_count() {
        let requests = system.channel(ch).result().requests;
        sys.counter(format!("ch{ch}_requests"), requests);
        sys.gauge(
            format!("ch{ch}_load_share"),
            if total_requests == 0 {
                0.0
            } else {
                requests as f64 / total_requests as f64
            },
        );
        sys.gauge(format!("ch{ch}_req_per_ms"), requests as f64 / ms);
    }
    report.push(sys);

    for ch in 0..system.channel_count() {
        let channel = system.channel(ch);
        let result = channel.result();
        let engine = channel.engine();

        let mut sched = Section::new(format!("ch{ch}/sched"));
        if let Some(t) = channel.telemetry() {
            sched.counter("decisions", t.decisions);
            sched.counter("starved_picks", t.starved_picks);
            sched.counter("bypass_increments", t.bypass_increments);
            sched.counter("plans_computed", channel.plans_computed());
            sched.counter("row_hit_picks", result.row_hits);
            sched.histogram("queue_depth", t.queue_depth.clone());
            sched.histogram("wait_ps", t.wait_ps.clone());
            sched.histogram("interbank_delay_ps", t.interbank_delay_ps.clone());
        }
        report.push(sched);

        let mut eng = Section::new(format!("ch{ch}/engine"));
        eng.counter("requests", result.requests);
        eng.counter("row_hits", result.row_hits);
        eng.counter(
            "row_misses",
            result.requests.saturating_sub(result.row_hits),
        );
        eng.counter("demand_acts", result.demand_acts);
        eng.counter("mitigative_acts", result.mitigative_acts);
        eng.counter("refreshes", result.refs);
        eng.counter("rfm_commands", result.rfm_commands);
        eng.counter("drfm_commands", result.drfm_commands);
        eng.gauge(
            "act_rate_per_ms",
            (result.demand_acts + result.mitigative_acts) as f64 / ms,
        );
        eng.gauge("ref_rate_per_ms", result.refs as f64 / ms);
        eng.gauge("rfm_rate_per_ms", result.rfm_commands as f64 / ms);
        eng.gauge("drfm_rate_per_ms", result.drfm_commands as f64 / ms);
        if let Some(t) = engine.telemetry() {
            eng.counter("precharges", t.precharges);
            let mut per_bank = Log2Histogram::new();
            for &acts in &t.bank_acts {
                per_bank.record(acts);
            }
            eng.histogram("bank_acts", per_bank);
        }
        report.push(eng);

        let mut trk = Section::new(format!("ch{ch}/tracker"));
        let (mut live, mut overflows) = (0u64, 0u64);
        for bank in 0..engine.bank_count() {
            let backend = engine.backend(bank);
            live += backend.live_entries() as u64;
            overflows += backend.overflow_count();
        }
        trk.counter("mitigations", result.mitigative_acts);
        trk.counter("live_entries", live);
        trk.counter("overflows", overflows);
        trk.gauge("mitigation_rate_per_ms", result.mitigative_acts as f64 / ms);
        report.push(trk);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn save(walk: impl FnOnce(&mut StateCursor) -> Result<(), String>) -> Vec<u64> {
        let mut c = StateCursor::saving();
        walk(&mut c).unwrap();
        c.finish().unwrap()
    }

    fn load(
        words: &[u64],
        walk: impl FnOnce(&mut StateCursor) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut c = StateCursor::loading(words);
        walk(&mut c)?;
        c.finish().map(drop)
    }

    #[test]
    fn sched_telemetry_words_round_trip() {
        let mut t = SchedTelemetry {
            decisions: 9,
            starved_picks: 2,
            bypass_increments: 5,
            ..SchedTelemetry::default()
        };
        t.queue_depth.record(3);
        t.wait_ps.record(1_500);
        t.interbank_delay_ps.record(0);
        let words = save(|c| t.walk_state(c));
        let mut back = SchedTelemetry::default();
        load(&words, |c| back.walk_state(c)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn engine_telemetry_words_round_trip_and_check_bank_count() {
        let mut t = EngineTelemetry::new(4);
        t.bank_acts[1] = 7;
        t.precharges = 3;
        let words = save(|c| t.walk_state(c));
        let mut back = EngineTelemetry::new(4);
        load(&words, |c| back.walk_state(c)).unwrap();
        assert_eq!(back, t);
        let mut wrong = EngineTelemetry::new(8);
        assert!(load(&words, |c| wrong.walk_state(c)).is_err());
    }

    #[test]
    fn session_telemetry_samples_and_round_trips() {
        let mut t = SessionTelemetry::new(100);
        t.generated = 12;
        t.admitted = 11;
        t.ring_depth.record(2);
        t.note_service(250);
        assert_eq!(t.serviced, 1);
        assert_eq!(t.serviced_series.points(), &[(100, 1), (200, 1)]);
        let words = save(|c| t.walk_state(c));
        let mut back = SessionTelemetry::new(100);
        load(&words, |c| back.walk_state(c)).unwrap();
        assert_eq!(back, t);
    }
}
