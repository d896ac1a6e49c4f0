//! Inter-bank timing constraints: tRRD_S/tRRD_L, tFAW and tCCD_S/tCCD_L.
//!
//! The per-bank state of the controller already serialises same-bank
//! commands (tRC, hit/miss latencies, REF windows); this module layers the
//! *cross-bank* DDR5 constraints on top:
//!
//! * **tRRD** — two ACTs anywhere in one rank must be at least
//!   tRRD_S apart (tRRD_L when they hit the same bank group);
//! * **tFAW** — any rolling tFAW window holds at most four ACTs per rank;
//! * **tCCD** — two CAS bursts must be at least tCCD_S apart
//!   (tCCD_L within one bank group), which is what serialises the data
//!   bus.
//!
//! ACT constraints (tRRD, tFAW) are *rank-local*: each rank has its own
//! activation power budget, so [`TimingState`] keeps one rolling ACT
//! history per rank. The CAS exclusion zone stays channel-global — all
//! ranks of a channel share one data bus.
//!
//! [`TimingState`] is fed *chronologically* by the channel scheduler
//! (which always issues the earliest-startable transaction, so command
//! times are monotone) and answers "when may the next ACT/CAS go".

use crate::config::SystemConfig;
use mint_core::StateCursor;

/// The inter-bank constraint set, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterBankTiming {
    /// ACT→ACT spacing across bank groups.
    pub t_rrd_s_ps: u64,
    /// ACT→ACT spacing within one bank group.
    pub t_rrd_l_ps: u64,
    /// Rolling four-activate window.
    pub t_faw_ps: u64,
    /// CAS→CAS spacing across bank groups.
    pub t_ccd_s_ps: u64,
    /// CAS→CAS spacing within one bank group.
    pub t_ccd_l_ps: u64,
}

impl InterBankTiming {
    /// The constraint set of a [`SystemConfig`].
    #[must_use]
    pub fn from_system(cfg: &SystemConfig) -> Self {
        Self {
            t_rrd_s_ps: cfg.t_rrd_s_ps,
            t_rrd_l_ps: cfg.t_rrd_l_ps,
            t_faw_ps: cfg.t_faw_ps,
            t_ccd_s_ps: cfg.t_ccd_s_ps,
            t_ccd_l_ps: cfg.t_ccd_l_ps,
        }
    }

    /// A constraint set that never delays anything (for unit tests and
    /// for modelling pre-DDR4 devices without bank groups).
    #[must_use]
    pub fn unconstrained() -> Self {
        Self {
            t_rrd_s_ps: 0,
            t_rrd_l_ps: 0,
            t_faw_ps: 0,
            t_ccd_s_ps: 0,
            t_ccd_l_ps: 0,
        }
    }
}

/// One rank's rolling ACT history: the tFAW ring plus the last ACT for
/// tRRD spacing.
#[derive(Debug, Clone)]
struct RankActs {
    /// Issue times of the rank's most recent four ACTs (ring buffer;
    /// `head` indexes the oldest entry once `act_count >= 4`, which is
    /// also the next slot to overwrite).
    acts: [u64; 4],
    /// Next write position / oldest entry of the full ring.
    head: u8,
    /// ACTs recorded so far, saturating at 4 (the ring is full then).
    act_count: u8,
    /// Last ACT of this rank: time and bank group.
    last_act: Option<(u64, u32)>,
}

impl RankActs {
    fn fresh() -> Self {
        Self {
            acts: [0; 4],
            head: 0,
            act_count: 0,
            last_act: None,
        }
    }
}

/// Rolling command history answering earliest-issue queries.
///
/// Each rank's tFAW window is a fixed four-entry ring buffer
/// (`acts` + `head`): recording an ACT overwrites the oldest slot in
/// place, so the scheduler hot path never shifts or allocates. The CAS
/// horizon is shared across ranks (one data bus per channel).
#[derive(Debug, Clone)]
pub struct TimingState {
    t: InterBankTiming,
    /// Per-rank ACT histories (tRRD and tFAW are rank-local).
    ranks: Vec<RankActs>,
    /// Last CAS on the channel's shared data bus: time and bank group.
    last_cas: Option<(u64, u32)>,
}

impl TimingState {
    /// Fresh single-rank state (no command history) under the given
    /// constraints.
    #[must_use]
    pub fn new(t: InterBankTiming) -> Self {
        Self::with_ranks(t, 1)
    }

    /// Fresh state for a channel of `ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    #[must_use]
    pub fn with_ranks(t: InterBankTiming, ranks: u32) -> Self {
        assert!(ranks > 0, "a channel needs at least one rank");
        Self {
            t,
            ranks: (0..ranks).map(|_| RankActs::fresh()).collect(),
            last_cas: None,
        }
    }

    /// Earliest time an ACT to `bank_group` of `rank` may issue.
    #[must_use]
    pub fn earliest_act(&self, rank: u32, bank_group: u32) -> u64 {
        let r = &self.ranks[rank as usize];
        let mut earliest = 0;
        if let Some((t_last, bg)) = r.last_act {
            let rrd = if bg == bank_group {
                self.t.t_rrd_l_ps
            } else {
                self.t.t_rrd_s_ps
            };
            earliest = earliest.max(t_last + rrd);
        }
        if r.act_count >= 4 {
            // A fifth ACT must wait until the oldest of the rank's last
            // four falls out of the rolling tFAW window; the oldest entry
            // of the full ring sits exactly at `head`.
            earliest = earliest.max(r.acts[usize::from(r.head)] + self.t.t_faw_ps);
        }
        earliest
    }

    /// The earliest CAS slot at or after `desired_ps` for `bank_group`.
    ///
    /// CAS times are *not* monotone across scheduling decisions (a row
    /// hit's CAS fires immediately, while the CAS of an earlier-issued
    /// miss trails its ACT by tRP + tRCD), so the data bus is modelled as
    /// an exclusion zone of ±tCCD around the latest CAS: a desired slot
    /// clear of that zone — before or after — is granted as is; a
    /// conflicting one is pushed past it. The bus is shared by every rank
    /// of the channel, so there is no rank parameter.
    #[must_use]
    pub fn cas_slot(&self, desired_ps: u64, bank_group: u32) -> u64 {
        match self.last_cas {
            None => desired_ps,
            Some((t_last, bg)) => {
                let ccd = if bg == bank_group {
                    self.t.t_ccd_l_ps
                } else {
                    self.t.t_ccd_s_ps
                };
                if desired_ps < t_last + ccd && desired_ps + ccd > t_last {
                    t_last + ccd
                } else {
                    desired_ps
                }
            }
        }
    }

    /// A time at or after which no inter-bank constraint can delay any
    /// command, whatever its rank or bank group: past every rank's last
    /// ACT by the larger tRRD, past every rank's rolling tFAW window, and
    /// past the last CAS by the larger tCCD. The scheduler's planner uses
    /// it as a one-compare fast path for far-future starts.
    #[must_use]
    pub fn quiet_ps(&self) -> u64 {
        let mut q = 0;
        for r in &self.ranks {
            if let Some((t, _)) = r.last_act {
                q = q.max(t + self.t.t_rrd_l_ps.max(self.t.t_rrd_s_ps));
            }
            if r.act_count >= 4 {
                q = q.max(r.acts[usize::from(r.head)] + self.t.t_faw_ps);
            }
        }
        if let Some((t, _)) = self.last_cas {
            q = q.max(t + self.t.t_ccd_l_ps.max(self.t.t_ccd_s_ps));
        }
        q
    }

    /// Records an ACT issued at `at_ps` to `bank_group` of `rank`.
    ///
    /// The scheduler issues commands in chronological order; a debug
    /// assertion pins that contract (the rolling-window bookkeeping relies
    /// on it).
    pub fn record_act(&mut self, at_ps: u64, rank: u32, bank_group: u32) {
        let r = &mut self.ranks[rank as usize];
        debug_assert!(
            r.last_act.map_or(true, |(t, _)| at_ps >= t),
            "ACTs must be recorded chronologically"
        );
        r.acts[usize::from(r.head)] = at_ps;
        r.head = (r.head + 1) & 3;
        r.act_count = (r.act_count + 1).min(4);
        r.last_act = Some((at_ps, bank_group));
    }

    /// Records a CAS issued at `at_ps` to `bank_group`. Only the latest
    /// CAS is kept (see [`cas_slot`](Self::cas_slot)): recording an
    /// earlier CAS — a hit slotting in before a pending miss's CAS — does
    /// not move the bus horizon backwards.
    pub fn record_cas(&mut self, at_ps: u64, bank_group: u32) {
        if self.last_cas.map_or(true, |(t, _)| at_ps >= t) {
            self.last_cas = Some((at_ps, bank_group));
        }
    }

    /// Walks the command history (the constraint set itself is rebuilt
    /// from config on restore): per rank the tFAW ring, its head and
    /// count, and the last ACT; then the last CAS.
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.fixed(self.ranks.len(), "timing ranks")?;
        for rank in &mut self.ranks {
            rank.acts.iter_mut().try_for_each(|a| c.u64(a))?;
            let (mut head, mut act_count) = (u64::from(rank.head), u64::from(rank.act_count));
            c.u64(&mut head)?;
            c.u64(&mut act_count)?;
            if head >= 4 || act_count > 4 {
                return Err(format!(
                    "timing: ring head {head} / count {act_count} out of range"
                ));
            }
            rank.head = head as u8;
            rank.act_count = act_count as u8;
            walk_last(c, &mut rank.last_act)?;
        }
        walk_last(c, &mut self.last_cas)
    }
}

/// A last-command horizon `(time, bank group)` as a padded option:
/// `[valid, time, bank_group]`.
fn walk_last(c: &mut StateCursor, last: &mut Option<(u64, u32)>) -> Result<(), String> {
    let (mut t, mut bg) = last.unwrap_or((0, 0));
    let valid = c.padded(last.is_some(), |c| {
        c.u64(&mut t)?;
        c.u32(&mut bg)
    })?;
    *last = valid.then_some((t, bg));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> InterBankTiming {
        InterBankTiming::from_system(&SystemConfig::table6())
    }

    #[test]
    fn fresh_state_never_delays() {
        let s = TimingState::new(timing());
        assert_eq!(s.earliest_act(0, 0), 0);
        assert_eq!(s.cas_slot(0, 0), 0);
        assert_eq!(s.cas_slot(12_345, 3), 12_345);
    }

    #[test]
    fn rrd_long_within_group_short_across() {
        let t = timing();
        let mut s = TimingState::new(t);
        s.record_act(1_000_000, 0, 3);
        assert_eq!(s.earliest_act(0, 3), 1_000_000 + t.t_rrd_l_ps);
        assert_eq!(s.earliest_act(0, 4), 1_000_000 + t.t_rrd_s_ps);
    }

    #[test]
    fn faw_binds_the_fifth_act() {
        let t = timing();
        let mut s = TimingState::new(t);
        // Four ACTs packed at the RRD_S rate across different groups.
        for i in 0..4u64 {
            s.record_act(i * t.t_rrd_s_ps, 0, i as u32);
        }
        let fifth = s.earliest_act(0, 5);
        assert_eq!(fifth, t.t_faw_ps, "fifth ACT waits for the FAW window");
        assert!(fifth > 3 * t.t_rrd_s_ps + t.t_rrd_s_ps);
    }

    #[test]
    fn faw_window_rolls() {
        let t = timing();
        let mut s = TimingState::new(t);
        for i in 0..4u64 {
            s.record_act(i * t.t_rrd_s_ps, 0, i as u32);
        }
        s.record_act(t.t_faw_ps, 0, 4);
        // The window now starts at the second ACT (t = tRRD_S), so the
        // next ACT waits for exactly tRRD_S + tFAW — which also dominates
        // the tRRD_S-after-last-ACT constraint (tFAW > 4·tRRD_S). An
        // unevicted oldest ACT (stuck at t = 0) would yield only tFAW.
        assert_eq!(s.earliest_act(0, 7), t.t_rrd_s_ps + t.t_faw_ps);
    }

    #[test]
    fn act_constraints_are_rank_local() {
        let t = timing();
        let mut s = TimingState::with_ranks(t, 2);
        // Saturate rank 0's tFAW window and tRRD horizon.
        for i in 0..4u64 {
            s.record_act(i * t.t_rrd_s_ps, 0, i as u32);
        }
        assert_eq!(s.earliest_act(0, 5), t.t_faw_ps);
        // Rank 1 has its own activation budget: entirely unconstrained.
        assert_eq!(s.earliest_act(1, 5), 0);
        s.record_act(0, 1, 5);
        assert_eq!(s.earliest_act(1, 5), t.t_rrd_l_ps);
        // ...and rank 1's history never leaks back into rank 0.
        assert_eq!(s.earliest_act(0, 5), t.t_faw_ps);
    }

    #[test]
    fn cas_bus_is_shared_across_ranks() {
        let t = timing();
        let mut s = TimingState::with_ranks(t, 2);
        s.record_cas(500_000, 2);
        // Whatever rank wants the bus, the exclusion zone applies: the
        // channel has one data bus.
        assert_eq!(s.cas_slot(500_000, 2), 500_000 + t.t_ccd_l_ps);
        assert_eq!(s.cas_slot(500_000, 0), 500_000 + t.t_ccd_s_ps);
    }

    #[test]
    fn ccd_serialises_the_data_bus() {
        let t = timing();
        let mut s = TimingState::new(t);
        s.record_cas(500_000, 2);
        // A conflicting slot is pushed past the bus: tCCD_L within the
        // group, tCCD_S across.
        assert_eq!(s.cas_slot(500_000, 2), 500_000 + t.t_ccd_l_ps);
        assert_eq!(s.cas_slot(500_000, 0), 500_000 + t.t_ccd_s_ps);
        assert_eq!(s.cas_slot(499_000, 2), 500_000 + t.t_ccd_l_ps);
        // Slots clear of the exclusion zone — before or after — pass.
        assert_eq!(s.cas_slot(400_000, 2), 400_000);
        assert_eq!(s.cas_slot(900_000, 2), 900_000);
    }

    #[test]
    fn early_cas_does_not_rewind_the_bus() {
        let t = timing();
        let mut s = TimingState::new(t);
        s.record_cas(500_000, 2);
        s.record_cas(400_000, 1); // a hit slotting in before the miss's CAS
        assert_eq!(
            s.cas_slot(500_000, 2),
            500_000 + t.t_ccd_l_ps,
            "the bus horizon stays at the latest CAS"
        );
    }

    #[test]
    fn unconstrained_is_free() {
        let mut s = TimingState::new(InterBankTiming::unconstrained());
        for i in 0..10 {
            s.record_act(i, 0, 0);
            s.record_cas(i, 0);
        }
        assert_eq!(s.earliest_act(0, 0), 9);
        assert_eq!(s.cas_slot(0, 0), 0);
        assert_eq!(s.cas_slot(42, 0), 42);
    }
}
