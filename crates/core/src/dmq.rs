//! The Delayed Mitigation Queue (paper §VI): refresh-postponement support
//! for low-cost trackers.

use crate::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// DMQ depth: DDR5 allows at most four postponed REFs, so at most four
/// pseudo-mitigations can be outstanding (§VI-C).
pub const DMQ_ENTRIES: usize = 4;

/// Wraps any low-cost tracker so that its mitigation window is counted in
/// *activations* instead of being synchronised to REF commands.
///
/// Mechanism (paper Fig 15):
///
/// * The wrapper counts activations since the last REF. When the count
///   exceeds the window size (`MaxACT`, 73), it resets to 1 and asks the
///   inner tracker for a **pseudo-mitigation**: the tracker's current
///   selection is popped into a 4-entry FIFO and a fresh window begins.
/// * On a real REF, if the FIFO holds anything, the *oldest* entry is
///   mitigated; otherwise the inner tracker operates exactly as without
///   postponement.
///
/// A selected row can wait in the FIFO for at most `4 × MaxACT = 292`
/// activations, so the tolerated threshold of the wrapped tracker rises by
/// at most 292 (146 double-sided) — the same penalty counter-based trackers
/// pay (§VI-D) — instead of collapsing entirely (§VI-B's deterministic 478K
/// activation attack).
///
/// # Examples
///
/// ```
/// use mint_core::{Dmq, InDramTracker, Mint, MintConfig};
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(5);
/// let mint = Mint::new(MintConfig::ddr5_default(), &mut rng);
/// let mut tracker = Dmq::new(mint, 73);
///
/// // Five tREFI worth of a single-sided attack with all REFs postponed:
/// for _ in 0..365 {
///     tracker.on_activation(RowId(9), &mut rng);
/// }
/// // The batch of five REFs arrives; the first pops the oldest selection.
/// let first = tracker.on_refresh(&mut rng);
/// assert!(first.mitigates(RowId(9)));
/// ```
#[derive(Debug, Clone)]
pub struct Dmq<T> {
    inner: T,
    queue: std::collections::VecDeque<MitigationDecision>,
    acts_since_ref: u32,
    window_acts: u32,
    depth: usize,
    /// Pseudo-mitigations dropped because the FIFO was full (only possible
    /// if the controller postpones more REFs than the FIFO depth covers).
    overflow_drops: u64,
}

impl<T: InDramTracker> Dmq<T> {
    /// Wraps `inner`, treating `window_acts` activations as one mitigation
    /// window (73 for the tREFI-synchronised default; the RFM threshold for
    /// MINT+RFM). The FIFO has the standard [`DMQ_ENTRIES`] depth.
    ///
    /// # Panics
    ///
    /// Panics if `window_acts == 0`.
    #[must_use]
    pub fn new(inner: T, window_acts: u32) -> Self {
        Self::with_depth(inner, window_acts, DMQ_ENTRIES)
    }

    /// Wraps `inner` with a custom FIFO depth (for the depth-ablation
    /// study; DDR5 needs 4 to cover the 4 postponable REFs).
    ///
    /// # Panics
    ///
    /// Panics if `window_acts == 0` or `depth == 0`.
    #[must_use]
    pub fn with_depth(inner: T, window_acts: u32, depth: usize) -> Self {
        assert!(window_acts > 0, "DMQ window must be non-zero");
        assert!(depth > 0, "DMQ needs at least one entry");
        Self {
            inner,
            queue: std::collections::VecDeque::with_capacity(depth),
            acts_since_ref: 0,
            window_acts,
            depth,
            overflow_drops: 0,
        }
    }

    /// The wrapped tracker.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Decisions currently waiting in the FIFO.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Pseudo-mitigations dropped due to FIFO overflow (spec violations).
    #[must_use]
    pub fn overflow_drops(&self) -> u64 {
        self.overflow_drops
    }

    fn enqueue(&mut self, decision: MitigationDecision) {
        // `None` decisions still occupy a REF's worth of mitigation budget
        // in hardware, but queueing them would pointlessly delay real
        // entries here, so only valid selections enter the FIFO.
        if decision.is_none() {
            return;
        }
        if self.queue.len() == self.depth {
            self.overflow_drops += 1;
            return;
        }
        self.queue.push_back(decision);
    }
}

impl<T: InDramTracker> InDramTracker for Dmq<T> {
    fn on_activation(&mut self, row: RowId, rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        self.acts_since_ref += 1;
        if self.acts_since_ref > self.window_acts {
            self.acts_since_ref = 1;
            let d = self.inner.pseudo_mitigate(rng);
            self.enqueue(d);
        }
        // Forward; RFM-style inners may still emit mid-window decisions.
        self.inner.on_activation(row, rng)
    }

    fn on_refresh(&mut self, rng: &mut dyn Rng64) -> MitigationDecision {
        if let Some(oldest) = self.queue.pop_front() {
            return oldest;
        }
        self.acts_since_ref = 0;
        self.inner.on_refresh(rng)
    }

    fn pseudo_mitigate(&mut self, rng: &mut dyn Rng64) -> MitigationDecision {
        // A DMQ inside a DMQ is not a meaningful hardware configuration, but
        // honour the contract: drain the oldest pending work.
        if let Some(oldest) = self.queue.pop_front() {
            return oldest;
        }
        self.inner.pseudo_mitigate(rng)
    }

    fn name(&self) -> &'static str {
        "DMQ"
    }

    fn live_entries(&self) -> usize {
        self.inner.live_entries() + self.queue.len()
    }

    fn overflow_count(&self) -> u64 {
        self.inner.overflow_count() + self.overflow_drops
    }

    fn entries(&self) -> usize {
        self.inner.entries() + self.depth
    }

    /// Inner storage + FIFO entries of 19 bits each (18-bit row +
    /// transitive flag), per §VIII-C.
    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits() + (self.depth as u64) * 19
    }

    fn reset(&mut self, rng: &mut dyn Rng64) {
        self.queue.clear();
        self.acts_since_ref = 0;
        self.overflow_drops = 0;
        self.inner.reset(rng);
    }

    /// `[acts_since_ref, overflow_drops, queue_len, queue…, inner…]` —
    /// each queued decision in its three-word encoding, inner state last.
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.u32(&mut self.acts_since_ref)?;
        c.u64(&mut self.overflow_drops)?;
        let queued = c.count(self.queue.len(), self.depth, "DMQ queue")?;
        self.queue.resize(queued, MitigationDecision::None);
        self.queue.iter_mut().try_for_each(|d| d.walk(c))?;
        self.inner.walk_state(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mint, MintConfig};
    use mint_rng::Xoshiro256StarStar;

    fn mint_dmq(seed: u64) -> (Dmq<Mint>, Xoshiro256StarStar) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let cfg = MintConfig::ddr5_default().without_transitive();
        let mint = Mint::new(cfg, &mut rng);
        (Dmq::new(mint, 73), rng)
    }

    #[test]
    fn timely_refresh_behaves_like_bare_tracker() {
        let (mut dmq, mut rng) = mint_dmq(1);
        for _ in 0..200 {
            for _ in 0..73 {
                dmq.on_activation(RowId(4), &mut rng);
            }
            assert!(dmq.on_refresh(&mut rng).mitigates(RowId(4)));
            assert_eq!(dmq.queued(), 0);
        }
    }

    #[test]
    fn postponed_batch_drains_fifo_in_order() {
        let (mut dmq, mut rng) = mint_dmq(2);
        // Five windows hammering five distinct rows; REFs all postponed.
        for w in 0..5u32 {
            for _ in 0..73 {
                dmq.on_activation(RowId(100 + w), &mut rng);
            }
        }
        // Pseudo-mitigations fired at the start of windows 2..5.
        assert_eq!(dmq.queued(), 4);
        // The batch of five REFs: first four pop the FIFO in FIFO order...
        for w in 0..4u32 {
            let d = dmq.on_refresh(&mut rng);
            assert!(
                d.mitigates(RowId(100 + w)),
                "REF {w} should mitigate its window's row, got {d:?}"
            );
        }
        // ...and the fifth drains the live window.
        let d = dmq.on_refresh(&mut rng);
        assert!(d.mitigates(RowId(104)));
        assert_eq!(dmq.queued(), 0);
    }

    #[test]
    fn deterministic_postponement_attack_is_foiled() {
        // §VI-B attack: 73 decoy ACTs, then 292 ACTs on the victim row.
        // Without DMQ the victim row is invisible; with DMQ the windows roll
        // over and the attack row is guaranteed selection in windows it
        // fully occupies.
        let (mut dmq, mut rng) = mint_dmq(3);
        let mut attack_mitigations = 0;
        for _ in 0..100 {
            for d in 0..73u32 {
                dmq.on_activation(RowId(2_000 + d), &mut rng);
            }
            for _ in 0..292 {
                dmq.on_activation(RowId(666), &mut rng);
            }
            for _ in 0..5 {
                if dmq.on_refresh(&mut rng).mitigates(RowId(666)) {
                    attack_mitigations += 1;
                }
            }
        }
        // The attack row fully occupies windows 2..4 (selection guaranteed)
        //plus the scraps of window 5 — at least 3 mitigations per burst.
        assert!(
            attack_mitigations >= 300,
            "attack row must be mitigated under DMQ, got {attack_mitigations}"
        );
    }

    #[test]
    fn fifo_overflow_is_counted_not_fatal() {
        let (mut dmq, mut rng) = mint_dmq(4);
        // 7 windows without any REF: 6 pseudo-mitigations, 2 dropped.
        for w in 0..7u32 {
            for _ in 0..73 {
                dmq.on_activation(RowId(10 + w), &mut rng);
            }
        }
        assert_eq!(dmq.queued(), DMQ_ENTRIES);
        assert_eq!(dmq.overflow_drops(), 2);
    }

    #[test]
    fn none_selections_do_not_clog_the_fifo() {
        let (mut dmq, mut rng) = mint_dmq(5);
        // Sparse traffic: one ACT per tREFI, timely REFs. Selections are
        // rare (p = 1/73) and the FIFO must not fill with `None`s.
        for w in 0..1000u32 {
            dmq.on_activation(RowId(w % 7), &mut rng);
            let _ = dmq.on_refresh(&mut rng);
            assert_eq!(dmq.queued(), 0, "FIFO should stay empty under timely REF");
        }
    }

    #[test]
    fn delay_bound_is_four_windows() {
        // A row selected at the start of window 1 waits at most 4 × 73 ACTs.
        let (mut dmq, mut rng) = mint_dmq(6);
        let mut max_wait = 0u32;
        for _ in 0..50 {
            let mut wait = 0u32;
            let mut selected_at: Option<u32> = None;
            let mut acts = 0u32;
            for w in 0..5u32 {
                for _ in 0..73 {
                    dmq.on_activation(RowId(31_337), &mut rng);
                    acts += 1;
                    if selected_at.is_none() && dmq.inner().sar() == Some(RowId(31_337)) {
                        selected_at = Some(acts);
                    }
                }
                let _ = w;
            }
            for _ in 0..5 {
                let d = dmq.on_refresh(&mut rng);
                if d.mitigates(RowId(31_337)) {
                    if let Some(s) = selected_at {
                        wait = acts.saturating_sub(s);
                    }
                    break;
                }
            }
            max_wait = max_wait.max(wait);
        }
        assert!(max_wait <= 4 * 73 + 73, "wait {max_wait} exceeds DMQ bound");
    }

    #[test]
    fn storage_accounting_matches_paper() {
        let (dmq, _) = mint_dmq(7);
        // 32 bits MINT + 76 bits DMQ = 108 bits = 13.5 bytes < 15 bytes.
        assert_eq!(dmq.storage_bits(), 32 + 76);
        assert_eq!(dmq.entries(), 5);
    }

    #[test]
    fn reset_clears_queue_and_counters() {
        let (mut dmq, mut rng) = mint_dmq(8);
        for _ in 0..200 {
            dmq.on_activation(RowId(1), &mut rng);
        }
        dmq.reset(&mut rng);
        assert_eq!(dmq.queued(), 0);
        assert_eq!(dmq.overflow_drops(), 0);
    }
}
