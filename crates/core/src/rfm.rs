//! MINT co-designed with DDR5 Refresh Management (paper §VII).

use crate::{InDramTracker, Mint, MintConfig, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// MINT+RFM: the memory controller issues an RFM command every `rfm_th`
/// activations (its per-bank Rolling Accumulation of ACTs counter crossing
/// the threshold), giving the device an extra mitigation opportunity.
///
/// MINT adapts by drawing its SAN over `URAND(0, rfm_th)` — the mitigation
/// window shrinks from 73 activations to 32 (RFM32, ≈2× rate) or 16
/// (RFM16, ≈4× rate), scaling the tolerated threshold down proportionally
/// (Table V: MinTRH-D 1482 → 689 → 356).
///
/// Because RFM commands may themselves be delayed by the controller, the
/// tracker supports an optional DMQ-style delay FIFO
/// ([`with_delay`](Self::with_delay)): selections pass through up to four
/// window-sized delays before being mitigated, matching the paper's
/// "MINT+RFM with DMQ" evaluation.
///
/// # Examples
///
/// ```
/// use mint_core::{InDramTracker, MintRfm};
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(8);
/// let mut t = MintRfm::new(32, &mut rng);
/// let mut mitigations = 0;
/// for _ in 0..73 {
///     if t.on_activation(RowId(5), &mut rng).is_some() {
///         mitigations += 1; // an RFM fired mid-tREFI
///     }
/// }
/// assert_eq!(mitigations, 2); // 73 / 32 = 2 RFM commands per tREFI
/// ```
#[derive(Debug, Clone)]
pub struct MintRfm {
    mint: Mint,
    rfm_th: u32,
    acts_in_window: u32,
    delay_windows: usize,
    delay_queue: std::collections::VecDeque<MitigationDecision>,
}

impl MintRfm {
    /// Creates MINT+RFM with the given RFM threshold (32 or 16 in the
    /// paper) and no RFM delay.
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th == 0`.
    #[must_use]
    pub fn new(rfm_th: u32, rng: &mut dyn Rng64) -> Self {
        Self {
            mint: Mint::new(MintConfig::rfm(rfm_th), rng),
            rfm_th,
            acts_in_window: 0,
            delay_windows: 0,
            delay_queue: std::collections::VecDeque::new(),
        }
    }

    /// Adds a DMQ-style delay: selections are mitigated `windows` mitigation
    /// windows after being made (clamped to the DMQ depth of 4).
    #[must_use]
    pub fn with_delay(mut self, windows: usize) -> Self {
        self.delay_windows = windows.min(crate::DMQ_ENTRIES);
        self
    }

    /// The RFM threshold.
    #[must_use]
    pub fn rfm_th(&self) -> u32 {
        self.rfm_th
    }

    /// The inner MINT tracker.
    #[must_use]
    pub fn mint(&self) -> &Mint {
        &self.mint
    }

    /// Ends the current window and routes its selection through the delay
    /// FIFO, returning whatever is due for mitigation now.
    fn rotate_window(&mut self, rng: &mut dyn Rng64) -> MitigationDecision {
        let fresh = self.mint.on_refresh(rng);
        if self.delay_windows == 0 {
            return fresh;
        }
        self.delay_queue.push_back(fresh);
        if self.delay_queue.len() > self.delay_windows {
            self.delay_queue
                .pop_front()
                .unwrap_or(MitigationDecision::None)
        } else {
            MitigationDecision::None
        }
    }
}

impl InDramTracker for MintRfm {
    fn on_activation(&mut self, row: RowId, rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        self.mint.on_activation(row, rng);
        self.acts_in_window += 1;
        if self.acts_in_window >= self.rfm_th {
            self.acts_in_window = 0;
            Some(self.rotate_window(rng))
        } else {
            None
        }
    }

    fn on_refresh(&mut self, rng: &mut dyn Rng64) -> MitigationDecision {
        // A REF is also a mitigation opportunity: drain delayed work first,
        // else end the (possibly partial) window.
        if let Some(oldest) = self.delay_queue.pop_front() {
            return oldest;
        }
        self.acts_in_window = 0;
        self.mint.on_refresh(rng)
    }

    fn name(&self) -> &'static str {
        "MINT+RFM"
    }

    fn live_entries(&self) -> usize {
        self.mint.live_entries()
    }

    fn entries(&self) -> usize {
        1
    }

    /// MINT registers plus the delay FIFO (19 bits per slot when enabled).
    fn storage_bits(&self) -> u64 {
        32 + (self.delay_windows as u64) * 19
    }

    fn reset(&mut self, rng: &mut dyn Rng64) {
        self.acts_in_window = 0;
        self.delay_queue.clear();
        self.mint.reset(rng);
    }

    /// `[acts_in_window, queue_len, queue…, mint…]` — each delayed decision
    /// in its three-word encoding, the inner MINT registers last.
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.u32(&mut self.acts_in_window)?;
        let delayed = c.count(
            self.delay_queue.len(),
            crate::DMQ_ENTRIES,
            "MINT+RFM delay queue",
        )?;
        self.delay_queue.resize(delayed, MitigationDecision::None);
        self.delay_queue.iter_mut().try_for_each(|d| d.walk(c))?;
        self.mint.walk_state(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn rfm32_fires_twice_per_trefi() {
        let mut r = rng(1);
        let mut t = MintRfm::new(32, &mut r);
        let mut fired = 0;
        for _ in 0..73 {
            if t.on_activation(RowId(1), &mut r).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 2);
        let _ = t.on_refresh(&mut r);
    }

    #[test]
    fn rfm16_fires_four_times_per_trefi() {
        let mut r = rng(2);
        let mut t = MintRfm::new(16, &mut r);
        let fired = (0..73)
            .filter(|_| t.on_activation(RowId(1), &mut r).is_some())
            .count();
        assert_eq!(fired, 4);
    }

    #[test]
    fn full_window_guarantees_selection() {
        let mut r = rng(3);
        let mut t = MintRfm::new(16, &mut r);
        let mut decisions = Vec::new();
        for _ in 0..160 {
            if let Some(d) = t.on_activation(RowId(50), &mut r) {
                decisions.push(d);
            }
        }
        assert_eq!(decisions.len(), 10);
        // Every full window selects row 50 (or fires a transitive around it).
        for d in decisions {
            match d {
                MitigationDecision::Aggressor(row) => assert_eq!(row, RowId(50)),
                MitigationDecision::Transitive { around, .. } => assert_eq!(around, RowId(50)),
                MitigationDecision::None => {
                    // Possible only for a transitive draw before any
                    // selection existed — the very first window.
                }
                other => panic!("unexpected decision {other:?}"),
            }
        }
    }

    #[test]
    fn selection_probability_is_one_over_span() {
        let mut r = rng(4);
        let mut t = MintRfm::new(32, &mut r);
        let trials = 60_000u32;
        let mut hits = 0u32;
        // Attack row occupies exactly one of the 32 slots per window; the
        // boundary decision fires on the window's last activation.
        for _ in 0..trials {
            t.on_activation(RowId(9), &mut r);
            let mut boundary = MitigationDecision::None;
            for i in 1..32 {
                if let Some(d) = t.on_activation(RowId(100 + i), &mut r) {
                    boundary = d;
                }
            }
            if boundary.mitigates(RowId(9)) {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / f64::from(trials);
        let expect = 1.0 / 33.0;
        assert!((rate - expect).abs() < 3e-3, "rate {rate} vs {expect}");
    }

    #[test]
    fn delayed_rfm_buffers_selections() {
        let mut r = rng(5);
        let mut t = MintRfm::new(16, &mut r).with_delay(2);
        let mut emitted = Vec::new();
        for w in 0..6u32 {
            for _ in 0..16 {
                if let Some(d) = t.on_activation(RowId(w), &mut r) {
                    emitted.push((w, d));
                }
            }
        }
        assert_eq!(emitted.len(), 6);
        // First two boundaries emit None (filling the delay pipe).
        assert!(emitted[0].1.is_none());
        assert!(emitted[1].1.is_none());
        // Boundary of window w emits the selection of window w-2.
        for (w, d) in &emitted[2..] {
            match d {
                MitigationDecision::Aggressor(row) => assert_eq!(*row, RowId(w - 2)),
                MitigationDecision::Transitive { around, .. } => {
                    assert_eq!(*around, RowId(w - 2));
                }
                MitigationDecision::None => {}
                other => panic!("unexpected decision {other:?}"),
            }
        }
    }

    #[test]
    fn refresh_drains_delay_queue_first() {
        let mut r = rng(6);
        let mut t = MintRfm::new(16, &mut r).with_delay(4);
        for w in 0..3u32 {
            for _ in 0..16 {
                let _ = t.on_activation(RowId(w), &mut r);
            }
        }
        // Three selections are parked; a REF must release the oldest.
        let d = t.on_refresh(&mut r);
        match d {
            MitigationDecision::Aggressor(row) => assert_eq!(row, RowId(0)),
            MitigationDecision::Transitive { around, .. } => assert_eq!(around, RowId(0)),
            other => panic!("expected the oldest delayed selection, got {other:?}"),
        }
    }

    #[test]
    fn delay_clamped_to_dmq_depth() {
        let mut r = rng(7);
        let t = MintRfm::new(16, &mut r).with_delay(99);
        assert_eq!(t.storage_bits(), 32 + 4 * 19);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut r = rng(8);
        let mut t = MintRfm::new(32, &mut r).with_delay(1);
        for _ in 0..100 {
            let _ = t.on_activation(RowId(3), &mut r);
        }
        t.reset(&mut r);
        assert_eq!(t.mint().can(), 0);
        assert!(t.on_activation(RowId(3), &mut r).is_none());
    }
}
