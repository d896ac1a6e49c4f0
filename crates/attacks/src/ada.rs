//! ADA: the adaptive attack on MINT+DMQ (paper Appendix B).

use crate::{AccessPattern, ROW_STRIDE};
use mint_dram::RowId;

/// The Adaptive Attack (ADA) of Appendix B, targeting MINT+DMQ under
/// refresh postponement.
///
/// The best attack on MINT alone is pattern-2 (one ACT per row per tREFI,
/// maximum stealth); the best attack on the DMQ is the opposite — hammer one
/// row continuously so it accumulates activations while its selection waits
/// in the FIFO. ADA morphs between them at a predefined **morphing point**
/// (MP, measured in tREFI):
///
/// * `refi < MP`: pattern-2 over `k` rows;
/// * `refi ≥ MP`: all slots hammer one *hopeful* row (by default the first
///   attack row; the analysis in `mint_analysis::ada` accounts for the
///   probability that some row reached a useful count), for `burst` tREFI
///   (5 = the postponement batch), after which the cycle restarts.
///
/// A successful morph adds up to `5 × MaxACT = 365` activations to a row
/// beyond what pattern-2 alone could (Fig 19: `A → A + 365`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveAttack {
    base: RowId,
    k: u32,
    max_act: u32,
    morph_point: u64,
    burst: u64,
    focus_index: u32,
}

impl AdaptiveAttack {
    /// Creates an ADA with `k` pattern-2 rows starting at `base`, morphing
    /// at tREFI `morph_point` into a `burst`-tREFI hammer of row
    /// `base + focus_index × ROW_STRIDE`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `max_act == 0`, `burst == 0` or
    /// `focus_index >= k`.
    #[must_use]
    pub fn new(
        base: RowId,
        k: u32,
        max_act: u32,
        morph_point: u64,
        burst: u64,
        focus_index: u32,
    ) -> Self {
        assert!(
            k > 0 && max_act > 0 && burst > 0,
            "parameters must be non-zero"
        );
        assert!(focus_index < k, "focus row must be one of the attack rows");
        Self {
            base,
            k,
            max_act,
            morph_point,
            burst,
            focus_index,
        }
    }

    /// The paper's default shape: 73 rows, MaxACT 73, burst of 5 tREFI
    /// (one full postponement batch), focusing the first row.
    #[must_use]
    pub fn paper_default(base: RowId, morph_point: u64) -> Self {
        Self::new(base, 73, 73, morph_point, 5, 0)
    }

    /// The row hammered after the morphing point.
    #[must_use]
    pub fn focus_row(&self) -> RowId {
        RowId(self.base.0 + self.focus_index * ROW_STRIDE)
    }

    /// Length of one full attack cycle in tREFI.
    #[must_use]
    pub fn cycle_refis(&self) -> u64 {
        self.morph_point + self.burst
    }
}

impl AccessPattern for AdaptiveAttack {
    fn next_act(&mut self, refi: u64, slot: u32) -> Option<RowId> {
        let phase = refi % self.cycle_refis();
        if phase < self.morph_point {
            // Pattern-2 phase: row per slot, rotating if k > max_act.
            let sweep = self.k.div_ceil(self.max_act);
            let pos = (phase % u64::from(sweep)) * u64::from(self.max_act) + u64::from(slot);
            if pos < u64::from(self.k) {
                Some(RowId(self.base.0 + (pos as u32) * ROW_STRIDE))
            } else {
                None
            }
        } else {
            // Morphed phase: flood the hopeful row.
            Some(self.focus_row())
        }
    }

    fn name(&self) -> &'static str {
        "ADA"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.focus_row().neighbours(1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern2_phase_then_flood() {
        let mut a = AdaptiveAttack::new(RowId(100), 73, 73, 3, 2, 0);
        // Phase 0..3: pattern-2 (distinct row per slot).
        let first: Vec<_> = (0..3).map(|s| a.next_act(0, s)).collect();
        assert_eq!(
            first,
            vec![Some(RowId(100)), Some(RowId(104)), Some(RowId(108))]
        );
        // Phase 3..5: flood the focus row.
        for refi in 3..5u64 {
            for slot in 0..73 {
                assert_eq!(a.next_act(refi, slot), Some(RowId(100)));
            }
        }
        // Cycle restarts at refi 5.
        assert_eq!(a.next_act(5, 1), Some(RowId(104)));
    }

    #[test]
    fn focus_row_selection() {
        let a = AdaptiveAttack::new(RowId(100), 73, 73, 10, 5, 7);
        assert_eq!(a.focus_row(), RowId(100 + 7 * ROW_STRIDE));
        assert_eq!(a.cycle_refis(), 15);
    }

    #[test]
    fn paper_default_shape() {
        let a = AdaptiveAttack::paper_default(RowId(0), 1400);
        assert_eq!(a.cycle_refis(), 1405);
        assert_eq!(a.focus_row(), RowId(0));
    }

    #[test]
    fn morph_adds_365_flood_acts_per_cycle() {
        let mut a = AdaptiveAttack::paper_default(RowId(0), 100);
        let mut flood = 0u64;
        for refi in 0..a.cycle_refis() {
            for slot in 0..73 {
                if a.next_act(refi, slot) == Some(RowId(0)) && refi >= 100 {
                    flood += 1;
                }
            }
        }
        assert_eq!(flood, 365);
    }

    #[test]
    #[should_panic(expected = "focus row")]
    fn focus_out_of_range_rejected() {
        let _ = AdaptiveAttack::new(RowId(0), 5, 73, 10, 5, 5);
    }
}
