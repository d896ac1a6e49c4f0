//! The deterministic refresh-postponement attack (paper §VI-B).

use crate::{AccessPattern, ROW_STRIDE};
use mint_dram::RowId;

/// The §VI-B attack on low-cost trackers under maximum refresh
/// postponement.
///
/// With four REFs postponed, up to `5 × MaxACT = 365` activations separate
/// consecutive refresh opportunities, but a REF-synchronised tracker only
/// "sees" the first `MaxACT` of them (MINT's CAN saturates; PARFM's buffer
/// fills). The attack exploits this: in each 5-tREFI super-window it spends
/// the first `MaxACT` slots on decoy rows — absorbing whatever the tracker
/// will mitigate — and hammers the real attack row for the remaining
/// `4 × MaxACT` slots, which are completely invisible.
///
/// Per tREFW that is `8192/5 × 292 ≈ 478K` deterministic, unmitigated
/// activations (the paper's headline 478K). The `Dmq` wrapper in
/// `mint-core` defeats it by rolling the tracker's window every `MaxACT`
/// activations regardless of REF arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostponementDecoy {
    attack_row: RowId,
    decoy_base: RowId,
    max_act: u32,
    batch: u32,
}

impl PostponementDecoy {
    /// Attacks `attack_row`'s victims; decoys start at `decoy_base`.
    /// `max_act` is the tracker-visible window (73); `batch` the REF batch
    /// size under postponement (5 = 1 + 4 postponed).
    ///
    /// # Panics
    ///
    /// Panics if `max_act == 0` or `batch < 2` (no postponement to exploit).
    #[must_use]
    pub fn new(attack_row: RowId, decoy_base: RowId, max_act: u32, batch: u32) -> Self {
        assert!(max_act > 0, "window must have at least one slot");
        assert!(batch >= 2, "attack requires at least one postponed REF");
        Self {
            attack_row,
            decoy_base,
            max_act,
            batch,
        }
    }

    /// The hammered row.
    #[must_use]
    pub fn attack_row(&self) -> RowId {
        self.attack_row
    }

    /// Invisible (unmitigated) activations per tREFW of `refw_refis` tREFIs.
    #[must_use]
    pub fn invisible_acts_per_refw(&self, refw_refis: u32) -> u64 {
        let supers = u64::from(refw_refis / self.batch);
        supers * u64::from((self.batch - 1) * self.max_act)
    }
}

impl AccessPattern for PostponementDecoy {
    fn next_act(&mut self, refi: u64, slot: u32) -> Option<RowId> {
        let phase = refi % u64::from(self.batch);
        if phase == 0 {
            // Visible window: decoys (distinct rows so no decoy accumulates).
            Some(RowId(self.decoy_base.0 + (slot % 64) * ROW_STRIDE))
        } else {
            // Invisible tail of the super-window: hammer the target.
            Some(self.attack_row)
        }
    }

    fn name(&self) -> &'static str {
        "postponement-decoy"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.attack_row.neighbours(1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoys_then_attack() {
        let mut a = PostponementDecoy::new(RowId(666), RowId(5000), 73, 5);
        // tREFI 0: decoys only.
        for slot in 0..73 {
            let r = a.next_act(0, slot).unwrap();
            assert_ne!(r, RowId(666), "no attack ACT in the visible window");
        }
        // tREFI 1..4: attack row only.
        for refi in 1..5u64 {
            for slot in 0..73 {
                assert_eq!(a.next_act(refi, slot), Some(RowId(666)));
            }
        }
        // tREFI 5 starts the next super-window: decoys again.
        assert_ne!(a.next_act(5, 0), Some(RowId(666)));
    }

    #[test]
    fn headline_478k() {
        let a = PostponementDecoy::new(RowId(666), RowId(5000), 73, 5);
        // 8192/5 = 1638 super-windows × 292 invisible ACTs = 478 296.
        assert_eq!(a.invisible_acts_per_refw(8192), 478_296);
    }

    #[test]
    fn victims_flank_attack_row() {
        let a = PostponementDecoy::new(RowId(666), RowId(5000), 73, 5);
        assert_eq!(a.target_victims(), vec![RowId(665), RowId(667)]);
    }

    #[test]
    #[should_panic(expected = "postponed REF")]
    fn batch_of_one_rejected() {
        let _ = PostponementDecoy::new(RowId(1), RowId(2), 73, 1);
    }
}
