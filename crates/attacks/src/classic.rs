//! Classic Rowhammer patterns: single-sided, double-sided, many-sided and
//! Half-Double.

use crate::AccessPattern;
use mint_dram::RowId;

/// The classic single-sided attack (§V-C): hammer one row in every slot.
///
/// MINT is *guaranteed* to select this row whenever it fills the window, so
/// the attack caps out at `MaxACT` activations per tREFI on each victim.
///
/// # Examples
///
/// ```
/// use mint_attacks::{AccessPattern, SingleSided};
/// use mint_dram::RowId;
///
/// let mut a = SingleSided::new(RowId(500));
/// assert_eq!(a.next_act(0, 0), Some(RowId(500)));
/// assert_eq!(a.next_act(9, 72), Some(RowId(500)));
/// assert_eq!(a.target_victims(), vec![RowId(499), RowId(501)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleSided {
    row: RowId,
}

impl SingleSided {
    /// Attacks the victims of `row`.
    #[must_use]
    pub fn new(row: RowId) -> Self {
        Self { row }
    }

    /// The hammered row.
    #[must_use]
    pub fn row(&self) -> RowId {
        self.row
    }
}

impl AccessPattern for SingleSided {
    fn next_act(&mut self, _refi: u64, _slot: u32) -> Option<RowId> {
        Some(self.row)
    }

    fn name(&self) -> &'static str {
        "single-sided"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.row.neighbours(1).collect()
    }
}

/// The classic double-sided attack (§V-C): alternate the two rows flanking a
/// victim. MINT is guaranteed to mitigate one of the pair per full window,
/// refreshing the shared victim either way (§V-F: the victim enjoys the
/// *sum* of both aggressors' mitigation chances).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleSided {
    victim: RowId,
}

impl DoubleSided {
    /// Attacks `victim` by hammering `victim − 1` and `victim + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is row 0 (no lower aggressor exists).
    #[must_use]
    pub fn new(victim: RowId) -> Self {
        assert!(
            victim.0 >= 1,
            "double-sided needs an aggressor below the victim"
        );
        Self { victim }
    }

    /// The sandwiched victim row.
    #[must_use]
    pub fn victim(&self) -> RowId {
        self.victim
    }

    /// The aggressor pair.
    #[must_use]
    pub fn aggressors(&self) -> (RowId, RowId) {
        (RowId(self.victim.0 - 1), RowId(self.victim.0 + 1))
    }
}

impl AccessPattern for DoubleSided {
    fn next_act(&mut self, refi: u64, slot: u32) -> Option<RowId> {
        let (lo, hi) = self.aggressors();
        // Alternate by global slot parity.
        if (u64::from(slot) + refi * 73) % 2 == 0 {
            Some(lo)
        } else {
            Some(hi)
        }
    }

    fn name(&self) -> &'static str {
        "double-sided"
    }

    fn target_victims(&self) -> Vec<RowId> {
        vec![self.victim]
    }
}

/// TRRespass-style many-sided attack (§II-F): round-robin over `k`
/// aggressors spaced to avoid shared victims. Designed to exhaust the few
/// entries of vendor-TRR trackers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManySided {
    base: RowId,
    k: u32,
    cursor: u32,
}

impl ManySided {
    /// `k` aggressors starting at `base`, spaced by [`crate::ROW_STRIDE`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(base: RowId, k: u32) -> Self {
        assert!(k > 0, "need at least one aggressor");
        Self { base, k, cursor: 0 }
    }

    /// The aggressor rows.
    #[must_use]
    pub fn aggressors(&self) -> Vec<RowId> {
        (0..self.k)
            .map(|i| RowId(self.base.0 + i * crate::ROW_STRIDE))
            .collect()
    }
}

impl AccessPattern for ManySided {
    fn next_act(&mut self, _refi: u64, _slot: u32) -> Option<RowId> {
        let row = RowId(self.base.0 + (self.cursor % self.k) * crate::ROW_STRIDE);
        self.cursor = (self.cursor + 1) % self.k;
        Some(row)
    }

    fn name(&self) -> &'static str {
        "many-sided"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.aggressors()
            .into_iter()
            .flat_map(|r| r.neighbours(1))
            .collect()
    }
}

/// Half-Double (§V-E, Fig 12a): a plain single-sided hammer of row `C`,
/// but the rows the attacker actually wants to flip are at distance 2
/// (`A = C − 2`, `E = C + 2`) — they are hammered *by the defence's own
/// victim refreshes* of `B` and `D`, which the tracker cannot observe.
///
/// Against MINT-without-transitive-slot this yields 8192 silent hammers per
/// tREFW; MINT's SAN = 0 transitive slot is the countermeasure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HalfDouble {
    centre: RowId,
}

impl HalfDouble {
    /// Hammers `centre`, targeting `centre ± 2`.
    ///
    /// # Panics
    ///
    /// Panics if `centre` has no distance-2 row below it.
    #[must_use]
    pub fn new(centre: RowId) -> Self {
        assert!(centre.0 >= 2, "Half-Double needs two rows below the centre");
        Self { centre }
    }

    /// The hammered (decoy-aggressor) row.
    #[must_use]
    pub fn centre(&self) -> RowId {
        self.centre
    }
}

impl AccessPattern for HalfDouble {
    fn next_act(&mut self, _refi: u64, _slot: u32) -> Option<RowId> {
        Some(self.centre)
    }

    fn name(&self) -> &'static str {
        "half-double"
    }

    fn target_victims(&self) -> Vec<RowId> {
        vec![RowId(self.centre.0 - 2), RowId(self.centre.0 + 2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sided_constant_stream() {
        let mut a = SingleSided::new(RowId(9));
        for refi in 0..5 {
            for slot in 0..73 {
                assert_eq!(a.next_act(refi, slot), Some(RowId(9)));
            }
        }
        assert_eq!(a.name(), "single-sided");
    }

    #[test]
    fn double_sided_alternates_and_balances() {
        let mut a = DoubleSided::new(RowId(50));
        let mut lo = 0i32;
        let mut hi = 0i32;
        for slot in 0..73 {
            match a.next_act(0, slot) {
                Some(RowId(49)) => lo += 1,
                Some(RowId(51)) => hi += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((lo - hi).abs() <= 1, "lo {lo} hi {hi}");
        assert_eq!(a.target_victims(), vec![RowId(50)]);
    }

    #[test]
    fn double_sided_alternation_continues_across_refis() {
        let mut a = DoubleSided::new(RowId(50));
        // 73 slots is odd, so the phase flips every tREFI; both rows keep
        // receiving close-to-equal hammering over many intervals.
        let mut counts = [0u32; 2];
        for refi in 0..100 {
            for slot in 0..73 {
                match a.next_act(refi, slot) {
                    Some(RowId(49)) => counts[0] += 1,
                    Some(RowId(51)) => counts[1] += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let diff = counts[0].abs_diff(counts[1]);
        assert!(diff <= 1, "imbalance {diff}");
    }

    #[test]
    #[should_panic(expected = "aggressor below")]
    fn double_sided_rejects_row_zero_victim() {
        let _ = DoubleSided::new(RowId(0));
    }

    #[test]
    fn many_sided_round_robin_with_stride() {
        let mut a = ManySided::new(RowId(100), 3);
        assert_eq!(a.next_act(0, 0), Some(RowId(100)));
        assert_eq!(a.next_act(0, 1), Some(RowId(104)));
        assert_eq!(a.next_act(0, 2), Some(RowId(108)));
        assert_eq!(a.next_act(0, 3), Some(RowId(100)));
    }

    #[test]
    fn many_sided_aggressors_share_no_victims() {
        let a = ManySided::new(RowId(100), 10);
        let victims = a.target_victims();
        let mut sorted = victims.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), victims.len(), "victims must be disjoint");
    }

    #[test]
    fn half_double_targets_distance_two() {
        let a = HalfDouble::new(RowId(30));
        assert_eq!(a.target_victims(), vec![RowId(28), RowId(32)]);
        assert_eq!(a.centre(), RowId(30));
    }

    #[test]
    #[should_panic(expected = "two rows below")]
    fn half_double_rejects_edge() {
        let _ = HalfDouble::new(RowId(1));
    }
}
