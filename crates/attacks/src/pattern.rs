//! The paper's worst-case pattern family for MINT (§V-D).

use crate::{AccessPattern, ROW_STRIDE};
use mint_dram::RowId;

/// Pattern-1: single-row, single-copy (§V-D).
///
/// One activation of the attack row per tREFI; the other 72 slots stay idle
/// (equivalently: decoys). Over a tREFW the row receives 8192 activations,
/// each escaping MINT's selection with probability `1 − 1/74`. MinTRH 2461.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern1 {
    row: RowId,
}

impl Pattern1 {
    /// Attacks the victims of `row` with one ACT per tREFI.
    #[must_use]
    pub fn new(row: RowId) -> Self {
        Self { row }
    }
}

impl AccessPattern for Pattern1 {
    fn next_act(&mut self, _refi: u64, slot: u32) -> Option<RowId> {
        (slot == 0).then_some(self.row)
    }

    fn name(&self) -> &'static str {
        "pattern-1"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.row.neighbours(1).collect()
    }
}

/// Pattern-2: multi-row, single-copy (§V-D, Fig 10) — the paper's
/// worst-case direct attack on MINT at `k = MaxACT`.
///
/// `k` attack rows, each activated at most once per tREFI. For `k ≤ M`
/// every row is hit every tREFI (filling `k` of the `M` slots); for `k > M`
/// the rows rotate across tREFIs (the "multi-tREFI" regime where per-row
/// activation rates drop and the MinTRH falls again).
///
/// Rows are spaced [`ROW_STRIDE`] apart so no two share a victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern2 {
    base: RowId,
    k: u32,
    max_act: u32,
}

impl Pattern2 {
    /// `k` attack rows starting at `base`, in windows of `max_act` slots.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `max_act == 0`.
    #[must_use]
    pub fn new(base: RowId, k: u32, max_act: u32) -> Self {
        assert!(k > 0, "need at least one attack row");
        assert!(max_act > 0, "window must have at least one slot");
        Self { base, k, max_act }
    }

    /// The attack rows.
    #[must_use]
    pub fn rows(&self) -> Vec<RowId> {
        (0..self.k)
            .map(|i| RowId(self.base.0 + i * ROW_STRIDE))
            .collect()
    }

    /// How many tREFI one full rotation over all `k` rows takes.
    #[must_use]
    pub fn rounds_per_sweep(&self) -> u32 {
        self.k.div_ceil(self.max_act)
    }
}

impl AccessPattern for Pattern2 {
    fn next_act(&mut self, refi: u64, slot: u32) -> Option<RowId> {
        // Global slot index across the sweep selects which row comes next;
        // each row is used exactly once per sweep.
        let sweep_len = u64::from(self.rounds_per_sweep()) * u64::from(self.max_act);
        let pos_in_sweep =
            (refi % u64::from(self.rounds_per_sweep())) * u64::from(self.max_act) + u64::from(slot);
        let _ = sweep_len;
        if pos_in_sweep < u64::from(self.k) {
            Some(RowId(self.base.0 + (pos_in_sweep as u32) * ROW_STRIDE))
        } else {
            None // idle slot: fewer rows than slots in this sweep position
        }
    }

    fn name(&self) -> &'static str {
        "pattern-2"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.rows()
            .into_iter()
            .flat_map(|r| r.neighbours(1))
            .collect()
    }
}

/// Pattern-3: multi-row, multi-copy (§V-D, Fig 11).
///
/// `k` attack rows, each activated `c` times per tREFI (`k·c ≤ M`). A row
/// with `c` copies is `c`× more likely to be selected by MINT each window,
/// which is why 4+ copies collapse the attack (Fig 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern3 {
    base: RowId,
    k: u32,
    copies: u32,
    max_act: u32,
}

impl Pattern3 {
    /// `k` rows × `copies` activations per tREFI.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or if `k·copies > max_act`.
    #[must_use]
    pub fn new(base: RowId, k: u32, copies: u32, max_act: u32) -> Self {
        assert!(
            k > 0 && copies > 0 && max_act > 0,
            "parameters must be non-zero"
        );
        assert!(
            k * copies <= max_act,
            "k×c = {} must fit in one window of {max_act}",
            k * copies
        );
        Self {
            base,
            k,
            copies,
            max_act,
        }
    }

    /// The attack rows.
    #[must_use]
    pub fn rows(&self) -> Vec<RowId> {
        (0..self.k)
            .map(|i| RowId(self.base.0 + i * ROW_STRIDE))
            .collect()
    }
}

impl AccessPattern for Pattern3 {
    fn next_act(&mut self, _refi: u64, slot: u32) -> Option<RowId> {
        // Interleave copies round-robin (A B C A B C ...) rather than
        // back-to-back, which spreads each row's copies across the window.
        let used = self.k * self.copies;
        if slot >= used {
            return None;
        }
        Some(RowId(self.base.0 + (slot % self.k) * ROW_STRIDE))
    }

    fn name(&self) -> &'static str {
        "pattern-3"
    }

    fn target_victims(&self) -> Vec<RowId> {
        self.rows()
            .into_iter()
            .flat_map(|r| r.neighbours(1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn histogram(p: &mut dyn AccessPattern, refis: u64, max_act: u32) -> HashMap<RowId, u64> {
        let mut h = HashMap::new();
        for refi in 0..refis {
            for slot in 0..max_act {
                if let Some(r) = p.next_act(refi, slot) {
                    *h.entry(r).or_insert(0) += 1;
                }
            }
        }
        h
    }

    #[test]
    fn pattern1_one_act_per_refi() {
        let mut p = Pattern1::new(RowId(10));
        let h = histogram(&mut p, 100, 73);
        assert_eq!(h.len(), 1);
        assert_eq!(h[&RowId(10)], 100);
    }

    #[test]
    fn pattern2_k73_fills_window_once_per_row() {
        let mut p = Pattern2::new(RowId(100), 73, 73);
        let h = histogram(&mut p, 8, 73);
        assert_eq!(h.len(), 73);
        assert!(
            h.values().all(|&c| c == 8),
            "each row exactly once per tREFI"
        );
    }

    #[test]
    fn pattern2_small_k_leaves_idle_slots() {
        let mut p = Pattern2::new(RowId(100), 10, 73);
        let h = histogram(&mut p, 4, 73);
        assert_eq!(h.len(), 10);
        assert!(h.values().all(|&c| c == 4));
    }

    #[test]
    fn pattern2_multi_trefi_rotates() {
        // k = 146 = 2 × 73: each row hit once every two tREFI.
        let mut p = Pattern2::new(RowId(100), 146, 73);
        assert_eq!(p.rounds_per_sweep(), 2);
        let h = histogram(&mut p, 10, 73);
        assert_eq!(h.len(), 146);
        assert!(h.values().all(|&c| c == 5), "once per two tREFI");
    }

    #[test]
    fn pattern2_rows_disjoint_victims() {
        let p = Pattern2::new(RowId(100), 73, 73);
        let mut v = p.target_victims();
        let n = v.len();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), n);
    }

    #[test]
    fn pattern3_copies_per_row() {
        let mut p = Pattern3::new(RowId(100), 24, 3, 73);
        let h = histogram(&mut p, 5, 73);
        assert_eq!(h.len(), 24);
        assert!(h.values().all(|&c| c == 15), "3 copies × 5 tREFI");
    }

    #[test]
    fn pattern3_copies_interleaved_not_adjacent() {
        let mut p = Pattern3::new(RowId(100), 3, 2, 73);
        let seq: Vec<Option<RowId>> = (0..6).map(|s| p.next_act(0, s)).collect();
        assert_eq!(
            seq,
            vec![
                Some(RowId(100)),
                Some(RowId(104)),
                Some(RowId(108)),
                Some(RowId(100)),
                Some(RowId(104)),
                Some(RowId(108)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "must fit in one window")]
    fn pattern3_overflow_rejected() {
        let _ = Pattern3::new(RowId(0), 30, 3, 73);
    }

    #[test]
    fn pattern1_victims() {
        let p = Pattern1::new(RowId(10));
        assert_eq!(p.target_victims(), vec![RowId(9), RowId(11)]);
    }
}
