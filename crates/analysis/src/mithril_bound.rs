//! The entries-vs-threshold trade-off for Mithril (paper §II-G, Table III).
//!
//! The paper sizes Mithril with Theorem 1 of the original HPCA 2022 paper,
//! quoting two data points: 677 entries for MinTRH-D = 1400, and ~1400
//! entries for MinTRH-D = 1000. We model the relationship as the idealized
//! PRCT floor plus a finite-table penalty inversely proportional to the
//! entry count:
//!
//! ```text
//! MinTRH-D(m) = PRCT_D + C / m
//! ```
//!
//! The `1/m` shape is the theoretically expected penalty of a frequent-items
//! sketch (count error scales with `(activations tracked) / entries`); the
//! constant `C` is calibrated so that both of the paper's data points are
//! reproduced (C = 2¹⁹ fits both within 0.5%). It is a calibrated — not
//! re-derived — relationship; the `mint-sim` crate
//! additionally validates the *behavioural* Mithril implementation against
//! attack patterns.

use crate::feint;

/// Calibration constant (see module docs): `MinTRH-D = PRCT_D + C/m`.
pub const MITHRIL_PENALTY_C: f64 = 524_288.0; // 2^19

/// MinTRH-D tolerated by Mithril with `entries` counters per bank.
///
/// # Panics
///
/// Panics if `entries == 0`.
///
/// # Examples
///
/// ```
/// use mint_analysis::mithril_bound::min_trh_d;
/// let d = min_trh_d(677);
/// assert!((1350..1450).contains(&d)); // paper: 1400
/// ```
#[must_use]
pub fn min_trh_d(entries: u32) -> u32 {
    assert!(entries > 0, "Mithril needs at least one entry");
    let floor = feint::prct_min_trh_d() as f64;
    (floor + MITHRIL_PENALTY_C / f64::from(entries)).round() as u32
}

/// Entries Mithril needs to tolerate a double-sided threshold of `trh_d`.
///
/// Returns `None` if the request is below the idealized PRCT floor (no
/// number of entries suffices at this mitigation rate).
#[must_use]
pub fn entries_for(trh_d: u32) -> Option<u32> {
    let floor = feint::prct_min_trh_d();
    if trh_d <= floor {
        return None;
    }
    Some((MITHRIL_PENALTY_C / f64::from(trh_d - floor)).ceil() as u32)
}

/// MinTRH-D under maximum refresh postponement (§VI-A): counter trackers
/// pay the `4 × MaxACT` penalty split across the double-sided pair.
#[must_use]
pub fn min_trh_d_postponed(entries: u32, max_act: u32) -> u32 {
    min_trh_d(entries) + 2 * max_act
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_677_entries() {
        let d = min_trh_d(677);
        assert!((1350..1450).contains(&d), "{d}");
    }

    #[test]
    fn paper_anchor_1400_entries_for_1k() {
        // §II-G: "for a TRH-D of 1K, Mithril would require ~1400 entries".
        let m = entries_for(1000).unwrap();
        assert!((1250..1550).contains(&m), "{m}");
    }

    #[test]
    fn postponement_adds_146() {
        // Table IV: Mithril 1400 → 1546.
        let base = min_trh_d(677);
        assert_eq!(min_trh_d_postponed(677, 73), base + 146);
    }

    #[test]
    fn below_prct_floor_impossible() {
        assert_eq!(entries_for(100), None);
        assert_eq!(entries_for(feint::prct_min_trh_d()), None);
    }

    #[test]
    fn more_entries_lower_threshold() {
        assert!(min_trh_d(2000) < min_trh_d(677));
        assert!(min_trh_d(677) < min_trh_d(100));
    }

    #[test]
    fn round_trip() {
        let m = entries_for(1400).unwrap();
        let d = min_trh_d(m);
        assert!((d as i64 - 1400).abs() <= 15, "{d}");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = min_trh_d(0);
    }
}
