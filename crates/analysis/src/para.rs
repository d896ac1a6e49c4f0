//! InDRAM-PARA analysis: the non-uniformity curves of §III and the design's
//! MinTRH, including the refresh-postponement regime of §VI-B.

use crate::mttf::MinTrhSolver;
use crate::sw::SwModel;

/// Survival probability of a row sampled at position `k` (1-based) of an
/// `m`-slot window with sampling probability `p` (Eq 2, Fig 3):
/// `S_k = (1 − p)^(m − k)`.
///
/// # Examples
///
/// ```
/// use mint_analysis::para::survival_probability;
/// let s1 = survival_probability(1.0 / 73.0, 73, 1);
/// let s73 = survival_probability(1.0 / 73.0, 73, 73);
/// assert!((s73 - 1.0).abs() < 1e-12);
/// assert!((s1 - 0.372).abs() < 0.01); // the paper's 2.7x penalty
/// ```
#[must_use]
pub fn survival_probability(p: f64, m: u32, k: u32) -> f64 {
    assert!(k >= 1 && k <= m, "position must be in 1..=m");
    (1.0 - p).powi((m - k) as i32)
}

/// Sampling probability of position `k` for the no-overwrite variant
/// (Eq 3 with the first position normalised to `p`, Fig 5):
/// `P_k = p·(1 − p)^(k − 1)`.
///
/// (The paper's Eq 3 writes the exponent as `K`; its Fig 5 normalises
/// position 1 to exactly `p`, which corresponds to the `k − 1` exponent
/// used here.)
#[must_use]
pub fn sampling_probability_no_overwrite(p: f64, m: u32, k: u32) -> f64 {
    assert!(k >= 1 && k <= m, "position must be in 1..=m");
    p * (1.0 - p).powi((k - 1) as i32)
}

/// Relative mitigation probability of position `k` (normalised to the ideal
/// uniform `p`), for both variants (Fig 6).
#[must_use]
pub fn relative_mitigation(p: f64, m: u32, k: u32, no_overwrite: bool) -> f64 {
    if no_overwrite {
        sampling_probability_no_overwrite(p, m, k) / p
    } else {
        survival_probability(p, m, k)
    }
}

/// The worst-position mitigation probability of InDRAM-PARA: position 1
/// (overwrite variant), `p(1 − p)^(m−1)` — the paper's 2.7× penalty
/// (`≈ 1/196` for m = 73).
#[must_use]
pub fn worst_position_probability(p: f64, m: u32) -> f64 {
    p * survival_probability(p, m, 1)
}

/// MinTRH of InDRAM-PARA under timely refresh.
///
/// The attack (following §III-C: the adversary synchronises to the most
/// vulnerable position) fills every slot of every tREFI with attack rows;
/// the row at position `k` is mitigated per-hammer with
/// `p·(1 − p)^(m−k)`. The total failure probability sums the per-position
/// failure probabilities; it is dominated by position 1 but the later
/// positions contribute a small multiplier.
#[must_use]
pub fn min_trh(solver: &MinTrhSolver, m: u32) -> u32 {
    let p = 1.0 / f64::from(m);
    let budget = solver.prob_budget();
    let prob = |t: u32| -> f64 {
        let mut total = 0.0;
        for k in 1..=m {
            let pk = p * survival_probability(p, m, k);
            let model = SwModel {
                p_mitigation: pk,
                threshold_events: t,
                events_per_refw: 8192,
                refi_per_event: 1.0,
                row_multiplier: 1.0,
            };
            total += model.failure_prob_refw();
            if total > budget * 1e3 {
                break; // already hopeless; avoid wasted work
            }
        }
        total.clamp(0.0, 1.0)
    };
    solver.min_threshold(1, 8192, &prob)
}

/// MinTRH of InDRAM-PARA under maximum refresh postponement *without* a DMQ
/// (§VI-B): between refresh opportunities there are `5m` slots. The attacker
/// devotes the first `s` slots of each super-window to the attack row and
/// fills the rest with decoys, so the row is mitigated per super-window with
/// probability `(1 − (1−p)^s)·(1−p)^(5m−s)` — sampled at least once AND the
/// last sample survives the decoy tail. The attacker picks the `s` that
/// maximises the tolerated threshold.
#[must_use]
pub fn min_trh_postponed_no_dmq(solver: &MinTrhSolver, m: u32) -> u32 {
    let p = 1.0 / f64::from(m);
    let slots = 5 * m;
    let windows_per_refw = 8192 / 5;
    let mut worst = 0u32;
    // Sweep the attacker's knob: hammers per super-window.
    for s in (1..=slots).step_by(4) {
        let p_mit = (1.0 - (1.0 - p).powi(s as i32)) * (1.0 - p).powi((slots - s) as i32);
        if p_mit <= 0.0 {
            continue;
        }
        let prob = |t_acts: u32| -> f64 {
            let batches = t_acts.div_ceil(s).max(1);
            let model = SwModel {
                p_mitigation: p_mit,
                threshold_events: batches,
                events_per_refw: windows_per_refw,
                refi_per_event: 5.0,
                row_multiplier: 1.0,
            };
            model.failure_prob_refw()
        };
        let max_acts = s * windows_per_refw;
        let t = solver.min_threshold(1, max_acts, &prob);
        worst = worst.max(t);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mttf::TargetMttf;

    fn solver() -> MinTrhSolver {
        MinTrhSolver::new(TargetMttf::paper_default(), 0.032)
    }

    #[test]
    fn survival_is_monotone_in_position() {
        let p = 1.0 / 73.0;
        let mut last = 0.0;
        for k in 1..=73 {
            let s = survival_probability(p, 73, k);
            assert!(s > last);
            last = s;
        }
        assert!((last - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig3_first_position_about_037() {
        let s = survival_probability(1.0 / 73.0, 73, 1);
        assert!((s - 0.3722).abs() < 0.002, "{s}");
    }

    #[test]
    fn fig5_last_position_about_037_relative() {
        let p = 1.0 / 73.0;
        let rel = sampling_probability_no_overwrite(p, 73, 73) / p;
        // (1 − 1/73)^72 = 0.37042 — the paper rounds this to "about 0.37x".
        assert!((rel - 0.3704).abs() < 0.002, "{rel}");
    }

    #[test]
    fn fig6_both_variants_27x_penalty() {
        let p = 1.0 / 73.0;
        let over = relative_mitigation(p, 73, 1, false);
        let nover = relative_mitigation(p, 73, 73, true);
        assert!(
            (1.0 / over - 2.69).abs() < 0.1,
            "overwrite penalty {}",
            1.0 / over
        );
        assert!(
            (1.0 / nover - 2.65).abs() < 0.1,
            "no-overwrite penalty {}",
            1.0 / nover
        );
    }

    #[test]
    fn worst_position_is_one_in_196() {
        let w = worst_position_probability(1.0 / 73.0, 73);
        assert!((1.0 / w - 196.1).abs() < 1.0, "{}", 1.0 / w);
    }

    #[test]
    fn min_trh_about_2x_to_3x_of_mint() {
        // Paper: InDRAM-PARA tolerates ≈2.7× the ideal 2.8K → ≈7.5K single
        // (3732 double-sided). Our summed-position model lands in the same
        // band; Table III (`table3_tracker_comparison`) prints the
        // measured double-sided value.
        let t = min_trh(&solver(), 73);
        assert!(
            (5500..8192).contains(&t),
            "InDRAM-PARA MinTRH should be in the 6-8K band, got {t}"
        );
    }

    #[test]
    fn postponement_explodes_min_trh() {
        // §VI-B: from ~3.7K-D to >21K-D without DMQ. Single-sided: > 15K.
        let base = min_trh(&solver(), 73);
        let post = min_trh_postponed_no_dmq(&solver(), 73);
        assert!(
            post > 3 * base,
            "postponement should blow up the threshold: {post} vs base {base}"
        );
        assert!(post > 15_000, "expected >15K single-sided, got {post}");
    }

    #[test]
    #[should_panic(expected = "position")]
    fn position_zero_rejected() {
        let _ = survival_probability(0.5, 10, 0);
    }
}
