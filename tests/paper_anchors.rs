//! End-to-end integration test: every headline number of the paper,
//! computed through the public API of the facade crate, must land in its
//! documented band (`repro_all` prints the exact measured values; see the
//! README's "Reproducing the paper").

use mint_rh::analysis::ada::AdaConfig;
use mint_rh::analysis::{comparison, feint, mithril_bound, patterns, postponement, rfm, ttf};
use mint_rh::analysis::{MinTrhSolver, TargetMttf};

fn solver() -> MinTrhSolver {
    MinTrhSolver::new(TargetMttf::paper_default(), 0.032)
}

#[test]
fn headline_mint_min_trh_2800() {
    // §V-E: MINT tolerates MinTRH 2800 (MinTRH-D 1400).
    let t = patterns::pattern2_min_trh(&solver(), 73, 73, 74);
    assert!((2740..2870).contains(&t), "{t}");
}

#[test]
fn headline_pattern1_2461() {
    let t = patterns::pattern2_min_trh(&solver(), 1, 73, 73);
    assert!((2400..2530).contains(&t), "{t}");
}

#[test]
fn headline_prct_623() {
    let d = feint::prct_min_trh_d();
    assert!((600..650).contains(&d), "{d}");
}

#[test]
fn headline_mithril_677_entries_for_1400() {
    let d = mithril_bound::min_trh_d(677);
    assert!((1350..1450).contains(&d), "{d}");
}

#[test]
fn headline_dmq_1482() {
    let d = AdaConfig::mint_default().ada_min_trh_d(&solver());
    assert!((1420..1540).contains(&d), "{d}");
}

#[test]
fn headline_rfm_scaling_689_and_356() {
    let rows = rfm::table5(&solver());
    assert!(
        (620..740).contains(&rows[2].min_trh_d),
        "{}",
        rows[2].min_trh_d
    );
    assert!(
        (310..390).contains(&rows[3].min_trh_d),
        "{}",
        rows[3].min_trh_d
    );
}

#[test]
fn headline_deterministic_478k() {
    assert_eq!(
        postponement::deterministic_attack_acts(73, 8192, 5),
        478_296
    );
}

#[test]
fn headline_mint_within_2x_of_prct_with_postponement() {
    // Abstract + §VI-D: "within 2x of an idealized tracker".
    let rows = postponement::table4(&solver());
    let mint = rows.iter().find(|r| r.design == "MINT").unwrap();
    let prct = rows.iter().find(|r| r.design == "PRCT").unwrap();
    let ratio = f64::from(mint.with_dmq_adaptive) / f64::from(prct.with_dmq);
    assert!(ratio < 2.05, "ratio {ratio} (paper: 1.9x)");
}

#[test]
fn headline_table3_consistency() {
    // Table III: MINT (1 entry) matches a 677-entry Mithril and beats both
    // probabilistic baselines.
    let rows = comparison::table3(&solver());
    let get = |n: &str| rows.iter().find(|r| r.design == n).unwrap().min_trh_d;
    assert!(get("MINT") <= get("Mithril") + 80);
    assert!(get("MINT") < get("InDRAM-PARA"));
    assert!(get("MINT") < get("PARFM"));
}

#[test]
fn headline_table7_scaling() {
    let rows = ttf::table7(0.032);
    // 10K-year row within bands of (1.48K, 689, 356).
    let r = &rows[1];
    assert!((1420..1540).contains(&r.mint));
    assert!((620..740).contains(&r.rfm32));
    assert!((310..390).contains(&r.rfm16));
}
