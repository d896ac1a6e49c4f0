//! Property-based tests: invariants every tracker must uphold under
//! arbitrary access patterns.
//!
//! Cases are generated by the deterministic `mint_exp::prop` driver — case
//! `i` of a suite replays from `derive_seed(suite_seed, i)`.

use mint_rh::core::{Dmq, InDramTracker, Mint, MintConfig, MitigationDecision, RowPressMint};
use mint_rh::dram::RowId;
use mint_rh::exp::prop::{forall, u64_in, usize_in, vec_u32};
use mint_rh::rng::{Rng64, Xoshiro256StarStar};
use mint_rh::trackers::{
    Graphene, GrapheneConfig, InDramPara, InDramParaNoOverwrite, Mithril, MithrilConfig, Parfm,
    Prct, Pride, ProTrr, ProTrrConfig, SimpleTrr,
};
use std::collections::HashSet;

/// Builds every tracker in the repository (seeded where stochastic).
fn all_trackers(rng: &mut dyn Rng64) -> Vec<Box<dyn InDramTracker>> {
    vec![
        Box::new(Mint::new(MintConfig::ddr5_default(), rng)),
        Box::new(Mint::new(
            MintConfig::ddr5_default().without_transitive(),
            rng,
        )),
        Box::new(Dmq::new(Mint::new(MintConfig::ddr5_default(), rng), 73)),
        Box::new(Mint::new(MintConfig::rfm(32), rng)),
        Box::new(RowPressMint::new(
            MintConfig::ddr5_default(),
            48.0,
            16.0,
            rng,
        )),
        Box::new(InDramPara::new(1.0 / 73.0)),
        Box::new(InDramParaNoOverwrite::new(1.0 / 73.0)),
        Box::new(Parfm::new(73)),
        Box::new(Prct::new(65_536)),
        Box::new(Mithril::new(MithrilConfig { entries: 64 })),
        Box::new(ProTrr::new(ProTrrConfig {
            entries: 64,
            blast_radius: 1,
        })),
        Box::new(SimpleTrr::new(16)),
        Box::new(Pride::new(1.0 / 73.0, 4)),
        Box::new(Graphene::new(GrapheneConfig {
            entries: 64,
            mitigation_threshold: 16,
        })),
    ]
}

/// Decisions must reference rows related to what was actually activated:
/// an `Aggressor`/`Transitive` decision names an activated row (or, for
/// trackers that observe mitigative refreshes, a refreshed row);
/// a `VictimRefresh` names a neighbour of an activated row.
fn check_decision(
    decision: &MitigationDecision,
    activated: &HashSet<u32>,
    refreshed: &HashSet<u32>,
) {
    match decision {
        MitigationDecision::None => {}
        MitigationDecision::Aggressor(r) | MitigationDecision::Transitive { around: r, .. } => {
            assert!(
                activated.contains(&r.0) || refreshed.contains(&r.0),
                "decision names {r}, never observed"
            );
        }
        MitigationDecision::VictimRefresh(v) => {
            let near = (v.0.saturating_sub(1)..=v.0 + 1)
                .any(|x| activated.contains(&x) || refreshed.contains(&x));
            assert!(near, "victim {v} is not near any observed row");
        }
    }
}

/// Drive random activation streams with interleaved refreshes through
/// every tracker; no panics, and decisions only name observed rows.
#[test]
fn decisions_reference_observed_rows() {
    forall(24, 0x7AC1, |_case, case_rng| {
        let seed = u64_in(case_rng, 0, 1_000);
        let rows = vec_u32(case_rng, 1, 400, 2, 50_000);
        let refresh_every = usize_in(case_rng, 1, 100);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for tracker in all_trackers(&mut rng).iter_mut() {
            let mut activated = HashSet::new();
            let mut refreshed = HashSet::new();
            for (i, &row) in rows.iter().enumerate() {
                activated.insert(row);
                if let Some(d) = tracker.on_activation(RowId(row), &mut rng) {
                    check_decision(&d, &activated, &refreshed);
                    apply_refreshes(&d, &mut refreshed, tracker.as_mut());
                }
                if i % refresh_every == refresh_every - 1 {
                    let d = tracker.on_refresh(&mut rng);
                    check_decision(&d, &activated, &refreshed);
                    apply_refreshes(&d, &mut refreshed, tracker.as_mut());
                }
            }
        }
    });
}

/// Same seed, same stream → identical decisions (full determinism).
#[test]
fn trackers_are_deterministic() {
    forall(24, 0x7AC2, |case, case_rng| {
        let seed = u64_in(case_rng, 0, 1_000);
        let rows = vec_u32(case_rng, 1, 200, 2, 10_000);
        let run = |seed: u64, rows: &[u32]| -> Vec<String> {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut out = Vec::new();
            for tracker in all_trackers(&mut rng).iter_mut() {
                for &row in rows {
                    let _ = tracker.on_activation(RowId(row), &mut rng);
                }
                out.push(format!("{:?}", tracker.on_refresh(&mut rng)));
            }
            out
        };
        assert_eq!(run(seed, &rows), run(seed, &rows), "case {case}");
    });
}

/// `reset` restores a pristine tracker: after reset, an empty window
/// yields no decision for every REF-synchronised design.
#[test]
fn reset_clears_pending_state() {
    forall(24, 0x7AC3, |case, case_rng| {
        let seed = u64_in(case_rng, 0, 1_000);
        let rows = vec_u32(case_rng, 1, 100, 2, 10_000);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for tracker in all_trackers(&mut rng).iter_mut() {
            for &row in &rows {
                let _ = tracker.on_activation(RowId(row), &mut rng);
            }
            tracker.reset(&mut rng);
            let d = tracker.on_refresh(&mut rng);
            assert!(
                d.is_none(),
                "case {case}: {} returned {:?} after reset + empty window",
                tracker.name(),
                d
            );
        }
    });
}

/// Storage accounting is stable and positive.
#[test]
fn storage_metadata_is_stable() {
    forall(24, 0x7AC4, |case, case_rng| {
        let seed = u64_in(case_rng, 0, 100);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for tracker in all_trackers(&mut rng).iter_mut() {
            let bits0 = tracker.storage_bits();
            let entries0 = tracker.entries();
            assert!(bits0 > 0, "case {case}");
            assert!(entries0 > 0, "case {case}");
            for i in 0..100u32 {
                let _ = tracker.on_activation(RowId(10 + i), &mut rng);
            }
            assert_eq!(
                bits0,
                tracker.storage_bits(),
                "case {case}: {}",
                tracker.name()
            );
            assert_eq!(
                entries0,
                tracker.entries(),
                "case {case}: {}",
                tracker.name()
            );
        }
    });
}

/// Feeds the mitigative refreshes implied by `decision` back to the tracker
/// (as the simulation engine would) and records them.
fn apply_refreshes(
    decision: &MitigationDecision,
    refreshed: &mut HashSet<u32>,
    tracker: &mut dyn InDramTracker,
) {
    let mut refresh = |row: u32| {
        refreshed.insert(row);
        tracker.on_mitigative_refresh(RowId(row));
    };
    match decision {
        MitigationDecision::None => {}
        MitigationDecision::Aggressor(r) => {
            refresh(r.0 - 1);
            refresh(r.0 + 1);
        }
        MitigationDecision::Transitive { around, distance } => {
            let reach = 1 + distance;
            if around.0 > reach {
                refresh(around.0 - reach);
            }
            refresh(around.0 + reach);
        }
        MitigationDecision::VictimRefresh(v) => refresh(v.0),
    }
}
