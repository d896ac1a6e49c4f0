//! Cross-validation: the slot-indexed `mint-sim` engine against the
//! command-level DDR5 channel, on identical pattern streams.
//!
//! Both pipelines drive one disturbance model, `mint_dram::Bank`, at
//! different granularities: the sim engine feeds it from abstract
//! `(tREFI, slot)` space, and the ground-truth oracle feeds it the
//! commands the channel executed under real timings. So this suite checks
//! the slot engine against the channel's timing over one model. For
//! deterministic trackers the attained hammer counts must agree: exactly
//! when no tracker is in the loop, and within a REF opportunity of slack
//! for PRCT (the channel processes REF boundaries lazily, so the final
//! window's mitigation may not fire).

use mint_rh::attacks::{AccessPattern, Pattern1, Pattern2, PatternSpec};
use mint_rh::core::{InDramTracker, MitigationDecision};
use mint_rh::dram::RowId;
use mint_rh::memsys::{AddressMapping, MitigationScheme, SchedulePolicy, SystemConfig};
use mint_rh::redteam::{run_attack, RedteamConfig};
use mint_rh::rng::{Rng64, Xoshiro256StarStar};
use mint_rh::sim::{Engine, SimConfig};
use mint_rh::trackers::Prct;

/// tREFI windows per cell: an eighth of a tREFW keeps the debug-mode
/// channel replay in seconds while still crossing the first auto-refresh
/// sweep of the attacked rows.
const REFIS: u64 = 1024;

/// A tracker that never mitigates — the sim-engine twin of
/// `MitigationScheme::Baseline`.
struct NoMitigation;

impl InDramTracker for NoMitigation {
    fn on_activation(&mut self, _row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        None
    }
    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        MitigationDecision::None
    }
    fn name(&self) -> &'static str {
        "none"
    }
    fn entries(&self) -> usize {
        0
    }
    fn storage_bits(&self) -> u64 {
        0
    }
    fn reset(&mut self, _rng: &mut dyn Rng64) {}
}

/// Feeds an inner pattern's slots only for the first `refis` tREFI (the
/// sim engine always runs whole tREFW windows; the channel run is
/// shorter).
struct Truncated {
    inner: Box<dyn AccessPattern>,
    refis: u64,
}

impl AccessPattern for Truncated {
    fn next_act(&mut self, refi: u64, slot: u32) -> Option<RowId> {
        if refi >= self.refis {
            return None;
        }
        self.inner.next_act(refi, slot)
    }
    fn name(&self) -> &'static str {
        "truncated"
    }
    fn target_victims(&self) -> Vec<RowId> {
        self.inner.target_victims()
    }
}

fn redteam_config() -> RedteamConfig {
    RedteamConfig {
        cfg: SystemConfig::table6(),
        mapping: AddressMapping::default(),
        policy: SchedulePolicy::default(),
        target_bank: 5,
        base_row: RowId(4000),
        attack_refis: REFIS,
        corun_refis: 64,
        trh_grid: vec![1400],
        benign_workload: "mcf",
        benign_requests_per_core: 1_000,
        seed: 9,
    }
}

fn cross_validation_patterns() -> Vec<PatternSpec> {
    vec![
        PatternSpec::new("pattern-1", || Box::new(Pattern1::new(RowId(4000)))),
        PatternSpec::new("pattern-2", || Box::new(Pattern2::new(RowId(4000), 16, 73))),
    ]
}

/// Runs `spec`'s pattern through the slot-indexed sim engine for
/// [`REFIS`] tREFI at the device-true auto-refresh pacing (full-size
/// bank, canonical 8192-tREFI retention window) and reports the attained
/// maximum.
fn engine_max_hammers(tracker: &mut dyn InDramTracker, spec: &PatternSpec) -> u32 {
    let mut pattern = Truncated {
        inner: spec.build(),
        refis: REFIS,
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(17);
    Engine::new(SimConfig::ddr5_default())
        .run(tracker, &mut pattern, &mut rng)
        .max_hammers
}

#[test]
fn oracle_matches_engine_exactly_without_mitigation() {
    // No tracker in the loop: the attained count is pure arithmetic
    // (ACTs per tREFI minus the rolling sweep reset), so the channel
    // oracle and the slot engine must agree *exactly*.
    let rc = redteam_config();
    for spec in cross_validation_patterns() {
        let (summary, _) = run_attack(&rc, MitigationScheme::Baseline, &spec, 3);
        let engine = engine_max_hammers(&mut NoMitigation, &spec);
        assert_eq!(
            summary.max_hammers,
            engine,
            "{}: oracle {} vs engine {engine}",
            spec.name(),
            summary.max_hammers
        );
        assert!(summary.max_hammers > 0);
        // The hottest row must be one of the pattern's declared targets.
        assert!(
            spec.build()
                .target_victims()
                .contains(&RowId(summary.hottest_row)),
            "{}: hottest row {} is not a pattern victim",
            spec.name(),
            summary.hottest_row
        );
    }
}

#[test]
fn oracle_matches_engine_for_prct_within_one_ref_opportunity() {
    // PRCT is deterministic (no RNG), so both pipelines drive identical
    // tracker state from identical ACT streams; the only slack is the
    // lazily-processed final REF boundary (one mitigation of two victim
    // refreshes at blast radius 1).
    let rc = redteam_config();
    for spec in cross_validation_patterns() {
        let (summary, _) = run_attack(&rc, MitigationScheme::Prct, &spec, 3);
        let mut prct = Prct::new(SimConfig::ddr5_default().bank_rows);
        let engine = engine_max_hammers(&mut prct, &spec);
        let diff = summary.max_hammers.abs_diff(engine);
        assert!(
            diff <= 2,
            "{}: oracle {} vs engine {engine} diverge by {diff}",
            spec.name(),
            summary.max_hammers
        );
    }
}
