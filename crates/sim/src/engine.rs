//! The simulation engine.

use mint_attacks::AccessPattern;
use mint_core::{InDramTracker, MitigationDecision};
use mint_dram::{Bank, BankConfig, DdrTimings, FailureRecord, RefreshPolicy};
use mint_exp::par_map;
use mint_rng::{derive_seed, Rng64, Xoshiro256StarStar};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Demand activation slots per tREFI (MaxACT, 73).
    pub max_act: u32,
    /// tREFI intervals per tREFW (8192).
    pub refi_per_refw: u32,
    /// Rows in the simulated bank (shrink for speed; patterns must fit).
    pub bank_rows: u32,
    /// Blast radius of mitigations.
    pub blast_radius: u32,
    /// Rowhammer threshold for failure detection (`None` = bound run).
    pub trh: Option<u32>,
    /// REF scheduling.
    pub refresh_policy: RefreshPolicy,
    /// Number of tREFW windows to simulate.
    pub refw_windows: u32,
}

impl SimConfig {
    /// The paper's default device (`mint-dram`'s DDR5-5200B: MaxACT 73,
    /// 8192 tREFI per tREFW, 128K rows per bank) with timely refresh.
    #[must_use]
    pub fn ddr5_default() -> Self {
        Self {
            max_act: DdrTimings::ddr5_5200b().max_act(),
            refi_per_refw: mint_dram::DDR5_REFI_PER_REFW,
            bank_rows: mint_dram::DDR5_ROWS_PER_BANK,
            blast_radius: 1,
            trh: None,
            refresh_policy: RefreshPolicy::Timely,
            refw_windows: 1,
        }
    }

    /// A reduced bank (64K rows) — identical dynamics for attacks that touch
    /// a few hundred rows, much cheaper to allocate per Monte-Carlo trial.
    #[must_use]
    pub fn small() -> Self {
        Self {
            bank_rows: 64 * 1024,
            ..Self::ddr5_default()
        }
    }

    /// Sets the failure threshold.
    #[must_use]
    pub fn with_trh(mut self, trh: u32) -> Self {
        self.trh = Some(trh);
        self
    }

    /// Sets the refresh policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RefreshPolicy) -> Self {
        self.refresh_policy = policy;
        self
    }

    /// Sets the number of tREFW windows.
    #[must_use]
    pub fn with_windows(mut self, windows: u32) -> Self {
        self.refw_windows = windows;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::ddr5_default()
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Rowhammer failures (rows that crossed the threshold), if `trh` set.
    pub failures: Vec<FailureRecord>,
    /// Largest unmitigated hammer count any row reached.
    pub max_hammers: u32,
    /// Demand activations issued by the pattern.
    pub demand_acts: u64,
    /// Aggressor/transitive/victim mitigations applied.
    pub mitigations: u64,
    /// Mitigation opportunities that carried no decision.
    pub empty_mitigations: u64,
    /// REF commands executed.
    pub refs: u64,
}

impl SimReport {
    /// Whether any row crossed the threshold.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// Drives one tracker against one pattern on one bank.
#[derive(Debug)]
pub struct Engine {
    config: SimConfig,
    bank: Bank,
}

impl Engine {
    /// Creates an engine on a fresh bank (its rows are allocated in pages
    /// as the run first hammers them).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero rows/slots/windows).
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        assert!(config.max_act > 0, "need at least one slot per tREFI");
        assert!(config.refi_per_refw > 0, "need at least one tREFI");
        assert!(config.refw_windows > 0, "need at least one tREFW");
        let bank = Bank::new(BankConfig {
            rows: config.bank_rows,
            blast_radius: config.blast_radius,
            trh: config.trh,
            refis_per_refw: config.refi_per_refw,
        });
        Self { config, bank }
    }

    /// The bank (for post-run inspection).
    #[must_use]
    pub fn bank(&self) -> &Bank {
        &self.bank
    }

    /// Applies a mitigation decision to the bank and notifies the tracker
    /// of every silent victim refresh it causes.
    ///
    /// The victim set (and hence the mitigation cost) comes from
    /// [`MitigationDecision::victim_rows`] — the same helper the memory
    /// system charges mitigative ACTs with, so the security and performance
    /// layers can never disagree on what a decision does.
    fn apply(
        &mut self,
        decision: MitigationDecision,
        tracker: &mut dyn InDramTracker,
        report: &mut SimReport,
    ) {
        if decision.is_none() {
            report.empty_mitigations += 1;
            return;
        }
        report.mitigations += 1;
        for v in decision.victim_rows(self.config.blast_radius) {
            if self.bank.contains(v) {
                self.bank.victim_refresh(v);
                tracker.on_mitigative_refresh(v);
            }
        }
    }

    /// Runs the configured number of tREFW windows.
    ///
    /// The bank state persists across windows (hammer counts are cleared
    /// row-by-row by the auto-refresh sweep, exactly as in hardware; each
    /// REF sweeps one share through [`Bank::auto_refresh`]).
    ///
    /// A second `run` on the same engine continues the same bank, as if
    /// its windows followed the first run's: counts, maxima, the sweep's
    /// position and its credit carry over. Its report counts only its own
    /// ACTs, mitigations and REFs, but its `max_hammers` and `failures`
    /// cover both runs (failure timestamps restart at 0 in each run).
    pub fn run(
        &mut self,
        tracker: &mut dyn InDramTracker,
        pattern: &mut dyn AccessPattern,
        rng: &mut dyn Rng64,
    ) -> SimReport {
        let mut report = SimReport {
            failures: Vec::new(),
            max_hammers: 0,
            demand_acts: 0,
            mitigations: 0,
            empty_mitigations: 0,
            refs: 0,
        };
        let total_refis =
            u64::from(self.config.refi_per_refw) * u64::from(self.config.refw_windows);
        let mut acts: u64 = 0;
        for refi in 0..total_refis {
            for slot in 0..self.config.max_act {
                if let Some(row) = pattern.next_act(refi, slot) {
                    self.bank.set_time(acts);
                    self.bank.demand_activate(row);
                    report.demand_acts += 1;
                    acts += 1;
                    if let Some(d) = tracker.on_activation(row, rng) {
                        self.apply(d, tracker, &mut report);
                    }
                } else {
                    // Idle slot: invisible to the tracker, but time passes.
                    acts += 1;
                }
            }
            for _ in 0..self.config.refresh_policy.refs_due(refi) {
                report.refs += 1;
                let d = tracker.on_refresh(rng);
                self.apply(d, tracker, &mut report);
                self.bank.auto_refresh();
            }
        }
        report.failures = self.bank.failures().to_vec();
        report.max_hammers = self.bank.max_hammers_ever();
        report
    }
}

/// Monte-Carlo estimate of the per-tREFW failure probability: runs `trials`
/// independent single-tREFW simulations and returns the number that failed.
///
/// Trial `i` seeds its RNG with `derive_seed(seed, i)`, builds a fresh
/// tracker (from that RNG) and pattern, and runs one [`Engine`]. Trials fan
/// out through [`mint_exp::par_map`]; the seed depends on the index alone,
/// so any worker count counts the same failures.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn estimate_failure_prob(
    config: SimConfig,
    trials: u32,
    seed: u64,
    make_tracker: &(dyn Fn(&mut dyn Rng64) -> Box<dyn InDramTracker> + Sync),
    make_pattern: &(dyn Fn() -> Box<dyn AccessPattern> + Sync),
) -> (u32, u32) {
    assert!(trials > 0, "need at least one trial");
    let indices: Vec<u32> = (0..trials).collect();
    let failures = par_map(&indices, |_, &trial| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(seed, u64::from(trial)));
        let mut tracker = make_tracker(&mut rng);
        let mut pattern = make_pattern();
        Engine::new(config)
            .run(tracker.as_mut(), pattern.as_mut(), &mut rng)
            .failed()
    })
    .into_iter()
    .filter(|&failed| failed)
    .count();
    (u32::try_from(failures).expect("failures <= trials"), trials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_attacks::{
        AdaptiveAttack, DoubleSided, HalfDouble, ManySided, Pattern1, PostponementDecoy,
        SingleSided,
    };
    use mint_core::{Dmq, Mint, MintConfig};
    use mint_dram::RowId;
    use mint_trackers::{Prct, SimpleTrr};

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    fn mint(r: &mut dyn Rng64) -> Mint {
        Mint::new(MintConfig::ddr5_default(), r)
    }

    #[test]
    fn single_sided_attack_is_bounded_by_mint() {
        // §V-C: the classic single-sided attack gets at most ~MaxACT hammers
        // between mitigations; the all-time max stays a small multiple of
        // MaxACT (transitive windows can skip one direct mitigation).
        let mut r = rng(1);
        let mut t = mint(&mut r);
        let mut p = SingleSided::new(RowId(1000));
        let cfg = SimConfig::small();
        let report = Engine::new(cfg).run(&mut t, &mut p, &mut r);
        assert_eq!(report.demand_acts, 73 * 8192);
        // Direct victims are refreshed every tREFI (guaranteed selection);
        // the residual exposure is the distance-2 transitive channel, bounded
        // by the SAN=0 slot's geometric refresh (~74·ln 8192 ≈ 700 typical).
        assert!(
            report.max_hammers < 2500,
            "single-sided must be tightly bounded, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn double_sided_attack_is_bounded_by_mint() {
        let mut r = rng(2);
        let mut t = mint(&mut r);
        let mut p = DoubleSided::new(RowId(1000));
        let report = Engine::new(SimConfig::small()).run(&mut t, &mut p, &mut r);
        assert!(
            report.max_hammers < 2500,
            "double-sided bounded, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn postponement_without_dmq_collapses_mint() {
        // §VI-B: deterministic ≈478K unmitigated activations per tREFW.
        let mut r = rng(3);
        let mut t = mint(&mut r);
        let mut p = PostponementDecoy::new(RowId(1000), RowId(5000), 73, 5);
        let cfg = SimConfig::small().with_policy(RefreshPolicy::ddr5_max_postpone());
        let report = Engine::new(cfg).run(&mut t, &mut p, &mut r);
        assert!(
            report.max_hammers > 300_000,
            "attack should reach hundreds of thousands of hammers, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn dmq_restores_mint_under_postponement() {
        let mut r = rng(4);
        let inner = mint(&mut r);
        let mut t = Dmq::new(inner, 73);
        let mut p = PostponementDecoy::new(RowId(1000), RowId(5000), 73, 5);
        let cfg = SimConfig::small().with_policy(RefreshPolicy::ddr5_max_postpone());
        let report = Engine::new(cfg).run(&mut t, &mut p, &mut r);
        assert!(
            report.max_hammers < 3000,
            "DMQ must bound the postponement attack, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn half_double_defeats_mint_without_transitive_slot() {
        let mut r = rng(5);
        let cfg_t = MintConfig::ddr5_default().without_transitive();
        let mut t = Mint::new(cfg_t, &mut r);
        let mut p = HalfDouble::new(RowId(1000));
        let report = Engine::new(SimConfig::small()).run(&mut t, &mut p, &mut r);
        // Rows 998/1002 take one silent hammer per mitigation: ~8192/tREFW.
        assert!(
            report.max_hammers > 6000,
            "transitive channel should accumulate thousands, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn transitive_slot_bounds_half_double() {
        let mut r = rng(6);
        let mut t = mint(&mut r); // transitive slot enabled
        let mut p = HalfDouble::new(RowId(1000));
        let report = Engine::new(SimConfig::small()).run(&mut t, &mut p, &mut r);
        assert!(
            report.max_hammers < 2500,
            "SAN=0 transitive mitigation must bound Half-Double, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn prct_is_immune_to_half_double() {
        let mut r = rng(7);
        let mut t = Prct::new(64 * 1024);
        let mut p = HalfDouble::new(RowId(1000));
        let report = Engine::new(SimConfig::small()).run(&mut t, &mut p, &mut r);
        assert!(
            report.max_hammers < 2000,
            "PRCT counts silent refreshes, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn trr_is_broken_by_many_sided_attack_but_mint_is_not() {
        let cfg = SimConfig::small();
        // 40 aggressors vs a 16-entry TRR.
        let mut r1 = rng(8);
        let mut trr = SimpleTrr::new(16);
        let mut p1 = ManySided::new(RowId(1000), 40);
        let trr_report = Engine::new(cfg).run(&mut trr, &mut p1, &mut r1);

        let mut r2 = rng(9);
        let mut m = mint(&mut r2);
        let mut p2 = ManySided::new(RowId(1000), 40);
        let mint_report = Engine::new(cfg).run(&mut m, &mut p2, &mut r2);

        assert!(
            trr_report.max_hammers > 3 * mint_report.max_hammers,
            "TRR {} should be far worse than MINT {}",
            trr_report.max_hammers,
            mint_report.max_hammers
        );
    }

    #[test]
    fn ada_attack_runs_against_dmq() {
        let mut r = rng(10);
        let inner = mint(&mut r);
        let mut t = Dmq::new(inner, 73);
        let mut p = AdaptiveAttack::paper_default(RowId(1000), 1400);
        let cfg = SimConfig::small().with_policy(RefreshPolicy::ddr5_max_postpone());
        let report = Engine::new(cfg).run(&mut t, &mut p, &mut r);
        // The morph can add at most flood (365) + pattern-2 accumulation;
        // max hammers stays in the low thousands (vs 478K without DMQ).
        assert!(
            report.max_hammers < 6000,
            "ADA against DMQ bounded, got {}",
            report.max_hammers
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = SimConfig::small().with_trh(800);
        let run = |seed: u64| {
            let mut r = rng(seed);
            let mut t = mint(&mut r);
            let mut p = Pattern1::new(RowId(1000));
            Engine::new(cfg).run(&mut t, &mut p, &mut r)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        assert_eq!(a.demand_acts, 8192);
    }

    #[test]
    fn monte_carlo_matches_sariou_wolman_model() {
        // Pattern-1 with a deliberately low threshold so failures are
        // frequent enough to measure: T = 600, p = 1/74.
        // Analytic: P ≈ 2.6e-2 per tREFW (computed via mint-analysis in the
        // integration tests; here we just check the band).
        let trh = 600;
        let cfg = SimConfig {
            bank_rows: 4096,
            ..SimConfig::small()
        }
        .with_trh(trh);
        let (fails, trials) = estimate_failure_prob(
            cfg,
            600,
            777,
            &|r| Box::new(Mint::new(MintConfig::ddr5_default(), r)),
            &|| Box::new(Pattern1::new(RowId(2000))),
        );
        let rate = f64::from(fails) / f64::from(trials);
        assert!(
            (0.005..0.08).contains(&rate),
            "empirical rate {rate} should be a few percent ({fails}/{trials})"
        );
    }

    #[test]
    fn failure_records_point_at_pattern_victims() {
        let mut r = rng(11);
        let cfg_t = MintConfig::ddr5_default().without_transitive();
        let mut t = Mint::new(cfg_t, &mut r);
        let mut p = HalfDouble::new(RowId(1000));
        let cfg = SimConfig::small().with_trh(4000);
        let mut engine = Engine::new(cfg);
        let report = engine.run(&mut t, &mut p, &mut r);
        assert!(report.failed());
        let targets = p.target_victims();
        for f in &report.failures {
            assert!(
                targets.contains(&f.row),
                "failure at {:?} not among targets {targets:?}",
                f.row
            );
        }
    }

    #[test]
    fn refs_counted_per_policy() {
        let mut r = rng(12);
        let mut t = mint(&mut r);
        let mut p = SingleSided::new(RowId(100));
        let cfg = SimConfig {
            refi_per_refw: 100,
            refw_windows: 1,
            bank_rows: 4096,
            ..SimConfig::small()
        };
        let report = Engine::new(cfg).run(&mut t, &mut p, &mut r);
        assert_eq!(report.refs, 100);

        let mut r = rng(13);
        let mut t = mint(&mut r);
        let mut p = SingleSided::new(RowId(100));
        let cfg = cfg.with_policy(RefreshPolicy::ddr5_max_postpone());
        let report = Engine::new(cfg).run(&mut t, &mut p, &mut r);
        assert_eq!(report.refs, 100); // batches of 5, same total
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = estimate_failure_prob(
            SimConfig::small(),
            0,
            1,
            &|r| Box::new(Mint::new(MintConfig::ddr5_default(), r)),
            &|| Box::new(Pattern1::new(RowId(1))),
        );
    }
}
