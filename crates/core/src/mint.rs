//! The Minimalist In-DRAM Tracker (paper §V).

use crate::{InDramTracker, MintConfig, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// MINT: a future-centric, single-entry Rowhammer tracker.
///
/// State is exactly the three registers of paper Fig 9:
///
/// * **SAN** (Selected Activation Number, 7 bits) — drawn uniformly at each
///   REF over the slots of the *upcoming* window (`0..=M` with the
///   transitive slot, `1..=M` without). Decided *before* the addresses of
///   the upcoming interval are known — this is what makes MINT
///   "future-centric" and gives every activation position an identical
///   mitigation probability.
/// * **CAN** (Current Activation Number, 7 bits) — sequence number of each
///   activation within the window.
/// * **SAR** (Selected Address Register, 18 bits + valid) — latched with the
///   activated row when `CAN == SAN`; mitigated at the next REF.
///
/// When the transitive slot is enabled and SAN = 0 is drawn, SAR is
/// *preserved* across the REF and the next refresh performs a transitive
/// mitigation around it (victims-of-victims); consecutive zero draws recurse
/// to larger distances (§V-E).
///
/// # Examples
///
/// Uniform selection: the probability that any given slot is chosen is
/// exactly `1/selection_span` regardless of position — unlike InDRAM-PARA
/// (paper §III).
///
/// ```
/// use mint_core::{InDramTracker, Mint, MintConfig};
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// let mut mint = Mint::new(MintConfig::ddr5_default(), &mut rng);
/// let mut hits = 0u32;
/// let trials = 50_000;
/// for _ in 0..trials {
///     // Attack row appears only at position 1 of the window.
///     mint.on_activation(RowId(7), &mut rng);
///     for _ in 1..73 {
///         mint.on_activation(RowId(9999), &mut rng);
///     }
///     if mint.on_refresh(&mut rng).mitigates(RowId(7)) {
///         hits += 1;
///     }
/// }
/// let rate = f64::from(hits) / f64::from(trials);
/// assert!((rate - 1.0 / 74.0).abs() < 3e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Mint {
    config: MintConfig,
    san: u32,
    can: u32,
    sar: Option<RowId>,
    /// Non-zero when the *current* window was opened by a SAN = 0 draw:
    /// SAR holds the row around which a transitive mitigation fires at the
    /// next REF, at this distance.
    transitive_distance: u32,
}

impl Mint {
    /// Creates a MINT tracker and draws the SAN for its first window.
    #[must_use]
    pub fn new(config: MintConfig, rng: &mut dyn Rng64) -> Self {
        let mut mint = Self {
            config,
            san: 1,
            can: 0,
            sar: None,
            transitive_distance: 0,
        };
        mint.begin_window(rng);
        mint
    }

    /// The tracker's configuration.
    #[must_use]
    pub fn config(&self) -> &MintConfig {
        &self.config
    }

    /// Current Selected Activation Number (0 means a transitive window).
    #[must_use]
    pub fn san(&self) -> u32 {
        self.san
    }

    /// Current Activation Number (activations observed this window).
    #[must_use]
    pub fn can(&self) -> u32 {
        self.can
    }

    /// The row currently latched for mitigation, if any.
    #[must_use]
    pub fn sar(&self) -> Option<RowId> {
        self.sar
    }

    /// Discards the current window and starts a fresh one: CAN ← 0, a new
    /// SAN is drawn, and — unless the fresh draw is the transitive slot —
    /// SAR is invalidated.
    ///
    /// This is the tail half of [`on_refresh`](InDramTracker::on_refresh),
    /// exposed for tests and for embedding MINT in custom schedulers.
    pub fn begin_window(&mut self, rng: &mut dyn Rng64) {
        let span = self.config.selection_span();
        let new_san = if self.config.transitive {
            rng.gen_range_u32(span) // 0..=M, 0 = transitive
        } else {
            1 + rng.gen_range_u32(span) // 1..=M
        };
        if new_san == 0 {
            // Transitive window: SAR is preserved; recursion deepens if the
            // previous window was already transitive (§V-E).
            self.transitive_distance += 1;
        } else {
            self.transitive_distance = 0;
            self.sar = None;
        }
        self.san = new_san;
        self.can = 0;
    }

    /// Reports the decision owed at a refresh opportunity *without* starting
    /// a new window.
    fn current_decision(&self) -> MitigationDecision {
        match self.sar {
            None => MitigationDecision::None,
            Some(row) => {
                if self.transitive_distance > 0 {
                    MitigationDecision::Transitive {
                        around: row,
                        distance: self.transitive_distance,
                    }
                } else {
                    MitigationDecision::Aggressor(row)
                }
            }
        }
    }
}

impl InDramTracker for Mint {
    fn on_activation(&mut self, row: RowId, _rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        // CAN saturates at the window size; activations beyond MaxACT
        // (possible only under refresh postponement without a DMQ) are
        // invisible to the selection logic — exactly the weakness §VI-B
        // demonstrates and the DMQ wrapper repairs.
        self.can = self.can.saturating_add(1);
        if self.can == self.san {
            self.sar = Some(row);
        }
        None
    }

    fn on_refresh(&mut self, rng: &mut dyn Rng64) -> MitigationDecision {
        let decision = self.current_decision();
        self.begin_window(rng);
        decision
    }

    fn name(&self) -> &'static str {
        "MINT"
    }

    fn live_entries(&self) -> usize {
        usize::from(self.sar.is_some())
    }

    fn entries(&self) -> usize {
        1
    }

    /// CAN (7) + SAN (7) + SAR (18) = 32 bits = 4 bytes (paper §VIII-C).
    fn storage_bits(&self) -> u64 {
        32
    }

    fn reset(&mut self, rng: &mut dyn Rng64) {
        self.sar = None;
        self.transitive_distance = 0;
        self.begin_window(rng);
    }

    /// `[san, can, sar_valid, sar_row, transitive_distance]` (the SAR row
    /// word is zero while the register is invalid).
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.u32(&mut self.san)?;
        c.u32(&mut self.can)?;
        let mut sar = self.sar.unwrap_or_default();
        let valid = c.padded(self.sar.is_some(), |c| c.u32(&mut sar.0))?;
        self.sar = valid.then_some(sar);
        c.u32(&mut self.transitive_distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn single_sided_full_window_guaranteed_selection() {
        // Paper §V-C: a row occupying all 73 slots is guaranteed selection,
        // unless the window is a transitive one (SAN = 0), in which case the
        // transitive mitigation protects the same neighbourhood.
        let mut r = rng(11);
        let mut mint = Mint::new(MintConfig::ddr5_default(), &mut r);
        for trial in 0..1000 {
            let was_transitive_window = mint.san() == 0;
            let prev_sar = mint.sar();
            for _ in 0..73 {
                mint.on_activation(RowId(42), &mut r);
            }
            let d = mint.on_refresh(&mut r);
            if was_transitive_window {
                // SAR was preserved from before; decision is transitive
                // (or None if nothing had ever been selected).
                match d {
                    MitigationDecision::Transitive { .. } | MitigationDecision::None => {}
                    other => panic!("trial {trial}: unexpected decision {other:?}"),
                }
                if prev_sar.is_some() {
                    assert!(d.is_some());
                }
            } else {
                assert!(
                    d.mitigates(RowId(42)),
                    "trial {trial}: full-window aggressor must be selected"
                );
            }
        }
    }

    #[test]
    fn without_transitive_selection_is_always_guaranteed() {
        let mut r = rng(12);
        let cfg = MintConfig::ddr5_default().without_transitive();
        let mut mint = Mint::new(cfg, &mut r);
        for _ in 0..1000 {
            for _ in 0..73 {
                mint.on_activation(RowId(7), &mut r);
            }
            assert!(mint.on_refresh(&mut r).mitigates(RowId(7)));
        }
    }

    #[test]
    fn double_sided_always_hits_one_aggressor() {
        let mut r = rng(13);
        let cfg = MintConfig::ddr5_default().without_transitive();
        let mut mint = Mint::new(cfg, &mut r);
        for _ in 0..1000 {
            for i in 0..73 {
                let row = if i % 2 == 0 { RowId(100) } else { RowId(102) };
                mint.on_activation(row, &mut r);
            }
            let d = mint.on_refresh(&mut r);
            assert!(d.mitigates(RowId(100)) || d.mitigates(RowId(102)));
        }
    }

    #[test]
    fn partial_window_can_select_nothing() {
        let mut r = rng(14);
        let cfg = MintConfig::ddr5_default().without_transitive();
        let mut mint = Mint::new(cfg, &mut r);
        let mut nones = 0;
        let trials = 2000;
        for _ in 0..trials {
            mint.on_activation(RowId(1), &mut r); // only slot 1 used
            if mint.on_refresh(&mut r).is_none() {
                nones += 1;
            }
        }
        // P(None) = 72/73 ≈ 0.986.
        let rate = f64::from(nones) / f64::from(trials);
        assert!((rate - 72.0 / 73.0).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn selection_probability_uniform_over_positions() {
        // Hammer position k only; hit rate must be 1/span for every k: 1/74
        // over the default 73-slot window, 1/33 over MINT+RFM32's 32 slots
        // (the RFM ends the window as a REF does).
        for (cfg, positions, tolerance) in [
            (MintConfig::ddr5_default(), &[1, 20, 37, 73][..], 2.5e-3),
            (MintConfig::rfm(32), &[1, 16, 32][..], 3e-3),
        ] {
            for &k in positions {
                let mut r = rng(1000 + u64::from(k));
                let mut mint = Mint::new(cfg, &mut r);
                let trials = 40_000;
                let mut hits = 0;
                for _ in 0..trials {
                    for slot in 1..=cfg.window_slots {
                        let row = if slot == k { 5 } else { 1_000 + slot };
                        mint.on_activation(RowId(row), &mut r);
                    }
                    if mint.on_refresh(&mut r).mitigates(RowId(5)) {
                        hits += 1;
                    }
                }
                let rate = f64::from(hits) / f64::from(trials);
                let expect = 1.0 / f64::from(cfg.selection_span());
                assert!(
                    (rate - expect).abs() < tolerance,
                    "{} slots, position {k}: rate {rate} vs {expect}",
                    cfg.window_slots
                );
            }
        }
    }

    #[test]
    fn no_overwrite_of_selection() {
        // Force SAN = 1 by construction: scan windows until san() == 1, then
        // check that later activations never replace the latched row.
        let mut r = rng(15);
        let mut mint = Mint::new(MintConfig::ddr5_default(), &mut r);
        let mut checked = 0;
        while checked < 50 {
            if mint.san() == 1 {
                mint.on_activation(RowId(555), &mut r);
                for other in 0..72 {
                    mint.on_activation(RowId(10_000 + other), &mut r);
                }
                assert_eq!(mint.sar(), Some(RowId(555)));
                checked += 1;
            } else {
                for _ in 0..73 {
                    mint.on_activation(RowId(1), &mut r);
                }
            }
            mint.on_refresh(&mut r);
        }
    }

    #[test]
    fn transitive_window_preserves_sar_and_reports_distance() {
        let mut r = rng(16);
        let mut mint = Mint::new(MintConfig::ddr5_default(), &mut r);
        // Run windows until we see: window w selects row X (aggressor
        // decision at REF), and the *next* draw is SAN = 0.
        let mut seen_transitive = false;
        for _ in 0..20_000 {
            for _ in 0..73 {
                mint.on_activation(RowId(77), &mut r);
            }
            let before_san = mint.san();
            let d = mint.on_refresh(&mut r);
            if before_san == 0 {
                if let MitigationDecision::Transitive { around, distance } = d {
                    assert_eq!(around, RowId(77));
                    assert!(distance >= 1);
                    seen_transitive = true;
                    break;
                }
            }
        }
        assert!(
            seen_transitive,
            "never saw a transitive window in 20k tries"
        );
    }

    #[test]
    fn transitive_probability_about_one_in_74() {
        let mut r = rng(17);
        let mut mint = Mint::new(MintConfig::ddr5_default(), &mut r);
        let trials = 100_000;
        let mut transitive_windows = 0;
        for _ in 0..trials {
            for _ in 0..73 {
                mint.on_activation(RowId(3), &mut r);
            }
            if mint.san() == 0 {
                transitive_windows += 1;
            }
            mint.on_refresh(&mut r);
        }
        let rate = f64::from(transitive_windows) / f64::from(trials);
        assert!((rate - 1.0 / 74.0).abs() < 1.5e-3, "rate {rate}");
    }

    #[test]
    fn can_saturates_under_postponement_like_flood() {
        // Without DMQ, activations beyond the window are invisible (§VI-B):
        // selection depends only on the first `window_slots` positions.
        let mut r = rng(18);
        let cfg = MintConfig::ddr5_default().without_transitive();
        let mut mint = Mint::new(cfg, &mut r);
        for _ in 0..365 {
            mint.on_activation(RowId(900), &mut r);
        }
        // SAN is in 1..=73, so the row is selected — but the point is that
        // the 292 extra ACTs could have been a *different* row and would
        // never be seen. Emulate: decoys first, attack row after slot 73.
        mint.on_refresh(&mut r);
        for slot in 0..73 {
            mint.on_activation(RowId(10 + slot), &mut r);
        }
        for _ in 0..292 {
            mint.on_activation(RowId(666), &mut r);
        }
        let d = mint.on_refresh(&mut r);
        assert!(
            !d.mitigates(RowId(666)),
            "row hammered only after MaxACT must be invisible"
        );
    }

    #[test]
    fn reset_clears_sar() {
        let mut r = rng(19);
        let mut mint = Mint::new(MintConfig::ddr5_default(), &mut r);
        for _ in 0..73 {
            mint.on_activation(RowId(8), &mut r);
        }
        mint.reset(&mut r);
        assert_eq!(mint.sar(), None);
        assert_eq!(mint.can(), 0);
    }

    #[test]
    fn storage_is_four_bytes() {
        let mut r = rng(20);
        let mint = Mint::new(MintConfig::ddr5_default(), &mut r);
        assert_eq!(mint.storage_bits(), 32);
        assert_eq!(mint.entries(), 1);
        assert_eq!(mint.name(), "MINT");
    }
}
