//! InDRAM-PARA: the paper's present-centric strawman (§III).

use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;

/// InDRAM-PARA with overwrite (paper §III-A, Fig 2).
///
/// Each activation is sampled with probability `p` (1/73 by default); a
/// sampled row is stored in the single Sampled Address Register and
/// mitigated at the next REF — *if it survives*: any later sample overwrites
/// it. Survival probability therefore decays with how early in the tREFI the
/// row was sampled (`(1−p)^(M−K)`, Fig 3), giving the first position a 2.7×
/// lower mitigation probability than the last. Attackers synchronise to that
/// position (SMASH/Blacksmith-style), which is why the design tolerates a
/// 2.7× higher threshold than MINT.
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::InDramPara;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let mut para = InDramPara::new(1.0 / 73.0);
/// for _ in 0..73 {
///     para.on_activation(RowId(4), &mut rng);
/// }
/// // Even a full window misses selection 37% of the time (§III-D).
/// let _maybe = para.on_refresh(&mut rng);
/// ```
#[derive(Debug, Clone)]
pub struct InDramPara {
    p: f64,
    sar: Option<RowId>,
}

impl InDramPara {
    /// Creates the tracker with sampling probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0, 1]"
        );
        Self { p, sar: None }
    }

    /// The sampling probability.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// The currently sampled row, if any.
    #[must_use]
    pub fn sar(&self) -> Option<RowId> {
        self.sar
    }
}

impl InDramTracker for InDramPara {
    fn on_activation(&mut self, row: RowId, rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        if rng.gen_bool(self.p) {
            self.sar = Some(row); // overwrite: earlier samples are lost
        }
        None
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        match self.sar.take() {
            Some(row) => MitigationDecision::Aggressor(row),
            None => MitigationDecision::None,
        }
    }

    fn name(&self) -> &'static str {
        "InDRAM-PARA"
    }

    fn live_entries(&self) -> usize {
        usize::from(self.sar().is_some())
    }

    fn entries(&self) -> usize {
        1
    }

    /// SAR (18 bits) + valid bit.
    fn storage_bits(&self) -> u64 {
        19
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.sar = None;
    }

    /// `[sar_valid, sar_row]`.
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        walk_sar(c, &mut self.sar)
    }
}

/// InDRAM-PARA without overwrite (paper §III-B, Fig 4).
///
/// Once a row is sampled the register locks for the rest of the window, so
/// survival is guaranteed — but the *sampling* probability of later
/// positions collapses (`p(1−p)^K`, Fig 5), leaving exactly the same 2.7×
/// worst-position penalty as the overwriting variant (Fig 6).
#[derive(Debug, Clone)]
pub struct InDramParaNoOverwrite {
    p: f64,
    sar: Option<RowId>,
}

impl InDramParaNoOverwrite {
    /// Creates the tracker with sampling probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0, 1]"
        );
        Self { p, sar: None }
    }

    /// The currently sampled row, if any.
    #[must_use]
    pub fn sar(&self) -> Option<RowId> {
        self.sar
    }
}

impl InDramTracker for InDramParaNoOverwrite {
    fn on_activation(&mut self, row: RowId, rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        if self.sar.is_none() && rng.gen_bool(self.p) {
            self.sar = Some(row);
        }
        None
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        match self.sar.take() {
            Some(row) => MitigationDecision::Aggressor(row),
            None => MitigationDecision::None,
        }
    }

    fn name(&self) -> &'static str {
        "InDRAM-PARA (No-Overwrite)"
    }

    fn live_entries(&self) -> usize {
        usize::from(self.sar().is_some())
    }

    fn entries(&self) -> usize {
        1
    }

    fn storage_bits(&self) -> u64 {
        19
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.sar = None;
    }

    /// `[sar_valid, sar_row]`.
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        walk_sar(c, &mut self.sar)
    }
}

/// The shared `[valid, row]` walk of both variants' single register (the
/// row word is zero while the register is empty).
fn walk_sar(c: &mut StateCursor, sar: &mut Option<RowId>) -> Result<(), String> {
    let mut row = sar.unwrap_or_default();
    let valid = c.padded(sar.is_some(), |c| c.u32(&mut row.0))?;
    *sar = valid.then_some(row);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_rng::Xoshiro256StarStar;

    const P: f64 = 1.0 / 73.0;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    /// Drives one full window with the attack row at `position` (1-based)
    /// and decoys elsewhere; returns whether the attack row was mitigated.
    fn window_hit<T: InDramTracker>(
        t: &mut T,
        r: &mut Xoshiro256StarStar,
        position: u32,
        attack: RowId,
    ) -> bool {
        for k in 1..=73 {
            let row = if k == position {
                attack
            } else {
                RowId(50_000 + k)
            };
            t.on_activation(row, r);
        }
        t.on_refresh(r).mitigates(attack)
    }

    #[test]
    fn overwrite_survival_decays_for_early_positions() {
        // Fig 3: position 1 mitigation prob ≈ p·(1−p)^72 ≈ p·0.372;
        // position 73 ≈ p.
        let mut r = rng(1);
        let trials = 200_000;
        let mut first = 0u32;
        let mut last = 0u32;
        let mut para = InDramPara::new(P);
        for _ in 0..trials {
            if window_hit(&mut para, &mut r, 1, RowId(7)) {
                first += 1;
            }
        }
        for _ in 0..trials {
            if window_hit(&mut para, &mut r, 73, RowId(7)) {
                last += 1;
            }
        }
        let p_first = f64::from(first) / f64::from(trials);
        let p_last = f64::from(last) / f64::from(trials);
        let expect_first = P * (1.0 - P).powi(72);
        assert!(
            (p_first - expect_first).abs() < 1.5e-3,
            "{p_first} vs {expect_first}"
        );
        assert!((p_last - P).abs() < 1.5e-3, "{p_last} vs {P}");
        let ratio = p_last / p_first;
        assert!(
            (2.2..3.4).contains(&ratio),
            "expected ≈2.7x penalty, got {ratio}"
        );
    }

    #[test]
    fn no_overwrite_sampling_decays_for_late_positions() {
        // Fig 5: position 73 sampling prob ≈ p·(1−p)^72.
        let mut r = rng(2);
        let trials = 200_000;
        let mut first = 0u32;
        let mut last = 0u32;
        let mut para = InDramParaNoOverwrite::new(P);
        for _ in 0..trials {
            if window_hit(&mut para, &mut r, 1, RowId(7)) {
                first += 1;
            }
        }
        for _ in 0..trials {
            if window_hit(&mut para, &mut r, 73, RowId(7)) {
                last += 1;
            }
        }
        let p_first = f64::from(first) / f64::from(trials);
        let p_last = f64::from(last) / f64::from(trials);
        assert!((p_first - P).abs() < 1.5e-3);
        let ratio = p_first / p_last;
        assert!(
            (2.2..3.4).contains(&ratio),
            "expected ≈2.7x penalty, got {ratio}"
        );
    }

    #[test]
    fn non_selection_rate_is_37_percent() {
        // §III-D Eq 4: a fully used window selects nothing w.p. (1−p)^73.
        let mut r = rng(3);
        let mut para = InDramPara::new(P);
        let trials = 100_000;
        let mut nones = 0;
        for _ in 0..trials {
            for k in 0..73 {
                para.on_activation(RowId(k), &mut r);
            }
            if para.on_refresh(&mut r).is_none() {
                nones += 1;
            }
        }
        let rate = f64::from(nones) / f64::from(trials);
        let expect = (1.0 - P).powi(73);
        assert!((rate - expect).abs() < 5e-3, "{rate} vs {expect}");
    }

    #[test]
    fn refresh_clears_register() {
        let mut r = rng(4);
        let mut para = InDramPara::new(1.0); // always sample
        para.on_activation(RowId(3), &mut r);
        assert!(para.on_refresh(&mut r).mitigates(RowId(3)));
        assert!(para.on_refresh(&mut r).is_none());
    }

    #[test]
    fn no_overwrite_locks_first_sample() {
        let mut r = rng(5);
        let mut para = InDramParaNoOverwrite::new(1.0);
        para.on_activation(RowId(1), &mut r);
        para.on_activation(RowId(2), &mut r);
        assert_eq!(para.sar(), Some(RowId(1)));
    }

    #[test]
    fn overwrite_replaces_sample() {
        let mut r = rng(6);
        let mut para = InDramPara::new(1.0);
        para.on_activation(RowId(1), &mut r);
        para.on_activation(RowId(2), &mut r);
        assert_eq!(para.sar(), Some(RowId(2)));
    }

    #[test]
    #[should_panic(expected = "sampling probability")]
    fn invalid_probability_rejected() {
        let _ = InDramPara::new(0.0);
    }

    #[test]
    fn metadata() {
        let para = InDramPara::new(P);
        assert_eq!(para.entries(), 1);
        assert_eq!(para.storage_bits(), 19);
        assert_eq!(para.name(), "InDRAM-PARA");
        let now = InDramParaNoOverwrite::new(P);
        assert!(now.name().contains("No-Overwrite"));
    }

    #[test]
    fn reset_clears_state() {
        let mut r = rng(7);
        let mut para = InDramPara::new(1.0);
        para.on_activation(RowId(9), &mut r);
        para.reset(&mut r);
        assert_eq!(para.sar(), None);
    }
}
