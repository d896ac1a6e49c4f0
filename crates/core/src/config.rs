//! MINT configuration.

use mint_dram::DdrTimings;

/// Configuration of a [`Mint`](crate::Mint) tracker.
///
/// The only hardware parameters MINT has are the number of activation slots
/// in its mitigation window (`MaxACT` = 73 for the DDR5 default, or the RFM
/// threshold for MINT+RFM) and whether slot 0 performs transitive mitigation
/// (§V-E; on by default, as the paper's final design requires it for
/// Half-Double protection).
///
/// # Examples
///
/// ```
/// use mint_core::MintConfig;
/// let c = MintConfig::ddr5_default();
/// assert_eq!(c.window_slots, 73);
/// assert!(c.transitive);
/// assert_eq!(c.selection_span(), 74); // URAND over 0..=73
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MintConfig {
    /// Activation slots per mitigation window (`M` in the paper).
    pub window_slots: u32,
    /// Whether slot 0 triggers transitive mitigation of the last SAR row.
    pub transitive: bool,
}

impl MintConfig {
    /// The paper's default: MaxACT = 73 slots of DDR5-5200B
    /// ([`DdrTimings::max_act`]) + the transitive slot (§V-E).
    #[must_use]
    pub fn ddr5_default() -> Self {
        Self {
            window_slots: DdrTimings::ddr5_5200b().max_act(),
            transitive: true,
        }
    }

    /// MINT as first introduced in §V-A/B, without the transitive slot
    /// (URAND over `1..=M`). Used to reproduce the 2763 → 2800 MinTRH step.
    #[must_use]
    pub fn without_transitive(mut self) -> Self {
        self.transitive = false;
        self
    }

    /// MINT co-designed with RFM (§VII): the window is the RFM threshold
    /// (32 → ≈2× rate, 16 → ≈4×).
    ///
    /// # Panics
    ///
    /// Panics if `rfm_th == 0`.
    #[must_use]
    pub fn rfm(rfm_th: u32) -> Self {
        assert!(rfm_th > 0, "RFM threshold must be non-zero");
        Self {
            window_slots: rfm_th,
            transitive: true,
        }
    }

    /// Number of distinct SAN values: `window_slots + 1` with the transitive
    /// slot, else `window_slots`. The per-activation selection probability is
    /// `1 / selection_span()` (1/74 for the default — this is the `p` used
    /// throughout the security analysis).
    #[must_use]
    pub fn selection_span(&self) -> u32 {
        self.window_slots + u32::from(self.transitive)
    }
}

impl Default for MintConfig {
    fn default() -> Self {
        Self::ddr5_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = MintConfig::default();
        assert_eq!(c.window_slots, 73);
        assert_eq!(c.selection_span(), 74);
    }

    #[test]
    fn without_transitive_spans_m() {
        let c = MintConfig::ddr5_default().without_transitive();
        assert_eq!(c.selection_span(), 73);
    }

    #[test]
    fn rfm_configs() {
        assert_eq!(MintConfig::rfm(32).selection_span(), 33);
        assert_eq!(MintConfig::rfm(16).selection_span(), 17);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rfm_zero_rejected() {
        let _ = MintConfig::rfm(0);
    }
}
