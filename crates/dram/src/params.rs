//! DDR5 timing parameters (paper Table I).

/// Number of tREFI intervals per tREFW refresh window.
///
/// The paper (and the DDR5 standard's 8192-cycle refresh) uses 8192
/// throughout: all rows are refreshed once per tREFW, spread over 8192 REF
/// commands.
pub const DDR5_REFI_PER_REFW: u32 = 8192;

/// Rows per bank in the evaluated 32 Gb configuration (paper Table VI).
pub const DDR5_ROWS_PER_BANK: u32 = 128 * 1024;

/// Raw DDR5 timing parameters, as in paper Table I (DDR5-5200B, 32 Gb).
///
/// # Examples
///
/// ```
/// use mint_dram::DdrTimings;
/// let t = DdrTimings::ddr5_5200b();
/// assert_eq!(t.max_act(), 73);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrTimings {
    /// Refresh window: every row refreshed once per this period (ns).
    pub t_refw_ns: f64,
    /// Interval between REF commands (ns).
    pub t_refi_ns: f64,
    /// Execution time of one REF command (ns).
    pub t_rfc_ns: f64,
    /// Minimum time between successive ACTs to the same bank (ns).
    pub t_rc_ns: f64,
    /// Minimum time between ACTs to *different bank groups* (ns).
    pub t_rrd_s_ns: f64,
    /// Minimum time between ACTs within the *same bank group* (ns).
    pub t_rrd_l_ns: f64,
    /// Four-activate window: at most 4 ACTs per rank within this span (ns).
    pub t_faw_ns: f64,
    /// Minimum CAS-to-CAS spacing across bank groups (ns).
    pub t_ccd_s_ns: f64,
    /// Minimum CAS-to-CAS spacing within a bank group (ns).
    pub t_ccd_l_ns: f64,
}

impl DdrTimings {
    /// The paper's default: DDR5-5200B speed bin with 32 Gb devices
    /// (Table I: tREFW 32 ms, tREFI 3900 ns, tRFC 410 ns, tRC 48 ns).
    ///
    /// The inter-bank constraints follow the DDR5-5200 speed bin at
    /// tCK ≈ 0.3846 ns (tRRD_S 8 nCK ≈ 3.1 ns, tRRD_L/tCCD_L 5 ns,
    /// tCCD_S 8 nCK); the paper's Table I omits them because the security
    /// analysis only needs MaxACT, but the command-level memory system
    /// consumes them. tFAW is deliberately 13.3 ns (≈ 34.6 nCK), slightly
    /// above the JEDEC minimum of 32 nCK = exactly 4 × tRRD_S: at the
    /// minimum the rolling four-activate window would never bind (four
    /// tRRD_S-spaced ACTs already span it), so the value is inflated just
    /// past 4 × tRRD_S to keep the constraint — and its tests — live.
    /// `inter_bank_timings_are_consistent` pins this ordering.
    #[must_use]
    pub fn ddr5_5200b() -> Self {
        Self {
            t_refw_ns: 32.0e6,
            t_refi_ns: 3900.0,
            t_rfc_ns: 410.0,
            t_rc_ns: 48.0,
            t_rrd_s_ns: 3.1,
            t_rrd_l_ns: 5.0,
            t_faw_ns: 13.3,
            t_ccd_s_ns: 3.1,
            t_ccd_l_ns: 5.0,
        }
    }

    /// Maximum demand activations per tREFI:
    /// `MaxACT = (tREFI − tRFC) / tRC`, rounded to the nearest integer
    /// (the paper reports 73 for the default parameters; the raw quotient is
    /// 72.7).
    ///
    /// # Panics
    ///
    /// Panics if the timings are degenerate (`tREFI <= tRFC` or
    /// `tRC <= 0`).
    #[must_use]
    pub fn max_act(&self) -> u32 {
        assert!(
            self.t_refi_ns > self.t_rfc_ns && self.t_rc_ns > 0.0,
            "degenerate DDR timings: tREFI must exceed tRFC and tRC must be positive"
        );
        ((self.t_refi_ns - self.t_rfc_ns) / self.t_rc_ns).round() as u32
    }
}

impl Default for DdrTimings {
    fn default() -> Self {
        Self::ddr5_5200b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_max_act_is_73() {
        assert_eq!(DdrTimings::ddr5_5200b().max_act(), 73);
    }

    #[test]
    fn inter_bank_timings_are_consistent() {
        // The command-level memory system relies on these orderings:
        // same-group ACT spacing is the stricter RRD, the FAW window binds
        // tighter than four back-to-back short RRDs (so it is not dead
        // code), and every inter-bank constraint is far below tRC.
        let t = DdrTimings::ddr5_5200b();
        assert!(t.t_rrd_l_ns >= t.t_rrd_s_ns);
        assert!(t.t_ccd_l_ns >= t.t_ccd_s_ns);
        assert!(t.t_faw_ns > 4.0 * t.t_rrd_s_ns);
        assert!(t.t_faw_ns < t.t_rc_ns);
    }

    #[test]
    fn max_act_full_ddr5_range() {
        // Appendix A: across all 44 DDR5 speed bins MaxACT spans ~67..78.
        let fast = DdrTimings {
            t_refi_ns: 3900.0,
            t_rfc_ns: 350.0,
            t_rc_ns: 46.0,
            ..DdrTimings::ddr5_5200b()
        };
        let slow = DdrTimings {
            t_refi_ns: 3900.0,
            t_rfc_ns: 410.0,
            t_rc_ns: 52.0,
            ..DdrTimings::ddr5_5200b()
        };
        assert!(fast.max_act() >= 75);
        assert!(slow.max_act() <= 68);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_timings_panic() {
        let t = DdrTimings {
            t_refi_ns: 100.0,
            t_rfc_ns: 200.0,
            ..DdrTimings::ddr5_5200b()
        };
        let _ = t.max_act();
    }
}
