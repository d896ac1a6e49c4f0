//! System configuration (paper Table VI) plus the command-level channel
//! knobs (bank-group topology, inter-bank timings, queue depth, blast
//! radius).

use mint_dram::{DdrTimings, DDR5_ROWS_PER_BANK};

/// Rowhammer mitigation scheme under evaluation.
///
/// Each scheme is realised per bank by a
/// [`MitigationBackend`](crate::MitigationBackend) — see that module for
/// where each scheme's logic lives (in-DRAM riding REF, or MC-side paying
/// DRFM bank time) and how the trackers are sized. The full set mirrors the
/// paper's Table IX / §V-G comparison zoo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MitigationScheme {
    /// No mitigation (the normalisation baseline).
    Baseline,
    /// MINT: mitigations ride inside the REF's tRFC — no extra bank time.
    Mint,
    /// MINT+RFM: an RFM command (tRFMsb = 205 ns bank block) every
    /// `rfm_th` activations per bank.
    MintRfm {
        /// RFM threshold (32 or 16 in the paper).
        rfm_th: u32,
    },
    /// Memory-controller PARA using blocking DRFM commands
    /// (tDRFMsb = 410 ns) issued per activation with probability `p`.
    McPara {
        /// Per-activation DRFM probability.
        p: f64,
    },
    /// Graphene (MICRO 2020): MC-side Misra-Gries aggressor table issuing
    /// a DRFM-priced mitigation when a row crosses its threshold.
    Graphene,
    /// Mithril (HPCA 2022): in-DRAM counter-based-summary sketch,
    /// mitigating at REF.
    Mithril,
    /// ProTRR (S&P 2022): in-DRAM Misra-Gries *victim* tracking; its REF
    /// mitigation refreshes exactly one row.
    ProTrr,
    /// A vendor-TRR-like small table (easily defeated; here for the
    /// performance/storage comparison).
    SimpleTrr,
    /// The idealized Per-Row Counter-Table (one counter per DRAM row).
    Prct,
    /// PrIDE (ISCA 2024): PARA sampling into a 4-entry in-DRAM FIFO.
    Pride,
    /// PARFM: buffer every activation of the window, mitigate one at
    /// random at REF.
    Parfm,
}

impl MitigationScheme {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MitigationScheme::Baseline => "Baseline".to_owned(),
            MitigationScheme::Mint => "MINT".to_owned(),
            MitigationScheme::MintRfm { rfm_th } => format!("MINT+RFM{rfm_th}"),
            MitigationScheme::McPara { p } => format!("MC-PARA(1/{:.0})", 1.0 / p),
            MitigationScheme::Graphene => "Graphene".to_owned(),
            MitigationScheme::Mithril => "Mithril".to_owned(),
            MitigationScheme::ProTrr => "ProTRR".to_owned(),
            MitigationScheme::SimpleTrr => "TRR".to_owned(),
            MitigationScheme::Prct => "PRCT".to_owned(),
            MitigationScheme::Pride => "PrIDE".to_owned(),
            MitigationScheme::Parfm => "PARFM".to_owned(),
        }
    }

    /// Parses a scheme from its [`label`](MitigationScheme::label) form,
    /// case-insensitively (`"baseline"`, `"mint"`, `"MINT+RFM16"`,
    /// `"mc-para(1/40)"`, …) — the inverse of `label`, used by the
    /// declarative [`ScenarioSpec`](crate::ScenarioSpec) text format.
    /// Returns `None` for unknown schemes and for `MINT+RFM<n>` outside
    /// `1 ≤ n < u32::MAX` (MINT's selection span is `n + 1`).
    #[must_use]
    pub fn parse(s: &str) -> Option<MitigationScheme> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "baseline" => return Some(MitigationScheme::Baseline),
            "mint" => return Some(MitigationScheme::Mint),
            "graphene" => return Some(MitigationScheme::Graphene),
            "mithril" => return Some(MitigationScheme::Mithril),
            "protrr" => return Some(MitigationScheme::ProTrr),
            "trr" => return Some(MitigationScheme::SimpleTrr),
            "prct" => return Some(MitigationScheme::Prct),
            "pride" => return Some(MitigationScheme::Pride),
            "parfm" => return Some(MitigationScheme::Parfm),
            _ => {}
        }
        if let Some(th) = lower.strip_prefix("mint+rfm") {
            return th
                .parse()
                .ok()
                .filter(|&rfm_th| (1..u32::MAX).contains(&rfm_th))
                .map(|rfm_th| MitigationScheme::MintRfm { rfm_th });
        }
        // "mc-para(1/40)": the label renders the sampling rate as a
        // reciprocal, so that is what the parser accepts.
        if let Some(rest) = lower.strip_prefix("mc-para(1/") {
            let denom: f64 = rest.strip_suffix(')')?.parse().ok()?;
            if denom >= 1.0 {
                return Some(MitigationScheme::McPara { p: 1.0 / denom });
            }
        }
        None
    }

    /// The canonical evaluation zoo: baseline first (the normalisation
    /// reference of a [`ScenarioGrid`](crate::ScenarioGrid)), then
    /// the paper's MINT configurations, then every baseline tracker.
    #[must_use]
    pub fn zoo() -> Vec<MitigationScheme> {
        vec![
            MitigationScheme::Baseline,
            MitigationScheme::Mint,
            MitigationScheme::MintRfm { rfm_th: 32 },
            MitigationScheme::MintRfm { rfm_th: 16 },
            MitigationScheme::McPara { p: 1.0 / 40.0 },
            MitigationScheme::Graphene,
            MitigationScheme::Mithril,
            MitigationScheme::ProTrr,
            MitigationScheme::SimpleTrr,
            MitigationScheme::Prct,
            MitigationScheme::Pride,
            MitigationScheme::Parfm,
        ]
    }
}

/// The evaluated system (paper Table VI) plus DDR5 command timings.
///
/// All times are picoseconds (integral, so event arithmetic is exact and
/// runs are bit-reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (4).
    pub cores: u32,
    /// Independently-clocked DDR5 channels in the system (Table VI: 1;
    /// must be a power of two for bit-sliced address mapping).
    pub channels: u32,
    /// Ranks per channel (Table VI: 1; must be a power of two). Each rank
    /// carries its own `banks` banks and its own tFAW/tRRD activation
    /// window; the CAS bus is shared per channel.
    pub ranks: u32,
    /// Core clock in GHz (3).
    pub core_ghz: u32,
    /// Effective non-memory IPC of the 8-wide core (how fast compute
    /// phases retire between LLC misses).
    pub core_ipc: u32,
    /// Memory-level parallelism: concurrent misses a core can overlap.
    pub core_mlp: u32,
    /// Banks in the channel (32).
    pub banks: u32,
    /// Bank groups the banks are divided into (DDR5: 8 groups of 4).
    /// Must divide `banks`; same-group ACT/CAS pairs pay the long
    /// tRRD_L/tCCD_L spacings, cross-group pairs the short ones.
    pub bank_groups: u32,
    /// Cache-line columns per row (128 × 64 B = 8 KB page).
    pub columns_per_row: u32,
    /// Transaction-queue capacity of the channel scheduler.
    pub queue_depth: u32,
    /// Blast radius charged per mitigation: victims refreshed on either
    /// side of an aggressor (DDR5 default 1). Sweepable like every other
    /// knob; also sizes the victim reach of ProTRR-style backends.
    pub blast_radius: u32,
    /// Row-activate latency tRCD (ps).
    pub t_rcd_ps: u64,
    /// Column access latency tCL (ps).
    pub t_cl_ps: u64,
    /// Precharge latency tRP (ps).
    pub t_rp_ps: u64,
    /// Row cycle time tRC (ps).
    pub t_rc_ps: u64,
    /// Refresh interval tREFI (ps).
    pub t_refi_ps: u64,
    /// Refresh duration tRFC (ps).
    pub t_rfc_ps: u64,
    /// RFM duration tRFMsb (ps) — half of tRFC per the paper.
    pub t_rfm_ps: u64,
    /// Directed-RFM duration tDRFMsb (ps) — equal to tRFC.
    pub t_drfm_ps: u64,
    /// Minimum spacing between ACTs to different bank groups (ps).
    pub t_rrd_s_ps: u64,
    /// Minimum spacing between ACTs within one bank group (ps).
    pub t_rrd_l_ps: u64,
    /// Four-activate window: at most 4 ACTs per channel within this (ps).
    pub t_faw_ps: u64,
    /// CAS-to-CAS spacing across bank groups (ps).
    pub t_ccd_s_ps: u64,
    /// CAS-to-CAS spacing within a bank group (ps).
    pub t_ccd_l_ps: u64,
    /// Rows per bank (for address generation).
    pub rows_per_bank: u32,
}

impl SystemConfig {
    /// Table VI: 4 cores @ 3 GHz, 32 banks, 16-16-16-48 ns timings, with
    /// the §VIII DRFM/RFM latencies (410 ns / 205 ns). tREFI, tRFC, tRC,
    /// the inter-bank constraints and the rows per bank come from the
    /// canonical `mint-dram` DDR5-5200B values, so the security and
    /// performance layers cannot drift apart.
    #[must_use]
    pub fn table6() -> Self {
        let ps = |ns: f64| (ns * 1000.0).round() as u64;
        let t = DdrTimings::ddr5_5200b();
        Self {
            cores: 4,
            channels: 1,
            ranks: 1,
            core_ghz: 3,
            core_ipc: 3,
            core_mlp: 4,
            banks: 32,
            bank_groups: 8,
            columns_per_row: 128,
            queue_depth: 32,
            blast_radius: 1,
            t_rcd_ps: 16_000,
            t_cl_ps: 16_000,
            t_rp_ps: 16_000,
            t_rc_ps: ps(t.t_rc_ns),
            t_refi_ps: ps(t.t_refi_ns),
            t_rfc_ps: ps(t.t_rfc_ns),
            t_rfm_ps: 205_000,
            t_drfm_ps: 410_000,
            t_rrd_s_ps: ps(t.t_rrd_s_ns),
            t_rrd_l_ps: ps(t.t_rrd_l_ns),
            t_faw_ps: ps(t.t_faw_ns),
            t_ccd_s_ps: ps(t.t_ccd_s_ns),
            t_ccd_l_ps: ps(t.t_ccd_l_ns),
            rows_per_bank: DDR5_ROWS_PER_BANK,
        }
    }

    /// Banks per bank group (`banks / bank_groups`).
    ///
    /// # Panics
    ///
    /// Panics if `bank_groups` does not divide `banks`.
    #[must_use]
    pub fn banks_per_group(&self) -> u32 {
        assert!(
            self.bank_groups > 0 && self.banks % self.bank_groups == 0,
            "bank_groups must divide banks"
        );
        self.banks / self.bank_groups
    }

    /// Banks per channel across all of its ranks (`ranks × banks`). The
    /// controller's bank tables (and the `bank` field of every
    /// [`MemEvent`](crate::MemEvent)) are indexed by
    /// `rank × banks + flat_bank` inside one channel.
    #[must_use]
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks * self.banks
    }

    /// Banks in the whole system (`channels × ranks × banks`).
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks * self.banks
    }

    /// Picoseconds per core cycle.
    #[must_use]
    pub fn core_cycle_ps(&self) -> u64 {
        1_000 / u64::from(self.core_ghz)
    }

    /// Row-buffer hit latency (CAS only).
    #[must_use]
    pub fn hit_latency_ps(&self) -> u64 {
        self.t_cl_ps
    }

    /// Row-buffer miss latency (precharge + activate + CAS).
    #[must_use]
    pub fn miss_latency_ps(&self) -> u64 {
        self.t_rp_ps + self.t_rcd_ps + self.t_cl_ps
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_constants() {
        let c = SystemConfig::table6();
        assert_eq!(c.cores, 4);
        assert_eq!(c.banks, 32);
        assert_eq!((c.channels, c.ranks), (1, 1), "Table VI is 1 ch x 1 rank");
        assert_eq!(c.banks_per_channel(), 32);
        assert_eq!(c.total_banks(), 32);
        assert_eq!(c.t_rc_ps, 48_000);
        assert_eq!(c.core_cycle_ps(), 333);
        assert_eq!(c.miss_latency_ps(), 48_000);
        assert_eq!(c.hit_latency_ps(), 16_000);
    }

    #[test]
    fn table6_channel_knobs() {
        let c = SystemConfig::table6();
        assert_eq!(c.bank_groups, 8);
        assert_eq!(c.banks_per_group(), 4);
        assert_eq!(c.columns_per_row, 128);
        assert_eq!(c.queue_depth, 32);
        assert_eq!(c.blast_radius, 1);
        assert_eq!(c.t_rrd_s_ps, 3_100);
        assert_eq!(c.t_rrd_l_ps, 5_000);
        assert_eq!(c.t_faw_ps, 13_300);
        assert!(c.t_rrd_l_ps >= c.t_rrd_s_ps);
        assert!(c.t_ccd_l_ps >= c.t_ccd_s_ps);
        assert!(c.t_faw_ps > 4 * c.t_rrd_s_ps, "FAW must bind");
    }

    #[test]
    #[should_panic(expected = "bank_groups must divide banks")]
    fn bad_bank_group_split_rejected() {
        let c = SystemConfig {
            bank_groups: 5,
            ..SystemConfig::table6()
        };
        let _ = c.banks_per_group();
    }

    #[test]
    fn bank_totals_scale_with_topology() {
        let c = SystemConfig {
            channels: 2,
            ranks: 4,
            ..SystemConfig::table6()
        };
        assert_eq!(c.banks_per_channel(), 128);
        assert_eq!(c.total_banks(), 256);
    }

    #[test]
    fn rfm_is_half_drfm() {
        let c = SystemConfig::table6();
        assert_eq!(c.t_drfm_ps, c.t_rfc_ps);
        assert_eq!(c.t_rfm_ps * 2, c.t_rfc_ps);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(MitigationScheme::Baseline.label(), "Baseline");
        assert_eq!(MitigationScheme::Mint.label(), "MINT");
        assert_eq!(
            MitigationScheme::MintRfm { rfm_th: 16 }.label(),
            "MINT+RFM16"
        );
        assert!(MitigationScheme::McPara { p: 1.0 / 64.0 }
            .label()
            .contains("64"));
        assert_eq!(MitigationScheme::Graphene.label(), "Graphene");
        assert_eq!(MitigationScheme::ProTrr.label(), "ProTRR");
        assert_eq!(MitigationScheme::Prct.label(), "PRCT");
    }

    #[test]
    fn zoo_covers_at_least_eight_distinct_schemes() {
        let zoo = MitigationScheme::zoo();
        assert!(zoo.len() >= 8, "zoo has {} schemes", zoo.len());
        assert_eq!(zoo[0], MitigationScheme::Baseline, "baseline leads");
        let labels: std::collections::HashSet<String> =
            zoo.iter().map(MitigationScheme::label).collect();
        assert_eq!(labels.len(), zoo.len(), "labels must be distinct");
    }
}
