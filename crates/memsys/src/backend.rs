//! The mitigation backend abstraction: how a [`MitigationScheme`] is
//! realised inside the memory system.
//!
//! Every bank of the [`MemoryController`](crate::MemoryController) carries
//! one [`MitigationBackend`], built from the scheme under evaluation by
//! [`MitigationBackend::for_scheme`]. The backend decides *where* the
//! mitigation logic lives and therefore *what it costs*:
//!
//! * [`MitigationBackend::None`] — no mitigation at all (the Baseline).
//! * [`MitigationBackend::InDram`] — a real tracker from `mint-core` /
//!   `mint-trackers` living inside the DRAM device. It observes every
//!   demand ACT and mitigates at REF (and RFM) opportunities, riding the
//!   already-paid tRFC — zero extra bank time, but every victim refresh is
//!   a real activation the energy model must count.
//! * [`MitigationBackend::McSample`] — memory-controller-side PARA: no
//!   tracker state, each ACT is sampled with probability `p` and a sampled
//!   ACT is followed by a blocking DRFM command (tDRFMsb of bank time).
//! * [`MitigationBackend::McTracker`] — a memory-controller-side tracker
//!   (Graphene) that counts ACTs in SRAM and, when a row crosses its
//!   mitigation threshold, issues a DRFM-priced mitigation command to
//!   refresh the row's victims.
//!
//! The split matters because it reproduces the paper's headline argument
//! (§VIII, Fig 16/17, Table IX): in-DRAM trackers pay in SRAM and MinTRH,
//! MC-side trackers pay in bank-blocking commands, and MINT's point is
//! getting the in-DRAM cost down to a single entry.

use crate::config::{MitigationScheme, SystemConfig};
use mint_core::{InDramTracker, Mint, MintConfig, StateCursor};
use mint_dram::{DdrTimings, DDR5_REFI_PER_REFW};
use mint_rng::Rng64;
use mint_trackers::{
    Graphene, GrapheneConfig, Mithril, MithrilConfig, Parfm, Prct, Pride, ProTrr, ProTrrConfig,
    SimpleTrr,
};

/// Demand-activation slots per tREFI (the paper's MaxACT), from the
/// canonical `mint-dram` DDR5 parameters — not re-hardcoded here, so the
/// security and performance layers cannot drift apart.
#[must_use]
pub fn max_act_per_trefi() -> u64 {
    u64::from(DdrTimings::ddr5_5200b().max_act())
}

/// tREFI intervals per tREFW (DDR5: 8192), from `mint-dram`.
#[must_use]
pub fn refis_per_refw() -> u64 {
    u64::from(DDR5_REFI_PER_REFW)
}

/// The Rowhammer threshold the MC-side Graphene is sized for — MINT's
/// MinTRH-D from Table III, so the storage comparison is iso-threshold.
pub const GRAPHENE_TRH: u32 = 1400;

/// PrIDE FIFO depth (paper §IX; its sampling probability is 1/MaxACT).
pub const PRIDE_FIFO: usize = 4;

/// Entries of the vendor-TRR-like tracker (the middle of Hassan et al.'s
/// reverse-engineered 1–30 range).
pub const TRR_ENTRIES: usize = 16;

/// Where a scheme's mitigation logic lives and what machinery backs it.
///
/// Built per bank by [`MitigationBackend::for_scheme`]; the controller owns
/// one per [`BankState`](crate::MemoryController) and drives it from
/// `service` / `align_with_refresh`.
pub enum MitigationBackend {
    /// No mitigation hardware (Baseline).
    None,
    /// An in-DRAM tracker mitigating at REF/RFM opportunities inside the
    /// stolen refresh time (MINT, Mithril, ProTRR, TRR, PRCT, PrIDE,
    /// PARFM).
    InDram(Box<dyn InDramTracker + Send>),
    /// MC-side PARA: stateless sampling, each sampled ACT followed by a
    /// blocking DRFM.
    McSample {
        /// Per-activation DRFM probability.
        p: f64,
    },
    /// An MC-side tracker (Graphene) issuing DRFM-priced mitigation
    /// commands on threshold crossings.
    McTracker(Box<dyn InDramTracker + Send>),
}

impl MitigationBackend {
    /// Builds the backend realising `scheme` for one bank of `cfg`.
    ///
    /// Tracker sizings follow the paper: Mithril and ProTRR at their
    /// Table III entry counts, PRCT with one counter per row of the bank,
    /// Graphene sized by [`GrapheneConfig::for_threshold`] for
    /// [`GRAPHENE_TRH`] over one tREFW of activations.
    #[must_use]
    pub fn for_scheme(scheme: MitigationScheme, cfg: &SystemConfig, rng: &mut dyn Rng64) -> Self {
        match scheme {
            MitigationScheme::Baseline => MitigationBackend::None,
            MitigationScheme::Mint => {
                MitigationBackend::InDram(Box::new(Mint::new(MintConfig::ddr5_default(), rng)))
            }
            MitigationScheme::MintRfm { rfm_th } => {
                MitigationBackend::InDram(Box::new(Mint::new(MintConfig::rfm(rfm_th), rng)))
            }
            MitigationScheme::McPara { p } => MitigationBackend::McSample { p },
            MitigationScheme::Graphene => MitigationBackend::McTracker(Box::new(Graphene::new(
                GrapheneConfig::for_threshold(GRAPHENE_TRH, max_act_per_trefi() * refis_per_refw()),
            ))),
            MitigationScheme::Mithril => {
                MitigationBackend::InDram(Box::new(Mithril::new(MithrilConfig::table3())))
            }
            MitigationScheme::ProTrr => {
                // ProTRR tracks *victims*: its insertion reach is the
                // device's blast radius, so the sweepable config knob
                // flows through (not the struct default).
                MitigationBackend::InDram(Box::new(ProTrr::new(ProTrrConfig {
                    blast_radius: cfg.blast_radius,
                    ..ProTrrConfig::default()
                })))
            }
            MitigationScheme::SimpleTrr => {
                MitigationBackend::InDram(Box::new(SimpleTrr::new(TRR_ENTRIES)))
            }
            MitigationScheme::Prct => {
                MitigationBackend::InDram(Box::new(Prct::new(cfg.rows_per_bank)))
            }
            MitigationScheme::Pride => MitigationBackend::InDram(Box::new(Pride::new(
                1.0 / max_act_per_trefi() as f64,
                PRIDE_FIFO,
            ))),
            MitigationScheme::Parfm => {
                MitigationBackend::InDram(Box::new(Parfm::new(max_act_per_trefi() as usize)))
            }
        }
    }

    /// The tracker backing this scheme, if any (for Table-IX-style storage
    /// introspection: [`InDramTracker::entries`] /
    /// [`InDramTracker::storage_bits`]).
    #[must_use]
    pub fn tracker(&self) -> Option<&dyn InDramTracker> {
        match self {
            MitigationBackend::None | MitigationBackend::McSample { .. } => None,
            MitigationBackend::InDram(t) | MitigationBackend::McTracker(t) => Some(t.as_ref()),
        }
    }

    /// Tracking entries currently occupied (telemetry: table occupancy);
    /// 0 for the stateless variants.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.tracker().map_or(0, InDramTracker::live_entries)
    }

    /// Observations lost to a full table/FIFO/buffer so far (telemetry:
    /// eviction pressure); 0 for the stateless variants.
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.tracker().map_or(0, InDramTracker::overflow_count)
    }

    /// Short label for debugging/reports: the tracker name, or the
    /// backend kind for stateless variants.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MitigationBackend::None => "none",
            MitigationBackend::McSample { .. } => "mc-sample",
            MitigationBackend::InDram(t) | MitigationBackend::McTracker(t) => t.name(),
        }
    }

    /// Walks the backend's dynamic state as one length-prefixed block:
    /// empty for the stateless variants, the tracker's
    /// [`walk_state`](InDramTracker::walk_state) otherwise. Loading
    /// requires the block to be consumed exactly.
    ///
    /// # Errors
    ///
    /// Errors when the words do not describe this backend's tracker (wrong
    /// scheme, wrong capacity, or corruption).
    pub(crate) fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        let name = self.name();
        match self {
            MitigationBackend::None | MitigationBackend::McSample { .. } => {
                c.block(name, |_| Ok(()))
            }
            MitigationBackend::InDram(t) | MitigationBackend::McTracker(t) => {
                c.block(name, |c| t.walk_state(c))
            }
        }
    }
}

impl std::fmt::Debug for MitigationBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MitigationBackend::None => write!(f, "MitigationBackend::None"),
            MitigationBackend::InDram(t) => write!(f, "MitigationBackend::InDram({})", t.name()),
            MitigationBackend::McSample { p } => {
                write!(f, "MitigationBackend::McSample {{ p: {p} }}")
            }
            MitigationBackend::McTracker(t) => {
                write!(f, "MitigationBackend::McTracker({})", t.name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_rng::Xoshiro256StarStar;

    fn backend(scheme: MitigationScheme) -> MitigationBackend {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        MitigationBackend::for_scheme(scheme, &SystemConfig::table6(), &mut rng)
    }

    #[test]
    fn every_zoo_scheme_builds_a_backend() {
        for scheme in MitigationScheme::zoo() {
            let b = backend(scheme);
            match scheme {
                MitigationScheme::Baseline => assert!(b.tracker().is_none()),
                MitigationScheme::McPara { .. } => assert!(b.tracker().is_none()),
                _ => {
                    let t = b.tracker().expect("tracker-backed scheme");
                    assert!(t.entries() > 0, "{} has entries", t.name());
                    assert!(t.storage_bits() > 0, "{} has storage", t.name());
                }
            }
        }
    }

    #[test]
    fn backend_kinds_match_scheme_families() {
        assert!(matches!(
            backend(MitigationScheme::Baseline),
            MitigationBackend::None
        ));
        assert!(matches!(
            backend(MitigationScheme::Mint),
            MitigationBackend::InDram(_)
        ));
        assert!(matches!(
            backend(MitigationScheme::Graphene),
            MitigationBackend::McTracker(_)
        ));
        assert!(matches!(
            backend(MitigationScheme::McPara { p: 0.1 }),
            MitigationBackend::McSample { .. }
        ));
    }

    #[test]
    fn storage_ordering_matches_table9() {
        // MINT (single entry) must be orders of magnitude below the
        // SRAM-heavy baselines; PRCT is the most expensive of all.
        let mint = backend(MitigationScheme::Mint)
            .tracker()
            .unwrap()
            .storage_bits();
        let graphene = backend(MitigationScheme::Graphene)
            .tracker()
            .unwrap()
            .storage_bits();
        let mithril = backend(MitigationScheme::Mithril)
            .tracker()
            .unwrap()
            .storage_bits();
        let prct = backend(MitigationScheme::Prct)
            .tracker()
            .unwrap()
            .storage_bits();
        assert!(mint < mithril / 10, "MINT {mint} vs Mithril {mithril}");
        assert!(mint < graphene / 10, "MINT {mint} vs Graphene {graphene}");
        assert!(prct > mithril, "PRCT {prct} vs Mithril {mithril}");
    }

    #[test]
    fn debug_and_name_are_informative() {
        assert_eq!(backend(MitigationScheme::Baseline).name(), "none");
        assert_eq!(backend(MitigationScheme::Mithril).name(), "Mithril");
        let dbg = format!("{:?}", backend(MitigationScheme::Graphene));
        assert!(dbg.contains("McTracker"), "{dbg}");
    }
}
