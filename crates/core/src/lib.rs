//! # mint-core — the MINT tracker (the paper's contribution)
//!
//! This crate implements the primary contribution of *"MINT: Securely
//! Mitigating Rowhammer with a Minimalist In-DRAM Tracker"* (MICRO 2024):
//!
//! * [`Mint`] — the single-entry, *future-centric* tracker (§V). At each
//!   refresh it draws a Selected Activation Number uniformly over the
//!   upcoming mitigation window; the activation whose sequence number matches
//!   is latched into the Selected Address Register and mitigated at the next
//!   refresh. Slot 0 encodes *transitive mitigation* (§V-E), protecting
//!   against Half-Double-style attacks.
//! * [`Dmq`] — the Delayed Mitigation Queue (§VI): a 4-entry FIFO wrapper
//!   that makes any low-cost tracker compatible with DDR5 refresh
//!   postponement by converting the tracker's window from REF-synchronised
//!   to activation-counted.
//! * MINT+RFM (§VII) is [`Mint`] over [`MintConfig::rfm`]: the window
//!   shrinks to the RFM threshold (32 or 16 activations), and the memory
//!   controller issues an RFM, a mitigation opportunity, each time a bank's
//!   rolling activation count reaches it.
//! * [`RowPressMint`] — the Appendix C extension: a fixed-point CAN register
//!   that weighs each activation by its ImPress *equivalent activation
//!   count*, tolerating Row-Press without affecting the MinTRH.
//!
//! The [`InDramTracker`] trait is the interface every tracker in this
//! repository implements (the baselines live in `mint-trackers`), and is what
//! the Monte-Carlo engine in `mint-sim` drives. [`StateCursor`] is the
//! checkpoint cursor every tracker — and every stateful layer of
//! `mint-memsys` — walks its dynamic state through.
//!
//! # Examples
//!
//! A classic double-sided attack is *guaranteed* to lose against MINT if it
//! uses every activation slot (paper §V-C):
//!
//! ```
//! use mint_core::{InDramTracker, Mint, MintConfig};
//! use mint_dram::RowId;
//! use mint_rng::Xoshiro256StarStar;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let mut mint = Mint::new(MintConfig::ddr5_default(), &mut rng);
//!
//! // Alternate aggressors B and D around shared victim C for a full tREFI.
//! for i in 0..73 {
//!     let row = if i % 2 == 0 { RowId(20) } else { RowId(22) };
//!     assert!(mint.on_activation(row, &mut rng).is_none());
//! }
//! let decision = mint.on_refresh(&mut rng);
//! assert!(decision.mitigates(RowId(20)) || decision.mitigates(RowId(22)));
//! ```

mod config;
mod cursor;
mod dmq;
mod mint;
mod rowpress;
mod tracker;

pub use config::MintConfig;
pub use cursor::StateCursor;
pub use dmq::{Dmq, DMQ_ENTRIES};
pub use mint::Mint;
pub use rowpress::{eact_fixed_point, RowPressMint, EACT_FRAC_BITS};
pub use tracker::{InDramTracker, MitigationDecision};
