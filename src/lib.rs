//! # mint-rh — a reproduction of MINT (MICRO 2024)
//!
//! This is the facade crate for a full Rust reproduction of
//! *"MINT: Securely Mitigating Rowhammer with a Minimalist In-DRAM Tracker"*
//! (Qureshi, Qazi, Jaleel — MICRO 2024, arXiv:2407.16038).
//!
//! It re-exports the workspace crates under stable module names:
//!
//! * [`rng`] — deterministic PRNG substrate (models the in-DRAM TRNG).
//! * [`dram`] — DDR5 parameters, bank/row hammer model, refresh engine.
//! * [`core`] — **the paper's contribution**: the [`core::Mint`] tracker,
//!   the [`core::Dmq`] delayed-mitigation queue and RFM co-design.
//! * [`trackers`] — baseline trackers (InDRAM-PARA, PARFM, PRCT, Mithril,
//!   ProTRR, TRR, PrIDE).
//! * [`attacks`] — Rowhammer attack pattern generators.
//! * [`analysis`] — the analytical security models (Sariou–Wolman, MTTF,
//!   MinTRH, Markov-chain adaptive attacks).
//! * [`sim`] — the Monte-Carlo attack simulator.
//! * [`memsys`] — the performance/energy substrate (Gem5 substitute),
//!   run through one surface: the [`memsys::Sim`] builder and the
//!   declarative [`memsys::ScenarioSpec`]/[`memsys::ScenarioGrid`] layer.
//! * [`redteam`] — the adversarial frontend + ground-truth escape oracle
//!   closing the attacks↔memsys gap (scheme × pattern escape grids,
//!   performance under attack).
//! * [`exp`] — the parallel experiment engine (`par_map`) every layer
//!   above fans its trials, sweep points and workload grids through
//!   (deterministic: N-thread runs are bit-identical to 1-thread runs).
//! * [`serve`] — the resident scenario service: a streaming JSON-lines
//!   job queue (`run_scenario --serve`) over the [`memsys`] checkpoint/
//!   restore layer, with worker-count-invariant output ordering.
//!
//! # Quickstart
//!
//! ```
//! use mint_rh::core::{InDramTracker, Mint, MintConfig};
//! use mint_rh::dram::RowId;
//! use mint_rh::rng::Xoshiro256StarStar;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(7);
//! // The plain §V-B design (no transitive slot) for a deterministic demo.
//! let config = MintConfig::ddr5_default().without_transitive();
//! let mut mint = Mint::new(config, &mut rng);
//!
//! // One tREFI worth of a classic single-sided attack: MINT is guaranteed
//! // to select the aggressor because it occupies every activation slot.
//! for _ in 0..73 {
//!     mint.on_activation(RowId(1000), &mut rng);
//! }
//! let decision = mint.on_refresh(&mut rng);
//! assert!(decision.mitigates(RowId(1000)));
//! ```
//!
//! See the README's "Crate map" for the complete system inventory and
//! "Reproducing the paper" for regenerating every table and figure.

pub use mint_analysis as analysis;
pub use mint_attacks as attacks;
pub use mint_core as core;
pub use mint_dram as dram;
pub use mint_exp as exp;
pub use mint_memsys as memsys;
pub use mint_redteam as redteam;
pub use mint_rng as rng;
pub use mint_serve as serve;
pub use mint_sim as sim;
pub use mint_trackers as trackers;

/// MINT+RFM as Table V models it and as the simulator runs it.
#[cfg(test)]
mod rfm {
    mod tests {
        use crate::analysis::ada::AdaConfig;
        use crate::core::{InDramTracker, Mint, MintConfig};
        use crate::dram::RowId;
        use crate::rng::Xoshiro256StarStar;

        #[test]
        fn selection_probability_is_one_over_span() {
            // Table V's MINT+RFM rows assume each hammer is selected with
            // probability 1/span (1/33 for RFM32, 1/17 for RFM16). The
            // tracker they stand for is `Mint` over `MintConfig::rfm`, whose
            // window the RFM ends as a REF does; the attack row takes one
            // slot per window.
            for th in [32u32, 16] {
                let model = AdaConfig::rfm(th);
                let cfg = MintConfig::rfm(th);
                assert_eq!(cfg.selection_span(), model.span, "RFM{th}");
                let mut r = Xoshiro256StarStar::seed_from_u64(4 + u64::from(th));
                let mut mint = Mint::new(cfg, &mut r);
                let trials = 60_000u32;
                let mut hits = 0u32;
                for _ in 0..trials {
                    mint.on_activation(RowId(9), &mut r);
                    for i in 1..th {
                        mint.on_activation(RowId(100 + i), &mut r);
                    }
                    if mint.on_refresh(&mut r).mitigates(RowId(9)) {
                        hits += 1;
                    }
                }
                let rate = f64::from(hits) / f64::from(trials);
                let p = model.p();
                let sigma = (p * (1.0 - p) / f64::from(trials)).sqrt();
                assert!(
                    (rate - p).abs() < 4.0 * sigma,
                    "RFM{th}: rate {rate} vs {p}"
                );
            }
        }
    }
}
