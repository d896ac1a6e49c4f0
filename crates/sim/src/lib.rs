//! Monte-Carlo Rowhammer attack simulator.
//!
//! This crate binds the three substrates together and runs attacks end to
//! end:
//!
//! * a tracker ([`InDramTracker`](mint_core::InDramTracker) — MINT or any
//!   baseline from `mint-trackers`),
//! * an attack ([`AccessPattern`](mint_attacks::AccessPattern)),
//! * and the bank hammer model ([`Bank`](mint_dram::Bank)) with a refresh
//!   schedule ([`RefreshPolicy`](mint_dram::RefreshPolicy)).
//!
//! The engine faithfully reproduces the information asymmetry at the heart
//! of the paper: the tracker sees *demand* activations only; the victim
//! refreshes it triggers are applied to the bank (hammering their own
//! neighbours — the transitive channel) and are reported back to the
//! tracker only through
//! [`on_mitigative_refresh`](mint_core::InDramTracker::on_mitigative_refresh),
//! which per-row counting trackers use and probabilistic trackers cannot.
//!
//! Two kinds of experiments are supported:
//!
//! * **Bound runs** ([`Engine::run`] with `trh: None`) — measure the maximum
//!   unmitigated hammer count an attack achieves (e.g. the deterministic
//!   478K of §VI-B).
//! * **Failure-rate runs** ([`estimate_failure_prob`]) — Monte-Carlo
//!   estimates of the per-tREFW failure probability at a small threshold,
//!   cross-validating the Sariou–Wolman analytical model. Trial `i` draws
//!   from `derive_seed(seed, i)`, and trials fan out through
//!   [`mint_exp::par_map`], so the count is the same at any worker count.

mod engine;

pub use engine::{estimate_failure_prob, Engine, SimConfig, SimReport};
