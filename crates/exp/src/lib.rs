//! # mint-exp — the parallel experiment engine
//!
//! Every result in the MINT paper — survival probabilities (Figs 3/5/6),
//! attack sweeps (Figs 10/11/21) and the performance tables — is produced by
//! repeating seeded, deterministic computations: Monte-Carlo trials over the
//! simulator, sweep points over the analytical solver, or
//! (workload, scheme) grid cells over the memory-system model. This crate
//! owns that orchestration so `mint-sim`, `mint-bench` and `mint-memsys`
//! share one engine instead of hand-rolled loops:
//!
//! * [`par_map`] — an order-preserving parallel map over
//!   `std::thread::scope` (no external dependencies). Items are claimed
//!   dynamically for load balance, but result `i` always lands in slot
//!   `i`, so any worker count returns the identical `Vec`. Seeded work
//!   stays reproducible by deriving item `i`'s RNG stream from
//!   `derive_seed(master_seed, i)` — never from a thread id.
//! * [`jobs`] — one place deciding worker counts: explicit override >
//!   [`set_jobs`] (the binaries' `--jobs N`) > `MINT_JOBS` env >
//!   `available_parallelism`.
//! * [`cli`] — the experiment binaries' shared argument handling: every
//!   binary gets `--jobs N` and `--out PATH` (plus free arguments such as
//!   scenario files) from one [`cli::parse`] call.
//! * [`json`] — string escaping for the artifact writers and a small
//!   parser for the scenario service's wire envelopes.
//! * [`prop`] — a tiny deterministic property-testing driver used by the
//!   repository's invariant tests.
//! * [`stopwatch`] — a dependency-free micro-benchmark timer used by the
//!   `mint-bench` bench targets.
//!
//! # Examples
//!
//! A Monte-Carlo estimate fanned out over trial indices; the parallel run
//! is bit-identical to the sequential one:
//!
//! ```
//! use mint_rng::{derive_seed, Rng64, Xoshiro256StarStar};
//!
//! // Estimates P[U < 1/73] (the MINT SAN hit rate), one trial per index.
//! let trials: Vec<u64> = (0..10_000).collect();
//! let draw = |_i: usize, &trial: &u64| {
//!     Xoshiro256StarStar::seed_from_u64(derive_seed(42, trial)).gen_f64()
//! };
//! let par = mint_exp::par_map(&trials, draw);
//! let seq = mint_exp::par_map_jobs(Some(1), &trials, draw);
//! let hits = par.iter().filter(|&&u| u < 1.0 / 73.0).count();
//! assert!((hits as f64 / 10_000.0 - 1.0 / 73.0).abs() < 5e-3);
//! assert_eq!(par, seq); // bit-identical
//! ```

pub mod cli;
pub mod jobs;
pub mod json;
pub mod prop;
pub mod stopwatch;
mod sweep;

pub use jobs::{init_jobs_from_args, resolve_jobs, set_jobs};
pub use sweep::{par_map, par_map_jobs};
