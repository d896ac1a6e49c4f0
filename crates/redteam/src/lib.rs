//! # mint-redteam — adversarial frontend + ground-truth escape oracle
//!
//! The analytical layer (`mint-analysis`) and the slot-indexed Monte-Carlo
//! engine (`mint-sim`) argue about tracker security in *slot space*: an
//! abstract stream of `(tREFI, slot)` activations. The command-level DDR5
//! channel (`mint-memsys`) measures *performance* under benign MPKI
//! workloads. This crate closes the gap between them — it mounts real
//! attacks on the real pipeline and measures both axes at once:
//!
//! * [`AttackSource`] compiles any `mint_attacks::AccessPattern` into
//!   physical byte addresses (via the bijective
//!   [`AddressDecoder`](mint_memsys::AddressDecoder) encode path) and
//!   paces them so the pattern lands its intended ≤ MaxACT activations
//!   per tREFI in a chosen bank. It is an ordinary
//!   [`RequestSource`](mint_memsys::RequestSource), so it composes with
//!   benign `CoreStream`/`TraceSource` cores for attacker+victim co-runs.
//! * [`GroundTruthOracle`] rides the channel's executed-command event
//!   stream ([`ChannelObserver`](mint_memsys::ChannelObserver)) into a
//!   [`mint_dram::Bank`], the disturbance model `mint-sim`'s engine
//!   drives too, and so keeps *exact* per-row disturbance counts —
//!   self-restore on activation, blast-radius neighbour hammering
//!   (including the silent hammering a victim refresh itself causes),
//!   and the rolling tREFW auto-refresh sweep. Its [`SecurityVerdict`] states, post-run, the maximum hammer
//!   count any row attained, the margin to a given Rowhammer threshold,
//!   and which rows escaped or came close.
//! * [`redteam_sweep`] fans a scheme × pattern grid out through
//!   `mint_exp::par_map` (bit-identical for any `--jobs` count) and adds
//!   per-scheme benign-core slowdown under attack — the
//!   performance-under-attack axis that DRFM-heavy schemes lose on.
//!
//! ```text
//! AccessPattern ──► AttackSource ──► Channel (scheme backend) ──► banks
//!   (slot space)     (addresses,          │ MemEvent stream
//!                     tREFI pacing)       ▼
//!                                   GroundTruthOracle ──► SecurityVerdict
//! ```

pub mod oracle;
pub mod source;
pub mod sweep;

pub use oracle::{GroundTruthOracle, OracleSummary, SecurityVerdict};
pub use source::AttackSource;
pub use sweep::{
    redteam_sweep, run_attack, run_corun, RedteamConfig, RedteamReport, SecurityCell, SlowdownCell,
};
