//! DDR5 device model for Rowhammer security simulation.
//!
//! This crate is the substrate beneath every security experiment in the MINT
//! reproduction. It models exactly the part of a DRAM device that matters to
//! the paper's analysis:
//!
//! * **Timing parameters** ([`DdrTimings`], paper Table I) — most
//!   importantly `MaxACT`, the number of activations that fit in one tREFI
//!   (73 for DDR5-5200B) — with the REFs per tREFW and rows per bank
//!   ([`DDR5_REFI_PER_REFW`], [`DDR5_ROWS_PER_BANK`]).
//! * **Per-row hammer accounting** ([`Bank`]) — every activation of a row
//!   restores the row itself and adds one *hammer* to each neighbour within
//!   the blast radius; refreshing a row clears its hammer count; a row whose
//!   count reaches the Rowhammer threshold (TRH) without an intervening
//!   refresh is a *failure*. The bank also keeps every row's all-time
//!   maximum, so one run answers any threshold question afterwards.
//! * **Victim refreshes are themselves activations** — a mitigation that
//!   refreshes the victims of an aggressor silently activates those victim
//!   rows, hammering *their* neighbours. This is what enables transitive
//!   (Half-Double) attacks, and the model captures it faithfully.
//! * **The background sweep** ([`Bank::auto_refresh`]) — each REF clears
//!   the next `rows / refis_per_refw` rows in row order, carrying the
//!   remainder as credit, so every row is reset once per tREFW.
//! * **The refresh engine** ([`RefreshSchedule`]) — timely refresh (one REF
//!   per tREFI) or DDR5 refresh postponement (up to four postponed REFs,
//!   batches of five).
//!
//! [`Bank`] is the repository's one disturbance model: `mint-sim`'s
//! Monte-Carlo engine drives it slot by slot, and `mint-redteam`'s
//! ground-truth oracle drives it from the command channel's executed
//! commands. It stores rows in 1,024-row pages allocated on their first
//! hammer, so a 128K-row bank that an attack touches in one place costs a
//! few KiB.
//!
//! The model is deliberately *event-counted*, not cycle-accurate: MINT's
//! security argument is combinatorial over (ACT, REF) sequences, so counting
//! slots within tREFI intervals exercises the same logic a cycle-accurate
//! model would, at a fraction of the cost. Cycle-level performance modelling
//! lives in the separate `mint-memsys` crate.
//!
//! # Examples
//!
//! ```
//! use mint_dram::{Bank, BankConfig, RowId};
//!
//! let mut bank = Bank::new(BankConfig {
//!     rows: 1024,
//!     trh: Some(100),
//!     ..BankConfig::default()
//! });
//! for _ in 0..99 {
//!     bank.demand_activate(RowId(10));
//! }
//! assert_eq!(bank.hammers(RowId(11)), 99);
//! bank.victim_refresh(RowId(11)); // mitigation clears the victim
//! assert_eq!(bank.hammers(RowId(11)), 0);
//! assert!(bank.failures().is_empty());
//! ```

mod bank;
mod params;
mod refresh;
mod row;
mod stats;

pub use bank::{Bank, BankConfig, FailureRecord};
pub use params::{DdrTimings, DDR5_REFI_PER_REFW, DDR5_ROWS_PER_BANK};
pub use refresh::{RefreshEvent, RefreshPolicy, RefreshSchedule, MAX_POSTPONED_REFS};
pub use row::RowId;
pub use stats::BankStats;
