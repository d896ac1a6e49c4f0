//! Baseline in-DRAM Rowhammer trackers (paper §V-G comparison set and §IX
//! related work).
//!
//! Every tracker here implements
//! [`InDramTracker`](mint_core::InDramTracker), so the Monte-Carlo engine in
//! `mint-sim`, the tracker-generic memory controller in `mint-memsys`
//! (every scheme of `MitigationScheme::zoo()` is backed by a tracker from
//! this crate via its `MitigationBackend`) and the benchmarks in
//! `mint-bench` can drive MINT and its baselines interchangeably. The set matches the paper's Table III plus the
//! related-work designs it quantifies:
//!
//! | Tracker | Type (paper taxonomy) | Entries | Transitive attacks |
//! |---|---|---|---|
//! | [`InDramPara`] | present-centric, overwrite (§III-A) | 1 | immune* |
//! | [`InDramParaNoOverwrite`] | present-centric, no-overwrite (§III-B) | 1 | immune* |
//! | [`Parfm`] | past-centric, buffered random (§V-G) | 73 | vulnerable |
//! | [`Prct`] | past-centric, per-row counters (§II-H) | 128K | immune |
//! | [`Mithril`] | past-centric, counter-based summary (§II-G) | ~677 | immune |
//! | [`ProTrr`] | past-centric, Misra-Gries victims (§II-G) | ~hundreds | immune |
//! | [`SimpleTrr`] | vendor-TRR-like, few entries (§II-F) | 1–30 | broken anyway |
//! | [`Pride`] | present-centric + 4-FIFO (§IX) | 4 | immune* |
//! | [`Graphene`] | MC-side Misra-Gries (Table IX) | thousands | n/a |
//!
//! \*immune because their direct-attack MinTRH already exceeds what a
//! transitive attack can deliver (§V-G).
//!
//! The four counter-table trackers — Mithril, PRCT, ProTRR and Graphene —
//! keep their row counts in one crate-private `CountTable`, so they share
//! one tie rule (minimum by `(count, smaller row)`, maximum by `(count,
//! then smaller row)`) and one checkpoint walk (entries sorted by row;
//! counts of 0 or 2^63 and above refused). A hit is one hash-map
//! increment, plus one push onto a log once the table has outgrown 256
//! rows. The maximum, asked once per REF, scans a table of 256 rows or
//! fewer; a larger table keeps the largest sixteenth of its keys as
//! candidates above a floor and folds in the logged changes, so a REF
//! costs amortized O(16 + log n) instead of a scan of n rows, however
//! long PRCT's table grows. The Misra-Gries decrement scans the map once
//! per spill. Mithril's space-saving minimum, asked on every miss of a
//! full table, comes from a lazily built min-heap in amortized O(log n).
//! `tests/count_table_oracle.rs` replays random streams through each of
//! the four next to the original full-scan tables, at capacities of 1–8
//! and at the zoo's (PRCT over 8,192 rows, Mithril and ProTRR at 677).
//! TRR keeps its 16-entry vector: at that size a linear scan is the
//! cheapest table.

mod count_table;
mod graphene;
mod mithril;
mod para;
mod parfm;
mod prct;
mod pride;
mod protrr;
mod trr;

pub use graphene::{Graphene, GrapheneConfig};
pub use mithril::{Mithril, MithrilConfig};
pub use para::{InDramPara, InDramParaNoOverwrite};
pub use parfm::Parfm;
pub use prct::Prct;
pub use pride::Pride;
pub use protrr::{ProTrr, ProTrrConfig};
pub use trr::SimpleTrr;
