//! The ground-truth escape oracle: exact per-row disturbance accounting
//! over the channel's executed-command event stream.

use mint_dram::{Bank, BankConfig, RowId};
use mint_memsys::backend::refis_per_refw;
use mint_memsys::{ChannelObserver, MemEvent, Section, SystemConfig};

/// Rows within this fraction of the threshold (but below it) count as
/// near misses in a [`SecurityVerdict`].
const NEAR_MISS_NUM: u64 = 9;
const NEAR_MISS_DEN: u64 = 10;

/// An observer that replays one bank's command stream into a
/// [`mint_dram::Bank`], the same disturbance model `mint-sim`'s engine
/// drives:
///
/// * a demand ACT restores the activated row (self-refresh) and hammers
///   every neighbour within the blast radius;
/// * a victim refresh clears the refreshed row **and silently hammers its
///   neighbours** (it is an activation — the transitive channel of §V-E);
/// * each REF advances the bank's rolling background sweep, which clears
///   `rows / refis_per_refw` counters per tREFI in row order — the
///   rolling-tREFW guarantee that every row is reset at least once per
///   retention window.
///
/// An ACT or victim refresh naming a row outside the bank is counted and
/// disturbs nothing, so an oracle built for another topology than the
/// run it observes cannot panic.
///
/// Because events arrive in service order the oracle needs no
/// synchronisation and its verdict is bit-deterministic. The bank keeps
/// the all-time maximum per row, so one run answers *every* threshold
/// question afterwards ([`OracleSummary::verdict`]).
#[derive(Debug)]
pub struct GroundTruthOracle {
    bank: u32,
    /// The watched bank's disturbance model (no threshold: verdicts read
    /// the per-row maxima afterwards).
    model: Bank,
    demand_acts: u64,
    victim_refreshes: u64,
    refs: u64,
    rfm_commands: u64,
    drfm_commands: u64,
}

impl GroundTruthOracle {
    /// An oracle watching system-global bank `bank` of `cfg` (the bank
    /// index space of the [`System`](mint_memsys::System)-rebased event
    /// stream: `channel × banks_per_channel + rank × banks + flat_bank`).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is beyond the topology's total bank count.
    #[must_use]
    pub fn new(cfg: &SystemConfig, bank: u32) -> Self {
        assert!(bank < cfg.total_banks(), "bank {bank} out of range");
        Self {
            bank,
            model: Bank::new(BankConfig {
                rows: cfg.rows_per_bank,
                blast_radius: cfg.blast_radius,
                trh: None,
                refis_per_refw: u32::try_from(refis_per_refw()).expect("tREFI per tREFW fits u32"),
            }),
            demand_acts: 0,
            victim_refreshes: 0,
            refs: 0,
            rfm_commands: 0,
            drfm_commands: 0,
        }
    }

    /// The watched system-global bank.
    #[must_use]
    pub fn bank(&self) -> u32 {
        self.bank
    }

    /// Current unmitigated disturbance of `row`.
    #[must_use]
    pub fn hammers(&self, row: u32) -> u32 {
        self.model.hammers(RowId(row))
    }

    /// The oracle's traffic accounting as an obs [`Section`] (named
    /// `oracle/bank{bank}`), for embedding in a `TelemetryReport` next
    /// to the simulator's own scheduler/engine/tracker sections.
    #[must_use]
    pub fn telemetry_section(&self) -> Section {
        self.summary()
            .to_section(&format!("oracle/bank{}", self.bank))
    }

    /// The distilled result: per-row maxima plus traffic counters.
    #[must_use]
    pub fn summary(&self) -> OracleSummary {
        let rows: Vec<(u32, u32)> = self.model.row_maxima().map(|(r, m)| (r.0, m)).collect();
        let (hottest_row, max_hammers) =
            rows.iter()
                .fold((0, 0), |acc, &(r, m)| if m > acc.1 { (r, m) } else { acc });
        OracleSummary {
            max_hammers,
            hottest_row,
            row_maxima: rows,
            demand_acts: self.demand_acts,
            victim_refreshes: self.victim_refreshes,
            refs: self.refs,
            rfm_commands: self.rfm_commands,
            drfm_commands: self.drfm_commands,
        }
    }
}

impl ChannelObserver for GroundTruthOracle {
    fn on_event(&mut self, event: &MemEvent) {
        if event.bank() != self.bank {
            return;
        }
        match *event {
            MemEvent::Act { row, .. } => {
                self.demand_acts += 1;
                if self.model.contains(RowId(row)) {
                    self.model.demand_activate(RowId(row));
                }
            }
            MemEvent::MitigativeRefresh { row, .. } => {
                self.victim_refreshes += 1;
                self.model.victim_refresh(RowId(row));
            }
            MemEvent::Ref { .. } => {
                self.refs += 1;
                self.model.auto_refresh();
            }
            MemEvent::Rfm { .. } => self.rfm_commands += 1,
            MemEvent::Drfm { .. } => self.drfm_commands += 1,
            MemEvent::Pre { .. } => {}
        }
    }
}

/// What the oracle saw, distilled: the all-time per-row maxima and the
/// mitigation traffic that shaped them. Threshold questions are answered
/// after the fact via [`verdict`](Self::verdict), so one run covers a
/// whole TRH grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleSummary {
    /// Largest unmitigated disturbance any row ever reached.
    pub max_hammers: u32,
    /// The row that reached it (lowest such row on ties).
    pub hottest_row: u32,
    /// All-time maximum per row, sorted by row (rows never disturbed are
    /// absent).
    pub row_maxima: Vec<(u32, u32)>,
    /// Demand activations the oracle observed on the bank.
    pub demand_acts: u64,
    /// Victim-refresh activations (mitigations) observed.
    pub victim_refreshes: u64,
    /// REF boundaries the bank crossed.
    pub refs: u64,
    /// RFM commands on the bank.
    pub rfm_commands: u64,
    /// DRFM commands on the bank.
    pub drfm_commands: u64,
}

impl OracleSummary {
    /// The traffic ledger as an obs [`Section`] named `name`: the five
    /// command counters plus the attained hammer maximum — the
    /// ground-truth side of the observability stack (groundwork for the
    /// DAPPER-style perf-attack axis).
    #[must_use]
    pub fn to_section(&self, name: &str) -> Section {
        let mut sec = Section::new(name);
        sec.counter("demand_acts", self.demand_acts);
        sec.counter("victim_refreshes", self.victim_refreshes);
        sec.counter("refs", self.refs);
        sec.counter("rfm_commands", self.rfm_commands);
        sec.counter("drfm_commands", self.drfm_commands);
        sec.counter("max_hammers", u64::from(self.max_hammers));
        sec.gauge("hottest_row", f64::from(self.hottest_row));
        sec
    }

    /// Judges the run against a Rowhammer threshold.
    #[must_use]
    pub fn verdict(&self, trh: u32) -> SecurityVerdict {
        let near = u32::try_from(u64::from(trh) * NEAR_MISS_NUM / NEAR_MISS_DEN).unwrap_or(trh);
        let escape_rows: Vec<u32> = self
            .row_maxima
            .iter()
            .filter(|&&(_, m)| m >= trh)
            .map(|&(r, _)| r)
            .collect();
        let near_miss_rows: Vec<u32> = self
            .row_maxima
            .iter()
            .filter(|&&(_, m)| m >= near && m < trh)
            .map(|&(r, _)| r)
            .collect();
        SecurityVerdict {
            trh,
            max_hammers: self.max_hammers,
            hottest_row: self.hottest_row,
            margin_acts: i64::from(trh) - i64::from(self.max_hammers),
            escaped: !escape_rows.is_empty(),
            escape_rows,
            near_miss_rows,
            demand_acts: self.demand_acts,
            victim_refreshes: self.victim_refreshes,
            refs: self.refs,
            rfm_commands: self.rfm_commands,
            drfm_commands: self.drfm_commands,
        }
    }
}

/// The oracle's judgement of one run against one Rowhammer threshold:
/// did the tracker hold the line, and by how much?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityVerdict {
    /// The Rowhammer threshold judged against.
    pub trh: u32,
    /// Largest unmitigated disturbance any row attained.
    pub max_hammers: u32,
    /// The row that attained it.
    pub hottest_row: u32,
    /// `trh − max_hammers`: positive = the tracker held with this much
    /// headroom, negative/zero = at least one row flipped.
    pub margin_acts: i64,
    /// Whether any row reached the threshold.
    pub escaped: bool,
    /// Rows whose all-time maximum reached the threshold (sorted).
    pub escape_rows: Vec<u32>,
    /// Rows that reached ≥ 90% of the threshold without crossing it
    /// (sorted).
    pub near_miss_rows: Vec<u32>,
    /// Demand activations observed on the attacked bank.
    pub demand_acts: u64,
    /// Victim-refresh activations (mitigations) the scheme performed.
    pub victim_refreshes: u64,
    /// REF boundaries the bank crossed during the run.
    pub refs: u64,
    /// RFM commands issued on the bank.
    pub rfm_commands: u64,
    /// DRFM commands issued on the bank.
    pub drfm_commands: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> GroundTruthOracle {
        GroundTruthOracle::new(&SystemConfig::table6(), 3)
    }

    fn act(bank: u32, row: u32) -> MemEvent {
        MemEvent::Act {
            bank,
            row,
            at_ps: 0,
        }
    }

    #[test]
    fn acts_hammer_neighbours_and_self_restore() {
        let mut o = oracle();
        for _ in 0..5 {
            o.on_event(&act(3, 100));
        }
        assert_eq!(o.hammers(99), 5);
        assert_eq!(o.hammers(101), 5);
        assert_eq!(o.hammers(100), 0, "the aggressor self-restores");
        // Activating a neighbour restores it and hammers the aggressor.
        o.on_event(&act(3, 99));
        assert_eq!(o.hammers(99), 0);
        assert_eq!(o.hammers(100), 1);
        // All-time maxima survive the restore.
        let s = o.summary();
        assert_eq!(s.max_hammers, 5);
        assert!(s.row_maxima.contains(&(99, 5)));
    }

    #[test]
    fn other_banks_are_invisible() {
        let mut o = oracle();
        o.on_event(&act(2, 100));
        o.on_event(&MemEvent::Ref {
            bank: 0,
            ref_index: 1,
            at_ps: 0,
        });
        assert_eq!(o.summary().max_hammers, 0);
        assert_eq!(o.summary().refs, 0);
    }

    #[test]
    fn victim_refresh_clears_but_silently_hammers() {
        let mut o = oracle();
        for _ in 0..7 {
            o.on_event(&act(3, 100));
        }
        o.on_event(&MemEvent::MitigativeRefresh {
            bank: 3,
            row: 101,
            at_ps: 0,
        });
        assert_eq!(o.hammers(101), 0, "refreshed victim cleared");
        assert_eq!(o.hammers(100), 1, "…but its refresh hammers row 100");
        assert_eq!(o.hammers(102), 1);
        assert_eq!(o.summary().victim_refreshes, 1);
    }

    #[test]
    fn sweep_clears_rows_in_order_over_a_trefw() {
        let cfg = SystemConfig::table6();
        let mut o = oracle();
        o.on_event(&act(3, 1));
        assert_eq!(o.hammers(0), 1);
        // rows / refis_per_refw = 16 rows per REF: the first REF clears
        // rows 0..16, including both victims.
        o.on_event(&MemEvent::Ref {
            bank: 3,
            ref_index: 1,
            at_ps: cfg.t_refi_ps,
        });
        assert_eq!(o.hammers(0), 0);
        assert_eq!(o.hammers(2), 0);
        assert_eq!(o.summary().refs, 1);
        // Maxima are all-time: still recorded.
        assert_eq!(o.summary().max_hammers, 1);
    }

    #[test]
    fn edge_rows_clip() {
        let mut o = oracle();
        o.on_event(&act(3, 0));
        let s = o.summary();
        assert_eq!(s.row_maxima, vec![(1, 1)], "row −1 does not exist");
    }

    #[test]
    fn verdict_classifies_escapes_and_near_misses() {
        let mut o = oracle();
        for _ in 0..100 {
            o.on_event(&act(3, 100)); // rows 99/101 reach 100
        }
        for _ in 0..95 {
            o.on_event(&act(3, 200)); // rows 199/201 reach 95
        }
        for _ in 0..10 {
            o.on_event(&act(3, 300));
        }
        let s = o.summary();
        let v = s.verdict(100);
        assert!(v.escaped);
        assert_eq!(v.escape_rows, vec![99, 101]);
        assert_eq!(v.near_miss_rows, vec![199, 201], "95 ≥ 90% of 100");
        assert_eq!(v.margin_acts, 0);
        assert_eq!(v.max_hammers, 100);
        let v = s.verdict(200);
        assert!(!v.escaped);
        assert!(v.escape_rows.is_empty());
        assert_eq!(v.margin_acts, 100);
        assert!(v.near_miss_rows.is_empty(), "95 < 90% of 200");
        assert_eq!(v.demand_acts, 205);
    }

    #[test]
    fn watches_banks_on_any_rank_or_channel() {
        // Regression: the range assert used to read `cfg.banks` (one
        // rank of one channel), rejecting every bank beyond rank 0 of
        // channel 0 even on multi-rank/multi-channel topologies.
        let cfg = SystemConfig {
            channels: 2,
            ranks: 2,
            ..SystemConfig::table6()
        };
        let bank = cfg.banks_per_channel() + cfg.banks + 3; // channel 1, rank 1
        let mut o = GroundTruthOracle::new(&cfg, bank);
        o.on_event(&act(bank, 100));
        o.on_event(&act(3, 100)); // channel 0's bank 3: a different bank
        assert_eq!(o.summary().demand_acts, 1);
        assert_eq!(o.hammers(101), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_beyond_the_topology_rejected() {
        let cfg = SystemConfig::table6();
        let _ = GroundTruthOracle::new(&cfg, cfg.total_banks());
    }

    #[test]
    fn telemetry_section_mirrors_the_summary() {
        let mut o = oracle();
        for _ in 0..4 {
            o.on_event(&act(3, 50));
        }
        o.on_event(&MemEvent::MitigativeRefresh {
            bank: 3,
            row: 51,
            at_ps: 0,
        });
        o.on_event(&MemEvent::Rfm { bank: 3, at_ps: 0 });
        let sec = o.telemetry_section();
        assert_eq!(sec.name, "oracle/bank3");
        let counter = |name: &str| {
            sec.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("demand_acts"), Some(4));
        assert_eq!(counter("victim_refreshes"), Some(1));
        assert_eq!(counter("rfm_commands"), Some(1));
        assert_eq!(counter("max_hammers"), Some(4));
        // And the same ledger embeds in a TelemetryReport.
        let mut report = mint_memsys::TelemetryReport::new();
        report.push(o.telemetry_section());
        assert_eq!(report.counter("oracle/bank3", "demand_acts"), Some(4));
    }

    #[test]
    fn counts_rfm_and_drfm_commands() {
        let mut o = oracle();
        o.on_event(&MemEvent::Rfm { bank: 3, at_ps: 0 });
        o.on_event(&MemEvent::Drfm { bank: 3, at_ps: 0 });
        o.on_event(&MemEvent::Drfm { bank: 1, at_ps: 0 });
        let s = o.summary();
        assert_eq!(s.rfm_commands, 1);
        assert_eq!(s.drfm_commands, 1);
    }

    #[test]
    fn rows_outside_the_bank_are_counted_and_disturb_nothing() {
        // An oracle built for a smaller bank than the run it observes.
        let cfg = SystemConfig {
            rows_per_bank: 64,
            ..SystemConfig::table6()
        };
        let mut o = GroundTruthOracle::new(&cfg, 3);
        for row in [64, 65, 1 << 20, u32::MAX] {
            o.on_event(&act(3, row));
            o.on_event(&MemEvent::MitigativeRefresh {
                bank: 3,
                row,
                at_ps: 0,
            });
        }
        let s = o.summary();
        assert_eq!((s.demand_acts, s.victim_refreshes), (4, 4));
        assert!(s.row_maxima.is_empty(), "nothing was disturbed");
        assert_eq!(o.hammers(63), 0);
        // In-bank traffic still lands.
        o.on_event(&act(3, 63));
        assert_eq!(o.summary().row_maxima, vec![(62, 1)]);
    }
}
