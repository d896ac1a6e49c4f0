//! Differential oracle for the table trackers' shared count table.
//!
//! Mithril, PRCT, ProTRR and Graphene keep their row counts in one
//! `CountTable`: a hit is a map increment, the maximum of a large table
//! comes from a lazily repaired index of candidates, the Misra-Gries
//! decrement scans the map, and Mithril's minimum comes from a lazily
//! repaired min-heap. This suite keeps the original tables as
//! test-local references — a bare `HashMap<RowId, u64>` per tracker,
//! selected by full scans with the same `(count, row)` tie rules — and
//! drives both through identical random sequences of activations,
//! mitigative refreshes, REFs, resets and checkpoint round trips (the
//! saved words loaded into a fresh tracker that then continues).
//!
//! Capacities of 1–8 over a narrow row range make the rare paths
//! constant: ties, full-table replacement, REF reductions to 0,
//! Misra-Gries spills that empty the table and threshold crossings.
//! After every step the decision, the count of every row in range, the
//! live entry count and the walked words must agree. Long streams at the
//! zoo's capacities (PRCT over 8,192 rows, Mithril and ProTRR at 677)
//! reach the maximum's candidate index, which tables of 256 rows or
//! fewer never build. Any divergence prints the deterministic case index that
//! replays it exactly (see `mint_exp::prop`).

use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_exp::prop::{forall, u32_in, u64_in, usize_in};
use mint_rng::Xoshiro256StarStar;
use mint_trackers::{Graphene, GrapheneConfig, Mithril, MithrilConfig, Prct, ProTrr, ProTrrConfig};
use std::collections::HashMap;

/// Which table tracker, with its configuration.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Mithril { entries: usize },
    Prct { rows: u32 },
    ProTrr { entries: usize, blast_radius: u32 },
    Graphene { entries: usize, threshold: u64 },
}

impl Kind {
    fn build(self) -> Subject {
        match self {
            Kind::Mithril { entries } => Subject::Mithril(Mithril::new(MithrilConfig { entries })),
            Kind::Prct { rows } => Subject::Prct(Prct::new(rows)),
            Kind::ProTrr {
                entries,
                blast_radius,
            } => Subject::ProTrr(ProTrr::new(ProTrrConfig {
                entries,
                blast_radius,
            })),
            Kind::Graphene { entries, threshold } => {
                Subject::Graphene(Graphene::new(GrapheneConfig {
                    entries,
                    mitigation_threshold: threshold,
                }))
            }
        }
    }
}

/// The tracker under test.
enum Subject {
    Mithril(Mithril),
    Prct(Prct),
    ProTrr(ProTrr),
    Graphene(Graphene),
}

impl Subject {
    fn tracker(&mut self) -> &mut dyn InDramTracker {
        match self {
            Subject::Mithril(t) => t,
            Subject::Prct(t) => t,
            Subject::ProTrr(t) => t,
            Subject::Graphene(t) => t,
        }
    }

    /// The row's count, 0 when untracked (live counts are never 0).
    fn count(&self, row: RowId) -> u64 {
        match self {
            Subject::Mithril(t) => t.count(row).unwrap_or(0),
            Subject::Prct(t) => t.count(row),
            Subject::ProTrr(t) => t.count(row).unwrap_or(0),
            Subject::Graphene(t) => t.count(row).unwrap_or(0),
        }
    }

    fn words(&mut self) -> Vec<u64> {
        let mut c = StateCursor::saving();
        self.tracker().walk_state(&mut c).expect("live state walks");
        c.finish().expect("saving cannot fail")
    }
}

/// The original table code, verbatim apart from its packaging: one
/// `HashMap` per tracker and a full scan per selection.
struct Reference {
    kind: Kind,
    table: HashMap<RowId, u64>,
}

impl Reference {
    fn mithril_min_count(&self, entries: usize) -> u64 {
        if self.table.len() < entries {
            return 0;
        }
        self.table.values().copied().min().unwrap_or(0)
    }

    fn mithril_observe(&mut self, row: RowId, entries: usize) {
        if let Some(c) = self.table.get_mut(&row) {
            *c += 1;
            return;
        }
        if self.table.len() < entries {
            self.table.insert(row, 1);
            return;
        }
        let (&victim, &min) = self
            .table
            .iter()
            .min_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
            .expect("table is full, hence non-empty");
        self.table.remove(&victim);
        self.table.insert(row, min + 1);
    }

    fn protrr_insert_victim(&mut self, victim: RowId, entries: usize) {
        if let Some(c) = self.table.get_mut(&victim) {
            *c += 1;
            return;
        }
        if self.table.len() < entries {
            self.table.insert(victim, 1);
            return;
        }
        self.table.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
    }

    /// The row with the highest count, ties to the smaller row.
    fn argmax(&self) -> Option<(RowId, u64)> {
        self.table
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(&r, &c)| (r, c))
    }

    fn on_activation(&mut self, row: RowId) -> Option<MitigationDecision> {
        match self.kind {
            Kind::Mithril { entries } => self.mithril_observe(row, entries),
            Kind::Prct { .. } => *self.table.entry(row).or_insert(0) += 1,
            Kind::ProTrr {
                entries,
                blast_radius,
            } => {
                for victim in row.neighbours(blast_radius) {
                    self.protrr_insert_victim(victim, entries);
                }
            }
            Kind::Graphene { entries, threshold } => {
                if let Some(c) = self.table.get_mut(&row) {
                    *c += 1;
                    if *c >= threshold {
                        self.table.remove(&row);
                        return Some(MitigationDecision::Aggressor(row));
                    }
                    return None;
                }
                if self.table.len() < entries {
                    self.table.insert(row, 1);
                    return None;
                }
                self.table.retain(|_, c| {
                    *c -= 1;
                    *c > 0
                });
            }
        }
        None
    }

    fn on_mitigative_refresh(&mut self, row: RowId) {
        match self.kind {
            // Graphene keeps the trait's no-op default.
            Kind::Graphene { .. } => {}
            _ => {
                let _ = self.on_activation(row);
            }
        }
    }

    fn on_refresh(&mut self) -> MitigationDecision {
        match self.kind {
            Kind::Mithril { entries } => {
                let Some((row, max)) = self.argmax() else {
                    return MitigationDecision::None;
                };
                if max == 0 {
                    return MitigationDecision::None;
                }
                let min = self.mithril_min_count(entries);
                let remaining = max.saturating_sub(min.max(1));
                if remaining == 0 {
                    self.table.remove(&row);
                } else {
                    self.table.insert(row, remaining);
                }
                MitigationDecision::Aggressor(row)
            }
            Kind::Prct { .. } => match self.argmax() {
                Some((row, _)) => {
                    self.table.remove(&row);
                    MitigationDecision::Aggressor(row)
                }
                None => MitigationDecision::None,
            },
            Kind::ProTrr { .. } => match self.argmax() {
                Some((victim, _)) => {
                    self.table.remove(&victim);
                    MitigationDecision::VictimRefresh(victim)
                }
                None => MitigationDecision::None,
            },
            Kind::Graphene { .. } => MitigationDecision::None,
        }
    }

    /// `[len, row₀, count₀, …]` sorted by row.
    fn words(&self) -> Vec<u64> {
        let mut pairs: Vec<(RowId, u64)> = self.table.iter().map(|(&r, &c)| (r, c)).collect();
        pairs.sort_unstable_by_key(|(r, _)| r.0);
        let mut words = vec![pairs.len() as u64];
        for (row, count) in pairs {
            words.extend([u64::from(row.0), count]);
        }
        words
    }

    fn load(&mut self, words: &[u64]) {
        self.table = words[1..]
            .chunks(2)
            .map(|p| (RowId(p[0] as u32), p[1]))
            .collect();
    }
}

/// One random case: a tracker, its reference, and the rows it sees.
fn random_kind(rng: &mut Xoshiro256StarStar) -> (Kind, u32) {
    let capacity = usize_in(rng, 1, 9);
    // A few rows more than entries keeps the table full and churning.
    let span = capacity as u32 + u32_in(rng, 0, 5);
    let kind = match u32_in(rng, 0, 4) {
        0 => Kind::Mithril { entries: capacity },
        // One counter per row: PRCT's rows are its entries.
        1 => {
            return (
                Kind::Prct {
                    rows: capacity as u32,
                },
                capacity as u32,
            )
        }
        2 => Kind::ProTrr {
            entries: capacity,
            blast_radius: u32_in(rng, 1, 3),
        },
        _ => Kind::Graphene {
            entries: capacity,
            threshold: u64_in(rng, 1, 7),
        },
    };
    (kind, span)
}

/// A tracker and its reference, driven in lockstep.
struct Pair {
    kind: Kind,
    subject: Subject,
    reference: Reference,
}

impl Pair {
    fn new(kind: Kind) -> Self {
        Pair {
            kind,
            subject: kind.build(),
            reference: Reference {
                kind,
                table: HashMap::new(),
            },
        }
    }

    fn activate(&mut self, row: RowId, at: &str) {
        let mut dummy = Xoshiro256StarStar::seed_from_u64(0);
        let got = self.subject.tracker().on_activation(row, &mut dummy);
        assert_eq!(got, self.reference.on_activation(row), "{at}: ACT {row}");
    }

    fn mitigative_refresh(&mut self, row: RowId) {
        self.subject.tracker().on_mitigative_refresh(row);
        self.reference.on_mitigative_refresh(row);
    }

    fn refresh(&mut self, at: &str) {
        let mut dummy = Xoshiro256StarStar::seed_from_u64(0);
        let got = self.subject.tracker().on_refresh(&mut dummy);
        assert_eq!(got, self.reference.on_refresh(), "{at}: REF");
    }

    fn reset(&mut self) {
        let mut dummy = Xoshiro256StarStar::seed_from_u64(0);
        self.subject.tracker().reset(&mut dummy);
        self.reference.table.clear();
    }

    /// Saves the tracker, loads the words into a fresh one and continues
    /// with it.
    fn round_trip(&mut self, at: &str) {
        let words = self.subject.words();
        self.subject = self.kind.build();
        let mut c = StateCursor::loading(&words);
        self.subject.tracker().walk_state(&mut c).expect(at);
        c.finish().expect(at);
        self.reference.load(&words);
    }

    fn check_live_entries(&mut self, at: &str) {
        assert_eq!(
            self.subject.tracker().live_entries(),
            self.reference.table.len(),
            "{at}: live entries"
        );
    }

    /// The whole table: every count and the walked words.
    fn check_words(&mut self, at: &str) {
        assert_eq!(
            self.subject.words(),
            self.reference.words(),
            "{at}: walked words"
        );
    }
}

#[test]
fn count_table_trackers_match_the_scan_reference_stepwise() {
    forall(600, 0xC0_7AB1E, |case, rng| {
        let (kind, span) = random_kind(rng);
        let mut pair = Pair::new(kind);
        // ProTRR counts victims up to `blast_radius` past the span.
        let watched = span + 3;
        for step in 0..300 {
            let at = format!("case {case} step {step} ({kind:?})");
            let row = RowId(u32_in(rng, 0, span));
            match u32_in(rng, 0, 100) {
                0..=59 => pair.activate(row, &at),
                60..=69 => pair.mitigative_refresh(row),
                70..=91 => pair.refresh(&at),
                92..=93 => pair.reset(),
                _ => pair.round_trip(&at),
            }
            for r in 0..watched {
                let got = pair.subject.count(RowId(r));
                let want = pair.reference.table.get(&RowId(r)).copied().unwrap_or(0);
                assert_eq!(got, want, "{at}: count of row {r}");
            }
            pair.check_live_entries(&at);
            pair.check_words(&at);
        }
    });
}

/// Long streams at the zoo's capacities, where the tables outgrow the
/// maximum's scan crossover (256 rows) and the candidate index is live:
/// PRCT over 8,192 rows, Mithril and ProTRR at 677 entries.
///
/// Each case alternates growth phases (mostly activations: a hot set
/// whose counts climb past the index's floor, plus a stream of fresh
/// rows) with drain phases (mostly REFs), so the candidates go stale,
/// run out and are rescanned, ProTRR's spills drop the index, and the
/// drains take PRCT's and ProTRR's tables back below the crossover
/// (Mithril's stays full); PRCT's passes 4,096 rows. Rare resets and
/// checkpoint round trips drop the index mid-stream. Decisions and live entries are compared at every step,
/// the walked words at phase ends and every 1,000 steps.
#[test]
fn count_table_trackers_match_the_scan_reference_on_long_streams() {
    forall(6, 0x10_9617, |case, rng| {
        let (kind, span, grow) = match case % 3 {
            0 => (Kind::Prct { rows: 8192 }, 8192, 9_000),
            1 => (Kind::Mithril { entries: 677 }, 3_000, 6_000),
            _ => (
                Kind::ProTrr {
                    entries: 677,
                    blast_radius: u32_in(rng, 1, 3),
                },
                3_000,
                6_000,
            ),
        };
        let hot: Vec<u32> = (0..48).map(|_| u32_in(rng, 0, span)).collect();
        let mut fresh = 0u32;
        let mut pair = Pair::new(kind);
        let mut step = 0u32;
        let mut peak = 0;
        let mut shrank_back = false;
        for phase in 0..4 {
            let draining = phase % 2 == 1;
            let steps = if draining { grow / 2 } else { grow };
            for _ in 0..steps {
                step += 1;
                let at = format!("case {case} step {step} ({kind:?})");
                let row = if u32_in(rng, 0, 100) < 45 {
                    // Skewed: the first hot rows are hit the most.
                    let reach = u32_in(rng, 1, 49);
                    RowId(hot[u32_in(rng, 0, reach) as usize])
                } else {
                    fresh = (fresh + 1) % span;
                    RowId(fresh)
                };
                let refresh_odds = if draining { 90 } else { 4 };
                match u32_in(rng, 0, 100) {
                    r if r < refresh_odds => pair.refresh(&at),
                    r if r < refresh_odds + 3 => pair.mitigative_refresh(row),
                    _ => match u32_in(rng, 0, 20_000) {
                        0 => pair.reset(),
                        1..=4 => pair.round_trip(&at),
                        _ => pair.activate(row, &at),
                    },
                }
                pair.check_live_entries(&at);
                let live = pair.reference.table.len();
                peak = peak.max(live);
                shrank_back |= peak > 256 && live <= 256;
                if step % 1_000 == 0 {
                    pair.check_words(&at);
                }
            }
            pair.check_words(&format!("case {case} end of phase {phase} ({kind:?})"));
        }
        // The streams reach the sizes they are for.
        let reached = match kind {
            Kind::Prct { .. } => 4_096,
            _ => 600,
        };
        assert!(peak >= reached, "case {case}: peak table {peak}");
        let full_for_good = matches!(kind, Kind::Mithril { .. });
        assert!(
            shrank_back || full_for_good,
            "case {case}: never shrank back to 256 rows"
        );
    });
}
