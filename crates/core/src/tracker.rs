//! The tracker interface shared by MINT and every baseline.

use crate::StateCursor;
use mint_dram::RowId;
use mint_rng::Rng64;

/// What a tracker wants mitigated at a refresh opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MitigationDecision {
    /// Nothing selected in the elapsed window.
    None,
    /// Refresh the victims (blast radius) of this aggressor row.
    Aggressor(RowId),
    /// Transitive mitigation (paper §V-E): refresh the rows `distance`
    /// further out than the direct victims of `around` — for blast radius 1
    /// and `distance` 1, rows `around ± 2`.
    Transitive {
        /// The previously mitigated aggressor at the centre of the pattern.
        around: RowId,
        /// Extra reach beyond the blast radius (≥ 1; grows when consecutive
        /// transitive selections recurse).
        distance: u32,
    },
    /// Refresh exactly this row (victim-centric trackers such as ProTRR
    /// identify the endangered row itself rather than its aggressor).
    VictimRefresh(RowId),
}

impl MitigationDecision {
    /// `true` if this decision directly mitigates `row` (i.e. refreshes
    /// `row`'s neighbours because `row` was identified as the aggressor).
    #[must_use]
    pub fn mitigates(&self, row: RowId) -> bool {
        matches!(self, MitigationDecision::Aggressor(r) if *r == row)
    }

    /// `true` if no mitigation will be performed.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, MitigationDecision::None)
    }

    /// `true` if some mitigation (aggressor or transitive) will be performed.
    #[must_use]
    pub fn is_some(&self) -> bool {
        !self.is_none()
    }

    /// The rows this decision refreshes for a device with the given blast
    /// radius, in the order the device issues them (for [`Aggressor`]:
    /// `−1, +1, −2, +2, …`; for [`Transitive`]: `−reach, +reach`).
    ///
    /// Rows that would fall below row 0 are dropped (banks clip at the
    /// edge); callers with an upper bound filter against it themselves.
    /// This is the **single source of truth** for mitigation cost: the
    /// Monte-Carlo engine applies exactly these refreshes and the memory
    /// system charges one victim ACT per returned row — they can never
    /// disagree on what a decision costs.
    ///
    /// [`Aggressor`]: MitigationDecision::Aggressor
    /// [`Transitive`]: MitigationDecision::Transitive
    #[must_use]
    pub fn victim_rows(&self, blast_radius: u32) -> Vec<RowId> {
        if self.is_none() {
            return Vec::new(); // allocation-free: None is the common case
        }
        let mut rows = Vec::with_capacity(2 * blast_radius as usize);
        match *self {
            MitigationDecision::None => {}
            MitigationDecision::Aggressor(r) => {
                for d in 1..=i64::from(blast_radius) {
                    rows.extend(r.offset(-d));
                    rows.extend(r.offset(d));
                }
            }
            MitigationDecision::Transitive { around, distance } => {
                let reach = i64::from(blast_radius) + i64::from(distance);
                rows.extend(around.offset(-reach));
                rows.extend(around.offset(reach));
            }
            MitigationDecision::VictimRefresh(v) => rows.push(v),
        }
        rows
    }

    /// Number of victim-refresh activations this decision performs for the
    /// given blast radius: 0 for [`None`](MitigationDecision::None),
    /// `2 × blast_radius` for an aggressor mitigation, 2 for a transitive
    /// one and exactly 1 for a [`VictimRefresh`] (victim-centric trackers
    /// such as ProTRR refresh the endangered row itself) — minus any rows
    /// clipped at the row-0 edge.
    ///
    /// [`VictimRefresh`]: MitigationDecision::VictimRefresh
    #[must_use]
    pub fn victim_act_count(&self, blast_radius: u32) -> u64 {
        self.victim_rows(blast_radius).len() as u64
    }

    /// Walks the decision as its fixed three-word checkpoint form
    /// `[tag, row, distance]` (tags: 0 `None`, 1 `Aggressor`, 2
    /// `Transitive`, 3 `VictimRefresh`; unused fields zero) — how queued
    /// decisions sit inside [`InDramTracker::walk_state`].
    ///
    /// # Errors
    ///
    /// Loading errors on a truncated stream, an unknown tag or a field
    /// beyond 32 bits.
    pub(crate) fn walk(&mut self, c: &mut StateCursor) -> Result<(), String> {
        let (mut tag, mut row, mut distance) = match *self {
            MitigationDecision::None => (0, 0, 0),
            MitigationDecision::Aggressor(r) => (1, r.0, 0),
            MitigationDecision::Transitive { around, distance } => (2, around.0, distance),
            MitigationDecision::VictimRefresh(v) => (3, v.0, 0),
        };
        c.u64(&mut tag)?;
        c.u32(&mut row)?;
        c.u32(&mut distance)?;
        *self = match tag {
            0 => MitigationDecision::None,
            1 => MitigationDecision::Aggressor(RowId(row)),
            2 => MitigationDecision::Transitive {
                around: RowId(row),
                distance,
            },
            3 => MitigationDecision::VictimRefresh(RowId(row)),
            tag => return Err(format!("unknown decision tag {tag}")),
        };
        Ok(())
    }
}

/// A Rowhammer mitigation tracker living inside the DRAM device.
///
/// The contract mirrors the constraints the paper lays out in §I–II:
///
/// * The device observes every demand activation
///   ([`on_activation`](Self::on_activation)) but **not** the mitigative
///   refreshes it performs itself (those are "silent").
/// * Mitigation can only happen at refresh opportunities
///   ([`on_refresh`](Self::on_refresh)), except for RFM-style designs, which
///   may return a decision directly from `on_activation` when the memory
///   controller issues an RFM mid-interval.
/// * Storage is measured in tracker entries ([`entries`](Self::entries)) and
///   bits ([`storage_bits`](Self::storage_bits)) for the Table IX
///   comparison.
///
/// Implementations must be deterministic given the `Rng64` stream: the whole
/// repository's experiments replay from seeds.
pub trait InDramTracker {
    /// Observes a demand activation of `row`.
    ///
    /// Returns `Some(decision)` only for trackers whose mitigation window is
    /// activation-counted (RFM co-designs, [`Dmq`](crate::Dmq) wrappers);
    /// plain REF-synchronised trackers always return `None` here.
    fn on_activation(&mut self, row: RowId, rng: &mut dyn Rng64) -> Option<MitigationDecision>;

    /// Observes a row being refreshed as part of a mitigation the device
    /// itself performed. A victim refresh *is* an activation of the victim
    /// row, and per-row counting trackers (PRCT, Mithril) count it — that is
    /// precisely what makes them immune to transitive attacks (§V-G).
    /// Probabilistic single-entry trackers cannot see these (the paper calls
    /// them "silent"), hence the default is a no-op.
    fn on_mitigative_refresh(&mut self, row: RowId) {
        let _ = row;
    }

    /// A REF command arrives: report the row to mitigate during the stolen
    /// refresh time and start a new tracking window.
    fn on_refresh(&mut self, rng: &mut dyn Rng64) -> MitigationDecision;

    /// Ends the current tracking window and reports the selection *without*
    /// an accompanying REF (a DMQ "pseudo-mitigation", §VI-C). The default
    /// forwards to [`on_refresh`](Self::on_refresh), which is correct for
    /// every tracker whose refresh handler just drains the window.
    fn pseudo_mitigate(&mut self, rng: &mut dyn Rng64) -> MitigationDecision {
        self.on_refresh(rng)
    }

    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Number of tracking entries currently occupied (telemetry: table
    /// occupancy). Stateless or purely probabilistic trackers report 0.
    fn live_entries(&self) -> usize {
        0
    }

    /// Observations the tracker has lost to a full table, FIFO or buffer
    /// so far (telemetry: eviction/rollover pressure). Trackers that
    /// never drop report 0.
    fn overflow_count(&self) -> u64 {
        0
    }

    /// Number of row-tracking entries (the paper's cost metric, Table III).
    fn entries(&self) -> usize;

    /// Total SRAM bits of tracker state (Table IX storage comparison).
    fn storage_bits(&self) -> u64;

    /// Restores the power-on state (new window, cleared registers).
    fn reset(&mut self, rng: &mut dyn Rng64);

    /// Walks every dynamic register through a checkpoint cursor (see
    /// [`StateCursor`]): the tracker half of the checkpoint contract. The
    /// default walks no words, right for stateless trackers.
    ///
    /// The words must be **canonical** — two trackers in the same logical
    /// state walk identical words in any process (hash-map order must not
    /// leak) — and loading onto a fresh tracker of the same configuration
    /// must continue the stream bit-identically. Configuration (entry
    /// counts, thresholds) is not walked; the walk checks words against
    /// it and errors on words another tracker or configuration produced.
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        let _ = c;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_predicates() {
        let none = MitigationDecision::None;
        assert!(none.is_none());
        assert!(!none.is_some());
        assert!(!none.mitigates(RowId(1)));

        let agg = MitigationDecision::Aggressor(RowId(5));
        assert!(agg.is_some());
        assert!(agg.mitigates(RowId(5)));
        assert!(!agg.mitigates(RowId(6)));

        let tr = MitigationDecision::Transitive {
            around: RowId(5),
            distance: 1,
        };
        assert!(tr.is_some());
        assert!(
            !tr.mitigates(RowId(5)),
            "transitive is not a direct mitigation"
        );
    }

    #[test]
    fn victim_act_counts_per_variant() {
        assert_eq!(MitigationDecision::None.victim_act_count(1), 0);
        assert_eq!(
            MitigationDecision::Aggressor(RowId(10)).victim_act_count(1),
            2
        );
        assert_eq!(
            MitigationDecision::Aggressor(RowId(10)).victim_act_count(2),
            4
        );
        assert_eq!(
            MitigationDecision::Transitive {
                around: RowId(10),
                distance: 1,
            }
            .victim_act_count(1),
            2
        );
        assert_eq!(
            MitigationDecision::VictimRefresh(RowId(10)).victim_act_count(1),
            1,
            "a victim refresh is exactly one activation, not a pair"
        );
    }

    #[test]
    fn victim_rows_order_and_edge_clipping() {
        assert_eq!(
            MitigationDecision::Aggressor(RowId(10)).victim_rows(2),
            vec![RowId(9), RowId(11), RowId(8), RowId(12)]
        );
        // Row 0 has no lower neighbour: the pair clips to one victim.
        assert_eq!(
            MitigationDecision::Aggressor(RowId(0)).victim_rows(1),
            vec![RowId(1)]
        );
        assert_eq!(
            MitigationDecision::Aggressor(RowId(0)).victim_act_count(1),
            1
        );
        assert_eq!(
            MitigationDecision::Transitive {
                around: RowId(10),
                distance: 2,
            }
            .victim_rows(1),
            vec![RowId(7), RowId(13)]
        );
        assert!(MitigationDecision::None.victim_rows(1).is_empty());
    }

    #[test]
    fn decision_word_encoding_round_trips() {
        let load = |words: &[u64]| {
            let mut d = MitigationDecision::None;
            d.walk(&mut StateCursor::loading(words)).map(|()| d)
        };
        for (mut d, words) in [
            (MitigationDecision::None, [0, 0, 0]),
            (MitigationDecision::Aggressor(RowId(7)), [1, 7, 0]),
            (
                MitigationDecision::Transitive {
                    around: RowId(9),
                    distance: 3,
                },
                [2, 9, 3],
            ),
            (
                MitigationDecision::VictimRefresh(RowId(u32::MAX)),
                [3, u64::from(u32::MAX), 0],
            ),
        ] {
            let mut c = StateCursor::saving();
            d.walk(&mut c).unwrap();
            assert_eq!(c.finish().unwrap(), words);
            assert_eq!(load(&words), Ok(d));
        }
        assert!(load(&[4, 0, 0]).is_err());
        assert!(load(&[1, u64::from(u32::MAX) + 1, 0]).is_err());
    }
}
