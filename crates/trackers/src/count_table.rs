//! The row → count table shared by the counter-table trackers (Mithril,
//! PRCT, ProTRR, Graphene).
//!
//! Every selection follows one total order — the minimum by `(count,
//! smaller row)`, the maximum by `(count, then smaller row)` — so no
//! decision depends on the hash map's per-process iteration order, and
//! the checkpoint walk can emit the entries sorted by row.
//!
//! A tracker pays only for the queries it makes. A hit is one map
//! increment. The maximum (asked once per REF) and the Misra-Gries
//! decrement (once per spill) scan the map. The minimum, which Mithril
//! asks on every miss of a full table, comes from a min-heap of `(count,
//! row)` entries that exists only once the minimum has been asked for,
//! and that a hit never touches:
//!
//! * every tracked row has an entry at or below its current count;
//! * a query repairs the top: an entry below its row's count is raised
//!   to it, an entry above it or for an untracked row is dropped, and the
//!   first entry that matches its row's count is exactly the minimum;
//! * a bulk change (decrement, clear, load) drops the heap until the next
//!   query builds it again, and a heap that reaches twice the table's
//!   capacity is rebuilt from the map, shedding its stale entries.
//!
//! Each raise is paid for by an earlier hit and each drop by an earlier
//! push, so a query costs amortized O(log n) instead of a scan of the
//! table.

use mint_core::StateCursor;
use mint_dram::RowId;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};

/// Counts at or above this are refused by the walks: counts rise by one
/// per activation, so a run would need about 10¹⁸ activations to reach
/// it, and a restored count this high would overflow on its next hit.
const COUNT_LIMIT: u64 = 1 << 63;

/// Refuses a restored count no live entry can hold: 0 (an entry that
/// reaches 0 is evicted) or [`COUNT_LIMIT`] and above.
pub(crate) fn check_count(what: &str, row: RowId, count: u64) -> Result<(), String> {
    if (1..COUNT_LIMIT).contains(&count) {
        Ok(())
    } else {
        Err(format!(
            "{what}: row {} has count {count}, outside 1..2^63",
            row.0
        ))
    }
}

/// A bounded row → count table (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CountTable {
    capacity: usize,
    counts: HashMap<RowId, u64>,
    /// Lower bounds `(count, row)` for the minimum query; `None` until
    /// it is first asked, and again after a bulk change.
    heap: Option<BinaryHeap<Reverse<(u64, RowId)>>>,
}

impl CountTable {
    /// An empty table of `capacity` entries, allocated up front.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            counts: HashMap::with_capacity(capacity),
            heap: None,
        }
    }

    /// An empty table of `capacity` entries that allocates as rows
    /// arrive (PRCT's one counter per bank row, mostly never touched).
    pub(crate) fn growing(capacity: usize) -> Self {
        Self {
            capacity,
            counts: HashMap::new(),
            heap: None,
        }
    }

    /// The count of `row`, if tracked.
    #[inline]
    pub(crate) fn get(&self, row: RowId) -> Option<u64> {
        self.counts.get(&row).copied()
    }

    /// Number of tracked rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether every entry is taken.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.counts.len() >= self.capacity
    }

    /// Counts one more activation of a tracked row and returns its new
    /// count; an untracked row returns `None` and changes nothing.
    #[inline]
    pub(crate) fn increment(&mut self, row: RowId) -> Option<u64> {
        let count = self.counts.get_mut(&row)?;
        *count += 1;
        Some(*count)
    }

    /// Sets `row`'s count, tracking it if it is not. The caller keeps the
    /// table within its capacity.
    pub(crate) fn set(&mut self, row: RowId, count: u64) {
        self.counts.insert(row, count);
        if let Some(heap) = &mut self.heap {
            if heap.len() >= 2 * self.capacity {
                let mut entries = std::mem::take(heap).into_vec();
                entries.clear();
                entries.extend(self.counts.iter().map(|(&r, &c)| Reverse((c, r))));
                *heap = BinaryHeap::from(entries);
            } else {
                heap.push(Reverse((count, row)));
            }
        }
    }

    /// Stops tracking `row`.
    pub(crate) fn remove(&mut self, row: RowId) {
        self.counts.remove(&row);
    }

    /// Stops tracking every row.
    pub(crate) fn clear(&mut self) {
        self.counts.clear();
        self.heap = None;
    }

    /// The row with the highest count, ties to the smaller row.
    #[inline]
    pub(crate) fn max(&self) -> Option<(RowId, u64)> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(&r, &c)| (r, c))
    }

    /// The row with the lowest count, ties to the smaller row.
    pub(crate) fn min(&mut self) -> Option<(RowId, u64)> {
        self.repaired_heap()
            .peek()
            .map(|&Reverse((count, row))| (row, count))
    }

    /// Removes and returns the [`min`](Self::min) row.
    pub(crate) fn pop_min(&mut self) -> Option<(RowId, u64)> {
        let Reverse((count, row)) = self.repaired_heap().pop()?;
        self.counts.remove(&row);
        Some((row, count))
    }

    /// Misra-Gries spill: every count drops by one, and rows that reach 0
    /// are evicted.
    pub(crate) fn decrement_all(&mut self) {
        self.counts.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
        self.heap = None;
    }

    /// The heap, built if absent, with its top repaired to the minimum.
    fn repaired_heap(&mut self) -> &mut BinaryHeap<Reverse<(u64, RowId)>> {
        let counts = &self.counts;
        let heap = self
            .heap
            .get_or_insert_with(|| counts.iter().map(|(&r, &c)| Reverse((c, r))).collect());
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((count, row)) = *top;
            match counts.get(&row) {
                Some(&now) if now == count => break,
                Some(&now) if now > count => *top = Reverse((now, row)),
                _ => {
                    PeekMut::pop(top);
                }
            }
        }
        heap
    }

    /// `[len, row₀, count₀, row₁, count₁, …]`, sorted by row id: two
    /// processes holding the same logical table emit identical words.
    /// Loading rebuilds the table entry by entry, enforcing the capacity
    /// and refusing duplicate rows and counts no live entry can hold
    /// ([`check_count`]).
    pub(crate) fn walk(&mut self, c: &mut StateCursor, name: &str) -> Result<(), String> {
        let mut pairs: Vec<(RowId, u64)> = self.counts.iter().map(|(&r, &n)| (r, n)).collect();
        pairs.sort_unstable_by_key(|&(r, _)| r);
        let len = c.count(pairs.len(), self.capacity, name)?;
        let loading = c.is_loading();
        if loading {
            self.clear();
        }
        for i in 0..len {
            let (mut row, mut count) = pairs.get(i).copied().unwrap_or_default();
            c.u32(&mut row.0)?;
            c.u64(&mut count)?;
            check_count(name, row, count)?;
            if loading && self.counts.insert(row, count).is_some() {
                return Err(format!("{name}: duplicate table row {}", row.0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(words: &[u64], capacity: usize) -> Result<CountTable, String> {
        let mut table = CountTable::new(capacity);
        let mut c = StateCursor::loading(words);
        table.walk(&mut c, "test")?;
        c.finish()?;
        Ok(table)
    }

    fn entries(table: &CountTable) -> Vec<(u32, u64)> {
        let mut v: Vec<_> = table.counts.iter().map(|(r, &n)| (r.0, n)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn round_trip_is_canonical() {
        let mut a = CountTable::new(8);
        for (r, n) in [(9u32, 4u64), (1, 7), (5, 2)] {
            a.set(RowId(r), n);
        }
        let mut c = StateCursor::saving();
        a.walk(&mut c, "test").unwrap();
        let words = c.finish().unwrap();
        // Sorted by row regardless of insertion/iteration order.
        assert_eq!(words, vec![3, 1, 7, 5, 2, 9, 4]);
        assert_eq!(entries(&load(&words, 8).unwrap()), entries(&a));
    }

    #[test]
    fn corruption_is_rejected() {
        let err = |words: &[u64], capacity| load(words, capacity).unwrap_err();
        assert!(load(&[], 4).is_err());
        assert!(load(&[2, 1, 1], 4).is_err());
        assert!(err(&[9, 0, 0], 4).contains("exceed capacity 4"));
        assert!(err(&[2, 1, 1, 1, 2], 4).contains("duplicate table row 1"));
        assert!(load(&[1, u64::from(u32::MAX) + 1, 1], 4).is_err());
        // Counts no run reaches: 0 (evicted on the spot; a Misra-Gries
        // spill would wrap it) and 2^63 or more (the next hit overflows).
        assert!(err(&[2, 5, 0, 7, 3], 2).contains("row 5 has count 0"));
        assert!(err(&[1, 5, u64::MAX], 2).contains("outside 1..2^63"));
        assert!(err(&[1, 5, COUNT_LIMIT], 2).contains("outside 1..2^63"));
        assert_eq!(
            entries(&load(&[2, 5, 1, 7, COUNT_LIMIT - 1], 2).unwrap()),
            [(5, 1), (7, COUNT_LIMIT - 1)]
        );
    }

    #[test]
    fn min_and_max_break_ties_towards_the_smaller_row() {
        let mut t = CountTable::new(4);
        for (r, n) in [(8u32, 3u64), (2, 5), (6, 3), (4, 5)] {
            t.set(RowId(r), n);
        }
        assert!(t.is_full());
        assert_eq!(t.min(), Some((RowId(6), 3)));
        assert_eq!(t.max(), Some((RowId(2), 5)));
        // Hits after the heap exists: row 6 climbs past row 8.
        t.increment(RowId(6));
        assert_eq!(t.pop_min(), Some((RowId(8), 3)));
        assert_eq!(t.min(), Some((RowId(6), 4)));
        // A lowered count and a removed row.
        t.set(RowId(2), 1);
        assert_eq!(t.min(), Some((RowId(2), 1)));
        t.remove(RowId(2));
        assert_eq!(t.pop_min(), Some((RowId(6), 4)));
        assert_eq!(t.pop_min(), Some((RowId(4), 5)));
        assert_eq!(t.pop_min(), None);
    }

    #[test]
    fn heap_stays_within_twice_the_capacity() {
        let mut t = CountTable::new(3);
        for r in 0..3 {
            t.set(RowId(r), 1);
        }
        for step in 0..100u64 {
            assert_eq!(t.min().map(|(_, n)| n), Some(1 + step / 3));
            let (row, n) = t.min().unwrap();
            t.set(row, n + 1);
            assert!(t.heap.as_ref().is_some_and(|h| h.len() <= 6));
        }
        t.decrement_all();
        assert!(t.heap.is_none());
        assert_eq!(t.len(), 3);
    }
}
