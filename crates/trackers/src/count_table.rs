//! The row → count table shared by the counter-table trackers (Mithril,
//! PRCT, ProTRR, Graphene).
//!
//! Every selection follows one total order — the minimum by `(count,
//! smaller row)`, the maximum by `(count, then smaller row)` — so no
//! decision depends on the hash map's per-process iteration order, and
//! the checkpoint walk can emit the entries sorted by row.
//!
//! A tracker pays only for the queries it makes, and neither the minimum
//! nor the maximum scans a large table. A hit is one map increment, plus
//! one push onto a log while the maximum's index exists. The Misra-Gries
//! decrement (once per spill) scans the map.
//!
//! The minimum, which Mithril asks on every miss of a full table, comes
//! from a min-heap of `(count, row)` entries that exists only once the
//! minimum has been asked for, and that a hit never touches:
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
//!
//! The maximum, asked once per REF, scans a table of at most
//! [`SCAN_ROWS`] rows. A larger table keeps an index of candidates, ranked
//! by [`pack`]ed `(count, row)` keys:
//!
//! * a rescan keeps the K = max([`MIN_CANDIDATES`], len /
//!   [`CANDIDATE_SHARE`]) largest keys in a max-heap, and the smallest of
//!   them is the floor: every row outside the heap ranks below it;
//! * while the index exists, `increment` and `set` log the row's new
//!   count; a query folds in the logged keys that reach the floor and are
//!   still current, then pops stale tops (rows whose count moved or that
//!   were removed), and the first top that matches its row's count is
//!   exactly the maximum;
//! * the query rescans when no candidate is left, or when a fold would
//!   grow the heap past [`SLACK`] × K; a log that outgrows the table, a
//!   bulk change, a table that shrinks to [`SCAN_ROWS`] rows and a count
//!   that does not pack drop the index.
//!
//! A rescan comes only once the K rows it kept have been taken as the
//! maximum, lowered below the floor or removed, or once folds have pushed
//! 3K keys, each paid for by a hit. PRCT's rows leave only as the
//! maximum, so it rescans its n rows at most once per K = n/16 REFs: a
//! REF costs amortized O(16 + log n) instead of a scan of n rows, however
//! long the run.

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

/// Tables of at most this many rows answer the maximum by a scan and
/// keep no index, so their hits pay one branch. Below about this size the
/// scan is the cheaper of the two (per-tREFI cost of PRCT, Mithril and
/// ProTRR on skewed streams).
const SCAN_ROWS: usize = 256;

/// A rescan keeps at least this many candidates ...
const MIN_CANDIDATES: usize = 32;

/// ... and at least one row in this many.
const CANDIDATE_SHARE: usize = 16;

/// The candidate heap holds at most this multiple of the rows a rescan
/// kept; a fold that would outgrow it rescans instead, shedding the
/// stale entries.
const SLACK: usize = 4;

/// A row's rank for the maximum in one word: the count above the
/// complement of the row, so a higher count and then a smaller row rank
/// higher. `None` for a count that does not fit 32 bits, which no run
/// reaches but a restored checkpoint may carry; the maximum then scans.
fn pack(count: u64, row: RowId) -> Option<u64> {
    (count <= u64::from(u32::MAX)).then(|| count << 32 | u64::from(!row.0))
}

/// The `(count, row)` a [`pack`]ed key ranks.
fn unpack(key: u64) -> (u64, RowId) {
    (key >> 32, RowId(!(key as u32)))
}

/// The maximum's candidates (see the module docs).
#[derive(Debug, Clone)]
struct MaxIndex {
    /// [`pack`]ed keys at or above `floor`: the largest found at the last
    /// rescan, plus the logged keys folded in since. An entry whose row
    /// no longer has its count is stale.
    candidates: BinaryHeap<u64>,
    /// Every tracked row without a current entry in `candidates` ranks
    /// below this.
    floor: u64,
    /// The number of rows the last rescan kept.
    kept: usize,
    /// The new count of every `increment` and `set` since the last query.
    log: Vec<(u64, RowId)>,
}

impl MaxIndex {
    /// An index of the largest keys in `counts`, which must not be empty;
    /// `None` if a count does not [`pack`].
    fn rescan(counts: &HashMap<RowId, u64>) -> Option<Self> {
        let kept = (counts.len() / CANDIDATE_SHARE).max(MIN_CANDIDATES);
        // The `kept` largest keys so far, smallest on top.
        let mut best = BinaryHeap::with_capacity(kept);
        for (&row, &count) in counts {
            let key = pack(count, row)?;
            if best.len() < kept {
                best.push(Reverse(key));
            } else if let Some(mut least) = best.peek_mut() {
                if key > least.0 {
                    *least = Reverse(key);
                }
            }
        }
        let floor = best.peek().expect("a rescanned table is not empty").0;
        Some(Self {
            candidates: best.into_iter().map(|Reverse(key)| key).collect(),
            floor,
            kept,
            log: Vec::new(),
        })
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
    /// The maximum's candidates; `None` while the table is small, until
    /// the maximum is asked, and again after a bulk change.
    max_index: Option<MaxIndex>,
    /// Entries the maximum queries have read: map entries scanned, logged
    /// keys folded and candidates checked.
    #[cfg(test)]
    visits: usize,
}

impl CountTable {
    /// An empty table of `capacity` entries, allocated up front.
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_map(capacity, HashMap::with_capacity(capacity))
    }

    /// An empty table of `capacity` entries that allocates as rows
    /// arrive (PRCT's one counter per bank row, mostly never touched).
    pub(crate) fn growing(capacity: usize) -> Self {
        Self::with_map(capacity, HashMap::new())
    }

    fn with_map(capacity: usize, counts: HashMap<RowId, u64>) -> Self {
        Self {
            capacity,
            counts,
            heap: None,
            max_index: None,
            #[cfg(test)]
            visits: 0,
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
        let count = *count;
        self.log(row, count);
        Some(count)
    }

    /// Logs `row`'s new count for the maximum's index, if there is one. A
    /// log that outgrows the table drops the index: rescanning is then
    /// cheaper than folding.
    #[inline]
    fn log(&mut self, row: RowId, count: u64) {
        if let Some(index) = &mut self.max_index {
            if index.log.len() < self.counts.len() {
                index.log.push((count, row));
            } else {
                self.max_index = None;
            }
        }
    }

    /// Sets `row`'s count, tracking it if it is not. The caller keeps the
    /// table within its capacity.
    pub(crate) fn set(&mut self, row: RowId, count: u64) {
        self.counts.insert(row, count);
        self.log(row, count);
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
        self.max_index = None;
    }

    /// The row with the highest count, ties to the smaller row.
    pub(crate) fn max(&mut self) -> Option<(RowId, u64)> {
        if self.counts.len() > SCAN_ROWS {
            if let Some(found) = self.indexed_max() {
                return Some(found);
            }
        }
        self.max_index = None;
        #[cfg(test)]
        {
            self.visits += self.counts.len();
        }
        let (count, Reverse(row)) = self.counts.iter().map(|(&r, &c)| (c, Reverse(r))).max()?;
        Some((row, count))
    }

    /// The maximum of a table larger than [`SCAN_ROWS`] from its index;
    /// `None`, with the index dropped, if a count does not [`pack`].
    fn indexed_max(&mut self) -> Option<(RowId, u64)> {
        let counts = &self.counts;
        let mut index = match self.max_index.take() {
            Some(index) => index,
            None => {
                #[cfg(test)]
                {
                    self.visits += counts.len();
                }
                MaxIndex::rescan(counts)?
            }
        };
        #[cfg(test)]
        {
            self.visits += index.log.len();
        }
        let mut full = false;
        for &(count, row) in &index.log {
            let key = pack(count, row)?;
            if key >= index.floor && counts.get(&row) == Some(&count) {
                if index.candidates.len() == SLACK * index.kept {
                    full = true;
                    break;
                }
                index.candidates.push(key);
            }
        }
        index.log.clear();
        loop {
            if full || index.candidates.is_empty() {
                #[cfg(test)]
                {
                    self.visits += counts.len();
                }
                index = MaxIndex::rescan(counts)?;
                full = false;
            }
            let top = *index.candidates.peek()?;
            #[cfg(test)]
            {
                self.visits += 1;
            }
            let (count, row) = unpack(top);
            if counts.get(&row) == Some(&count) {
                self.max_index = Some(index);
                return Some((row, count));
            }
            index.candidates.pop();
        }
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
        self.max_index = None;
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
    use mint_rng::{Rng64, Xoshiro256StarStar};

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

    /// The maximum by a scan of the map: the reference for the index.
    fn scan_max(table: &CountTable) -> Option<(RowId, u64)> {
        let (count, Reverse(row)) = table.counts.iter().map(|(&r, &c)| (c, Reverse(r))).max()?;
        Some((row, count))
    }

    #[test]
    fn the_max_index_agrees_with_a_scan() {
        // Random hits, lowered and raised counts, removals, spills and
        // clears over tables that grow past the scan crossover and
        // shrink back below it.
        for case in 0..40 {
            let mut rng = Xoshiro256StarStar::seed_from_u64(case);
            let span = rng.gen_range_inclusive_u32(200, 800);
            let mut t = CountTable::growing(span as usize);
            for step in 0..3_000 {
                let row = RowId(rng.gen_range_u32(span));
                match rng.gen_range_u32(1000) {
                    0..=599 => {
                        if t.increment(row).is_none() {
                            t.set(row, 1);
                        }
                    }
                    600..=699 => t.set(row, 1 + rng.gen_range_u64(40)),
                    700..=779 => t.remove(row),
                    780..=989 => {
                        let want = scan_max(&t);
                        assert_eq!(t.max(), want, "case {case} step {step}");
                        if let Some((row, count)) = want {
                            match count % 3 {
                                0 => t.remove(row),
                                1 => t.set(row, count / 2 + 1),
                                _ => {}
                            }
                        }
                    }
                    990..=996 => t.decrement_all(),
                    // Counts that climb past 32 bits, where the index
                    // gives way to the scan.
                    997..=998 => t.set(row, u64::from(u32::MAX) - 1),
                    _ => t.clear(),
                }
            }
        }
    }

    #[test]
    fn counts_past_32_bits_fall_back_to_the_scan() {
        let mut t = CountTable::growing(1024);
        for r in 0..300 {
            t.set(RowId(r), 5);
        }
        let big = u64::from(u32::MAX);
        t.set(RowId(7), big);
        assert_eq!(t.max(), Some((RowId(7), big)));
        assert!(t.max_index.is_some(), "2^32 - 1 still packs");
        t.increment(RowId(7));
        assert_eq!(t.max(), Some((RowId(7), big + 1)));
        assert!(t.max_index.is_none());
        t.remove(RowId(7));
        assert_eq!(t.max(), Some((RowId(0), 5)));
        assert!(t.max_index.is_some());
    }

    #[test]
    fn a_prct_stream_visits_a_bounded_number_of_entries_per_max() {
        // PRCT's shape: fresh rows arrive for good and a max-and-remove
        // comes every 16 operations, so the table grows without bound.
        // A scan would read the whole table (about 47,000 entries on
        // average); the index reads a constant number.
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let mut t = CountTable::growing(1 << 20);
        let mut queries = 0;
        for op in 1..=128_000u32 {
            if op % 16 == 0 {
                let (row, _) = t.max().expect("rows keep arriving");
                t.remove(row);
                queries += 1;
                continue;
            }
            // Mostly fresh rows; some revisit one of the last 64.
            let row = if op % 4 == 0 {
                RowId(op - 1 - rng.gen_range_u32(op.min(64)))
            } else {
                RowId(op)
            };
            if t.increment(row).is_none() {
                t.set(row, 1);
            }
        }
        assert!(t.len() > 80_000, "{} rows", t.len());
        let mean = t.visits / queries;
        assert!(mean < 64, "{mean} entries visited per query");
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
