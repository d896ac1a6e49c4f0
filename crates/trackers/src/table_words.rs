//! Canonical walk shared by the hash-table trackers' checkpoint state
//! (Graphene, Mithril, ProTRR, PRCT).
//!
//! A `HashMap<RowId, u64>` iterates in a per-process random order, so the
//! walk visits entries sorted by row id: two processes holding the same
//! logical table emit identical words. That canonicalization is sound
//! because every table tracker breaks selection ties with a total
//! `(count, row)` order — no decision depends on map iteration order.

use mint_core::StateCursor;
use mint_dram::RowId;
use std::collections::HashMap;

/// `[len, row₀, count₀, row₁, count₁, …]`, sorted by row id. Loading
/// rebuilds the table entry by entry, enforcing `capacity` and rejecting
/// duplicate rows.
pub(crate) fn walk_table(
    c: &mut StateCursor,
    name: &str,
    capacity: usize,
    table: &mut HashMap<RowId, u64>,
) -> Result<(), String> {
    let mut pairs: Vec<(RowId, u64)> = table.iter().map(|(r, n)| (*r, *n)).collect();
    pairs.sort_unstable_by_key(|(r, _)| r.0);
    let len = c.count(pairs.len(), capacity, name)?;
    let loading = c.is_loading();
    if loading {
        table.clear();
    }
    for i in 0..len {
        let (mut row, mut count) = pairs.get(i).copied().unwrap_or_default();
        c.u32(&mut row.0)?;
        c.u64(&mut count)?;
        if loading && table.insert(row, count).is_some() {
            return Err(format!("{name}: duplicate table row {}", row.0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(words: &[u64], capacity: usize) -> Result<HashMap<RowId, u64>, String> {
        let mut table = HashMap::new();
        let mut c = StateCursor::loading(words);
        walk_table(&mut c, "test", capacity, &mut table)?;
        c.finish()?;
        Ok(table)
    }

    #[test]
    fn round_trip_is_canonical() {
        let mut a = HashMap::new();
        for (r, c) in [(9u32, 4u64), (1, 7), (5, 2)] {
            a.insert(RowId(r), c);
        }
        let mut c = StateCursor::saving();
        walk_table(&mut c, "test", 8, &mut a).unwrap();
        let words = c.finish().unwrap();
        // Sorted by row regardless of insertion/iteration order.
        assert_eq!(words, vec![3, 1, 7, 5, 2, 9, 4]);
        assert_eq!(load(&words, 8), Ok(a));
    }

    #[test]
    fn corruption_is_rejected() {
        assert!(load(&[], 4).is_err());
        assert!(load(&[2, 1, 1], 4).is_err());
        assert!(load(&[9, 0, 0], 4)
            .unwrap_err()
            .contains("exceed capacity 4"));
        assert!(load(&[2, 1, 1, 1, 2], 4)
            .unwrap_err()
            .contains("duplicate table row 1"));
        assert!(load(&[1, u64::from(u32::MAX) + 1, 0], 4).is_err());
    }
}
