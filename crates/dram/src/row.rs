//! Row identifiers and neighbourhood arithmetic.

use std::fmt;

/// Identifies a DRAM row within a bank.
///
/// The paper notes that DRAM vendors use proprietary internal row mappings;
/// the security analysis is mapping-agnostic, so we use logical row numbers
/// throughout. The public field keeps construction
/// ergonomic in tests and attack generators: `RowId(42)`.
///
/// # Examples
///
/// ```
/// use mint_dram::RowId;
/// let r = RowId(100);
/// assert_eq!(r.offset(2), Some(RowId(102)));
/// assert_eq!(r.offset(-2), Some(RowId(98)));
/// assert_eq!(RowId(1).offset(-2), None); // falls off the edge of the bank
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub u32);

impl RowId {
    /// Returns the row `delta` positions away, or `None` if that would fall
    /// outside the non-negative row space. Callers that also know the bank
    /// size should additionally bound-check against it (see
    /// [`Bank::contains`](crate::Bank::contains)).
    #[must_use]
    pub fn offset(self, delta: i64) -> Option<RowId> {
        let v = i64::from(self.0) + delta;
        if (0..=i64::from(u32::MAX)).contains(&v) {
            Some(RowId(v as u32))
        } else {
            None
        }
    }

    /// Iterates over the rows within `radius` of `self` on both sides,
    /// excluding `self`, clipped at the low edge of the row space.
    ///
    /// For `radius = 1` this yields the classic victim pair `r−1, r+1`.
    pub fn neighbours(self, radius: u32) -> impl Iterator<Item = RowId> {
        let radius = i64::from(radius);
        (-radius..=radius)
            .filter(|&d| d != 0)
            .filter_map(move |d| self.offset(d))
    }

    /// The value as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

impl From<u32> for RowId {
    fn from(v: u32) -> Self {
        RowId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbours_radius_one() {
        let n: Vec<RowId> = RowId(10).neighbours(1).collect();
        assert_eq!(n, vec![RowId(9), RowId(11)]);
    }

    #[test]
    fn neighbours_radius_two() {
        let n: Vec<RowId> = RowId(10).neighbours(2).collect();
        assert_eq!(n, vec![RowId(8), RowId(9), RowId(11), RowId(12)]);
    }

    #[test]
    fn neighbours_clip_at_zero() {
        let n: Vec<RowId> = RowId(0).neighbours(1).collect();
        assert_eq!(n, vec![RowId(1)]);
        let n: Vec<RowId> = RowId(1).neighbours(2).collect();
        assert_eq!(n, vec![RowId(0), RowId(2), RowId(3)]);
    }

    #[test]
    fn neighbours_radius_zero_is_empty() {
        assert_eq!(RowId(5).neighbours(0).count(), 0);
    }

    #[test]
    fn offset_edges() {
        assert_eq!(RowId(u32::MAX).offset(1), None);
        assert_eq!(RowId(0).offset(-1), None);
        assert_eq!(RowId(0).offset(0), Some(RowId(0)));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(RowId(3).to_string(), "row#3");
    }
}
