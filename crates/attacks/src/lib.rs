//! Rowhammer attack pattern generators.
//!
//! Every attack the paper analyses (and the classics it dismisses) is
//! implemented as an [`AccessPattern`]: a deterministic-given-seed stream of
//! demand activations indexed by `(tREFI index, slot)`. The Monte-Carlo
//! engine in `mint-sim` pulls one slot at a time, so patterns can express
//! idle slots (pattern-1 uses a single activation per tREFI) and
//! tREFI-phase-dependent behaviour (the §VI-B postponement attack).
//!
//! Implemented patterns:
//!
//! * [`SingleSided`], [`DoubleSided`] — the classics (§V-C): guaranteed to
//!   lose against MINT when they use every slot.
//! * [`Pattern1`] — single-row/single-copy, one ACT per tREFI (§V-D).
//! * [`Pattern2`] — multi-row/single-copy, `k` rows per tREFI, including the
//!   multi-tREFI regime `k > MaxACT` (Fig 10).
//! * [`Pattern3`] — multi-row/multi-copy, `c` copies per row (Fig 11).
//! * [`ManySided`] — TRRespass-style round-robin over many aggressors.
//! * [`Blacksmith`] — frequency/phase/amplitude fuzzer patterns,
//!   tREFI-synchronised (§II-F).
//! * [`HalfDouble`] — a single-sided hammer whose real targets are the
//!   distance-2 rows reached by the mitigations themselves (§V-E).
//! * [`PostponementDecoy`] — the §VI-B deterministic attack on low-cost
//!   trackers under refresh postponement (decoys fill the visible window,
//!   the victim absorbs the invisible 4×MaxACT).
//! * [`AdaptiveAttack`] — ADA (Appendix B): pattern-2 until a morphing
//!   point, then repeated hammering of one hopeful row to ride the DMQ.

mod ada;
mod blacksmith;
mod classic;
mod pattern;
mod postpone;

pub use ada::AdaptiveAttack;
pub use blacksmith::{Blacksmith, BlacksmithConfig};
pub use classic::{DoubleSided, HalfDouble, ManySided, SingleSided};
pub use pattern::{Pattern1, Pattern2, Pattern3};
pub use postpone::PostponementDecoy;

use mint_dram::RowId;

/// A stream of demand activations, addressed by refresh-interval index and
/// slot within the interval.
///
/// `None` means the attacker leaves the slot idle (for security analysis an
/// idle slot is equivalent to a decoy activation — paper §V-A — but
/// distinguishing them lets the simulator count real activations).
pub trait AccessPattern {
    /// The activation for `slot` (0-based, `< MaxACT`) of tREFI `refi`.
    fn next_act(&mut self, refi: u64, slot: u32) -> Option<RowId>;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The victim rows whose hammer counts the attack is trying to drive to
    /// the threshold (used by the simulator for focused reporting; the bank
    /// model checks *every* row regardless).
    fn target_victims(&self) -> Vec<RowId>;
}

/// Spacing between attack rows used by multi-row patterns so that no two
/// aggressors share a victim (keeps patterns spatially uncorrelated, §V-F).
pub const ROW_STRIDE: u32 = 4;

/// A named, re-constructible attack pattern: sweep grids (the `mint-exp`
/// fan-outs in `mint-redteam` and `mint-bench`) need a fresh
/// [`AccessPattern`] instance per cell, so a spec carries the factory
/// rather than a pattern value.
pub struct PatternSpec {
    name: &'static str,
    factory: Box<dyn Fn() -> Box<dyn AccessPattern> + Send + Sync>,
}

impl PatternSpec {
    /// Wraps a pattern factory under a stable display name.
    #[must_use]
    pub fn new(
        name: &'static str,
        factory: impl Fn() -> Box<dyn AccessPattern> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name,
            factory: Box::new(factory),
        }
    }

    /// The display name (stable across runs; used as the JSON/table key).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Builds a fresh instance of the pattern.
    #[must_use]
    pub fn build(&self) -> Box<dyn AccessPattern> {
        (self.factory)()
    }
}

impl std::fmt::Debug for PatternSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PatternSpec({})", self.name)
    }
}

/// The canonical red-team grid against a device with `max_act` slots per
/// tREFI: the paper's worst-case direct attacks on MINT (§V-D), chosen so
/// that no pattern re-activates the row that is already open in the row
/// buffer within a tREFI (every slot lands as a genuine ACT when replayed
/// through the command-level channel — consecutive same-row slots would
/// collapse into row-buffer hits there).
///
/// * `pattern-1` — one ACT of a single row per tREFI (MinTRH 2461).
/// * `pattern-2` — `max_act` rows, one ACT each per tREFI (the MinTRH
///   peak at `k = MaxACT`).
/// * `pattern-2-multi` — `2·max_act` rows rotating across tREFIs (the
///   multi-tREFI regime of Fig 10).
/// * `pattern-3` — `max_act/3` rows × 3 interleaved copies (Fig 11).
///
/// Rows start at `base` and stay within `base + 2·max_act·ROW_STRIDE`.
///
/// # Panics
///
/// Panics if `max_act < 3` (pattern-3 needs room for its copies).
#[must_use]
pub fn redteam_patterns(base: RowId, max_act: u32) -> Vec<PatternSpec> {
    assert!(max_act >= 3, "need at least 3 slots per tREFI");
    vec![
        PatternSpec::new("pattern-1", move || Box::new(Pattern1::new(base))),
        PatternSpec::new("pattern-2", move || {
            Box::new(Pattern2::new(base, max_act, max_act))
        }),
        PatternSpec::new("pattern-2-multi", move || {
            Box::new(Pattern2::new(base, 2 * max_act, max_act))
        }),
        PatternSpec::new("pattern-3", move || {
            Box::new(Pattern3::new(base, max_act / 3, 3, max_act))
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redteam_grid_builds_fresh_deterministic_patterns() {
        let specs = redteam_patterns(RowId(4000), 73);
        assert_eq!(specs.len(), 4);
        let names: Vec<&str> = specs.iter().map(PatternSpec::name).collect();
        assert_eq!(
            names,
            vec!["pattern-1", "pattern-2", "pattern-2-multi", "pattern-3"]
        );
        for spec in &specs {
            let mut a = spec.build();
            let mut b = spec.build();
            let mut acts = 0u32;
            for refi in 0..4u64 {
                let mut last: Option<mint_dram::RowId> = None;
                for slot in 0..73u32 {
                    let x = a.next_act(refi, slot);
                    assert_eq!(x, b.next_act(refi, slot), "{} diverged", spec.name());
                    if let Some(row) = x {
                        acts += 1;
                        assert_ne!(
                            Some(row),
                            last,
                            "{}: consecutive slots must change rows",
                            spec.name()
                        );
                        last = Some(row);
                    }
                }
            }
            assert!(acts > 0, "{} must activate something", spec.name());
            assert!(!spec.build().target_victims().is_empty());
        }
    }

    /// All patterns must be deterministic: two fresh instances produce the
    /// same stream.
    #[test]
    fn patterns_are_deterministic() {
        type MakePattern = Box<dyn Fn() -> Box<dyn AccessPattern>>;
        let make: Vec<(&str, MakePattern)> = vec![
            (
                "single",
                Box::new(|| Box::new(SingleSided::new(RowId(100)))),
            ),
            (
                "double",
                Box::new(|| Box::new(DoubleSided::new(RowId(100)))),
            ),
            ("p1", Box::new(|| Box::new(Pattern1::new(RowId(100))))),
            (
                "p2",
                Box::new(|| Box::new(Pattern2::new(RowId(100), 73, 73))),
            ),
            (
                "p3",
                Box::new(|| Box::new(Pattern3::new(RowId(100), 24, 3, 73))),
            ),
            (
                "many",
                Box::new(|| Box::new(ManySided::new(RowId(100), 16))),
            ),
            (
                "postpone",
                Box::new(|| Box::new(PostponementDecoy::new(RowId(5000), RowId(100), 73, 5))),
            ),
        ];
        for (name, ctor) in make {
            let mut a = ctor();
            let mut b = ctor();
            for refi in 0..12u64 {
                for slot in 0..73u32 {
                    assert_eq!(
                        a.next_act(refi, slot),
                        b.next_act(refi, slot),
                        "{name} diverged at ({refi}, {slot})"
                    );
                }
            }
        }
    }
}
