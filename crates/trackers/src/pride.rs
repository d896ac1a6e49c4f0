//! PrIDE: PARA sampling into a small FIFO (paper §IX related work).

use mint_core::{InDramTracker, MitigationDecision, StateCursor};
use mint_dram::RowId;
use mint_rng::Rng64;
use std::collections::VecDeque;

/// PrIDE (ISCA 2024), as characterised in MINT §IX: each activation is
/// sampled with probability `p` (1/73); sampled rows enter a small FIFO
/// (4 entries) instead of a single register, and each REF mitigates the
/// FIFO head.
///
/// The FIFO reduces InDRAM-PARA's *loss* (a sampled row being dropped)
/// from 63% to about 10%, but introduces *tardiness*: a sampled row can
/// wait several tREFI behind earlier samples before being mitigated. MINT
/// has zero loss and zero tardiness by construction, which is why PrIDE's
/// MinTRH-D (1750) sits 25% above MINT's (paper §IX).
///
/// # Examples
///
/// ```
/// use mint_core::InDramTracker;
/// use mint_dram::RowId;
/// use mint_rng::Xoshiro256StarStar;
/// use mint_trackers::Pride;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(7);
/// let mut pride = Pride::new(1.0 / 73.0, 4);
/// for _ in 0..73 {
///     pride.on_activation(RowId(8), &mut rng);
/// }
/// let _maybe = pride.on_refresh(&mut rng); // head of FIFO, if anything sampled
/// ```
#[derive(Debug, Clone)]
pub struct Pride {
    p: f64,
    capacity: usize,
    fifo: VecDeque<RowId>,
    /// Samples dropped because the FIFO was full (PrIDE's ~10% loss).
    lost: u64,
}

impl Pride {
    /// Creates a PrIDE tracker with sampling probability `p` and FIFO depth
    /// `capacity` (4 in the paper).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1` and `capacity > 0`.
    #[must_use]
    pub fn new(p: f64, capacity: usize) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0, 1]"
        );
        assert!(capacity > 0, "PrIDE FIFO needs at least one entry");
        Self {
            p,
            capacity,
            fifo: VecDeque::with_capacity(capacity),
            lost: 0,
        }
    }

    /// Samples currently waiting for mitigation.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.fifo.len()
    }

    /// Samples dropped to a full FIFO so far.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

impl InDramTracker for Pride {
    fn on_activation(&mut self, row: RowId, rng: &mut dyn Rng64) -> Option<MitigationDecision> {
        if rng.gen_bool(self.p) {
            if self.fifo.len() < self.capacity {
                self.fifo.push_back(row);
            } else {
                self.lost += 1;
            }
        }
        None
    }

    fn on_refresh(&mut self, _rng: &mut dyn Rng64) -> MitigationDecision {
        match self.fifo.pop_front() {
            Some(row) => MitigationDecision::Aggressor(row),
            None => MitigationDecision::None,
        }
    }

    fn name(&self) -> &'static str {
        "PrIDE"
    }

    fn live_entries(&self) -> usize {
        self.fifo.len()
    }

    fn overflow_count(&self) -> u64 {
        self.lost
    }

    fn entries(&self) -> usize {
        self.capacity
    }

    /// 18-bit row per FIFO slot.
    fn storage_bits(&self) -> u64 {
        self.capacity as u64 * 18
    }

    fn reset(&mut self, _rng: &mut dyn Rng64) {
        self.fifo.clear();
        self.lost = 0;
    }

    /// `[lost, len, rows…]` in FIFO order (head first).
    fn walk_state(&mut self, c: &mut StateCursor) -> Result<(), String> {
        c.u64(&mut self.lost)?;
        let len = c.count(self.fifo.len(), self.capacity, "PrIDE FIFO")?;
        self.fifo.resize(len, RowId(0));
        self.fifo.iter_mut().try_for_each(|row| c.u32(&mut row.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint_rng::Xoshiro256StarStar;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn loss_rate_far_below_single_register() {
        // Fully-loaded windows, steady state: measure dropped samples.
        let mut r = rng(1);
        let mut pride = Pride::new(1.0 / 73.0, 4);
        let mut samples = 0u64;
        for _ in 0..20_000 {
            for k in 0..73u32 {
                let before = pride.queued();
                pride.on_activation(RowId(k), &mut r);
                if pride.queued() > before {
                    samples += 1;
                }
            }
            let _ = pride.on_refresh(&mut r);
        }
        let total_sampled = samples + pride.lost();
        let loss = pride.lost() as f64 / total_sampled as f64;
        // Paper: ~10% loss with a 4-entry FIFO (vs 63% for 1 register).
        assert!(loss < 0.2, "loss {loss} too high");
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut r = rng(2);
        let mut pride = Pride::new(1.0, 4); // sample everything
        pride.on_activation(RowId(1), &mut r);
        pride.on_activation(RowId(2), &mut r);
        pride.on_activation(RowId(3), &mut r);
        assert!(pride.on_refresh(&mut r).mitigates(RowId(1)));
        assert!(pride.on_refresh(&mut r).mitigates(RowId(2)));
        assert!(pride.on_refresh(&mut r).mitigates(RowId(3)));
        assert!(pride.on_refresh(&mut r).is_none());
    }

    #[test]
    fn full_fifo_drops_new_samples() {
        let mut r = rng(3);
        let mut pride = Pride::new(1.0, 2);
        for i in 0..5u32 {
            pride.on_activation(RowId(i), &mut r);
        }
        assert_eq!(pride.queued(), 2);
        assert_eq!(pride.lost(), 3);
    }

    #[test]
    fn tardiness_exists() {
        // A sample behind 3 others waits 3 REFs: that is PrIDE's tardiness.
        let mut r = rng(4);
        let mut pride = Pride::new(1.0, 4);
        for i in 0..4u32 {
            pride.on_activation(RowId(i), &mut r);
        }
        let mut waited = 0;
        loop {
            let d = pride.on_refresh(&mut r);
            if d.mitigates(RowId(3)) {
                break;
            }
            waited += 1;
        }
        assert_eq!(waited, 3);
    }

    #[test]
    fn metadata() {
        let pride = Pride::new(1.0 / 73.0, 4);
        assert_eq!(pride.entries(), 4);
        assert_eq!(pride.storage_bits(), 72);
        assert_eq!(pride.name(), "PrIDE");
    }

    #[test]
    #[should_panic(expected = "FIFO needs")]
    fn zero_capacity_rejected() {
        let _ = Pride::new(0.5, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut r = rng(5);
        let mut pride = Pride::new(1.0, 4);
        pride.on_activation(RowId(1), &mut r);
        pride.reset(&mut r);
        assert_eq!(pride.queued(), 0);
        assert_eq!(pride.lost(), 0);
    }
}
