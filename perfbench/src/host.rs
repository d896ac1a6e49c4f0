//! Host-speed reference. The benchmark's host is a shared virtual machine
//! whose speed swings by up to 1.6× over seconds (co-tenants on the same
//! physical cores), with no steal time to show for it. A fixed kernel,
//! owned by the benchmark and therefore the same on every commit, is timed
//! between units of measured work; each unit's host time is then scaled by
//! `REFERENCE_NS / kernel time`, i.e. expressed at the speed the host has
//! when the kernel takes [`REFERENCE_NS`]. A change to the program moves
//! the measured work but never the kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Kernel time (ns) that defines the reference speed: its typical time on
/// the 2-vCPU x86-64 host the benchmark was built on, rounded. Scaled
/// results are host seconds at that speed.
pub const REFERENCE_NS: f64 = 3.6e6;

/// Steps of the kernel's table part…
const TABLE_STEPS: u32 = 40_000;
/// …and of its allocation part. Weighted about 30:70 by time: in trials
/// over four minutes of host drift, that mix followed set-up, tracker-
/// and planner-bound cells better than either part alone.
const ALLOC_STEPS: u32 = 20_000;

/// Words in the kernel's table: 256 KiB, beyond L1, like the
/// simulator's per-bank tracker and queue state.
const TABLE_WORDS: usize = 1 << 15;

/// Buffers the allocation part keeps live at once.
const LIVE_BUFFERS: usize = 256;

/// The reference kernel and its working memory.
pub struct HostClock {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    /// The last kernel time (ns), so consecutive work units share the
    /// measurement between them.
    last_ns: f64,
}

impl HostClock {
    /// Allocates the kernel's memory and takes a first reading.
    pub fn new() -> Self {
        let mut clock = Self {
            table: vec![0; TABLE_WORDS],
            heap: BinaryHeap::with_capacity(64),
            last_ns: 0.0,
        };
        clock.read();
        clock
    }

    /// Runs the kernel once and returns its host time (ns). It mixes
    /// what the program does: a random read-modify-write in a table,
    /// data-dependent branches, a priority-queue push/pop and now and
    /// then a min-scan over a 512-entry window; then allocator churn —
    /// short-lived vectors of 8 to 263 words, filled, a few hundred live.
    pub fn read(&mut self) -> f64 {
        let t = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..TABLE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let idx = (x as usize) & mask;
            self.table[idx] = self.table[idx].wrapping_add(x);
            acc ^= self.table[(acc as usize ^ idx) & mask];
            if acc & 1 == 0 {
                acc = acc.rotate_left(7) / ((x >> 60) | 1);
            } else {
                acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            if self.heap.len() < 64 {
                self.heap.push(Reverse(x >> 40));
            } else if let Some(Reverse(m)) = self.heap.pop() {
                acc = acc.wrapping_add(m);
            }
            if i % 64 == 0 {
                let base = idx & !511;
                let min = self.table[base..base + 512]
                    .iter()
                    .copied()
                    .min()
                    .unwrap_or(0);
                acc ^= min;
            }
        }
        self.heap.clear();
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE_BUFFERS);
        for _ in 0..ALLOC_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = 8 + (x as usize & 255);
            let mut v = Vec::with_capacity(n);
            v.extend((0..n as u64).map(|k| k ^ x));
            if live.len() < LIVE_BUFFERS {
                live.push(v);
            } else {
                let j = (x >> 20) as usize % LIVE_BUFFERS;
                acc ^= live[j][0];
                live[j] = v;
            }
        }
        std::hint::black_box((acc, live));
        self.last_ns = t.elapsed().as_nanos() as f64;
        self.last_ns
    }

    /// The last reading (ns).
    pub fn last(&self) -> f64 {
        self.last_ns
    }
}

/// Host time `measured_s`, taken between kernel readings `before_ns` and
/// `after_ns`, expressed at the reference speed.
pub fn at_reference(measured_s: f64, before_ns: f64, after_ns: f64) -> f64 {
    measured_s * REFERENCE_NS / ((before_ns + after_ns) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_kernel() {
        // A host running at half the reference speed takes twice as long
        // over the kernel, so its measured time counts half.
        assert_eq!(
            at_reference(2.0, 2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS),
            1.0
        );
        assert_eq!(at_reference(1.0, REFERENCE_NS, REFERENCE_NS), 1.0);
        let mut clock = HostClock::new();
        assert!(clock.read() > 0.0);
        assert_eq!(clock.read(), clock.last());
    }
}
