//! Per-thread counter rows.
//!
//! [`ShardedSlots`] is a `threads × width` grid of `u64` slots, one row per
//! logical thread, each row padded out to whole 64-byte lines. Thread `tid`
//! records only into row `tid`; readers fold the rows slot-wise.
//!
//! The slots are relaxed atomics only so that a shared `&self` may record
//! from whichever OS thread carries a logical thread. Between two simulated
//! events exactly one logical thread runs, on both executors (DESIGN.md
//! §4.1), so every add is exact and a merge taken between runs sees all of
//! them. Slots are additive: a merged value is the wrapping sum over rows,
//! so ratios and gauges are derived after merging.

use std::sync::atomic::{AtomicU64, Ordering};

const LINE: usize = 64;
const SLOTS_PER_LINE: usize = LINE / std::mem::size_of::<AtomicU64>();

/// A `threads × width` grid of `u64` slots, one padded row per thread.
pub struct ShardedSlots {
    width: usize,
    /// Slots per row, rounded up to a cache-line multiple.
    stride: usize,
    slots: Box<[AtomicU64]>,
}

impl ShardedSlots {
    /// A zeroed grid for `threads` rows of `width` slots each.
    pub fn new(threads: usize, width: usize) -> Self {
        assert!(threads >= 1, "need at least one shard");
        assert!(width >= 1, "need at least one slot");
        let stride = width.div_ceil(SLOTS_PER_LINE) * SLOTS_PER_LINE;
        let slots = (0..threads * stride).map(|_| AtomicU64::new(0)).collect();
        ShardedSlots {
            width,
            stride,
            slots,
        }
    }

    #[inline]
    fn slot(&self, tid: usize, slot: usize) -> &AtomicU64 {
        debug_assert!(slot < self.width);
        &self.slots[tid * self.stride + slot]
    }

    /// Add `delta` to `(tid, slot)`.
    #[inline]
    pub fn add(&self, tid: usize, slot: usize, delta: u64) {
        self.slot(tid, slot).fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite `(tid, slot)` — for per-thread *state* (e.g. the current
    /// allocation region) that rides in the same row as counters.
    #[inline]
    pub fn set(&self, tid: usize, slot: usize, value: u64) {
        self.slot(tid, slot).store(value, Ordering::Relaxed);
    }

    /// Read `(tid, slot)`.
    #[inline]
    pub fn get(&self, tid: usize, slot: usize) -> u64 {
        self.slot(tid, slot).load(Ordering::Relaxed)
    }

    /// Slot-wise sum across all rows.
    pub fn merged(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.width];
        for row in self.slots.chunks(self.stride) {
            for (o, s) in out.iter_mut().zip(row) {
                *o = o.wrapping_add(s.load(Ordering::Relaxed));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_separates_shards() {
        let s = ShardedSlots::new(4, 3);
        // Each row occupies whole cache lines: stride is a multiple of 8
        // slots and at least the width.
        assert_eq!(s.stride % SLOTS_PER_LINE, 0);
        assert!(s.stride >= s.width);
        // 3 slots fit one line; 9 slots need two.
        assert_eq!(ShardedSlots::new(2, 9).stride, 16);
    }

    #[test]
    fn add_merge_reset() {
        let s = ShardedSlots::new(3, 2);
        s.add(0, 0, 5);
        s.add(1, 0, 7);
        s.add(2, 1, 1);
        assert_eq!(s.merged(), vec![12, 1]);
        assert_eq!((s.get(1, 0), s.get(1, 1)), (7, 0));
        s.set(1, 0, 0);
        assert_eq!(s.merged(), vec![5, 1], "a set slot resets its share");
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let s = std::sync::Arc::new(ShardedSlots::new(8, 1));
        std::thread::scope(|scope| {
            for tid in 0..8 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        s.add(tid, 0, 1);
                    }
                });
            }
        });
        assert_eq!(s.merged()[0], 80_000);
    }
}
