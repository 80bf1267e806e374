//! The paper's §3 strawman: "extending an excellent serial allocator with a
//! single global lock to protect each (de)allocation is certainly not a
//! good choice, since it will inevitably serialize all allocations and
//! badly hurt scalability."
//!
//! This model is that strawman — a clean dlmalloc-style binned allocator
//! behind one global lock — included as a negative control for the
//! scalability ablation (`make_all --only ablation_serial`). It is *not*
//! part of the paper's studied set, so [`crate::AllocatorKind`] does not
//! include it; build it explicitly with [`SerialLockAllocator::new`].

use tm_sim::{Ctx, IntMap, Sim, SimMutex};

use crate::freelist::FreeList;
use crate::state::HostState;
use crate::{padded, AllocError, Allocator, AllocatorAttrs, HeapSnapshot};

const HEADER: u64 = 16;
const MIN_CHUNK: u64 = 32;
const HEAP_CHUNK: u64 = 1 << 20;

/// Everything but `large` is guarded by the global lock.
#[derive(Clone, Default)]
struct State {
    bump: u64,
    end: u64,
    /// Base of every heap chunk fetched from the OS, for `try_free`.
    heaps: Vec<u64>,
    bins: IntMap<u64, FreeList>,
    /// Large mmap'd blocks: user address → mapped length (the mapping
    /// starts `HEADER` bytes below the user address).
    large: IntMap<u64, u64>,
}

fn bin(chunk: u64) -> impl Fn(&mut State) -> &mut FreeList {
    move |s| s.bins.entry(chunk).or_default()
}

/// A good serial allocator behind one global lock. See module docs.
pub struct SerialLockAllocator {
    mx: SimMutex,
    state: HostState<State>,
}

impl SerialLockAllocator {
    /// Build the strawman: one bump region behind one simulated lock.
    pub fn new(sim: &Sim) -> Self {
        SerialLockAllocator {
            mx: sim.new_mutex(),
            state: HostState::new("serial-lock", sim, State::default()),
        }
    }
}

impl Allocator for SerialLockAllocator {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        ctx.tick(10);
        let chunk = padded(size, HEADER)?.max(MIN_CHUNK);
        if chunk > 128 * 1024 {
            let base = ctx.os_alloc(chunk, 4096);
            ctx.write_u64(base + 8, chunk);
            self.state
                .with(ctx, |s| s.large.insert(base + HEADER, chunk));
            return Ok(base + HEADER);
        }
        // THE global lock: every thread, every operation.
        ctx.lock(self.mx);
        let recycled = self.state.list(ctx, bin(chunk), |bin, ctx| bin.pop(ctx));
        let base = recycled.unwrap_or_else(|| {
            if self.state.with(ctx, |s| s.bump + chunk > s.end) {
                let heap = ctx.os_alloc(HEAP_CHUNK, 4096);
                self.state.with(ctx, |s| {
                    s.bump = heap;
                    s.end = heap + HEAP_CHUNK;
                    s.heaps.push(heap);
                });
            }
            self.state.with(ctx, |s| {
                s.bump += chunk;
                s.bump - chunk
            })
        });
        ctx.write_u64(base + 8, chunk);
        ctx.unlock(self.mx);
        Ok(base + HEADER)
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        let base = addr.wrapping_sub(HEADER);
        // The mapped length of a large block (unregistered here), or `None`.
        let large = self.state.with(ctx, |s| {
            if let Some(len) = s.large.remove(&addr) {
                Ok(Some(len))
            } else if s.heaps.iter().any(|&h| (h..h + HEAP_CHUNK).contains(&base)) {
                Ok(None)
            } else {
                Err(AllocError::UnknownAddress { addr })
            }
        })?;
        ctx.tick(8);
        if let Some(len) = large {
            ctx.tick(300);
            ctx.os_free(base, len);
            return Ok(());
        }
        let chunk = ctx.read_u64(base + 8);
        ctx.lock(self.mx);
        self.state
            .list(ctx, bin(chunk), |bin, ctx| bin.push(ctx, base));
        ctx.unlock(self.mx);
        Ok(())
    }

    fn min_block(&self) -> u64 {
        MIN_CHUNK
    }

    fn snapshot(&self) -> Option<HeapSnapshot> {
        self.state.snapshot()
    }

    fn restore(&self, snap: &HeapSnapshot) {
        self.state.restore(snap)
    }

    fn attributes(&self) -> AllocatorAttrs {
        AllocatorAttrs {
            name: "SerialLock",
            models_version: "strawman (paper §3)",
            metadata: "per block (boundary tags)",
            min_size: MIN_CHUNK,
            fast_path: "none",
            granularity: "1 MB heap chunks",
            synchronization: "one global lock around every (de)allocation",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::MachineConfig;

    #[test]
    fn basic_contract() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = SerialLockAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            let q = a.malloc(ctx, 16);
            assert_eq!(q - p, 32, "dlmalloc-style 32-byte min chunks");
            a.free(ctx, p);
            assert_eq!(a.malloc(ctx, 16), p, "bin reuse");
            a.free(ctx, q);
        });
    }

    #[test]
    fn unrepresentable_sizes_are_exhaustion() {
        crate::testutil::unrepresentable_sizes_are_exhaustion("SerialLock", |sim| {
            std::sync::Arc::new(SerialLockAllocator::new(sim))
        });
    }

    #[test]
    fn foreign_frees_are_refused() {
        crate::testutil::foreign_frees_are_refused("SerialLock", |sim| {
            std::sync::Arc::new(SerialLockAllocator::new(sim))
        });
    }

    #[test]
    fn multithreaded_correctness() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = SerialLockAllocator::new(&sim);
        let all = parking_lot::Mutex::new(Vec::new());
        sim.run(8, |ctx| {
            let mut mine = Vec::new();
            for i in 0..30u64 {
                let p = a.malloc(ctx, 16 + (i % 3) * 16);
                ctx.write_u64(p, i);
                mine.push((p, 16 + (i % 3) * 16));
            }
            all.lock().extend(mine);
        });
        let v = all.into_inner();
        for (i, &(p, s)) in v.iter().enumerate() {
            for &(q, qs) in &v[i + 1..] {
                assert!(p + s <= q || q + qs <= p, "overlap");
            }
        }
    }

    #[test]
    fn serializes_under_contention() {
        // The §3 claim itself: the global lock's wait cycles blow up with
        // thread count while a per-thread-cache design stays near zero.
        let run = |threads| {
            let sim = Sim::new(MachineConfig::xeon_e5405());
            let a = SerialLockAllocator::new(&sim);
            let r = sim.run(threads, |ctx| {
                for _ in 0..60 {
                    let p = a.malloc(ctx, 64);
                    ctx.write_u64(p, 1);
                    a.free(ctx, p);
                }
            });
            r.locks.wait_cycles
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, 0);
        assert!(
            eight > 10_000,
            "8 threads on a global lock must queue (got {eight})"
        );
    }
}
