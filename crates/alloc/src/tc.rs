//! TCMalloc model (paper §3.4, gperftools 2.1).
//!
//! * Per-thread caches: one free list per size class, popped/pushed with no
//!   synchronization for blocks up to 256 KB.
//! * A central cache per size class (spinlocked) refills thread caches with
//!   an *incremental* batch size: the first refill moves 1 block, the next
//!   2, then 3, … — the behaviour of the paper's Figure 2. Because central
//!   spans are carved contiguously, consecutive refills hand *adjacent*
//!   blocks to *different* threads, inducing cache false sharing (and, for
//!   the STM, shared ORT stripes) for small classes.
//! * A central page heap (spinlocked) backs the central caches with spans
//!   and serves large allocations directly.
//! * Unlike Hoard/TBB, `free` puts the block in the *current* thread's
//!   cache, not the allocating thread's; a garbage collector returns
//!   excess cached bytes to the central lists.

use tm_sim::{Ctx, IntMap, Sim, SimMutex};

use crate::classes::SizeClasses;
use crate::freelist::FreeList;
use crate::state::HostState;
use crate::{padded, AllocError, Allocator, AllocatorAttrs, HeapSnapshot};

/// Fast-path bound (paper Table 1: "<= 256 KB").
const MAX_SMALL: u64 = 256 * 1024;
/// Span granularity and alignment; the span registry keys on this.
const SPAN_UNIT: u64 = 16 * 1024;
const SPAN_SHIFT: u64 = 14;
/// Page-heap chunk requested from the OS.
const OS_CHUNK: u64 = 1 << 20;
/// Incremental refill cap (gperftools caps the batch growth).
const MAX_BATCH: u64 = 64;
/// Thread-cache GC threshold in bytes.
const CACHE_LIMIT: u64 = 1 << 20;

/// One class's central cache; guarded by `central_mx[class]`.
#[derive(Clone, Default)]
struct Central {
    free: FreeList,
    /// Contiguous span being carved (next, end).
    bump: u64,
    end: u64,
}

#[derive(Clone)]
struct ThreadCache {
    lists: Vec<FreeList>,
    /// Next refill batch size per class (the incremental counter).
    batch: Vec<u64>,
    cached_bytes: u64,
}

#[derive(Clone, Default)]
struct State {
    threads: Vec<ThreadCache>,
    central: Vec<Central>,
    /// The page heap's current OS chunk. Guarded by `page_mx`.
    chunk_bump: u64,
    chunk_end: u64,
    /// `addr >> 14` → size class of the span covering it.
    spans: IntMap<u64, usize>,
    /// Large blocks, each its own mapping: address → mapped length.
    large: IntMap<u64, u64>,
}

/// Thread `tid`'s cache list for `class`.
fn cache(tid: usize, class: usize) -> impl Fn(&mut State) -> &mut FreeList {
    move |s| &mut s.threads[tid].lists[class]
}

/// The TCMalloc allocator model. See module docs.
pub struct TcAllocator {
    classes: SizeClasses,
    central_mx: Vec<SimMutex>,
    page_mx: SimMutex,
    state: HostState<State>,
}

impl TcAllocator {
    /// Build the model on a simulator (per-thread caches + central lists).
    pub fn new(sim: &Sim) -> Self {
        let classes = SizeClasses::tcmalloc(MAX_SMALL);
        let n = classes.len();
        let thread = ThreadCache {
            lists: vec![FreeList::new(); n],
            batch: vec![1; n],
            cached_bytes: 0,
        };
        TcAllocator {
            central_mx: (0..n).map(|_| sim.new_mutex()).collect(),
            page_mx: sim.new_mutex(),
            state: HostState::new(
                "tcmalloc",
                sim,
                State {
                    threads: vec![thread; sim.config().cores],
                    central: vec![Central::default(); n],
                    ..State::default()
                },
            ),
            classes,
        }
    }

    /// Carve a fresh span for `class` from the page heap (lock order:
    /// central_mx held by caller → page_mx).
    fn new_span(&self, ctx: &mut Ctx<'_>, class: usize) -> (u64, u64) {
        let csize = self.classes.size_of(class);
        let span_bytes = ((csize * 32).max(SPAN_UNIT) + SPAN_UNIT - 1) & !(SPAN_UNIT - 1);
        ctx.lock(self.page_mx);
        if self
            .state
            .with(ctx, |s| s.chunk_bump + span_bytes > s.chunk_end)
        {
            let chunk = ctx.os_alloc(OS_CHUNK.max(span_bytes), SPAN_UNIT);
            self.state.with(ctx, |s| {
                s.chunk_bump = chunk;
                s.chunk_end = chunk + OS_CHUNK.max(span_bytes);
            });
        }
        let base = self.state.with(ctx, |s| {
            s.chunk_bump += span_bytes;
            s.chunk_bump - span_bytes
        });
        ctx.tick(60);
        ctx.unlock(self.page_mx);
        self.state.with(ctx, |s| {
            for k in (base..base + span_bytes).step_by(SPAN_UNIT as usize) {
                s.spans.insert(k >> SPAN_SHIFT, class);
            }
        });
        (base, base + span_bytes)
    }

    /// Refill `tid`'s list for `class` with the incremental batch from the
    /// central cache; returns one block for immediate use.
    fn refill(&self, ctx: &mut Ctx<'_>, tid: usize, class: usize) -> u64 {
        let csize = self.classes.size_of(class);
        let n = self.state.with(ctx, |s| {
            let n = s.threads[tid].batch[class];
            s.threads[tid].batch[class] = (n + 1).min(MAX_BATCH);
            n
        });
        ctx.lock(self.central_mx[class]);
        let mut got = Vec::with_capacity(n as usize);
        // Recycled blocks first.
        self.state.list(
            ctx,
            |s| &mut s.central[class].free,
            |free, ctx| {
                while (got.len() as u64) < n {
                    match free.pop(ctx) {
                        Some(b) => got.push(b),
                        None => break,
                    }
                }
            },
        );
        // Then carve contiguously from the span — adjacent addresses, in
        // request order across *all* threads (the Figure 2 behaviour).
        while (got.len() as u64) < n {
            let bumped = self.state.with(ctx, |s| {
                let c = &mut s.central[class];
                (c.bump + csize <= c.end).then(|| {
                    c.bump += csize;
                    c.bump - csize
                })
            });
            match bumped {
                Some(b) => {
                    ctx.tick(4);
                    got.push(b);
                }
                None => {
                    let (bump, end) = self.new_span(ctx, class);
                    self.state.with(ctx, |s| {
                        s.central[class].bump = bump;
                        s.central[class].end = end;
                    });
                }
            }
        }
        ctx.unlock(self.central_mx[class]);

        // Hand out the first block and stack the rest in reverse so pops
        // return them in fetch order (ascending span addresses).
        let ret = got.remove(0);
        let added = got.len() as u64 * csize;
        self.state.list_then(
            ctx,
            cache(tid, class),
            |fl, ctx| {
                for b in got.into_iter().rev() {
                    fl.push(ctx, b);
                }
            },
            |s, ()| s.threads[tid].cached_bytes += added,
        );
        ret
    }

    /// Return half of every list to the central caches once the cache
    /// exceeds its byte budget (TCMalloc's thread-cache GC).
    fn garbage_collect(&self, ctx: &mut Ctx<'_>, tid: usize) {
        for class in 0..self.classes.len() {
            let csize = self.classes.size_of(class);
            let drop_n = self
                .state
                .with(ctx, |s| s.threads[tid].lists[class].len() / 2);
            if drop_n == 0 {
                continue;
            }
            ctx.lock(self.central_mx[class]);
            self.state.list_then(
                ctx,
                cache(tid, class),
                |fl, ctx| {
                    self.state.list(
                        ctx,
                        |s| &mut s.central[class].free,
                        |free, ctx| fl.transfer(ctx, free, drop_n),
                    )
                },
                |s, moved| {
                    let t = &mut s.threads[tid];
                    t.cached_bytes = t.cached_bytes.saturating_sub(moved * csize);
                },
            );
            ctx.unlock(self.central_mx[class]);
        }
    }
}

impl Allocator for TcAllocator {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        ctx.tick(8);
        let Some(class) = self.classes.class_of(size) else {
            let len = padded(size, 0)?;
            let base = ctx.os_alloc(len, 4096);
            self.state.with(ctx, |s| s.large.insert(base, len));
            return Ok(base);
        };
        let tid = ctx.tid();
        let csize = self.classes.size_of(class);
        // Thread-cache fast path: no synchronization.
        let hit = self.state.list_then(
            ctx,
            cache(tid, class),
            |fl, ctx| fl.pop(ctx),
            |s, b| {
                if b.is_some() {
                    let t = &mut s.threads[tid];
                    t.cached_bytes = t.cached_bytes.saturating_sub(csize);
                }
                b
            },
        );
        Ok(match hit {
            Some(b) => b,
            None => self.refill(ctx, tid, class),
        })
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        // The block's size class, or `Err` with its mapped length for a
        // large block (unregistered here).
        let class = self.state.with(ctx, |s| {
            if let Some(len) = s.large.remove(&addr) {
                return Ok(Err(len));
            }
            let unknown = AllocError::UnknownAddress { addr };
            s.spans
                .get(&(addr >> SPAN_SHIFT))
                .map(|&c| Ok(c))
                .ok_or(unknown)
        })?;
        ctx.tick(7);
        let class = match class {
            Ok(class) => class,
            Err(len) => {
                ctx.tick(300); // munmap
                ctx.os_free(addr, len);
                return Ok(());
            }
        };
        let csize = self.classes.size_of(class);
        let tid = ctx.tid();
        // Into the *current* thread's cache — TCMalloc does not return the
        // block to the thread that allocated it (paper §3.4).
        let over = self.state.list_then(
            ctx,
            cache(tid, class),
            |fl, ctx| fl.push(ctx, addr),
            |s, ()| {
                s.threads[tid].cached_bytes += csize;
                s.threads[tid].cached_bytes > CACHE_LIMIT
            },
        );
        if over {
            self.garbage_collect(ctx, tid);
        }
        Ok(())
    }

    fn min_block(&self) -> u64 {
        8
    }

    fn snapshot(&self) -> Option<HeapSnapshot> {
        self.state.snapshot()
    }

    fn restore(&self, snap: &HeapSnapshot) {
        self.state.restore(snap)
    }

    fn attributes(&self) -> AllocatorAttrs {
        AllocatorAttrs {
            name: "TCMalloc",
            models_version: "2.1 (gperftools)",
            metadata: "per size class",
            min_size: 8,
            fast_path: "<= 256 KB (thread cache)",
            granularity: "incremental (1, 2, 3, ... blocks per refill)",
            synchronization: "spinlock per central free list and page heap",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocatorKind;
    use parking_lot::Mutex;
    use tm_sim::MachineConfig;

    #[test]
    fn conformance() {
        crate::testutil::conformance(AllocatorKind::TcMalloc);
    }

    #[test]
    fn exact_small_classes() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TcAllocator::new(&sim);
        sim.run(1, |ctx| {
            // Back-to-back 16-byte allocations: after the first two refills
            // (1 then 2 blocks) spacing settles to 16 bytes.
            let v: Vec<u64> = (0..4).map(|_| a.malloc(ctx, 16)).collect();
            assert_eq!(v[2] - v[1], 16);
            let p = a.malloc(ctx, 48);
            let q = a.malloc(ctx, 48);
            // 48 has its own class; within one refill batch they are 48
            // bytes apart.
            assert_eq!(q - p, 48);
        });
    }

    #[test]
    fn incremental_refill_interleaves_threads() {
        // The paper's Figure 2: two threads alternately allocating 16-byte
        // blocks receive *adjacent* addresses from the shared central span.
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TcAllocator::new(&sim);
        let log = Mutex::new(Vec::new());
        sim.run(2, |ctx| {
            for i in 0..4u64 {
                // Force strict alternation in virtual time.
                ctx.tick(1000 * (ctx.tid() as u64 + 2 * i) + 1);
                let p = a.malloc(ctx, 16);
                log.lock().push((ctx.tid(), p));
            }
        });
        let entries = log.into_inner();
        // At least one pair of blocks owned by different threads must sit
        // within one cache line of each other.
        let mut close_cross_thread = false;
        for &(t1, p1) in &entries {
            for &(t2, p2) in &entries {
                if t1 != t2 && p1 != p2 && p1.abs_diff(p2) < 64 {
                    close_cross_thread = true;
                }
            }
        }
        assert!(
            close_cross_thread,
            "expected cross-thread adjacent blocks, got {entries:#x?}"
        );
    }

    #[test]
    fn batch_size_grows() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TcAllocator::new(&sim);
        sim.run(1, |ctx| {
            // Refill 1: 1 block. Refill 2: 2 blocks. So allocations 1, 2
            // trigger refills but allocation 3 is a cache hit.
            let _ = a.malloc(ctx, 32);
            let _ = a.malloc(ctx, 32);
            let class = a.classes.class_of(32).unwrap();
            let cached = a.state.with(ctx, |s| s.threads[0].lists[class].len());
            assert_eq!(cached, 1, "second refill must have brought 2 blocks");
        });
    }

    #[test]
    fn free_goes_to_current_thread_cache() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TcAllocator::new(&sim);
        let stash = Mutex::new(0u64);
        sim.run(2, |ctx| {
            if ctx.tid() == 0 {
                let p = a.malloc(ctx, 64);
                *stash.lock() = p;
            } else {
                ctx.tick(100_000);
                ctx.fence();
                let p = *stash.lock();
                a.free(ctx, p);
                // The block must now be in *thread 1's* cache: allocating
                // returns it without touching the central cache.
                let q = a.malloc(ctx, 64);
                assert_eq!(q, p);
            }
        });
    }

    #[test]
    fn gc_returns_blocks_to_central() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TcAllocator::new(&sim);
        sim.run(1, |ctx| {
            // Allocate then free enough big-class blocks to cross the cache
            // limit and trigger GC.
            let blocks: Vec<u64> = (0..40).map(|_| a.malloc(ctx, 64 * 1024)).collect();
            for b in blocks {
                a.free(ctx, b);
            }
            let cached = a.state.with(ctx, |s| s.threads[0].cached_bytes);
            assert!(
                cached <= CACHE_LIMIT,
                "GC must keep the cache within budget (got {cached})"
            );
        });
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TcAllocator::new(&sim);
        // Prefix: advance the incremental batch counters and seed central
        // free lists via a GC-triggering burst.
        sim.run(2, |ctx| {
            let blocks: Vec<u64> = (0..12).map(|i| a.malloc(ctx, 16 << (i % 3))).collect();
            for b in blocks {
                a.free(ctx, b);
            }
        });
        let machine = sim.snapshot(None);
        let heap = a.snapshot().expect("tcmalloc supports snapshots");
        let batch_of_16 = |a: &TcAllocator| {
            let class = a.classes.class_of(16).unwrap();
            a.state.with_idle(|s| s.threads[0].batch[class])
        };
        let batch_at_snap = batch_of_16(&a);
        let round = |sim: &Sim, a: &TcAllocator| {
            let log = Mutex::new(Vec::new());
            sim.run(2, |ctx| {
                let mut mine = Vec::new();
                for i in 0..10u64 {
                    mine.push(a.malloc(ctx, 8 << (i % 4)));
                }
                // A class untouched in the prefix: forces a post-snapshot
                // span that restore must drop from the span map.
                mine.push(a.malloc(ctx, 4096));
                let big = a.malloc(ctx, 512 * 1024); // large path
                a.free(ctx, big);
                for &b in mine.iter().rev() {
                    a.free(ctx, b);
                }
                mine.push(big);
                log.lock().push((ctx.tid(), mine));
            });
            log.into_inner()
        };
        let r1 = round(&sim, &a);
        sim.restore(&machine);
        a.restore(&heap);
        let r2 = round(&sim, &a);
        assert_eq!(r1, r2, "restored run must hand out identical addresses");
        // Batch counters must rewind too: a drifted incremental counter
        // changes refill sizes (and so addresses) on longer runs.
        sim.restore(&machine);
        a.restore(&heap);
        assert_eq!(batch_of_16(&a), batch_at_snap);
    }

    #[test]
    fn huge_requests_bypass_thread_cache() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TcAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 512 * 1024);
            ctx.write_u64(p, 1);
            a.free(ctx, p);
        });
    }
}
