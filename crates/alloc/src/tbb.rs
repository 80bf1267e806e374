//! Intel TBBMalloc model (paper §3.3, version 4.1).
//!
//! * Thread-private heaps: each thread owns 16 KB superblocks, one per size
//!   class, and allocates from a *private* free list or the superblock bump
//!   pointer with no synchronization at all.
//! * Remote frees go to the owning superblock's *public* free list, each
//!   protected by its own spinlock; the owner drains the public list into
//!   its private one when the private list runs dry.
//! * Fresh superblocks come from a global heap that splits 1 MB OS chunks
//!   into 16 KB superblocks (so superblocks are 16 KB aligned — a much
//!   finer alignment than Glibc's 64 MB arenas, which is why TBB does not
//!   trigger the ORT aliasing of §5.2).
//! * Requests of 8 KB or more go straight to the OS (the knee in the
//!   paper's Figure 3).

use tm_sim::{Ctx, IntMap, Sim, SimMutex};

use crate::classes::SizeClasses;
use crate::freelist::FreeList;
use crate::state::HostState;
use crate::{padded, AllocError, Allocator, AllocatorAttrs, HeapSnapshot};

const SB_SIZE: u64 = 16 * 1024;
const SB_SHIFT: u64 = 14;
const OS_CHUNK: u64 = 1 << 20;
/// Requests at or above this bypass the heaps (paper: "< 8 KB" fast path).
const BIG: u64 = 8 * 1024;

#[derive(Clone, Copy)]
struct Superblock {
    class: usize,
    owner: usize,
    public_mx: SimMutex,
    /// Remote frees land here; guarded by `public_mx`.
    public: FreeList,
    /// Bump state, owner-only access (thread-private by design).
    bump: u64,
    end: u64,
}

#[derive(Clone, Default)]
struct Bin {
    private: FreeList,
    /// Superblocks owned by this thread for this class, most recent last.
    sbs: Vec<usize>,
}

#[derive(Clone, Default)]
struct State {
    /// Every superblock carved so far, named by its index here.
    sbs: Vec<Superblock>,
    /// `addr >> 14` → superblock, for `free`.
    by_addr: IntMap<u64, usize>,
    /// Per thread: class → bin, created on first use.
    bins: Vec<IntMap<usize, Bin>>,
    /// The global heap's current 1 MB OS chunk. Guarded by `global_mx`.
    chunk_bump: u64,
    chunk_end: u64,
    /// Large blocks, each its own mapping: address → mapped length.
    large: IntMap<u64, u64>,
}

/// Thread `tid`'s private free list for `class`.
fn private(tid: usize, class: usize) -> impl Fn(&mut State) -> &mut FreeList {
    move |s| &mut s.bins[tid].entry(class).or_default().private
}

/// The TBBMalloc allocator model. See module docs.
pub struct TbbAllocator {
    classes: SizeClasses,
    global_mx: SimMutex,
    state: HostState<State>,
}

impl TbbAllocator {
    /// Build the model on a simulator (per-thread block lists).
    pub fn new(sim: &Sim) -> Self {
        TbbAllocator {
            classes: SizeClasses::tbb(BIG - 64),
            global_mx: sim.new_mutex(),
            state: HostState::new(
                "tbb",
                sim,
                State {
                    bins: vec![IntMap::default(); sim.config().cores],
                    ..State::default()
                },
            ),
        }
    }

    /// Obtain a fresh superblock base from the global heap (spinlocked),
    /// splitting a new 1 MB OS chunk when the current one is exhausted.
    fn fetch_sb_base(&self, ctx: &mut Ctx<'_>) -> u64 {
        ctx.lock(self.global_mx);
        if self.state.with(ctx, |s| s.chunk_bump >= s.chunk_end) {
            let chunk = ctx.os_alloc(OS_CHUNK, SB_SIZE);
            self.state.with(ctx, |s| {
                s.chunk_bump = chunk;
                s.chunk_end = chunk + OS_CHUNK;
            });
        }
        let base = self.state.with(ctx, |s| {
            s.chunk_bump += SB_SIZE;
            s.chunk_bump - SB_SIZE
        });
        ctx.tick(30);
        ctx.unlock(self.global_mx);
        base
    }
}

impl Allocator for TbbAllocator {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        ctx.tick(9);
        let Some(class) = self.classes.class_of(size) else {
            let len = padded(size, 0)?;
            let base = ctx.os_alloc(len, 4096);
            self.state.with(ctx, |s| s.large.insert(base, len));
            return Ok(base);
        };
        let csize = self.classes.size_of(class);
        let tid = ctx.tid();
        let mine = private(tid, class);

        // 1. Private free list: completely synchronization-free.
        if let Some(b) = self.state.list(ctx, &mine, |fl, ctx| fl.pop(ctx)) {
            return Ok(b);
        }

        // 2. Drain the public free lists of our superblocks (spinlock each;
        // only inspected when the private list is empty — paper §3.3).
        let my_sbs = self.state.with(ctx, |s| s.bins[tid][&class].sbs.clone());
        for &id in &my_sbs {
            let sb = self.state.with(ctx, |s| s.sbs[id]);
            if !sb.public.is_empty() {
                ctx.lock(sb.public_mx);
                let moved = self.state.list(
                    ctx,
                    |s| &mut s.sbs[id].public,
                    |public, ctx| {
                        self.state.list(ctx, &mine, |private, ctx| {
                            public.transfer(ctx, private, u64::MAX)
                        })
                    },
                );
                ctx.unlock(sb.public_mx);
                if moved > 0 {
                    let b = self.state.list(ctx, &mine, |fl, ctx| fl.pop(ctx));
                    return Ok(b.expect("just transferred"));
                }
            }
        }

        // 3. Bump-carve from the newest superblock (owner-only, sync-free).
        if let Some(&id) = my_sbs.last() {
            let bumped = self.state.with(ctx, |s| {
                let sb = &mut s.sbs[id];
                (sb.bump + csize <= sb.end).then(|| {
                    sb.bump += csize;
                    sb.bump - csize
                })
            });
            if let Some(b) = bumped {
                ctx.tick(5);
                return Ok(b);
            }
        }

        // 4. New superblock from the global heap; its first block is ours.
        let base = self.fetch_sb_base(ctx);
        let public_mx = ctx.new_mutex();
        self.state.with(ctx, |s| {
            let id = s.sbs.len();
            s.sbs.push(Superblock {
                class,
                owner: tid,
                public_mx,
                public: FreeList::new(),
                bump: base + csize,
                end: base + SB_SIZE,
            });
            s.by_addr.insert(base >> SB_SHIFT, id);
            s.bins[tid].entry(class).or_default().sbs.push(id);
        });
        Ok(base)
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        // The block's superblock, or `Err` with its mapped length for a
        // large block (unregistered here).
        let block = self.state.with(ctx, |s| {
            if let Some(len) = s.large.remove(&addr) {
                return Ok(Err(len));
            }
            let unknown = AllocError::UnknownAddress { addr };
            let id = *s.by_addr.get(&(addr >> SB_SHIFT)).ok_or(unknown)?;
            Ok(Ok((id, s.sbs[id])))
        })?;
        ctx.tick(7);
        let (id, sb) = match block {
            Ok(block) => block,
            Err(len) => {
                ctx.tick(300); // munmap
                ctx.os_free(addr, len);
                return Ok(());
            }
        };
        let tid = ctx.tid();
        if sb.owner == tid {
            // Local free: push on the private list, no synchronization.
            self.state
                .list(ctx, private(tid, sb.class), |fl, ctx| fl.push(ctx, addr));
        } else {
            // Remote free: the owning superblock's public list, spinlocked.
            ctx.lock(sb.public_mx);
            self.state
                .list(ctx, |s| &mut s.sbs[id].public, |fl, ctx| fl.push(ctx, addr));
            ctx.unlock(sb.public_mx);
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
            name: "TBBMalloc",
            models_version: "4.1",
            metadata: "per size class",
            min_size: 8,
            fast_path: "< 8 KB (private free lists)",
            granularity: "16 KB per size class",
            synchronization: "spinlock per public free list; private lists sync-free",
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
        crate::testutil::conformance(AllocatorKind::TbbMalloc);
    }

    #[test]
    fn min_spacing_is_16_bytes_for_16b_requests() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TbbAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            let q = a.malloc(ctx, 16);
            assert_eq!(q - p, 16);
        });
    }

    #[test]
    fn exact_48_byte_class() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TbbAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 48);
            let q = a.malloc(ctx, 48);
            assert_eq!(q - p, 48, "TBB has an exact 48-byte class (§5.3)");
        });
    }

    #[test]
    fn superblocks_are_16k_aligned() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TbbAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            assert_eq!((p & !(SB_SIZE - 1)) % SB_SIZE, 0);
        });
    }

    #[test]
    fn remote_free_lands_on_public_list_and_is_drained() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TbbAllocator::new(&sim);
        let handoff = Mutex::new(Vec::new());
        sim.run(2, |ctx| {
            if ctx.tid() == 0 {
                // Allocate, publish, then exhaust private storage and
                // verify remote-freed blocks come back.
                let blocks: Vec<u64> = (0..8).map(|_| a.malloc(ctx, 32)).collect();
                handoff.lock().extend(blocks.iter().copied());
                ctx.tick(500_000); // wait for thread 1 to free them
                ctx.fence();
                let again = a.malloc(ctx, 32);
                // The drained public list must recycle one of our blocks
                // before any new superblock is carved.
                assert!(
                    blocks.contains(&again) || again > blocks[7],
                    "unexpected address {again:#x}"
                );
            } else {
                ctx.tick(100_000);
                ctx.fence();
                let blocks: Vec<u64> = std::mem::take(&mut *handoff.lock());
                for b in blocks {
                    a.free(ctx, b);
                }
            }
        });
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TbbAllocator::new(&sim);
        // Prefix: both threads own superblocks and the cross-thread free
        // leaves a block on thread 0's public list.
        let stash = Mutex::new(0u64);
        sim.run(2, |ctx| {
            if ctx.tid() == 0 {
                let p = a.malloc(ctx, 32);
                let _q = a.malloc(ctx, 32);
                *stash.lock() = p;
            } else {
                let _ = a.malloc(ctx, 64);
                ctx.tick(100_000);
                ctx.fence();
                let p = *stash.lock();
                a.free(ctx, p); // remote free → public list
            }
        });
        let machine = sim.snapshot(None);
        let heap = a.snapshot().expect("tbb supports snapshots");
        let round = |sim: &Sim, a: &TbbAllocator| {
            let log = Mutex::new(Vec::new());
            sim.run(2, |ctx| {
                let mut mine = Vec::new();
                for i in 0..10u64 {
                    mine.push(a.malloc(ctx, 8 << (i % 4)));
                }
                // A class untouched in the prefix: forces a post-snapshot
                // superblock that restore must drop from the registry.
                mine.push(a.malloc(ctx, 4096));
                let big = a.malloc(ctx, 9000); // large path
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
    }

    #[test]
    fn big_requests_bypass_heaps() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = TbbAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 8 * 1024);
            ctx.write_u64(p, 1);
            a.free(ctx, p);
        });
    }
}
