//! Hoard model (Berger et al. 2000; paper §3.2, version 3.10).
//!
//! * Per-thread heaps (thread id hashes to its heap) of 64 KB superblocks,
//!   each superblock dedicated to one power-of-two size class.
//! * A global heap recycles empty superblocks.
//! * Blocks ≤ 256 bytes go through a synchronization-free thread-local
//!   cache; beyond that every operation locks the heap *and* the
//!   superblock — which is why Hoard's throughput in the paper's Figure 3
//!   drops to Glibc levels past 256 bytes, and why it suffers lock
//!   contention in Intruder (§6).
//! * `free` returns blocks to the superblock they came from (false-sharing
//!   avoidance), requiring the owner heap's lock for large classes.

use tm_sim::{Ctx, IntMap, Sim, SimMutex};

use crate::classes::SizeClasses;
use crate::freelist::FreeList;
use crate::state::HostState;
use crate::{padded, AllocError, Allocator, AllocatorAttrs, HeapSnapshot};

const SB_SIZE: u64 = 64 * 1024;
const SB_SHIFT: u64 = 16;
/// Largest class served from superblocks; bigger requests go to the OS.
const MAX_SMALL: u64 = 8192;
/// Fast-path bound: the thread-local cache serves classes up to this size.
const LOCAL_MAX: u64 = 256;
/// Local cache refill batch and capacity per class. The small capacity is
/// what drives overflow flushes back to the (locked) superblocks — the
/// contention source behind Hoard's Intruder collapse in the paper's §6.
const LOCAL_REFILL: u64 = 4;
const LOCAL_CAP: u64 = 12;

/// One 64 KB superblock; everything but `mx` and `base` is guarded by `mx`.
#[derive(Clone)]
struct Superblock {
    mx: SimMutex,
    base: u64,
    class: usize,
    bump: u64,
    free: FreeList,
    /// Blocks currently handed out.
    used: u64,
    owner_heap: usize,
}

#[derive(Clone, Default)]
struct State {
    /// Every superblock fetched from the OS, named by its index here.
    sbs: Vec<Superblock>,
    /// `addr >> 16` → superblock, for `free`.
    by_addr: IntMap<u64, usize>,
    /// Per heap: class → its current superblock. Guarded by `heap_mx`.
    current: Vec<IntMap<usize, usize>>,
    /// Completely-empty superblocks available for reuse (any class; they are
    /// re-dedicated on reuse). Guarded by `global_mx`.
    spares: Vec<usize>,
    /// Per thread: class → local cache.
    local: Vec<IntMap<usize, FreeList>>,
    /// Large blocks, each its own mapping: address → mapped length.
    large: IntMap<u64, u64>,
}

impl State {
    fn sb_of(&self, addr: u64) -> usize {
        *self
            .by_addr
            .get(&(addr >> SB_SHIFT))
            .expect("hoard model: free of unknown address")
    }
}

/// Thread `tid`'s local cache for `class`, created on first use.
fn local(tid: usize, class: usize) -> impl Fn(&mut State) -> &mut FreeList {
    move |s| s.local[tid].entry(class).or_default()
}

/// The Hoard allocator model. See module docs.
pub struct HoardAllocator {
    classes: SizeClasses,
    /// One lock per heap; a thread's heap is `tid % heap_mx.len()`.
    heap_mx: Vec<SimMutex>,
    global_mx: SimMutex,
    state: HostState<State>,
}

impl HoardAllocator {
    /// Build the model on a simulator (one heap per core, plus heap 0).
    pub fn new(sim: &Sim) -> Self {
        let cores = sim.config().cores;
        HoardAllocator {
            classes: SizeClasses::pow2(16, MAX_SMALL),
            heap_mx: (0..cores).map(|_| sim.new_mutex()).collect(),
            global_mx: sim.new_mutex(),
            state: HostState::new(
                "hoard",
                sim,
                State {
                    current: vec![IntMap::default(); cores],
                    local: vec![IntMap::default(); cores],
                    ..State::default()
                },
            ),
        }
    }

    /// Fetch a superblock for `class` into heap `heap` — from the global
    /// heap's spares or a fresh 64 KB-aligned OS region — and make it the
    /// heap's current one. Caller holds `heap_mx[heap]`.
    fn new_superblock(&self, ctx: &mut Ctx<'_>, heap: usize, class: usize) -> usize {
        // Lock order: heap_mx (held) → global_mx.
        ctx.lock(self.global_mx);
        let spare = self.state.with(ctx, |s| s.spares.pop());
        ctx.unlock(self.global_mx);
        if let Some(id) = spare {
            self.state.with(ctx, |s| {
                let sb = &mut s.sbs[id];
                sb.class = class;
                sb.bump = sb.base;
                sb.free = FreeList::new();
                sb.used = 0;
                sb.owner_heap = heap;
                s.current[heap].insert(class, id);
            });
            ctx.tick(40); // re-dedication bookkeeping
            return id;
        }
        let base = ctx.os_alloc(SB_SIZE, SB_SIZE);
        let mx = ctx.new_mutex();
        self.state.with(ctx, |s| {
            let id = s.sbs.len();
            s.sbs.push(Superblock {
                mx,
                base,
                class,
                bump: base,
                free: FreeList::new(),
                used: 0,
                owner_heap: heap,
            });
            s.by_addr.insert(base >> SB_SHIFT, id);
            s.current[heap].insert(class, id);
            id
        })
    }

    /// Take `n` blocks of `class` from the heap's current superblock (the
    /// paper's slow path: heap lock + superblock lock), fetching a fresh
    /// superblock whenever the current one runs out.
    fn carve(&self, ctx: &mut Ctx<'_>, class: usize, n: u64, out: &mut Vec<u64>) {
        let heap = ctx.tid() % self.heap_mx.len();
        ctx.lock(self.heap_mx[heap]);
        let csize = self.classes.size_of(class);
        let mut need = n;
        while need > 0 {
            let id = match self
                .state
                .with(ctx, |s| s.current[heap].get(&class).copied())
            {
                Some(id) => id,
                None => self.new_superblock(ctx, heap, class),
            };
            let mx = self.state.with(ctx, |s| s.sbs[id].mx);
            ctx.lock(mx);
            while need > 0 {
                // Prefer recycled blocks, then bump-carve.
                let popped = self.state.list_then(
                    ctx,
                    |s| &mut s.sbs[id].free,
                    |fl, ctx| fl.pop(ctx),
                    |s, b| {
                        if b.is_some() {
                            s.sbs[id].used += 1;
                        }
                        b
                    },
                );
                if let Some(b) = popped {
                    out.push(b);
                    need -= 1;
                    continue;
                }
                let bumped = self.state.with(ctx, |s| {
                    let sb = &mut s.sbs[id];
                    (sb.bump + csize <= sb.base + SB_SIZE).then(|| {
                        sb.bump += csize;
                        sb.used += 1;
                        sb.bump - csize
                    })
                });
                match bumped {
                    Some(b) => {
                        ctx.tick(6);
                        out.push(b);
                        need -= 1;
                    }
                    None => break, // superblock exhausted
                }
            }
            ctx.unlock(mx);
            if need > 0 {
                // Exhausted: un-current it and fetch a fresh superblock.
                self.state.with(ctx, |s| s.current[heap].remove(&class));
            }
        }
        ctx.unlock(self.heap_mx[heap]);
    }

    /// Return one block to its superblock (heap lock + superblock lock, the
    /// paper's §3.2 deallocation path). Empty superblocks move to the
    /// global heap.
    fn free_to_superblock(&self, ctx: &mut Ctx<'_>, id: usize, addr: u64) {
        let (owner, mx) = self
            .state
            .with(ctx, |s| (s.sbs[id].owner_heap, s.sbs[id].mx));
        ctx.lock(self.heap_mx[owner]);
        ctx.lock(mx);
        let now_empty = self.state.list_then(
            ctx,
            |s| &mut s.sbs[id].free,
            |fl, ctx| fl.push(ctx, addr),
            |s, ()| {
                s.sbs[id].used -= 1;
                s.sbs[id].used == 0
            },
        );
        ctx.unlock(mx);
        // Below the emptiness threshold: hand it back to the global heap
        // if it is not the heap's current superblock.
        let is_current = |s: &mut State| s.current[owner].get(&s.sbs[id].class) == Some(&id);
        if now_empty && !self.state.with(ctx, is_current) {
            ctx.lock(self.global_mx);
            self.state.with(ctx, |s| s.spares.push(id));
            ctx.unlock(self.global_mx);
        }
        ctx.unlock(self.heap_mx[owner]);
    }
}

impl Allocator for HoardAllocator {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        ctx.tick(10);
        let Some(class) = self.classes.class_of(size) else {
            let len = padded(size, 0)?;
            let base = ctx.os_alloc(len, 4096);
            self.state.with(ctx, |s| s.large.insert(base, len));
            return Ok(base);
        };
        let csize = self.classes.size_of(class);

        if csize <= LOCAL_MAX {
            // Synchronization-free local cache (paper: "recent versions of
            // Hoard make use of thread-private local heaps for small
            // blocks").
            let tid = ctx.tid();
            let mine = local(tid, class);
            if let Some(b) = self.state.list(ctx, &mine, |fl, ctx| fl.pop(ctx)) {
                return Ok(b);
            }
            let mut batch = Vec::with_capacity(LOCAL_REFILL as usize);
            self.carve(ctx, class, LOCAL_REFILL, &mut batch);
            // Hand out the lowest address now and stack the rest so that
            // subsequent pops come back in ascending address order, like
            // the carve order itself.
            let ret = batch.remove(0);
            self.state.list(ctx, &mine, |fl, ctx| {
                for b in batch.into_iter().rev() {
                    fl.push(ctx, b);
                }
            });
            Ok(ret)
        } else {
            let mut one = Vec::with_capacity(1);
            self.carve(ctx, class, 1, &mut one);
            Ok(one[0])
        }
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        // The block's superblock, or `Err` with its mapped length for a
        // large block (unregistered here). A superblock holding a live block
        // is never re-dedicated, so its class and owner stay put while this
        // free runs.
        let block = self.state.with(ctx, |s| {
            if let Some(len) = s.large.remove(&addr) {
                return Ok(Err(len));
            }
            let unknown = AllocError::UnknownAddress { addr };
            let id = *s.by_addr.get(&(addr >> SB_SHIFT)).ok_or(unknown)?;
            Ok(Ok((id, s.sbs[id].class, s.sbs[id].owner_heap)))
        })?;
        ctx.tick(8);
        let (id, class, owner) = match block {
            Ok(block) => block,
            Err(len) => {
                ctx.tick(300); // munmap
                ctx.os_free(addr, len);
                return Ok(());
            }
        };
        let tid = ctx.tid();
        if self.classes.size_of(class) <= LOCAL_MAX && owner == tid % self.heap_mx.len() {
            // Small chunks from the thread's *own* superblocks are freed
            // locally, without synchronization. Blocks owned by another
            // heap take the locked return path (false-sharing avoidance:
            // Hoard sends blocks back to their origin superblock) — the
            // contention source behind Intruder's privatization pattern,
            // where every fragment was allocated by the init thread.
            let mine = local(tid, class);
            let over = self.state.list(ctx, &mine, |fl, ctx| {
                fl.push(ctx, addr);
                fl.len() > LOCAL_CAP
            });
            if over {
                // Flush half of the cache back to the superblocks.
                for _ in 0..(LOCAL_CAP / 2) {
                    if let Some(b) = self.state.list(ctx, &mine, |fl, ctx| fl.pop(ctx)) {
                        let id = self.state.with(ctx, |s| s.sb_of(b));
                        self.free_to_superblock(ctx, id, b);
                    }
                }
            }
        } else {
            self.free_to_superblock(ctx, id, addr);
        }
        Ok(())
    }

    fn min_block(&self) -> u64 {
        16
    }

    fn snapshot(&self) -> Option<HeapSnapshot> {
        self.state.snapshot()
    }

    fn restore(&self, snap: &HeapSnapshot) {
        self.state.restore(snap)
    }

    fn attributes(&self) -> AllocatorAttrs {
        AllocatorAttrs {
            name: "Hoard",
            models_version: "3.10",
            metadata: "per superblock",
            min_size: 16,
            fast_path: "<= 256 B (thread-local cache)",
            granularity: "64 KB per superblock",
            synchronization: "lock per heap and per superblock; local cache sync-free",
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
        crate::testutil::conformance(AllocatorKind::Hoard);
    }

    #[test]
    fn min_spacing_is_16_bytes() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = HoardAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            let q = a.malloc(ctx, 16);
            assert_eq!(q - p, 16, "Hoard hands out exact 16-byte blocks");
        });
    }

    #[test]
    fn no_48_byte_class_rounds_to_64() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = HoardAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 48);
            let q = a.malloc(ctx, 48);
            assert_eq!(q - p, 64, "48-byte requests use the 64-byte class (§5.3)");
        });
    }

    #[test]
    fn superblocks_are_64k_aligned() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = HoardAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            assert_eq!((p >> SB_SHIFT) << SB_SHIFT, p & !(SB_SIZE - 1));
            assert_eq!((p & !(SB_SIZE - 1)) % SB_SIZE, 0);
        });
    }

    #[test]
    fn threads_use_distinct_superblocks() {
        // Per-thread heaps mean two threads' small blocks never share a
        // superblock — Hoard's false-sharing avoidance.
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = HoardAllocator::new(&sim);
        let addrs = Mutex::new(Vec::new());
        sim.run(4, |ctx| {
            let p = a.malloc(ctx, 16);
            addrs.lock().push((ctx.tid(), p & !(SB_SIZE - 1)));
        });
        let v = addrs.into_inner();
        for &(t1, sb1) in &v {
            for &(t2, sb2) in &v {
                if t1 != t2 {
                    assert_ne!(sb1, sb2, "threads {t1}/{t2} share a superblock");
                }
            }
        }
    }

    #[test]
    fn empty_superblock_recycled_through_global_heap() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = HoardAllocator::new(&sim);
        sim.run(1, |ctx| {
            // Fill and free a whole large-class superblock (class 8192:
            // 8 blocks per superblock), twice, then check the OS was only
            // asked once for that class's superblock... indirectly: the
            // second round must reuse the same addresses.
            let round1: Vec<u64> = (0..8).map(|_| a.malloc(ctx, 8192)).collect();
            for &p in &round1 {
                a.free(ctx, p);
            }
            let round2: Vec<u64> = (0..8).map(|_| a.malloc(ctx, 8192)).collect();
            for &p in &round2 {
                assert!(
                    round1.contains(&p),
                    "second round should recycle first-round blocks"
                );
            }
        });
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = HoardAllocator::new(&sim);
        // Prefix: seed local caches and push an emptied superblock onto the
        // global spare list (class 8192: 8 blocks per superblock).
        sim.run(2, |ctx| {
            if ctx.tid() == 0 {
                let small: Vec<u64> = (0..6).map(|_| a.malloc(ctx, 16)).collect();
                for &b in &small[..3] {
                    a.free(ctx, b);
                }
                let big: Vec<u64> = (0..16).map(|_| a.malloc(ctx, 8192)).collect();
                for b in big {
                    a.free(ctx, b);
                }
            } else {
                let _ = a.malloc(ctx, 64);
            }
        });
        let machine = sim.snapshot(None);
        let heap = a.snapshot().expect("hoard supports snapshots");
        let round = |sim: &Sim, a: &HoardAllocator| {
            let log = Mutex::new(Vec::new());
            sim.run(2, |ctx| {
                let mut mine = Vec::new();
                for i in 0..10u64 {
                    mine.push(a.malloc(ctx, 16 << (i % 4)));
                }
                // Re-dedicates a spare superblock to a fresh class, which
                // restore must re-dedicate back.
                mine.push(a.malloc(ctx, 2048));
                let big = a.malloc(ctx, 100 * 1024); // large path
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
    fn large_objects_go_to_os() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = HoardAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 100 * 1024);
            ctx.write_u64(p, 1);
            a.free(ctx, p);
        });
    }
}
