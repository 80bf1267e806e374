//! Glibc (ptmalloc2/3) model.
//!
//! Follows the paper's §3.1 and Table 1:
//! * per-block boundary tags (16-byte header in front of user memory), so
//!   the minimum block is 32 bytes and consecutive 16-byte requests land
//!   32 bytes apart — the property that accidentally avoids ORT false
//!   conflicts in the linked-list benchmark (Fig. 5);
//! * binned free lists per chunk size, no coalescing on the fast bins;
//! * per-thread *preferred* arenas protected by one lock each, probed with
//!   `trylock`; if every arena is busy a brand-new arena is created;
//! * arenas aligned to their 64 MB maximum size, which makes blocks from
//!   different arenas alias to the same ORT entries under the STM's
//!   shift-and-modulo mapping (the HashSet anomaly, §5.2).

use tm_sim::{Ctx, IntMap, Sim, SimMutex};

use crate::freelist::FreeList;
use crate::state::HostState;
use crate::{padded, AllocError, Allocator, AllocatorAttrs, HeapSnapshot};

/// Arena reservation size and alignment (64 MB, the paper's figure).
const ARENA_RESERVE: u64 = 64 << 20;
/// Initial arena "commit" (132 KB per the paper's Table 1).
const ARENA_INITIAL: u64 = 132 * 1024;
/// Boundary-tag header size on 64-bit.
const HEADER: u64 = 16;
/// Minimum chunk size on 64-bit (Table 1: even `malloc(0)` takes 32 bytes).
const MIN_CHUNK: u64 = 32;
/// Requests whose chunk exceeds this go straight to the OS (mmap).
const MMAP_THRESHOLD: u64 = 128 * 1024;

/// One arena; everything but `mx` is only touched while holding `mx`.
#[derive(Clone)]
struct Arena {
    mx: SimMutex,
    bump: u64,
    /// Currently "committed" end; growing past it charges a growth cost.
    committed: u64,
    /// End of the 64 MB reservation; 0 until the arena is first used.
    reserved_end: u64,
    /// Free chunks binned by exact chunk size (fast-bin style, LIFO,
    /// no coalescing).
    bins: IntMap<u64, FreeList>,
}

impl Arena {
    fn new(mx: SimMutex) -> Self {
        Arena {
            mx,
            bump: 0,
            committed: 0,
            reserved_end: 0,
            bins: IntMap::default(),
        }
    }
}

#[derive(Clone, Default)]
struct State {
    /// Append-only within a run, named by index; arena 0 is the main arena.
    arenas: Vec<Arena>,
    /// Preferred arena per thread id.
    preferred: Vec<usize>,
    /// `addr >> 26` (64 MB granule) → arena index, for `free`.
    by_region: IntMap<u64, usize>,
    /// Large mmap'd blocks: user address → mapped length (the mapping
    /// starts `HEADER` bytes below the user address).
    large: IntMap<u64, u64>,
}

/// The bin of `chunk`-sized free chunks in arena `idx`. An empty bin pops
/// nothing and touches no simulated memory, so `malloc` may create one.
fn bin(idx: usize, chunk: u64) -> impl Fn(&mut State) -> &mut FreeList {
    move |s| s.arenas[idx].bins.entry(chunk).or_default()
}

/// The Glibc/ptmalloc allocator model. See module docs.
pub struct GlibcAllocator {
    state: HostState<State>,
}

impl GlibcAllocator {
    /// Build the model on a simulator (main arena + per-thread arenas).
    pub fn new(sim: &Sim) -> Self {
        GlibcAllocator {
            state: HostState::new(
                "glibc",
                sim,
                State {
                    arenas: vec![Arena::new(sim.new_mutex())],
                    preferred: vec![0; sim.config().cores],
                    ..State::default()
                },
            ),
        }
    }

    fn chunk_size(size: u64) -> Result<u64, AllocError> {
        Ok(padded(size, HEADER)?.max(MIN_CHUNK))
    }

    /// Lazily back an arena with a fresh 64 MB-aligned reservation. The
    /// caller holds the arena's lock.
    fn ensure_arena_backed(&self, ctx: &mut Ctx<'_>, idx: usize) {
        if self.state.with(ctx, |s| s.arenas[idx].reserved_end == 0) {
            let base = ctx.os_alloc(ARENA_RESERVE, ARENA_RESERVE);
            self.state.with(ctx, |s| {
                s.by_region.insert(base >> 26, idx);
                let arena = &mut s.arenas[idx];
                arena.bump = base;
                arena.committed = base + ARENA_INITIAL;
                arena.reserved_end = base + ARENA_RESERVE;
            });
        }
    }

    /// Pick and lock an arena: try the preferred one, then probe the rest
    /// with trylock, then create a new arena — the ptmalloc algorithm from
    /// the paper's §3.1.
    fn lock_some_arena(&self, ctx: &mut Ctx<'_>) -> (usize, SimMutex) {
        let tid = ctx.tid();
        // Arenas a peer creates while this thread probes are not probed.
        let (start, n) = self.state.with(ctx, |s| {
            let n = s.arenas.len();
            (s.preferred[tid].min(n - 1), n)
        });
        for idx in (0..n).map(|i| (start + i) % n) {
            let mx = self.state.with(ctx, |s| s.arenas[idx].mx);
            ctx.tick(5); // probe overhead
            if ctx.try_lock(mx) {
                self.state.with(ctx, |s| s.preferred[tid] = idx);
                return (idx, mx);
            }
        }
        // All arenas busy: create a new one (registered before locking so
        // concurrent creators make distinct arenas, as glibc does).
        let mx = ctx.new_mutex();
        let idx = self.state.with(ctx, |s| {
            s.arenas.push(Arena::new(mx));
            s.preferred[tid] = s.arenas.len() - 1;
            s.preferred[tid]
        });
        ctx.lock(mx);
        (idx, mx)
    }
}

impl Allocator for GlibcAllocator {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        ctx.tick(12); // entry, size computation
        let chunk = Self::chunk_size(size)?;
        if chunk > MMAP_THRESHOLD {
            let base = ctx.os_alloc(chunk, 4096);
            ctx.write_u64(base + 8, chunk); // tag even for mmap'd chunks
            self.state
                .with(ctx, |s| s.large.insert(base + HEADER, chunk));
            return Ok(base + HEADER);
        }

        let (idx, mx) = self.lock_some_arena(ctx);
        self.ensure_arena_backed(ctx, idx);
        let recycled = self
            .state
            .list(ctx, bin(idx, chunk), |bin, ctx| bin.pop(ctx));
        let base = if let Some(b) = recycled {
            ctx.tick(4);
            b
        } else {
            // Bump allocation from the top of the arena.
            let bumped = self.state.with(ctx, |s| {
                let arena = &mut s.arenas[idx];
                if arena.bump + chunk > arena.reserved_end {
                    return None;
                }
                let b = arena.bump;
                arena.bump += chunk;
                let mut grow = false;
                while arena.bump > arena.committed {
                    arena.committed = (arena.committed + ARENA_INITIAL).min(arena.reserved_end);
                    grow = true;
                }
                Some((b, grow))
            });
            let Some((b, grow)) = bumped else {
                // Organic exhaustion: the 64 MB reservation cannot serve
                // another chunk. Release the arena lock before failing so
                // the error path leaves no lock held.
                ctx.unlock(mx);
                return Err(AllocError::Exhausted { size });
            };
            if grow {
                ctx.tick(800); // sbrk/mprotect-style growth cost
            }
            b
        };
        // Boundary tag: size word in the header, touched on every
        // (de)allocation — Glibc's per-block metadata cost.
        ctx.write_u64(base + 8, chunk);
        ctx.unlock(mx);
        Ok(base + HEADER)
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        let base = addr.wrapping_sub(HEADER);
        // The block's arena, or its mapped length for a large block
        // (unregistered here).
        let arena = self.state.with(ctx, |s| {
            if let Some(len) = s.large.remove(&addr) {
                return Ok(Err(len));
            }
            let unknown = AllocError::UnknownAddress { addr };
            let idx = *s.by_region.get(&(base >> 26)).ok_or(unknown)?;
            Ok(Ok((idx, s.arenas[idx].mx)))
        })?;
        ctx.tick(10);
        let (idx, mx) = match arena {
            Ok(arena) => arena,
            Err(len) => {
                ctx.tick(300); // munmap
                ctx.os_free(base, len);
                return Ok(());
            }
        };
        let chunk = ctx.read_u64(base + 8); // read the boundary tag
                                            // Blocks return to the arena they came from (paper §3.1), which
                                            // requires taking that arena's lock.
        ctx.lock(mx);
        self.state
            .list(ctx, bin(idx, chunk), |bin, ctx| bin.push(ctx, base));
        ctx.unlock(mx);
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
            name: "Glibc",
            models_version: "2.11.1 (ptmalloc2)",
            metadata: "per block (boundary tags)",
            min_size: MIN_CHUNK,
            fast_path: "none (arena lock on every op); bins <= 128 B uncoalesced",
            granularity: "132 KB - 64 MB per arena",
            synchronization: "one lock per arena; trylock probing; new arena on contention",
        }
    }
}

impl GlibcAllocator {
    /// Number of arenas created so far (diagnostics; the paper's §5.2
    /// explains the HashSet anomaly via multiple 64 MB-aligned arenas).
    /// Between runs only: panics during one.
    pub fn arena_count(&self) -> usize {
        self.state.with_idle(|s| s.arenas.len())
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
        crate::testutil::conformance(AllocatorKind::Glibc);
    }

    #[test]
    fn min_spacing_is_32_bytes() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = GlibcAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            let q = a.malloc(ctx, 16);
            assert_eq!(q - p, 32, "16-byte requests must be 32 bytes apart");
            let r = a.malloc(ctx, 0);
            let s = a.malloc(ctx, 0);
            assert_eq!(s - r, 32, "even malloc(0) consumes 32 bytes");
        });
    }

    #[test]
    fn no_48_byte_class() {
        // 48-byte requests round to a 64-byte chunk (paper §5.3).
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = GlibcAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 48);
            let q = a.malloc(ctx, 48);
            assert_eq!(q - p, 64);
        });
    }

    #[test]
    fn arenas_are_64mb_aligned() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = GlibcAllocator::new(&sim);
        let bases = parking_lot::Mutex::new(Vec::new());
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            bases.lock().push(p - HEADER);
        });
        for b in bases.into_inner() {
            assert_eq!(b % ARENA_RESERVE, 0, "arena base must be 64 MB aligned");
        }
    }

    #[test]
    fn contention_spawns_new_arenas() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = GlibcAllocator::new(&sim);
        sim.run(8, |ctx| {
            for _ in 0..50 {
                let p = a.malloc(ctx, 16);
                ctx.tick(20);
                a.free(ctx, p);
            }
        });
        assert!(
            a.arena_count() > 1,
            "8 allocating threads must trigger arena creation"
        );
    }

    #[test]
    fn boundary_tag_holds_chunk_size() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = GlibcAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 100);
            assert_eq!(
                ctx.read_u64(p - 8),
                GlibcAllocator::chunk_size(100).unwrap()
            );
        });
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = GlibcAllocator::new(&sim);
        // Prefix: back the main arena and seed some bins.
        sim.run(2, |ctx| {
            let blocks: Vec<u64> = (0..6).map(|i| a.malloc(ctx, 16 + (i % 3) * 24)).collect();
            for b in blocks.into_iter().step_by(2) {
                a.free(ctx, b);
            }
        });
        let machine = sim.snapshot(None);
        let heap = a.snapshot().expect("glibc supports snapshots");
        let arenas_at_snap = a.arena_count();
        let round = |sim: &Sim, a: &GlibcAllocator| {
            let log = Mutex::new(Vec::new());
            sim.run(4, |ctx| {
                // Contention forces new arenas post-snapshot; restore must
                // drop them so the re-run recreates them identically.
                let mut mine = Vec::new();
                for i in 0..8u64 {
                    mine.push(a.malloc(ctx, 8 << (i % 4)));
                    ctx.tick(20);
                }
                let big = a.malloc(ctx, 1 << 20);
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
        let arenas_after_round = a.arena_count();
        sim.restore(&machine);
        a.restore(&heap);
        assert_eq!(
            a.arena_count(),
            arenas_at_snap,
            "restore must drop post-snapshot arenas"
        );
        let r2 = round(&sim, &a);
        assert_eq!(r1, r2, "restored run must hand out identical addresses");
        assert_eq!(a.arena_count(), arenas_after_round);
    }

    #[test]
    fn large_blocks_bypass_arena() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = GlibcAllocator::new(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 1 << 20);
            ctx.write_u64(p, 1);
            ctx.write_u64(p + (1 << 20) - 8, 2);
            a.free(ctx, p);
        });
        assert_eq!(a.arena_count(), 1);
    }
}
