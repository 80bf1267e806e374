//! Machine state shared by all simulated cores: memory, caches, the "OS"
//! region allocator, and virtual-time locks.

use crate::cache::Hierarchy;
use crate::config::MachineConfig;
use crate::memory::Memory;

/// Handle to a simulated mutex created with [`crate::Sim::new_mutex`] or
/// [`crate::Ctx::new_mutex`].
///
/// Simulated mutexes provide mutual exclusion *in virtual time*: a thread
/// that finds the lock held blocks until the holder's release event, and its
/// virtual clock is advanced to the release time. Lock hand-offs between
/// different cores additionally pay a coherence-transfer cost, modelling the
/// lock cache line bouncing between cores — the effect behind Hoard's
/// contention collapse in Intruder (paper §6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimMutex {
    pub(crate) id: usize,
}

/// Aggregate lock statistics for a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockStats {
    /// Total successful acquisitions across all simulated locks.
    pub acquisitions: u64,
    /// Acquisitions that had to wait for a holder to release.
    pub contended: u64,
    /// Total virtual cycles spent waiting for locks.
    pub wait_cycles: u64,
}

#[derive(Clone)]
pub(crate) struct LockState {
    pub holder: Option<usize>,
    /// Core that last held the lock, for hand-off transfer costs.
    pub last_holder: Option<usize>,
    pub acquisitions: u64,
    pub contended: u64,
    pub wait_cycles: u64,
}

impl LockState {
    fn new() -> Self {
        LockState {
            holder: None,
            last_holder: None,
            acquisitions: 0,
            contended: 0,
            wait_cycles: 0,
        }
    }
}

/// Everything a core event may touch. Mutated only under the scheduler lock,
/// and only by the thread whose virtual clock is globally minimal, so all
/// mutation is deterministic.
pub(crate) struct MachineState {
    pub cfg: MachineConfig,
    pub mem: Memory,
    pub caches: Hierarchy,
    pub locks: Vec<LockState>,
    /// Bump pointer for "OS" region allocation (simulated mmap).
    pub os_bump: u64,
    pub os_allocated: u64,
}

/// Frozen image of the whole machine: sparse memory (COW page snapshot),
/// cache hierarchy (its materialized tag rows), simulated locks, and the
/// OS bump allocator. Captured
/// and restored only at quiescence (no run in progress), so there is no
/// in-flight per-thread state to save.
pub struct MachineSnapshot {
    mem: crate::memory::MemSnapshot,
    caches: Hierarchy,
    locks: Vec<LockState>,
    os_bump: u64,
    os_allocated: u64,
    /// Process-unique capture id, pairing this snapshot with the undo
    /// journal [`MachineState::snapshot`] arms on the live hierarchy so
    /// [`MachineState::restore`] can take the in-place revert fast path.
    id: u64,
}

/// Process-wide snapshot id source; 0 is reserved for "no journal armed".
static SNAPSHOT_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl MachineSnapshot {
    /// Materialized pages captured (diagnostic; proportional to footprint).
    pub fn pages(&self) -> usize {
        self.mem.pages()
    }
}

impl MachineState {
    pub fn new(cfg: MachineConfig) -> Self {
        MachineState {
            caches: Hierarchy::new(&cfg),
            cfg,
            mem: Memory::new(),
            locks: Vec::new(),
            // Leave low addresses free for test scaffolding; real allocators
            // draw everything from os_alloc.
            os_bump: 0x0001_0000_0000,
            os_allocated: 0,
        }
    }

    pub fn new_lock(&mut self) -> SimMutex {
        self.locks.push(LockState::new());
        SimMutex {
            id: self.locks.len() - 1,
        }
    }

    /// Reserve `size` bytes aligned to `align` from the simulated OS.
    /// Alignment is what lets allocator models reproduce the paper's
    /// layout-sensitive effects (64 MB-aligned Glibc arenas, 64 KB Hoard
    /// superblocks, 16 KB TBB superblocks).
    pub fn os_alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.os_bump + align - 1) & !(align - 1);
        self.os_bump = base + size;
        assert!(
            self.os_bump < crate::memory::ADDR_LIMIT,
            "simulated OS allocator exhausted the {:#x} address-space bound",
            crate::memory::ADDR_LIMIT
        );
        self.os_allocated += size;
        base
    }

    /// Capture the machine. `parent` enables COW page sharing between
    /// sibling snapshots (see [`crate::memory::Memory::snapshot`]).
    pub fn snapshot(&mut self, parent: Option<&MachineSnapshot>) -> MachineSnapshot {
        let id = SNAPSHOT_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let snap = MachineSnapshot {
            mem: self.mem.snapshot(parent.map(|p| &p.mem)),
            caches: self.caches.clone(),
            locks: self.locks.clone(),
            os_bump: self.os_bump,
            os_allocated: self.os_allocated,
            id,
        };
        // Arm the cache undo journal so a later restore to *this* snapshot
        // reverts in place instead of re-copying the materialized rows.
        self.caches.arm_journal(id);
        snap
    }

    /// Rewind the machine to `snap`. Locks created after the capture are
    /// dropped (truncation keeps earlier `SimMutex` ids stable, and a
    /// deterministic re-run re-creates the same ids in the same order).
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.mem.restore(&snap.mem);
        self.caches.restore_from(&snap.caches, snap.id);
        assert!(
            snap.locks.len() <= self.locks.len(),
            "snapshot is newer than the machine it restores"
        );
        self.locks.truncate(snap.locks.len());
        self.locks.clone_from_slice(&snap.locks);
        self.os_bump = snap.os_bump;
        self.os_allocated = snap.os_allocated;
    }

    pub fn lock_stats(&self) -> LockStats {
        let mut s = LockStats::default();
        for l in &self.locks {
            s.acquisitions += l.acquisitions;
            s.contended += l.contended;
            s.wait_cycles += l.wait_cycles;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_alloc_respects_alignment() {
        let mut m = MachineState::new(MachineConfig::tiny_test());
        let a = m.os_alloc(100, 64);
        assert_eq!(a % 64, 0);
        let b = m.os_alloc(16 * 1024, 64 << 20);
        assert_eq!(b % (64 << 20), 0);
        assert!(b >= a + 100);
        assert_eq!(m.os_allocated, 100 + 16 * 1024);
    }

    #[test]
    fn os_alloc_regions_disjoint() {
        let mut m = MachineState::new(MachineConfig::tiny_test());
        let a = m.os_alloc(4096, 4096);
        let b = m.os_alloc(4096, 4096);
        assert!(b >= a + 4096);
    }

    #[test]
    fn locks_registry() {
        let mut m = MachineState::new(MachineConfig::tiny_test());
        let l0 = m.new_lock();
        let l1 = m.new_lock();
        assert_ne!(l0.id, l1.id);
        assert_eq!(m.lock_stats().acquisitions, 0);
    }
}
