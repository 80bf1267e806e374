//! # tm-alloc — dynamic memory allocator models
//!
//! From-scratch implementations of the four allocators the paper studies
//! (§3, Table 1), operating on the simulated address space of [`tm_sim`]:
//!
//! * [`GlibcAllocator`] — ptmalloc-style: per-block boundary tags, 32-byte
//!   minimum blocks, per-arena locks with `trylock` probing, arenas aligned
//!   to their 64 MB maximum size.
//! * [`HoardAllocator`] — per-thread heaps of 64 KB superblocks (one size
//!   class each), a lock-protected global heap, and a synchronization-free
//!   local cache for blocks ≤ 256 bytes.
//! * [`TbbAllocator`] — thread-private heaps of 16 KB superblocks with
//!   private (sync-free) and public (spinlocked) free lists; remote frees
//!   return blocks to the owning superblock's public list.
//! * [`TcAllocator`] — TCMalloc-style thread caches backed by central
//!   per-size-class free lists with *incremental* batch refill (1, 2, 3, …
//!   blocks), which hands adjacent blocks to different threads — the false
//!   sharing inducer of the paper's Figure 2.
//!
//! All four return addresses in simulated memory; their block spacing,
//! region alignment and locking discipline are what the STM's
//! address-to-lock mapping interacts with. [`SerialLockAllocator`] is a
//! fifth model outside the studied set: the §3 strawman, a negative control.
//!
//! A model is one file. Everything it mutates on the host is one
//! `#[derive(Clone)] struct State` of plain data inside the crate-private
//! `state::HostState` — a [`tm_sim::TurnCell`] on the model's `Sim`: the
//! thread holding the turn reaches it for a pointer compare, and no event
//! can happen while it is borrowed — which also supplies, once for all
//! models, [`Allocator::snapshot`] / [`Allocator::restore`]: a heap
//! snapshot is a clone of that struct. DESIGN.md §5 "Host-side state" has
//! the rule and the recipe for adding a model.
//!
//! Allocation *failure* is part of the interface: an allocator implements
//! only the fallible [`Allocator::try_malloc`] / [`Allocator::try_free`]
//! (the panicking `malloc`/`free` forms are provided over them).
//!
//! One wrapper, [`HeapAuditor`] ([`audit`]), is where the allocator call
//! stream is observed: it checks heap invariants (overlap, alignment,
//! containment, free-list integrity) for the correctness harness, fails
//! allocations per a deterministic [`AllocFaultPlan`] ([`fault`]: byte
//! budgets, size-class caps, fail-at-Nth-site, seeded probabilistic
//! failure) so the STM's abort path and the every-site OOM sweep can
//! exercise out-of-memory behaviour reproducibly, and counts the
//! per-region histograms ([`profile`]) that regenerate the paper's
//! Table 5.

#![deny(missing_docs)]

pub mod audit;
mod classes;
pub mod fault;
mod freelist;
mod glibc;
mod hoard;
pub mod profile;
mod serial;
mod state;
mod tbb;
mod tc;

pub use audit::{AuditReport, HeapAuditor, LiveBlock};
pub use classes::SizeClasses;
pub use fault::AllocFaultPlan;
pub use glibc::GlibcAllocator;
pub use hoard::HoardAllocator;
pub use serial::SerialLockAllocator;
pub use tbb::TbbAllocator;
pub use tc::TcAllocator;

use std::sync::Arc;
use tm_sim::{Ctx, Sim};

/// Why an allocation-plane operation could not complete. Carried by
/// [`Allocator::try_malloc`] / [`Allocator::try_free`]; the infallible
/// `malloc`/`free` forms panic with the same information instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The allocator ran out of backing memory serving this request — a
    /// Glibc arena hitting its 64 MB reservation organically, or a fault
    /// plan's byte budget / size-class cap modelling the same condition.
    Exhausted {
        /// The request size that could not be satisfied, in bytes.
        size: u64,
    },
    /// A fault plan forced this specific allocation to fail.
    Injected {
        /// Global allocation-site index assigned by the
        /// [`HeapAuditor`] (0-based, in attempt order).
        site: u64,
        /// The request size, in bytes.
        size: u64,
    },
    /// A free named an address that is not the start of a block this
    /// allocator handed out.
    UnknownAddress {
        /// The offending address.
        addr: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AllocError::Exhausted { size } => {
                write!(f, "exhausted serving a {size}-byte request")
            }
            AllocError::Injected { site, size } => {
                write!(
                    f,
                    "injected failure at allocation site {site} ({size} bytes)"
                )
            }
            AllocError::UnknownAddress { addr } => {
                write!(f, "free of unknown address {addr:#x}")
            }
        }
    }
}

/// The bytes a request of `size` behind a `header` occupies, rounded up to
/// the models' 16-byte grain — or, for a request no address space can hold,
/// the error `try_malloc` returns: the sum overflows, or passes C's
/// `PTRDIFF_MAX`, beyond which a real `malloc` fails too. Every size a
/// model computes from a request goes through here.
pub(crate) fn padded(size: u64, header: u64) -> Result<u64, AllocError> {
    size.checked_add(header + 15)
        .map(|bytes| bytes & !15)
        .filter(|&bytes| bytes <= i64::MAX as u64)
        .ok_or(AllocError::Exhausted { size })
}

/// The allocator interface the STM's wrapper builds on — the paper's model
/// of "an external allocator interface that provides at least malloc and
/// free" (§2).
///
/// An implementation writes the fallible pair, [`Allocator::try_malloc`]
/// and [`Allocator::try_free`]; the panicking [`Allocator::malloc`] and
/// [`Allocator::free`] are provided on top of them and are not overridden
/// by any type in this crate, so every call — fallible or not — runs the
/// same code and a wrapper sees every call through one method.
pub trait Allocator: Send + Sync {
    /// Allocate `size` bytes; returns the (16-byte aligned) simulated
    /// address of the block, or why it cannot: [`AllocError::Exhausted`]
    /// when the model runs out of backing memory or the request is
    /// unrepresentable, [`AllocError::Injected`] when a fault plan fails it.
    /// `size == 0` behaves like `malloc(0)` in C: a unique minimum-size
    /// block is returned.
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError>;

    /// Release a block previously returned by [`Allocator::try_malloc`].
    /// May be called from a different thread than the allocating one.
    /// Returns [`AllocError::UnknownAddress`], and changes nothing, for an
    /// address outside every region the allocator handed blocks out of.
    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError>;

    /// [`Allocator::try_malloc`] for callers to whom a refusal is a bug:
    /// panics `"<name> model: <error>"`, `<name>` being
    /// [`AllocatorAttrs::name`].
    fn malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> u64 {
        match self.try_malloc(ctx, size) {
            Ok(addr) => addr,
            Err(e) => panic!("{} model: {e}", self.attributes().name),
        }
    }

    /// [`Allocator::try_free`] for callers to whom a refusal is a bug:
    /// panics as [`Allocator::malloc`] does.
    fn free(&self, ctx: &mut Ctx<'_>, addr: u64) {
        if let Err(e) = self.try_free(ctx, addr) {
            panic!("{} model: {e}", self.attributes().name);
        }
    }

    /// The distance between the start addresses of two minimal consecutive
    /// allocations — the quantity that interacts with the STM's ownership
    /// table stripe size (paper Fig. 5).
    fn min_block(&self) -> u64;

    /// Static attribute row, mirroring the paper's Table 1.
    fn attributes(&self) -> AllocatorAttrs;

    /// Capture the allocator's host-side heap metadata (free lists, bump
    /// cursors, superblock/arena tables) so a later
    /// [`Allocator::restore`] rewinds it exactly. The simulated-memory
    /// half of the heap (boundary tags, in-block free links) is the
    /// machine's to snapshot; this call covers only what lives on the
    /// host. Must be called at quiescence: the five models panic
    /// (`TurnCell::with_idle called during a run`) when a run of their
    /// `Sim` is in progress.
    ///
    /// Returns `None` when the implementation does not support
    /// checkpointing — callers (the `tm-mc` explorer) then fall back to
    /// from-scratch execution. All five models and the [`HeapAuditor`]
    /// support it; the wrapper's snapshot is `None` when its inner
    /// allocator's is.
    fn snapshot(&self) -> Option<HeapSnapshot> {
        None
    }

    /// Rewind host-side heap metadata to a [`HeapSnapshot`] captured from
    /// *this* allocator. Panics on a foreign snapshot — another model's or,
    /// for the five models, another instance's — and, like
    /// [`Allocator::snapshot`], during a run. Implementations
    /// that return `None` from [`Allocator::snapshot`] never see one.
    fn restore(&self, snap: &HeapSnapshot) {
        let _ = snap;
        unreachable!("restore called on an allocator without snapshot support");
    }
}

/// Opaque frozen heap metadata produced by [`Allocator::snapshot`]. Each
/// implementation downcasts back to its own state type in
/// [`Allocator::restore`].
pub type HeapSnapshot = Box<dyn std::any::Any + Send + Sync>;

impl<A: Allocator + ?Sized> Allocator for Arc<A> {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        (**self).try_malloc(ctx, size)
    }
    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        (**self).try_free(ctx, addr)
    }
    fn min_block(&self) -> u64 {
        (**self).min_block()
    }
    fn attributes(&self) -> AllocatorAttrs {
        (**self).attributes()
    }
    fn snapshot(&self) -> Option<HeapSnapshot> {
        (**self).snapshot()
    }
    fn restore(&self, snap: &HeapSnapshot) {
        (**self).restore(snap)
    }
}

/// One row of the paper's Table 1.
#[derive(Clone, Copy, Debug)]
pub struct AllocatorAttrs {
    /// Display name (Table 1's row label).
    pub name: &'static str,
    /// The real-world version the model is based on.
    pub models_version: &'static str,
    /// Where block metadata lives (boundary tags, page map, …).
    pub metadata: &'static str,
    /// Smallest block the allocator hands out, in bytes.
    pub min_size: u64,
    /// The lock-free/thread-local fast path, if any.
    pub fast_path: &'static str,
    /// Unit at which memory is requested from the OS.
    pub granularity: &'static str,
    /// Synchronization discipline of the slow path.
    pub synchronization: &'static str,
}

/// Which allocator model to instantiate (sweep axis of every experiment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// Glibc's ptmalloc2 (arenas + boundary tags).
    Glibc,
    /// Hoard (per-thread superblock heaps).
    Hoard,
    /// Intel TBB scalable_malloc (per-thread 16 KB blocks, 16 B minimum).
    TbbMalloc,
    /// Google TCMalloc (thread caches over central spans).
    TcMalloc,
}

impl AllocatorKind {
    /// Every modelled allocator, in the paper's Table 1 order.
    pub const ALL: [AllocatorKind; 4] = [
        AllocatorKind::Glibc,
        AllocatorKind::Hoard,
        AllocatorKind::TbbMalloc,
        AllocatorKind::TcMalloc,
    ];

    /// Display name, as printed in tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Glibc => "Glibc",
            AllocatorKind::Hoard => "Hoard",
            AllocatorKind::TbbMalloc => "TBBMalloc",
            AllocatorKind::TcMalloc => "TCMalloc",
        }
    }

    /// Command-line token (`--alloc tbb`), the kind's one spelling:
    /// `--alloc` matches it exactly, and the sweep axes, presets and usage
    /// text take it from [`AllocatorKind::ALL`].
    pub fn token(self) -> &'static str {
        match self {
            AllocatorKind::Glibc => "glibc",
            AllocatorKind::Hoard => "hoard",
            AllocatorKind::TbbMalloc => "tbb",
            AllocatorKind::TcMalloc => "tc",
        }
    }

    /// Instantiate this allocator against a simulated machine.
    pub fn build(self, sim: &Sim) -> Arc<dyn Allocator> {
        match self {
            AllocatorKind::Glibc => Arc::new(GlibcAllocator::new(sim)),
            AllocatorKind::Hoard => Arc::new(HoardAllocator::new(sim)),
            AllocatorKind::TbbMalloc => Arc::new(TbbAllocator::new(sim)),
            AllocatorKind::TcMalloc => Arc::new(TcAllocator::new(sim)),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::collections::HashSet;
    use tm_sim::MachineConfig;

    /// Shared conformance suite run against every allocator implementation.
    pub fn conformance(kind: AllocatorKind) {
        no_overlap_single_thread(kind);
        free_then_reuse(kind);
        multithreaded_disjoint(kind);
        cross_thread_free(kind);
        zero_size_ok(kind);
        unrepresentable_sizes_are_exhaustion(kind.name(), |sim| kind.build(sim));
        foreign_frees_are_refused(kind.name(), |sim| kind.build(sim));
    }

    fn no_overlap_single_thread(kind: AllocatorKind) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = kind.build(&sim);
        sim.run(1, |ctx| {
            let mut seen: Vec<(u64, u64)> = Vec::new();
            for &size in &[16u64, 48, 16, 128, 8, 300, 16, 4096, 64] {
                let p = a.malloc(ctx, size);
                assert_eq!(p % 8, 0, "{kind:?}: misaligned block");
                for &(q, qs) in &seen {
                    assert!(
                        p + size <= q || q + qs <= p,
                        "{kind:?}: overlap: [{p:#x},{size}) vs [{q:#x},{qs})"
                    );
                }
                seen.push((p, size));
            }
        });
    }

    fn free_then_reuse(kind: AllocatorKind) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = kind.build(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 16);
            a.free(ctx, p);
            // A same-size allocation should be able to reuse the block
            // (all four designs recycle through a free list).
            let q = a.malloc(ctx, 16);
            assert_eq!(p, q, "{kind:?}: freed block not recycled first");
        });
    }

    fn multithreaded_disjoint(kind: AllocatorKind) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = kind.build(&sim);
        let all = parking_lot::Mutex::new(Vec::new());
        sim.run(4, |ctx| {
            let mut mine = Vec::new();
            for i in 0..40u64 {
                let size = 16 + (i % 4) * 16;
                let p = a.malloc(ctx, size);
                // Write to the block to ensure it is usable memory.
                ctx.write_u64(p, ctx.tid() as u64);
                mine.push((p, size));
            }
            all.lock().extend(mine);
        });
        let blocks = all.into_inner();
        let mut starts = HashSet::new();
        for &(p, _) in &blocks {
            assert!(starts.insert(p), "{kind:?}: duplicate block {p:#x}");
        }
        for (i, &(p, s)) in blocks.iter().enumerate() {
            for &(q, qs) in &blocks[i + 1..] {
                assert!(
                    p + s <= q || q + qs <= p,
                    "{kind:?}: cross-thread overlap {p:#x}/{q:#x}"
                );
            }
        }
    }

    fn cross_thread_free(kind: AllocatorKind) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = kind.build(&sim);
        let stash = parking_lot::Mutex::new(Vec::new());
        // Thread 0 allocates, thread 1 frees (the red-black tree /
        // privatization pattern from the paper).
        sim.run(2, |ctx| {
            if ctx.tid() == 0 {
                let mut v = Vec::new();
                for _ in 0..16 {
                    v.push(a.malloc(ctx, 48));
                }
                stash.lock().extend(v);
            } else {
                ctx.tick(200_000); // let thread 0 go first in virtual time
                ctx.fence();
                let v: Vec<u64> = std::mem::take(&mut *stash.lock());
                for p in v {
                    a.free(ctx, p);
                }
            }
        });
    }

    fn zero_size_ok(kind: AllocatorKind) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = kind.build(&sim);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 0);
            let q = a.malloc(ctx, 0);
            assert_ne!(p, q, "{kind:?}: malloc(0) must return distinct blocks");
            a.free(ctx, p);
            a.free(ctx, q);
        });
    }

    /// A request whose rounded size no `u64` (or no `ptrdiff_t`) holds is
    /// refused — not served from the 32 bytes, or the zero, the sum wraps
    /// to — and costs the heap nothing.
    pub fn unrepresentable_sizes_are_exhaustion(
        name: &str,
        build: impl Fn(&Sim) -> Arc<dyn Allocator>,
    ) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = build(&sim);
        let report = sim.run(1, |ctx| {
            for size in [u64::MAX, u64::MAX - 15, 1 << 63] {
                let refused = a.try_malloc(ctx, size);
                assert_eq!(refused, Err(AllocError::Exhausted { size }), "{name}");
            }
            let p = a.malloc(ctx, 16);
            a.free(ctx, p);
        });
        assert!(report.os_allocated < 1 << 30, "{name}: {report:?}");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(1, |ctx| {
                a.malloc(ctx, u64::MAX);
            });
        }));
        let payload = caught.expect_err("malloc of 2^64 - 1 bytes must panic");
        let text = payload.downcast_ref::<String>().expect("a formatted panic");
        let told = "exhausted serving a 18446744073709551615-byte request";
        assert!(
            text.contains("model: ") && text.ends_with(told),
            "{name}: {text}"
        );
    }

    /// A free of an address outside every region the allocator handed
    /// blocks out of is refused before it costs anything — no virtual time,
    /// no free-list push — and the panicking `free` names the model and the
    /// address.
    pub fn foreign_frees_are_refused(name: &str, build: impl Fn(&Sim) -> Arc<dyn Allocator>) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = build(&sim);
        let foreign = [0x10, audit::OS_REGION_BASE - 16, 0x7000_0000_0000];
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 48);
            let before = ctx.now();
            for addr in foreign {
                let refused = a.try_free(ctx, addr);
                assert_eq!(refused, Err(AllocError::UnknownAddress { addr }), "{name}");
            }
            assert_eq!(ctx.now(), before, "{name}: a refused free took time");
            a.free(ctx, p);
            assert_eq!(a.malloc(ctx, 48), p, "{name}: the heap changed");
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run(1, |ctx| a.free(ctx, 0x10));
        }));
        let payload = caught.expect_err("free of a foreign address must panic");
        let text = payload.downcast_ref::<String>().expect("a formatted panic");
        let told = format!(
            "{} model: free of unknown address 0x10",
            a.attributes().name
        );
        assert_eq!(*text, told, "{name}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse() {
        let parse = |s| tm_obs::spec::one_of("--alloc", &AllocatorKind::ALL, |k| k.token(), s);
        for kind in AllocatorKind::ALL {
            assert_eq!(parse(kind.token()), Ok(&kind));
        }
        // One spelling: the display names, glibc's `ptmalloc` and another
        // case are not tokens.
        for alias in [
            "ptmalloc",
            "GLIBC",
            "Hoard",
            "tbbmalloc",
            "TBB",
            "TCMalloc",
            "tcmalloc",
        ] {
            assert_eq!(
                parse(alias),
                Err(format!(
                    "bad --alloc '{alias}' (valid: glibc, hoard, tbb, tc)"
                )),
            );
        }
    }

    #[test]
    fn table1_min_sizes_match_paper() {
        use tm_sim::MachineConfig;
        let sim = Sim::new(MachineConfig::xeon_e5405());
        // Paper Table 1: Glibc 32 B, Hoard 16 B, TBB 8 B, TC 8 B.
        assert_eq!(AllocatorKind::Glibc.build(&sim).attributes().min_size, 32);
        assert_eq!(AllocatorKind::Hoard.build(&sim).attributes().min_size, 16);
        assert_eq!(
            AllocatorKind::TbbMalloc.build(&sim).attributes().min_size,
            8
        );
        assert_eq!(AllocatorKind::TcMalloc.build(&sim).attributes().min_size, 8);
    }
}
