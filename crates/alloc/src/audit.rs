//! Heap-invariant auditing for the allocator models.
//!
//! [`HeapAuditor`] wraps any [`Allocator`] and checks, on every
//! malloc/free, the invariants the paper's argument silently relies on:
//!
//! * **no overlap** — a returned block never intersects any live block,
//!   across threads (free-list corruption or size-class bugs surface
//!   here);
//! * **alignment** — block starts are at least 8-byte aligned (every
//!   model hands out word-addressable blocks; the STM reads/writes u64
//!   words at block starts);
//! * **arena-bound containment** — blocks live inside simulated-OS
//!   territory (the machine's OS bump allocator starts at
//!   [`OS_REGION_BASE`]; an address below it was never backed by an OS
//!   region);
//! * **free-list integrity** — every `free` names the start of a
//!   currently-live block (double frees and frees of interior/foreign
//!   addresses are caught), and `malloc(0)` still returns distinct
//!   blocks.
//!
//! Violations are *recorded*, not panicked, so the check harness can
//! degrade a matrix cell to `fail` and keep auditing the rest; tests use
//! [`HeapAuditor::assert_clean`] for the panicking form. The wrapper adds
//! no simulated time, so wrapping an allocator does not perturb
//! virtual-time results.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tm_sim::Ctx;

use crate::{AllocError, Allocator, AllocatorAttrs, HeapSnapshot};

/// Where the simulated OS hands out regions from (the machine's bump
/// allocator base). Any block address below this was never OS-backed.
pub const OS_REGION_BASE: u64 = 0x0001_0000_0000;

/// At most this many violation strings are retained; further violations
/// only bump the total count (a corrupt allocator can fail millions of
/// times — the first few messages carry all the signal).
const MAX_RECORDED: usize = 32;

/// Audit record of one live block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiveBlock {
    /// Occupied footprint in bytes (`max(size, 1)` so zero-size blocks
    /// still claim their start address).
    pub footprint: u64,
    /// The 0-based allocation-site index that produced the block: its
    /// ordinal among all malloc *attempts* (successful or failed) the
    /// auditor observed. Matches the [`crate::FaultInjector`] site
    /// numbering when the auditor wraps an injector directly, which is
    /// how the OOM sweep names leaked blocks by their faulting site.
    pub site: u64,
}

#[derive(Clone, Default)]
struct AuditState {
    /// Live blocks: start address → footprint and allocation site.
    live: BTreeMap<u64, LiveBlock>,
    mallocs: u64,
    /// `try_malloc` attempts that returned an error (not a violation —
    /// the caller was told — but counted so site numbering covers them).
    failed_mallocs: u64,
    frees: u64,
    peak_live: usize,
    violations: Vec<String>,
    violation_count: u64,
}

impl AuditState {
    fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        }
    }
}

/// Summary of an audited run; see [`HeapAuditor::report`].
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Successful allocations observed.
    pub mallocs: u64,
    /// Failed `try_malloc` attempts observed (injected or organic).
    pub failed_mallocs: u64,
    /// Total `free` calls observed.
    pub frees: u64,
    /// Blocks still live when the report was taken.
    pub live: usize,
    /// The first still-live blocks as `(address, LiveBlock)` in address
    /// order (capped like `violations`), so a leak check can name each
    /// leaked block's allocation site.
    pub live_blocks: Vec<(u64, LiveBlock)>,
    /// High-water mark of simultaneously-live blocks.
    pub peak_live: usize,
    /// Total invariant violations (may exceed `violations.len()`).
    pub violation_count: u64,
    /// The first violations, as human-readable messages.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }
}

/// An [`Allocator`] wrapper that checks heap invariants on every call.
/// Build one with [`HeapAuditor::new`] (an audited STM stack with
/// `tm_stm::Stack::new`), hand a clone of the returned `Arc` to the code
/// under test, and inspect [`HeapAuditor::report`] /
/// [`HeapAuditor::assert_clean`] afterwards.
pub struct HeapAuditor {
    inner: Arc<dyn Allocator>,
    state: Mutex<AuditState>,
}

impl HeapAuditor {
    /// Wrap `inner` in an auditor with empty tracking state.
    pub fn new(inner: Arc<dyn Allocator>) -> Arc<HeapAuditor> {
        Arc::new(HeapAuditor {
            inner,
            state: Mutex::new(AuditState::default()),
        })
    }

    /// Snapshot the audit counters and recorded violations.
    pub fn report(&self) -> AuditReport {
        let s = self.state.lock();
        AuditReport {
            mallocs: s.mallocs,
            failed_mallocs: s.failed_mallocs,
            frees: s.frees,
            live: s.live.len(),
            live_blocks: s
                .live
                .iter()
                .take(MAX_RECORDED)
                .map(|(&addr, &block)| (addr, block))
                .collect(),
            peak_live: s.peak_live,
            violation_count: s.violation_count,
            violations: s.violations.clone(),
        }
    }

    /// Panic with every recorded violation if any invariant was broken.
    /// `context` names the workload for the failure message.
    pub fn assert_clean(&self, context: &str) {
        let r = self.report();
        assert!(
            r.is_clean(),
            "heap audit failed for {context}: {} violation(s)\n  {}",
            r.violation_count,
            r.violations.join("\n  ")
        );
    }
}

impl HeapAuditor {
    /// Audit a successful allocation (shared by the fallible and
    /// panicking paths).
    fn record_malloc(&self, addr: u64, size: u64) {
        let footprint = size.max(1);
        let mut s = self.state.lock();
        let site = s.mallocs + s.failed_mallocs;
        s.mallocs += 1;
        if !addr.is_multiple_of(8) {
            s.violate(format!(
                "misaligned block {addr:#x} (size {size}, site {site})"
            ));
        }
        if addr < OS_REGION_BASE {
            s.violate(format!(
                "block {addr:#x} below the OS region base {OS_REGION_BASE:#x} (site {site})"
            ));
        }
        // Overlap: only the nearest live neighbours can intersect.
        if let Some((&prev, &pb)) = s.live.range(..=addr).next_back() {
            if prev + pb.footprint > addr {
                s.violate(format!(
                    "block [{addr:#x},+{footprint}) (site {site}) overlaps live \
                     [{prev:#x},+{}) from site {}",
                    pb.footprint, pb.site
                ));
            }
        }
        if let Some((&next, &nb)) = s.live.range(addr + 1..).next() {
            if addr + footprint > next {
                s.violate(format!(
                    "block [{addr:#x},+{footprint}) (site {site}) overlaps live \
                     [{next:#x},+{}) from site {}",
                    nb.footprint, nb.site
                ));
            }
        }
        if let Some(old) = s.live.insert(addr, LiveBlock { footprint, site }) {
            s.violate(format!(
                "block {addr:#x} returned while still live (site {site}; \
                 first handed out at site {})",
                old.site
            ));
        }
        s.peak_live = s.peak_live.max(s.live.len());
    }

    /// Audit a free the inner allocator accepted (or is about to see).
    fn record_free(&self, addr: u64) {
        let mut s = self.state.lock();
        s.frees += 1;
        if s.live.remove(&addr).is_none() {
            // Name the enclosing live block's site for interior pointers.
            let interior = s
                .live
                .range(..=addr)
                .next_back()
                .filter(|(&p, b)| p + b.footprint > addr)
                .map(|(_, b)| format!(" (inside the block from site {})", b.site))
                .unwrap_or_default();
            s.violate(format!(
                "free of {addr:#x} which is not the start of a live block \
                 (double free, interior pointer, or foreign address){interior}"
            ));
        }
    }
}

impl Allocator for HeapAuditor {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        match self.inner.try_malloc(ctx, size) {
            Ok(addr) => {
                self.record_malloc(addr, size);
                Ok(addr)
            }
            Err(e) => {
                // A cleanly-reported failure is not a violation — the
                // caller was told — but it consumes a site index.
                self.state.lock().failed_mallocs += 1;
                Err(e)
            }
        }
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        // Audited before the inner free's events hand the turn on, so a
        // block on its way back no longer counts towards `peak_live`. A
        // free the inner allocator refuses is a violation too.
        self.record_free(addr);
        self.inner.try_free(ctx, addr)
    }

    fn min_block(&self) -> u64 {
        self.inner.min_block()
    }

    fn snapshot(&self) -> Option<HeapSnapshot> {
        // Unsupported inner ⇒ unsupported wrapper (the `?`): callers fall
        // back to from-scratch execution for the whole stack.
        let inner = self.inner.snapshot()?;
        Some(Box::new(AuditSnapshot {
            inner,
            state: self.state.lock().clone(),
        }))
    }

    fn restore(&self, snap: &HeapSnapshot) {
        let snap = snap
            .downcast_ref::<AuditSnapshot>()
            .expect("heap auditor: restore of a foreign heap snapshot");
        self.inner.restore(&snap.inner);
        *self.state.lock() = snap.state.clone();
    }

    fn attributes(&self) -> AllocatorAttrs {
        self.inner.attributes()
    }
}

/// Frozen auditor state: the wrapped allocator's snapshot plus the live
/// block map and violation counters at capture time.
struct AuditSnapshot {
    inner: HeapSnapshot,
    state: AuditState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocatorKind;
    use tm_sim::{MachineConfig, Sim};

    #[test]
    fn clean_workload_audits_clean() {
        for kind in AllocatorKind::ALL {
            let sim = Sim::new(MachineConfig::xeon_e5405());
            let auditor = HeapAuditor::new(kind.build(&sim));
            let a = Arc::clone(&auditor);
            sim.run(2, |ctx| {
                let mut blocks = Vec::new();
                for i in 0..32u64 {
                    blocks.push(a.malloc(ctx, 16 + (i % 3) * 24));
                }
                for b in blocks {
                    a.free(ctx, b);
                }
            });
            let r = auditor.report();
            assert!(r.is_clean(), "{kind:?}: {:?}", r.violations);
            assert_eq!(r.mallocs, 64);
            assert_eq!(r.frees, 64);
            assert_eq!(r.live, 0);
            assert!(r.peak_live >= 32);
            auditor.assert_clean(kind.name());
        }
    }

    /// A deliberately broken allocator: hands out the same overlapping
    /// low address twice and accepts any free.
    struct Broken;
    impl Allocator for Broken {
        fn try_malloc(&self, _ctx: &mut Ctx<'_>, _size: u64) -> Result<u64, AllocError> {
            Ok(12) // unaligned, below the OS base, and always the same
        }
        fn try_free(&self, _ctx: &mut Ctx<'_>, _addr: u64) -> Result<(), AllocError> {
            Ok(())
        }
        fn min_block(&self) -> u64 {
            8
        }
        fn attributes(&self) -> AllocatorAttrs {
            AllocatorAttrs {
                name: "broken",
                models_version: "-",
                metadata: "-",
                min_size: 8,
                fast_path: "-",
                granularity: "-",
                synchronization: "-",
            }
        }
    }

    #[test]
    fn broken_allocator_trips_every_invariant() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let auditor = HeapAuditor::new(Arc::new(Broken));
        let a = Arc::clone(&auditor);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 64);
            let q = a.malloc(ctx, 64); // same address: duplicate + overlap
            a.free(ctx, p);
            a.free(ctx, q); // second free of the same address
            a.free(ctx, 0xdead_0008); // never allocated
        });
        let r = auditor.report();
        assert!(!r.is_clean());
        let all = r.violations.join("\n");
        assert!(all.contains("misaligned"), "{all}");
        assert!(all.contains("below the OS region base"), "{all}");
        assert!(all.contains("still live"), "{all}");
        assert!(all.contains("not the start of a live block"), "{all}");
    }

    #[test]
    fn snapshot_rewinds_audit_counters_with_the_heap() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let auditor = HeapAuditor::new(AllocatorKind::TbbMalloc.build(&sim));
        let a = Arc::clone(&auditor);
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 64);
            a.free(ctx, p);
        });
        let machine = sim.snapshot(None);
        let heap = auditor.snapshot().expect("audited tbb supports snapshots");
        let a = Arc::clone(&auditor);
        sim.run(1, |ctx| {
            let _ = a.malloc(ctx, 64); // left live deliberately
        });
        assert_eq!(auditor.report().mallocs, 2);
        assert_eq!(auditor.report().live, 1);
        sim.restore(&machine);
        auditor.restore(&heap);
        let r = auditor.report();
        assert_eq!(r.mallocs, 1);
        assert_eq!(r.frees, 1);
        assert_eq!(r.live, 0, "post-snapshot live blocks must be forgotten");
        auditor.assert_clean("post-restore");
    }

    #[test]
    fn snapshot_of_unsupported_inner_is_none() {
        let auditor = HeapAuditor::new(Arc::new(Broken));
        assert!(auditor.snapshot().is_none());
    }

    #[test]
    fn violation_recording_is_capped_but_counted() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let auditor = HeapAuditor::new(Arc::new(Broken));
        let a = Arc::clone(&auditor);
        sim.run(1, |ctx| {
            for _ in 0..100 {
                a.free(ctx, 4); // 100 bad frees
            }
        });
        let r = auditor.report();
        assert_eq!(r.violation_count, 100);
        assert!(r.violations.len() <= 32);
    }
}
