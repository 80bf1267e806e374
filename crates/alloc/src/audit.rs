//! The one allocator wrapper: heap audit, fault injection and the
//! Table 5 profile.
//!
//! [`HeapAuditor`] wraps any [`Allocator`] and watches its call stream
//! once for three consumers:
//!
//! * **the heap audit** — on every malloc/free it checks the invariants
//!   the paper's argument silently relies on: a returned block never
//!   overlaps a live one (free-list corruption, size-class bugs), starts
//!   8-byte aligned (the STM reads u64 words at block starts), lies above
//!   [`OS_REGION_BASE`] (inside simulated-OS territory), and every `free`
//!   names the start of a live block (double, interior and foreign frees).
//!   Violations are *recorded*, not panicked, so the check harness can
//!   degrade a matrix cell and keep auditing; tests use
//!   [`HeapAuditor::assert_clean`];
//! * **fault injection** — it fails allocations per the [`AllocFaultPlan`]
//!   set with [`HeapAuditor::set_plan`] ([`crate::fault`]), numbering every
//!   attempt as it enters — failed ones too — with the one site counter
//!   the OOM sweep targets and [`LiveBlock::site`] reports;
//! * **the Table 5 profile** — per-region histograms ([`crate::profile`]),
//!   each call attributed to its thread's region
//!   ([`HeapAuditor::set_region`]).
//!
//! All of it is host bookkeeping under one lock, released before every
//! call into the wrapped allocator, and adds no simulated time. A snapshot
//! holds the wrapped heap and every counter; the plan and the threads'
//! regions stay out of it.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tm_sim::Ctx;

use crate::fault::Budget;
use crate::profile::{Region, RegionStats};
use crate::{AllocError, AllocFaultPlan, Allocator, AllocatorAttrs, HeapSnapshot};

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
    /// The request size in bytes.
    pub size: u64,
    /// The 0-based allocation-site index that produced the block: its
    /// ordinal among all malloc *attempts* (successful or failed), counted
    /// as each attempt enters — the numbering [`AllocFaultPlan::NthSite`]
    /// targets, so the OOM sweep names leaked blocks by their site.
    pub site: u64,
}

impl LiveBlock {
    /// Occupied footprint in bytes (`max(size, 1)`, so zero-size blocks
    /// still claim their start address).
    pub fn footprint(&self) -> u64 {
        self.size.max(1)
    }
}

/// Everything a snapshot captures.
#[derive(Clone, Default)]
struct AuditState {
    /// Live blocks: start address → request size and allocation site.
    live: BTreeMap<u64, LiveBlock>,
    /// Allocation attempts so far == the next attempt's site index.
    sites: u64,
    mallocs: u64,
    frees: u64,
    /// Failures the plan injected.
    injected: u64,
    /// What the plan decides on.
    budget: Budget,
    /// Table 5's histograms, indexed by `Region as usize`.
    regions: [RegionStats; 3],
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

/// The wrapper's host state: the snapshotted part plus the settings a
/// restore leaves alone.
#[derive(Default)]
struct Heap {
    state: AuditState,
    plan: AllocFaultPlan,
    /// Each thread's current region; a thread not in it is in `Seq`.
    region: Vec<Region>,
}

impl Heap {
    /// The histogram of `tid`'s current region.
    fn region_stats(&mut self, tid: usize) -> &mut RegionStats {
        let region = self.region.get(tid).copied().unwrap_or(Region::Seq);
        &mut self.state.regions[region as usize]
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

/// The [`Allocator`] wrapper that audits the heap, injects the planned
/// faults and keeps the Table 5 profile. Build one with
/// [`HeapAuditor::new`] (a whole stack with `tm_stm::Stack::new`), hand a
/// clone of the returned `Arc` to the code under test, and inspect
/// [`HeapAuditor::report`] / [`HeapAuditor::assert_clean`] afterwards.
pub struct HeapAuditor {
    inner: Arc<dyn Allocator>,
    heap: Mutex<Heap>,
}

impl HeapAuditor {
    /// Wrap `inner` with empty tracking state, under the `None` plan.
    pub fn new(inner: Arc<dyn Allocator>) -> Arc<HeapAuditor> {
        Arc::new(HeapAuditor {
            inner,
            heap: Mutex::new(Heap::default()),
        })
    }

    /// Replace the fault plan without touching heap or counters (a
    /// probabilistic plan restarts its stream at its seed). The plan is
    /// not part of [`Allocator::snapshot`], so the every-site sweep
    /// restores its checkpoint and then sets the next run's plan.
    pub fn set_plan(&self, plan: AllocFaultPlan) {
        let mut heap = self.heap.lock();
        heap.state.budget.arm(plan);
        heap.plan = plan;
    }

    /// The active fault plan.
    pub fn plan(&self) -> AllocFaultPlan {
        self.heap.lock().plan
    }

    /// Allocation attempts observed so far (the next site index).
    pub fn sites(&self) -> u64 {
        self.heap.lock().state.sites
    }

    /// Failures the plan injected so far.
    pub fn injected(&self) -> u64 {
        self.heap.lock().state.injected
    }

    /// Set the region calls by `tid` are attributed to from now on.
    pub fn set_region(&self, tid: usize, r: Region) {
        let mut heap = self.heap.lock();
        if heap.region.len() <= tid {
            heap.region.resize(tid + 1, Region::Seq);
        }
        heap.region[tid] = r;
    }

    /// The three region histograms, indexed by `Region as usize`, summed
    /// over all threads.
    pub fn region_stats(&self) -> [RegionStats; 3] {
        self.heap.lock().state.regions
    }

    /// Snapshot the audit counters and recorded violations.
    pub fn report(&self) -> AuditReport {
        let heap = self.heap.lock();
        let s = &heap.state;
        AuditReport {
            mallocs: s.mallocs,
            failed_mallocs: s.sites - s.mallocs,
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

impl AuditState {
    /// Audit the block attempt `site` got.
    fn record_malloc(&mut self, addr: u64, size: u64, site: u64) {
        let block = LiveBlock { size, site };
        let footprint = block.footprint();
        self.mallocs += 1;
        self.budget.admit(size);
        if !addr.is_multiple_of(8) {
            self.violate(format!(
                "misaligned block {addr:#x} (size {size}, site {site})"
            ));
        }
        if addr < OS_REGION_BASE {
            self.violate(format!(
                "block {addr:#x} below the OS region base {OS_REGION_BASE:#x} (site {site})"
            ));
        }
        // Overlap: only the nearest live neighbours can intersect.
        let prev = (self.live.range(..=addr).next_back()).map(|(&p, &b)| (p, b));
        let next = (self.live.range(addr + 1..).next()).map(|(&n, &b)| (n, b));
        let prev = prev.filter(|(p, b)| p + b.footprint() > addr);
        let next = next.filter(|(n, _)| addr + footprint > *n);
        for (other, b) in prev.into_iter().chain(next) {
            self.violate(format!(
                "block [{addr:#x},+{footprint}) (site {site}) overlaps live \
                 [{other:#x},+{}) from site {}",
                b.footprint(),
                b.site
            ));
        }
        if let Some(old) = self.live.insert(addr, block) {
            self.violate(format!(
                "block {addr:#x} returned while still live (site {site}; \
                 first handed out at site {})",
                old.site
            ));
        }
        self.peak_live = self.peak_live.max(self.live.len());
    }

    /// Audit a free about to be delegated; the freed block's request size,
    /// if it was live.
    fn record_free(&mut self, addr: u64) -> Option<u64> {
        self.frees += 1;
        let freed = self.live.remove(&addr).map(|b| b.size);
        if freed.is_none() {
            // Name the enclosing live block's site for interior pointers.
            let interior = self
                .live
                .range(..=addr)
                .next_back()
                .filter(|(&p, b)| p + b.footprint() > addr)
                .map(|(_, b)| format!(" (inside the block from site {})", b.site))
                .unwrap_or_default();
            self.violate(format!(
                "free of {addr:#x} which is not the start of a live block \
                 (double free, interior pointer, or foreign address){interior}"
            ));
        }
        freed
    }
}

impl Allocator for HeapAuditor {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        // The attempt is counted, numbered and judged as it enters, so a
        // failed one consumes a site too.
        let site = {
            let mut heap = self.heap.lock();
            heap.region_stats(ctx.tid()).count_malloc(size);
            let plan = heap.plan;
            let s = &mut heap.state;
            let site = s.sites;
            s.sites += 1;
            if let Some(err) = s.budget.decide(plan, site, size) {
                s.injected += 1;
                return Err(err);
            }
            site
        };
        let addr = self.inner.try_malloc(ctx, size)?;
        self.heap.lock().state.record_malloc(addr, size, site);
        Ok(addr)
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        // Audited before the inner free's events hand the turn on, so a
        // block on its way back no longer counts towards `peak_live`. A
        // free the inner allocator refuses is a violation too.
        let freed = {
            let mut heap = self.heap.lock();
            heap.region_stats(ctx.tid()).frees += 1;
            heap.state.record_free(addr)
        };
        self.inner.try_free(ctx, addr)?;
        // The plan's totals shrink only once the inner free is done: a
        // budget decision on another thread meanwhile still counts it.
        if let Some(size) = freed {
            self.heap.lock().state.budget.release(size);
        }
        Ok(())
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
            state: self.heap.lock().state.clone(),
        }))
    }

    fn restore(&self, snap: &HeapSnapshot) {
        let snap = snap
            .downcast_ref::<AuditSnapshot>()
            .expect("heap auditor: restore of a foreign heap snapshot");
        self.inner.restore(&snap.inner);
        self.heap.lock().state.clone_from(&snap.state);
    }

    fn attributes(&self) -> AllocatorAttrs {
        self.inner.attributes()
    }
}

/// Frozen wrapper state: the wrapped allocator's snapshot plus every
/// counter at capture time (not the plan, not the regions).
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

    /// Hands thread `tid` the block at `OS_REGION_BASE + 64 * tid`, after
    /// a shared event that thread 0 reaches 1000 cycles later than thread 1.
    struct Staggered;
    impl Allocator for Staggered {
        fn try_malloc(&self, ctx: &mut Ctx<'_>, _size: u64) -> Result<u64, AllocError> {
            let tid = ctx.tid() as u64;
            ctx.tick(1000 * (1 - tid));
            ctx.read_u64(OS_REGION_BASE);
            Ok(OS_REGION_BASE + 64 * tid)
        }
        fn try_free(&self, _ctx: &mut Ctx<'_>, _addr: u64) -> Result<(), AllocError> {
            Ok(())
        }
        fn min_block(&self) -> u64 {
            8
        }
        fn attributes(&self) -> AllocatorAttrs {
            Broken.attributes()
        }
    }

    /// Thread 0 enters first and returns last: a block's site is its
    /// attempt's entry order, the numbering `NthSite` targets, not the
    /// order the blocks came back in.
    #[test]
    fn a_site_is_numbered_as_its_attempt_enters() {
        let run = |plan: AllocFaultPlan| {
            let sim = Sim::new(MachineConfig::xeon_e5405());
            let auditor = HeapAuditor::new(Arc::new(Staggered));
            auditor.set_plan(plan);
            let got = Mutex::new([None; 2]);
            sim.run(2, |ctx| {
                got.lock()[ctx.tid()] = Some(auditor.try_malloc(ctx, 8))
            });
            (got.into_inner(), auditor.report())
        };
        let (got, report) = run(AllocFaultPlan::None);
        assert_eq!(got[1], Some(Ok(OS_REGION_BASE + 64)));
        let sites: Vec<u64> = report.live_blocks.iter().map(|(_, b)| b.site).collect();
        assert_eq!(
            sites,
            [0, 1],
            "thread 0's block is site 0, thread 1's site 1"
        );
        let (got, _) = run(AllocFaultPlan::NthSite(1));
        assert_eq!(got[0], Some(Ok(OS_REGION_BASE)));
        assert_eq!(got[1], Some(Err(AllocError::Injected { site: 1, size: 8 })));
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
