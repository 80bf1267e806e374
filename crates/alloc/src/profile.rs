//! Allocation-site instrumentation for the paper's Table 5.
//!
//! Table 5 characterizes STAMP's memory behaviour by counting allocations
//! per size class in three code regions: `seq` (sequential initialization),
//! `par` (parallel region, outside transactions) and `tx` (inside
//! transactions). [`AllocProfiler`] wraps any [`Allocator`] and keeps those
//! histograms; the wrapped allocator still performs the real placement, so
//! profiling runs produce the same layout as measurement runs.
//!
//! The counts are one plain `Profile` behind a host mutex. Between two
//! simulated events only one logical thread runs (DESIGN.md §4.1), so the
//! lock is never contended, and it is never held across a call into the
//! wrapped allocator.

use parking_lot::Mutex;
use tm_sim::Ctx;

use crate::{AllocError, Allocator};

/// Code region an allocation is attributed to (Table 5 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// Sequential phase (initialization).
    Seq = 0,
    /// Parallel region, outside any transaction.
    Par = 1,
    /// Inside a transaction.
    Tx = 2,
}

impl Region {
    /// All three regions, in attribution-priority order.
    pub const ALL: [Region; 3] = [Region::Seq, Region::Par, Region::Tx];

    /// Row label used by the Table 5 regenerator.
    pub fn name(self) -> &'static str {
        match self {
            Region::Seq => "seq",
            Region::Par => "par",
            Region::Tx => "tx",
        }
    }
}

/// Size-class buckets used by Table 5 (upper bounds; the last is open).
pub const BUCKETS: [u64; 8] = [16, 32, 48, 64, 96, 128, 256, u64::MAX];

/// Label for bucket `i`, e.g. `"48"` or `"> 256"`.
pub fn bucket_label(i: usize) -> &'static str {
    ["16", "32", "48", "64", "96", "128", "256", "> 256"][i]
}

fn bucket_of(size: u64) -> usize {
    BUCKETS.iter().position(|&b| size <= b).unwrap()
}

/// Histogram for one region.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegionStats {
    /// Allocation counts per [`BUCKETS`] entry.
    pub by_bucket: [u64; 8],
    /// Total `malloc` calls attributed to the region.
    pub mallocs: u64,
    /// Total `free` calls attributed to the region.
    pub frees: u64,
    /// Total requested bytes.
    pub bytes: u64,
}

/// What the profiler has counted so far.
struct Profile {
    /// Each thread's current region.
    region: Vec<Region>,
    /// The three region histograms, indexed by `Region as usize`.
    stats: [RegionStats; 3],
}

impl Profile {
    /// The histogram of `tid`'s current region.
    fn current(&mut self, tid: usize) -> &mut RegionStats {
        &mut self.stats[self.region[tid] as usize]
    }
}

/// An [`Allocator`] wrapper recording per-region allocation histograms.
pub struct AllocProfiler<A: Allocator> {
    inner: A,
    profile: Mutex<Profile>,
}

impl<A: Allocator> AllocProfiler<A> {
    /// Wrap `inner`, sized for at most `max_threads` recording threads,
    /// each starting in [`Region::Seq`].
    pub fn new(inner: A, max_threads: usize) -> Self {
        let profile = Profile {
            region: vec![Region::Seq; max_threads],
            stats: [RegionStats::default(); 3],
        };
        AllocProfiler {
            inner,
            profile: Mutex::new(profile),
        }
    }

    /// Set the region allocations by `tid` are attributed to from now on.
    pub fn set_region(&self, tid: usize, r: Region) {
        self.profile.lock().region[tid] = r;
    }

    /// The region `tid`'s allocations are currently attributed to.
    pub fn current_region(&self, tid: usize) -> Region {
        self.profile.lock().region[tid]
    }

    /// The three region histograms, indexed by `Region as usize`, summed
    /// over all threads. (Named to stay clear of the checkpoint method
    /// [`Allocator::snapshot`].)
    pub fn region_stats(&self) -> [RegionStats; 3] {
        self.profile.lock().stats
    }

    /// The wrapped allocator.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Allocator> Allocator for AllocProfiler<A> {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        {
            let mut profile = self.profile.lock();
            let s = profile.current(ctx.tid());
            s.by_bucket[bucket_of(size)] += 1;
            s.mallocs += 1;
            s.bytes = s.bytes.wrapping_add(size);
        }
        self.inner.try_malloc(ctx, size)
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        self.profile.lock().current(ctx.tid()).frees += 1;
        self.inner.try_free(ctx, addr)
    }

    fn min_block(&self) -> u64 {
        self.inner.min_block()
    }

    fn attributes(&self) -> crate::AllocatorAttrs {
        self.inner.attributes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocatorKind, GlibcAllocator};
    use tm_sim::{MachineConfig, Sim};

    #[test]
    fn buckets_match_table5_columns() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(16), 0);
        assert_eq!(bucket_of(17), 1);
        assert_eq!(bucket_of(48), 2);
        assert_eq!(bucket_of(64), 3);
        assert_eq!(bucket_of(96), 4);
        assert_eq!(bucket_of(128), 5);
        assert_eq!(bucket_of(256), 6);
        assert_eq!(bucket_of(257), 7);
        assert_eq!(bucket_of(1 << 30), 7);
    }

    #[test]
    fn regions_attributed() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let prof = AllocProfiler::new(GlibcAllocator::new(&sim), 8);
        sim.run(1, |ctx| {
            prof.set_region(0, Region::Seq);
            let a = prof.malloc(ctx, 16);
            prof.set_region(0, Region::Par);
            let b = prof.malloc(ctx, 100);
            prof.set_region(0, Region::Tx);
            let c = prof.malloc(ctx, 16);
            prof.free(ctx, c);
            prof.free(ctx, b);
            prof.free(ctx, a);
        });
        let s = prof.region_stats();
        assert_eq!(s[Region::Seq as usize].mallocs, 1);
        assert_eq!(s[Region::Seq as usize].by_bucket[0], 1);
        assert_eq!(s[Region::Par as usize].mallocs, 1);
        assert_eq!(s[Region::Par as usize].by_bucket[5], 1); // 100 → "128" bucket
        assert_eq!(s[Region::Tx as usize].mallocs, 1);
        // All three frees were issued while the region was Tx: attribution
        // follows the *current* region, as in the paper's instrumentation.
        assert_eq!(s[Region::Tx as usize].frees, 3);
        assert_eq!(s[Region::Par as usize].frees, 0);
        assert_eq!(s[Region::Seq as usize].frees, 0);
    }

    /// The profiler hands a refusal back instead of panicking, like the
    /// other wrappers; it counts the attempt.
    #[test]
    fn a_refusal_passes_through_the_profiler() {
        use crate::{AllocError, AllocFaultPlan, FaultInjector};
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let faulted = FaultInjector::new(
            AllocatorKind::TbbMalloc.build(&sim),
            AllocFaultPlan::NthSite(0),
        );
        let prof = AllocProfiler::new(faulted, 8);
        sim.run(1, |ctx| {
            let refused = prof.try_malloc(ctx, 16);
            assert_eq!(refused, Err(AllocError::Injected { site: 0, size: 16 }));
            let p = prof.try_malloc(ctx, 16).expect("only site 0 fails");
            prof.try_free(ctx, p).expect("a live block");
        });
        let seq = prof.region_stats()[Region::Seq as usize];
        assert_eq!((seq.mallocs, seq.frees), (2, 1));
        crate::testutil::foreign_frees_are_refused("profiled Glibc", |sim| {
            std::sync::Arc::new(AllocProfiler::new(GlibcAllocator::new(sim), 8))
        });
    }

    #[test]
    fn placement_unchanged_by_profiling() {
        // The profiler must be layout-transparent: same addresses with and
        // without it.
        let sim1 = Sim::new(MachineConfig::xeon_e5405());
        let raw = AllocatorKind::Glibc.build(&sim1);
        let plain = parking_lot::Mutex::new(Vec::new());
        sim1.run(1, |ctx| {
            for _ in 0..10 {
                plain.lock().push(raw.malloc(ctx, 24));
            }
        });
        let sim2 = Sim::new(MachineConfig::xeon_e5405());
        let prof = AllocProfiler::new(GlibcAllocator::new(&sim2), 8);
        let wrapped = parking_lot::Mutex::new(Vec::new());
        sim2.run(1, |ctx| {
            for _ in 0..10 {
                wrapped.lock().push(prof.malloc(ctx, 24));
            }
        });
        assert_eq!(plain.into_inner(), wrapped.into_inner());
    }
}
