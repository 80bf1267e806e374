//! Allocation-site regions for the paper's Table 5.
//!
//! Table 5 characterizes STAMP's memory behaviour by counting allocations
//! per size class in three code regions: `seq` (sequential initialization),
//! `par` (parallel region, outside transactions) and `tx` (inside
//! transactions). The [`crate::HeapAuditor`] keeps one [`RegionStats`]
//! histogram per region and attributes each call to its thread's current
//! region ([`crate::HeapAuditor::set_region`]); the wrapped allocator still
//! performs the real placement, so profiling runs produce the same layout
//! as measurement runs.

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

pub(crate) fn bucket_of(size: u64) -> usize {
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

impl RegionStats {
    /// Count a `size`-byte `malloc` attempt.
    pub(crate) fn count_malloc(&mut self, size: u64) {
        self.by_bucket[bucket_of(size)] += 1;
        self.mallocs += 1;
        self.bytes = self.bytes.wrapping_add(size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Allocator, AllocatorKind, HeapAuditor};
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
        let prof = HeapAuditor::new(AllocatorKind::Glibc.build(&sim));
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

    /// The profile counts an attempt the fault plan refuses, and the
    /// refusal comes back instead of a panic.
    #[test]
    fn a_refusal_passes_through_the_profiler() {
        use crate::{AllocError, AllocFaultPlan};
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let prof = HeapAuditor::new(AllocatorKind::TbbMalloc.build(&sim));
        prof.set_plan(AllocFaultPlan::NthSite(0));
        sim.run(1, |ctx| {
            let refused = prof.try_malloc(ctx, 16);
            assert_eq!(refused, Err(AllocError::Injected { site: 0, size: 16 }));
            let p = prof.try_malloc(ctx, 16).expect("only site 0 fails");
            prof.try_free(ctx, p).expect("a live block");
        });
        let seq = prof.region_stats()[Region::Seq as usize];
        assert_eq!((seq.mallocs, seq.frees), (2, 1));
        crate::testutil::foreign_frees_are_refused("audited Glibc", |sim| {
            HeapAuditor::new(AllocatorKind::Glibc.build(sim))
        });
    }

    #[test]
    fn placement_unchanged_by_profiling() {
        // The profile must be layout-transparent: same addresses with and
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
        let prof = HeapAuditor::new(AllocatorKind::Glibc.build(&sim2));
        let wrapped = parking_lot::Mutex::new(Vec::new());
        sim2.run(1, |ctx| {
            for _ in 0..10 {
                wrapped.lock().push(prof.malloc(ctx, 24));
            }
        });
        assert_eq!(plain.into_inner(), wrapped.into_inner());
    }
}
