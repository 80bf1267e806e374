//! The `threadtest` allocator microbenchmark (paper §3.5, Fig. 3).
//!
//! N threads repeatedly do nothing but allocate and immediately deallocate
//! a block of a fixed size. Throughput (malloc/free pairs per second)
//! exposes each allocator's fast-path boundary: TCMalloc suffers at
//! 16 bytes (central-span false sharing), Hoard falls to Glibc levels past
//! its 256-byte local-cache bound, TBB stays flat until ~8 KB.

use tm_alloc::AllocatorKind;
use tm_sim::{MachineConfig, Sim};

/// Configuration for one threadtest point.
#[derive(Clone, Debug)]
pub struct ThreadtestConfig {
    /// Allocator under test.
    pub allocator: AllocatorKind,
    /// Worker thread count.
    pub threads: usize,
    /// Bytes per allocated block.
    pub block_size: u64,
    /// malloc/free pairs per thread.
    pub pairs_per_thread: u64,
}

/// Result of one threadtest point.
#[derive(Clone, Copy, Debug)]
pub struct ThreadtestResult {
    /// Million operations (pairs) per virtual second — Fig. 3's y-axis.
    pub mops: f64,
    /// Virtual seconds of the run.
    pub seconds: f64,
    /// L1 miss ratio (diagnoses the TCMalloc 16-byte false-sharing dip).
    pub l1_miss: f64,
}

/// Run one threadtest configuration. Deterministic.
pub fn run_threadtest(cfg: &ThreadtestConfig) -> ThreadtestResult {
    run_threadtest_on(&Sim::new(MachineConfig::xeon_e5405()), cfg)
}

/// [`run_threadtest`] on a machine the caller built, and can inspect
/// afterwards.
pub fn run_threadtest_on(sim: &Sim, cfg: &ThreadtestConfig) -> ThreadtestResult {
    let alloc = cfg.allocator.build(sim);
    let report = sim.run(cfg.threads, |ctx| {
        for _ in 0..cfg.pairs_per_thread {
            let p = alloc.malloc(ctx, cfg.block_size);
            // Touch the block like a real workload would (this is what
            // makes cross-thread adjacent blocks false-share).
            ctx.write_u64(p, ctx.tid() as u64);
            alloc.free(ctx, p);
        }
    });
    let pairs = (cfg.threads as u64 * cfg.pairs_per_thread) as f64;
    ThreadtestResult {
        // No pairs take no virtual time: a throughput of zero, not 0 / 0.
        mops: if report.seconds > 0.0 {
            pairs / report.seconds / 1e6
        } else {
            0.0
        },
        seconds: report.seconds,
        l1_miss: report.cache_total.l1_miss_ratio(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(allocator: AllocatorKind, size: u64) -> ThreadtestResult {
        run_threadtest(&ThreadtestConfig {
            allocator,
            threads: 4,
            block_size: size,
            pairs_per_thread: 300,
        })
    }

    #[test]
    fn all_allocators_complete() {
        for kind in AllocatorKind::ALL {
            let r = point(kind, 64);
            assert!(r.mops > 0.0, "{kind:?} produced no throughput");
        }
    }

    #[test]
    fn a_run_of_no_pairs_has_a_throughput_of_zero_not_nan() {
        for kind in AllocatorKind::ALL {
            let r = run_threadtest(&ThreadtestConfig {
                allocator: kind,
                threads: 2,
                block_size: 64,
                pairs_per_thread: 0,
            });
            assert_eq!((r.mops, r.seconds, r.l1_miss), (0.0, 0.0, 0.0), "{kind:?}");
        }
    }

    #[test]
    fn hoard_fast_path_boundary() {
        // Paper Fig. 3: Hoard is fast at <= 256 B and collapses beyond,
        // because every op then locks the heap and the superblock.
        let small = point(AllocatorKind::Hoard, 128);
        let large = point(AllocatorKind::Hoard, 512);
        assert!(
            small.mops > 2.0 * large.mops,
            "expected >2x drop past 256 B (got {:.1} vs {:.1} Mops)",
            small.mops,
            large.mops
        );
    }

    #[test]
    fn glibc_always_locks() {
        // Glibc has no synchronization-free path: even small blocks are
        // slower than TBB's private-list hits.
        let glibc = point(AllocatorKind::Glibc, 64);
        let tbb = point(AllocatorKind::TbbMalloc, 64);
        assert!(
            tbb.mops > glibc.mops,
            "TBB ({:.1}) should beat Glibc ({:.1}) at 64 B",
            tbb.mops,
            glibc.mops
        );
    }

    #[test]
    fn deterministic() {
        let a = point(AllocatorKind::TcMalloc, 64);
        let b = point(AllocatorKind::TcMalloc, 64);
        assert_eq!(a.seconds, b.seconds);
    }
}
