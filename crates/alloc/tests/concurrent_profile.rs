//! The acceptance test for the profiling path: 8 simulated threads hammer
//! the profiled allocator (each records into its own row of relaxed
//! atomics), and the merged snapshot must be *exact*, not approximate.

use std::sync::Arc;

use tm_alloc::profile::{AllocProfiler, Region};
use tm_alloc::{Allocator, AllocatorKind};
use tm_sim::{MachineConfig, Sim};

#[test]
fn eight_thread_merge_is_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 200;

    let sim = Sim::new(MachineConfig::xeon_e5405());
    let base = AllocatorKind::TbbMalloc.build(&sim);
    let prof = Arc::new(AllocProfiler::new(base, THREADS));

    let p = Arc::clone(&prof);
    sim.run(THREADS, move |ctx| {
        let tid = ctx.tid();
        p.set_region(tid, Region::Par);
        for i in 0..PER_THREAD {
            // Mix of size classes: 16 B (bucket 0) and 300 B (open bucket).
            let small = p.malloc(ctx, 16);
            let big = p.malloc(ctx, 300);
            p.free(ctx, small);
            if i % 2 == 0 {
                p.free(ctx, big);
            }
        }
        p.set_region(tid, Region::Tx);
        for _ in 0..PER_THREAD / 2 {
            let a = p.malloc(ctx, 48);
            p.free(ctx, a);
        }
    });

    let s = prof.region_stats();
    let n = THREADS as u64;
    let par = &s[Region::Par as usize];
    assert_eq!(par.mallocs, n * 2 * PER_THREAD);
    assert_eq!(par.by_bucket[0], n * PER_THREAD); // 16 B
    assert_eq!(par.by_bucket[7], n * PER_THREAD); // 300 B → "> 256"
    assert_eq!(par.frees, n * (PER_THREAD + PER_THREAD / 2));
    assert_eq!(par.bytes, n * PER_THREAD * (16 + 300));

    let tx = &s[Region::Tx as usize];
    assert_eq!(tx.mallocs, n * PER_THREAD / 2);
    assert_eq!(tx.by_bucket[2], n * PER_THREAD / 2); // 48 B
    assert_eq!(tx.frees, n * PER_THREAD / 2);
    assert_eq!(tx.bytes, n * (PER_THREAD / 2) * 48);

    // Nothing was attributed to seq.
    assert_eq!(s[Region::Seq as usize].mallocs, 0);
    assert_eq!(s[Region::Seq as usize].frees, 0);
}
