//! Whole-stack integration tests: machine + allocator + STM + data
//! structures + harness, exercised together across every allocator.

use std::sync::Arc;
use tm_alloc::AllocatorKind;
use tm_core::synthetic::{run_synthetic, SyntheticConfig};
use tm_core::{build_stack, Stack};
use tm_ds::{StructureKind, TxHashSet, TxList, TxRbTree, TxSet};
use tm_stm::{Stm, StmConfig};

fn tiny(structure: StructureKind, kind: AllocatorKind, threads: usize) -> tm_core::Metrics {
    let mut cfg = SyntheticConfig::scaled(structure, kind, threads);
    cfg.initial_size = 48;
    cfg.key_range = 96;
    cfg.ops_per_thread = 80;
    cfg.buckets = 1 << 10;
    run_synthetic(&cfg)
}

#[test]
fn every_allocator_runs_every_structure() {
    for kind in AllocatorKind::ALL {
        for s in StructureKind::ALL {
            let m = tiny(s, kind, 4);
            assert!(m.commits > 0, "{kind:?}/{s:?}: no commits");
            assert!(m.seconds > 0.0);
            assert!(m.l1_miss >= 0.0 && m.l1_miss <= 1.0);
        }
    }
}

#[test]
fn full_stack_is_deterministic_per_allocator() {
    for kind in AllocatorKind::ALL {
        let a = tiny(StructureKind::RbTree, kind, 6);
        let b = tiny(StructureKind::RbTree, kind, 6);
        assert_eq!(a.seconds, b.seconds, "{kind:?}: nondeterministic time");
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.l1_miss, b.l1_miss);
    }
}

#[test]
fn structures_share_one_heap_without_interference() {
    // A list, a hash set and a tree all carved from the same allocator, all
    // mutated concurrently: each must keep its own invariants.
    let Stack { sim, stm, .. } = build_stack(AllocatorKind::TcMalloc, StmConfig::default());
    let handles = parking_lot::Mutex::new(None);
    sim.run(1, |ctx| {
        let l = TxList::new(&stm, ctx);
        let h = TxHashSet::new(&stm, ctx, 1 << 10);
        let t = TxRbTree::new(&stm, ctx);
        *handles.lock() = Some((l, h, t));
    });
    sim.run(6, |ctx| {
        let (l, h, t) = handles.lock().unwrap();
        let mut th = stm.thread(ctx.tid());
        // Disjoint per-thread key ranges: operations on one key are then
        // sequential (per thread), so all three structures must converge
        // to identical contents regardless of cross-structure interleaving.
        let base = ctx.tid() as u64 * 10;
        for i in 0..40u64 {
            let k = base + (i * 7) % 10;
            l.insert(&stm, ctx, &mut th, k);
            h.insert(&stm, ctx, &mut th, k);
            t.insert(&stm, ctx, &mut th, k);
            if i % 3 == 0 {
                l.remove(&stm, ctx, &mut th, k);
                h.remove(&stm, ctx, &mut th, k);
                t.remove(&stm, ctx, &mut th, k);
            }
        }
        stm.retire(th);
    });
    sim.run(1, |ctx| {
        let (l, h, t) = handles.lock().unwrap();
        assert!(l.is_sorted_raw(ctx), "list lost its sort order");
        t.check_invariants_raw(ctx);
        // Set agreement: all three structures received identical op
        // sequences per thread, so they must contain the same keys.
        let mut th = stm.thread(0);
        for k in 0..64u64 {
            let in_l = l.contains(&stm, ctx, &mut th, k);
            let in_h = h.contains(&stm, ctx, &mut th, k);
            let in_t = t.contains(&stm, ctx, &mut th, k);
            assert_eq!(in_l, in_h, "list vs hash diverged on {k}");
            assert_eq!(in_l, in_t, "list vs tree diverged on {k}");
        }
        stm.retire(th);
    });
}

#[test]
fn quiesce_returns_limbo_blocks() {
    let Stack { sim, stm, .. } = build_stack(AllocatorKind::TbbMalloc, StmConfig::default());
    let list = parking_lot::Mutex::new(None);
    sim.run(1, |ctx| {
        let l = TxList::new(&stm, ctx);
        let mut th = stm.thread(0);
        for k in 0..32u64 {
            l.insert(&stm, ctx, &mut th, k);
        }
        for k in 0..32u64 {
            l.remove(&stm, ctx, &mut th, k);
        }
        stm.retire(th);
        *list.lock() = Some(l);
    });
    // After quiescing, freed nodes are truly back in the allocator: a fresh
    // allocation reuses a recycled address.
    sim.run(1, |ctx| {
        stm.quiesce(ctx);
        let p = stm.allocator().malloc(ctx, 16);
        // TBB recycles LIFO from the private list; the address must be one
        // of the just-freed node slots (all below the current bump).
        let q = stm.allocator().malloc(ctx, 16);
        assert_ne!(p, q);
        stm.allocator().free(ctx, p);
        stm.allocator().free(ctx, q);
    });
}

#[test]
fn object_cache_stack_integration() {
    // With the §6.2 optimization on, a churn workload must hit the cache.
    let sim = tm_sim::Sim::new(tm_sim::MachineConfig::xeon_e5405());
    let alloc = AllocatorKind::Glibc.build(&sim);
    let stm = Arc::new(Stm::new(
        &sim,
        alloc,
        StmConfig {
            object_cache: true,
            ..StmConfig::default()
        },
    ));
    let list = parking_lot::Mutex::new(None);
    sim.run(1, |ctx| {
        *list.lock() = Some(TxList::new(&stm, ctx));
    });
    sim.run(2, |ctx| {
        let l = list.lock().unwrap();
        let mut th = stm.thread(ctx.tid());
        let base = ctx.tid() as u64 * 1000;
        for i in 0..60u64 {
            l.insert(&stm, ctx, &mut th, base + i % 8);
            l.remove(&stm, ctx, &mut th, base + i % 8);
        }
        stm.retire(th);
    });
    let stats = stm.stats();
    assert!(
        stats.cache_hits > 0,
        "object cache never hit under alloc/free churn"
    );
}

/// No committed workload touches a mapping it gave back: the simulated
/// OS's unmap makes a released page read zero where it used to read the
/// stale block, and this holds that change invisible — over Fig. 3's
/// threadtest grid (every allocator at its every block size, 8 threads)
/// and every STAMP app on every allocator at 8 threads, at test scale.
#[test]
fn no_workload_touches_a_page_it_unmapped() {
    use tm_core::threadtest::{run_threadtest_on, ThreadtestConfig};
    use tm_sim::{MachineConfig, Sim};
    use tm_stamp::runner::{make_app, run_app_on, StampOpts};
    use tm_stamp::AppKind;

    for kind in AllocatorKind::ALL {
        for size in [16u64, 64, 128, 256, 512, 2048, 8192] {
            let sim = Sim::new(MachineConfig::xeon_e5405());
            let cfg = ThreadtestConfig {
                allocator: kind,
                threads: 8,
                block_size: size,
                pairs_per_thread: 400,
            };
            run_threadtest_on(&sim, &cfg);
            let touched = sim.with_state(|m| m.released_accesses());
            assert_eq!(touched, 0, "threadtest {kind:?} {size} B");
        }
    }
    let opts = StampOpts::default();
    for app in AppKind::ALL {
        for kind in AllocatorKind::ALL {
            let stack = Stack::new(&opts.spec(kind));
            run_app_on(&stack, make_app(app, 1, opts.seed).as_ref(), 8);
            let touched = stack.sim.with_state(|m| m.released_accesses());
            assert_eq!(touched, 0, "{} on {kind:?}", app.name());
        }
    }
}
