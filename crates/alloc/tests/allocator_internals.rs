//! Behavioural tests of allocator internals: superblock exhaustion, size
//! class boundaries, refill policies and lock traffic signatures.

use parking_lot::Mutex;
use tm_alloc::AllocatorKind;
use tm_sim::{MachineConfig, Sim};

#[test]
fn hoard_superblock_exhaustion_spills_to_new_superblock() {
    // 8 KB class → 8 blocks per 64 KB superblock; the 9th allocation must
    // land in a different superblock without overlap.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let a = AllocatorKind::Hoard.build(&sim);
    let addrs = Mutex::new(Vec::new());
    sim.run(1, |ctx| {
        for _ in 0..9 {
            addrs.lock().push(a.malloc(ctx, 8192));
        }
    });
    let v = addrs.into_inner();
    let sb0 = v[0] >> 16;
    assert!(v[..8].iter().all(|&p| p >> 16 == sb0));
    assert_ne!(v[8] >> 16, sb0, "9th block must come from a new superblock");
}

#[test]
fn tbb_superblock_exhaustion() {
    // 16 KB superblock of 64-byte blocks = 256 blocks; allocate 300.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let a = AllocatorKind::TbbMalloc.build(&sim);
    let addrs = Mutex::new(Vec::new());
    sim.run(1, |ctx| {
        for _ in 0..300 {
            addrs.lock().push(a.malloc(ctx, 64));
        }
    });
    let v = addrs.into_inner();
    let mut uniq = std::collections::HashSet::new();
    for &p in &v {
        assert!(uniq.insert(p), "duplicate block");
    }
    let sbs: std::collections::HashSet<u64> = v.iter().map(|p| p >> 14).collect();
    assert!(sbs.len() >= 2, "300 x 64 B must span 2+ superblocks");
}

#[test]
fn tcmalloc_batch_growth_is_visible_in_span_usage() {
    // Alternating with a second thread forces central refills; batch sizes
    // 1,2,3,... mean the Nth refill brings N blocks.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let a = AllocatorKind::TcMalloc.build(&sim);
    let seq = Mutex::new(Vec::new());
    sim.run(1, |ctx| {
        // 1st malloc: refill 1 (addr A). 2nd: refill 2 (A+16, A+32) →
        // returns A+16, caches A+32. 3rd: cache hit (A+32). 4th: refill 3.
        for _ in 0..6 {
            seq.lock().push(a.malloc(ctx, 16));
        }
    });
    let v = seq.into_inner();
    // Addresses must ascend in span order within refills.
    assert_eq!(v[1] + 16, v[2], "batch-of-2 must be handed out in order");
}

#[test]
fn glibc_bins_are_size_exact() {
    // A freed 64-byte chunk must not satisfy a 128-byte request.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let a = AllocatorKind::Glibc.build(&sim);
    sim.run(1, |ctx| {
        let p = a.malloc(ctx, 48); // 64-byte chunk
        a.free(ctx, p);
        let q = a.malloc(ctx, 120); // 144-byte chunk
        assert_ne!(p, q, "different size class must not reuse the chunk");
        let r = a.malloc(ctx, 48);
        assert_eq!(r, p, "same chunk size must reuse the freed block");
    });
}

#[test]
fn large_and_small_interleave_without_overlap() {
    for kind in AllocatorKind::ALL {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = kind.build(&sim);
        let blocks = Mutex::new(Vec::new());
        sim.run(1, |ctx| {
            for i in 0..30u64 {
                let size = if i % 3 == 0 { 300_000 } else { 24 + i };
                let p = a.malloc(ctx, size);
                ctx.write_u64(p, i);
                blocks.lock().push((p, size));
            }
        });
        let v = blocks.into_inner();
        for (i, &(p, s)) in v.iter().enumerate() {
            for &(q, qs) in &v[i + 1..] {
                assert!(
                    p + s <= q || q + qs <= p,
                    "{kind:?}: [{p:#x},{s}) overlaps [{q:#x},{qs})"
                );
            }
        }
    }
}

#[test]
fn allocator_lock_signatures() {
    // Glibc: every op takes the arena lock. TBB/TC: near-zero acquisitions
    // for small cached churn. The lock counters expose the Table 1 designs.
    let count_acquisitions = |kind: AllocatorKind| {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = kind.build(&sim);
        let r = sim.run(1, |ctx| {
            let p = a.malloc(ctx, 64);
            a.free(ctx, p);
            for _ in 0..50 {
                let p = a.malloc(ctx, 64);
                a.free(ctx, p);
            }
        });
        r.locks.acquisitions
    };
    let glibc = count_acquisitions(AllocatorKind::Glibc);
    let tbb = count_acquisitions(AllocatorKind::TbbMalloc);
    let tc = count_acquisitions(AllocatorKind::TcMalloc);
    assert!(glibc >= 100, "Glibc must lock per op (got {glibc})");
    assert!(tbb <= 5, "TBB steady churn must be lock-free (got {tbb})");
    assert!(tc <= 5, "TC steady churn must be lock-free (got {tc})");
}

#[test]
fn hoard_large_class_locks_per_op() {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let a = AllocatorKind::Hoard.build(&sim);
    let r = sim.run(1, |ctx| {
        for _ in 0..20 {
            let p = a.malloc(ctx, 1024); // > 256 B: no local cache
            a.free(ctx, p);
        }
    });
    assert!(
        r.locks.acquisitions >= 40,
        "Hoard >256 B path must lock heap+superblock per op (got {})",
        r.locks.acquisitions
    );
}

#[test]
fn restoring_a_sibling_instances_snapshot_panics_with_the_models_name() {
    // Two instances driven identically have states of the same shape — no
    // missing superblock, no shorter arena list — so only the snapshot's own
    // record of where it came from can tell them apart.
    for (kind, model) in [
        (AllocatorKind::Glibc, "glibc model"),
        (AllocatorKind::Hoard, "hoard model"),
        (AllocatorKind::TbbMalloc, "tbb model"),
        (AllocatorKind::TcMalloc, "tcmalloc model"),
    ] {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let (a, sibling) = (kind.build(&sim), kind.build(&sim));
        sim.run(1, |ctx| {
            for alloc in [&a, &sibling] {
                let p = alloc.malloc(ctx, 64);
                alloc.free(ctx, p);
            }
        });
        let snap = sibling.snapshot().expect("every model checkpoints");
        let restore = std::panic::AssertUnwindSafe(|| a.restore(&snap));
        let payload = std::panic::catch_unwind(restore)
            .expect_err(&format!("{kind:?} accepted its sibling's snapshot"));
        let text = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            text.starts_with(model) && text.contains("foreign heap snapshot"),
            "{kind:?}: {text}"
        );
    }
}

#[test]
fn a_freed_large_block_gives_its_pages_back() {
    use std::sync::Arc;
    use tm_alloc::{Allocator, SerialLockAllocator};
    // A mapping of exactly 256 pages: the sizes leave room for Glibc's and
    // the serial model's 16-byte header and round up to it elsewhere, so a
    // model that unmaps the requested size, or from the user address,
    // keeps the last or the first page.
    const MAPPED: u64 = 1 << 20;
    type Build = fn(&Sim) -> Arc<dyn Allocator>;
    let models: [(&str, Build, u64); 5] = [
        ("Glibc", |s| AllocatorKind::Glibc.build(s), MAPPED - 24),
        ("Hoard", |s| AllocatorKind::Hoard.build(s), MAPPED - 8),
        ("TBB", |s| AllocatorKind::TbbMalloc.build(s), MAPPED - 8),
        ("TC", |s| AllocatorKind::TcMalloc.build(s), MAPPED - 8),
        (
            "Serial",
            |s| Arc::new(SerialLockAllocator::new(s)),
            MAPPED - 24,
        ),
    ];
    for (name, build, size) in models {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let a = build(&sim);
        // A small block first, so the model's own structures are mapped.
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, 64);
            a.free(ctx, p);
        });
        let pages = || sim.with_state(|m| m.resident_pages());
        let os = || sim.with_state(|m| m.os_allocated());
        let (pages0, os0) = (pages(), os());
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, size);
            ctx.write_u64(p, 1);
            ctx.write_u64(p + size - 8, 2);
            a.free(ctx, p);
        });
        assert_eq!(pages(), pages0, "{name}: resident pages after the free");
        assert_eq!(os() - os0, MAPPED, "{name}: bytes mapped for the block");
        assert_eq!(sim.with_state(|m| m.released_accesses()), 0, "{name}");
        // The block's pages were materialized: without the unmap they stay.
        sim.run(1, |ctx| {
            let p = a.malloc(ctx, size);
            ctx.write_u64(p, 1);
            ctx.write_u64(p + size - 8, 2);
        });
        assert_eq!(pages(), pages0 + 2, "{name}: a live block's pages");
    }
}
