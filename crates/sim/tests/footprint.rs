//! Footprint, counted not timed: what a simulated machine asks the host
//! allocator for must follow what the run touched, not what the modelled
//! machine could hold. A counting `#[global_allocator]` holds the two
//! structures sized by the modelled machine — the cache tag arrays and
//! the page radix — to that.
//!
//! One test function: the counters are process-wide. They count only what
//! the thread running it allocates and frees — the harness's own threads
//! allocate whenever they like.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use tm_sim::{MachineConfig, Sim};

/// Bytes ever requested, and bytes requested and not yet given back.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread. `const`-initialised and without a
    /// destructor, so reading it inside the allocator allocates nothing.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

/// Count `requested` bytes asked for and `freed` bytes given back, if the
/// calling thread is the measuring one. `try_with`: a thread being torn down
/// may free after its locals are gone.
fn count(requested: usize, freed: usize) {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        REQUESTED.fetch_add(requested, Relaxed);
        LIVE.fetch_add(requested, Relaxed);
        LIVE.fetch_sub(freed, Relaxed);
    }
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the counters are
// statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` requests from the host allocator.
fn requested_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = REQUESTED.load(Relaxed);
    let r = f();
    (REQUESTED.load(Relaxed) - before, r)
}

const KB: usize = 1024;

#[test]
fn a_machine_costs_what_it_touches() {
    MEASURED.set(true);
    // Building and dropping a machine: kilobytes, where dense tag arrays
    // and a flat page-table root would be megabytes ...
    let (xeon, ()) = requested_by(|| drop(Sim::new(MachineConfig::xeon_e5405())));
    assert!(
        xeon < 256 * KB,
        "Sim::new(xeon_e5405) requested {xeon} bytes"
    );
    // ... and no more for a machine with a 32 MB L2.
    let (modern, ()) = requested_by(|| drop(Sim::new(MachineConfig::modern_8core())));
    assert!(
        modern < 256 * KB,
        "Sim::new(modern_8core) requested {modern} bytes"
    );

    // A snapshot copies what exists: here 64 lines, each on a page of its
    // own — the worst case, 64 pages and 64 groups of L2 tags.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    sim.run(1, |ctx| {
        for page in 0..64u64 {
            ctx.write_u64(0x2000_0000 + page * 4096, page);
        }
    });
    let (snapshot, snap) = requested_by(|| sim.snapshot(None));
    assert_eq!(snap.pages(), 64);
    assert!(
        snapshot < 64 * 4 * KB + 256 * KB,
        "a snapshot of 64 touched lines requested {snapshot} bytes"
    );
    drop((snap, sim));

    // Host storage follows the live mappings: 1 000 blocks of 8 KB, each
    // mapped, written one word and unmapped, leave ~100 KB of radix nodes,
    // log, cache tags and bookkeeping behind — not the 4 MB of the 1 000
    // pages written.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let live_before = LIVE.load(Relaxed);
    sim.run(1, |ctx| {
        for i in 0..1_000u64 {
            let base = ctx.os_alloc(8 * KB as u64, 4096);
            ctx.write_u64(base, i);
            ctx.os_free(base, 8 * KB as u64);
        }
    });
    let kept = LIVE.load(Relaxed) - live_before;
    assert!(
        kept < 160 * KB,
        "1 000 mapped, written and unmapped blocks kept {kept} bytes"
    );
    assert_eq!(sim.with_state(|m| m.resident_pages()), 0);
    assert_eq!(sim.with_state(|m| m.released_accesses()), 0);
    drop(sim);

    // Nothing outlives a machine: the 200th build-run-drop leaves the heap
    // where the 1st left it (fiber stacks are pooled, but mapped directly,
    // and a one-thread run spawns none).
    let round = || {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        sim.run(1, |ctx| {
            for i in 0..10u64 {
                ctx.write_u64(0x3000_0000 + i * 4096, i);
            }
        });
        drop(sim);
        LIVE.load(Relaxed)
    };
    let after_first = round();
    let after_last = (1..200).fold(after_first, |_, _| round());
    assert_eq!(
        after_last, after_first,
        "live bytes after 200 rounds vs after 1"
    );
}
