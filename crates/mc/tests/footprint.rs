//! Host allocations per schedule, counted not timed: a warm checker
//! schedule allocates what the simulator's run allocates and little more —
//! the STM's thread descriptors are recycled and the session's scheduling
//! hook is installed once. A counting `#[global_allocator]` holds one warm
//! `Session`, playing the depth-3 sweep of `small_program` on the ETL
//! backend, to that.
//!
//! One test function: the counters are process-wide. They count only what
//! the thread running it allocates — under the default fiber executor the
//! logical threads run on it too. Under `TM_SIM_EXEC=threads` they are OS
//! threads of their own, so there the test has nothing to count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use tm_mc::{RunConfig, Session};

/// Allocation calls, and bytes they requested.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread. `const`-initialised and without a
    /// destructor, so reading it inside the allocator allocates nothing.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

/// Count one call requesting `bytes`, if the calling thread is the
/// measuring one. `try_with`: a thread being torn down may allocate after
/// its locals are gone.
fn count(bytes: usize) {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Relaxed);
        REQUESTED.fetch_add(bytes, Relaxed);
    }
}

struct Counting;

// SAFETY: every call is handed to `System` unchanged; the counters are
// statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KB: usize = 1024;

#[test]
fn a_warm_schedule_allocates_little() {
    if std::env::var("TM_SIM_EXEC").as_deref() == Ok("threads") {
        return;
    }
    let program = tm_mc::small_program();
    let cfg = RunConfig::clean();
    // Every schedule of `quick_clean_config(3)`: up to three of the six
    // points delayed by 400 cycles.
    let points = program.points();
    let schedules: Vec<Vec<u64>> = (0u32..1 << points)
        .filter(|support| support.count_ones() <= 3)
        .map(|support| {
            (0..points)
                .map(|p| if support >> p & 1 == 1 { 400 } else { 0 })
                .collect()
        })
        .collect();
    assert_eq!(schedules.len(), 42);

    let mut session = Session::try_new(&program, &cfg).expect("the clean cell checkpoints");
    let sweep = |session: &mut Session| {
        for delays in &schedules {
            session.run(delays).expect("the clean STM conserves");
        }
    };
    sweep(&mut session);
    MEASURED.set(true);
    sweep(&mut session);
    MEASURED.set(false);

    let n = schedules.len();
    let (calls, bytes) = (CALLS.load(Relaxed), REQUESTED.load(Relaxed));
    // A run that builds its three descriptors and its hook afresh makes
    // about 44 calls for 40 KB.
    assert!(calls <= 20 * n, "{calls} allocations over {n} schedules");
    assert!(
        bytes <= 16 * KB * n,
        "{bytes} bytes requested over {n} schedules"
    );
}
