//! Labyrinth on Glibc at 8 threads, scale 8, seed 13: the cell where the
//! write-back STM resolves a route twice. Labyrinth's checksum is its
//! resolved-route count; the 8-thread run must not panic and must end on
//! the 1-thread run's count. Under write-through it does. Under the default
//! write-back the run panics with `every route attempt must resolve left:
//! 65 right: 64` (ROADMAP item 1), so that half is ignored until the defect
//! is fixed, and is then the fix's acceptance test.

use tm_alloc::AllocatorKind;
use tm_stamp::apps::Labyrinth;
use tm_stamp::runner::{run_app_on, StampOpts};
use tm_stm::{Stack, WriteMode};

const SEED: u64 = 13;
const SCALE: u64 = 8;

/// The resolved-route count of a Labyrinth run at `threads` threads.
fn resolved_routes(write_mode: WriteMode, threads: usize) -> u64 {
    let opts = StampOpts {
        write_mode,
        seed: SEED,
        ..StampOpts::default()
    };
    let stack = Stack::new(&opts.spec(AllocatorKind::Glibc));
    // `make_app`'s Labyrinth at this scale.
    let app = Labyrinth::new(12, 8 * SCALE, SEED);
    run_app_on(&stack, &app, threads);
    app.resolved_routes(&stack.sim)
        .expect("the run initialised the app")
}

fn eight_threads_match_one(write_mode: WriteMode) {
    let serial = resolved_routes(write_mode, 1);
    assert_eq!(serial, 8 * SCALE, "{write_mode:?}: the 1-thread run");
    assert_eq!(
        resolved_routes(write_mode, 8),
        serial,
        "{write_mode:?}: the 8-thread run"
    );
}

#[test]
fn write_through_resolves_every_route_once_at_8_threads() {
    eight_threads_match_one(WriteMode::Through);
}

#[test]
#[ignore = "write-back defect, ROADMAP item 1"]
fn write_back_resolves_every_route_once_at_8_threads() {
    eight_threads_match_one(WriteMode::Back);
}
