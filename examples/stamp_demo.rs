//! Run one STAMP application across all four allocators and watch the
//! paper's headline effect: the same binary, the same workload, and the
//! execution time moves by double-digit percentages just from swapping the
//! allocator.
//!
//! ```sh
//! cargo run --release -p tm-core --example stamp_demo [app] [threads]
//! # e.g.  cargo run --release -p tm-core --example stamp_demo yada 8
//! ```

use tm_alloc::AllocatorKind;
use tm_core::report::{best_worst, render_table};
use tm_obs::spec::one_of;
use tm_stamp::runner::{run_kind, StampOpts};
use tm_stamp::AppKind;

fn main() {
    let app = std::env::args().nth(1).map_or(AppKind::Yada, |s| {
        *one_of("app", &AppKind::ALL, |k| k.token(), &s).unwrap_or_else(|e| panic!("{e}"))
    });
    let threads: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("thread count"))
        .unwrap_or(8);

    println!("app: {} | threads: {threads} | scale: 2\n", app.name());
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for kind in AllocatorKind::ALL {
        let r = run_kind(app, kind, threads, &StampOpts::default(), 2);
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.3}", r.par_seconds * 1e3),
            format!("{}", r.commits),
            format!("{:.1}%", r.abort_ratio * 100.0),
            format!("{:.2}%", r.l1_miss * 100.0),
            format!("{}", r.lock_wait_cycles),
        ]);
        entries.push((kind.name().to_string(), r.par_seconds));
    }
    println!(
        "{}",
        render_table(
            &format!("{} on {threads} simulated cores", app.name()),
            &[
                "allocator",
                "time (ms)",
                "commits",
                "aborts",
                "L1 miss",
                "lock wait (cyc)"
            ],
            &rows
        )
    );
    let bw = best_worst(&entries, true);
    println!(
        "best: {}   worst: {}   difference: {:.1} %",
        bw.best, bw.worst, bw.diff_pct
    );
}
