//! Quickstart: build a simulated 8-core machine, pick an allocator, run
//! concurrent transactions against a shared red–black tree, and print the
//! STM statistics — the whole stack in ~50 lines.
//!
//! ```sh
//! cargo run --release -p tm-core --example quickstart [allocator]
//! ```

use tm_alloc::AllocatorKind;
use tm_core::build_stack;
use tm_ds::{TxRbTree, TxSet};
use tm_obs::spec::one_of;
use tm_stm::StmConfig;

fn main() {
    let kind = std::env::args()
        .nth(1)
        .map_or(AllocatorKind::TbbMalloc, |s| {
            *one_of("allocator", &AllocatorKind::ALL, |k| k.token(), &s)
                .unwrap_or_else(|e| panic!("{e}"))
        });

    let stack = build_stack(kind, StmConfig::default());
    let stm = &stack.stm;
    println!("machine : 8 simulated cores (2 sockets), 32 KB L1, 2x6 MB L2");
    println!("allocator: {}", stack.alloc.attributes().name);
    println!(
        "stm      : ETL write-back, ORT 2^20 x 8 B, stripe {} B\n",
        stm.stripe_bytes()
    );

    // Build the tree on thread 0, then hammer it from 8 threads.
    let tree = parking_lot::Mutex::new(None);
    stack.sim.run(1, |ctx| {
        let t = TxRbTree::new(stm, ctx);
        let mut th = stm.thread(0);
        for key in 0..256u64 {
            t.insert(stm, ctx, &mut th, key * 2);
        }
        stm.retire(th);
        *tree.lock() = Some(t);
    });
    stm.reset_stats();

    let report = stack.sim.run(8, |ctx| {
        let t = tree.lock().unwrap();
        let mut th = stm.thread(ctx.tid());
        let base = ctx.tid() as u64;
        for i in 0..200u64 {
            let key = (base * 7919 + i * 13) % 512;
            match i % 4 {
                0 => {
                    t.insert(stm, ctx, &mut th, key);
                }
                1 => {
                    t.remove(stm, ctx, &mut th, key);
                }
                _ => {
                    t.contains(stm, ctx, &mut th, key);
                }
            }
        }
        stm.retire(th);
    });

    let stats = stm.stats();
    println!("virtual time : {:.3} ms", report.seconds * 1e3);
    println!("commits      : {}", stats.commits);
    println!(
        "aborts       : {} ({:.1} %)",
        stats.aborts(),
        stats.abort_ratio() * 100.0
    );
    println!(
        "throughput   : {:.0} tx/s",
        report.throughput(stats.commits)
    );
    println!(
        "L1 miss rate : {:.2} %",
        report.cache_total.l1_miss_ratio() * 100.0
    );
    println!(
        "alloc locks  : {} contended acquisitions, {} wait cycles",
        report.locks.contended, report.locks.wait_cycles
    );

    // The tree survives the onslaught with its invariants intact.
    stack.sim.run(1, |ctx| {
        let t = tree.lock().unwrap();
        let bh = t.check_invariants_raw(ctx);
        println!("\nred-black invariants hold (black height {bh})");
    });
}
