//! Mini Figure 3: the `threadtest` allocator microbenchmark — 8 threads do
//! nothing but malloc/free pairs; throughput vs. block size per allocator.
//!
//! ```sh
//! cargo run --release -p tm-core --example allocator_shootout
//! ```

use tm_alloc::AllocatorKind;
use tm_core::report::render_series;
use tm_core::threadtest::{run_threadtest, ThreadtestConfig};
use tm_obs::Series;

fn main() {
    let sizes = [16u64, 64, 128, 256, 512, 2048];
    let mut series = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut points = Vec::new();
        for &size in &sizes {
            let r = run_threadtest(&ThreadtestConfig {
                allocator: kind,
                threads: 8,
                block_size: size,
                pairs_per_thread: 400,
            });
            points.push((size as f64, r.mops));
        }
        series.push(Series {
            label: kind.name().to_string(),
            points,
        });
    }
    println!(
        "{}",
        render_series(
            "threadtest: Mops (malloc/free pairs per virtual second), 8 threads",
            "block_size",
            &series
        )
    );
    println!("Expected shape (paper Fig. 3): TCMalloc dips at 16 B (central-span");
    println!("false sharing); Hoard collapses past 256 B (heap+superblock locks);");
    println!("Glibc flat and low (arena lock on every op); TBB flat until ~8 KB.");
}
