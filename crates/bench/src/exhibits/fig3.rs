//! Figure 3: threadtest throughput vs block size, 8 threads, 4 allocators.
use crate::scale;
use tm_alloc::AllocatorKind;
use tm_core::threadtest::{run_threadtest, ThreadtestConfig};
use tm_obs::Series;

/// Figure 3 as a run report.
pub fn run() -> crate::RunReport {
    let sizes = [16u64, 64, 128, 256, 512, 2048, 8192];
    let pairs = 400 * scale();
    let mut series = Vec::new();
    for kind in AllocatorKind::ALL {
        series.push(Series {
            label: kind.name().to_string(),
            points: sizes
                .iter()
                .map(|&size| {
                    let r = run_threadtest(&ThreadtestConfig {
                        allocator: kind,
                        threads: 8,
                        block_size: size,
                        pairs_per_thread: pairs,
                    });
                    (size as f64, r.mops)
                })
                .collect(),
        });
    }
    crate::RunReport::new("fig3", "figure")
        .meta("scale", scale())
        .meta("threads", 8)
        .section("throughput", crate::series_section("block_size", &series))
}
