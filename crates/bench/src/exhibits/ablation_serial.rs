//! Negative-control ablation for the paper's §3 claim: a good serial
//! allocator behind one global lock "will inevitably serialize all
//! allocations and badly hurt scalability". threadtest-style scaling of
//! the strawman vs the four studied allocators.
use std::sync::Arc;
use tm_alloc::{Allocator, AllocatorKind, SerialLockAllocator};
use tm_obs::Series;
use tm_sim::{MachineConfig, Sim};

fn throughput(make: impl Fn(&Sim) -> Arc<dyn Allocator>, threads: usize) -> f64 {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let a = make(&sim);
    let pairs = 400u64;
    let r = sim.run(threads, |ctx| {
        for _ in 0..pairs {
            let p = a.malloc(ctx, 64);
            ctx.write_u64(p, 1);
            a.free(ctx, p);
        }
    });
    (threads as u64 * pairs) as f64 / r.seconds / 1e6
}

/// The serial-lock strawman ablation as a run report.
pub fn run() -> crate::RunReport {
    let mut series = Vec::new();
    for kind in AllocatorKind::ALL {
        series.push(Series {
            label: kind.name().to_string(),
            points: [1usize, 2, 4, 8]
                .iter()
                .map(|&t| (t as f64, throughput(|s| kind.build(s), t)))
                .collect(),
        });
    }
    series.push(Series {
        label: "SerialLock".into(),
        points: [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                (
                    t as f64,
                    throughput(|s| Arc::new(SerialLockAllocator::new(s)), t),
                )
            })
            .collect(),
    });
    crate::RunReport::new("ablation_serial", "ablation")
        .meta("block_size", 64)
        .section("throughput", crate::series_section("threads", &series))
}
