//! Bayes variance study: the paper singles Bayes out for high run-to-run
//! variability (citing its ref.\ 4) and includes it "for completeness". Under the
//! deterministic simulator the variance axis is the input seed: this
//! ablation sweeps seeds and reports the spread per allocator, showing
//! Bayes' spread dwarfs a stable app's (Genome).
use crate::stamp_point_opts;
use tm_alloc::AllocatorKind;
use tm_stamp::runner::StampOpts;
use tm_stamp::AppKind;

fn spread(app: AppKind, kind: AllocatorKind) -> (f64, f64, f64) {
    let times: Vec<f64> = (0..5u64)
        .map(|i| {
            let opts = StampOpts {
                seed: 0x1000 + i * 7919,
                ..StampOpts::default()
            };
            stamp_point_opts(app, kind, 8, &opts, 2).par_seconds
        })
        .collect();
    let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    (lo, hi, mean)
}

/// The seed-variance study as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for app in [AppKind::Bayes, AppKind::Genome] {
        for kind in [AllocatorKind::Glibc, AllocatorKind::Hoard] {
            let (lo, hi, mean) = spread(app, kind);
            rows.push(vec![
                format!("{}/{}", app.name(), kind.name()),
                format!("{:.4}ms", mean * 1e3),
                format!("{:.4}ms", lo * 1e3),
                format!("{:.4}ms", hi * 1e3),
                format!("{:.1}%", (hi / lo - 1.0) * 100.0),
            ]);
        }
    }
    let header = ["app/allocator", "mean", "min", "max", "spread"];
    crate::RunReport::new("ablation_variance", "ablation")
        .meta("seeds", 5)
        .meta("threads", 8)
        .section("data", crate::table_section(&header, &rows))
}
