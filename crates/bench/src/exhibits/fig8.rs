//! Figure 8: speedup curves for Genome and Yada (vs 1 thread, same
//! allocator).
use crate::{stamp_point, STAMP_THREADS};
use tm_alloc::AllocatorKind;
use tm_obs::Series;
use tm_stamp::AppKind;

/// Figure 8 as a run report.
pub fn run() -> crate::RunReport {
    let mut report = crate::RunReport::new("fig8", "figure").meta("scale", crate::scale());
    for app in [AppKind::Genome, AppKind::Yada] {
        let series: Vec<Series> = AllocatorKind::ALL
            .iter()
            .map(|&kind| {
                let base = stamp_point(app, kind, 1).par_seconds;
                Series {
                    label: kind.name().to_string(),
                    points: STAMP_THREADS
                        .iter()
                        .map(|&t| (t as f64, base / stamp_point(app, kind, t).par_seconds))
                        .collect(),
                }
            })
            .collect();
        report = report.section(app.name(), crate::series_section("cores", &series));
    }
    report
}
