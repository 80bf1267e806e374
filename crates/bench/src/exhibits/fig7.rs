//! Figure 7: STAMP execution time vs cores for the six discussed apps,
//! all four allocators.
use crate::{stamp_point, STAMP_THREADS};
use tm_alloc::AllocatorKind;
use tm_obs::Series;
use tm_stamp::AppKind;

/// Figure 7 as a run report.
pub fn run() -> crate::RunReport {
    let mut report = crate::RunReport::new("fig7", "figure").meta("scale", crate::scale());
    for app in AppKind::FIG7 {
        let series: Vec<Series> = AllocatorKind::ALL
            .iter()
            .map(|&kind| Series {
                label: kind.name().to_string(),
                points: STAMP_THREADS
                    .iter()
                    .map(|&t| (t as f64, stamp_point(app, kind, t).par_seconds * 1e3))
                    .collect(),
            })
            .collect();
        report = report.section(app.name(), crate::series_section("cores", &series));
    }
    report
}
