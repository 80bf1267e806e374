//! Table 6: best and worst allocators per STAMP application (time at the
//! best-performing thread count).
use crate::{stamp_point, STAMP_THREADS};
use tm_alloc::AllocatorKind;
use tm_core::report::best_worst;
use tm_stamp::AppKind;

/// Table 6 as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for app in AppKind::FIG7 {
        let mut entries = Vec::new();
        let mut best_threads = std::collections::HashMap::new();
        for kind in AllocatorKind::ALL {
            let mut best = (0usize, f64::INFINITY);
            for &t in &STAMP_THREADS {
                let r = stamp_point(app, kind, t);
                if r.par_seconds < best.1 {
                    best = (t, r.par_seconds);
                }
            }
            best_threads.insert(kind.name().to_string(), best.0);
            entries.push((kind.name().to_string(), best.1));
        }
        let bw = best_worst(&entries, true);
        let at_threads = best_threads[&bw.best];
        rows.push(vec![
            app.name().into(),
            bw.best,
            bw.worst,
            format!("{:.1}%", bw.diff_pct),
            format!("{at_threads}"),
        ]);
    }
    let header = ["Application", "Best", "Worst", "Perf. diff", "Threads"];
    crate::RunReport::new("table6", "table")
        .meta("scale", crate::scale())
        .section("data", crate::table_section(&header, &rows))
}
