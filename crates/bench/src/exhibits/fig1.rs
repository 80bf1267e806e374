//! Figure 1: Intruder and Yada at 8 cores, Glibc vs Hoard — the motivating
//! observation that the best-performing allocator flips between apps.
use crate::stamp_point;
use tm_alloc::AllocatorKind;
use tm_stamp::AppKind;

/// Figure 1 as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for app in [AppKind::Intruder, AppKind::Yada] {
        for kind in [AllocatorKind::Glibc, AllocatorKind::Hoard] {
            let r = stamp_point(app, kind, 8);
            rows.push(vec![
                app.name().into(),
                kind.name().into(),
                format!("{:.3}", r.par_seconds * 1e3),
                format!("{:.1}%", r.abort_ratio * 100.0),
            ]);
        }
    }
    let header = ["app", "allocator", "time (ms)", "aborts"];
    crate::RunReport::new("fig1", "figure")
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .section("data", crate::table_section(&header, &rows))
}
