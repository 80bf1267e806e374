//! Table 7: performance gain from the STM-level object-cache optimization
//! (8 threads), per application and allocator.
use crate::{stamp_point, stamp_point_opts, stamp_scale};
use tm_alloc::AllocatorKind;
use tm_stamp::runner::StampOpts;
use tm_stamp::AppKind;

/// Table 7 as a run report.
pub fn run() -> crate::RunReport {
    let apps = [
        AppKind::Genome,
        AppKind::Intruder,
        AppKind::Vacation,
        AppKind::Yada,
    ];
    let cached = StampOpts {
        object_cache: true,
        ..StampOpts::default()
    };
    let mut rows = Vec::new();
    for app in apps {
        let mut row = vec![app.name().to_string()];
        for kind in AllocatorKind::ALL {
            let base = stamp_point(app, kind, 8);
            let opt = stamp_point_opts(app, kind, 8, &cached, stamp_scale(app));
            let gain = (base.par_seconds / opt.par_seconds - 1.0) * 100.0;
            row.push(format!("{gain:+.2}%"));
        }
        rows.push(row);
    }
    let header = ["App", "Glibc", "Hoard", "TBBMalloc", "TCMalloc"];
    crate::RunReport::new("table7", "table")
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .section("data", crate::table_section(&header, &rows))
}
