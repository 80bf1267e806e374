//! Table 5: STAMP allocation characterization — per-size-class counts for
//! the seq/par/tx regions of each application (sequential run).
use crate::stamp_scale;
use tm_alloc::profile::{bucket_label, Region};
use tm_alloc::AllocatorKind;
use tm_stamp::runner::{make_app, profile_app};
use tm_stamp::AppKind;

/// Table 5 as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for app in AppKind::ALL {
        let a = make_app(app, stamp_scale(app), 0xace);
        let prof = profile_app(a.as_ref(), AllocatorKind::Glibc);
        for region in Region::ALL {
            let s = prof[region as usize];
            let mut row = vec![app.name().into(), region.name().into()];
            for b in 0..8 {
                row.push(format!("{}", s.by_bucket[b]));
            }
            row.push(format!("{}", s.mallocs));
            row.push(format!("{}", s.frees));
            row.push(format!("{}", s.bytes));
            rows.push(row);
        }
    }
    let header = [
        "App",
        "Region",
        bucket_label(0),
        bucket_label(1),
        bucket_label(2),
        bucket_label(3),
        bucket_label(4),
        bucket_label(5),
        bucket_label(6),
        bucket_label(7),
        "#mallocs",
        "#frees",
        "bytes",
    ];
    crate::RunReport::new("table5", "table")
        .meta("scale", crate::scale())
        .section("data", crate::table_section(&header, &rows))
}
