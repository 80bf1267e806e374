//! Extension ablation: encounter-time vs commit-time locking across
//! allocators (the paper's two representative designs, §2), on the
//! write-dominated red-black tree and on Yada.
use crate::{stamp_point, stamp_point_opts, stamp_scale, synth_cfg, synth_point};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_stamp::runner::StampOpts;
use tm_stamp::AppKind;
use tm_stm::{LockDesign, WriteMode};

/// The lock-design ablation as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut cfg = synth_cfg(StructureKind::RbTree, kind, 8, 5);
        let etl = synth_point(&cfg);
        cfg.design = LockDesign::Ctl;
        let ctl = synth_point(&cfg);
        rows.push(vec![
            format!("RBTree/{}", kind.name()),
            format!("{:.0}", etl.throughput),
            format!("{:.0}", ctl.throughput),
            format!(
                "{:.1}% / {:.1}%",
                etl.abort_ratio * 100.0,
                ctl.abort_ratio * 100.0
            ),
        ]);
    }
    for kind in AllocatorKind::ALL {
        let mut cfg = synth_cfg(StructureKind::RbTree, kind, 8, 5);
        let wb = synth_point(&cfg);
        cfg.write_mode = WriteMode::Through;
        let wt = synth_point(&cfg);
        rows.push(vec![
            format!("RBTree-WT/{}", kind.name()),
            format!("{:.0}", wb.throughput),
            format!("{:.0}", wt.throughput),
            format!(
                "{:.1}% / {:.1}%",
                wb.abort_ratio * 100.0,
                wt.abort_ratio * 100.0
            ),
        ]);
    }
    let ctl_opts = StampOpts {
        design: LockDesign::Ctl,
        ..StampOpts::default()
    };
    for kind in AllocatorKind::ALL {
        let etl = stamp_point(AppKind::Yada, kind, 8);
        let ctl = stamp_point_opts(
            AppKind::Yada,
            kind,
            8,
            &ctl_opts,
            stamp_scale(AppKind::Yada),
        );
        rows.push(vec![
            format!("Yada/{}", kind.name()),
            format!("{:.4}s", etl.par_seconds),
            format!("{:.4}s", ctl.par_seconds),
            format!(
                "{:.1}% / {:.1}%",
                etl.abort_ratio * 100.0,
                ctl.abort_ratio * 100.0
            ),
        ]);
    }
    let header = [
        "workload/allocator",
        "base (ETL-WB)",
        "variant",
        "aborts base/var",
    ];
    crate::RunReport::new("ablation_design", "ablation")
        .meta("scale", crate::scale())
        .section("data", crate::table_section(&header, &rows))
}
