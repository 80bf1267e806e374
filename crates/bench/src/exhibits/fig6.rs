//! Figure 6: relative speedup (-1) of the linked list with shift 4 vs the
//! default shift 5 (write-dominated).
use crate::synth_point;
use crate::{synth_cfg, SYNTH_THREADS};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_obs::Series;

/// Figure 6 as a run report.
pub fn run() -> crate::RunReport {
    let mut series = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut points = Vec::new();
        for &t in &SYNTH_THREADS {
            let base = synth_point(&synth_cfg(StructureKind::LinkedList, kind, t, 5));
            let s4 = synth_point(&synth_cfg(StructureKind::LinkedList, kind, t, 4));
            points.push((t as f64, s4.throughput / base.throughput - 1.0));
        }
        series.push(Series {
            label: kind.name().to_string(),
            points,
        });
    }
    crate::RunReport::new("fig6", "figure")
        .meta("scale", crate::scale())
        .section("speedup", crate::series_section("cores", &series))
}
