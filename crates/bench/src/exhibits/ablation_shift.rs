//! Extension ablation: full stripe-shift sweep (3..=8) for the linked list
//! (the paper sweeps only 4 vs 5; earlier work cited in §5.4 tunes shift).
use crate::synth_cfg;
use crate::synth_point;
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_obs::Series;

/// The stripe-shift ablation as a run report.
pub fn run() -> crate::RunReport {
    let mut series = Vec::new();
    for kind in AllocatorKind::ALL {
        let points = (3u32..=8)
            .map(|shift| {
                let m = synth_point(&synth_cfg(StructureKind::LinkedList, kind, 8, shift));
                (shift as f64, m.throughput)
            })
            .collect();
        series.push(Series {
            label: kind.name().to_string(),
            points,
        });
    }
    crate::RunReport::new("ablation_shift", "ablation")
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .section("throughput", crate::series_section("shift", &series))
}
