//! Extension of Fig. 4: the paper also ran read-only and read-dominated
//! (20 % updates) mixes but printed only the write-dominated results for
//! space. This regenerates all three mixes for every structure.
use crate::synth_point;
use crate::{synth_cfg, SYNTH_THREADS};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_obs::Series;

/// The Fig. 4 mix extension as a run report.
pub fn run() -> crate::RunReport {
    let mut report = crate::RunReport::new("fig4_mixes", "figure").meta("scale", crate::scale());
    for update_pct in [0u32, 20, 60] {
        for s in StructureKind::ALL {
            let series: Vec<Series> = AllocatorKind::ALL
                .iter()
                .map(|&kind| Series {
                    label: kind.name().to_string(),
                    points: SYNTH_THREADS
                        .iter()
                        .map(|&t| {
                            let mut cfg = synth_cfg(s, kind, t, 5);
                            cfg.update_pct = update_pct;
                            (t as f64, synth_point(&cfg).throughput)
                        })
                        .collect(),
                })
                .collect();
            report = report.section(
                format!("{}-{}pct", s.name(), update_pct),
                crate::series_section("cores", &series),
            );
        }
    }
    report
}
