//! Figure 4: synthetic data-structure throughput vs cores, 60 % updates.
use crate::synth_sweep;
use tm_ds::StructureKind;

/// Figure 4 as a run report.
pub fn run() -> crate::RunReport {
    let mut report = crate::RunReport::new("fig4", "figure")
        .meta("scale", crate::scale())
        .meta("shift", 5);
    for s in StructureKind::ALL {
        report = report.section(s.name(), crate::series_section("cores", &synth_sweep(s, 5)));
    }
    report
}
