//! Extension ablation (paper future work): do the allocator effects
//! survive a machine generation change? Re-run the linked-list and hash
//! set sweeps on a modelled modern single-socket 8-core with larger,
//! slower-LLC caches and cheap core-to-core transfers.
use crate::{synth_cfg, synth_point};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_sim::MachineConfig;

/// The machine-profile ablation as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for s in [StructureKind::LinkedList, StructureKind::HashSet] {
        for kind in AllocatorKind::ALL {
            let mut cfg = synth_cfg(s, kind, 8, 5);
            let xeon = synth_point(&cfg);
            cfg.machine = MachineConfig::modern_8core();
            let modern = synth_point(&cfg);
            rows.push(vec![
                format!("{}/{}", s.name(), kind.name()),
                format!("{:.0}", xeon.throughput),
                format!("{:.1}%", xeon.abort_ratio * 100.0),
                format!("{:.0}", modern.throughput),
                format!("{:.1}%", modern.abort_ratio * 100.0),
            ]);
        }
    }
    let header = [
        "workload/allocator",
        "xeon tx/s",
        "xeon ab",
        "modern tx/s",
        "modern ab",
    ];
    crate::RunReport::new("ablation_machine", "ablation")
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .section("data", crate::table_section(&header, &rows))
}
