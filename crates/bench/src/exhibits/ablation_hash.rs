//! Extension ablation: the §5.2 HashSet anomaly vs the ORT hash function.
//!
//! The paper traces Glibc's poor HashSet throughput to 64 MB-aligned
//! arenas aliasing onto the same ORT entries and cites Riegel's thesis on
//! alternative hash functions. This ablation swaps the shift-and-modulo
//! mapping for a multiplicative hash and measures the change per
//! allocator: Glibc should recover, the others should be ~unaffected.
use crate::{synth_cfg, synth_point};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_stm::OrtHash;

/// The ORT-hash ablation as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut cfg = synth_cfg(StructureKind::HashSet, kind, 8, 5);
        let base = synth_point(&cfg);
        cfg.ort_hash = OrtHash::Mix;
        let mixed = synth_point(&cfg);
        rows.push(vec![
            kind.name().into(),
            format!("{:.0}", base.throughput),
            format!("{:.0}", mixed.throughput),
            format!(
                "{:+.2}%",
                (mixed.throughput / base.throughput - 1.0) * 100.0
            ),
            format!(
                "{:.3}% -> {:.3}%",
                base.abort_ratio * 100.0,
                mixed.abort_ratio * 100.0
            ),
        ]);
    }
    let header = [
        "Allocator",
        "tx/s (shift-mod)",
        "tx/s (mix)",
        "gain",
        "aborts",
    ];
    crate::RunReport::new("ablation_hash", "ablation")
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .section("data", crate::table_section(&header, &rows))
}
