//! CM exhibit: the adaptive controller vs the best static policy.
//!
//! The adaptive contention manager starts at SUICIDE and walks an
//! escalation ladder (backoff → karma → serialize) whenever a per-thread
//! window of 64 attempts aborts too often, de-escalating when contention
//! subsides. This exhibit runs the high-contention linked list per
//! allocator: first every static policy (to find the lowest-abort one),
//! then the adaptive controller, reporting which policy it settled on
//! (most commits retired under it), how many switches it took, and how
//! close its abort ratio lands to the best static policy's. The switch
//! transcript is deterministic — the determinism suite replays it exactly.
use crate::{synth_cfg, synth_point, synth_point_cm};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_stm::CmKind;

/// The adaptive-CM exhibit as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut best = (CmKind::Suicide, f64::INFINITY);
        for cm in CmKind::STATIC {
            let mut cfg = synth_cfg(StructureKind::LinkedList, kind, 8, 5);
            cfg.cm = cm;
            let m = synth_point(&cfg);
            if m.abort_ratio < best.1 {
                best = (cm, m.abort_ratio);
            }
        }
        let mut cfg = synth_cfg(StructureKind::LinkedList, kind, 8, 5);
        cfg.cm = CmKind::Adaptive;
        let (m, stats, switches) = synth_point_cm(&cfg);
        rows.push(vec![
            kind.name().into(),
            best.0.name().into(),
            format!("{:.2}%", best.1 * 100.0),
            stats.dominant_policy().name().into(),
            format!("{:.2}%", m.abort_ratio * 100.0),
            switches.len().to_string(),
            format!("{:.0}", m.throughput),
        ]);
    }
    let header = [
        "Allocator",
        "best static",
        "aborts (best)",
        "adaptive dominant",
        "aborts (adaptive)",
        "switches",
        "tx/s (adaptive)",
    ];
    crate::RunReport::new("cm_adaptive", "ablation")
        .cm("adaptive")
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .meta("window", 64)
        .section("data", crate::table_section(&header, &rows))
}
