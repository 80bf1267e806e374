//! Backend exhibit: the §5.2 HashSet anomaly under NOrec.
//!
//! The paper's Fig. 5 anomaly is an *ORT artifact*: Glibc's 64 MB-aligned
//! arenas alias onto the same versioned-lock stripes, so disjoint HashSet
//! transactions false-conflict. NOrec (Dalessandro et al.) has no ownership
//! table at all — conflicts are detected by value validation against a
//! single global sequence lock — so the aliasing mechanism vanishes by
//! construction. This exhibit reruns the anomaly workload per allocator
//! under both backends: Glibc's abort excess should survive under ETL and
//! collapse to the allocator-independent true-conflict floor under NOrec.
use crate::{synth_cfg, synth_point};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_stm::BackendKind;

/// The NOrec backend exhibit as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut cfg = synth_cfg(StructureKind::HashSet, kind, 8, 5);
        let etl = synth_point(&cfg);
        cfg.backend = BackendKind::Norec;
        let norec = synth_point(&cfg);
        rows.push(vec![
            kind.name().into(),
            format!("{:.0}", etl.throughput),
            format!("{:.0}", norec.throughput),
            format!("{:.3}%", etl.abort_ratio * 100.0),
            format!("{:.3}%", norec.abort_ratio * 100.0),
        ]);
    }
    let header = [
        "Allocator",
        "tx/s (etl)",
        "tx/s (norec)",
        "aborts (etl)",
        "aborts (norec)",
    ];
    crate::RunReport::new("backend_norec", "ablation")
        .backend(BackendKind::Norec.name())
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .section("data", crate::table_section(&header, &rows))
}
