//! Table 3: best and worst allocators per synthetic structure.
use crate::synth_point;
use crate::{synth_cfg, SYNTH_THREADS};
use tm_alloc::AllocatorKind;
use tm_core::report::best_worst;
use tm_ds::StructureKind;

/// Table 3 as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for s in StructureKind::ALL {
        // Per allocator, take the best throughput over thread counts (the
        // paper reports the thread count of the max).
        let mut entries = Vec::new();
        let mut best_threads = std::collections::HashMap::new();
        for kind in AllocatorKind::ALL {
            let mut best = (0usize, 0.0f64);
            for &t in &SYNTH_THREADS {
                let m = synth_point(&synth_cfg(s, kind, t, 5));
                if m.throughput > best.1 {
                    best = (t, m.throughput);
                }
            }
            best_threads.insert(kind.name().to_string(), best.0);
            entries.push((kind.name().to_string(), best.1));
        }
        let bw = best_worst(&entries, false);
        let t = best_threads[&bw.best];
        rows.push(vec![
            s.name().into(),
            bw.best.clone(),
            bw.worst.clone(),
            format!("{:.2}%", bw.diff_pct),
            format!("{t}"),
        ]);
    }
    let header = ["Structure", "Best", "Worst", "Perf. diff", "Threads"];
    crate::RunReport::new("table3", "table")
        .meta("scale", crate::scale())
        .section("data", crate::table_section(&header, &rows))
}
