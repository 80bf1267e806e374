//! Table 4: aborted-transaction fraction and L1 miss ratio for the sorted
//! linked list (write-dominated), per thread count and allocator.
use crate::synth_point;
use crate::{synth_cfg, SYNTH_THREADS};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;

/// Table 4 as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for &t in &SYNTH_THREADS {
        let mut row = vec![format!("{t}")];
        for kind in AllocatorKind::ALL {
            let m = synth_point(&synth_cfg(StructureKind::LinkedList, kind, t, 5));
            row.push(format!("{:.1}%", m.abort_ratio * 100.0));
            row.push(format!("{:.2}%", m.l1_miss * 100.0));
        }
        rows.push(row);
    }
    let header = [
        "#P", "Glibc ab", "Glibc L1", "Hoard ab", "Hoard L1", "TBB ab", "TBB L1", "TC ab", "TC L1",
    ];
    crate::RunReport::new("table4", "table")
        .meta("scale", crate::scale())
        .section("data", crate::table_section(&header, &rows))
}
