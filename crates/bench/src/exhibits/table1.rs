//! Table 1: attribute summary of the four modelled allocators.
use tm_alloc::AllocatorKind;
use tm_core::build_stack;
use tm_stm::StmConfig;

/// Table 1 as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for kind in AllocatorKind::ALL {
        let stack = build_stack(kind, StmConfig::default());
        let a = stack.alloc.attributes();
        rows.push(vec![
            a.name.to_string(),
            a.models_version.to_string(),
            a.metadata.to_string(),
            format!("{} bytes", a.min_size),
            a.fast_path.to_string(),
            a.granularity.to_string(),
            a.synchronization.to_string(),
        ]);
    }
    let header = [
        "Allocator",
        "Models",
        "Metadata",
        "Min size",
        "Fast path",
        "Granularity",
        "Synchronization",
    ];
    crate::RunReport::new("table1", "table").section("data", crate::table_section(&header, &rows))
}
