//! CM exhibit: the allocator × contention-manager abort surface.
//!
//! The paper fixes the contention manager to TinySTM's SUICIDE (immediate
//! restart) and varies the allocator. This extension asks the converse
//! question: with the allocator-induced conflict pattern held fixed, how
//! much of the abort rate is the *policy's* to claim? The sorted linked
//! list at 8 threads — the paper's highest-contention workload — is rerun
//! per allocator under every static policy. Pausing policies (exponential
//! backoff, serialize-after-repeated-abort) trade virtual time for fewer
//! conflicting retries; aggressive ones (karma, timestamp — which shorten
//! the pause for "deserving" transactions) retry sooner and abort more.
use crate::{synth_cfg, synth_point};
use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_stm::CmKind;

/// The allocator × CM matrix as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for kind in AllocatorKind::ALL {
        let mut row = vec![kind.name().to_string()];
        let mut suicide_tps = 0.0;
        for cm in CmKind::STATIC {
            let mut cfg = synth_cfg(StructureKind::LinkedList, kind, 8, 5);
            cfg.cm = cm;
            let m = synth_point(&cfg);
            if cm == CmKind::Suicide {
                suicide_tps = m.throughput;
            }
            row.push(format!("{:.2}%", m.abort_ratio * 100.0));
        }
        row.push(format!("{suicide_tps:.0}"));
        rows.push(row);
    }
    let header = [
        "Allocator",
        "suicide",
        "backoff",
        "karma",
        "timestamp",
        "serialize",
        "tx/s (suicide)",
    ];
    crate::RunReport::new("cm_matrix", "ablation")
        .cm("suicide")
        .meta("scale", crate::scale())
        .meta("threads", 8)
        .meta("cms", CmKind::STATIC.len() as u64)
        .section("data", crate::table_section(&header, &rows))
}
