//! # tm-check — differential correctness harness
//!
//! The performance exhibits (tm-bench) answer "how fast"; this crate
//! answers "is it still *correct*" across the same allocator × STM matrix:
//!
//! * [`oracle`] — serial-oracle checking. Synthetic set workloads are
//!   re-executed with every operation's outcome recorded, then validated
//!   against a per-key serial witness (for sets, linearizability decomposes
//!   key by key); STAMP apps are diffed against a one-thread reference run
//!   through their interleaving-independent checksums — one
//!   [`oracle::stamp_diff_cell`], whichever option the two runs differ by.
//! * [`explore`] — the token-transfer program (shape and LCG stream) every
//!   schedule explorer drives. Running it under a schedule, sweeping and
//!   shrinking schedules are `tm-mc`'s: this crate has no explorer.
//! * [`heap`] — allocator heap invariants. Multi-threaded raw and
//!   transactional churn runs under [`tm_alloc::HeapAuditor`], which checks
//!   alignment, block disjointness, arena containment, and free validity.
//! * [`strategies`] — the shared proptest generators (set scripts,
//!   allocator scripts, schedules) reused by the per-crate property suites.
//!
//! Every entry point also comes packaged as a `run_*_cell` function
//! returning a [`tm_obs::CheckCell`], so `tmstudy check` can sweep the
//! matrix and emit a `tm-check-report/v1` document next to the perf
//! reports.

#![deny(missing_docs)]

pub mod explore;
pub mod heap;
pub mod oracle;
pub mod strategies;

pub use explore::TransferProgram;
pub use heap::run_heap_cell;
pub use oracle::{
    run_backend_cell, run_cm_cell, run_stamp_cell, run_synth_cell, stamp_diff_cell,
    SynthCheckConfig,
};

use tm_obs::{CheckCell, CheckStatus};

/// Assemble a [`CheckCell`] from a config, counter set, and failure list:
/// empty failures ⇒ `Pass`, otherwise `Fail` with the failures joined into
/// the detail string (truncated to the first few — the counters carry the
/// totals).
pub fn cell_from(
    config: Vec<(String, String)>,
    checks: Vec<(String, u64)>,
    failures: Vec<String>,
) -> CheckCell {
    let status = if failures.is_empty() {
        CheckStatus::Pass
    } else {
        CheckStatus::Fail
    };
    let detail = if failures.is_empty() {
        None
    } else {
        let shown: Vec<&str> = failures.iter().take(3).map(String::as_str).collect();
        let mut d = shown.join("; ");
        if failures.len() > 3 {
            d.push_str(&format!("; … {} more", failures.len() - 3));
        }
        Some(d)
    };
    CheckCell {
        config,
        status,
        detail,
        checks,
    }
}

/// `(key, value)` pair helper for cell configs.
pub fn kv(k: &str, v: impl ToString) -> (String, String) {
    (k.to_string(), v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_from_classifies_and_truncates() {
        let ok = cell_from(vec![kv("k", "v")], vec![("n".into(), 3)], vec![]);
        assert_eq!(ok.status, CheckStatus::Pass);
        assert!(ok.detail.is_none());

        let bad = cell_from(vec![], vec![], (0..5).map(|i| format!("f{i}")).collect());
        assert_eq!(bad.status, CheckStatus::Fail);
        let d = bad.detail.unwrap();
        assert!(d.contains("f0") && d.contains("… 2 more"), "{d}");
    }
}
