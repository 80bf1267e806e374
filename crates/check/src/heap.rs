//! Heap-invariant matrix cells: run each allocator model under the
//! [`tm_alloc::HeapAuditor`] with two workloads and report violations.
//!
//! * **raw churn** — multiple threads allocate mixed size classes and free
//!   in scrambled order, straight against the allocator (the contract the
//!   property suites check script-by-script, here at thread scale);
//! * **transactional churn** — a shared stack grown/shrunk via `tx.malloc`
//!   / `tx.free` inside transactions, so abort-undo paths (allocations
//!   rolled back, frees deferred to commit) also flow through the auditor.

use std::sync::Arc;

use tm_alloc::{Allocator, AllocatorKind, HeapAuditor};
use tm_obs::CheckCell;
use tm_sim::{MachineConfig, Sim};
use tm_stm::{Stack, StackSpec};

use crate::{cell_from, kv};

/// Multi-threaded raw malloc/free churn under the auditor.
fn raw_churn(kind: AllocatorKind, threads: usize) -> tm_alloc::AuditReport {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let auditor = HeapAuditor::new(kind.build(&sim));
    let alloc = Arc::clone(&auditor) as Arc<dyn Allocator>;
    sim.run(threads, |ctx| {
        let tid = ctx.tid() as u64;
        let mut live: Vec<u64> = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64 ^ tid;
        for i in 0..160u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Size classes from the paper's profile: dominated by small
            // blocks with an occasional large outlier.
            let size = match x % 8 {
                0 => 8 + x % 9,
                1..=4 => 16 + x % 48,
                5 | 6 => 64 + x % 200,
                _ => 1024 + x % 512,
            };
            let p = alloc.malloc(ctx, size);
            ctx.write_u64(p, tid << 32 | i);
            live.push(p);
            // Free in scrambled order, keeping ~24 blocks live.
            if live.len() > 24 {
                let idx = (x >> 16) as usize % live.len();
                alloc.free(ctx, live.swap_remove(idx));
            }
        }
        for p in live {
            alloc.free(ctx, p);
        }
    });
    auditor.report()
}

/// Transactional churn: every thread pushes/pops a shared stack with
/// transactional allocation, so aborts exercise malloc-undo and
/// commit-deferred frees.
fn tx_churn(kind: AllocatorKind, threads: usize) -> tm_alloc::AuditReport {
    let Stack {
        sim, stm, auditor, ..
    } = Stack::new(&StackSpec {
        audit: true,
        ..StackSpec::new(kind)
    });
    let head = 0x7000_0000u64;
    sim.run(threads, |ctx| {
        let mut th = stm.thread(ctx.tid());
        let mut x = 0xace ^ ctx.tid() as u64;
        for _ in 0..40 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !x.is_multiple_of(3) {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let node = tx.malloc(ctx, 16 + x % 32);
                    let old = tx.read(ctx, head)?;
                    ctx.write_u64(node + 8, old);
                    tx.write(ctx, head, node)
                });
            } else {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let top = tx.read(ctx, head)?;
                    if top != 0 {
                        let next = ctx.read_u64(top + 8);
                        tx.write(ctx, head, next)?;
                        tx.free(ctx, top);
                    }
                    Ok(())
                });
            }
            ctx.tick(x % 90);
        }
        stm.retire(th);
    });
    auditor.expect("an audited stack").report()
}

/// Run both audited workloads for one allocator and fold the verdict.
pub fn run_heap_cell(kind: AllocatorKind, threads: usize) -> CheckCell {
    let config = vec![
        kv("kind", "heap"),
        kv("alloc", kind.name()),
        kv("threads", threads),
    ];
    let raw = raw_churn(kind, threads);
    let tx = tx_churn(kind, threads);
    let mut failures = Vec::new();
    for (label, rep) in [("raw", &raw), ("tx", &tx)] {
        if !rep.is_clean() {
            let first = rep
                .violations
                .first()
                .map(String::as_str)
                .unwrap_or("(none recorded)");
            failures.push(format!(
                "{label}: {} violations, first: {first}",
                rep.violation_count
            ));
        }
    }
    let checks = vec![
        ("raw_mallocs".into(), raw.mallocs),
        ("raw_peak_live".into(), raw.peak_live as u64),
        ("tx_mallocs".into(), tx.mallocs),
        ("tx_frees".into(), tx.frees),
        (
            "violations".into(),
            raw.violation_count + tx.violation_count,
        ),
    ];
    cell_from(config, checks, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_obs::CheckStatus;

    #[test]
    fn every_allocator_audits_clean_under_both_workloads() {
        for kind in AllocatorKind::ALL {
            let cell = run_heap_cell(kind, 4);
            assert_eq!(
                cell.status,
                CheckStatus::Pass,
                "{kind:?}: {:?}",
                cell.detail
            );
            let v = cell
                .checks
                .iter()
                .find(|(k, _)| k == "violations")
                .unwrap()
                .1;
            assert_eq!(v, 0, "{kind:?}");
        }
    }

    #[test]
    fn tx_churn_reaches_the_allocator() {
        let rep = tx_churn(AllocatorKind::Glibc, 2);
        assert!(rep.mallocs > 0 && rep.frees > 0, "{rep:?}");
    }
}
