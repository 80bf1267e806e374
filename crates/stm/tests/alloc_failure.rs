//! Allocation-failure semantics: a failed `Tx::try_malloc` must become a
//! clean transactional abort — journal unwound, no locks held, no leaks —
//! and `Stm::try_txn` must retry within the contention manager's budget
//! before propagating the allocator's error. The heap auditor that
//! injects the failures audits the heap for the whole suite, so any
//! metadata damage or leak on the error path fails the test.

use std::sync::Arc;

use tm_alloc::{AllocError, AllocFaultPlan, AllocatorKind, HeapAuditor};
use tm_sim::Sim;
use tm_stm::{AbortCause, CmKind, InjectedBug, Stack, StackSpec, Stm, StmConfig};

/// STM over `HeapAuditor(tbbmalloc)` armed with `plan` — the stack the
/// every-site OOM sweep uses.
fn setup(plan: AllocFaultPlan, cfg: StmConfig) -> (Sim, Arc<Stm>, Arc<HeapAuditor>) {
    let Stack {
        sim, stm, auditor, ..
    } = Stack::new(&StackSpec {
        stm: cfg,
        fault: plan,
        audit: true,
        ..StackSpec::new(AllocatorKind::TbbMalloc)
    });
    let auditor = auditor.expect("an audited stack");
    (sim, stm, auditor)
}

#[test]
fn transient_failure_aborts_cleanly_and_commits_on_retry() {
    // The very first allocation attempt fails (site 0); the retry hits
    // site 1 and succeeds. One clean alloc-failed abort, one commit.
    let (sim, stm, auditor) = setup(AllocFaultPlan::NthSite(0), StmConfig::default());
    let committed = parking_lot::Mutex::new(0u64);
    sim.run(1, |ctx| {
        let mut th = stm.thread(0);
        let addr = stm
            .try_txn(ctx, &mut th, |tx, ctx| {
                let a = tx.try_malloc(ctx, 64)?;
                tx.write(ctx, a, 0x11)?;
                Ok(a)
            })
            .expect("one injected failure is transient");
        *committed.lock() = addr;
        stm.retire(th);
    });
    let addr = *committed.lock();
    sim.with_state(|m| assert_eq!(m.read_u64(addr), 0x11));
    let s = stm.stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.by_cause[AbortCause::AllocFailed as usize], 1);
    let report = auditor.report();
    assert!(report.is_clean(), "{}", report.violations.join("; "));
    assert_eq!(report.live, 1, "exactly the committed block survives");
    assert_eq!(report.failed_mallocs, 1);
}

#[test]
fn persistent_exhaustion_propagates_after_the_budget() {
    // A zero-byte budget refuses every request: SUICIDE's budget of two
    // alloc-failed aborts is spent, then the real error surfaces.
    let (sim, stm, auditor) = setup(AllocFaultPlan::ByteBudget(0), StmConfig::default());
    sim.run(1, |ctx| {
        let mut th = stm.thread(0);
        let r = stm.try_txn(ctx, &mut th, |tx, ctx| tx.try_malloc(ctx, 64));
        match r {
            Err(AllocError::Exhausted { size: 64 }) => {}
            other => panic!("expected Exhausted {{ size: 64 }}, got {other:?}"),
        }
        stm.retire(th);
    });
    let s = stm.stats();
    assert_eq!(s.commits, 0);
    assert_eq!(
        s.by_cause[AbortCause::AllocFailed as usize],
        u64::from(CmKind::Suicide.alloc_retry_budget())
    );
    let report = auditor.report();
    assert!(report.is_clean(), "{}", report.violations.join("; "));
    assert_eq!(
        report.live, 0,
        "a failed transaction must leave nothing live"
    );
}

#[test]
fn partial_journal_is_unwound_on_every_failed_attempt() {
    // The class cap admits one 64-byte block: the second allocation of the
    // pair always fails, so each attempt must free the block it already
    // journaled. Any leak would also pin the cap and break the retries.
    let plan = AllocFaultPlan::ClassCap {
        size: 64,
        max_live: 1,
    };
    let (sim, stm, auditor) = setup(plan, StmConfig::default());
    sim.run(1, |ctx| {
        let mut th = stm.thread(0);
        let r = stm.try_txn(ctx, &mut th, |tx, ctx| {
            let _a = tx.try_malloc(ctx, 64)?;
            let b = tx.try_malloc(ctx, 64)?;
            Ok(b)
        });
        assert!(matches!(r, Err(AllocError::Exhausted { size: 64 })));
        stm.retire(th);
    });
    let budget = u64::from(CmKind::Suicide.alloc_retry_budget());
    let report = auditor.report();
    assert!(report.is_clean(), "{}", report.violations.join("; "));
    assert_eq!(report.live, 0, "each attempt's first block must be unwound");
    assert_eq!(report.mallocs, budget, "one successful alloc per attempt");
    assert_eq!(report.failed_mallocs, budget);
}

#[test]
fn retry_budget_follows_the_contention_manager() {
    for cm in CmKind::ALL {
        let cfg = StmConfig {
            cm,
            ..StmConfig::default()
        };
        let (sim, stm, auditor) = setup(AllocFaultPlan::ByteBudget(0), cfg);
        sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            let r = stm.try_txn(ctx, &mut th, |tx, ctx| tx.try_malloc(ctx, 32));
            assert!(r.is_err(), "{cm:?}: a zero budget can never commit");
            stm.retire(th);
        });
        assert_eq!(
            stm.stats().by_cause[AbortCause::AllocFailed as usize],
            u64::from(cm.alloc_retry_budget()),
            "{cm:?}: every budgeted retry is one recorded alloc-failed abort"
        );
        assert_eq!(auditor.report().live, 0, "{cm:?}: no leak on propagation");
    }
}

#[test]
fn leak_on_alloc_fail_bug_leaks_the_journal() {
    // With the injected defect, the alloc-failed rollback forgets its
    // journal: each attempt's first block stays live — exactly what the
    // every-site OOM sweep must observe through the auditor.
    let plan = AllocFaultPlan::ClassCap {
        size: 64,
        max_live: 1,
    };
    let cfg = StmConfig {
        bug: InjectedBug::LeakOnAllocFail,
        ..StmConfig::default()
    };
    let (sim, stm, auditor) = setup(plan, cfg);
    sim.run(1, |ctx| {
        let mut th = stm.thread(0);
        let r = stm.try_txn(ctx, &mut th, |tx, ctx| {
            let _a = tx.try_malloc(ctx, 64)?;
            let b = tx.try_malloc(ctx, 64)?;
            Ok(b)
        });
        // The leaked block pins the class cap, so the first allocation of
        // the second attempt already fails; the budget is still spent.
        assert!(r.is_err());
        stm.retire(th);
    });
    let report = auditor.report();
    assert!(
        report.live > 0,
        "the injected leak must leave journaled blocks live"
    );
}

#[test]
#[should_panic(expected = "repeated allocation failures")]
fn txn_panics_on_persistent_exhaustion() {
    let (sim, stm, _auditor) = setup(AllocFaultPlan::ByteBudget(0), StmConfig::default());
    sim.run(1, |ctx| {
        let mut th = stm.thread(0);
        stm.txn(ctx, &mut th, |tx, ctx| tx.try_malloc(ctx, 64));
    });
}
