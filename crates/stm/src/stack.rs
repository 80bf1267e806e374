//! The one constructor of a simulated (machine, allocator, STM) stack.

use std::sync::Arc;

use tm_alloc::{AllocFaultPlan, Allocator, AllocatorKind, HeapAuditor};
use tm_sim::{MachineConfig, Sim};

use crate::{Stm, StmConfig};

/// A fully built simulation stack: the machine, the allocator the STM
/// binds and the STM over it, plus the heap auditor's handle when there
/// is one.
///
/// The allocator is the model under at most one wrapper, the
/// [`HeapAuditor`], which audits the heap and carries the fault plan. It
/// is there when auditing is asked for or the plan is not
/// [`AllocFaultPlan::None`], so a fault-free unaudited stack is the bare
/// model.
pub struct Stack {
    /// The simulated machine.
    pub sim: Sim,
    /// The outermost allocator: what the STM and workload seeding call.
    pub alloc: Arc<dyn Allocator>,
    /// The STM, bound to `alloc`.
    pub stm: Arc<Stm>,
    /// The heap auditor (`alloc` itself), when the stack has one.
    pub auditor: Option<Arc<HeapAuditor>>,
}

impl Stack {
    /// Build the stack in its one order — `Sim::new`, the model, the
    /// auditor, [`Stm::new`] — which fixes every simulated
    /// address. Panics as [`Stm::new`] does on a configuration
    /// [`StmConfig::check`] refuses.
    pub fn new(
        machine: MachineConfig,
        kind: AllocatorKind,
        plan: AllocFaultPlan,
        audit: bool,
        cfg: StmConfig,
    ) -> Stack {
        let sim = Sim::new(machine);
        let mut alloc = kind.build(&sim);
        let auditor = (audit || plan != AllocFaultPlan::None).then(|| {
            let auditor = HeapAuditor::new(Arc::clone(&alloc));
            auditor.set_plan(plan);
            alloc = Arc::clone(&auditor) as Arc<dyn Allocator>;
            auditor
        });
        let stm = Arc::new(Stm::new(&sim, Arc::clone(&alloc), cfg));
        Stack {
            sim,
            alloc,
            stm,
            auditor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::AbortCause;

    fn build(plan: AllocFaultPlan, audit: bool) -> Stack {
        let machine = MachineConfig::xeon_e5405();
        Stack::new(
            machine,
            AllocatorKind::TbbMalloc,
            plan,
            audit,
            StmConfig::default(),
        )
    }

    /// The type of `alloc`'s heap snapshot: a wrapper's differs from the
    /// bare model's.
    fn snapshot_type(alloc: &Arc<dyn Allocator>) -> std::any::TypeId {
        let snap = alloc.snapshot().expect("every stack allocator snapshots");
        (*snap).type_id()
    }

    #[test]
    fn a_fault_free_unaudited_stack_holds_no_wrapper() {
        let bare =
            snapshot_type(&AllocatorKind::TbbMalloc.build(&Sim::new(MachineConfig::xeon_e5405())));
        let plain = build(AllocFaultPlan::None, false);
        assert!(plain.auditor.is_none());
        assert_eq!(snapshot_type(&plain.alloc), bare, "no wrapper under None");
        let plan = AllocFaultPlan::ByteBudget(u64::MAX);
        for (plan, audit) in [(plan, false), (AllocFaultPlan::None, true), (plan, true)] {
            let stack = build(plan, audit);
            let auditor = stack.auditor.as_ref().expect("a plan or an audit wraps");
            assert_eq!(auditor.plan(), plan);
            let outer = Arc::clone(auditor) as Arc<dyn Allocator>;
            assert!(Arc::ptr_eq(&outer, &stack.alloc), "the one wrapper");
            assert!(Arc::ptr_eq(stack.stm.allocator(), &stack.alloc));
        }
    }

    #[test]
    fn the_wrapper_numbers_and_audits_its_own_injected_failures() {
        // Site 0 fails; the retry at site 1 commits. The wrapper counts the
        // failed attempt and no violation.
        let stack = build(AllocFaultPlan::NthSite(0), true);
        let stm = &stack.stm;
        stack.sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            stm.try_txn(ctx, &mut th, |tx, ctx| tx.try_malloc(ctx, 64))
                .expect("one injected failure is transient");
            stm.retire(th);
        });
        assert_eq!(stm.stats().by_cause[AbortCause::AllocFailed as usize], 1);
        let auditor = stack.auditor.as_ref().unwrap();
        let report = auditor.report();
        assert!(report.is_clean(), "{}", report.violations.join("; "));
        assert_eq!((report.failed_mallocs, report.live), (1, 1));
        assert_eq!((auditor.sites(), auditor.injected()), (2, 1));
        assert_eq!(report.live_blocks[0].1.site, 1, "the retry's site");
    }
}
