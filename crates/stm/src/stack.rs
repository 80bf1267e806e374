//! The one constructor of a simulated (machine, allocator, STM) stack.

use std::sync::Arc;

use tm_alloc::{AllocFaultPlan, Allocator, AllocatorKind, FaultInjector, HeapAuditor};
use tm_sim::{MachineConfig, Sim};

use crate::{Stm, StmConfig};

/// A fully built simulation stack: the machine, the allocator the STM
/// binds and the STM over it, plus the heap auditor's handle when one was
/// asked for.
///
/// The allocator is the model under at most two wrappers, innermost first:
/// a [`FaultInjector`] — only for a plan other than [`AllocFaultPlan::None`],
/// so a fault-free stack holds no injector at all — then a [`HeapAuditor`],
/// which therefore sees the injector's failures and numbers allocation
/// sites as it does.
pub struct Stack {
    /// The simulated machine.
    pub sim: Sim,
    /// The outermost allocator: what the STM and workload seeding call.
    pub alloc: Arc<dyn Allocator>,
    /// The STM, bound to `alloc`.
    pub stm: Arc<Stm>,
    /// The heap auditor (`alloc` itself), when auditing was asked for.
    pub auditor: Option<Arc<HeapAuditor>>,
}

impl Stack {
    /// Build the stack in its one order — `Sim::new`, the model, the
    /// injector, the auditor, [`Stm::new`] — which fixes every simulated
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
        if plan != AllocFaultPlan::None {
            alloc = FaultInjector::new(alloc, plan);
        }
        let auditor = audit.then(|| HeapAuditor::new(Arc::clone(&alloc)));
        if let Some(a) = &auditor {
            alloc = Arc::clone(a) as Arc<dyn Allocator>;
        }
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
    fn a_none_plan_holds_no_injector_and_auditing_is_asked_for() {
        let bare =
            snapshot_type(&AllocatorKind::TbbMalloc.build(&Sim::new(MachineConfig::xeon_e5405())));
        let plain = build(AllocFaultPlan::None, false);
        assert!(plain.auditor.is_none());
        assert_eq!(snapshot_type(&plain.alloc), bare, "no wrapper under None");
        let faulted = build(AllocFaultPlan::ByteBudget(u64::MAX), false);
        assert!(faulted.auditor.is_none());
        assert_ne!(snapshot_type(&faulted.alloc), bare, "the injector wraps");
        let audited = build(AllocFaultPlan::None, true);
        let auditor = audited.auditor.as_ref().expect("auditing was asked for");
        let outer = Arc::clone(auditor) as Arc<dyn Allocator>;
        assert!(
            Arc::ptr_eq(&outer, &audited.alloc),
            "the auditor is outermost"
        );
        assert!(Arc::ptr_eq(audited.stm.allocator(), &audited.alloc));
    }

    #[test]
    fn the_auditor_sits_above_the_injector_and_sees_its_failures() {
        // Site 0 fails; the retry at site 1 commits. The auditor counts the
        // failed attempt (it is above the injector) and no violation.
        let stack = build(AllocFaultPlan::NthSite(0), true);
        let stm = &stack.stm;
        stack.sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            stm.try_txn(ctx, &mut th, |tx, ctx| tx.try_malloc(ctx, 64))
                .expect("one injected failure is transient");
            stm.retire(th);
        });
        assert_eq!(stm.stats().by_cause[AbortCause::AllocFailed as usize], 1);
        let report = stack.auditor.as_ref().unwrap().report();
        assert!(report.is_clean(), "{}", report.violations.join("; "));
        assert_eq!((report.failed_mallocs, report.live), (1, 1));
    }
}
