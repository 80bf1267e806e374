//! The one description and the one constructor of a simulated (machine,
//! allocator, STM) stack.

use std::sync::Arc;

use tm_alloc::{AllocFaultPlan, Allocator, AllocatorKind, HeapAuditor};
use tm_obs::spec::{choice, flag, value};
use tm_sim::{MachineConfig, Sim};

use crate::{BackendKind, CmKind, LockDesign, OrtHash, Stm, StmConfig, WriteMode};

/// Everything that decides how a stack is built: the machine, the
/// allocator model, the STM's knobs, the fault plan and whether the heap
/// is audited. The workload's seed is not part of it: building a stack
/// reads none.
#[derive(Clone, Debug)]
pub struct StackSpec {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// The allocator model under test.
    pub alloc: AllocatorKind,
    /// The STM's knobs.
    pub stm: StmConfig,
    /// Allocation-fault plan; [`AllocFaultPlan::None`] without `audit`
    /// builds the bare model with no wrapper.
    pub fault: AllocFaultPlan,
    /// Wrap the model in a [`HeapAuditor`] even without a fault plan.
    pub audit: bool,
}

impl StackSpec {
    /// The paper's stack on `alloc`: the Xeon E5405 model, the default
    /// STM, no fault plan, no audit.
    pub fn new(alloc: AllocatorKind) -> StackSpec {
        StackSpec {
            machine: MachineConfig::xeon_e5405(),
            alloc,
            stm: StmConfig::default(),
            fault: AllocFaultPlan::None,
            audit: false,
        }
    }

    /// The keys [`StackSpec::parse`] reads a value of: the flags a
    /// front end that takes the whole stack includes by reference.
    pub const KEYS: [&'static str; 5] = ["alloc", "backend", "cm", "alloc-fault", "shift"];

    /// The bare switches [`StackSpec::parse`] reads (on when present).
    pub const SWITCHES: [&'static str; 4] = ["object-cache", "ctl", "write-through", "mix-hash"];

    /// The spec a `(key, value)` list describes — a sweep cell's config or
    /// a subcommand's flags, read through [`tm_obs::spec`]:
    /// [`StackSpec::KEYS`] and [`StackSpec::SWITCHES`], each defaulting as
    /// [`StackSpec::new`] does. A kind is its exact token
    /// ([`tm_obs::spec::choice`]); a value that does not parse is an error
    /// naming it, and so is a combination the STM does not run
    /// ([`StmConfig::check`]). Other keys are ignored.
    pub fn parse(config: &[(String, String)]) -> Result<StackSpec, String> {
        let on = |key| value(config, key).is_some();
        let stm = StmConfig::default();
        let spec = StackSpec {
            alloc: choice(
                config,
                "alloc",
                &AllocatorKind::ALL,
                |k| k.token(),
                AllocatorKind::TbbMalloc,
            )?,
            stm: StmConfig {
                backend: choice(
                    config,
                    "backend",
                    &BackendKind::ALL,
                    |k| k.name(),
                    stm.backend,
                )?,
                cm: choice(config, "cm", &CmKind::ALL, |k| k.name(), stm.cm)?,
                shift: flag(config, "shift", stm.shift)?,
                object_cache: on("object-cache"),
                design: if on("ctl") {
                    LockDesign::Ctl
                } else {
                    LockDesign::Etl
                },
                write_mode: if on("write-through") {
                    WriteMode::Through
                } else {
                    WriteMode::Back
                },
                ort_hash: if on("mix-hash") {
                    OrtHash::Mix
                } else {
                    OrtHash::ShiftMod
                },
                ..stm
            },
            fault: value(config, "alloc-fault")
                .map_or(Ok(AllocFaultPlan::None), AllocFaultPlan::parse)?,
            ..StackSpec::new(AllocatorKind::TbbMalloc)
        };
        spec.stm.check()?;
        Ok(spec)
    }
}

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
    /// Build the stack `spec` describes in its one order — `Sim::new`,
    /// the model, the auditor, [`Stm::new`] — which fixes every simulated
    /// address. Panics as [`Stm::new`] does on a configuration
    /// [`StmConfig::check`] refuses.
    pub fn new(spec: &StackSpec) -> Stack {
        let sim = Sim::new(spec.machine.clone());
        let mut alloc = spec.alloc.build(&sim);
        let auditor = (spec.audit || spec.fault != AllocFaultPlan::None).then(|| {
            let auditor = HeapAuditor::new(Arc::clone(&alloc));
            auditor.set_plan(spec.fault);
            alloc = Arc::clone(&auditor) as Arc<dyn Allocator>;
            auditor
        });
        let stm = Arc::new(Stm::new(&sim, Arc::clone(&alloc), spec.stm.clone()));
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

    fn build(fault: AllocFaultPlan, audit: bool) -> Stack {
        Stack::new(&StackSpec {
            fault,
            audit,
            ..StackSpec::new(AllocatorKind::TbbMalloc)
        })
    }

    fn config(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        (pairs.iter())
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn no_keys_parse_to_the_papers_stack() {
        let parsed = StackSpec::parse(&[]).unwrap();
        let paper = StackSpec::new(AllocatorKind::TbbMalloc);
        assert_eq!(format!("{parsed:?}"), format!("{paper:?}"));
        let ignored = config(&[("seed", "x"), ("threads", "99"), ("rep", "2")]);
        let parsed = StackSpec::parse(&ignored).unwrap();
        assert_eq!(
            format!("{parsed:?}"),
            format!("{paper:?}"),
            "not stack keys"
        );
    }

    #[test]
    fn each_key_sets_exactly_its_field() {
        type Set = fn(&mut StackSpec);
        let cases: [(&[(&str, &str)], Set); 10] = [
            (&[("alloc", "glibc")], |s| s.alloc = AllocatorKind::Glibc),
            (&[("backend", "norec")], |s| {
                s.stm.backend = BackendKind::Norec
            }),
            (&[("cm", "karma")], |s| s.stm.cm = CmKind::Karma),
            (&[("shift", "4")], |s| s.stm.shift = 4),
            (&[("alloc-fault", "site:3")], |s| {
                s.fault = AllocFaultPlan::NthSite(3)
            }),
            (&[("object-cache", "")], |s| s.stm.object_cache = true),
            (&[("ctl", "")], |s| s.stm.design = LockDesign::Ctl),
            (&[("write-through", "")], |s| {
                s.stm.write_mode = WriteMode::Through
            }),
            (&[("mix-hash", "")], |s| s.stm.ort_hash = OrtHash::Mix),
            (&[("alloc", "tc"), ("cm", "adaptive")], |s| {
                s.alloc = AllocatorKind::TcMalloc;
                s.stm.cm = CmKind::Adaptive;
            }),
        ];
        let keys: Vec<&str> = cases
            .iter()
            .flat_map(|(pairs, _)| pairs.iter().map(|p| p.0))
            .collect();
        for key in StackSpec::KEYS.iter().chain(&StackSpec::SWITCHES) {
            assert!(keys.contains(key), "{key} has no case");
        }
        for (pairs, set) in cases {
            assert!(
                (pairs.iter())
                    .all(|(k, _)| StackSpec::KEYS.contains(k) || StackSpec::SWITCHES.contains(k)),
                "{pairs:?}: a key outside KEYS and SWITCHES"
            );
            let mut want = StackSpec::new(AllocatorKind::TbbMalloc);
            set(&mut want);
            let got = StackSpec::parse(&config(pairs)).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{pairs:?}");
        }
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
