//! Property tests: every allocator model upholds the malloc contract under
//! arbitrary allocate/free scripts. The scripts come from the shared
//! generators in `tm_check::strategies`, and the contract itself (alignment,
//! disjointness of live blocks, legal frees) is enforced by routing every
//! call through the reusable [`tm_alloc::HeapAuditor`]; only writability —
//! which needs the simulated memory — is checked inline. One more property
//! covers checkpointing: every model, bare, audited and under each fault
//! plan, replays a round identically from a snapshot.

use std::sync::Arc;

use proptest::prelude::*;
use tm_alloc::{AllocFaultPlan, Allocator, AllocatorKind, HeapAuditor, SerialLockAllocator};
use tm_check::strategies::{alloc_ops, AllocOp};
use tm_sim::{MachineConfig, Sim};

fn check(kind: AllocatorKind, ops: &[AllocOp]) -> Result<(), TestCaseError> {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let auditor = HeapAuditor::new(kind.build(&sim));
    let ops = ops.to_vec();
    let alloc = auditor.clone();
    sim.run(1, |ctx| {
        let mut live: Vec<(u64, u64)> = Vec::new();
        for op in &ops {
            match *op {
                AllocOp::Malloc(size) => {
                    let p = alloc.malloc(ctx, size);
                    // Blocks must be writable end to end.
                    ctx.write_u64(p, 0xdead);
                    if size >= 16 {
                        ctx.write_u64(p + (size - 8) / 8 * 8, 0xbeef);
                    }
                    live.push((p, size));
                }
                AllocOp::Free(i) => {
                    if !live.is_empty() {
                        let (p, _) = live.remove(i % live.len());
                        alloc.free(ctx, p);
                    }
                }
            }
        }
    });
    let report = auditor.report();
    if report.is_clean() {
        Ok(())
    } else {
        Err(TestCaseError::fail(format!(
            "{kind:?}: {} violation(s): {}",
            report.violation_count,
            report.violations.join("; ")
        )))
    }
}

/// Drive an allocator to exhaustion (via a fault-plan byte budget) and
/// back: fill until `try_malloc` refuses, free everything, then re-fill
/// to the same capacity. The error path must leave no metadata damage —
/// the full cycle has to audit clean with zero live blocks.
fn exhaust_and_recover(kind: AllocatorKind, sizes: &[u64]) -> Result<(), TestCaseError> {
    const BUDGET: u64 = 4096;
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let auditor = HeapAuditor::new(kind.build(&sim));
    auditor.set_plan(AllocFaultPlan::ByteBudget(BUDGET));
    let alloc = Arc::clone(&auditor);
    let sizes = sizes.to_vec();
    sim.run(1, |ctx| {
        let fill = |ctx: &mut tm_sim::Ctx<'_>| {
            let mut live = Vec::new();
            for &s in sizes.iter().cycle() {
                match alloc.try_malloc(ctx, s) {
                    Ok(p) => {
                        ctx.write_u64(p, 0xfeed); // blocks must stay usable
                        live.push(p);
                    }
                    Err(_) => return live,
                }
            }
            unreachable!("a finite budget must eventually refuse");
        };
        let first = fill(ctx);
        assert!(
            !first.is_empty(),
            "{kind:?}: budget refused the first block"
        );
        let capacity = first.len();
        for p in first {
            alloc.try_free(ctx, p).expect("freeing a live block");
        }
        // Exhaustion and unwinding must not have cost any capacity.
        let second = fill(ctx);
        assert_eq!(second.len(), capacity, "{kind:?}: capacity lost after OOM");
        for p in second {
            alloc.try_free(ctx, p).expect("freeing a live block");
        }
    });
    let report = auditor.report();
    prop_assert!(
        report.is_clean(),
        "{kind:?}: {} violation(s): {}",
        report.violation_count,
        report.violations.join("; ")
    );
    prop_assert_eq!(report.live, 0, "{:?}: blocks leaked across the cycle", kind);
    prop_assert!(report.failed_mallocs >= 2, "both fills must hit the budget");
    Ok(())
}

/// The heap auditor under the inert `None` plan must be observationally
/// invisible: same addresses handed out and same virtual time as the
/// bare allocator for an identical call script.
fn none_plan_is_identity(kind: AllocatorKind, ops: &[AllocOp]) -> Result<(), TestCaseError> {
    let run = |wrap: bool| {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let bare = kind.build(&sim);
        let alloc: Arc<dyn Allocator> = if wrap { HeapAuditor::new(bare) } else { bare };
        let ops = ops.to_vec();
        let log = parking_lot::Mutex::new((Vec::new(), 0u64));
        sim.run(1, |ctx| {
            let mut live: Vec<u64> = Vec::new();
            for op in &ops {
                match *op {
                    AllocOp::Malloc(size) => live.push(alloc.try_malloc(ctx, size).unwrap()),
                    AllocOp::Free(i) => {
                        if !live.is_empty() {
                            let p = live.remove(i % live.len());
                            alloc.try_free(ctx, p).unwrap();
                        }
                    }
                }
            }
            *log.lock() = (live, ctx.now());
        });
        log.into_inner()
    };
    let (bare_addrs, bare_now) = run(false);
    let (wrapped_addrs, wrapped_now) = run(true);
    prop_assert_eq!(bare_addrs, wrapped_addrs, "{:?}: addresses diverged", kind);
    prop_assert_eq!(bare_now, wrapped_now, "{:?}: virtual time diverged", kind);
    Ok(())
}

/// What wraps the model under test.
#[derive(Clone, Copy, Debug)]
enum Wrap {
    Bare,
    Audited,
    /// Audited under a fault plan that does fail allocations, and whose
    /// state — live bytes, per-class counts, site counter, stream position
    /// — is part of the snapshot.
    Faulted(AllocFaultPlan),
}

/// `None` is the fifth model, [`SerialLockAllocator`], which is not an
/// [`AllocatorKind`].
fn stack(model: Option<AllocatorKind>, wrap: Wrap, sim: &Sim) -> Arc<dyn Allocator> {
    let bare: Arc<dyn Allocator> = match model {
        Some(kind) => kind.build(sim),
        None => Arc::new(SerialLockAllocator::new(sim)),
    };
    match wrap {
        Wrap::Bare => bare,
        Wrap::Audited => HeapAuditor::new(bare),
        Wrap::Faulted(plan) => {
            let auditor = HeapAuditor::new(bare);
            auditor.set_plan(plan);
            auditor
        }
    }
}

/// A thread count and the script every thread runs.
type Round = (usize, Vec<AllocOp>);

/// What thread `tid` asks for where the script says `size`: threads differ
/// in size class, and every 50th size is scaled past every model's
/// large-object threshold.
fn request(size: u64, tid: usize) -> u64 {
    (size + 8 * tid as u64) * if size.is_multiple_of(50) { 1024 } else { 1 }
}

/// The sizes thread 0 requests in a round, in script order.
fn requests((_, ops): &Round) -> Vec<u64> {
    let sizes = ops.iter().filter_map(|op| match *op {
        AllocOp::Malloc(size) => Some(request(size, 0)),
        AllocOp::Free(_) => None,
    });
    sizes.collect()
}

/// One plan of every kind. The first three are made to measure: each is
/// sure to refuse an allocation *inside* `round` if `round` allocates at
/// all — its largest request is a byte over the budget, the class of its
/// first request is capped at no live block, and the failing site is the
/// middle one of the round's attempts, counted on from the prefix's. The
/// seeded plan fails one attempt in four wherever that falls.
fn fault_plans(prefix: &Round, round: &Round) -> [AllocFaultPlan; 4] {
    let asked = requests(round);
    let attempts = |r: &Round| (r.0 * requests(r).len()) as u64;
    [
        AllocFaultPlan::ByteBudget(asked.iter().max().map_or(0, |most| most - 1)),
        AllocFaultPlan::ClassCap {
            size: asked.first().copied().unwrap_or(8),
            max_live: 0,
        },
        AllocFaultPlan::NthSite(attempts(prefix) + attempts(round) / 2),
        AllocFaultPlan::Prob { seed: 11, denom: 4 },
    ]
}

/// Everything a round leaves behind that a replay must reproduce. The log is
/// the host-side `(tid, address)` record in the order the calls returned —
/// unsorted: hand-off order fixes it. A refused allocation logs `u64::MAX`.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<(usize, u64)>,
    report: String,
    trace_hash: u64,
}

/// Run one round; returns its outcome and the blocks it left live. The
/// blocks `inherited` from an earlier round are freed first, dealt out
/// round-robin — with a different thread count that is a cross-thread free.
fn play(
    sim: &Sim,
    alloc: &dyn Allocator,
    inherited: &[u64],
    (threads, ops): &Round,
) -> (Outcome, Vec<u64>) {
    let log = parking_lot::Mutex::new(Vec::new());
    let left = parking_lot::Mutex::new(Vec::new());
    let report = sim.run(*threads, |ctx| {
        let tid = ctx.tid();
        for &p in inherited.iter().skip(tid).step_by(*threads) {
            alloc.free(ctx, p);
        }
        let mut live = Vec::new();
        for op in ops {
            match *op {
                AllocOp::Malloc(size) => {
                    let size = request(size, tid);
                    let got = alloc.try_malloc(ctx, size);
                    log.lock().push((tid, got.unwrap_or(u64::MAX)));
                    if let Ok(p) = got {
                        ctx.write_u64(p, size);
                        live.push(p);
                    }
                }
                AllocOp::Free(i) => {
                    if !live.is_empty() {
                        let p = live.remove(i % live.len());
                        alloc.free(ctx, p);
                    }
                }
            }
        }
        left.lock().extend(live);
    });
    let outcome = Outcome {
        log: log.into_inner(),
        report: format!("{report:?}"),
        trace_hash: sim.trace_hash(),
    };
    (outcome, left.into_inner())
}

/// Prefix → checkpoint (machine + heap) → round → restore → the same round
/// again must be indistinguishable; and a checkpoint taken right after a
/// restore must replay it too (snapshot → restore → snapshot idempotence).
fn snapshot_replays_identically(
    model: Option<AllocatorKind>,
    wrap: Wrap,
    prefix: &Round,
    round: &Round,
) -> Result<(), TestCaseError> {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let alloc = stack(model, wrap, &sim);
    let (_, inherited) = play(&sim, &*alloc, &[], prefix);
    let machine = sim.snapshot(None);
    let heap = alloc
        .snapshot()
        .expect("every model and the auditor support checkpointing");
    let (first, _) = play(&sim, &*alloc, &inherited, round);

    sim.restore(&machine);
    alloc.restore(&heap);
    let machine_again = sim.snapshot(Some(&machine));
    let heap_again = alloc.snapshot().unwrap();
    let (second, _) = play(&sim, &*alloc, &inherited, round);
    prop_assert_eq!(&first, &second, "{:?}/{:?}: replay diverged", model, wrap);
    if let Wrap::Faulted(plan) = wrap {
        let sure = !matches!(plan, AllocFaultPlan::Prob { .. }) && !requests(round).is_empty();
        let refused = first.log.iter().any(|&(_, got)| got == u64::MAX);
        prop_assert!(
            refused || !sure,
            "{:?}/{:?}: the plan refused nothing inside the round",
            model,
            wrap
        );
    }

    sim.restore(&machine_again);
    alloc.restore(&heap_again);
    let (third, _) = play(&sim, &*alloc, &inherited, round);
    prop_assert_eq!(
        &first,
        &third,
        "{:?}/{:?}: re-snapshot diverged",
        model,
        wrap
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_stack_replays_a_round_from_its_snapshot(
        prefix_threads in 1usize..5,
        prefix in alloc_ops(40),
        round_threads in 1usize..5,
        round in alloc_ops(40),
    ) {
        let (prefix, round) = ((prefix_threads, prefix), (round_threads, round));
        let models = AllocatorKind::ALL.map(Some).into_iter().chain([None]);
        let faulted = fault_plans(&prefix, &round).map(Wrap::Faulted);
        for model in models {
            for wrap in [Wrap::Bare, Wrap::Audited].into_iter().chain(faulted) {
                snapshot_replays_identically(model, wrap, &prefix, &round)?;
            }
        }
    }

    #[test]
    fn glibc_contract(ops in alloc_ops(60)) {
        check(AllocatorKind::Glibc, &ops)?;
    }

    #[test]
    fn hoard_contract(ops in alloc_ops(60)) {
        check(AllocatorKind::Hoard, &ops)?;
    }

    #[test]
    fn tbb_contract(ops in alloc_ops(60)) {
        check(AllocatorKind::TbbMalloc, &ops)?;
    }

    #[test]
    fn tcmalloc_contract(ops in alloc_ops(60)) {
        check(AllocatorKind::TcMalloc, &ops)?;
    }

    #[test]
    fn glibc_exhausts_and_recovers(sizes in prop::collection::vec(8u64..512, 1..8)) {
        exhaust_and_recover(AllocatorKind::Glibc, &sizes)?;
    }

    #[test]
    fn hoard_exhausts_and_recovers(sizes in prop::collection::vec(8u64..512, 1..8)) {
        exhaust_and_recover(AllocatorKind::Hoard, &sizes)?;
    }

    #[test]
    fn tbb_exhausts_and_recovers(sizes in prop::collection::vec(8u64..512, 1..8)) {
        exhaust_and_recover(AllocatorKind::TbbMalloc, &sizes)?;
    }

    #[test]
    fn tcmalloc_exhausts_and_recovers(sizes in prop::collection::vec(8u64..512, 1..8)) {
        exhaust_and_recover(AllocatorKind::TcMalloc, &sizes)?;
    }

    #[test]
    fn disabled_fault_plan_is_invisible(ops in alloc_ops(40)) {
        for kind in AllocatorKind::ALL {
            none_plan_is_identity(kind, &ops)?;
        }
    }
}
