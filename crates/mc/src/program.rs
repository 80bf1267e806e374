//! The programs under systematic exploration and the single-schedule
//! runner — [`run_schedule`], the only from-scratch runner and therefore
//! the oracle — that executes them and checks every invariant.
//!
//! A *program* here is a closed transactional workload whose correctness
//! is a small set of decidable end-state invariants: token conservation,
//! snapshot consistency as observed by a read-only witness thread, and a
//! released serialization token. A *schedule* is one virtual-cycle delay
//! per scheduling point, served to the workload through the simulator's
//! scheduling-point hook ([`tm_sim::Sim::set_sched_hook`]); because the
//! whole stack is deterministic in virtual time, `(program, config,
//! schedule)` fully determines the execution, and any violation replays.

use std::panic::{AssertUnwindSafe, PanicHookInfo};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use tm_alloc::{Allocator as _, AllocatorKind};
use tm_check::TransferProgram;
use tm_sim::{Sim, FUEL_EXHAUSTED};
use tm_stm::{BackendKind, CmKind, InjectedBug, Stack, StackSpec, Stm, StmConfig};

/// Base address of the token-cell array (one ORT stripe per cell).
pub(crate) const BASE: u64 = 0x4000_0000;
/// Byte stride between token cells (distinct ownership-table stripes).
pub(crate) const STRIDE: u64 = 4096;
/// Size of the heap nodes allocated by the [`ProgramKind::AllocSwap`]
/// and [`ProgramKind::Oom`] workloads.
pub(crate) const NODE_SIZE: u64 = 64;

/// Which transactional workload a schedule drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramKind {
    /// The token-transfer program: every thread performs its
    /// [`TransferProgram::moves`] between token cells. Catches lost updates
    /// (write-validation and snapshot bugs) via conservation.
    Transfer,
    /// Same transfers, but thread 0 is a read-only *observer* that sums
    /// all cells inside one transaction per round. A committed observer
    /// sum different from the invariant total is a torn snapshot —
    /// exactly what read-validation bugs leak and what write-path
    /// validation masks in the plain transfer program.
    TransferObserver,
    /// Transfers over heap-allocated nodes: each cell is a *slot* holding
    /// a pointer to an immutable 64-byte node carrying the tokens; a
    /// transfer allocates two fresh nodes, republishes both slots, and
    /// transactionally frees the old nodes. Catches transactional
    /// allocation bugs (early free, missing quiescence) as conservation
    /// breaks or allocator panics.
    AllocSwap,
    /// The [`ProgramKind::AllocSwap`] transfers rebuilt on the *fallible*
    /// allocation plane: every node comes from [`tm_stm::Tx::try_malloc`]
    /// inside [`tm_stm::Stm::try_txn`], so an allocation failure becomes
    /// a clean `AllocFailed` abort and — past the contention manager's
    /// retry budget — a propagated error that turns the whole transfer
    /// into a no-op. Conservation must hold whether a transfer commits,
    /// retries, or gives up; this is the oracle program of the every-site
    /// OOM sweep ([`crate::oom`]).
    Oom,
}

impl ProgramKind {
    /// Stable lower-case report token.
    pub fn name(self) -> &'static str {
        match self {
            ProgramKind::Transfer => "transfer",
            ProgramKind::TransferObserver => "transfer-observer",
            ProgramKind::AllocSwap => "alloc-swap",
            ProgramKind::Oom => "oom",
        }
    }
}

/// A program under exploration: the transfer shape plus which workload
/// variant interprets it. For [`ProgramKind::TransferObserver`], thread 0
/// is the observer and threads `1..threads` run transfers.
#[derive(Clone, Copy, Debug)]
pub struct McProgram {
    /// Thread/cell/transaction shape (shared with `tm-check`).
    pub base: TransferProgram,
    /// Workload variant.
    pub kind: ProgramKind,
}

impl McProgram {
    /// Scheduling points a schedule must cover: one per `(thread, txn)`.
    pub fn points(&self) -> usize {
        self.base.points()
    }

    /// The conserved token total.
    pub fn expected_total(&self) -> u64 {
        self.base.expected_total()
    }
}

/// The fixed configuration a schedule is explored under.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Dynamic memory allocator backing the STM.
    pub alloc: AllocatorKind,
    /// Concurrency-control backend.
    pub backend: BackendKind,
    /// Contention-management policy.
    pub cm: CmKind,
    /// Seeded defect (or [`InjectedBug::None`] for the clean STM).
    pub bug: InjectedBug,
    /// Static allocation-fault plan applied to the whole run (the
    /// `tmstudy mc --alloc-fault` knob). [`tm_alloc::AllocFaultPlan::None`]
    /// — the default — builds the bare model with no wrapper, keeping
    /// artifacts byte-identical; anything else arms the plan on a
    /// [`tm_alloc::HeapAuditor`] between the model and the STM. The
    /// every-site OOM sweep ([`crate::oom`]) does *not* use this field:
    /// it re-arms its auditor's plan between checkpoint restores.
    pub alloc_fault: tm_alloc::AllocFaultPlan,
    /// Scheduler-event budget: a run that exceeds it is reported as a
    /// livelock violation instead of hanging the explorer.
    pub fuel: u64,
}

impl RunConfig {
    /// The clean STM under the paper's default configuration, with a
    /// fuel budget generous enough for any terminating schedule of the
    /// small programs explored here.
    pub fn clean() -> RunConfig {
        RunConfig {
            alloc: AllocatorKind::TbbMalloc,
            backend: BackendKind::Etl,
            cm: CmKind::Suicide,
            bug: InjectedBug::None,
            alloc_fault: tm_alloc::AllocFaultPlan::None,
            fuel: 2_000_000,
        }
    }

    /// The stack a run of this configuration builds.
    pub fn spec(&self) -> StackSpec {
        StackSpec {
            stm: StmConfig {
                backend: self.backend,
                cm: self.cm,
                bug: self.bug,
                ..StmConfig::default()
            },
            fault: self.alloc_fault,
            ..StackSpec::new(self.alloc)
        }
    }

    /// The machine, allocator and STM of one run of this configuration,
    /// with its event budget armed.
    pub(crate) fn stack(&self) -> Stack {
        let stack = Stack::new(&self.spec());
        stack.sim.set_fuel(self.fuel);
        stack
    }
}

/// Refcounted process-global silencer for panic *printing*. Exploring a
/// seeded mutant deliberately panics hundreds of times (allocator
/// double-frees, fuel exhaustion) while the schedule space is swept and
/// the counterexample shrunk; without this the default hook floods
/// stderr with backtraces for panics the runner catches and classifies.
/// Propagation is untouched — only the hook's printing is suppressed.
/// `TM_MC_LOUD` (any value) keeps the printing on. A cell holds one guard
/// for its sweep and shrink, so a schedule's own guard is a depth bump.
pub(crate) struct QuietPanics;

type PanicHook = Box<dyn for<'a> Fn(&PanicHookInfo<'a>) + Send + Sync>;

struct QuietState {
    depth: usize,
    prev: Option<PanicHook>,
}

static QUIET: Mutex<QuietState> = Mutex::new(QuietState {
    depth: 0,
    prev: None,
});

impl QuietPanics {
    pub(crate) fn enter() -> QuietPanics {
        let mut g = QUIET.lock().unwrap();
        g.depth += 1;
        if g.depth == 1 {
            g.prev = Some(std::panic::take_hook());
            if std::env::var("TM_MC_LOUD").is_err() {
                std::panic::set_hook(Box::new(|_| {}));
            }
        }
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let mut g = QUIET.lock().unwrap();
        g.depth -= 1;
        if g.depth == 0 {
            if let Some(prev) = g.prev.take() {
                std::panic::set_hook(prev);
            }
        }
    }
}

/// Turn a caught panic payload into the runner's verdict string: fuel
/// exhaustion is a livelock, anything else a plain panic. Shared by the
/// from-scratch runner and the checkpointed [`crate::explore::Session`]
/// so both classify identically.
pub(crate) fn classify_panic(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = tm_obs::panic_message(payload);
    if msg.starts_with(FUEL_EXHAUSTED) {
        format!("livelock: {msg}")
    } else {
        format!("panic: {msg}")
    }
}

/// Execute `program` under one delay vector and check every end-state
/// invariant. `Ok(())` means the schedule exposed nothing; `Err` carries
/// the violated invariant (or the classified panic) as evidence. Fully
/// deterministic in its inputs.
pub fn run_schedule(program: &McProgram, cfg: &RunConfig, delays: &[u64]) -> Result<(), String> {
    assert_eq!(delays.len(), program.points(), "schedule arity");
    let _quiet = QuietPanics::enter();
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_inner(program, cfg, delays))) {
        Ok(r) => r,
        Err(payload) => Err(classify_panic(payload.as_ref())),
    }
}

/// A schedule as the scheduling hook reads it: one delay per scheduling
/// point. The thread that calls `Sim::run` writes it between runs and the
/// logical threads read it during one (OS threads under
/// `TM_SIM_EXEC=threads`); the run's start orders the two, so `Relaxed`
/// suffices.
pub(crate) type DelayTable = Arc<[AtomicU64]>;

/// A [`DelayTable`] holding `delays`.
pub(crate) fn delay_table(delays: &[u64]) -> DelayTable {
    delays.iter().map(|&d| AtomicU64::new(d)).collect()
}

/// Install the scheduling hook over `table`: point `t` of thread `tid`
/// is delayed by `table[tid * txns + t]`, as the table reads when the
/// point is reached.
pub(crate) fn install_hook(sim: &Sim, txns: usize, table: DelayTable) {
    sim.set_sched_hook(Arc::new(move |tid, point| {
        table[tid * txns + point as usize].load(Relaxed)
    }));
}

/// Seed the heap: either tokens directly in the cells, or (AllocSwap)
/// slots pointing at freshly allocated nodes carrying the tokens. Never
/// consults the scheduling hook, so the seeded state is independent of
/// the delay vector — the property the checkpointed explorer's shared
/// root snapshot rests on.
pub(crate) fn seed_heap(program: &McProgram, sim: &Sim, alloc: &Arc<dyn tm_alloc::Allocator>) {
    let p = program.base;
    match program.kind {
        ProgramKind::Transfer | ProgramKind::TransferObserver => {
            sim.with_state(|m| {
                for c in 0..p.cells {
                    m.write_u64(BASE + c * STRIDE, TransferProgram::INITIAL_TOKENS);
                }
            });
        }
        ProgramKind::AllocSwap | ProgramKind::Oom => {
            sim.run(1, |ctx| {
                for c in 0..p.cells {
                    let node = alloc.malloc(ctx, NODE_SIZE);
                    ctx.write_u64(node, TransferProgram::INITIAL_TOKENS);
                    ctx.write_u64(BASE + c * STRIDE, node);
                }
            });
        }
    }
}

fn run_inner(program: &McProgram, cfg: &RunConfig, delays: &[u64]) -> Result<(), String> {
    let stack = cfg.stack();
    install_hook(&stack.sim, program.base.txns as usize, delay_table(delays));
    seed_heap(program, &stack.sim, &stack.alloc);
    main_phase(program, &stack.sim, &stack.stm)
}

/// The concurrent phase plus every end-state invariant, starting from a
/// seeded heap at quiescence. This is the part of a run the checkpointed
/// explorer repeats per schedule; everything above it (construction and
/// seeding) is captured once in the session's root checkpoint.
pub(crate) fn main_phase(program: &McProgram, sim: &Sim, stm: &Arc<Stm>) -> Result<(), String> {
    let p = program.base;
    // Torn snapshots the observer committed, recorded host-side.
    let torn: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let expected = program.expected_total();

    sim.run(p.threads, |ctx| {
        let tid = ctx.tid();
        let mut th = stm.thread(tid);
        if program.kind == ProgramKind::TransferObserver && tid == 0 {
            for t in 0..p.txns {
                let sum = stm.txn(ctx, &mut th, |tx, ctx| {
                    let mut s = tx.read(ctx, BASE)?;
                    // The scheduling point: widen the window between the
                    // first cell read and the rest of the snapshot.
                    ctx.sched_point(t);
                    for c in 1..p.cells {
                        s = s.wrapping_add(tx.read(ctx, BASE + c * STRIDE)?);
                    }
                    Ok(s)
                });
                if sum != expected {
                    torn.lock().unwrap().push(format!(
                        "observer txn {t} committed torn snapshot: total {sum} != {expected}"
                    ));
                }
            }
        } else {
            for (t, (from, to, amt)) in (0..).zip(p.moves(tid)) {
                let (from, to) = (BASE + from * STRIDE, BASE + to * STRIDE);
                match program.kind {
                    ProgramKind::AllocSwap => {
                        stm.txn(ctx, &mut th, |tx, ctx| {
                            let fp = tx.read(ctx, from)?;
                            let tp = tx.read(ctx, to)?;
                            let fv = tx.read(ctx, fp)?;
                            let tv = tx.read(ctx, tp)?;
                            ctx.sched_point(t);
                            if from != to && fv >= amt {
                                // Free-then-republish is legal under the
                                // STM's deferred-free semantics (frees
                                // apply at commit, are dropped on abort).
                                // An eager free applied from a stale
                                // snapshot instead double-frees nodes the
                                // winning transaction already released.
                                tx.free(ctx, fp);
                                tx.free(ctx, tp);
                                let nf = tx.malloc(ctx, NODE_SIZE);
                                let nt = tx.malloc(ctx, NODE_SIZE);
                                tx.write(ctx, nf, fv - amt)?;
                                tx.write(ctx, nt, tv + amt)?;
                                tx.write(ctx, from, nf)?;
                                tx.write(ctx, to, nt)?;
                            }
                            Ok(())
                        });
                    }
                    ProgramKind::Oom => {
                        // Same transfer on the fallible plane. A transfer
                        // whose allocation fails past the CM's retry
                        // budget propagates an error here and becomes a
                        // no-op — conservation must hold either way, so
                        // the error itself is deliberately dropped.
                        let _ = stm.try_txn(ctx, &mut th, |tx, ctx| {
                            let fp = tx.read(ctx, from)?;
                            let tp = tx.read(ctx, to)?;
                            let fv = tx.read(ctx, fp)?;
                            let tv = tx.read(ctx, tp)?;
                            ctx.sched_point(t);
                            if from != to && fv >= amt {
                                tx.free(ctx, fp);
                                tx.free(ctx, tp);
                                let nf = tx.try_malloc(ctx, NODE_SIZE)?;
                                let nt = tx.try_malloc(ctx, NODE_SIZE)?;
                                tx.write(ctx, nf, fv - amt)?;
                                tx.write(ctx, nt, tv + amt)?;
                                tx.write(ctx, from, nf)?;
                                tx.write(ctx, to, nt)?;
                            }
                            Ok(())
                        });
                    }
                    _ => {
                        stm.txn(ctx, &mut th, |tx, ctx| {
                            let f = tx.read(ctx, from)?;
                            let v = tx.read(ctx, to)?;
                            // The scheduling point: widen the read→write
                            // window.
                            ctx.sched_point(t);
                            if from != to && f >= amt {
                                tx.write(ctx, from, f - amt)?;
                                tx.write(ctx, to, v + amt)?;
                            }
                            Ok(())
                        });
                    }
                }
            }
        }
        stm.retire(th);
    });

    // Invariant 1: the serialization token is free at quiescence.
    let token = stm.serialize_token_addr();
    if token != 0 {
        let holder = sim.with_state(|m| m.read_u64(token));
        if holder != 0 {
            return Err(format!(
                "serialize token leaked: still held by thread slot {holder} after quiescence"
            ));
        }
    }

    // Invariant 2: the observer never committed a torn snapshot.
    if let Some(first) = torn.lock().unwrap().first() {
        return Err(first.clone());
    }

    // Invariant 3: token conservation.
    let total = sim.with_state(|m| {
        (0..p.cells)
            .map(|c| {
                let slot = BASE + c * STRIDE;
                match program.kind {
                    ProgramKind::AllocSwap | ProgramKind::Oom => {
                        let node = m.read_u64(slot);
                        m.read_u64(node)
                    }
                    _ => m.read_u64(slot),
                }
            })
            .fold(0u64, u64::wrapping_add)
    });
    if total != expected {
        return Err(format!(
            "conservation violated: total {total} != {expected}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(kind: ProgramKind) -> McProgram {
        McProgram {
            base: TransferProgram::default(),
            kind,
        }
    }

    #[test]
    fn zero_schedule_is_clean_for_every_kind() {
        for kind in [
            ProgramKind::Transfer,
            ProgramKind::TransferObserver,
            ProgramKind::AllocSwap,
            ProgramKind::Oom,
        ] {
            let p = program(kind);
            let r = run_schedule(&p, &RunConfig::clean(), &vec![0; p.points()]);
            assert_eq!(r, Ok(()), "{kind:?}");
        }
    }

    #[test]
    fn static_fault_plan_spares_the_fallible_plane_only() {
        // Fail the first main-phase allocation (the seed owns sites
        // 0..cells). The Oom program absorbs it as a clean retry; the
        // panicking AllocSwap plane cannot.
        let fallible = program(ProgramKind::Oom);
        let cfg = RunConfig {
            alloc_fault: tm_alloc::AllocFaultPlan::NthSite(fallible.base.cells),
            ..RunConfig::clean()
        };
        let r = run_schedule(&fallible, &cfg, &vec![0; fallible.points()]);
        assert_eq!(r, Ok(()), "one injected failure must be retried away");

        let panicking = program(ProgramKind::AllocSwap);
        let r = run_schedule(&panicking, &cfg, &vec![0; panicking.points()]);
        let err = r.unwrap_err();
        assert!(err.starts_with("panic:"), "{err}");
        assert!(err.contains("transactional malloc"), "{err}");
    }

    #[test]
    fn fuel_exhaustion_is_classified_as_livelock() {
        let p = program(ProgramKind::Transfer);
        let cfg = RunConfig {
            fuel: 50,
            ..RunConfig::clean()
        };
        let err = run_schedule(&p, &cfg, &vec![0; p.points()]).unwrap_err();
        assert!(err.starts_with("livelock:"), "{err}");
    }

    #[test]
    fn all_backends_and_cms_conserve_on_zero_schedule() {
        let p = program(ProgramKind::Transfer);
        for backend in BackendKind::ALL {
            for cm in CmKind::ALL {
                let cfg = RunConfig {
                    backend,
                    cm,
                    ..RunConfig::clean()
                };
                let r = run_schedule(&p, &cfg, &vec![0; p.points()]);
                assert_eq!(r, Ok(()), "{backend:?}/{cm:?}");
            }
        }
    }
}
