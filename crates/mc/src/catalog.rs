//! The explorer's one cell body, its strategies and verdict rules, the
//! mutation catalog, and the cell builders behind `tmstudy mc` and the
//! explorer rows of `tmstudy check`.
//!
//! A cell, whatever its [`Strategy`], is one sequence: sweep the schedule
//! space until the first violation, shrink it ([`shrink_violation`]), let
//! a verdict rule judge, emit an [`McCell`].
//!
//! Each [`MutantRecipe`] pairs one [`InjectedBug`] with the program,
//! configuration, and exploration strategy empirically tuned to expose
//! it; [`run_mutant_cell_opt`] proves the explorer still catches it
//! (verdict `caught`, with the violation shrunk to a minimal replayable
//! delay vector) and [`run_clean_cell_opt`] proves the clean STM survives
//! the same machinery (verdict `clean`). The quick suite bundles the full
//! catalog with a bounded-exhaustive clean sweep across every backend ×
//! contention-manager combination.

use proptest::test_runner::TestCaseError;
use proptest::{shrink_failure, Strategy as _, TestRng};
use tm_alloc::AllocatorKind;
use tm_check::strategies::delays;
use tm_check::TransferProgram;
use tm_obs::{CheckCell, McCell, McCounterexample, McReport, McVerdict};
use tm_stm::{BackendKind, CmKind, InjectedBug};

use crate::enumerate::{EnumConfig, EnumStats};
use crate::explore::{run_on, walk, Meter, Session, Throughput};
use crate::program::{run_schedule, McProgram, ProgramKind, QuietPanics, RunConfig};

/// How a cell sweeps the schedule space. The explorer is one — sweep,
/// shrink the first violation, fold a verdict into an [`McCell`] — and
/// these are its two ways of choosing which schedules to run.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Bounded-depth exhaustive enumeration ([`crate::enumerate()`]).
    Exhaustive(EnumConfig),
    /// Seeded uniform sampling: `cases` delay vectors with every point's
    /// delay drawn from `0..max_delay`, a deterministic function of
    /// `seed`.
    Random {
        /// Schedules to sample.
        cases: u64,
        /// Exclusive upper bound of each point's delay, in cycles.
        max_delay: u64,
        /// Stream seed.
        seed: u64,
    },
}

impl Strategy {
    fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive(_) => "exhaustive",
            Strategy::Random { .. } => "random",
        }
    }

    /// How many points a schedule of this strategy delays at once (a
    /// uniform sample delays them all).
    fn depth(&self, program: &McProgram) -> usize {
        match self {
            Strategy::Exhaustive(e) => e.depth,
            Strategy::Random { .. } => program.points(),
        }
    }

    /// Sweep `program` under `run` until the first violation: the sweep
    /// statistics and, if a schedule violated an invariant, the raw
    /// (unshrunk) delay vector with its detail — `stats.explored` is then
    /// the 1-based index of the witness. With a `session` every schedule
    /// is a restore-and-run from its root (the exhaustive strategy also
    /// dedups by fingerprint); without one every schedule runs from
    /// scratch. The schedule counts are folded into `work`.
    pub fn sweep(
        &self,
        program: &McProgram,
        run: &RunConfig,
        session: Option<&mut Session>,
        work: &mut SweepWork,
    ) -> (EnumStats, Option<(Vec<u64>, String)>) {
        let (stats, found, t) = match self {
            Strategy::Exhaustive(ecfg) => walk(program, run, ecfg, session),
            Strategy::Random {
                cases,
                max_delay,
                seed,
            } => {
                let vectors = delays(program.points(), *max_delay);
                let mut rng = TestRng::deterministic(*seed);
                sample(program, run, *cases, session, || vectors.generate(&mut rng))
            }
        };
        work.absorb(&stats, &t);
        (stats, found)
    }
}

/// The sample-until-violation loop of the random strategy: run
/// `samples` schedules drawn from `schedule`, stopping at the first
/// violation.
/// Every sample is a whole schedule, so a session's root (taken after
/// seeding) serves them all.
fn sample(
    program: &McProgram,
    run: &RunConfig,
    samples: u64,
    mut session: Option<&mut Session>,
    mut schedule: impl FnMut() -> Vec<u64>,
) -> (EnumStats, Option<(Vec<u64>, String)>, Throughput) {
    let _quiet = QuietPanics::enter();
    let meter = Meter::start(session.as_deref());
    let mut stats = EnumStats::default();
    let mut found = None;
    while stats.explored < samples && found.is_none() {
        let delays = schedule();
        stats.explored += 1;
        found = run_on(session.as_deref_mut(), program, run, &delays)
            .err()
            .map(|detail| (delays, detail));
    }
    let t = meter.read(session.as_deref(), stats.explored);
    (stats, found, t)
}

/// Schedule-count accounting accumulated across the cells of one sweep.
/// The caller supplies the wall-clock measurement; together they feed
/// the `tm-mc-report/v1.1` throughput block and the `mc-explore`
/// workload of `bash benchmark/run.sh`. Only sweep schedules count: a
/// cell's shrink is not part of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Schedules executed across all cells (exhaustive runs plus random
    /// samples).
    pub schedules: u64,
    /// Scheduler events checkpoint restores avoided re-executing.
    pub replay_steps_saved: u64,
    /// Root checkpoints captured (at most one per checkpointable cell).
    pub checkpoints_taken: u64,
    /// Schedules skipped by state-fingerprint dedup.
    pub deduped: u64,
}

impl SweepWork {
    fn absorb(&mut self, stats: &EnumStats, t: &Throughput) {
        self.schedules += stats.explored;
        self.deduped += stats.deduped;
        self.replay_steps_saved += t.replay_steps_saved;
        self.checkpoints_taken += t.checkpoints_taken;
    }
}

/// One entry of the mutation catalog: a seeded defect plus the recipe
/// that exposes it.
#[derive(Clone, Debug)]
pub struct MutantRecipe {
    /// The seeded defect.
    pub bug: InjectedBug,
    /// Workload that makes the defect observable.
    pub program: McProgram,
    /// Fixed configuration (backend the bug applies to, CM, allocator).
    pub run: RunConfig,
    /// Exploration strategy tuned to find it within budget.
    pub strategy: Strategy,
}

/// The full schedule-space mutation catalog: every [`InjectedBug`]
/// variant a *delay vector* can expose, each with its tuned recipe.
/// `tmstudy mc --quick` must catch all of them — a surviving mutant
/// means the explorer lost its teeth. The one deliberate absence is
/// [`InjectedBug::LeakOnAllocFail`]: its trigger is an allocation
/// *failure*, not an interleaving, so it belongs to the every-site OOM
/// sweep ([`crate::oom`]), which must catch it instead.
pub fn mutation_catalog() -> Vec<MutantRecipe> {
    let transfer = McProgram {
        base: TransferProgram::default(),
        kind: ProgramKind::Transfer,
    };
    let clean = RunConfig::clean();
    vec![
        // Lost update: writes skip ownership-record validation, so a
        // delayed transaction commits stale values over a concurrent
        // commit. One delayed point suffices.
        MutantRecipe {
            bug: InjectedBug::SkipWriteValidation,
            program: transfer,
            run: RunConfig {
                bug: InjectedBug::SkipWriteValidation,
                ..clean
            },
            strategy: Strategy::Exhaustive(EnumConfig {
                depth: 2,
                magnitudes: vec![400, 3200],
                ..EnumConfig::default()
            }),
        },
        // Torn snapshot: reads skip revalidation, which the plain
        // transfer masks (the write path re-covers the same stripes) but
        // a read-only observer commits.
        MutantRecipe {
            bug: InjectedBug::SkipReadValidation,
            program: McProgram {
                base: TransferProgram::default(),
                kind: ProgramKind::TransferObserver,
            },
            run: RunConfig {
                bug: InjectedBug::SkipReadValidation,
                ..clean
            },
            strategy: Strategy::Exhaustive(EnumConfig {
                depth: 2,
                magnitudes: vec![400, 3200],
                ..EnumConfig::default()
            }),
        },
        // NOrec commit races refresh the snapshot without value
        // validation: a commit landing in the read→commit window is
        // silently overwritten.
        MutantRecipe {
            bug: InjectedBug::NorecStaleSnapshot,
            program: transfer,
            run: RunConfig {
                backend: BackendKind::Norec,
                bug: InjectedBug::NorecStaleSnapshot,
                ..clean
            },
            strategy: Strategy::Exhaustive(EnumConfig {
                depth: 2,
                magnitudes: vec![400, 3200],
                ..EnumConfig::default()
            }),
        },
        // Transactional free applied eagerly at the call site: the node
        // is recycled while still published, so aborted retries double
        // free and conservation breaks. Allocator metadata couples every
        // transaction, so pruning is off.
        MutantRecipe {
            bug: InjectedBug::TxAllocEarlyFree,
            program: McProgram {
                base: TransferProgram::default(),
                kind: ProgramKind::AllocSwap,
            },
            run: RunConfig {
                bug: InjectedBug::TxAllocEarlyFree,
                ..clean
            },
            strategy: Strategy::Exhaustive(EnumConfig {
                depth: 2,
                magnitudes: vec![400, 3200],
                prune: false,
                ..EnumConfig::default()
            }),
        },
        // A committing serialization-token holder forgets the release:
        // needs enough consecutive aborts to escalate, so the recipe
        // leans on large delays that re-apply on every retry.
        MutantRecipe {
            bug: InjectedBug::SerializeTokenLeak,
            program: transfer,
            run: RunConfig {
                cm: CmKind::Serialize,
                bug: InjectedBug::SerializeTokenLeak,
                ..clean
            },
            strategy: Strategy::Exhaustive(EnumConfig {
                depth: 2,
                magnitudes: vec![3200, 25600],
                ..EnumConfig::default()
            }),
        },
    ]
}

fn config_kv(strategy: &Strategy, program: &McProgram, run: &RunConfig) -> Vec<(String, String)> {
    let mut kv = vec![
        ("strategy".into(), strategy.name().into()),
        ("program".into(), program.kind.name().into()),
        ("backend".into(), run.backend.name().into()),
        ("cm".into(), run.cm.name().into()),
        ("alloc".into(), run.alloc.name().into()),
        ("bug".into(), run.bug.name().into()),
        ("depth".into(), strategy.depth(program).to_string()),
    ];
    // Only label fault-injected cells: fault-free cells keep the exact
    // key set of the frozen pre-injection artifacts.
    if run.alloc_fault != tm_alloc::AllocFaultPlan::None {
        kv.push(("alloc-fault".into(), run.alloc_fault.to_string()));
    }
    kv
}

/// Shrink a raw violating delay vector to a minimal one that still
/// fails, using the proptest shrinking machinery over the delay-vector
/// shape [`Strategy::Random`] samples. Candidates run on `session` when
/// there is one (the cell's, after its sweep), else from scratch. Returns
/// the finished counterexample; the shrunk vector is guaranteed to still
/// violate — asserted from scratch, by the oracle, in every build profile,
/// at the price of one run per violation.
pub fn shrink_violation(
    program: &McProgram,
    run: &RunConfig,
    mut session: Option<&mut Session>,
    witness: Vec<u64>,
    detail: String,
    found_at: u64,
) -> McCounterexample {
    let _quiet = QuietPanics::enter();
    let max_delay = witness.iter().copied().max().unwrap_or(0) + 1;
    let strategy = delays(program.points(), max_delay);
    let check = |sched: &Vec<u64>| {
        run_on(session.as_deref_mut(), program, run, sched).map_err(TestCaseError::fail)
    };
    let (minimal, err, steps) =
        shrink_failure(&strategy, witness, TestCaseError::fail(detail), 400, check);
    assert!(
        run_schedule(program, run, &minimal).is_err(),
        "shrunk counterexample no longer fails"
    );
    McCounterexample {
        schedule: minimal,
        detail: format!("{err}"),
        found_at,
        shrink_steps: steps as u64,
    }
}

/// Run one clean-STM cell: bounded-exhaustive exploration of `run` that
/// must find nothing. Verdict `clean` on success, `violation` (with the
/// shrunk witness) if any schedule breaks an invariant. A fault plan in
/// `run` applies to every explored schedule: the clean STM must absorb
/// its failures (transient ones retry and the cell stays `clean`; a plan
/// harsh enough to exhaust the retry budget surfaces as a violation,
/// which is the point of running it). `checkpoint == false` forces the
/// from-scratch enumerator (the `tmstudy mc --no-checkpoint` escape
/// hatch); the cell's work is added to `work`.
pub fn run_clean_cell(
    program: &McProgram,
    run: &RunConfig,
    ecfg: &EnumConfig,
    checkpoint: bool,
    work: &mut SweepWork,
) -> McCell {
    let strategy = Strategy::Exhaustive(ecfg.clone());
    run_cell(program, run, &strategy, checkpoint, work, clean_verdict)
}

/// [`run_clean_cell`] on the clean, fault-free STM over `alloc`,
/// `backend` and `cm`.
pub fn run_clean_cell_opt(
    program: &McProgram,
    alloc: AllocatorKind,
    backend: BackendKind,
    cm: CmKind,
    ecfg: &EnumConfig,
    checkpoint: bool,
    work: &mut SweepWork,
) -> McCell {
    let run = RunConfig {
        alloc,
        backend,
        cm,
        ..RunConfig::clean()
    };
    run_clean_cell(program, &run, ecfg, checkpoint, work)
}

/// How a cell's outcome — the shrunk counterexample, if the sweep found a
/// violation — becomes its verdict.
type VerdictRule = fn(&McProgram, &RunConfig, Option<&McCounterexample>) -> McVerdict;

/// The clean STM's verdict rule: any violation is one.
fn clean_verdict(_: &McProgram, _: &RunConfig, found: Option<&McCounterexample>) -> McVerdict {
    match found {
        None => McVerdict::Clean,
        Some(_) => McVerdict::Violation,
    }
}

/// Run one mutation-catalog cell: the explorer must find a violation,
/// shrink it, and the shrunk schedule must both replay against the
/// mutant and pass on the clean STM (so the failure is the bug's, not
/// the harness's). Verdict `caught` when all of that holds, `escaped`
/// when the budget runs dry, `violation` when the shrunk witness fails
/// on the clean STM too. Checkpointing and work accounting as in
/// [`run_clean_cell_opt`].
pub fn run_mutant_cell_opt(
    recipe: &MutantRecipe,
    checkpoint: bool,
    work: &mut SweepWork,
) -> McCell {
    run_cell(
        &recipe.program,
        &recipe.run,
        &recipe.strategy,
        checkpoint,
        work,
        mutant_verdict,
    )
}

/// A seeded mutant's verdict rule — the replay discipline: the shrunk
/// schedule still fails on the mutant ([`shrink_violation`] asserts it)
/// and must pass on the clean STM.
fn mutant_verdict(
    program: &McProgram,
    run: &RunConfig,
    found: Option<&McCounterexample>,
) -> McVerdict {
    let clean_run = RunConfig {
        bug: InjectedBug::None,
        ..*run
    };
    match found {
        None => McVerdict::Escaped,
        Some(cx) if run_schedule(program, &clean_run, &cx.schedule).is_ok() => McVerdict::Caught,
        Some(_) => McVerdict::Violation,
    }
}

/// The one cell body: sweep by `strategy`, shrink the first violation,
/// let `verdict` judge the outcome. With `checkpoint` the sweep and the
/// shrink run on one [`Session`], built here; the verdict's replays stay
/// from-scratch [`run_schedule`] calls, the oracle's.
fn run_cell(
    program: &McProgram,
    run: &RunConfig,
    strategy: &Strategy,
    checkpoint: bool,
    work: &mut SweepWork,
    verdict: VerdictRule,
) -> McCell {
    let _quiet = QuietPanics::enter();
    let mut session = checkpoint.then(|| Session::try_new(program, run)).flatten();
    let (stats, found) = strategy.sweep(program, run, session.as_mut(), work);
    let counterexample = found.map(|(witness, detail)| {
        shrink_violation(
            program,
            run,
            session.as_mut(),
            witness,
            detail,
            stats.explored,
        )
    });
    McCell {
        config: config_kv(strategy, program, run),
        verdict: verdict(program, run, counterexample.as_ref()),
        explored: stats.explored,
        pruned: stats.pruned,
        deduped: stats.deduped,
        capped: stats.capped,
        counterexample,
    }
}

/// The small program whose bounded schedule space the clean sweep covers
/// exhaustively: 3 threads × 2 transactions over 2 cells (6 scheduling
/// points).
pub fn small_program() -> McProgram {
    McProgram {
        base: TransferProgram {
            threads: 3,
            cells: 2,
            txns: 2,
            ..TransferProgram::default()
        },
        kind: ProgramKind::Transfer,
    }
}

/// Enumeration shape of the quick clean sweep: every support of up to
/// `depth` points, one magnitude.
pub fn quick_clean_config(depth: usize) -> EnumConfig {
    EnumConfig {
        depth,
        magnitudes: vec![400],
        ..EnumConfig::default()
    }
}

/// The `tmstudy mc --quick` suite: the full mutation catalog plus a
/// depth-`depth` exhaustive clean sweep of [`small_program`] across
/// every backend × contention-manager combination. Also returns the
/// sweep's aggregated work so the caller can attach a throughput block
/// (it owns the wall-clock measurement).
pub fn quick_report_opt(name: &str, depth: usize, checkpoint: bool) -> (McReport, SweepWork) {
    let mut work = SweepWork::default();
    let mut report = McReport::new(name)
        .meta("mode", "quick")
        .meta("clean_depth", depth);
    for recipe in mutation_catalog() {
        report
            .cells
            .push(run_mutant_cell_opt(&recipe, checkpoint, &mut work));
    }
    let program = small_program();
    let ecfg = quick_clean_config(depth);
    for backend in BackendKind::ALL {
        for cm in CmKind::ALL {
            report.cells.push(run_clean_cell_opt(
                &program,
                AllocatorKind::TbbMalloc,
                backend,
                cm,
                &ecfg,
                checkpoint,
                &mut work,
            ));
        }
    }
    // A sparse program (many more cells than transactions) where the
    // conflict relation actually removes schedules, so the artifact
    // demonstrates a non-zero `pruned` count.
    report.cells.push(run_clean_cell_opt(
        &sparse_program(),
        AllocatorKind::TbbMalloc,
        BackendKind::Etl,
        CmKind::Suicide,
        &quick_clean_config(2),
        checkpoint,
        &mut work,
    ));
    (report, work)
}

/// A transfer program with far more cells than transactions, leaving
/// many scheduling points conflict-free: the shape that shows the
/// pruning machinery paying off.
pub fn sparse_program() -> McProgram {
    McProgram {
        base: TransferProgram {
            threads: 3,
            cells: 64,
            txns: 4,
            ..TransferProgram::default()
        },
        kind: ProgramKind::Transfer,
    }
}

/// The mc rows of the `tmstudy check` matrix: one cell per catalog
/// mutant (must be caught) plus one clean exhaustive cell per backend
/// (must stay clean), converted to the check-report cell shape.
pub fn check_cells() -> Vec<CheckCell> {
    let mut out = Vec::new();
    let mut work = SweepWork::default();
    for recipe in mutation_catalog() {
        out.push(mc_cell_to_check(run_mutant_cell_opt(
            &recipe, true, &mut work,
        )));
    }
    let program = small_program();
    let ecfg = quick_clean_config(2);
    for backend in BackendKind::ALL {
        out.push(mc_cell_to_check(run_clean_cell_opt(
            &program,
            AllocatorKind::TbbMalloc,
            backend,
            CmKind::Suicide,
            &ecfg,
            true,
            &mut work,
        )));
    }
    out
}

fn mc_cell_to_check(cell: McCell) -> CheckCell {
    let mut checks = vec![
        ("explored".to_string(), cell.explored),
        ("pruned".to_string(), cell.pruned),
    ];
    // Dedup is structurally absent on the catalog cells (every pool
    // point is consulted, so any delay perturbs the trace hash); surface
    // it only when it actually fires so existing matrices stay stable.
    if cell.deduped > 0 {
        checks.push(("deduped".to_string(), cell.deduped));
    }
    if let Some(cx) = &cell.counterexample {
        checks.push(("shrink_steps".to_string(), cx.shrink_steps));
        checks.push((
            "minimal_weight".to_string(),
            cx.schedule.iter().sum::<u64>(),
        ));
    }
    let evidence = cell.counterexample.as_ref().map(|cx| cx.detail.as_str());
    let passed = format!("verdict {}", cell.verdict.name());
    verdict_check_cell(
        "mc",
        cell.config.clone(),
        checks,
        cell.verdict,
        evidence,
        Some(passed),
    )
}

/// Fold an explorer verdict into a `tmstudy check` cell of `kind`: an
/// unexpected verdict fails the cell with its evidence, an expected one
/// passes with `passed` as the detail.
pub(crate) fn verdict_check_cell(
    kind: &str,
    config: Vec<(String, String)>,
    checks: Vec<(String, u64)>,
    verdict: McVerdict,
    evidence: Option<&str>,
    passed: Option<String>,
) -> CheckCell {
    let mut keyed = vec![("kind".to_string(), kind.to_string())];
    keyed.extend(config);
    let mut failures = Vec::new();
    if !verdict.is_expected() {
        let evidence = evidence.map(|d| format!(": {d}")).unwrap_or_default();
        failures.push(format!("{kind} verdict {}{evidence}", verdict.name()));
    }
    let mut out = tm_check::cell_from(keyed, checks, failures);
    if out.status == tm_obs::CheckStatus::Pass {
        out.detail = passed;
    }
    out
}

/// One `kind=explore` row of the `tmstudy check` matrix: `cases` seeded
/// random schedules ([`Strategy::Random`], delays below 400 cycles) of the
/// default transfer program. On the clean STM the row passes iff no
/// schedule violates an invariant; under a seeded `bug` it is the
/// harness's self-test and passes iff the bug *is* caught — found, shrunk,
/// the shrunk schedule failing on the mutant and passing on the clean STM.
pub fn explore_check_cell(bug: InjectedBug, cases: u64, seed: u64) -> CheckCell {
    let program = McProgram {
        base: TransferProgram::default(),
        kind: ProgramKind::Transfer,
    };
    let run = RunConfig {
        bug,
        ..RunConfig::clean()
    };
    let strategy = Strategy::Random {
        cases,
        max_delay: 400,
        seed,
    };
    let verdict: VerdictRule = if bug == InjectedBug::None {
        clean_verdict
    } else {
        mutant_verdict
    };
    let work = &mut SweepWork::default();
    let cell = run_cell(&program, &run, &strategy, false, work, verdict);
    let config = vec![
        ("bug".to_string(), format!("{bug:?}")),
        ("threads".to_string(), program.base.threads.to_string()),
        ("txns".to_string(), program.base.txns.to_string()),
        ("budget".to_string(), cases.to_string()),
    ];
    let mut checks = vec![("schedules".to_string(), cases)];
    let mut passed = None;
    if let Some(cx) = &cell.counterexample {
        let weight = cx.schedule.iter().sum::<u64>();
        checks.push(("found_at_case".to_string(), cx.found_at));
        checks.push(("shrink_steps".to_string(), cx.shrink_steps));
        checks.push(("minimal_weight".to_string(), weight));
        passed = Some(format!(
            "caught at case {} after {} shrink steps (minimal weight {weight})",
            cx.found_at, cx.shrink_steps
        ));
    }
    let evidence = cell.counterexample.as_ref().map(|cx| cx.detail.as_str());
    verdict_check_cell("explore", config, checks, cell.verdict, evidence, passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_fault_cell_stays_clean_and_is_labelled() {
        // One single-shot injection per explored schedule: the retry
        // machinery absorbs it under every interleaving, so the clean
        // sweep stays clean; the cell's config carries the plan token.
        let program = crate::oom::oom_program();
        let ecfg = quick_clean_config(1);
        let run = RunConfig {
            alloc_fault: tm_alloc::AllocFaultPlan::NthSite(5),
            ..RunConfig::clean()
        };
        let cell = run_clean_cell(&program, &run, &ecfg, true, &mut SweepWork::default());
        assert_eq!(cell.verdict, McVerdict::Clean, "{:?}", cell.counterexample);
        assert!(
            cell.config
                .iter()
                .any(|(k, v)| k == "alloc-fault" && v == "site:5"),
            "missing alloc-fault label: {:?}",
            cell.config
        );
        // Fault-free cells must NOT grow the new key (frozen artifacts).
        let clean = run_clean_cell_opt(
            &program,
            AllocatorKind::TbbMalloc,
            BackendKind::Etl,
            CmKind::Suicide,
            &ecfg,
            true,
            &mut SweepWork::default(),
        );
        assert!(!clean.config.iter().any(|(k, _)| k == "alloc-fault"));
    }

    #[test]
    fn catalog_covers_every_injected_bug() {
        let catalog = mutation_catalog();
        let bugs: Vec<InjectedBug> = catalog.iter().map(|r| r.bug).collect();
        for bug in [
            InjectedBug::SkipWriteValidation,
            InjectedBug::SkipReadValidation,
            InjectedBug::NorecStaleSnapshot,
            InjectedBug::TxAllocEarlyFree,
            InjectedBug::SerializeTokenLeak,
        ] {
            assert!(bugs.contains(&bug), "catalog missing {bug:?}");
        }
        // LeakOnAllocFail triggers on allocation *failure*, not on an
        // interleaving: no delay vector can expose it, so it is owned by
        // the every-site OOM sweep (see crate::oom) — deliberately not a
        // schedule-catalog recipe.
        assert!(
            !bugs.contains(&InjectedBug::LeakOnAllocFail),
            "leak-on-alloc-fail belongs to the oom sweep, not the schedule catalog"
        );
        for r in &catalog {
            assert_eq!(r.run.bug, r.bug, "recipe bug mismatch for {:?}", r.bug);
            assert!(
                r.bug.applies_to(r.run.backend),
                "{:?} does not apply to {:?}",
                r.bug,
                r.run.backend
            );
        }
    }

    #[test]
    fn skip_write_validation_mutant_is_caught_and_shrunk() {
        let catalog = mutation_catalog();
        let recipe = catalog
            .iter()
            .find(|r| r.bug == InjectedBug::SkipWriteValidation)
            .unwrap();
        let cell = run_mutant_cell_opt(recipe, true, &mut SweepWork::default());
        assert_eq!(cell.verdict, McVerdict::Caught, "{:?}", cell.counterexample);
        let cx = cell.counterexample.unwrap();
        assert!(cx.shrink_steps > 0, "no shrinking happened");
        assert!(
            cx.schedule.iter().filter(|&&d| d > 0).count() <= 2,
            "minimal schedule should have tiny support: {:?}",
            cx.schedule
        );
    }

    #[test]
    fn clean_small_sweep_is_clean_at_depth_2() {
        let cell = run_clean_cell_opt(
            &small_program(),
            AllocatorKind::TbbMalloc,
            BackendKind::Etl,
            CmKind::Suicide,
            &quick_clean_config(2),
            true,
            &mut SweepWork::default(),
        );
        assert_eq!(cell.verdict, McVerdict::Clean, "{:?}", cell.counterexample);
        assert!(cell.explored > 1);
    }
}
