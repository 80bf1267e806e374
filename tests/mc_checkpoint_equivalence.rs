//! Checkpoint-fidelity gate: restore-based exploration must be
//! observationally identical to from-scratch enumeration.
//!
//! The explorer's whole value rests on the claim that restoring the
//! post-seeding root checkpoint and running a schedule tail is
//! indistinguishable from rebuilding the world and replaying from
//! virtual-time zero. This suite asserts that claim end to end: every
//! clean-cell artifact (verdicts, exploration counters) and every
//! mutant-catalog artifact (including the shrunk minimal delay vectors)
//! produced with checkpointing must equal its from-scratch twin — not
//! merely semantically, but byte-identical as serialized reports — under
//! both executor backends.

use tm_alloc::AllocatorKind;
use tm_check::TransferProgram;
use tm_mc::{McProgram, ProgramKind, SweepWork};
use tm_obs::{McReport, McVerdict};
use tm_stm::{BackendKind, CmKind};

/// The three oracle programs: the plain transfer workload, a read-only
/// observer variant (torn-snapshot sensitive), and the sparse program
/// whose conflict relation actually prunes.
fn oracle_programs() -> Vec<(&'static str, McProgram)> {
    let observer = McProgram {
        base: TransferProgram {
            threads: 3,
            cells: 2,
            txns: 2,
            ..TransferProgram::default()
        },
        kind: ProgramKind::TransferObserver,
    };
    vec![
        ("transfer", tm_mc::small_program()),
        ("observer", observer),
        ("sparse", tm_mc::sparse_program()),
    ]
}

/// CM sample: the default, an exponential-backoff policy, and the
/// serialization fallback (the one with extra quiescence invariants).
const CM_SAMPLE: [CmKind; 3] = [CmKind::Suicide, CmKind::BackoffExp, CmKind::Serialize];

fn clean_reports(exec: &str) -> (String, SweepWork) {
    let ecfg = tm_mc::quick_clean_config(2);
    let mut checkpointed = McReport::new("equivalence");
    let mut scratch = McReport::new("equivalence");
    let mut work = SweepWork::default();
    for (label, program) in oracle_programs() {
        for backend in BackendKind::ALL {
            for cm in CM_SAMPLE {
                let ck = tm_mc::run_clean_cell_opt(
                    &program,
                    AllocatorKind::TbbMalloc,
                    backend,
                    cm,
                    &ecfg,
                    true,
                    &mut work,
                );
                let fs = tm_mc::run_clean_cell_opt(
                    &program,
                    AllocatorKind::TbbMalloc,
                    backend,
                    cm,
                    &ecfg,
                    false,
                    &mut SweepWork::default(),
                );
                assert_eq!(ck.verdict, McVerdict::Clean, "[{exec}] {label} {ck:?}");
                assert_eq!(
                    ck, fs,
                    "[{exec}] checkpointed {label}/{backend:?}/{cm:?} cell \
                     diverged from its from-scratch twin"
                );
                checkpointed.cells.push(ck);
                scratch.cells.push(fs);
            }
        }
    }
    let (ck_json, fs_json) = (checkpointed.to_json_string(), scratch.to_json_string());
    assert_eq!(
        ck_json, fs_json,
        "[{exec}] serialized clean reports are not byte-identical"
    );
    (ck_json, work)
}

fn catalog_report(exec: &str, checkpoint: bool) -> (String, SweepWork) {
    let mut report = McReport::new("catalog-equivalence");
    let mut work = SweepWork::default();
    for recipe in tm_mc::mutation_catalog() {
        let cell = tm_mc::run_mutant_cell_opt(&recipe, checkpoint, &mut work);
        assert_eq!(
            cell.verdict,
            McVerdict::Caught,
            "[{exec}] {:?} escaped (checkpoint={checkpoint}): {:?}",
            recipe.bug,
            cell.counterexample
        );
        assert!(
            cell.counterexample.is_some(),
            "[{exec}] caught mutant without a counterexample"
        );
        report.cells.push(cell);
    }
    (report.to_json_string(), work)
}

/// A single test function owns the process-global `TM_SIM_EXEC` variable
/// (read once per `Sim::new`), so the two executor backends cannot race
/// on it with another test.
#[test]
fn checkpointed_exploration_matches_from_scratch_everywhere() {
    let mut per_exec = Vec::new();
    for exec in ["fibers", "threads"] {
        std::env::set_var("TM_SIM_EXEC", exec);

        let (clean_json, work) = clean_reports(exec);
        // The checkpointed sweep must actually have checkpointed: one
        // root per clean cell. (Transfer-family seeding writes memory
        // directly without scheduler events, so `replay_steps_saved`
        // is legitimately 0 here; the catalog below covers it.)
        let cells = (oracle_programs().len() * BackendKind::ALL.len() * CM_SAMPLE.len()) as u64;
        assert_eq!(
            work.checkpoints_taken, cells,
            "[{exec}] expected one root checkpoint per clean cell"
        );

        // Full mutant catalog: caught, shrunk, and the minimal delay
        // vectors byte-identical between the two execution strategies.
        let (ck, ck_work) = catalog_report(exec, true);
        let (fs, fs_work) = catalog_report(exec, false);
        assert_eq!(
            ck, fs,
            "[{exec}] catalog verdicts or minimal counterexamples differ \
             between checkpointed and from-scratch exploration"
        );
        // The AllocSwap mutant seeds its heap through the scheduler, so
        // its restores skip real event replay — visible only on the
        // checkpointed side.
        assert!(
            ck_work.replay_steps_saved > 0,
            "[{exec}] restores saved no replay work"
        );
        assert_eq!(fs_work.replay_steps_saved, 0, "[{exec}] from-scratch");
        assert_eq!(fs_work.checkpoints_taken, 0, "[{exec}] from-scratch");

        per_exec.push((clean_json, ck));
    }
    std::env::remove_var("TM_SIM_EXEC");

    let (fibers_clean, fibers_catalog) = &per_exec[0];
    let (threads_clean, threads_catalog) = &per_exec[1];
    assert_eq!(
        fibers_clean, threads_clean,
        "clean equivalence artifacts depend on the executor backend"
    );
    assert_eq!(
        fibers_catalog, threads_catalog,
        "catalog verdicts, minimal counterexamples or their panic details \
         depend on the executor backend"
    );
}
