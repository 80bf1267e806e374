//! Determinism gate for the schedule model checker's artifacts.
//!
//! An `tm-mc-report/v1` document is a function of `(programs, configs,
//! depth)` alone: the explorer runs fixed schedule sweeps over a
//! deterministic simulation, so the full JSON — verdicts, exploration
//! counters, and every shrunk counterexample delay vector — must be
//! byte-identical run-to-run, equal to a committed golden, *and*
//! independent of which executor backend (fibers or OS threads) carried
//! the simulated threads. If an intentional model change shifts the
//! numbers, re-bless with `GOLDEN_BLESS=1 cargo test -p tm-mc --test
//! mc_determinism`.

use tm_alloc::AllocatorKind;
use tm_stm::{BackendKind, CmKind, InjectedBug};

/// A compact but representative mc report: one caught mutant (with its
/// shrunk counterexample), one clean exhaustive cell per backend, and
/// the sparse program that exercises conflict pruning.
fn mc_json() -> String {
    let mut report = tm_obs::McReport::new("mc_determinism").meta("depth", 2);
    let catalog = tm_mc::mutation_catalog();
    let recipe = catalog
        .iter()
        .find(|r| r.bug == InjectedBug::SkipWriteValidation)
        .expect("catalog always carries the lost-update mutant");
    let mut work = tm_mc::SweepWork::default();
    report
        .cells
        .push(tm_mc::run_mutant_cell_opt(recipe, true, &mut work));
    for backend in BackendKind::ALL {
        report.cells.push(tm_mc::run_clean_cell_opt(
            &tm_mc::small_program(),
            AllocatorKind::TbbMalloc,
            backend,
            CmKind::Suicide,
            &tm_mc::quick_clean_config(2),
            true,
            &mut work,
        ));
    }
    report.cells.push(tm_mc::run_clean_cell_opt(
        &tm_mc::sparse_program(),
        AllocatorKind::TbbMalloc,
        BackendKind::Etl,
        CmKind::Suicide,
        &tm_mc::quick_clean_config(2),
        true,
        &mut work,
    ));
    report.to_json_string()
}

fn check_golden(name: &str, actual: &str) {
    let full = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(&full, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("missing golden file {full} ({e}); run with GOLDEN_BLESS=1"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden — the explorer's verdicts or \
         counterexamples are no longer reproducible; bless only if the \
         model intentionally changed"
    );
}

/// A single test function owns the process-global `TM_SIM_EXEC` variable
/// (read once per `Sim::new`), so the two executor backends cannot race
/// on it with another test.
#[test]
fn mc_report_replays_across_runs_and_executors() {
    std::env::set_var("TM_SIM_EXEC", "fibers");
    let first = mc_json();
    let second = mc_json();
    assert_eq!(first, second, "fibers: two runs disagree on the report");
    assert!(
        first.contains("tm-mc-report/v1"),
        "report schema changed: {first}"
    );
    assert!(
        first.contains("\"caught\"") && first.contains("\"clean\""),
        "report lost its expected verdict mix: {first}"
    );

    std::env::set_var("TM_SIM_EXEC", "threads");
    let threads = mc_json();
    std::env::remove_var("TM_SIM_EXEC");
    assert_eq!(
        first, threads,
        "the mc report depends on the executor backend"
    );

    check_golden("mc_determinism.json", &first);
}
