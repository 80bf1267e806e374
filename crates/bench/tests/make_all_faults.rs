//! End-to-end regression tests for `make_all`'s degradation machinery:
//! the `TM_SWEEP_FAULT` injection paths (permanent error, injected hang,
//! fail-first-N-then-recover) must produce the right matrix entries and
//! exit codes through the real binary — and for its command line: `--only`
//! takes exact registry names, and bad input exits 2 with one line.
//!
//! Each invocation runs in its own scratch directory so the committed
//! `results/` artifacts are never touched, and uses `--only table2` (the
//! cheapest exhibit: the static machine-configuration table).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tm_obs::{CellStatus, SweepReport};

/// Scratch working directory unique to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("make_all_faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the real `make_all` binary with a fault spec, from `dir`.
fn run_make_all(dir: &Path, fault: &str, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_make_all"));
    cmd.current_dir(dir)
        .env("TM_SWEEP_FAULT", fault)
        .args(["--only", "table2", "--jobs", "1"])
        .args(extra);
    cmd.output().expect("spawn make_all")
}

fn load_matrix(dir: &Path) -> SweepReport {
    let src = std::fs::read_to_string(dir.join("results/make_all.sweep.json"))
        .expect("matrix must be written even when degraded");
    SweepReport::parse(&src).expect("matrix must stay schema-valid")
}

#[test]
fn permanent_error_fault_degrades_cell_and_exit_code() {
    let dir = scratch("error");
    let out = run_make_all(&dir, "error:table2", &["--retries", "1"]);
    assert_eq!(out.status.code(), Some(1), "degraded run must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DEGRADED"), "stderr: {stderr}");
    let matrix = load_matrix(&dir);
    assert_eq!(matrix.cells.len(), 1, "--only must trim the registry");
    let cell = &matrix.cells[0];
    assert_eq!(cell.status, CellStatus::Error);
    assert_eq!(cell.attempts, 2, "1 try + 1 retry");
    assert!(
        cell.error.as_deref().unwrap().contains("injected fault"),
        "{:?}",
        cell.error
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timeout_fault_records_timeout_status() {
    let dir = scratch("timeout");
    let out = run_make_all(
        &dir,
        "timeout:table2",
        &["--retries", "0", "--timeout-s", "1"],
    );
    assert_eq!(out.status.code(), Some(1));
    let cell = &load_matrix(&dir).cells[0];
    assert_eq!(cell.status, CellStatus::Timeout);
    assert!(
        cell.error.as_deref().unwrap().contains("budget"),
        "{:?}",
        cell.error
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_fault_recovers_on_retry_with_clean_exit() {
    let dir = scratch("transient");
    // Fail only the first attempt; the retry runs the real exhibit.
    let out = run_make_all(&dir, "error:table2:1", &["--retries", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "recovered run must exit 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cell = &load_matrix(&dir).cells[0];
    assert_eq!(cell.status, CellStatus::Ok);
    assert_eq!(cell.attempts, 2, "attempt 1 faulted, attempt 2 succeeded");
    assert!(cell.error.is_none());
    // The recovered attempt really regenerated the exhibit.
    assert!(
        dir.join("results/table2.json").exists(),
        "retry must produce the exhibit artifacts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_filter_with_no_match_is_a_usage_error() {
    let dir = scratch("nomatch");
    let out = Command::new(env!("CARGO_BIN_EXE_make_all"))
        .current_dir(&dir)
        .args(["--only", "no-such-exhibit"])
        .output()
        .expect("spawn make_all");
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn only_takes_exact_names_and_each_exhibit_leaves_one_json() {
    let dir = scratch("only");
    let make_all = |only: &str| {
        Command::new(env!("CARGO_BIN_EXE_make_all"))
            .current_dir(&dir)
            .args(["--only", only])
            .output()
            .expect("spawn make_all")
    };
    let out = make_all("table1,table2");
    assert_eq!(out.status.code(), Some(0));
    let mut written: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results/ must exist")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["make_all.sweep.json", "table1.json", "table2.json"]
    );

    // A substring of a name is not a name; the error lists the registry.
    let out = make_all("table");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown exhibit 'table'"),
        "stderr: {stderr}"
    );
    for exhibit in tm_bench::exhibits::REGISTRY {
        assert!(stderr.contains(exhibit.name), "stderr: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_flag_values_are_one_line_usage_errors() {
    let dir = scratch("badflags");
    let table: &[(&[&str], &str)] = &[
        (
            &["--only", "table2", "--jobs", "x"],
            "error: bad --jobs 'x'",
        ),
        (
            &["--only", "table2", "--timeout-s", "x"],
            "error: bad --timeout-s 'x'",
        ),
        (
            &["--only", "table2", "--retries", "x"],
            "error: bad --retries 'x'",
        ),
        (&["--only"], "error: --only needs a value"),
    ];
    for (argv, message) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_make_all"))
            .current_dir(&dir)
            .args(*argv)
            .output()
            .expect("spawn make_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert_eq!(stderr.trim_end(), *message, "{argv:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The environment is input too: a `TM_SIM_EXEC` no executor answers to
/// must not reach the panic in the first exhibit's `Sim::new`, and a
/// `TM_SCALE` that is not a positive number must not be read as 1.
#[test]
fn bad_environment_values_are_one_line_usage_errors() {
    let dir = scratch("badenv");
    let table = [
        (
            "TM_SIM_EXEC",
            "bogus",
            "error: bad TM_SIM_EXEC 'bogus' (fibers|threads)",
        ),
        ("TM_SCALE", "abc", "error: bad TM_SCALE 'abc'"),
        ("TM_SCALE", "0", "error: bad TM_SCALE '0'"),
        // Set but no fault plan: it used to run fault-free (exit 0).
        (
            "TM_SWEEP_FAULT",
            "bogus",
            "error: bad TM_SWEEP_FAULT 'bogus' (<timeout|error>:<needle>[:<n>])",
        ),
    ];
    for (var, value, message) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_make_all"))
            .current_dir(&dir)
            .env(var, value)
            .args(["--only", "table1"])
            .output()
            .expect("spawn make_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert_eq!(stderr.trim_end(), message, "{var}={value}");
        assert!(
            !dir.join("results").exists(),
            "{var}={value} ran an exhibit"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
