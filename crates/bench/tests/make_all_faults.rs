//! End-to-end regression tests for `make_all` through the real binary: a
//! cell that really fails (its `results` cannot be written) must leave an
//! `error` entry in a schema-valid matrix, a `DEGRADED` line and exit 1; a
//! matrix that cannot be written is one `error:` line and exit 1, never a
//! panic — and for its command line: `--only` takes exact registry names,
//! and bad input, anywhere in argv, exits 2 with one line.
//!
//! Each invocation runs in its own scratch directory so the committed
//! `results/` artifacts are never touched, and uses `--only table2` (the
//! cheapest exhibit: the static machine-configuration table).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use proptest::prelude::*;
use tm_obs::{CellStatus, SweepReport};

/// Scratch working directory unique to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("make_all_faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the real `make_all --only table2` from `dir`.
fn run_make_all(dir: &Path, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_make_all"));
    cmd.current_dir(dir).args(["--only", "table2"]).args(extra);
    cmd.output().expect("spawn make_all")
}

fn load_matrix(path: &Path) -> SweepReport {
    let src = std::fs::read_to_string(path).expect("matrix must be written even when degraded");
    SweepReport::parse(&src).expect("matrix must stay schema-valid")
}

/// `results` is a regular file, so the exhibit's report has nowhere to go:
/// a real fault in the one cell, with the matrix written elsewhere.
#[test]
fn permanent_error_fault_degrades_cell_and_exit_code() {
    let dir = scratch("error");
    std::fs::write(dir.join("results"), "").unwrap();
    let out = run_make_all(&dir, &["--out", "m/matrix.json"]);
    assert_eq!(out.status.code(), Some(1), "degraded run must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("DEGRADED [exhibit=table2]: error: could not write results/table2.json"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("0/1 exhibits regenerated"), "{stderr}");
    let matrix = load_matrix(&dir.join("m/matrix.json"));
    assert_eq!(matrix.cells.len(), 1, "--only must trim the registry");
    let cell = &matrix.cells[0];
    assert_eq!(cell.status, CellStatus::Error);
    assert!(
        (cell.error.as_deref().unwrap()).starts_with("could not write results/table2.json"),
        "{:?}",
        cell.error
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A matrix that cannot be written used to be a panic (exit 101 and a
/// backtrace): it is one `error:` line after the `DEGRADED` lines, exit 1.
#[test]
fn an_unwritable_matrix_is_one_error_line_and_exit_1() {
    let dir = scratch("unwritable");
    // The exhibit itself succeeds; only the matrix has nowhere to go.
    let out = run_make_all(&dir, &["--out", "/dev/null/x.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let last = stderr.lines().last().unwrap_or_default();
    assert!(
        last.starts_with("error: cannot write /dev/null/x.json: "),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(dir.join("results/table2.json").exists());

    // `results` a regular file and the default `--out` beneath it: the
    // cell degrades and the matrix cannot be written either.
    std::fs::remove_dir_all(dir.join("results")).unwrap();
    std::fs::write(dir.join("results"), "").unwrap();
    let out = run_make_all(&dir, &[]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    let [.., degraded, error] = lines[..] else {
        panic!("stderr: {stderr}");
    };
    assert!(
        degraded.starts_with("DEGRADED [exhibit=table2]: error: "),
        "{stderr}"
    );
    assert!(
        error.starts_with("error: cannot write results/make_all.sweep.json: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
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

    // A comma list drops its empty items, as a sweep axis does.
    std::fs::remove_dir_all(dir.join("results")).unwrap();
    let out = make_all("table1,");
    assert_eq!(out.status.code(), Some(0));
    assert!(dir.join("results/table1.json").exists());
    assert!(!dir.join("results/table2.json").exists());

    // A substring of a name, or the name in another case, is not a name;
    // the error lists the registry.
    std::fs::remove_dir_all(dir.join("results")).unwrap();
    let registry: Vec<&str> = (tm_bench::exhibits::REGISTRY.iter())
        .map(|e| e.name)
        .collect();
    let upper = registry.iter().map(|name| name.to_uppercase());
    for only in std::iter::once("table".to_string()).chain(upper) {
        let out = make_all(&only);
        assert_eq!(out.status.code(), Some(2), "{only}");
        let told = format!(
            "error: bad --only '{only}' (valid: {})\n",
            registry.join(", ")
        );
        assert_eq!(String::from_utf8_lossy(&out.stderr), told);
        assert!(out.stdout.is_empty(), "{only} ran");
        assert!(!dir.join("results").exists(), "{only} ran an exhibit");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_flag_values_are_one_line_usage_errors() {
    let dir = scratch("badflags");
    let table: &[(&[&str], &str)] = &[
        // Exhibits run one after another: there is no pool to size.
        (
            &["--only", "table2", "--jobs", "1"],
            "error: unknown flag '--jobs' for make_all",
        ),
        (&["--only"], "error: --only needs a value"),
        // A typo of a flag used to run with the default.
        (
            &["--only", "table2", "--job", "4"],
            "error: unknown flag '--job' for make_all",
        ),
        (&["table2"], "error: stray token 'table2'"),
        (
            &["--table", "x"],
            "error: --table takes no value (stray token 'x')",
        ),
        // The per-exhibit budget and the retry count are gone.
        (
            &["--only", "table2", "--timeout-s", "1"],
            "error: unknown flag '--timeout-s' for make_all",
        ),
        (
            &["--only", "table2", "--retries", "0"],
            "error: unknown flag '--retries' for make_all",
        ),
        // A flag given twice used to run its last value.
        (
            &["--only", "table1", "--only", "table2"],
            "error: --only given twice",
        ),
        (&["--only", ","], "error: --only has no values"),
        (
            &["--only", "table1,table1"],
            "error: --only lists 'table1' twice",
        ),
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
        assert!(!dir.join("results").exists(), "{argv:?} ran an exhibit");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The whole argv surface: a run of the flags `make_all` accepts
    /// (`--only table2`, `--out` into a scratch directory, `--table`) and
    /// one token its parser must refuse — an unknown flag, a stray
    /// positional, or a value flag with no value — between whole flags is
    /// exit 2 and one stderr line, and writes nothing: no matrix at the
    /// `--out` path, no `results/`. One spawn per case, one after another.
    #[test]
    fn a_refused_token_anywhere_is_one_line_exit_2_and_writes_nothing(
        picks in prop::collection::vec(any::<u64>(), 0..5),
        kind in 0usize..3,
        at in any::<u64>(),
    ) {
        let dir = scratch("argv");
        let out = dir.join("m/matrix.json");
        let out = out.to_str().unwrap();
        let accepted = [("only", Some("table2")), ("out", Some(out)), ("table", None)];
        let mut groups: Vec<Vec<String>> = (picks.iter())
            .map(|p| match accepted[*p as usize % accepted.len()] {
                (name, Some(value)) => vec![format!("--{name}"), value.to_string()],
                (name, None) => vec![format!("--{name}")],
            })
            .collect();
        let refused = match kind {
            1 => "stray".to_string(),
            2 => ["--only", "--out"][at as usize % 2].to_string(),
            _ => "--no-such-flag".to_string(),
        };
        groups.insert(at as usize % (groups.len() + 1), vec![refused]);
        let argv = groups.concat();
        let run = Command::new(env!("CARGO_BIN_EXE_make_all"))
            .current_dir(&dir)
            .args(&argv)
            .output()
            .expect("spawn make_all");
        let stderr = String::from_utf8_lossy(&run.stderr);
        prop_assert_eq!(run.status.code(), Some(2), "{:?}: {}", argv, stderr);
        prop_assert!(
            stderr.lines().count() == 1 && stderr.starts_with("error: "),
            "{:?}: {}",
            argv,
            stderr
        );
        prop_assert!(run.stdout.is_empty(), "{:?} printed", argv);
        prop_assert!(!dir.join("m").exists(), "{:?} wrote the matrix", argv);
        prop_assert!(!dir.join("results").exists(), "{:?} ran an exhibit", argv);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
