//! Malformed input — a flag value, a results file — is bad input: `tmstudy`
//! names the flag or the fault in a one-line `error:` and exits 2. It never
//! reaches a Rust panic (exit 101), whichever subcommand reads the input.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use tm_alloc::AllocatorKind;
use tm_core::sweeps::{row, sweep_row, Subcommand, SUBCOMMANDS};
use tm_ds::StructureKind;
use tm_stamp::AppKind;
use tm_stm::{BackendKind, CmKind};

#[test]
fn malformed_flag_values_exit_2_with_a_one_line_error() {
    // (argv, what the message must name). A subcommand that writes a
    // report gets an `--out` nothing can be written to; only the last row
    // gets far enough to try.
    const OUT: &str = "/dev/null/x.json";
    // 200 000 nested arrays: the parser used to recurse into every one and
    // overflow the stack (exit 134).
    let deep = std::env::temp_dir().join(format!("cli-deep-{}.json", std::process::id()));
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let deep = deep.to_str().unwrap();
    // A run report with a section kind no producer writes any more.
    let counters = std::env::temp_dir().join(format!("cli-counters-{}.json", std::process::id()));
    std::fs::write(
        &counters,
        r#"{"schema":"tm-run-report/v1","name":"old","kind":"table","meta":{},"sections":[{"title":"stm","type":"counters","data":{"commits":1}}]}"#,
    )
    .unwrap();
    let counters = counters.to_str().unwrap();
    let table: &[(&[&str], &str)] = &[
        (&["report", deep], "nesting deeper than 128 at byte 128"),
        (&["report", counters], "unknown section kind 'counters'"),
        (&["synth", "--structure", "foo"], "structure"),
        (&["synth", "--alloc", "jemalloc"], "alloc"),
        (&["synth", "--threads", "x"], "threads"),
        (&["synth", "--size", "big"], "size"),
        (&["synth", "--backend", "tl2"], "backend"),
        (&["stamp", "--app", "nope"], "app"),
        (&["stamp", "--seed", "x"], "seed"),
        (&["profile", "--app", "nope"], "app"),
        (&["threadtest", "--alloc", "nope"], "alloc"),
        (&["threadtest", "--pairs", "-1"], "pairs"),
        (&["mc", "--depth", "x", "--out", OUT], "--depth"),
        (&["mc", "--budget", "-3", "--out", OUT], "--budget"),
        (&["mc", "--alloc", "nope", "--out", OUT], "alloc"),
        // A sweep that names no schedule to run, no delay, or one delay
        // twice: each used to exit 0 — one schedule explored and "capped",
        // every "delay" the undelayed run, every duplicate schedule
        // counted as deduplicated.
        (&["mc", "--budget", "0", "--out", OUT], "--budget '0'"),
        (
            &["mc", "--magnitudes", "0", "--out", OUT],
            "--magnitudes '0'",
        ),
        (
            &["mc", "--magnitudes", "400,0400", "--out", OUT],
            "--magnitudes '400' (named twice)",
        ),
        // A delay the virtual clock cannot hold: 2^64 - 1 used to wrap it
        // (exit 0, `clean`, over schedules nobody named), 2^56 to report a
        // violation of the clean STM.
        (
            &["mc", "--magnitudes", "18446744073709551615", "--out", OUT],
            "--magnitudes '18446744073709551615' (at most 6004799503160661:",
        ),
        (
            &["mc", "--magnitudes", "400,72057594037927936", "--out", OUT],
            "--magnitudes '72057594037927936'",
        ),
        // A configuration the STM does not run: a shift of 64 would wrap to
        // 0, the next two would panic in `Stm::new`; a structure of no
        // elements would draw its keys from an empty range.
        (&["synth", "--shift", "64"], "--shift '64'"),
        (&["synth", "--ctl", "--write-through"], "--write-through"),
        (
            &[
                "stamp",
                "--app",
                "genome",
                "--backend",
                "htm",
                "--write-through",
            ],
            "--write-through",
        ),
        (&["synth", "--size", "0"], "--size '0'"),
        // A size whose key range (2 x size) or bucket count (32 x size,
        // rounded up to a power of two) wraps a u64: 2^63 panicked on an
        // empty key range, 2^59 ran with one bucket. An update share
        // above 100 % ran as 100 %.
        (
            &["synth", "--size", "9223372036854775808"],
            "--size '9223372036854775808'",
        ),
        (
            &["synth", "--size", "576460752303423488"],
            "--size '576460752303423488'",
        ),
        (&["synth", "--update-pct", "101"], "--update-pct '101'"),
        // A scale of 0 ran an empty input and printed zeros; one whose
        // input sizes overflow a u64 wrapped into a heap-exhausting run.
        (&["stamp", "--scale", "0"], "--scale '0'"),
        (&["profile", "--scale", "0"], "--scale '0'"),
        (
            &["stamp", "--scale", "18446744073709551615"],
            "--scale '18446744073709551615'",
        ),
        // Sweep cells run one after another: there is no pool to size.
        (&["sweep", "--workers", "1", "--out", OUT], "--workers"),
        (&["book", "--results", "/nonexistent"], "/nonexistent"),
        (&["mc", "--oom", "--out", OUT], OUT),
    ];
    for (argv, flag) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .args(*argv)
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        let error: Vec<&str> = stderr.lines().filter(|l| l.contains("error:")).collect();
        assert_eq!(error.len(), 1, "{argv:?}: {stderr}");
        assert!(error[0].contains(flag), "{argv:?}: {stderr}");
    }
    std::fs::remove_file(deep).unwrap();
    std::fs::remove_file(counters).unwrap();
}

/// An argument the subcommand does not understand is refused, not
/// skipped: each of these used to run (exit 0) on defaults the caller did
/// not ask for.
#[test]
fn arguments_the_subcommand_does_not_understand_are_one_line_usage_errors() {
    let synth = ["--structure", "hash", "--alloc", "glibc"];
    let table: &[(&[&str], &str)] = &[
        // A typo of --threads ran the default 8 threads.
        (
            &["synth", "--thread", "4"],
            "error: unknown flag '--thread' for tmstudy synth\n",
        ),
        (&["synth", "bogus"], "error: stray token 'bogus'\n"),
        // `bogus` was eaten as the value of a switch.
        (
            &["synth", "--ctl", "bogus"],
            "error: --ctl takes no value (stray token 'bogus')\n",
        ),
        (&["synth", "--threads"], "error: --threads needs a value\n"),
        (
            &["check", "--quick", "bogus"],
            "error: --quick takes no value (stray token 'bogus')\n",
        ),
        (
            &["machine", "--quick"],
            "error: unknown flag '--quick' for tmstudy machine\n",
        ),
        // An unknown subcommand printed the usage text and exited 0.
        (
            &["syth", "--structure", "hash"],
            "error: bad subcommand 'syth' (valid: synth, stamp, threadtest, profile, machine, \
             sweep, check, mc, book, report)\n",
        ),
        // `report` is dispatched before the lookup, and was missing from
        // the list of valid subcommands.
        (
            &["reprot", "a.json"],
            "error: bad subcommand 'reprot' (valid: synth, stamp, threadtest, profile, machine, \
             sweep, check, mc, book, report)\n",
        ),
        // What a refusal shows of its input is escaped: each of these
        // printed a two-line `error:`.
        (
            &["synth", "--threads", "1\n2"],
            "error: bad --threads '1\\n2'\n",
        ),
        (
            &["synth", "--bogus\nx", "1"],
            "error: unknown flag '--bogus\\nx' for tmstudy synth\n",
        ),
        (
            &["synth", "--alloc-fault", "x\ny"],
            "error: invalid alloc-fault plan 'x\\ny' (want none, budget:<bytes>, \
             class:<size>:<max-live>, site:<n>, or prob:<seed>:<denom>)\n",
        ),
        // So did `report` without a file, or with more than two.
        (&["report"], "error: report takes one or two files, not 0\n"),
        (
            &["report", "a.json", "b.json", "c.json"],
            "error: report takes one or two files, not 3\n",
        ),
        // The per-cell wall-clock budget is gone, with the retries.
        (
            &["sweep", "--timeout-ms", "5"],
            "error: unknown flag '--timeout-ms' for tmstudy sweep --workload synth\n",
        ),
        // A flag given twice kept its last value: this ran TCMalloc on 2
        // threads, and `synth` printed `threads: 2` in its config.
        (
            &[
                "threadtest",
                "--alloc",
                "glibc",
                "--threads",
                "1",
                "--threads",
                "2",
                "--pairs",
                "10",
                "--alloc",
                "tc",
            ],
            "error: --threads given twice\n",
        ),
        (
            &["synth", "--threads", "1", "--threads", "2"],
            "error: --threads given twice\n",
        ),
        (
            &["sweep", "--workload", "synth", "--workload", "stamp"],
            "error: --workload given twice\n",
        ),
        // A value that does not parse is one message form, whichever
        // reader reads it.
        (&["synth", "--threads", "x"], "error: bad --threads 'x'\n"),
        (&["synth", "--ops", "x"], "error: bad --ops 'x'\n"),
        (&["synth", "--shift", "x"], "error: bad --shift 'x'\n"),
        (&["stamp", "--seed", "x"], "error: bad --seed 'x'\n"),
        (&["threadtest", "--pairs", "x"], "error: bad --pairs 'x'\n"),
        (
            &["sweep", "--threads", "1,x", "--out", "/dev/null/x.json"],
            "error: bad --threads 'x'\n",
        ),
        (
            &["mc", "--magnitudes", ",", "--out", "/dev/null/x.json"],
            "error: --magnitudes has no values\n",
        ),
        (
            &["mc", "--magnitudes", "400,x", "--out", "/dev/null/x.json"],
            "error: bad --magnitudes 'x'\n",
        ),
        // A comma list names each item once.
        (
            &["mc", "--magnitudes", "400,400", "--out", "/dev/null/x.json"],
            "error: --magnitudes lists '400' twice\n",
        ),
    ];
    for (argv, message) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .args(*argv)
            .args(if argv[0] == "synth" { &synth[..] } else { &[] })
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert_eq!(stderr, *message, "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} ran");
    }
}

/// `mc --oom` and `mc --quick` run fixed suites: a flag of the targeted
/// sweep that the suite would not read is refused, naming the flag and the
/// suite. Each of these used to exit 0 with the suite's unchanged report.
#[test]
fn a_flag_a_fixed_mc_suite_does_not_read_is_a_one_line_usage_error() {
    let table: &[(&[&str], &str, &str)] = &[
        (&["--oom", "--backend", "htm"], "backend", "oom"),
        (&["--oom", "--cm", "karma"], "cm", "oom"),
        (&["--oom", "--depth", "5"], "depth", "oom"),
        (&["--oom", "--magnitudes", "5"], "magnitudes", "oom"),
        (&["--oom", "--alloc", "hoard"], "alloc", "oom"),
        (&["--oom", "--budget", "9"], "budget", "oom"),
        (&["--oom", "--no-checkpoint"], "no-checkpoint", "oom"),
        (&["--oom", "--quick"], "quick", "oom"),
        (&["--oom", "--alloc-fault", "site:3"], "alloc-fault", "oom"),
        (&["--quick", "--backend", "htm"], "backend", "quick"),
        (&["--quick", "--cm", "karma"], "cm", "quick"),
        (&["--quick", "--alloc", "hoard"], "alloc", "quick"),
        (&["--quick", "--magnitudes", "5"], "magnitudes", "quick"),
        (&["--quick", "--budget", "9"], "budget", "quick"),
        (
            &["--quick", "--alloc-fault", "site:3"],
            "alloc-fault",
            "quick",
        ),
    ];
    for (argv, flag, mode) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .arg("mc")
            .args(*argv)
            .args(["--out", "/dev/null/x.json"])
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        let told = format!("error: --{flag} does not apply to mc --{mode}: ");
        assert!(stderr.starts_with(&told), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} ran");
    }
}

/// A sweep is a gate: a cell that fails while it runs is an `error` entry
/// in a matrix that is still written, one `error:` line, and exit 1 (it
/// used to be a warning and exit 0).
#[test]
fn a_sweep_with_a_failing_cell_writes_the_matrix_and_exits_1() {
    let out_file = std::env::temp_dir().join(format!("cli-sweep-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
        .args(["sweep", "--workload", "threadtest", "--alloc", "tbb"])
        .args([
            "--threads",
            "1",
            "--pairs",
            "1",
            "--size",
            "18446744073709551615",
        ])
        .arg("--out")
        .arg(&out_file)
        .output()
        .expect("run tmstudy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().last(), Some("error: 1 degraded cell(s)"));
    let src = std::fs::read_to_string(&out_file).expect("the matrix is written all the same");
    std::fs::remove_file(&out_file).unwrap();
    let matrix = tm_obs::SweepReport::parse(&src).expect("and is schema-valid");
    assert_eq!(matrix.cells.len(), 1);
    assert_eq!(matrix.cells[0].status, tm_obs::CellStatus::Error);
    let error = matrix.cells[0].error.as_deref().unwrap();
    assert!(
        error.contains("TBBMalloc model: exhausted serving a 18446744073709551615-byte request"),
        "{error}"
    );
}

/// Every cell of a sweep parses before any runs: a value one of its
/// parsers refuses, on any axis, exits 2 with that parser's message and
/// writes no matrix. Only backend, cm and alloc-fault typos used to; the
/// others ran the sweep and wrote a matrix with an `error` cell.
#[test]
fn a_sweep_value_a_parser_refuses_exits_2_before_any_cell_runs() {
    // Eight axes of 256 values: 2^64 cells, one more than a u64 counts.
    let wide: Vec<String> = (1..=256).map(|i| i.to_string()).collect();
    let wide = wide.join(",");
    let wide = wide.as_str();
    let table: &[(&[&str], &str)] = &[
        (&["--backend", "nrec"], "bad --backend 'nrec'"),
        (&["--alloc", "hord"], "bad --alloc 'hord'"),
        (&["--structure", "lst"], "bad --structure 'lst'"),
        // Another case or an alias named the same allocator twice, as
        // cells of identical metrics; a repeat of one value did too.
        (
            &["--alloc", "glibc,GLIBC,ptmalloc"],
            "error: bad --alloc 'GLIBC' (valid: glibc, hoard, tbb, tc)",
        ),
        (&["--alloc", "glibc,glibc"], "--alloc lists 'glibc' twice"),
        (&["--threads", "1,1"], "--threads lists '1' twice"),
        (&["--workload", "stamp", "--app", "genom"], "'genom'"),
        (&["--threads", "1,x"], "bad --threads 'x'"),
        (
            &["--reps", "4294967295"],
            "the sweep has 4294967295 cells, more than the bound of 65536",
        ),
        (
            &[
                "--threads",
                wide,
                "--seed",
                wide,
                "--size",
                wide,
                "--ops",
                wide,
                "--structure",
                wide,
                "--alloc",
                wide,
                "--shift",
                wide,
                "--update-pct",
                wide,
            ],
            "the sweep has over 18446744073709551615 cells, more than the bound of 65536",
        ),
    ];
    for (argv, told) in table {
        let out_file =
            std::env::temp_dir().join(format!("cli-sweep-typo-{}.json", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .arg("sweep")
            .args(*argv)
            .arg("--out")
            .arg(&out_file)
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(stderr.contains(told), "{argv:?}: {stderr}");
        assert!(!out_file.exists(), "{argv:?} wrote a matrix");
    }
}

/// One parser reads the stack's flags for every front end: each refusal
/// prints the same `error:` line from `synth`, from `stamp` and from
/// `sweep`, whose cells take the stack's switches too.
#[test]
fn a_refused_stack_flag_is_the_same_message_from_every_front_end() {
    let table: &[(&[&str], &str)] = &[
        (
            &["--backend", "tl2"],
            "bad --backend 'tl2' (valid: etl, norec, htm)",
        ),
        (
            &["--cm", "polite"],
            "bad --cm 'polite' (valid: suicide, backoff, karma, timestamp, serialize, adaptive)",
        ),
        (
            &["--alloc-fault", "sometimes"],
            "invalid alloc-fault plan 'sometimes' (want none, budget:<bytes>, \
             class:<size>:<max-live>, site:<n>, or prob:<seed>:<denom>)",
        ),
        (
            &["--alloc", "hord"],
            "bad --alloc 'hord' (valid: glibc, hoard, tbb, tc)",
        ),
        (
            &["--shift", "64"],
            "bad --shift '64' (a stripe shift is below 64)",
        ),
        (
            &["--ctl", "--write-through"],
            "--write-through requires encounter-time locking, not --ctl",
        ),
        (
            &["--backend", "htm", "--write-through"],
            "--ctl and --write-through apply to the etl backend only, not htm",
        ),
    ];
    let out_file = std::env::temp_dir().join(format!("cli-stack-flag-{}.json", std::process::id()));
    let out = out_file.to_str().unwrap();
    for (flags, message) in table {
        let runs: [(&[&str], String); 3] = [
            (&["synth"], format!("error: {message}\n")),
            (&["stamp", "--app", "genome"], format!("error: {message}\n")),
            (&["sweep", "--out", out], format!("error: {message}\n")),
        ];
        for (front, told) in runs {
            let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
                .args(front)
                .args(*flags)
                .output()
                .expect("run tmstudy");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{front:?} {flags:?}: {stderr}");
            assert_eq!(stderr, told, "{front:?} {flags:?}");
            assert!(out.stdout.is_empty(), "{front:?} {flags:?} ran");
        }
        assert!(!out_file.exists(), "{flags:?}: the sweep wrote a matrix");
    }
}

/// A name has one spelling, its token, matched exactly. On every
/// name-valued flag each token is taken: the run gets as far as the thread
/// count, which every parser reads after the names. The token in another
/// case and each former alias are refused with the valid tokens, exit 2,
/// and nothing runs.
#[test]
fn a_name_is_its_exact_token_on_every_flag() {
    let workloads: Vec<&str> = (SUBCOMMANDS.iter())
        .map(|(name, ..)| *name)
        .filter(|name| sweep_row(name).is_ok())
        .collect();
    let out_file = std::env::temp_dir().join(format!("cli-token-{}.json", std::process::id()));
    let out = out_file.to_str().unwrap();
    /// (front end, flag, its tokens, its former aliases)
    type Row<'a> = (&'a [&'a str], &'a str, Vec<&'a str>, &'a [&'a str]);
    let table: [Row; 6] = [
        (
            &["synth"],
            "alloc",
            AllocatorKind::ALL.map(AllocatorKind::token).to_vec(),
            &["ptmalloc", "tbbmalloc", "tcmalloc", "Glibc", "TCMalloc"],
        ),
        (
            &["synth"],
            "backend",
            BackendKind::ALL.map(BackendKind::name).to_vec(),
            &[],
        ),
        (
            &["synth"],
            "cm",
            CmKind::ALL.map(CmKind::name).to_vec(),
            &[],
        ),
        (
            &["synth"],
            "structure",
            StructureKind::ALL.map(StructureKind::token).to_vec(),
            &["linked-list", "hashset", "tree"],
        ),
        (
            &["stamp"],
            "app",
            AppKind::ALL.map(AppKind::token).to_vec(),
            &["Genome"],
        ),
        (&["sweep", "--out", out], "workload", workloads, &[]),
    ];
    let run = |front: &[&str], flag: &str, v: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .args(front)
            .args([&format!("--{flag}"), v, "--threads", "9"])
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "--{flag} {v}: {stderr}");
        assert!(out.stdout.is_empty(), "--{flag} {v} ran");
        stderr
    };
    for (front, flag, tokens, aliases) in &table {
        let valid = tokens.join(", ");
        let upper: Vec<String> = tokens.iter().map(|t| t.to_uppercase()).collect();
        for token in tokens {
            let stderr = run(front, flag, token);
            assert_eq!(
                stderr, "error: bad --threads '9' (1..=8 simulated cores)\n",
                "--{flag} {token}"
            );
        }
        for v in upper
            .iter()
            .map(String::as_str)
            .chain(aliases.iter().copied())
        {
            let stderr = run(front, flag, v);
            assert_eq!(
                stderr,
                format!("error: bad --{flag} '{v}' (valid: {valid})\n"),
                "--{flag} {v}"
            );
        }
    }
    assert!(!out_file.exists(), "a sweep wrote a matrix");
}

/// A sweep of workload `W` takes exactly `W`'s row of `SUBCOMMANDS` besides
/// its own flags: a flag of any other row is refused, naming the flag and
/// the workload, before any cell runs. Each of these used to be a label
/// on cells whose workload never read it (`threadtest` cells named a
/// backend, STAMP cells a structure).
#[test]
fn a_flag_outside_the_workloads_row_is_refused_by_its_sweep() {
    let out_file = std::env::temp_dir().join(format!("cli-sweep-row-{}.json", std::process::id()));
    let out = out_file.to_str().unwrap();
    let flags = |row: &Subcommand| -> Vec<&str> {
        let (_, values, switches) = *row;
        (values.iter().flat_map(|group| group.iter()))
            .chain(switches.iter())
            .copied()
            .collect()
    };
    let own = flags(row("sweep").expect("sweep has a row"));
    let workloads = SUBCOMMANDS
        .iter()
        .filter(|(name, ..)| sweep_row(name).is_ok());
    let mut refused = 0;
    for w_row in workloads {
        let (workload, ..) = *w_row;
        let takes = flags(w_row);
        let others = SUBCOMMANDS.iter().flat_map(flags);
        let mut foreign: Vec<&str> = others
            .filter(|f| !takes.contains(f) && !own.contains(f))
            .collect();
        foreign.sort_unstable();
        foreign.dedup();
        for flag in foreign {
            let argv = ["sweep", "--workload", workload, &format!("--{flag}"), "1"];
            let run = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
                .args(argv)
                .args(["--out", out])
                .output()
                .expect("run tmstudy");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(2), "{argv:?}: {stderr}");
            assert_eq!(
                stderr,
                format!("error: unknown flag '--{flag}' for tmstudy sweep --workload {workload}\n"),
                "{argv:?}"
            );
            assert!(run.stdout.is_empty(), "{argv:?} ran");
            assert!(!out_file.exists(), "{argv:?} wrote a matrix");
            refused += 1;
        }
    }
    assert!(refused > 0, "no workload row lacks another row's flag");
}

/// The allocator models size their per-thread tables by the machine's
/// cores and `Sim::run` refuses more threads than that: a count outside
/// `1..=cores` is refused as input, before either can panic.
#[test]
fn an_out_of_range_thread_count_is_a_one_line_usage_error() {
    let table: &[(&[&str], &str)] = &[
        (&["synth", "--threads", "9"], "9"),
        (&["synth", "--threads", "0"], "0"),
        (&["synth", "--threads", "300"], "300"),
        (&["stamp", "--threads", "16"], "16"),
        (&["threadtest", "--threads", "9"], "9"),
    ];
    for (argv, threads) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .args(*argv)
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("error: bad --threads '{threads}' (1..=8 simulated cores)\n"),
            "{argv:?}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} ran");
    }
}

/// The environment is input too: a `TM_SIM_EXEC` no executor answers to
/// must be refused up front, not reach the panic in `Sim::new` (exit 101
/// and a backtrace).
#[test]
fn a_bad_tm_sim_exec_is_a_one_line_usage_error_on_every_subcommand() {
    let runs: &[&[&str]] = &[
        &[
            "synth",
            "--structure",
            "list",
            "--alloc",
            "glibc",
            "--threads",
            "2",
        ],
        &["mc", "--quick", "--out", "/dev/null/x.json"],
        &["machine"],
    ];
    for argv in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .args(*argv)
            .env("TM_SIM_EXEC", "bogus")
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert_eq!(
            stderr, "error: bad TM_SIM_EXEC 'bogus' (fibers|threads)\n",
            "{argv:?}"
        );
        assert!(out.stdout.is_empty(), "{argv:?} ran");
    }
}

/// A panic inside the simulated workload is a failed experiment: one
/// `error:` line, exit 1 — and an exit at all. Two panics inside a
/// transaction, whose seven peers spin on ORT stripes the dead transaction
/// still owns (the run used to hang there): a Yada cell that writes
/// through a garbage pointer (the write-back defect, ROADMAP item 1), and
/// one whose allocation budget runs out, which panics with or without
/// that defect. Under both executors, within a wall-clock bound.
#[test]
fn a_workload_panic_is_one_error_line_and_exit_1_not_a_hang() {
    let cells: [(&[&str], &str); 2] = [
        (&["--alloc", "tc", "--seed", "16"], ""),
        (
            &[
                "--alloc",
                "glibc",
                "--seed",
                "1",
                "--alloc-fault",
                "budget:200000",
            ],
            // `malloc(16)`, or `malloc(256)` with the write-back defect
            // fixed.
            "transactional malloc(",
        ),
    ];
    for (cell, message) in cells {
        for exec in ["fibers", "threads"] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
                .args(["stamp", "--app", "yada", "--threads", "8", "--scale", "8"])
                .args(cell)
                .env("TM_SIM_EXEC", exec)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("run tmstudy");
            let deadline = Instant::now() + Duration::from_secs(120);
            while child.try_wait().expect("poll tmstudy").is_none() {
                if Instant::now() > deadline {
                    child.kill().expect("kill tmstudy");
                    panic!("{exec}: tmstudy {cell:?} still runs after 120 s");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let out = child.wait_with_output().expect("collect tmstudy");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{exec} {cell:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{exec} {cell:?}: {stderr}");
            assert!(
                stderr.starts_with("error: the workload panicked: ") && stderr.contains(message),
                "{exec} {cell:?}: {stderr}"
            );
        }
    }
}

/// A request size is input too. One whose rounded size wraps a `u64` was
/// served from the 32 bytes (or the zero-byte mapping) the sum wrapped to,
/// and printed a throughput; it is the allocator's exhaustion, one `error:`
/// line and exit 1, on every model. And a run of no pairs, which takes no
/// virtual time, has a throughput of zero, not `NaN`.
#[test]
fn a_request_no_address_space_holds_is_exhaustion_and_no_pairs_is_zero_throughput() {
    let run = |argv: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .arg("threadtest")
            .args(argv)
            .output()
            .expect("run tmstudy");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stdout, stderr)
    };
    let table = [
        ("glibc", "18446744073709551600"),
        ("hoard", "18446744073709551601"),
        ("tbb", "18446744073709551615"),
        ("tc", "18446744073709551615"),
    ];
    for (alloc, size) in table {
        let argv = ["--alloc", alloc, "--threads", "1", "--size", size];
        let (code, _, stderr) = run(&[&argv[..], &["--pairs", "2"]].concat());
        assert_eq!(code, Some(1), "{alloc}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{alloc}: {stderr}");
        let told = format!("exhausted serving a {size}-byte request");
        assert!(
            stderr.starts_with("error: the workload panicked: ") && stderr.contains(&told),
            "{alloc}: {stderr}"
        );
    }
    let (code, stdout, stderr) = run(&["--alloc", "glibc", "--threads", "2", "--pairs", "0"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("throughput : 0.00 M pairs/s"), "{stdout}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The whole flag surface: any `SUBCOMMANDS` row, a run of flags it
    /// accepts, and one token `parse_flags` must refuse — an unknown flag,
    /// a stray positional, a value flag with no value, or an accepted flag
    /// given a second time — is exit 2 and one stderr line, never a panic
    /// (101) or a signal. The refused token sits between whole flags, so
    /// no argv built here parses and none starts a run.
    #[test]
    fn a_refused_token_on_any_subcommand_is_one_line_and_exit_2(
        row in 0usize..SUBCOMMANDS.len(),
        picks in prop::collection::vec(any::<u64>(), 0..6),
        kind in 0usize..4,
        at in any::<u64>(),
    ) {
        let (cmd, values, switches) = SUBCOMMANDS[row];
        // (name, takes a value) for every flag the row accepts.
        let accepted: Vec<(&str, bool)> = (values.iter().flat_map(|part| part.iter()))
            .map(|&v| (v, true))
            .chain(switches.iter().map(|&s| (s, false)))
            .collect();
        let flag = |name: &str| format!("--{name}");
        // Every value is `1`, but a sweep reads `--workload` before the
        // rest of its argv: it names one.
        let group = |(name, takes_value): (&str, bool)| match (name, takes_value) {
            ("workload", _) => vec![flag(name), "synth".to_string()],
            (_, true) => vec![flag(name), "1".to_string()],
            (_, false) => vec![flag(name)],
        };
        let mut groups: Vec<Vec<String>> = (picks.iter())
            .filter(|_| !accepted.is_empty())
            .map(|p| group(accepted[*p as usize % accepted.len()]))
            .collect();
        let takes_value: Vec<&str> = accepted.iter().filter(|f| f.1).map(|f| f.0).collect();
        let twice = kind == 3 && !accepted.is_empty();
        let refused = match kind {
            1 => vec!["stray".to_string()],
            2 if !takes_value.is_empty() => vec![flag(takes_value[at as usize % takes_value.len()])],
            3 if twice => {
                // The same flag twice, whatever else the picks repeat.
                let repeated = group(accepted[at as usize % accepted.len()]);
                groups.insert(at as usize % (groups.len() + 1), repeated.clone());
                repeated
            }
            _ => vec!["--no-such-flag".to_string()],
        };
        groups.insert(at as usize % (groups.len() + 1), refused);
        let argv: Vec<String> = groups.concat();
        let out = Command::new(env!("CARGO_BIN_EXE_tmstudy"))
            .arg(cmd)
            .args(&argv)
            .output()
            .expect("run tmstudy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        prop_assert_eq!(out.status.code(), Some(2), "{} {:?}: {}", cmd, argv, stderr);
        prop_assert!(
            stderr.lines().count() == 1 && stderr.starts_with("error: "),
            "{} {:?}: {}",
            cmd,
            argv,
            stderr
        );
        prop_assert!(
            !twice || stderr.contains(" given twice"),
            "{} {:?}: {}",
            cmd,
            argv,
            stderr
        );
    }
}
