//! `tm-benchmark` — the repository's benchmark (schema `tm-bench/v2`).
//!
//! Two ways in, both through `benchmark/run.sh`:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints one JSON object as the last line
//!   of standard output (the driver's contract).
//! * Without `--workload` it runs every workload, each in a fresh process
//!   of its own, prints every metric by name and writes one `tm-bench/v2`
//!   document to `benchmark/out/`. `--trace` adds the traced runs,
//!   `--agree` runs everything twice and compares, `--smoke` runs one
//!   short pass each, `--list` prints the catalogue and runs nothing.
//!
//! Exit codes: 0 all correct, 1 a correctness check or `--agree` failed,
//! 2 bad usage or a forbidden environment variable.

mod calib;
mod catalog;
mod host;
mod instrument;
mod probes;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use tm_obs::json::Json;

use catalog::{END_TO_END, RUN_SECONDS};
use run::{RunArgs, RunResult};
use workloads::WORKLOADS;

const DEFAULT_SEED: u64 = 0x5eed;
const USAGE: &str = "usage: benchmark/run.sh [--workload <name> --trace <0|1>] [--seed <n>] \
                     [--seconds <s>] [--trace] [--agree] [--smoke] [--list]";

/// Where the benchmark may write: `benchmark/out/`, and nowhere else.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(file: &str, text: &str) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    std::fs::write(dir.join(file), text).expect("write under benchmark/out");
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    smoke: bool,
    list: bool,
    benchmark_json: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        agree: false,
        smoke: false,
        list: false,
        benchmark_json: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                cli.seed = parsed.map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=60.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds '{v}' (0 to 60)"))?;
            }
            // `--trace 0|1` for the driver, a bare `--trace` by hand.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--agree" => cli.agree = true,
            "--smoke" => cli.smoke = true,
            "--list" => cli.list = true,
            "--benchmark-json" => cli.benchmark_json = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cli.smoke {
        cli.seconds = 0.0;
    }
    Ok(cli)
}

/// Driver mode: one workload, here, now.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let Some(result) = run::run(&args) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "error: unknown workload '{workload}' (one of: {})",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    print_rows(workload, &result);
    if cli.trace {
        let mut doc = span::to_json(&result.spans);
        if let Json::Obj(pairs) = &mut doc {
            pairs.insert(1, ("workload".into(), Json::str(workload)));
        }
        write_out(&format!("trace.{workload}.json"), &doc.emit_pretty());
        println!("self time by span name (top 12):");
        for (name, ns) in span::self_time_by_name(&result.spans).iter().take(12) {
            println!("  {:>10.3} ms  {name}", *ns as f64 / 1e6);
        }
    }
    for note in &result.notes {
        println!("FAILED: {note}");
    }
    println!("{}", result.to_row_json().emit());
    println!("{}", result.to_driver_json().emit());
    ExitCode::from(exit_status(result.correct()))
}

/// 0 when every correctness check passed, 1 when one failed.
fn exit_status(correct: bool) -> u8 {
    u8::from(!correct)
}

/// Every metric of a run by name, with unit, direction and bound.
fn print_rows(workload: &str, r: &RunResult) {
    println!(
        "{workload}: failed_share {:.6} ({} of {} cells failed; bound 0)",
        r.failed_share(),
        r.failed,
        r.attempted
    );
    let layers = catalog::per_layer();
    for m in &r.metrics {
        let (better, bound) = match END_TO_END.iter().find(|e| e.name == m.name) {
            Some(e) => (e.better, format!("bound {:.0} %", e.bound * 100.0)),
            None => (
                layers
                    .iter()
                    .find(|l| l.name == m.name)
                    .map_or("", |l| l.better),
                String::new(),
            ),
        };
        let s = &m.samples;
        let rounds = if s.n > 1 {
            format!(
                "n={} median {:.6} q1 {:.6} q3 {:.6} (spread {:.1} %)",
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.spread() * 100.0
            )
        } else {
            String::new()
        };
        println!(
            "  {:<32} {:>16.6} {:<6} {better:<6} {bound:<11} {rounds}",
            m.name, m.value, m.unit
        );
    }
}

/// Run one workload in a fresh process and parse the row it prints on its
/// second-to-last line.
fn spawn_one(cli: &Cli, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so nothing outlives this call.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let row = lines.len().checked_sub(2).map(|i| lines[i]).unwrap_or("");
    let row = Json::parse(row).map_err(|e| {
        format!(
            "{workload} printed no result row ({e}); exit {:?}\n{}{}",
            out.status.code(),
            stdout,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    lines.truncate(lines.len() - 2);
    for l in lines {
        println!("{l}");
    }
    Ok(row)
}

/// One full set of runs: every workload untraced, then (with `--trace`)
/// traced. Returns the `tm-bench/v2` document.
fn run_all(cli: &Cli) -> Result<Json, String> {
    let mut rows = Vec::new();
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        let mut row = vec![
            ("name".to_string(), Json::str(*name)),
            ("end_to_end".to_string(), spawn_one(cli, name, false)?),
        ];
        // A smoke run traces the first workload only: the probes are the
        // same under every workload, and once is enough to see them run.
        if cli.trace || (cli.smoke && i == 0) {
            row.push(("per_layer".to_string(), spawn_one(cli, name, true)?));
        }
        rows.push(Json::Obj(row));
    }
    let commit = Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    Ok(Json::Obj(vec![
        ("schema".into(), Json::str("tm-bench/v2")),
        ("commit".into(), Json::str(commit)),
        ("seed".into(), Json::u64(cli.seed)),
        ("seconds".into(), Json::Num(cli.seconds)),
        ("host".into(), host::describe()),
        ("workloads".into(), Json::Arr(rows)),
    ]))
}

/// Whether every row of `doc` is correct.
fn all_correct(doc: &Json) -> bool {
    let rows = doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    rows.iter().all(|w| {
        ["end_to_end", "per_layer"]
            .iter()
            .filter_map(|k| w.get(k))
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
    })
}

/// Compare two documents of the same commit: each end-to-end metric within
/// its bound, counts and failures exactly. Returns the disagreements.
fn disagreements(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let rows = |d: &Json| {
        d.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    for (wa, wb) in rows(a).iter().zip(rows(b).iter()) {
        let workload = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        for section in ["end_to_end", "per_layer"] {
            let (Some(ra), Some(rb)) = (wa.get(section), wb.get(section)) else {
                continue;
            };
            // `attempted` grows with the passes a run fits in and may differ.
            if ra.get("failed") != rb.get("failed") {
                out.push(format!("{workload}: failed cells differ"));
            }
            let Some(Json::Obj(metrics)) = ra.get("metrics") else {
                continue;
            };
            for (name, ma) in metrics {
                let value =
                    |m: Option<&Json>| m.and_then(|m| m.get("value")).and_then(Json::as_f64);
                let (Some(va), Some(vb)) = (
                    value(Some(ma)),
                    value(rb.get("metrics").and_then(|m| m.get(name))),
                ) else {
                    out.push(format!("{workload}: {name} missing from one run"));
                    continue;
                };
                let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
                let bound = match END_TO_END.iter().find(|m| m.name == name) {
                    // Deterministic at a fixed seed.
                    Some(m) if m.name == "virt_ms" || m.name == "ops" => 0.0,
                    Some(m) => m.bound,
                    None if unit == "count" => 0.0,
                    // Per-layer timings carry no bound.
                    None => continue,
                };
                let off = if va == vb {
                    0.0
                } else {
                    (va - vb).abs() / va.abs().min(vb.abs())
                };
                if off > bound {
                    out.push(format!(
                        "{workload}: {name} {va} vs {vb} ({:.1} % apart, bound {:.0} %)",
                        off * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print!("{}", catalog::render());
        return ExitCode::SUCCESS;
    }
    if cli.benchmark_json {
        print!("{}", catalog::benchmark_json().emit_pretty());
        return ExitCode::SUCCESS;
    }
    if let Some(var) = host::forbidden_env_set() {
        eprintln!(
            "error: {var} is set; it changes what the stack under test executes, \
             so nothing measured now would be comparable (unset {})",
            host::FORBIDDEN_ENV.join(", ")
        );
        return ExitCode::from(2);
    }
    host::fix_address_space();
    if let Some(workload) = &cli.workload {
        return run_one(&cli, workload);
    }

    let first = match run_all(&cli) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    write_out("bench.json", &first.emit_pretty());
    println!("tm-bench/v2 document written to benchmark/out/bench.json");
    let mut ok = all_correct(&first);
    if cli.agree {
        let second = match run_all(&cli) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        };
        write_out("bench.second.json", &second.emit_pretty());
        ok &= all_correct(&second);
        let diffs = disagreements(&first, &second);
        for d in &diffs {
            println!("DISAGREE: {d}");
        }
        println!(
            "--agree: two sets of runs {}",
            if diffs.is_empty() {
                "agree within every bound"
            } else {
                "disagree"
            }
        );
        ok &= diffs.is_empty();
    }
    if !ok {
        println!("FAILED: a correctness check failed (see above)");
    }
    ExitCode::from(exit_status(ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_hand_forms_of_trace_both_parse() {
        let c = cli(&[
            "--workload",
            "synth-matrix",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("synth-matrix"), 7, 3.0, true)
        );
        assert!(!cli(&["--trace", "0"]).unwrap().trace);
        assert!(cli(&["--trace", "--agree"]).unwrap().agree);
        assert!(cli(&["--trace"]).unwrap().trace);
        assert_eq!(cli(&["--seed", "0x5eed"]).unwrap().seed, DEFAULT_SEED);
        assert_eq!(cli(&["--smoke"]).unwrap().seconds, 0.0);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "61"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    fn doc_of(host_s: f64, ops: u64, failed: u64, attempted: u64) -> Json {
        let metric = |v: f64, unit: &str| {
            Json::Obj(vec![
                ("value".into(), Json::Num(v)),
                ("unit".into(), Json::str(unit)),
            ])
        };
        Json::Obj(vec![(
            "workloads".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::str("w")),
                (
                    "end_to_end".into(),
                    Json::Obj(vec![
                        ("correct".into(), Json::Bool(failed == 0)),
                        ("attempted".into(), Json::u64(attempted)),
                        ("failed".into(), Json::u64(failed)),
                        (
                            "metrics".into(),
                            Json::Obj(vec![
                                ("host_s".into(), metric(host_s, "s")),
                                ("ops".into(), metric(ops as f64, "count")),
                            ]),
                        ),
                    ]),
                ),
            ])]),
        )])
    }

    fn doc(host_s: f64, ops: u64, failed: u64) -> Json {
        doc_of(host_s, ops, failed, 10)
    }

    #[test]
    fn agree_allows_the_bound_on_timings_and_nothing_on_counts() {
        assert!(disagreements(&doc(1.0, 100, 0), &doc(1.09, 100, 0)).is_empty());
        assert_eq!(disagreements(&doc(1.0, 100, 0), &doc(1.3, 100, 0)).len(), 1);
        assert_eq!(disagreements(&doc(1.0, 100, 0), &doc(1.0, 101, 0)).len(), 1);
        assert_eq!(disagreements(&doc(1.0, 100, 0), &doc(1.0, 100, 1)).len(), 1);
        // One more pass fitted in: more cells checked, nothing to disagree on.
        assert!(disagreements(&doc(1.0, 100, 0), &doc_of(1.0, 100, 0, 20)).is_empty());
    }

    #[test]
    fn a_failed_cell_makes_the_document_incorrect_and_the_exit_non_zero() {
        assert!(all_correct(&doc(1.0, 100, 0)));
        assert!(!all_correct(&doc(1.0, 100, 3)));
        assert_eq!(exit_status(all_correct(&doc(1.0, 100, 0))), 0);
        assert_eq!(exit_status(all_correct(&doc(1.0, 100, 3))), 1);
    }
}
