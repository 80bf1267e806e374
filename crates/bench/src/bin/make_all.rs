//! Regenerate exhibits: the one entry point of the exhibit pipeline.
//!
//! The exhibit list comes from `tm_bench::exhibits::REGISTRY` (the single
//! source of truth). Each exhibit is a pure `fn() -> RunReport`; this
//! binary runs it, writes `results/<name>.json` and prints the rendering
//! `tmstudy report` gives. Execution goes through the `tm-sweep` worker
//! pool: per-exhibit timeout, bounded retry, and graceful degradation — a
//! hung or failing exhibit is recorded in the matrix instead of aborting
//! the run. The matrix lands in `results/make_all.sweep.json` (gitignored:
//! wall times are host-specific).
//!
//! Flags:
//!
//! ```text
//! --jobs N       pool width (default 1; exhibits are multi-threaded)
//! --timeout-s N  per-exhibit budget in seconds (default 600)
//! --retries N    extra attempts per failed exhibit (default 1)
//! --only NAMES   run only these exhibits (comma-separated registry names)
//! --out FILE     matrix destination (default results/make_all.sweep.json)
//! --table        print the EXPERIMENTS.md determinism table and exit
//! ```
//!
//! A flag without a value, a value that does not parse, a name that is
//! not in the registry and a bad `TM_SIM_EXEC` or `TM_SCALE` are usage
//! errors: one line on stderr, exit 2.
//!
//! Host time per exhibit is each cell's `wall_ms` in the matrix; tracked
//! performance numbers come from `bash benchmark/run.sh`.
//!
//! `TM_SWEEP_FAULT=timeout:<substr>` / `error:<substr>` (with an optional
//! `:<n>` suffix to fail only the first `n` attempts) injects a fault into
//! matching cells (cell keys look like `exhibit=fig7`) to exercise the
//! degradation and retry paths end-to-end.

use std::sync::Arc;
use std::time::Duration;

use tm_bench::exhibits;
use tm_sweep::{run_spec, CellRunner, Fault, Policy, SweepSpec};

fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => usage_error(format!("{name} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(format!("bad {name} '{v}'")))
    })
}

fn main() {
    // The environment is input too: refuse a bad value here, before an
    // exhibit silently ignores it or panics on it.
    if let Err(bad) = tm_sim::check_exec_env().and(tm_bench::scale_from_env()) {
        usage_error(bad);
    }
    let fault = Fault::from_env().unwrap_or_else(|bad| usage_error(bad));
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--table") {
        print!("{}", exhibits::experiments_table());
        return;
    }
    let jobs: usize = parsed(&args, "--jobs", 1);
    let timeout_s: u64 = parsed(&args, "--timeout-s", 600);
    let retries: u32 = parsed(&args, "--retries", 1);
    let out = flag(&args, "--out").unwrap_or_else(|| "results/make_all.sweep.json".into());

    let registry: Vec<&str> = exhibits::REGISTRY.iter().map(|e| e.name).collect();
    let only = flag(&args, "--only");
    let names: Vec<&str> = only
        .as_deref()
        .map_or(registry.clone(), |list| list.split(',').collect());
    if let Some(unknown) = names.iter().find(|n| !registry.contains(n)) {
        usage_error(format!(
            "unknown exhibit '{unknown}' (registry: {})",
            registry.join(", ")
        ));
    }
    let spec = SweepSpec::new("make_all").axis("exhibit", names);
    let policy = Policy {
        workers: jobs,
        timeout: Some(Duration::from_secs(timeout_s)),
        retries,
        fault,
        ..Policy::default()
    };
    let runner: Arc<CellRunner> = Arc::new(|cfg| {
        let name = &cfg.iter().find(|(k, _)| k == "exhibit").unwrap().1;
        eprintln!("==> {name}");
        let report = exhibits::run_by_name(name)?;
        let path = format!("results/{name}.json");
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, report.to_json_string()))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        print!("{}", report.render());
        Ok(vec![])
    });
    let report = run_spec(&spec, runner, &policy)
        .meta("workload", "exhibits")
        .meta("scale", tm_bench::scale());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, report.to_json_string()).expect("write sweep matrix");
    let degraded = report.degraded();
    for cell in report
        .cells
        .iter()
        .filter(|c| c.status != tm_sweep::CellStatus::Ok)
    {
        eprintln!(
            "DEGRADED [{}]: {} after {} attempt(s): {}",
            cell.key(),
            cell.status.name(),
            cell.attempts,
            cell.error.as_deref().unwrap_or("-")
        );
    }
    eprintln!(
        "{}/{} exhibits regenerated under results/ (matrix: {out})",
        report.cells.len() - degraded,
        report.cells.len()
    );
    if degraded > 0 {
        std::process::exit(1);
    }
}
