//! Regenerate every exhibit as one sweep over the registry.
//!
//! The exhibit list comes from `tm_bench::exhibits::REGISTRY` (the single
//! source of truth), and execution goes through the `tm-sweep` worker pool:
//! per-exhibit timeout, bounded retry, and graceful degradation — a hung or
//! failing exhibit is recorded in the matrix instead of aborting the run.
//! The matrix lands in `results/make_all.sweep.json` (gitignored: wall
//! times are host-specific).
//!
//! Flags:
//!
//! ```text
//! --jobs N       pool width (default 1; exhibits are multi-threaded)
//! --timeout-s N  per-exhibit budget in seconds (default 600)
//! --retries N    extra attempts per failed exhibit (default 1)
//! --only SUBSTR  run only exhibits whose name contains SUBSTR
//! --out FILE     matrix destination (default results/make_all.sweep.json)
//! --table        print the EXPERIMENTS.md determinism table and exit
//! ```
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

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--table") {
        print!("{}", exhibits::experiments_table());
        return;
    }
    let jobs: usize = flag(&args, "--jobs").map_or(1, |v| v.parse().expect("--jobs"));
    let timeout_s: u64 =
        flag(&args, "--timeout-s").map_or(600, |v| v.parse().expect("--timeout-s"));
    let retries: u32 = flag(&args, "--retries").map_or(1, |v| v.parse().expect("--retries"));
    let only = flag(&args, "--only");
    let out = flag(&args, "--out").unwrap_or_else(|| "results/make_all.sweep.json".into());

    let names: Vec<String> = exhibits::REGISTRY
        .iter()
        .map(|e| e.name.to_string())
        .filter(|n| only.as_deref().is_none_or(|s| n.contains(s)))
        .collect();
    if names.is_empty() {
        eprintln!("--only {:?} matches no exhibit", only.unwrap_or_default());
        std::process::exit(2);
    }
    let spec = SweepSpec::new("make_all").axis("exhibit", names);
    let policy = Policy {
        workers: jobs,
        timeout: Some(Duration::from_secs(timeout_s)),
        retries,
        fault: Fault::from_env(),
        ..Policy::default()
    };
    let runner: Arc<CellRunner> = Arc::new(|cfg| {
        let name = &cfg.iter().find(|(k, _)| k == "exhibit").unwrap().1;
        eprintln!("==> {name}");
        exhibits::run_by_name(name)?;
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
