//! Regenerate exhibits: the one entry point of the exhibit pipeline.
//!
//! The exhibit list comes from `tm_bench::exhibits::REGISTRY` (the single
//! source of truth). Each exhibit is a pure `fn() -> RunReport`; this
//! binary runs it once, writes `results/<name>.json` and prints the
//! rendering `tmstudy report` gives. Execution goes through
//! `tm_obs::sweep`, one cell per exhibit, run one after another: an
//! exhibit that fails (or panics) is recorded as an `error` cell instead
//! of aborting the run, named on a `DEGRADED` line, and makes the exit
//! code 1. The matrix lands in
//! `results/make_all.sweep.json` (gitignored: wall times are
//! host-specific). Nothing in here watches the clock; a caller that wants a
//! bound wraps the run in `timeout`, as `scripts/verify.sh` and CI do.
//!
//! Flags:
//!
//! ```text
//! --only NAMES   run only these exhibits (comma-separated registry names)
//! --out FILE     matrix destination (default results/make_all.sweep.json)
//! --table        print the EXPERIMENTS.md determinism table and exit
//! ```
//!
//! Any other argument, a flag without a value, a value that does not
//! parse, a name that is not in the registry and a bad `TM_SIM_EXEC` or
//! `TM_SCALE` are usage errors: one line on stderr, exit 2.
//!
//! Host time per exhibit is each cell's `wall_ms` in the matrix; tracked
//! performance numbers come from `bash benchmark/run.sh`.

use tm_bench::exhibits;
use tm_obs::spec::parse_flags;
use tm_obs::sweep::{run_spec, CellStatus, SweepSpec};

fn usage_error(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    // The environment is input too: refuse a bad value here, before an
    // exhibit silently ignores it or panics on it.
    if let Err(bad) = tm_sim::check_exec_env().and(tm_bench::scale_from_env()) {
        usage_error(bad);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags("make_all", &[&["only", "out"]], &["table"], &args)
        .unwrap_or_else(|bad| usage_error(bad));
    if flags.contains_key("table") {
        print!("{}", exhibits::experiments_table());
        return;
    }
    let out = flags
        .get("out")
        .map_or("results/make_all.sweep.json", String::as_str);

    let registry: Vec<&str> = exhibits::REGISTRY.iter().map(|e| e.name).collect();
    let names: Vec<&str> = flags
        .get("only")
        .map_or(registry.clone(), |list| list.split(',').collect());
    if let Some(unknown) = names.iter().find(|n| !registry.contains(n)) {
        usage_error(format!(
            "unknown exhibit '{unknown}' (registry: {})",
            registry.join(", ")
        ));
    }
    let spec = SweepSpec::new("make_all").axis("exhibit", names);
    let report = run_spec(&spec, &|cfg| {
        let name = &cfg.iter().find(|(k, _)| k == "exhibit").unwrap().1;
        eprintln!("==> {name}");
        let report = exhibits::run_by_name(name)?;
        let path = format!("results/{name}.json");
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, report.to_json_string()))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        print!("{}", report.render());
        Ok(vec![])
    })
    .meta("workload", "exhibits")
    .meta("scale", tm_bench::scale());
    let written = std::path::Path::new(out)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, report.to_json_string()));
    let degraded = report.degraded();
    for cell in report.cells.iter().filter(|c| c.status != CellStatus::Ok) {
        eprintln!(
            "DEGRADED [{}]: {}: {}",
            cell.key(),
            cell.status.name(),
            cell.error.as_deref().unwrap_or("-")
        );
    }
    if let Err(e) = written {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
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
