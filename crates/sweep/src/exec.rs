//! The cell executor: a queue of pure cells, each run once.
//!
//! [`run_cells`] drains a queue of cell configurations on `workers`
//! threads. A cell is a deterministic function of its configuration, so it
//! runs exactly once, inline on the worker that took it, under one
//! `catch_unwind`: metrics make the cell `ok`; an `Err` or a panic makes it
//! `error` with the message, and the rest of the matrix still runs. There
//! is no wall-clock budget in here — what ends a run that would not end is
//! in DESIGN.md §3.1.
//!
//! Results are collected by queue index, so the output cell order equals
//! the input order no matter how the pool schedules.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tm_obs::{CellStatus, SweepCell, SweepReport};

/// A cell runner: maps one cell configuration to named scalar metrics, or
/// an error message. Must be callable from any pool thread.
pub type CellRunner =
    dyn Fn(&[(String, String)]) -> Result<Vec<(String, f64)>, String> + Send + Sync;

/// Execution policy for one sweep.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Pool width. Clamped to at least 1.
    pub workers: usize,
}

impl Default for Policy {
    fn default() -> Self {
        Policy { workers: 4 }
    }
}

/// Execute `cells` under `policy` and collect the matrix. Cell order in
/// the report equals the input order. The report's `axes` are left empty —
/// [`crate::run_spec`] fills them from the spec.
pub fn run_cells(
    name: &str,
    cells: Vec<Vec<(String, String)>>,
    runner: Arc<CellRunner>,
    policy: &Policy,
) -> SweepReport {
    let started = Instant::now();
    let total = cells.len();
    let results: Mutex<Vec<Option<SweepCell>>> = Mutex::new(vec![None; total]);
    let next = AtomicUsize::new(0);
    let workers = policy.workers.max(1).min(total.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = cells.get(idx) else { return };
                let cell = run_one_cell(config, &*runner);
                results.lock().unwrap()[idx] = Some(cell);
            });
        }
    });
    let mut report = SweepReport::new(name);
    report.cells = (results.into_inner().unwrap().into_iter())
        .map(|c| c.expect("worker pool completed every cell"))
        .collect();
    report
        .meta("cells", total)
        .meta("workers", workers)
        .meta("total_wall_ms", started.elapsed().as_millis())
}

/// Run one cell, once: the runner's verdict, or its panic as an error.
fn run_one_cell(config: &[(String, String)], runner: &CellRunner) -> SweepCell {
    let started = Instant::now();
    let (status, error, metrics) = match catch_unwind(AssertUnwindSafe(|| runner(config))) {
        Ok(Ok(metrics)) => (CellStatus::Ok, None, metrics),
        Ok(Err(e)) => (CellStatus::Error, Some(e), vec![]),
        Err(panic) => {
            let msg = tm_obs::panic_message(panic.as_ref());
            (CellStatus::Error, Some(format!("panic: {msg}")), vec![])
        }
    };
    SweepCell {
        config: config.to_vec(),
        status,
        wall_ms: started.elapsed().as_millis() as u64,
        error,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn results_keep_queue_order_under_parallelism() {
        let cells: Vec<_> = (0..16).map(|i| cfg(&[("i", &i.to_string())])).collect();
        let runner: Arc<CellRunner> = Arc::new(|c| {
            let i: u64 = c[0].1.parse().unwrap();
            // Earlier cells sleep longer, so completion order is reversed.
            std::thread::sleep(Duration::from_millis(8u64.saturating_sub(i / 2)));
            Ok(vec![("i".into(), i as f64)])
        });
        let report = run_cells("order", cells, runner, &Policy { workers: 8 });
        let order: Vec<f64> = report.cells.iter().map(|c| c.metrics[0].1).collect();
        assert_eq!(order, (0..16).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(report.degraded(), 0);
    }

    type Verdict = Result<Vec<(String, f64)>, String>;

    /// One failing cell between two healthy ones, `fail` deciding how it
    /// fails; returns the report and how often the failing cell was run.
    fn run_with_one_failure(fail: fn() -> Verdict) -> (SweepReport, usize) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let runner: Arc<CellRunner> = Arc::new(move |c| {
            if c[0].1 == "bad" {
                seen.fetch_add(1, Ordering::SeqCst);
                return fail();
            }
            Ok(vec![("v".into(), 1.0)])
        });
        let cells = ["ok", "bad", "ok"].map(|mode| cfg(&[("mode", mode)]));
        let report = run_cells("fails", cells.to_vec(), runner, &Policy { workers: 2 });
        (report, calls.load(Ordering::SeqCst))
    }

    #[test]
    fn err_from_the_runner_is_an_error_cell() {
        let (report, _) = run_with_one_failure(|| Err("boom".into()));
        let cell = &report.cells[1];
        assert_eq!(cell.status, CellStatus::Error);
        assert_eq!(cell.error.as_deref(), Some("boom"));
        assert!(cell.metrics.is_empty());
        assert_eq!(report.degraded(), 1);
        // The degraded matrix still round-trips through the v1 schema.
        let parsed = SweepReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn panicking_runner_degrades_to_error() {
        let (report, _) = run_with_one_failure(|| panic!("cell exploded"));
        let cell = &report.cells[1];
        assert_eq!(cell.status, CellStatus::Error);
        assert_eq!(cell.error.as_deref(), Some("panic: cell exploded"));
        // The pool outlives the panic: both neighbours ran.
        assert_eq!(report.cells[0].status, CellStatus::Ok);
        assert_eq!(report.cells[2].status, CellStatus::Ok);
        assert_eq!(report.degraded(), 1);
    }

    #[test]
    fn a_failing_cell_runs_exactly_once() {
        assert_eq!(run_with_one_failure(|| Err("boom".into())).1, 1);
        assert_eq!(run_with_one_failure(|| panic!("cell exploded")).1, 1);
    }
}
