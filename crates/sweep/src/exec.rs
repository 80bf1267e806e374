//! The cell executor: worker pool, per-cell timeout, bounded retry.
//!
//! [`run_cells`] drains a queue of cell configurations on `workers`
//! threads. Each cell attempt runs the caller's runner closure; under a
//! timeout the attempt runs on a watchdog-monitored thread, and an attempt
//! that outlives its budget is *abandoned* (the thread is detached, its
//! eventual result discarded) rather than joined — the matrix records the
//! cell as `timeout` and the pool moves on. Runner panics are caught and
//! degrade the cell to `error`. Failed attempts are retried up to
//! `retries` extra times with exponential backoff; the final status and
//! the total attempt count land in the cell's matrix entry.
//!
//! Results are collected by queue index, so the output cell order equals
//! the input order no matter how the pool schedules.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tm_obs::sweep::key_of;
use tm_obs::{CellStatus, SweepCell, SweepReport};

/// A cell runner: maps one cell configuration to named scalar metrics, or
/// an error message. Must be callable from any pool thread.
pub type CellRunner =
    dyn Fn(&[(String, String)]) -> Result<Vec<(String, f64)>, String> + Send + Sync;

/// What kind of failure a [`Fault`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt hangs past any timeout (and errors if none is set).
    Timeout,
    /// The attempt returns an injected error.
    Error,
}

/// A deliberate fault, for exercising the degradation path: attempts of
/// every cell whose [`key`](tm_obs::SweepCell::key) contains `needle` fail
/// with `kind` — every attempt by default, or only the first `n` when a
/// count is given (so the retry path to recovery is exercisable too).
/// Parsed from `TM_SWEEP_FAULT=<timeout|error>:<needle>[:<n>]` by
/// [`Fault::from_env`], or constructed directly in tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Failure mode to inject.
    pub kind: FaultKind,
    /// Substring of the cell key selecting which cells fail.
    pub needle: String,
    /// Fail only the first `n` attempts of each matching cell, then let
    /// the real runner through; `None` fails every attempt.
    pub first_n: Option<u32>,
}

impl Fault {
    /// Read the `TM_SWEEP_FAULT` environment variable: `Ok(None)` when it
    /// is unset, the fault when it parses (see [`Fault::parse`] for the
    /// format), and a message for the front end to report as a usage error
    /// when it is set to anything else — a fault plan that is silently
    /// dropped would let a degradation test pass on a healthy run.
    pub fn from_env() -> Result<Option<Fault>, String> {
        let raw = match std::env::var("TM_SWEEP_FAULT") {
            Ok(raw) => raw,
            Err(std::env::VarError::NotPresent) => return Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        };
        match Fault::parse(&raw) {
            Some(fault) => Ok(Some(fault)),
            None => Err(format!(
                "bad TM_SWEEP_FAULT '{raw}' (<timeout|error>:<needle>[:<n>])"
            )),
        }
    }

    /// Parse `<timeout|error>:<needle>[:<n>]`. A trailing `:`-separated
    /// integer is the fail-first-`n` count; without one the fault is
    /// permanent (a colon whose tail is not an integer belongs to the
    /// needle — [`tm_obs::spec::trailing_count`]'s rule). `None` on
    /// malformed input. The tokenizing lives in [`tm_obs::spec`], shared
    /// with the allocator fault-plan grammar (`--alloc-fault`).
    pub fn parse(raw: &str) -> Option<Fault> {
        let (kind, rest) = tm_obs::spec::kind(raw)?;
        let kind = match kind {
            "timeout" => FaultKind::Timeout,
            "error" => FaultKind::Error,
            _ => return None,
        };
        let (needle, first_n) = tm_obs::spec::trailing_count(rest);
        Some(Fault {
            kind,
            needle: needle.to_string(),
            first_n,
        })
    }

    fn matches(&self, key: &str, attempt_no: u32) -> bool {
        key.contains(&self.needle) && self.first_n.is_none_or(|n| attempt_no <= n)
    }
}

/// Execution policy for one sweep.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Pool width. Clamped to at least 1.
    pub workers: usize,
    /// Per-attempt wall-clock budget; `None` = unbounded (attempts run
    /// inline on the worker, nothing is ever abandoned).
    pub timeout: Option<Duration>,
    /// Extra attempts after the first failure (0 = fail fast).
    pub retries: u32,
    /// Backoff before retry `n` is `backoff << (n - 1)`, capped at 5 s.
    pub backoff: Duration,
    /// Optional injected fault (see [`Fault`]); checked before the runner
    /// on every attempt.
    pub fault: Option<Fault>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            workers: 4,
            timeout: None,
            retries: 1,
            backoff: Duration::from_millis(50),
            fault: None,
        }
    }
}

const BACKOFF_CAP: Duration = Duration::from_secs(5);

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
    let results: Mutex<Vec<Option<SweepCell>>> = Mutex::new((0..total).map(|_| None).collect());
    let next: Mutex<usize> = Mutex::new(0);
    let cells = Arc::new(cells);
    let workers = policy.workers.max(1).min(total.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let runner = Arc::clone(&runner);
            let cells = Arc::clone(&cells);
            let (results, next) = (&results, &next);
            scope.spawn(move || loop {
                let idx = {
                    let mut n = next.lock().unwrap();
                    if *n >= cells.len() {
                        return;
                    }
                    *n += 1;
                    *n - 1
                };
                let cell = run_one_cell(&cells[idx], &runner, policy);
                results.lock().unwrap()[idx] = Some(cell);
            });
        }
    });
    let cells = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|c| c.expect("worker pool completed every cell"))
        .collect();
    let mut report = SweepReport::new(name);
    report.cells = cells;
    report
        .meta("cells", total)
        .meta("workers", workers)
        .meta(
            "timeout_ms",
            policy
                .timeout
                .map(|t| t.as_millis().to_string())
                .unwrap_or_else(|| "none".into()),
        )
        .meta("retries", policy.retries)
        .meta("total_wall_ms", started.elapsed().as_millis())
}

/// Run one cell to completion: attempts with backoff until success or the
/// retry budget is spent.
fn run_one_cell(
    config: &[(String, String)],
    runner: &Arc<CellRunner>,
    policy: &Policy,
) -> SweepCell {
    let key = key_of(config);
    let started = Instant::now();
    let mut attempts = 0u32;
    let mut last: (CellStatus, Option<String>, Vec<(String, f64)>) =
        (CellStatus::Error, Some("never attempted".into()), vec![]);
    while attempts <= policy.retries {
        if attempts > 0 {
            let shift = (attempts - 1).min(16);
            std::thread::sleep((policy.backoff * 2u32.pow(shift)).min(BACKOFF_CAP));
        }
        attempts += 1;
        last = attempt(config, &key, runner, policy, attempts);
        if last.0 == CellStatus::Ok {
            break;
        }
    }
    SweepCell {
        config: config.to_vec(),
        status: last.0,
        attempts,
        wall_ms: started.elapsed().as_millis() as u64,
        error: last.1,
        metrics: last.2,
    }
}

/// One attempt: fault check, then the runner — inline when unbounded,
/// watchdog-monitored when a timeout is set.
fn attempt(
    config: &[(String, String)],
    key: &str,
    runner: &Arc<CellRunner>,
    policy: &Policy,
    attempt_no: u32,
) -> (CellStatus, Option<String>, Vec<(String, f64)>) {
    if let Some(fault) = policy.fault.as_ref().filter(|f| f.matches(key, attempt_no)) {
        match fault.kind {
            FaultKind::Error => {
                return (
                    CellStatus::Error,
                    Some("injected fault (TM_SWEEP_FAULT)".into()),
                    vec![],
                )
            }
            FaultKind::Timeout => match policy.timeout {
                Some(t) => {
                    // Simulate a hang: outlive the budget, then report as
                    // the watchdog would. Sleeping here (instead of inside
                    // a detached runner thread) keeps the fault leak-free.
                    std::thread::sleep(t + Duration::from_millis(10));
                    return (
                        CellStatus::Timeout,
                        Some(format!(
                            "injected hang exceeded {} ms budget",
                            t.as_millis()
                        )),
                        vec![],
                    );
                }
                None => {
                    return (
                        CellStatus::Error,
                        Some("injected hang with no timeout configured".into()),
                        vec![],
                    )
                }
            },
        }
    }
    match policy.timeout {
        None => finish(catch_unwind(AssertUnwindSafe(|| runner(config)))),
        Some(timeout) => {
            let (tx, rx) = mpsc::channel();
            let runner = Arc::clone(runner);
            let config = config.to_vec();
            let spawned = std::thread::Builder::new()
                .name(format!("sweep-cell {key}"))
                .spawn(move || {
                    let _ = tx.send(catch_unwind(AssertUnwindSafe(|| runner(&config))));
                });
            match spawned {
                Err(e) => (
                    CellStatus::Error,
                    Some(format!("spawn failed: {e}")),
                    vec![],
                ),
                Ok(_handle) => match rx.recv_timeout(timeout) {
                    Ok(outcome) => finish(outcome),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Abandon the attempt thread; it is detached and
                        // its send will land in a closed channel.
                        (
                            CellStatus::Timeout,
                            Some(format!("exceeded {} ms budget", timeout.as_millis())),
                            vec![],
                        )
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => (
                        CellStatus::Error,
                        Some("attempt thread died without reporting".into()),
                        vec![],
                    ),
                },
            }
        }
    }
}

fn finish(
    outcome: std::thread::Result<Result<Vec<(String, f64)>, String>>,
) -> (CellStatus, Option<String>, Vec<(String, f64)>) {
    match outcome {
        Ok(Ok(metrics)) => (CellStatus::Ok, None, metrics),
        Ok(Err(e)) => (CellStatus::Error, Some(e), vec![]),
        Err(panic) => {
            let msg = tm_obs::panic_message(panic.as_ref());
            (CellStatus::Error, Some(format!("panic: {msg}")), vec![])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cfg(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn quick_policy() -> Policy {
        Policy {
            workers: 2,
            timeout: Some(Duration::from_millis(200)),
            retries: 1,
            backoff: Duration::from_millis(1),
            fault: None,
        }
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
        let report = run_cells(
            "order",
            cells,
            runner,
            &Policy {
                workers: 8,
                ..quick_policy()
            },
        );
        let order: Vec<f64> = report.cells.iter().map(|c| c.metrics[0].1).collect();
        assert_eq!(order, (0..16).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(report.degraded(), 0);
    }

    #[test]
    fn error_cell_retries_then_degrades() {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let runner: Arc<CellRunner> = Arc::new(move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
            Err("boom".into())
        });
        let report = run_cells(
            "errs",
            vec![cfg(&[("x", "1")])],
            runner,
            &Policy {
                retries: 2,
                ..quick_policy()
            },
        );
        assert_eq!(calls.load(Ordering::SeqCst), 3, "1 try + 2 retries");
        let cell = &report.cells[0];
        assert_eq!(cell.status, CellStatus::Error);
        assert_eq!(cell.attempts, 3);
        assert_eq!(cell.error.as_deref(), Some("boom"));
        assert!(cell.metrics.is_empty());
        assert_eq!(report.degraded(), 1);
    }

    #[test]
    fn transient_error_recovers_on_retry() {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let runner: Arc<CellRunner> = Arc::new(move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                Err("transient".into())
            } else {
                Ok(vec![("v".into(), 1.0)])
            }
        });
        let report = run_cells("flaky", vec![cfg(&[("x", "1")])], runner, &quick_policy());
        let cell = &report.cells[0];
        assert_eq!(cell.status, CellStatus::Ok);
        assert_eq!(cell.attempts, 2);
        assert!(cell.error.is_none());
    }

    #[test]
    fn hung_cell_times_out_without_killing_the_matrix() {
        let runner: Arc<CellRunner> = Arc::new(|c| {
            if c[0].1 == "hang" {
                std::thread::sleep(Duration::from_secs(30));
            }
            Ok(vec![("v".into(), 1.0)])
        });
        let report = run_cells(
            "hangs",
            vec![
                cfg(&[("mode", "ok")]),
                cfg(&[("mode", "hang")]),
                cfg(&[("mode", "ok")]),
            ],
            runner,
            &Policy {
                retries: 1,
                timeout: Some(Duration::from_millis(50)),
                ..quick_policy()
            },
        );
        assert_eq!(report.cells[0].status, CellStatus::Ok);
        assert_eq!(report.cells[2].status, CellStatus::Ok);
        let hung = &report.cells[1];
        assert_eq!(hung.status, CellStatus::Timeout);
        assert_eq!(hung.attempts, 2, "timeout is retried per policy");
        assert!(hung.error.as_deref().unwrap().contains("budget"));
        assert_eq!(report.degraded(), 1);
    }

    #[test]
    fn panicking_runner_degrades_to_error() {
        let runner: Arc<CellRunner> = Arc::new(|_| panic!("cell exploded"));
        let report = run_cells(
            "panics",
            vec![cfg(&[("x", "1")])],
            runner,
            &Policy {
                retries: 0,
                ..quick_policy()
            },
        );
        let cell = &report.cells[0];
        assert_eq!(cell.status, CellStatus::Error);
        assert!(cell.error.as_deref().unwrap().contains("cell exploded"));
    }

    #[test]
    fn injected_timeout_fault_marks_matching_cell_only() {
        let runner: Arc<CellRunner> = Arc::new(|_| Ok(vec![("v".into(), 1.0)]));
        let policy = Policy {
            retries: 2,
            timeout: Some(Duration::from_millis(20)),
            fault: Some(Fault {
                kind: FaultKind::Timeout,
                needle: "alloc=hoard".into(),
                first_n: None,
            }),
            ..quick_policy()
        };
        let report = run_cells(
            "faulted",
            vec![
                cfg(&[("alloc", "glibc"), ("threads", "8")]),
                cfg(&[("alloc", "hoard"), ("threads", "8")]),
            ],
            runner,
            &policy,
        );
        assert_eq!(report.cells[0].status, CellStatus::Ok);
        let faulted = &report.cells[1];
        assert_eq!(faulted.status, CellStatus::Timeout);
        assert_eq!(faulted.attempts, 3, "injected hang retried per policy");
        assert!(faulted.error.as_deref().unwrap().contains("injected"));
        // The degraded matrix still round-trips through the v1 schema.
        let parsed = SweepReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn injected_fault_clears_after_first_n_attempts() {
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let runner: Arc<CellRunner> = Arc::new(move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(vec![("v".into(), 1.0)])
        });
        let policy = Policy {
            retries: 1,
            fault: Fault::parse("error:x=1:1"),
            ..quick_policy()
        };
        let report = run_cells("flaky-fault", vec![cfg(&[("x", "1")])], runner, &policy);
        let cell = &report.cells[0];
        assert_eq!(cell.status, CellStatus::Ok);
        assert_eq!(cell.attempts, 2, "attempt 1 faulted, attempt 2 ran clean");
        assert!(cell.error.is_none());
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "the faulted attempt never reaches the runner"
        );
        assert_eq!(report.degraded(), 0);
    }

    // Parse logic only — avoid mutating the process env in a
    // multithreaded test binary.
    #[test]
    fn fault_env_parsing() {
        assert_eq!(
            Fault::parse("error:threads=8"),
            Some(Fault {
                kind: FaultKind::Error,
                needle: "threads=8".into(),
                first_n: None,
            })
        );
        assert_eq!(
            Fault::parse("timeout:table1:2"),
            Some(Fault {
                kind: FaultKind::Timeout,
                needle: "table1".into(),
                first_n: Some(2),
            })
        );
        // A colon inside the needle that is not a count stays in the needle.
        assert_eq!(
            Fault::parse("error:alloc:hoard").unwrap().needle,
            "alloc:hoard"
        );
        assert_eq!(Fault::parse("explode:x"), None);
        assert_eq!(Fault::parse("no-colon"), None);
    }
}
