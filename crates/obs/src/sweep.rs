//! Sweeps: the declarative spec, the executor and the matrix report.
//!
//! A *sweep* is a cross-product of experiment configurations (allocator ×
//! thread count × shift × seed × …) executed as independent cells. A
//! [`SweepSpec`] is fixed `(key, value)` pairs plus named axes;
//! [`run_spec`] expands it and [`run_cells`] runs each cell once, in input
//! order, on the calling thread. Where [`crate::report::RunReport`]
//! describes one run, a [`SweepReport`] describes a whole matrix: one
//! [`SweepCell`] per configuration, each carrying its status (`ok` or
//! `error`), wall time and scalar metrics. A failing cell degrades to
//! `error` instead of invalidating the rest of the matrix, so partial
//! sweeps are first-class artifacts.
//!
//! The on-disk form is the `tm-sweep-report/v1` JSON schema, written by
//! `tmstudy sweep` and the `make_all` orchestrator and consumed by
//! `tmstudy report` (pretty-print and diff). Field semantics:
//!
//! * `name` — artifact stem, matching `results/<name>.sweep.json`.
//! * `meta` — free-form string key/values describing the whole sweep
//!   (workload, scale, cell count, total wall time); labels, not data.
//! * `axes` — the declared sweep dimensions in expansion order; each cell's
//!   `config` holds exactly one value per axis (plus any fixed keys).
//! * `cells[].status` — `ok` (metrics valid) or `error` (the runner
//!   failed or panicked; `error` holds the message).
//! * `cells[].wall_ms` — host wall-clock milliseconds the cell's one run
//!   took. Wall time is *host* time and therefore non-deterministic; diffs
//!   ignore it by design.
//! * `cells[].metrics` — named scalar results, empty unless `ok`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::json::Json;
use crate::matrix::{
    diff_named, diff_value, field, named_scalar, opt, pairs_from, pairs_json, req, Cell, Codec,
    Field, Fields, Matrix, CONFIG,
};

pub use crate::matrix::key_of;

/// Schema identifier written into every sweep report.
pub const SWEEP_SCHEMA: &str = "tm-sweep-report/v1";

/// Outcome of one sweep cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CellStatus {
    /// The runner returned metrics.
    #[default]
    Ok,
    /// The runner returned an error (or panicked); the cell is recorded
    /// but carries no metrics.
    Error,
}

impl CellStatus {
    /// Stable lower-case name used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Error => "error",
        }
    }

    /// Inverse of [`CellStatus::name`].
    pub fn parse(s: &str) -> Result<CellStatus, String> {
        [CellStatus::Ok, CellStatus::Error]
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| format!("unknown cell status '{s}'"))
    }
}

named_scalar!(CellStatus);

/// One executed configuration of a sweep matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepCell {
    /// The cell's configuration: one `(key, value)` per axis plus any
    /// fixed keys, in declaration order.
    pub config: Vec<(String, String)>,
    /// How the cell ended.
    pub status: CellStatus,
    /// Host wall-clock milliseconds the cell's run took
    /// (non-deterministic; excluded from diffs).
    pub wall_ms: u64,
    /// Error detail for non-`ok` cells.
    pub error: Option<String>,
    /// Named scalar results; empty unless `status` is `ok`.
    pub metrics: Vec<(String, f64)>,
}

impl SweepCell {
    /// Stable identity of the cell within its matrix (see [`key_of`]).
    pub fn key(&self) -> String {
        key_of(&self.config)
    }
}

/// A cell's `metrics`: named `f64` results.
pub const METRICS: Codec<Vec<(String, f64)>> = Codec {
    emit: |v| Some(pairs_json(v, |x| Json::Num(*x))),
    parse: |v, owner, name| {
        pairs_from(
            v,
            || format!("{owner} missing {name} object"),
            |k, j| {
                j.as_f64()
                    .ok_or_else(|| format!("metric '{k}' not a number"))
            },
        )
    },
};

impl Fields for SweepCell {
    const FIELDS: &'static [Field<Self>] = &[
        field!("config" => config: CONFIG),
        field!("status" => status: req()),
        field!("wall_ms" => wall_ms: req()),
        field!("error" => error: opt()),
        field!("metrics" => metrics: METRICS),
    ];
}

/// The sweep schema's top-level extra: the declared axes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepExtra {
    /// Declared sweep dimensions, in expansion order.
    pub axes: Vec<(String, Vec<String>)>,
}

/// The `axes` object: each axis name with its values.
pub const AXES: Codec<Vec<(String, Vec<String>)>> = Codec {
    emit: |v| {
        Some(pairs_json(v, |vs| {
            Json::Arr(vs.iter().map(|x| Json::str(x.clone())).collect())
        }))
    },
    parse: |v, owner, name| {
        pairs_from(
            v,
            || format!("{owner} missing {name} object"),
            |k, vs| {
                vs.as_arr()
                    .ok_or_else(|| format!("axis '{k}' not an array"))?
                    .iter()
                    .map(|x| {
                        x.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("axis '{k}' value not a string"))
                    })
                    .collect()
            },
        )
    },
};

impl Fields for SweepExtra {
    const FIELDS: &'static [Field<Self>] = &[field!("axes" => axes: AXES)];
}

impl Cell for SweepCell {
    type Extra = SweepExtra;
    const SCHEMAS: &'static [&'static str] = &[SWEEP_SCHEMA];
    const KIND: &'static str = "sweep";
    const NOUN: &'static str = "sweep";

    fn config(&self) -> &[(String, String)] {
        &self.config
    }

    fn degraded(&self) -> bool {
        self.status != CellStatus::Ok
    }

    fn render_extra(extra: &SweepExtra, out: &mut String) {
        for (k, vs) in &extra.axes {
            out.push_str(&format!("  axis {k}: {}\n", vs.join(", ")));
        }
    }

    /// One aligned row per cell. Columns: the first cell's config keys,
    /// then status/wall, then the union of metric names in
    /// first-seen order.
    fn render(cells: &[Self], out: &mut String) {
        let mut metric_names: Vec<&String> = Vec::new();
        for (m, _) in cells.iter().flat_map(|c| &c.metrics) {
            if !metric_names.contains(&m) {
                metric_names.push(m);
            }
        }
        let mut header: Vec<String> = cells
            .first()
            .map(|c| c.config.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default();
        header.extend(["status".into(), "wall_ms".into()]);
        header.extend(metric_names.iter().map(|m| m.to_string()));
        let mut rows = vec![header];
        for c in cells {
            let mut row: Vec<String> = c.config.iter().map(|(_, v)| v.clone()).collect();
            row.push(c.status.name().into());
            row.push(c.wall_ms.to_string());
            for m in &metric_names {
                row.push(
                    c.metrics
                        .iter()
                        .find(|(k, _)| k == *m)
                        .map(|(_, v)| format!("{v:.4}"))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            rows.push(row);
        }
        let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for r in &rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        for r in &rows {
            let line: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            out.push_str(&format!("  {}\n", line.join("  ")));
        }
    }

    /// Status changes and per-metric deltas; `wall_ms` is a host-time
    /// artifact and deliberately ignored.
    fn diff(&self, o: &Self, key: &str, out: &mut String) {
        diff_value(out, key, "status", self.status.name(), o.status.name());
        diff_named(out, key, &self.metrics, &o.metrics, |va, vb| {
            if *va != 0.0 {
                format!(" ({:+.2}%)", (vb / va - 1.0) * 100.0)
            } else {
                String::new()
            }
        });
    }
}

/// One sweep: identity, free-form metadata, the declared axes
/// (`report.axes`), and one [`SweepCell`] per expanded configuration.
pub type SweepReport = Matrix<SweepCell>;

/// A declarative sweep: a name, fixed configuration, and the axes to
/// cross. [`SweepSpec::expand`] is the cartesian product of the axes, each
/// cell carrying the fixed pairs first and then one value per axis. The
/// last-declared axis varies fastest, exactly like nested for-loops in
/// declaration order, so cell order — and therefore the matrix JSON — is
/// stable across runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Artifact name for the resulting matrix.
    pub name: String,
    /// Configuration shared by every cell, first in each cell's config.
    pub fixed: Vec<(String, String)>,
    /// The sweep dimensions, in declaration order (last varies fastest).
    pub axes: Vec<(String, Vec<String>)>,
}

impl SweepSpec {
    /// An empty spec with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SweepSpec {
            name: name.into(),
            fixed: Vec::new(),
            axes: Vec::new(),
        }
    }

    /// Add a fixed key/value present in every cell (builder style).
    pub fn fixed(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fixed.push((key.into(), value.into()));
        self
    }

    /// Add an axis (builder style). An axis with no values would make the
    /// product empty and is rejected.
    pub fn axis<I, S>(mut self, name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis needs at least one value");
        self.axes.push((name.into(), values));
        self
    }

    /// Number of cells [`SweepSpec::expand`] will produce.
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// The full cartesian product: one configuration per cell, fixed keys
    /// first, then one `(axis, value)` pair per axis.
    pub fn expand(&self) -> Vec<Vec<(String, String)>> {
        let mut cells: Vec<Vec<(String, String)>> = vec![self.fixed.clone()];
        for (axis, values) in &self.axes {
            let mut next = Vec::with_capacity(cells.len() * values.len());
            for cell in &cells {
                for v in values {
                    let mut c = cell.clone();
                    c.push((axis.clone(), v.clone()));
                    next.push(c);
                }
            }
            cells = next;
        }
        cells
    }
}

/// A cell runner: maps one cell configuration to named scalar metrics, or
/// an error message.
pub type CellRunner<'a> = dyn Fn(&[(String, String)]) -> Result<Vec<(String, f64)>, String> + 'a;

/// Run each of `cells` once, in input order, on the calling thread, and
/// collect the matrix. A cell is a deterministic function of its
/// configuration, so it runs exactly once, under one `catch_unwind`:
/// metrics make it `ok`; an `Err` or a panic makes it `error` with the
/// message, and the rest of the matrix still runs. There is no wall-clock
/// budget in here — what ends a run that would not end is in DESIGN.md
/// §3.1. The report's `axes` are left empty; [`run_spec`] fills them.
pub fn run_cells(
    name: &str,
    cells: Vec<Vec<(String, String)>>,
    runner: &CellRunner<'_>,
) -> SweepReport {
    let started = Instant::now();
    let mut report = SweepReport::new(name);
    report.cells = cells.into_iter().map(|c| run_one_cell(c, runner)).collect();
    let total = report.cells.len();
    report
        .meta("cells", total)
        .meta("total_wall_ms", started.elapsed().as_millis())
}

/// Expand `spec`, run every cell with [`run_cells`] and record the spec's
/// axes on the finished matrix.
pub fn run_spec(spec: &SweepSpec, runner: &CellRunner<'_>) -> SweepReport {
    let mut report = run_cells(&spec.name, spec.expand(), runner);
    report.axes = spec.axes.clone();
    report
}

/// Run one cell, once: the runner's verdict, or its panic as an error.
fn run_one_cell(config: Vec<(String, String)>, runner: &CellRunner<'_>) -> SweepCell {
    let started = Instant::now();
    let (status, error, metrics) = match catch_unwind(AssertUnwindSafe(|| runner(&config))) {
        Ok(Ok(metrics)) => (CellStatus::Ok, None, metrics),
        Ok(Err(e)) => (CellStatus::Error, Some(e), vec![]),
        Err(panic) => {
            let msg = crate::panic_message(panic.as_ref());
            (CellStatus::Error, Some(format!("panic: {msg}")), vec![])
        }
    };
    SweepCell {
        config,
        status,
        wall_ms: started.elapsed().as_millis() as u64,
        error,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(alloc: &str, threads: &str, status: CellStatus, tput: f64) -> SweepCell {
        SweepCell {
            config: vec![
                ("alloc".into(), alloc.into()),
                ("threads".into(), threads.into()),
            ],
            status,
            wall_ms: 12,
            error: (status != CellStatus::Ok).then(|| "unknown structure 'nosuch'".to_string()),
            metrics: if status == CellStatus::Ok {
                vec![("throughput".into(), tput), ("aborts".into(), 7.0)]
            } else {
                vec![]
            },
        }
    }

    fn sample() -> SweepReport {
        let mut r = SweepReport::new("list-sweep")
            .meta("workload", "synth")
            .meta("workers", 1);
        r.axes = vec![
            ("alloc".into(), vec!["glibc".into(), "hoard".into()]),
            ("threads".into(), vec!["1".into(), "8".into()]),
        ];
        r.cells = vec![
            cell("glibc", "1", CellStatus::Ok, 100.0),
            cell("glibc", "8", CellStatus::Ok, 640.0),
            cell("hoard", "1", CellStatus::Ok, 90.0),
            cell("hoard", "8", CellStatus::Error, 0.0),
        ];
        r
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample();
        let parsed = SweepReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    /// Documents written before a cell ran exactly once carry `attempts`.
    #[test]
    fn an_older_documents_attempts_member_is_ignored() {
        let old = sample()
            .to_json_string()
            .replace("\"wall_ms\"", "\"attempts\": 2, \"wall_ms\"");
        assert!(old.contains("attempts"));
        assert_eq!(SweepReport::parse(&old).unwrap(), sample());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let j = sample().to_json_string().replace(SWEEP_SCHEMA, "bogus/v9");
        let err = SweepReport::parse(&j).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn degraded_counts_non_ok_cells() {
        assert_eq!(sample().degraded(), 1);
    }

    #[test]
    fn render_mentions_cells_and_status() {
        let text = sample().render();
        for needle in [
            "list-sweep (sweep: 4 cells, 1 degraded)",
            "axis alloc: glibc, hoard",
            "error",
            "throughput",
            "640",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn diff_ignores_wall_time_but_not_metrics() {
        let a = sample();
        let mut b = sample();
        b.cells[0].wall_ms = 9999; // volatile, ignored
        assert!(a.diff(&b).is_none());
        b.cells[1].metrics[0].1 = 320.0;
        b.cells[3].status = CellStatus::Ok;
        let d = a.diff(&b).unwrap();
        assert!(
            d.contains("cell [alloc=glibc threads=8] throughput: 640 -> 320 (-50.00%)"),
            "{d}"
        );
        assert!(
            d.contains("cell [alloc=hoard threads=8]: status error -> ok"),
            "{d}"
        );
    }

    #[test]
    fn diff_notes_missing_cells() {
        let a = sample();
        let mut b = sample();
        b.cells.remove(2);
        let d = a.diff(&b).unwrap();
        assert!(
            d.contains("cell [alloc=hoard threads=1]: only in left"),
            "{d}"
        );
    }

    fn cfg(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn expansion_is_last_axis_fastest() {
        let spec = SweepSpec::new("s")
            .fixed("workload", "synth")
            .axis("alloc", ["glibc", "hoard"])
            .axis("threads", ["1", "8"]);
        assert_eq!(spec.cell_count(), 4);
        let keys: Vec<String> = spec.expand().iter().map(|c| key_of(c)).collect();
        assert_eq!(
            keys,
            vec![
                "workload=synth alloc=glibc threads=1",
                "workload=synth alloc=glibc threads=8",
                "workload=synth alloc=hoard threads=1",
                "workload=synth alloc=hoard threads=8",
            ]
        );
    }

    #[test]
    fn no_axes_means_one_cell() {
        let spec = SweepSpec::new("s").fixed("k", "v");
        assert_eq!(spec.cell_count(), 1);
        assert_eq!(
            spec.expand(),
            vec![vec![("k".to_string(), "v".to_string())]]
        );
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_axis_is_rejected() {
        let _ = SweepSpec::new("s").axis("alloc", Vec::<String>::new());
    }

    #[test]
    fn run_spec_records_axes_and_all_cells() {
        let spec = SweepSpec::new("demo")
            .fixed("workload", "synth")
            .axis("alloc", ["glibc", "hoard"])
            .axis("threads", ["1", "2"]);
        let report = run_spec(&spec, &|cfg| {
            let threads: f64 = cfg
                .iter()
                .find(|(k, _)| k == "threads")
                .unwrap()
                .1
                .parse()
                .unwrap();
            Ok(vec![("throughput".into(), 100.0 * threads)])
        });
        assert_eq!(report.axes.len(), 2);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.degraded(), 0);
        assert_eq!(
            report.cells[0].key(),
            "workload=synth alloc=glibc threads=1"
        );
        assert_eq!(report.cells[3].metrics[0].1, 200.0);
    }

    #[test]
    fn cells_run_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran = std::cell::RefCell::new(Vec::new());
        let cells: Vec<_> = (0..16).map(|i| cfg(&[("i", &i.to_string())])).collect();
        let report = run_cells("order", cells, &|c| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "a cell left the caller"
            );
            let i: u64 = c[0].1.parse().unwrap();
            ran.borrow_mut().push(i);
            Ok(vec![("i".into(), i as f64)])
        });
        let order: Vec<f64> = report.cells.iter().map(|c| c.metrics[0].1).collect();
        assert_eq!(order, (0..16).map(|i| i as f64).collect::<Vec<_>>());
        assert_eq!(ran.into_inner(), (0..16).collect::<Vec<u64>>());
        assert_eq!(report.degraded(), 0);
    }

    type Verdict = Result<Vec<(String, f64)>, String>;

    /// One failing cell between two healthy ones, `fail` deciding how it
    /// fails; returns the report and how often the failing cell was run.
    fn run_with_one_failure(fail: fn() -> Verdict) -> (SweepReport, usize) {
        let calls = std::cell::Cell::new(0);
        let cells = ["ok", "bad", "ok"].map(|mode| cfg(&[("mode", mode)]));
        let report = run_cells("fails", cells.to_vec(), &|c| {
            if c[0].1 == "bad" {
                calls.set(calls.get() + 1);
                return fail();
            }
            Ok(vec![("v".into(), 1.0)])
        });
        (report, calls.get())
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
        // The sweep outlives the panic: both neighbours ran.
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
