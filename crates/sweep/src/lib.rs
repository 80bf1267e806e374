//! # tm-sweep — cross-product experiment orchestration
//!
//! The paper's claims are all cross-products — allocator × thread count ×
//! ORT shift × workload — and this crate is the machinery that runs such
//! matrices as one unit instead of cell-by-cell:
//!
//! * [`spec`] — a declarative [`spec::SweepSpec`]: fixed keys plus named
//!   axes, expanded into the full cartesian product of cell
//!   configurations.
//! * [`exec`] — [`exec::run_cells`]: drains the cells on a bounded worker
//!   pool, each cell run once; a cell whose runner fails or panics is
//!   recorded as `error` in the resulting matrix instead of killing the
//!   run.
//!
//! The output is a [`tm_obs::SweepReport`] (`tm-sweep-report/v1`), the
//! matrix twin of the per-run `tm-run-report/v1` schema; `tmstudy report`
//! pretty-prints and diffs both. The crate knows nothing about workloads:
//! callers supply a runner closure mapping a cell configuration to named
//! scalar metrics, so the same pool drives synthetic sweeps, STAMP sweeps
//! and whole-exhibit regeneration (`make_all`).

#![deny(missing_docs)]

pub mod exec;
pub mod spec;

pub use exec::{run_cells, CellRunner, Policy};
pub use spec::SweepSpec;
pub use tm_obs::{CellStatus, SweepCell, SweepReport};

/// Expand `spec` and execute every cell under `policy`, returning the
/// finished matrix (axes and spec metadata already recorded).
pub fn run_spec(
    spec: &SweepSpec,
    runner: std::sync::Arc<CellRunner>,
    policy: &Policy,
) -> SweepReport {
    let cells = spec.expand();
    let mut report = exec::run_cells(&spec.name, cells, runner, policy);
    report.axes = spec.axes.clone();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn run_spec_records_axes_and_all_cells() {
        let spec = SweepSpec::new("demo")
            .fixed("workload", "synth")
            .axis("alloc", ["glibc", "hoard"])
            .axis("threads", ["1", "2"]);
        let runner: Arc<CellRunner> = Arc::new(|cfg| {
            let threads: f64 = cfg
                .iter()
                .find(|(k, _)| k == "threads")
                .unwrap()
                .1
                .parse()
                .unwrap();
            Ok(vec![("throughput".into(), 100.0 * threads)])
        });
        let report = run_spec(&spec, runner, &Policy::default());
        assert_eq!(report.axes.len(), 2);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.degraded(), 0);
        assert_eq!(
            report.cells[0].key(),
            "workload=synth alloc=glibc threads=1"
        );
        assert_eq!(report.cells[3].metrics[0].1, 200.0);
    }
}
