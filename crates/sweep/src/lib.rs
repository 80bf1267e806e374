//! # tm-sweep — a shim over [`tm_obs::sweep`]
//!
//! The stack runs sweeps through [`tm_obs::sweep::run_cells`], one cell
//! at a time on the calling thread. This crate keeps only the old entry
//! point the benchmark's `sweep.cell_overhead_us` probe calls; it goes
//! when that probe stops naming it.

#![deny(missing_docs)]

use std::sync::Arc;

/// A cell runner: maps one cell configuration to named scalar metrics, or
/// an error message.
pub type CellRunner =
    dyn Fn(&[(String, String)]) -> Result<Vec<(String, f64)>, String> + Send + Sync;

/// The old execution policy. Nothing reads `workers`: cells run in order
/// on the calling thread.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    /// Unread.
    pub workers: usize,
}

/// [`tm_obs::sweep::run_cells`] under the old signature.
pub fn run_cells(
    name: &str,
    cells: Vec<Vec<(String, String)>>,
    runner: Arc<CellRunner>,
    _policy: &Policy,
) -> tm_obs::SweepReport {
    tm_obs::sweep::run_cells(name, cells, &*runner)
}
