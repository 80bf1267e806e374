//! # tm-obs — the unified observability layer
//!
//! Every layer of the reproduction stack (simulator, STM, allocators,
//! STAMP harness, bench regenerators) reports through this crate instead
//! of keeping its own formatting glue. Its pieces:
//!
//! * [`counters`] — [`ShardedSlots`], a grid of per-thread `u64` counter
//!   rows folded slot-wise. No layer counts into it: every layer keeps its
//!   statistics as a plain struct and folds per-thread tallies with its
//!   own `merge`, and the grid stays only as the subject of the
//!   benchmark's `obs.sharded_add_ns` probe.
//! * [`trace`] — a bounded per-thread event ring buffer. No layer records
//!   into it: the stack keeps no event log (DESIGN.md, "No event log"),
//!   and the ring stays only as the subject of the benchmark's
//!   `obs.trace_event_ns` probe.
//! * [`report`] — the [`report::RunReport`] schema every experiment binary
//!   emits as `results/<name>.json`: metadata plus titled sections, each a
//!   [`Section::Series`] (a figure's curves, one [`Series`] per line) or a
//!   [`Section::Table`] (counters and histograms are written as tables).
//!   It is built on a dependency-free JSON emitter/parser in [`json`] (the
//!   build environment is offline, so no serde). `tmstudy report`
//!   pretty-prints and diffs these files.
//!
//! * [`matrix`] — the envelope the other four schemas share
//!   ([`matrix::Matrix`]: name, meta, top-level extras, one cell per
//!   configuration; emit, parse, render header and key-joined diff written
//!   once, each schema reduced to a cell struct and a field table), the
//!   single optional-member ⇒ minor-version rule, and the schema registry
//!   `tmstudy report` loads through. The four schemas:
//!   [`sweep`] (`tm-sweep-report/v1`, cross-product sweeps whose failing
//!   cells degrade instead of killing the matrix; the module also holds
//!   the one sweep executor, which runs each cell once, in order, on the
//!   calling thread), [`check`]
//!   (`tm-check-report/v1`, `tmstudy check`'s pass/fail/error cells with
//!   evidence counters), [`mc`] (`tm-mc-report/v1`, `tmstudy mc`'s
//!   clean/caught/violation/escaped verdicts, exploration counters and
//!   shrunk counterexamples) and [`oom`] (`tm-oom-report/v1`, `tmstudy mc
//!   --oom`'s allocation-site and injection-outcome counters).
//!
//! * [`spec`] — the textual input the front ends share: the argv parser
//!   `tmstudy` and `make_all` check their flags with, and the
//!   colon-separated tokenizing under the allocator `--alloc-fault` plan
//!   grammar.
//!
//! The crate is deliberately leaf-level: it depends on nothing else in the
//! workspace (or outside it), so every other crate can depend on it.

#![deny(missing_docs)]

pub mod check;
pub mod counters;
pub mod json;
pub mod matrix;
pub mod mc;
pub mod oom;
pub mod report;
pub mod spec;
pub mod sweep;
pub mod trace;

pub use check::{CheckCell, CheckReport, CheckStatus};
pub use counters::ShardedSlots;
pub use matrix::{load_report, Cell, Matrix, Report, REGISTRY};
pub use mc::{McCell, McCounterexample, McReport, McVerdict};
pub use oom::{OomCell, OomReport};
pub use report::{RunReport, Section, Series};
pub use sweep::{CellStatus, SweepCell, SweepReport};
pub use trace::{Event, EventKind, Trace};

/// The message a caught panic carries, as the evidence string of the cell
/// that caught it: what `panic!` was given (a `&str` or a `String`), or a
/// placeholder for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}
