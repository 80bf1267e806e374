//! # tm-obs — the unified observability layer
//!
//! Every layer of the reproduction stack (simulator, STM, allocators,
//! STAMP harness, bench regenerators) measures itself through this crate
//! instead of keeping its own ad-hoc stats structs and formatting glue.
//! Three pieces:
//!
//! * [`counters`] — per-thread **sharded, cache-line-padded** counter and
//!   histogram storage. The hot path is a relaxed `fetch_add` on a slot
//!   owned by the recording thread's shard: no global lock, no cross-thread
//!   cache-line traffic. Shards are merged slot-wise at snapshot time.
//!   [`counters::Registry`] adds on-demand *named* metrics so any crate can
//!   mint a counter without touching this one.
//! * [`trace`] — a bounded per-thread **event ring buffer** recorded in
//!   virtual time (transaction begin/commit/abort-with-cause, malloc/free
//!   with region and size, lock acquire/contend, OS allocation). Drained
//!   after a run for trace-driven debugging of e.g. false-abort mechanisms.
//! * [`report`] — the [`report::RunReport`] schema every experiment binary
//!   emits as `results/<name>.json`, built on a dependency-free JSON
//!   emitter/parser in [`json`] (the build environment is offline, so no
//!   serde). `tmstudy report` pretty-prints and diffs these files.
//!
//! * [`matrix`] — the envelope the other four schemas share
//!   ([`matrix::Matrix`]: name, meta, top-level extras, one cell per
//!   configuration; emit, parse, render header and key-joined diff written
//!   once, each schema reduced to a cell struct and a field table), the
//!   single optional-member ⇒ minor-version rule, and the schema registry
//!   `tmstudy report` loads through. The four schemas:
//!   [`sweep`] (`tm-sweep-report/v1`, cross-product sweeps whose failing
//!   cells degrade instead of killing the matrix), [`check`]
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
pub use counters::{Counter, Histogram, Registry, Sharded, ShardedSlots, SlotSchema};
pub use matrix::{load_report, Cell, Matrix, Report, REGISTRY};
pub use mc::{McCell, McCounterexample, McReport, McVerdict};
pub use oom::{OomCell, OomReport};
pub use report::{RunReport, Section};
pub use sweep::{CellStatus, SweepCell, SweepReport};
pub use trace::{Event, EventKind, Trace, TraceCheckpoint};

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

/// One observability context: a named-metric registry plus an event trace,
/// sized for a fixed thread count. The simulator owns one per machine and
/// hands it (via `Arc`) to the layers built on top.
pub struct Obs {
    registry: Registry,
    trace: Trace,
}

impl Obs {
    /// Context for `threads` logical threads with the default per-thread
    /// trace capacity (4096 events).
    pub fn new(threads: usize) -> Self {
        Obs::with_trace_capacity(threads, 4096)
    }

    /// Context for `threads` logical threads with an explicit per-thread
    /// trace ring capacity.
    pub fn with_trace_capacity(threads: usize, trace_capacity: usize) -> Self {
        Obs {
            registry: Registry::new(threads),
            trace: Trace::new(threads, trace_capacity),
        }
    }

    /// The named-metric registry half of the context.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event-trace half of the context.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of logical threads this context was sized for.
    pub fn threads(&self) -> usize {
        self.registry.threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_builds_both_halves() {
        let obs = Obs::new(4);
        assert_eq!(obs.threads(), 4);
        let c = obs.registry().counter("x");
        c.add(3, 7);
        assert_eq!(c.total(), 7);
        assert!(!obs.trace().is_enabled());
    }
}
