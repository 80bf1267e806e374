//! # tm-core — the experiment harness
//!
//! This crate packages the paper's methodology as a library: it builds a
//! (simulated machine, allocator, STM) stack for a configuration, runs the
//! paper's workloads on it, and returns the metrics the paper reports —
//! throughput, execution time, abort ratio, and cache miss ratios.
//!
//! * [`synthetic`] — the §5 microbenchmark: N threads performing
//!   update/lookup mixes on a sorted list, hash set, or red–black tree.
//! * [`threadtest`] — the §3.5 allocator microbenchmark behind Fig. 3
//!   (8 threads doing nothing but malloc/free pairs).
//! * [`report`] — plain-text table/series formatting (the book and the
//!   examples) and the best/worst summary of Tables 3 and 6.
//!
//! Experiments are deterministic: same configuration, same numbers.

#![deny(missing_docs)]

pub mod book;
pub mod report;
pub mod sweeps;
pub mod synthetic;
pub mod threadtest;

use tm_alloc::AllocatorKind;
use tm_stm::{StackSpec, StmConfig};

pub use tm_stm::Stack;

/// Build machine + allocator + STM for one configuration (the paper's
/// Xeon E5405 model, no fault plan, no auditor).
pub fn build_stack(alloc: AllocatorKind, stm: StmConfig) -> Stack {
    Stack::new(&StackSpec {
        stm,
        ..StackSpec::new(alloc)
    })
}

/// Metrics common to every measured run (the paper's reporting set).
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Virtual seconds of the measured phase.
    pub seconds: f64,
    /// Committed transactions per virtual second.
    pub throughput: f64,
    /// Fraction of transaction attempts that aborted (Table 4).
    pub abort_ratio: f64,
    /// L1 data miss ratio over the measured phase (Table 4, PAPI-style).
    pub l1_miss: f64,
    /// L2 miss ratio over the measured phase.
    pub l2_miss: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// The subset of `aborts` caused by a failed transactional
    /// allocation — always 0 unless the configuration injects
    /// allocation faults (the simulated allocators never run out).
    pub alloc_failed_aborts: u64,
    /// Simulated-lock wait cycles (allocator contention indicator).
    pub lock_wait_cycles: u64,
    /// Object-cache hits (Table 7 effectiveness).
    pub cache_hits: u64,
}

impl Metrics {
    /// Report section with every metric, for `RunReport` emission. Mixed
    /// integer/float fields, so this renders as a two-column table with
    /// floats formatted to fixed precision.
    pub fn section(&self) -> tm_obs::Section {
        tm_obs::Section::Table {
            header: vec!["metric".into(), "value".into()],
            rows: vec![
                vec!["seconds".into(), format!("{:.6}", self.seconds)],
                vec!["throughput".into(), format!("{:.3}", self.throughput)],
                vec!["abort_ratio".into(), format!("{:.6}", self.abort_ratio)],
                vec!["l1_miss".into(), format!("{:.6}", self.l1_miss)],
                vec!["l2_miss".into(), format!("{:.6}", self.l2_miss)],
                vec!["commits".into(), self.commits.to_string()],
                vec!["aborts".into(), self.aborts.to_string()],
            ]
            .into_iter()
            // Only fault-injected runs carry the alloc-failure row, so
            // fault-free artifacts stay byte-identical to the frozen
            // pre-injection renderings.
            .chain((self.alloc_failed_aborts > 0).then(|| {
                vec![
                    "alloc_failed_aborts".into(),
                    self.alloc_failed_aborts.to_string(),
                ]
            }))
            .chain(vec![
                vec!["lock_wait_cycles".into(), self.lock_wait_cycles.to_string()],
                vec!["cache_hits".into(), self.cache_hits.to_string()],
            ])
            .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_builds_for_all_allocators() {
        for kind in AllocatorKind::ALL {
            let stack = build_stack(kind, StmConfig::default());
            assert_eq!(stack.alloc.attributes().name, kind.name());
            assert_eq!(stack.stm.stripe_bytes(), 32);
        }
    }
}
