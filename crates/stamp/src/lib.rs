//! # tm-stamp — STAMP application ports
//!
//! Ports of all eight STAMP applications (Minh et al., IISWC'08) to the
//! simulated STM stack, scaled down but faithful to the traits the paper's
//! analysis depends on (Table 5 and §6):
//!
//! | app | transactional behaviour preserved | allocation traits preserved |
//! |---|---|---|
//! | `Genome` | segment dedup in short txs, then read-heavy matching | 16-byte blocks allocated *only* inside transactions |
//! | `Intruder` | queue pop + map insert per fragment, high contention | tx-allocated descriptors freed in the parallel region (privatization) |
//! | `Kmeans` | tiny accumulator txs | no (de)allocation outside initialization |
//! | `Labyrinth` | long router txs over a shared grid | large private-buffer allocations in the parallel region |
//! | `Ssca2` | tiny scattered txs over big arrays | giant sequential allocations only |
//! | `Vacation` | multi-table reservation txs over red–black trees | 16/32/48-byte tx allocations, mallocs > frees (the paper's leak pattern) |
//! | `Yada` | cavity re-triangulation: large read/write sets, high abort rate | heaviest tx malloc *and* free churn, 16/32/256-byte mix |
//! | `Bayes` | rare, small txs under heavy non-tx compute | very large par/seq churn of small blocks; high run-to-run variance |
//!
//! [`runner`] builds the machine/allocator/STM stack for a configuration,
//! runs an application's sequential then parallel phase, and reports the
//! paper's metrics; `runner::profile_app` regenerates the Table 5
//! characterization with the allocation-site profiler.

#![deny(missing_docs)]

pub mod apps;
pub mod runner;

use tm_sim::Ctx;
use tm_stm::{Stm, TxThread};

/// A STAMP application: a sequential initialization phase plus a worker
/// body executed by every thread of the timed parallel phase.
pub trait StampApp: Send + Sync {
    /// Display name, as printed in tables and reports.
    fn name(&self) -> &'static str;

    /// Sequential phase (run by thread 0 alone). Allocation traffic here is
    /// the paper's `seq` region.
    fn init(&self, stm: &Stm, ctx: &mut Ctx<'_>);

    /// Parallel phase body; called once per thread. Allocation inside
    /// transactions is the `tx` region, outside them the `par` region.
    fn worker(&self, stm: &Stm, ctx: &mut Ctx<'_>, th: &mut TxThread);

    /// Post-run invariant checks (used by the test suite; cheap).
    fn verify(&self, _stm: &Stm, _ctx: &mut Ctx<'_>) {}

    /// Interleaving-independent checksum of the final logical state, or
    /// `None` when the app's final state legitimately depends on the
    /// schedule (e.g. which Labyrinth routes succeed). The correctness
    /// harness diffs `Some` checksums between a parallel run and a
    /// 1-thread serial reference run.
    fn checksum(&self, _stm: &Stm, _ctx: &mut Ctx<'_>) -> Option<u64> {
        None
    }
}

/// The eight applications of the STAMP suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Bayesian network structure learning.
    Bayes,
    /// Gene sequencing by segment overlap matching.
    Genome,
    /// Network packet reassembly and signature matching.
    Intruder,
    /// K-means clustering.
    Kmeans,
    /// Lee-routing maze router.
    Labyrinth,
    /// Scalable graph kernel (SSCA2).
    Ssca2,
    /// Travel reservation system over four tables.
    Vacation,
    /// Delaunay mesh refinement.
    Yada,
}

impl AppKind {
    /// Every application, in STAMP's canonical order.
    pub const ALL: [AppKind; 8] = [
        AppKind::Bayes,
        AppKind::Genome,
        AppKind::Intruder,
        AppKind::Kmeans,
        AppKind::Labyrinth,
        AppKind::Ssca2,
        AppKind::Vacation,
        AppKind::Yada,
    ];

    /// The six applications the paper's Fig. 7 discusses (Kmeans and SSCA2
    /// are excluded there for <5 % allocator influence).
    pub const FIG7: [AppKind; 6] = [
        AppKind::Bayes,
        AppKind::Genome,
        AppKind::Intruder,
        AppKind::Labyrinth,
        AppKind::Vacation,
        AppKind::Yada,
    ];

    /// Display name, as printed in tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Bayes => "Bayes",
            AppKind::Genome => "Genome",
            AppKind::Intruder => "Intruder",
            AppKind::Kmeans => "Kmeans",
            AppKind::Labyrinth => "Labyrinth",
            AppKind::Ssca2 => "SSCA2",
            AppKind::Vacation => "Vacation",
            AppKind::Yada => "Yada",
        }
    }

    /// Command-line token (`--app ssca2`), the kind's one spelling: `--app`
    /// matches it exactly, and the usage text takes it from
    /// [`AppKind::ALL`].
    pub fn token(self) -> &'static str {
        match self {
            AppKind::Bayes => "bayes",
            AppKind::Genome => "genome",
            AppKind::Intruder => "intruder",
            AppKind::Kmeans => "kmeans",
            AppKind::Labyrinth => "labyrinth",
            AppKind::Ssca2 => "ssca2",
            AppKind::Vacation => "vacation",
            AppKind::Yada => "yada",
        }
    }
}
