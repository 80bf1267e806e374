//! # tm-mc — systematic schedule exploration over virtual time
//!
//! The simulator executes a fixed interleaving for a given delay vector
//! (one virtual-cycle delay per scheduling point), so the schedule space
//! of a transactional program is *enumerable*: model checking reduces to
//! sweeping delay vectors. This crate is the one explorer of the
//! repository, and keeps one of each part:
//!
//! * **One program and runner** ([`program`]): the token-transfer
//!   workloads over [`tm_check::TransferProgram`]'s stream — conservation,
//!   a read-only observer that catches torn snapshots, allocating variants
//!   that catch transactional-memory-management bugs, plus
//!   serialization-token quiescence and event-fuel livelock detection —
//!   and [`run_schedule`], the only from-scratch runner. It is the oracle:
//!   it shares none of the snapshot, journal and dedup machinery below.
//! * **Two strategies** ([`Strategy`]) of one sweep → shrink → verdict
//!   cell body: `Exhaustive`, every delay support of up to `depth`
//!   scheduling points in order of increasing support size
//!   ([`mod@enumerate`]), restricted to conflict-*active* points by the
//!   static footprint relation in [`conflict`] (a DPOR-style
//!   persistent-set argument; skipped schedules are counted as `pruned`,
//!   never silently dropped); and `Random`, seeded uniform delay vectors
//!   (the `kind=explore` rows of `tmstudy check`). Any violating schedule
//!   is shrunk with the proptest machinery ([`shrink_violation`]) to a
//!   minimal delay vector that still fails — replayable by construction
//!   because the whole stack is deterministic.
//! * **One checkpointed session** ([`Session`], [`mod@explore`]): the
//!   stack built and seeded once per cell, every schedule of the cell's
//!   sweep and shrink a restore-and-run from the root checkpoint, with
//!   state-fingerprint dedup on top.
//!
//! [`catalog`] ties it together: one tuned recipe per
//! [`tm_stm::InjectedBug`] variant (the explorer must catch all of
//! them), a clean sweep across every backend × contention-manager
//! combination (which must stay clean), and builders for the
//! `tm-mc-report/v1` artifact `tmstudy mc` writes.
//!
//! [`mod@oom`] sweeps the orthogonal *allocation-failure* axis with the
//! same session over an audited fault-injecting stack: a counting dry run
//! enumerates every allocation site of the fallible [`ProgramKind::Oom`]
//! workload, each site is re-executed from the root checkpoint with
//! exactly that allocation forced to fail, and the `leak-on-alloc-fail`
//! mutant must be caught and shrunk to its minimal failing site. Results
//! ship as the `tm-oom-report/v1` artifact of `tmstudy mc --oom`.

#![deny(missing_docs)]

pub mod catalog;
pub mod conflict;
pub mod enumerate;
pub mod explore;
pub mod oom;
pub mod program;

pub use catalog::{
    check_cells, explore_check_cell, mutation_catalog, quick_clean_config, quick_report_opt,
    run_clean_cell_fault_opt, run_clean_cell_opt, run_mutant_cell_opt, shrink_violation,
    small_program, sparse_program, MutantRecipe, Strategy, SweepWork,
};
pub use conflict::{active_points, footprints, Footprint};
pub use enumerate::{enumerate, space_size, EnumConfig, EnumStats};
pub use explore::{explore, Session, Throughput};
pub use oom::{oom_cell, oom_check_cells, oom_program, oom_quick_report, OomSession};
pub use program::{run_schedule, McProgram, ProgramKind, RunConfig};
