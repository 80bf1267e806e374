//! # tm-sim — deterministic virtual-time multicore simulator
//!
//! This crate is the hardware substrate for the allocator/STM interaction
//! study. The reproduction targets an 8-core Intel Xeon E5405 (2 sockets of
//! 4 cores, per-core 32 KB L1, per-socket shared 6 MB L2); since such a
//! machine is not available, this crate models it in *virtual time*:
//!
//! * **Logical threads** run one at a time — as fibers on the calling OS
//!   thread, or on OS threads passing a baton — under a conservative
//!   discrete-event scheduler: only the thread whose virtual clock is
//!   globally minimal may execute its next event, and whatever a thread
//!   does between two events, host-side work included, it does alone. Given
//!   seeded workloads, execution is fully deterministic regardless of host
//!   scheduling — even on a single physical CPU.
//! * **Simulated memory** is a sparse 64-bit address space. Every load,
//!   store and atomic performed through [`Ctx`] is charged cycles by a
//!   set-associative cache hierarchy with an invalidation-based coherence
//!   model, so cache locality and false sharing have mechanistic costs.
//! * **Simulated locks** ([`SimMutex`]) implement blocking mutual exclusion
//!   in virtual time, so lock contention (e.g. a Glibc-style per-arena lock)
//!   shows up as queueing delay in the measured virtual runtime.
//!
//! The top-level entry point is [`Sim::run`], which executes one closure per
//! logical thread and returns a [`SimReport`] with the virtual runtime and
//! cache/lock statistics.
//!
//! ```
//! use tm_sim::{MachineConfig, Sim};
//!
//! let sim = Sim::new(MachineConfig::xeon_e5405());
//! let report = sim.run(4, |ctx| {
//!     let addr = 0x1000 + ctx.tid() as u64 * 64;
//!     for i in 0..100u64 {
//!         ctx.write_u64(addr, i);
//!         assert_eq!(ctx.read_u64(addr), i);
//!     }
//! });
//! assert!(report.cycles > 0);
//! ```

#![deny(missing_docs)]

mod cache;
mod config;
mod exec;
mod fiber;
mod hash;
mod machine;
mod memory;
mod report;

pub use cache::{CacheConfig, CacheStats, HtmAbort};
pub use config::{CostModel, MachineConfig};
pub use exec::{
    check_exec_env, Ctx, SchedHook, Sim, SimSnapshot, TurnCell, CLOCK_BITS, FUEL_EXHAUSTED,
};
pub use hash::{IntHasher, IntMap};
pub use machine::{LockStats, SimMutex};
pub use report::SimReport;
pub use tm_obs::{Event, EventKind, Trace};

/// Cache line size in bytes used throughout the model (the paper's machine
/// and virtually all x86 parts use 64-byte lines).
pub const LINE: u64 = 64;
