//! # tm-stm — a word-based, time-based, blocking STM
//!
//! A reimplementation of the STM design the paper evaluates (TinySTM 1.0.4
//! with its default configuration, §4): encounter-time locking (ETL) with a
//! write-back redo log, a global version clock, and the SUICIDE contention
//! management strategy (the transaction that detects the conflict aborts
//! itself and restarts immediately).
//!
//! Conflict detection uses an **ownership record table** (ORT) of `2^20`
//! versioned locks. The table lives in *simulated memory*, so every probe
//! goes through the cache model — lowering the stripe shift really does
//! increase L1 pressure, as the paper observes in §5.4. A memory address
//! maps to its versioned lock as
//!
//! ```text
//! ort_index = (addr >> shift) % ort_size        // shift = 5 by default
//! ```
//!
//! which makes 2^shift consecutive bytes share one lock — the interaction
//! surface with the allocators' block spacing and region alignment that the
//! whole study is about (Fig. 5).
//!
//! Transactional memory management follows the paper's §2: an allocator
//! wrapper annotates transactional allocations (undone on abort) and defers
//! frees to commit time. The optional object cache (see [`alloc`])
//! implements the §6.2 optimization: aborted allocations and committed
//! frees are kept in a thread-local pool instead of going back to the
//! system allocator.
//!
//! ```
//! use std::sync::Arc;
//! use tm_sim::{MachineConfig, Sim};
//! use tm_alloc::AllocatorKind;
//! use tm_stm::{Stm, StmConfig};
//!
//! let sim = Sim::new(MachineConfig::xeon_e5405());
//! let alloc = AllocatorKind::TbbMalloc.build(&sim);
//! let stm = Stm::new(&sim, Arc::clone(&alloc), StmConfig::default());
//!
//! // One shared counter, incremented transactionally by 4 threads.
//! let counter = 0x4000_0000u64;
//! sim.run(4, |ctx| {
//!     let mut th = stm.thread(ctx.tid());
//!     for _ in 0..10 {
//!         stm.txn(ctx, &mut th, |tx, ctx| {
//!             let v = tx.read(ctx, counter)?;
//!             tx.write(ctx, counter, v + 1)
//!         });
//!     }
//!     stm.retire(th);
//! });
//! sim.with_state(|m| assert_eq!(m.read_u64(counter), 40));
//! ```

#![deny(missing_docs)]

pub mod alloc;
mod backend;
mod cm;
mod stack;
mod stats;
mod table;
mod tx;

pub use backend::BackendKind;
pub use cm::{CmKind, CmStats, CmSwitch};
pub use stack::Stack;
pub use stats::{AbortCause, StmStats};
pub use tx::{Abort, Tx, TxThread};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tm_alloc::Allocator;
use tm_sim::{Ctx, IntMap, Sim};

/// When are versioned locks acquired? The paper's two representative
/// word-based designs (§2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockDesign {
    /// Encounter-time locking (TinySTM default): writers take the stripe
    /// lock at the first write. Conflicts surface early.
    Etl,
    /// Commit-time locking (TL2-style): writes are buffered; all stripe
    /// locks are acquired at commit, in one short burst.
    Ctl,
}

/// Where transactional writes land before commit (TinySTM's two write
/// strategies; only meaningful with encounter-time locking).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteMode {
    /// Write-back: values are buffered in a redo log and land in memory at
    /// commit (TinySTM's default, the paper's configuration).
    Back,
    /// Write-through: values hit memory immediately under the stripe lock;
    /// aborts restore from an undo log. Cheaper commits, dearer aborts.
    Through,
}

/// How an address maps to its ORT entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrtHash {
    /// The paper's function: `(addr >> shift) % size`. Discards high bits —
    /// the source of the 64 MB-arena aliasing of §5.2.
    ShiftMod,
    /// Multiplicative mixing of the stripe number (the fix investigated in
    /// Riegel's thesis, which the paper cites): high bits participate, so
    /// aligned regions no longer collide — at the cost of destroying
    /// stripe-adjacency locality in the table.
    Mix,
}

/// Deliberately seeded STM defects, used **only** by the correctness
/// harness (`crates/check`) to prove its interleaving explorer can catch
/// real atomicity violations. Production configurations must use
/// [`InjectedBug::None`] (the default).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InjectedBug {
    /// No defect: the STM behaves as specified.
    #[default]
    None,
    /// Skip the read-set extension (ownership-record re-validation) that
    /// must run before an ETL write acquires a stripe whose version is
    /// newer than the transaction's snapshot. Commit-time validation
    /// treats self-owned stripes as trivially valid, so a transaction
    /// that raced a concurrent commit can publish values computed from
    /// stale reads — the classic lost-update anomaly.
    SkipWriteValidation,
    /// Skip the read-set extension on the read path when a stripe's
    /// version is newer than the snapshot, admitting torn (unserializable)
    /// read snapshots.
    SkipReadValidation,
    /// NOrec only: when the commit-time sequence-lock CAS loses a race with
    /// a concurrent committer, refresh the snapshot *without* value-
    /// validating the read set. Reads taken under the stale snapshot are
    /// trusted, so the transaction can publish values computed from data
    /// another commit already changed — NOrec's analogue of the ETL
    /// lost-update bug.
    NorecStaleSnapshot,
    /// Apply a transactional `free` immediately at the call site instead of
    /// deferring it to commit plus quiescence. The freed object becomes
    /// visible to the allocator (and thus to concurrent `malloc`s) before
    /// the freeing transaction commits — and the free survives even if that
    /// transaction aborts, so live, still-published memory can be recycled
    /// and overwritten.
    TxAllocEarlyFree,
    /// Contention management: a committing transaction that holds the
    /// global serialization token forgets to release it. Every later
    /// escalation to [`CmKind::Serialize`] then spins on a token nobody
    /// holds — a virtual-time livelock (caught by the simulator's fuel
    /// bound), or a token-word leak observable at quiescence.
    SerializeTokenLeak,
    /// Allocation-failure path: an [`AbortCause::AllocFailed`] rollback
    /// forgets to unwind the transactional allocation journal, so every
    /// block the failing transaction had already obtained leaks. The
    /// every-site OOM sweep (`crates/mc`) must catch this through the heap
    /// auditor and shrink it to the minimal failing allocation site.
    LeakOnAllocFail,
}

impl InjectedBug {
    /// Is this defect meaningful under `backend`? The ETL validation-skip
    /// faults live in ETL-only code paths, the stale-snapshot fault in the
    /// NOrec commit path; the allocation and contention-management faults
    /// sit above the backend and compose with all of them.
    pub fn applies_to(self, backend: BackendKind) -> bool {
        match self {
            InjectedBug::None
            | InjectedBug::TxAllocEarlyFree
            | InjectedBug::SerializeTokenLeak
            | InjectedBug::LeakOnAllocFail => true,
            InjectedBug::SkipWriteValidation | InjectedBug::SkipReadValidation => {
                backend == BackendKind::Etl
            }
            InjectedBug::NorecStaleSnapshot => backend == BackendKind::Norec,
        }
    }

    /// Short stable token used in reports and mutant labels.
    pub fn name(self) -> &'static str {
        match self {
            InjectedBug::None => "none",
            InjectedBug::SkipWriteValidation => "skip-write-validation",
            InjectedBug::SkipReadValidation => "skip-read-validation",
            InjectedBug::NorecStaleSnapshot => "norec-stale-snapshot",
            InjectedBug::TxAllocEarlyFree => "tx-alloc-early-free",
            InjectedBug::SerializeTokenLeak => "serialize-token-leak",
            InjectedBug::LeakOnAllocFail => "leak-on-alloc-fail",
        }
    }
}

/// log2 of the ORT entry count of every STM (TinySTM's default).
pub const ORT_BITS: u32 = 20;

/// STM configuration knobs exercised by the paper (plus the design
/// extensions: backend, lock acquisition time and ORT hashing).
#[derive(Clone, Debug)]
pub struct StmConfig {
    /// Concurrency-control backend (default: the paper's ownership-table
    /// ETL design). The `shift`/`design`/`write_mode`/`ort_hash` knobs
    /// below only affect [`BackendKind::Etl`].
    pub backend: BackendKind,
    /// Contention-management policy (default: the paper's SUICIDE). The
    /// CM layer sits above the backend — it reacts to aborts in the retry
    /// loop — so every [`CmKind`] composes with every [`BackendKind`].
    pub cm: CmKind,
    /// Stripe shift: `2^shift` consecutive bytes map to one versioned lock.
    /// The paper's default is 5 (32-byte stripes); Fig. 6 sweeps 4.
    pub shift: u32,
    /// Enable the transactional object cache of §6.2 (Table 7).
    pub object_cache: bool,
    /// Lock acquisition design (default: ETL, the paper's configuration).
    pub design: LockDesign,
    /// Write strategy (default: write-back, the paper's configuration).
    /// `Through` requires `design == Etl`.
    pub write_mode: WriteMode,
    /// ORT mapping function (default: the paper's shift-and-modulo).
    pub ort_hash: OrtHash,
    /// Deliberately seeded defect for the correctness harness (default:
    /// [`InjectedBug::None`]). Never set outside `crates/check` tests.
    pub bug: InjectedBug,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            backend: BackendKind::Etl,
            cm: CmKind::Suicide,
            shift: 5,
            object_cache: false,
            design: LockDesign::Etl,
            write_mode: WriteMode::Back,
            ort_hash: OrtHash::ShiftMod,
            bug: InjectedBug::None,
        }
    }
}

impl StmConfig {
    /// The one statement of which knob combinations the STM runs: `Ok` for
    /// a configuration [`Stm::new`] accepts, else why not (it panics with
    /// this message). A stripe shift must leave address bits to map,
    /// write-through needs encounter-time locking, the design and
    /// write-mode knobs belong to the ETL backend, and a seeded bug must
    /// live in the configured backend's code.
    pub fn check(&self) -> Result<(), String> {
        if self.shift >= 64 {
            return Err(format!(
                "bad --shift '{}' (a stripe shift is below 64)",
                self.shift
            ));
        }
        if self.write_mode == WriteMode::Through && self.design == LockDesign::Ctl {
            return Err("--write-through requires encounter-time locking, not --ctl".into());
        }
        if self.backend != BackendKind::Etl
            && (self.design != LockDesign::Etl || self.write_mode != WriteMode::Back)
        {
            return Err(format!(
                "--ctl and --write-through apply to the etl backend only, not {}",
                self.backend.name()
            ));
        }
        if !self.bug.applies_to(self.backend) {
            return Err(format!(
                "injected bug {} does not apply to backend {}",
                self.bug.name(),
                self.backend.name()
            ));
        }
        Ok(())
    }
}

/// The STM instance: ORT, global clock, allocator binding and statistics.
pub struct Stm {
    pub(crate) cfg: StmConfig,
    /// Simulated address of the global serialization token word, allocated
    /// only when `cfg.cm` can reach [`CmKind::Serialize`] (an unconditional
    /// allocation would shift every downstream simulated address and break
    /// byte-identity of default-configuration artifacts). 0 when absent.
    pub(crate) serialize_token: u64,
    /// Base simulated address of the ORT (entries are 8-byte words).
    pub(crate) ort_base: u64,
    pub(crate) ort_mask: u64,
    /// Simulated address of the global version clock.
    pub(crate) clock_addr: u64,
    pub(crate) allocator: Arc<dyn Allocator>,
    /// Host-side bookkeeping (see `Host`). No guard is held across a
    /// `Ctx` call: the event may hand the turn to a peer that locks it too.
    pub(crate) host: Mutex<Host>,
    /// Instance id a [`StmHostSnapshot`] carries back to
    /// [`Stm::restore_host`].
    id: u64,
    /// Simulated base address of the per-thread snapshot array (one cache
    /// line per thread; 0 means idle, else snapshot+1). Drives
    /// quiescence-based reclamation: a transactionally-freed block reaches
    /// the allocator only once every in-flight snapshot postdates the free,
    /// so doomed readers can never observe recycled memory — TinySTM's
    /// epoch GC, reproduced. Living in simulated memory keeps reclamation
    /// decisions deterministic and charges their true cost.
    pub(crate) active_base: u64,
    pub(crate) cores: usize,
    /// Optional observer of transaction boundaries: called with
    /// `(tid, true)` when a thread enters `txn` and `(tid, false)` when it
    /// leaves. Used by the Table 5 instrumentation to attribute allocator
    /// calls to the `tx` region.
    tx_hook: std::sync::OnceLock<Arc<dyn Fn(usize, bool) + Send + Sync>>,
}

impl Stm {
    /// Create an STM over `sim`'s machine, binding `allocator` for
    /// transactional memory management. The ORT and the clock are placed in
    /// simulated memory. Panics with [`StmConfig::check`]'s message on a
    /// configuration the STM does not run.
    pub fn new(sim: &Sim, allocator: Arc<dyn Allocator>, cfg: StmConfig) -> Self {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        let entries = 1u64 << ORT_BITS;
        let cores = sim.config().cores;
        let (ort_base, clock_addr, active_base, serialize_token) = sim.with_state(|m| {
            let ort = m.os_alloc(entries * 8, 64);
            // The clock gets its own cache line, as does each thread's
            // active-snapshot word.
            let clock = m.os_alloc(64, 64);
            let active = m.os_alloc(cores as u64 * 64, 64);
            // The serialization token is allocated only for configurations
            // that can reach it, so default runs keep the exact historical
            // address layout.
            let token = if cfg.cm.needs_token() {
                m.os_alloc(64, 64)
            } else {
                0
            };
            (ort, clock, active, token)
        });
        Stm {
            serialize_token,
            cfg,
            ort_base,
            ort_mask: entries - 1,
            clock_addr,
            allocator,
            host: Mutex::default(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            active_base,
            cores,
            tx_hook: std::sync::OnceLock::new(),
        }
    }

    /// Install the transaction-boundary observer (set once, before use).
    pub fn set_tx_hook(&self, hook: Arc<dyn Fn(usize, bool) + Send + Sync>) {
        let _ = self.tx_hook.set(hook);
    }

    /// Simulated address of the global serialization token word, or 0 when
    /// the configured contention manager can never serialize. At any
    /// quiescent point the word must read 0 (no transaction in flight can
    /// hold the token); the model checker asserts this to catch token
    /// leaks.
    pub fn serialize_token_addr(&self) -> u64 {
        self.serialize_token
    }

    /// Simulated address of thread `tid`'s active-snapshot word.
    #[inline]
    pub(crate) fn active_addr(&self, tid: usize) -> u64 {
        self.active_base + tid as u64 * 64
    }

    /// The oldest snapshot any in-flight transaction may hold; blocks freed
    /// before this timestamp are safe to hand to the allocator. The scan
    /// reads simulated memory, so it is deterministic and costed.
    pub(crate) fn safe_timestamp(&self, ctx: &mut Ctx<'_>) -> u64 {
        let mut min = u64::MAX;
        for t in 0..self.cores {
            let w = ctx.read_u64(self.active_addr(t));
            if w != 0 {
                min = min.min(w - 1);
            }
        }
        min
    }

    /// Force-drain all limbo blocks. Only valid at a quiescent point (no
    /// transactions in flight on any thread) — e.g. between benchmark
    /// phases or at the end of a run with a retired `TxThread`.
    pub fn quiesce(&self, ctx: &mut Ctx<'_>) {
        let entries = std::mem::take(&mut self.host.lock().limbo);
        for (_, addr, _) in entries {
            if self.cfg.object_cache {
                // Only object-cache runs register sizes (see `Tx::malloc`).
                self.host.lock().sizes.remove(&addr);
            }
            self.allocator.free(ctx, addr);
        }
    }

    /// Map an address to the simulated address of its versioned lock word,
    /// per the configured [`OrtHash`].
    #[inline]
    pub fn lock_addr_for(&self, addr: u64) -> u64 {
        let stripe = addr >> self.cfg.shift;
        let idx = match self.cfg.ort_hash {
            OrtHash::ShiftMod => stripe & self.ort_mask,
            OrtHash::Mix => (stripe.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) & self.ort_mask,
        };
        self.ort_base + 8 * idx
    }

    /// Create per-thread transaction state. One per worker thread. It is
    /// built on the buffers of a retired descriptor when there is one, so a
    /// warm STM hands out descriptors without allocating; every field but
    /// the emptied buffers starts as in a fresh one.
    pub fn thread(&self, tid: usize) -> TxThread {
        let (object_cache, cm) = (self.cfg.object_cache, self.cfg.cm);
        let spare = self.host.lock().spares.pop();
        match spare {
            Some(buffers) => TxThread::with_buffers(tid, object_cache, cm, buffers),
            None => TxThread::new(tid, object_cache, cm),
        }
    }

    /// Fold a finished worker's statistics and switch log into the global
    /// tally, take over its limbo list (freed by [`Stm::quiesce`]), and
    /// keep its emptied buffers for the next [`Stm::thread`]. Call at the
    /// end of the worker closure.
    pub fn retire(&self, mut th: TxThread) {
        let mut host = self.host.lock();
        host.stats.merge(&th.stats);
        host.cm_stats.merge(&th.cm_stats);
        let tid = th.tid;
        host.switches
            .extend(th.switch_log.drain(..).map(|s| (tid, s)));
        host.limbo.append(&mut th.limbo);
        host.spares.push(th.into_buffers());
    }

    /// Run `body` as a transaction, retrying on conflicts. How an abort is
    /// answered — restart pause, priority, serialization — is decided by
    /// the configured [`CmKind`] (default: the paper's SUICIDE, abort self
    /// and restart immediately). Returns the body's result once a commit
    /// succeeds.
    ///
    /// Panics if [`Tx::try_malloc`] keeps failing past the contention
    /// manager's [`CmKind::alloc_retry_budget`] — use [`Stm::try_txn`] to
    /// handle persistent allocation failure gracefully.
    pub fn txn<R>(
        &self,
        ctx: &mut Ctx<'_>,
        th: &mut TxThread,
        body: impl FnMut(&mut Tx<'_>, &mut Ctx<'_>) -> Result<R, Abort>,
    ) -> R {
        match self.try_txn(ctx, th, body) {
            Ok(r) => r,
            Err(e) => panic!(
                "transaction gave up after repeated allocation failures: {e} \
                 (use Stm::try_txn to handle exhaustion)"
            ),
        }
    }

    /// Like [`Stm::txn`], but surfaces persistent allocation failure
    /// instead of panicking. A failed [`Tx::try_malloc`] aborts the
    /// attempt with [`AbortCause::AllocFailed`] — the journal is unwound,
    /// all locks released — and the contention manager paces a bounded
    /// number of retries ([`CmKind::alloc_retry_budget`]); transient
    /// exhaustion (another thread frees between attempts) commits on a
    /// retry, while persistent exhaustion propagates the allocator's
    /// error after the budget is spent. Other abort causes reset the
    /// budget and retry forever, exactly as [`Stm::txn`] does.
    pub fn try_txn<R>(
        &self,
        ctx: &mut Ctx<'_>,
        th: &mut TxThread,
        mut body: impl FnMut(&mut Tx<'_>, &mut Ctx<'_>) -> Result<R, Abort>,
    ) -> Result<R, tm_alloc::AllocError> {
        if let Some(hook) = self.tx_hook.get() {
            hook(th.tid, true);
        }
        let r = self.txn_inner(ctx, th, &mut body);
        if let Some(hook) = self.tx_hook.get() {
            hook(th.tid, false);
        }
        r
    }

    fn txn_inner<R>(
        &self,
        ctx: &mut Ctx<'_>,
        th: &mut TxThread,
        body: &mut impl FnMut(&mut Tx<'_>, &mut Ctx<'_>) -> Result<R, Abort>,
    ) -> Result<R, tm_alloc::AllocError> {
        th.retries = 0;
        let mut alloc_failures = 0u32;
        cm::txn_start(th, ctx);
        loop {
            backend::begin(self, th, ctx);
            let mut tx = Tx::new(self, th);
            match body(&mut tx, ctx) {
                Ok(r) => {
                    if tx.commit(ctx) {
                        cm::after_commit(self, th, ctx);
                        return Ok(r);
                    }
                    // Commit-time validation failed; roll back and retry.
                    // Backends that can attribute the failure more
                    // precisely (sim-HTM's capacity/coherence dooms)
                    // refine the recorded cause in their rollback hook.
                    backend::rollback(self, th, ctx, AbortCause::Validation);
                    alloc_failures = 0;
                }
                Err(Abort::Conflict(cause)) => {
                    backend::rollback(self, th, ctx, cause);
                    if cause == AbortCause::AllocFailed {
                        alloc_failures += 1;
                        if alloc_failures >= self.cfg.cm.alloc_retry_budget() {
                            // Retrying has not changed the allocator's
                            // answer; unwind finished in the rollback above,
                            // so hand the stashed error to the caller.
                            cm::propagate_alloc_failure(self, th, ctx);
                            return Err(th
                                .last_alloc_error
                                .take()
                                .expect("an AllocFailed abort stashes its error"));
                        }
                    } else {
                        alloc_failures = 0;
                    }
                }
                Err(Abort::Explicit) => {
                    backend::rollback(self, th, ctx, AbortCause::Explicit);
                    // Explicit retry: re-run (the workload asked for it).
                    alloc_failures = 0;
                }
            }
            cm::after_abort(self, th, ctx);
        }
    }

    /// Global statistics snapshot (retired threads only).
    pub fn stats(&self) -> StmStats {
        self.host.lock().stats
    }

    /// Global contention-management statistics snapshot (retired threads
    /// only; all-zero under the default SUICIDE configuration).
    pub fn cm_stats(&self) -> CmStats {
        self.host.lock().cm_stats
    }

    /// Every adaptive-controller policy switch taken by retired threads,
    /// as `(tid, switch)` sorted by `(tid, window)` — a deterministic
    /// transcript of the controller's behaviour.
    pub fn cm_switches(&self) -> Vec<(usize, CmSwitch)> {
        let mut log = self.host.lock().switches.clone();
        log.sort_by_key(|(tid, s)| (*tid, s.window));
        log
    }

    /// Reset global statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&self) {
        let mut host = self.host.lock();
        host.stats = StmStats::default();
        host.cm_stats = CmStats::default();
        host.switches.clear();
    }

    /// The bound allocator.
    pub fn allocator(&self) -> &Arc<dyn Allocator> {
        &self.allocator
    }

    /// Stripe size in bytes implied by the configured shift.
    pub fn stripe_bytes(&self) -> u64 {
        1 << self.cfg.shift
    }

    /// Capture the STM's **host-side** bookkeeping — a clone of its
    /// `Host` — so [`Stm::restore_host`] can rewind it. The simulated half
    /// (ORT, version clock, active-snapshot array, serialization token)
    /// lives in machine memory and is the machine snapshot's to capture;
    /// pair this with `Sim::snapshot`. Call only at quiescence (no workers
    /// in flight, every `TxThread` retired). The `tx_hook` and the spare
    /// descriptor buffers are deliberately excluded: set-once
    /// configuration and a host-side cache, not run state.
    pub fn snapshot_host(&self) -> StmHostSnapshot {
        StmHostSnapshot {
            id: self.id,
            host: self.host.lock().clone(),
        }
    }

    /// Rewind host-side bookkeeping to a [`Stm::snapshot_host`] capture
    /// taken from this STM; panics on another STM's. Call only at
    /// quiescence.
    pub fn restore_host(&self, snap: &StmHostSnapshot) {
        assert!(snap.id == self.id, "restore of a foreign STM host snapshot");
        self.host.lock().clone_from(&snap.host);
    }
}

/// Source of instance ids: a host snapshot names the STM it was taken from.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// The STM's host-side bookkeeping, plain data behind one lock. Host work
/// between two simulated events runs alone (DESIGN.md §4.1), so the lock is
/// never contended; a snapshot is a clone.
#[derive(Default)]
struct Host {
    /// Retired threads' tallies, folded with [`StmStats::merge`].
    stats: StmStats,
    /// Retired threads' contention-management tallies (all-zero under the
    /// default SUICIDE configuration; see [`CmStats`]).
    cm_stats: CmStats,
    /// Adaptive-controller switch points surrendered by retired threads,
    /// as `(tid, switch)`; [`Stm::cm_switches`] sorts them.
    switches: Vec<(usize, CmSwitch)>,
    /// Sizes of live transactionally-allocated blocks, which the object
    /// cache needs at free time. Only touched when `cfg.object_cache` is on.
    sizes: IntMap<u64, u64>,
    /// Limbo blocks from retired threads, (free timestamp, addr, size).
    limbo: Vec<(u64, u64, Option<u64>)>,
    /// Buffers of retired descriptors, which [`Stm::thread`] hands to the
    /// next ones. A cache, not state: a clone (a host snapshot) starts
    /// without spares, and `clone_from` (a restore) keeps its own.
    spares: Vec<tx::Buffers>,
}

impl Clone for Host {
    fn clone(&self) -> Host {
        Host {
            stats: self.stats,
            cm_stats: self.cm_stats,
            switches: self.switches.clone(),
            sizes: self.sizes.clone(),
            limbo: self.limbo.clone(),
            spares: Vec::new(),
        }
    }

    /// Field by field, into the buffers `self` already has. Every field is
    /// named, so a new one does not compile until it is rewound here too.
    fn clone_from(&mut self, src: &Host) {
        let Host {
            stats,
            cm_stats,
            switches,
            sizes,
            limbo,
            spares: _,
        } = src;
        self.stats = *stats;
        self.cm_stats = *cm_stats;
        self.switches.clone_from(switches);
        self.sizes.clone_from(sizes);
        self.limbo.clone_from(limbo);
    }
}

/// Frozen host-side STM bookkeeping from [`Stm::snapshot_host`]. Opaque:
/// only meaningful to [`Stm::restore_host`] on the same instance.
pub struct StmHostSnapshot {
    id: u64,
    host: Host,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_alloc::AllocatorKind;
    use tm_sim::MachineConfig;

    fn setup(shift: u32) -> (Sim, Stm) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let alloc = AllocatorKind::TbbMalloc.build(&sim);
        let stm = Stm::new(
            &sim,
            alloc,
            StmConfig {
                shift,
                ..StmConfig::default()
            },
        );
        (sim, stm)
    }

    #[test]
    fn mapping_function_matches_paper() {
        let (_sim, stm) = setup(5);
        // 32 consecutive bytes share one lock.
        assert_eq!(stm.lock_addr_for(0x1000), stm.lock_addr_for(0x101f));
        assert_ne!(stm.lock_addr_for(0x1000), stm.lock_addr_for(0x1020));
        // The table covers 2^20 stripes of 32 bytes → wraps every 32 MB.
        let wrap = (1u64 << 20) << 5;
        assert_eq!(stm.lock_addr_for(0x1000), stm.lock_addr_for(0x1000 + wrap));
    }

    #[test]
    fn shift4_halves_the_stripe() {
        let (_sim, stm) = setup(4);
        assert_eq!(stm.stripe_bytes(), 16);
        assert_eq!(stm.lock_addr_for(0x1000), stm.lock_addr_for(0x100f));
        assert_ne!(stm.lock_addr_for(0x1000), stm.lock_addr_for(0x1010));
    }

    #[test]
    fn glibc_arena_aliasing_reproduces() {
        // The §5.2 anomaly: 64 MB-aligned arenas collapse onto the same ORT
        // entries under shift-and-modulo.
        let (_sim, stm) = setup(5);
        assert_eq!(
            stm.lock_addr_for(0x1800_0000),
            stm.lock_addr_for(0x1c00_0000),
            "blocks at the same offset of 64 MB-apart arenas must alias"
        );
    }

    #[test]
    fn single_thread_counter() {
        let (sim, stm) = setup(5);
        let addr = 0x5000_0000u64;
        sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            for _ in 0..100 {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    tx.write(ctx, addr, v + 1)
                });
            }
            stm.retire(th);
        });
        sim.with_state(|m| assert_eq!(m.read_u64(addr), 100));
        let s = stm.stats();
        assert_eq!(s.commits, 100);
        assert_eq!(s.aborts(), 0);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let (sim, stm) = setup(5);
        let addr = 0x5000_0000u64;
        sim.run(8, |ctx| {
            let mut th = stm.thread(ctx.tid());
            for _ in 0..50 {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    ctx.tick(20);
                    tx.write(ctx, addr, v + 1)
                });
            }
            stm.retire(th);
        });
        sim.with_state(|m| assert_eq!(m.read_u64(addr), 400));
        let s = stm.stats();
        assert_eq!(s.commits, 400);
        assert!(s.aborts() > 0, "8 threads on one counter must conflict");
    }

    #[test]
    fn disjoint_addresses_do_not_conflict() {
        let (sim, stm) = setup(5);
        sim.run(4, |ctx| {
            let addr = 0x6000_0000u64 + ctx.tid() as u64 * 4096; // distinct stripes
            let mut th = stm.thread(ctx.tid());
            for _ in 0..50 {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    tx.write(ctx, addr, v + 1)
                });
            }
            stm.retire(th);
        });
        assert_eq!(stm.stats().aborts(), 0);
    }

    #[test]
    fn false_conflict_on_shared_stripe() {
        // Two addresses 16 bytes apart share a 32-byte stripe: writers
        // conflict even though the data is disjoint — the heart of Fig. 5.
        let (sim, stm) = setup(5);
        sim.run(2, |ctx| {
            let addr = 0x7000_0000u64 + ctx.tid() as u64 * 16;
            let mut th = stm.thread(ctx.tid());
            for _ in 0..50 {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    ctx.tick(50);
                    tx.write(ctx, addr, v + 1)
                });
            }
            stm.retire(th);
        });
        assert!(
            stm.stats().aborts() > 0,
            "stripe-sharing writers must produce false aborts"
        );
        // With shift 4 the same addresses are on different stripes:
        let (sim2, stm2) = setup(4);
        sim2.run(2, |ctx| {
            let addr = 0x7000_0000u64 + ctx.tid() as u64 * 16;
            let mut th = stm2.thread(ctx.tid());
            for _ in 0..50 {
                stm2.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    ctx.tick(50);
                    tx.write(ctx, addr, v + 1)
                });
            }
            stm2.retire(th);
        });
        assert_eq!(stm2.stats().aborts(), 0);
    }

    #[test]
    fn atomicity_under_contention() {
        // Classic invariant test: transfer between two cells keeps the sum.
        let (sim, stm) = setup(5);
        let a = 0x8000_0000u64;
        let b = 0x8000_4000u64;
        sim.with_state(|m| {
            m.write_u64(a, 1000);
            m.write_u64(b, 1000);
        });
        sim.run(4, |ctx| {
            let mut th = stm.thread(ctx.tid());
            for i in 0..25u64 {
                let delta = (i % 7) + 1;
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let va = tx.read(ctx, a)?;
                    let vb = tx.read(ctx, b)?;
                    tx.write(ctx, a, va - delta)?;
                    tx.write(ctx, b, vb + delta)
                });
            }
            stm.retire(th);
        });
        sim.with_state(|m| {
            assert_eq!(m.read_u64(a) + m.read_u64(b), 2000);
        });
    }

    #[test]
    fn read_own_write() {
        let (sim, stm) = setup(5);
        let addr = 0x9000_0000u64;
        sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            stm.txn(ctx, &mut th, |tx, ctx| {
                tx.write(ctx, addr, 42)?;
                assert_eq!(tx.read(ctx, addr)?, 42, "must see own write");
                tx.write(ctx, addr, 43)?;
                assert_eq!(tx.read(ctx, addr)?, 43);
                Ok(())
            });
            stm.retire(th);
        });
        sim.with_state(|m| assert_eq!(m.read_u64(addr), 43));
    }

    #[test]
    fn host_snapshot_rewinds_stats_and_limbo() {
        let (sim, stm) = setup(5);
        let addr = 0xb000_0000u64;
        let work = |sim: &Sim, stm: &Stm| {
            sim.run(2, |ctx| {
                let mut th = stm.thread(ctx.tid());
                for _ in 0..20 {
                    stm.txn(ctx, &mut th, |tx, ctx| {
                        let v = tx.read(ctx, addr)?;
                        ctx.tick(30);
                        tx.write(ctx, addr, v + 1)
                    });
                }
                stm.retire(th);
            });
        };
        work(&sim, &stm);
        let machine = sim.snapshot(None);
        let host = stm.snapshot_host();
        let stats_at_snap = stm.stats();
        work(&sim, &stm);
        assert_eq!(stm.stats().commits, 80, "second run doubled the tally");
        sim.restore(&machine);
        stm.restore_host(&host);
        assert_eq!(stm.stats(), stats_at_snap);
        // Re-running from the restored state reproduces the doubled tally.
        work(&sim, &stm);
        assert_eq!(stm.stats().commits, 80);
        sim.with_state(|m| assert_eq!(m.read_u64(addr), 80));

        // Every `Host` field non-empty: the object cache fills the size map,
        // the adaptive controller logs switches, and the last frees of each
        // thread reach the limbo list at `retire`.
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let alloc = AllocatorKind::TbbMalloc.build(&sim);
        let cfg = StmConfig {
            object_cache: true,
            cm: CmKind::Adaptive,
            ..StmConfig::default()
        };
        let stm = Stm::new(&sim, Arc::clone(&alloc), cfg);
        let work = |sim: &Sim, stm: &Stm| {
            sim.run(8, |ctx| {
                let mut th = stm.thread(ctx.tid());
                let mut held = 0;
                for _ in 0..100 {
                    let prev = held;
                    held = stm.txn(ctx, &mut th, |tx, ctx| {
                        let v = tx.read(ctx, addr)?;
                        ctx.tick(60);
                        tx.write(ctx, addr, v + 1)?;
                        if prev != 0 {
                            tx.free(ctx, prev);
                        }
                        Ok(tx.malloc(ctx, 48))
                    });
                }
                stm.retire(th);
            });
        };
        let view = |stm: &Stm| (stm.stats(), stm.cm_stats(), stm.cm_switches(), sizes(stm));
        work(&sim, &stm);
        let (machine, heap, host) = (sim.snapshot(None), alloc.snapshot(), stm.snapshot_host());
        let at_snap = view(&stm);
        assert!(at_snap.1.switches > 0, "8 threads on one counter escalate");
        assert!(!at_snap.3.is_empty(), "object-cache blocks have sizes");
        assert!(!stm.host.lock().limbo.is_empty(), "frees wait in limbo");
        work(&sim, &stm);
        let after_rerun = view(&stm);
        assert_ne!(after_rerun, at_snap);
        sim.restore(&machine);
        alloc.restore(heap.as_ref().expect("TBB checkpoints"));
        stm.restore_host(&host);
        assert_eq!(view(&stm), at_snap);
        work(&sim, &stm);
        assert_eq!(view(&stm), after_rerun, "the rewound run replays");
    }

    #[test]
    fn a_recycled_descriptor_runs_like_a_fresh_one() {
        let addr = 0xd000_0000u64;
        let stack = || {
            let sim = Sim::new(MachineConfig::xeon_e5405());
            let alloc = AllocatorKind::TbbMalloc.build(&sim);
            let cfg = StmConfig {
                object_cache: true,
                cm: CmKind::Adaptive,
                ..StmConfig::default()
            };
            let stm = Stm::new(&sim, Arc::clone(&alloc), cfg);
            (sim, alloc, stm)
        };
        // Eight threads on one counter, each swapping a block per
        // transaction, whose first attempt restarts on its own: the abort
        // rate walks the adaptive ladder up to Serialize, and a thread that
        // leaves Karma mid-transaction keeps its karma. Returns what the run
        // left (statistics, switches, the counter, every thread's last
        // block) and what each descriptor held when it retired: switches,
        // karma, window attempts, limbo blocks.
        let work = |sim: &Sim, stm: &Stm| {
            let retired = Mutex::new(Vec::new());
            sim.run(8, |ctx| {
                let mut th = stm.thread(ctx.tid());
                let mut held = 0;
                for _ in 0..100 {
                    let prev = held;
                    let mut attempts = 0;
                    held = stm.txn(ctx, &mut th, |tx, ctx| {
                        attempts += 1;
                        let v = tx.read(ctx, addr)?;
                        if attempts == 1 {
                            return Err(Abort::Explicit);
                        }
                        ctx.tick(60);
                        tx.write(ctx, addr, v + 1)?;
                        if prev != 0 {
                            tx.free(ctx, prev);
                        }
                        let block = tx.malloc(ctx, 48);
                        tx.write(ctx, block, v)?;
                        Ok(block)
                    });
                }
                let window = th.window_commits + th.window_aborts;
                let dirt = (th.switch_log.len(), th.karma, window, th.limbo.len());
                retired.lock().push((ctx.tid(), held, dirt));
                stm.retire(th);
            });
            let mut retired = retired.into_inner();
            retired.sort_unstable();
            let memory = sim.with_state(|m| {
                let counter = m.read_u64(addr);
                let blocks: Vec<_> = retired
                    .iter()
                    .map(|&(_, b, _)| (b, m.read_u64(b)))
                    .collect();
                (counter, blocks)
            });
            let view = (stm.stats(), stm.cm_stats(), stm.cm_switches(), memory);
            (view, retired.into_iter().map(|(.., dirt)| dirt))
        };

        let (sim, alloc, stm) = stack();
        let (machine, heap, host) = (sim.snapshot(None), alloc.snapshot(), stm.snapshot_host());
        let (first, dirt) = work(&sim, &stm);
        let dirt: Vec<_> = dirt.collect();
        assert!(
            dirt.iter().any(|d| d.0 > 0),
            "a descriptor retires with switches"
        );
        assert!(
            dirt.iter().any(|d| d.1 > 0),
            "a descriptor retires with karma"
        );
        assert!(
            dirt.iter().any(|d| d.2 > 0),
            "a descriptor retires mid-window"
        );
        assert!(
            dirt.iter().any(|d| d.3 > 0),
            "a descriptor retires with limbo"
        );
        sim.restore(&machine);
        alloc.restore(heap.as_ref().expect("TBB checkpoints"));
        stm.restore_host(&host);
        assert_eq!(
            stm.host.lock().spares.len(),
            8,
            "a restore keeps the spares"
        );
        let (recycled, _) = work(&sim, &stm);

        let (sim, _alloc, stm) = stack();
        let (fresh, _) = work(&sim, &stm);
        assert_eq!(first, fresh);
        assert_eq!(recycled, fresh, "a recycled descriptor carried state over");
    }

    /// The size map, read through the lock (tests only).
    fn sizes(stm: &Stm) -> Vec<(u64, u64)> {
        let mut sizes: Vec<_> = stm
            .host
            .lock()
            .sizes
            .iter()
            .map(|(&a, &s)| (a, s))
            .collect();
        sizes.sort_unstable();
        sizes
    }

    #[test]
    fn a_sibling_stms_host_snapshot_is_refused() {
        let (sim, stm) = setup(5);
        let sibling = Stm::new(&sim, Arc::clone(stm.allocator()), StmConfig::default());
        let commit = |stm: &Stm| {
            sim.run(1, |ctx| {
                let mut th = stm.thread(0);
                stm.txn(ctx, &mut th, |tx, ctx| tx.write(ctx, 0xc000_0000, 1));
                stm.retire(th);
            });
        };
        commit(&stm);
        let (own, foreign) = (stm.snapshot_host(), sibling.snapshot_host());
        commit(&stm);
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stm.restore_host(&foreign)))
                .expect_err("a sibling's snapshot must be refused");
        assert_eq!(
            tm_obs::panic_message(&*refused),
            "restore of a foreign STM host snapshot"
        );
        assert_eq!(stm.stats().commits, 2, "a refused restore changes nothing");
        stm.restore_host(&own);
        assert_eq!(stm.stats().commits, 1);
    }

    #[test]
    fn aborted_writes_are_invisible() {
        let (sim, stm) = setup(5);
        let addr = 0xa000_0000u64;
        sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            let mut first = true;
            stm.txn(ctx, &mut th, |tx, ctx| {
                tx.write(ctx, addr, 99)?;
                if first {
                    first = false;
                    return Err(Abort::Explicit);
                }
                tx.write(ctx, addr, 7)
            });
            stm.retire(th);
        });
        sim.with_state(|m| assert_eq!(m.read_u64(addr), 7));
        assert_eq!(stm.stats().by_cause[AbortCause::Explicit as usize], 1);
    }
}
