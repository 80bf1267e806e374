//! Transaction descriptors: the per-thread state shared by every
//! [`BackendKind`](crate::BackendKind) (read/write sets, redo/undo
//! logs, transactional malloc/free buffers, limbo-based reclamation and
//! statistics), plus the [`Tx`] handle workloads program against. The
//! concurrency-control protocol itself lives in [`crate::backend`].

use tm_sim::{Ctx, HtmAbort};

use crate::alloc::ObjectCache;
use crate::cm::{CmKind, CmStats, CmSwitch};
use crate::stats::{AbortCause, StmStats};
use crate::table::GenTable;
use crate::Stm;

/// Why control left the transaction body early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Abort {
    /// A conflict was detected; SUICIDE CM restarts the transaction.
    Conflict(AbortCause),
    /// The workload requested a restart (STAMP's `TM_RESTART`).
    Explicit,
}

/// Per-worker transaction state, reused across transactions (TinySTM's
/// thread descriptor). Create with [`Stm::thread`], hand back with
/// [`Stm::retire`] so its statistics are counted and its buffers serve the
/// next descriptor.
pub struct TxThread {
    /// Worker index: the slot of this thread's active-snapshot word, and
    /// the thread its adaptive-controller switches are logged under.
    pub tid: usize,
    /// Snapshot timestamp. ETL: read version from the global clock.
    /// NOrec: last validated (even) sequence number. Sim-HTM: fallback
    /// lock value observed at begin.
    pub(crate) rv: u64,
    /// Read log. ETL: (lock address, version) pairs. NOrec: (address,
    /// value) pairs. Sim-HTM: unused (the cache model is the read set).
    pub(crate) read_set: Vec<(u64, u64)>,
    pub(crate) write_entries: Vec<(u64, u64)>,
    /// Write-set index: addr → position in `write_entries`. Generation
    /// stamped, so `begin` clears it in O(1).
    pub(crate) wmap: GenTable,
    pub(crate) locks_held: Vec<(u64, u64)>,
    /// Stripe locks owned by the current transaction (set-style GenTable).
    pub(crate) lockset: GenTable,
    /// Write-through undo log: (addr, pre-image), restored in reverse on
    /// abort.
    pub(crate) undo: Vec<(u64, u64)>,
    pub(crate) tx_allocs: Vec<(u64, u64)>,
    pub(crate) tx_frees: Vec<u64>,
    /// Blocks freed by committed transactions, awaiting quiescence:
    /// (free timestamp, addr, size if known).
    pub(crate) limbo: Vec<(u64, u64, Option<u64>)>,
    /// Recycled scratch for `drain_limbo`'s keep list, so steady-state
    /// reclamation allocates nothing on the host.
    limbo_scratch: Vec<(u64, u64, Option<u64>)>,
    /// Per-thread LCG driving abort backoff (see `Stm::txn`).
    pub(crate) backoff_state: u64,
    /// Consecutive aborts of the current transaction.
    pub(crate) retries: u32,
    /// Sim-HTM: first doom notice observed for the current attempt
    /// (host-side mirror of the cache model's flag, so already-doomed
    /// attempts stop without further simulated events).
    pub(crate) htm_doom: Option<HtmAbort>,
    /// Sim-HTM: this attempt runs under the serial-irrevocable fallback
    /// lock.
    pub(crate) htm_irrevocable: bool,
    pub(crate) stats: StmStats,
    pub(crate) cache: Option<ObjectCache>,
    /// The allocator error behind the most recent
    /// [`AbortCause::AllocFailed`] abort, stashed by [`Tx::try_malloc`] so
    /// [`Stm::try_txn`](crate::Stm::try_txn) can propagate the real cause
    /// once the retry budget is spent.
    pub(crate) last_alloc_error: Option<tm_alloc::AllocError>,
    /// Contention-management policy currently reacting to this thread's
    /// aborts (fixed for static [`CmKind`]s; walked up and down the
    /// escalation ladder by [`CmKind::Adaptive`]).
    pub(crate) cm_active: CmKind,
    /// Karma CM: footprint accumulated across aborted attempts of the
    /// current transaction; reset at commit.
    pub(crate) karma: u64,
    /// Timestamp CM: virtual time of the current transaction's first
    /// attempt.
    pub(crate) cm_start: u64,
    /// Serialize CM: this thread owns the global serialization token.
    pub(crate) holds_token: bool,
    /// Per-policy commit/abort tallies and controller activity.
    pub(crate) cm_stats: CmStats,
    /// Adaptive controller: commits in the current abort-rate window.
    pub(crate) window_commits: u32,
    /// Adaptive controller: aborts in the current abort-rate window.
    pub(crate) window_aborts: u32,
    /// Adaptive controller: index of the current window.
    pub(crate) windows: u32,
    /// Adaptive controller: `stats` snapshot at the current window's start
    /// (per-cause deltas drive the NOrec-affinity hint).
    pub(crate) window_base: StmStats,
    /// Adaptive controller: every policy switch this thread took, in
    /// order. Compared bit-for-bit by the determinism tests.
    pub(crate) switch_log: Vec<CmSwitch>,
}

/// The host allocations a retired descriptor hands to its successor: every
/// growable buffer of a [`TxThread`], emptied. Nothing else carries over —
/// [`TxThread::with_buffers`] builds every other field afresh. The buffers'
/// capacities are host-side only (a [`GenTable`] has no iteration), so a
/// buffer that grew in an earlier run changes nothing simulated.
pub(crate) struct Buffers {
    read_set: Vec<(u64, u64)>,
    write_entries: Vec<(u64, u64)>,
    wmap: GenTable,
    locks_held: Vec<(u64, u64)>,
    lockset: GenTable,
    undo: Vec<(u64, u64)>,
    tx_allocs: Vec<(u64, u64)>,
    tx_frees: Vec<u64>,
    limbo: Vec<(u64, u64, Option<u64>)>,
    limbo_scratch: Vec<(u64, u64, Option<u64>)>,
    switch_log: Vec<CmSwitch>,
}

impl Buffers {
    fn fresh() -> Self {
        Buffers {
            read_set: Vec::with_capacity(256),
            write_entries: Vec::with_capacity(64),
            wmap: GenTable::new(),
            locks_held: Vec::with_capacity(64),
            lockset: GenTable::new(),
            undo: Vec::new(),
            tx_allocs: Vec::new(),
            tx_frees: Vec::new(),
            limbo: Vec::new(),
            limbo_scratch: Vec::new(),
            switch_log: Vec::new(),
        }
    }
}

impl TxThread {
    /// A descriptor on freshly allocated buffers.
    pub(crate) fn new(tid: usize, object_cache: bool, cm: CmKind) -> Self {
        Self::with_buffers(tid, object_cache, cm, Buffers::fresh())
    }

    /// The one constructor: `buffers` (empty) plus every other field in
    /// its initial state.
    pub(crate) fn with_buffers(
        tid: usize,
        object_cache: bool,
        cm: CmKind,
        buffers: Buffers,
    ) -> Self {
        let Buffers {
            read_set,
            write_entries,
            wmap,
            locks_held,
            lockset,
            undo,
            tx_allocs,
            tx_frees,
            limbo,
            limbo_scratch,
            switch_log,
        } = buffers;
        TxThread {
            tid,
            rv: 0,
            read_set,
            write_entries,
            wmap,
            locks_held,
            lockset,
            undo,
            tx_allocs,
            tx_frees,
            limbo,
            limbo_scratch,
            backoff_state: 0x9e3779b97f4a7c15 ^ (tid as u64 + 1),
            retries: 0,
            htm_doom: None,
            htm_irrevocable: false,
            stats: StmStats::default(),
            cache: object_cache.then(ObjectCache::default),
            last_alloc_error: None,
            cm_active: cm.initial_policy(),
            karma: 0,
            cm_start: 0,
            holds_token: false,
            cm_stats: CmStats::default(),
            window_commits: 0,
            window_aborts: 0,
            windows: 0,
            window_base: StmStats::default(),
            switch_log,
        }
    }

    /// This descriptor's buffers, emptied, for the next one (the limbo
    /// list and the switch log are [`Stm::retire`]'s to drain first).
    pub(crate) fn into_buffers(self) -> Buffers {
        let mut b = Buffers {
            read_set: self.read_set,
            write_entries: self.write_entries,
            wmap: self.wmap,
            locks_held: self.locks_held,
            lockset: self.lockset,
            undo: self.undo,
            tx_allocs: self.tx_allocs,
            tx_frees: self.tx_frees,
            limbo: self.limbo,
            limbo_scratch: self.limbo_scratch,
            switch_log: self.switch_log,
        };
        b.read_set.clear();
        b.write_entries.clear();
        b.wmap.clear();
        b.locks_held.clear();
        b.lockset.clear();
        b.undo.clear();
        b.tx_allocs.clear();
        b.tx_frees.clear();
        b.limbo.clear();
        b.limbo_scratch.clear();
        b.switch_log.clear();
        b
    }

    /// Every policy switch the adaptive controller took on this thread, in
    /// order (empty for static policies).
    pub fn cm_switches(&self) -> &[CmSwitch] {
        &self.switch_log
    }

    /// (reads, writes) footprint of the most recent transaction attempt
    /// (the sets survive a commit until the next `begin` clears them).
    pub(crate) fn footprint(&self) -> (u64, u64) {
        (self.read_set.len() as u64, self.write_entries.len() as u64)
    }

    /// Clear every per-attempt set (the backend-independent half of
    /// `begin`; the backend then takes its snapshot).
    pub(crate) fn reset(&mut self, ctx: &mut Ctx<'_>) {
        self.read_set.clear();
        self.write_entries.clear();
        self.wmap.clear();
        self.locks_held.clear();
        self.lockset.clear();
        self.undo.clear();
        self.tx_allocs.clear();
        self.tx_frees.clear();
        self.htm_doom = None;
        ctx.tick(20); // descriptor setup
    }

    /// Hand limbo blocks whose free predates every in-flight snapshot to
    /// the object cache (when enabled) or the allocator — TinySTM's
    /// epoch-based reclamation. Doomed readers can therefore never observe
    /// allocator metadata or re-initialized fields in recycled blocks.
    pub(crate) fn drain_limbo(&mut self, stm: &Stm, ctx: &mut Ctx<'_>) {
        // Scanning every thread's snapshot costs a few reads; only bother
        // once a handful of blocks are waiting (as TinySTM's epoch GC
        // batches too).
        if self.limbo.len() < 8 {
            return;
        }
        let safe = stm.safe_timestamp(ctx).min(self.rv);
        self.drain_limbo_below(stm, ctx, safe);
    }

    /// Sim-HTM reclamation: hardware transactions publish no epoch
    /// snapshot (any write to a tracked line dooms the reader before it
    /// can act on recycled memory), so every pending block is freed.
    pub(crate) fn drain_limbo_all(&mut self, stm: &Stm, ctx: &mut Ctx<'_>) {
        if self.limbo.len() < 8 {
            return;
        }
        self.drain_limbo_below(stm, ctx, u64::MAX);
    }

    fn drain_limbo_below(&mut self, stm: &Stm, ctx: &mut Ctx<'_>, safe: u64) {
        let mut keep = std::mem::take(&mut self.limbo_scratch);
        keep.clear();
        let mut entries = std::mem::take(&mut self.limbo);
        for (ts, addr, size) in entries.drain(..) {
            if ts >= safe {
                keep.push((ts, addr, size));
                continue;
            }
            if let (Some(cache), Some(size)) = (&mut self.cache, size) {
                if cache.put(size, addr) {
                    continue;
                }
            }
            if self.cache.is_some() {
                // Only object-cache runs register sizes (see `Tx::malloc`).
                stm.host.lock().sizes.remove(&addr);
            }
            stm.allocator.free(ctx, addr);
        }
        self.limbo_scratch = entries;
        self.limbo = keep;
    }

    /// Deterministic pseudo-random abort backoff, bounded-exponential in
    /// the retry count. The paper's SUICIDE strategy restarts immediately
    /// and relies on real-machine timing noise to break symmetry between
    /// conflicting transactions; under the deterministic scheduler two
    /// symmetric multi-write transactions would otherwise phase-lock into
    /// a livelock, so the noise is reintroduced here, deterministically.
    pub(crate) fn backoff_cycles(&mut self) -> u64 {
        let r = self.backoff_rand();
        let cap = 32u64 << self.retries.min(8);
        r % cap
    }

    /// One LCG step of the per-thread backoff stream (shared by every
    /// contention manager, so a policy switch continues the same
    /// deterministic stream rather than restarting it).
    pub(crate) fn backoff_rand(&mut self) -> u64 {
        self.backoff_state = self
            .backoff_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.backoff_state >> 33
    }

    /// Mark this thread quiescent (no snapshot in flight).
    pub(crate) fn clear_active(&self, stm: &Stm, ctx: &mut Ctx<'_>) {
        ctx.write_u64(stm.active_addr(self.tid), 0);
    }

    /// Backend-independent rollback: release owned versioned locks
    /// (restoring pre-lock versions), restore write-through pre-images,
    /// undo transactional allocations, forget deferred frees.
    pub(crate) fn rollback_common(&mut self, stm: &Stm, ctx: &mut Ctx<'_>, cause: AbortCause) {
        // Write-through: restore pre-images (reverse order so the first
        // write's pre-image wins) before the locks are released.
        while let Some((addr, old)) = self.undo.pop() {
            ctx.write_u64(addr, old);
        }
        for &(la, prev) in &self.locks_held {
            ctx.write_u64(la, prev << 1);
        }
        // Memory allocated inside the aborting transaction must be undone
        // (paper §2) — or parked in the object cache (§6.2).
        let allocs = std::mem::take(&mut self.tx_allocs);
        if stm.cfg.bug == crate::InjectedBug::LeakOnAllocFail && cause == AbortCause::AllocFailed {
            // BUG (injected): forget the allocation journal instead of
            // unwinding it — every block the failing transaction had
            // already obtained leaks. The every-site OOM sweep must
            // observe the leak through the heap auditor.
        } else {
            for (addr, size) in allocs {
                if let Some(cache) = &mut self.cache {
                    if cache.put(size, addr) {
                        continue;
                    }
                    stm.host.lock().sizes.remove(&addr);
                }
                stm.allocator.free(ctx, addr);
            }
        }
        self.tx_frees.clear();
        self.stats.record_abort(cause);
        ctx.tick(15);
    }

    /// Commit-time memory management: deferred frees enter the limbo list
    /// stamped with the commit timestamp (they reach the allocator or the
    /// object cache after quiescence); allocations become permanent.
    pub(crate) fn finalize_memory(&mut self, stm: &Stm, ts: u64) {
        let frees = std::mem::take(&mut self.tx_frees);
        for addr in frees {
            let size = if self.cache.is_some() {
                stm.host.lock().sizes.get(&addr).copied()
            } else {
                None
            };
            self.limbo.push((ts, addr, size));
        }
        self.tx_allocs.clear();
    }
}

/// Handle passed to transaction bodies; all transactional reads, writes and
/// memory management go through it. Reads and writes dispatch to the
/// configured [`BackendKind`](crate::BackendKind); allocation is
/// backend-independent.
pub struct Tx<'a> {
    stm: &'a Stm,
    th: &'a mut TxThread,
}

impl<'a> Tx<'a> {
    pub(crate) fn new(stm: &'a Stm, th: &'a mut TxThread) -> Self {
        Tx { stm, th }
    }

    /// Transactional read of the aligned word at `addr`.
    pub fn read(&mut self, ctx: &mut Ctx<'_>, addr: u64) -> Result<u64, Abort> {
        crate::backend::read(self.stm, self.th, ctx, addr)
    }

    /// Transactional write of the aligned word at `addr` (value buffered
    /// until commit under write-back designs).
    pub fn write(&mut self, ctx: &mut Ctx<'_>, addr: u64, val: u64) -> Result<(), Abort> {
        crate::backend::write(self.stm, self.th, ctx, addr, val)
    }

    /// Read-modify-write helper.
    pub fn update(
        &mut self,
        ctx: &mut Ctx<'_>,
        addr: u64,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<(), Abort> {
        let v = self.read(ctx, addr)?;
        self.write(ctx, addr, f(v))
    }

    /// Transactional allocation: undone if the transaction aborts. Served
    /// from the object cache when the §6.2 optimization is enabled.
    ///
    /// Panics if the allocator refuses the request — allocation-failure-
    /// aware workloads should call [`Tx::try_malloc`], which turns the
    /// refusal into a clean [`AbortCause::AllocFailed`] abort instead.
    pub fn malloc(&mut self, ctx: &mut Ctx<'_>, size: u64) -> u64 {
        match self.try_malloc(ctx, size) {
            Ok(addr) => addr,
            Err(_) => {
                let e = self
                    .th
                    .last_alloc_error
                    .expect("try_malloc stashes the error before aborting");
                panic!("transactional malloc({size}) failed: {e} (use Tx::try_malloc for a clean abort)")
            }
        }
    }

    /// Transactional allocation that surfaces allocator refusal as a clean
    /// abort: on failure the transaction unwinds (journaled allocations
    /// freed, locks released) with [`AbortCause::AllocFailed`], and the
    /// retry loop in [`Stm::try_txn`](crate::Stm::try_txn) decides between
    /// retrying and propagating the underlying error. Object-cache hits
    /// cannot fail — recycled blocks never touch the allocator.
    pub fn try_malloc(&mut self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, Abort> {
        self.th.stats.tx_mallocs += 1;
        let addr = if let Some(cache) = &mut self.th.cache {
            match cache.take(size) {
                Some(a) => {
                    self.th.stats.cache_hits += 1;
                    ctx.tick(8); // cache lookup instead of allocator call
                    a
                }
                None => self.allocator_malloc(ctx, size)?,
            }
        } else {
            self.allocator_malloc(ctx, size)?
        };
        if self.th.cache.is_some() {
            self.stm.host.lock().sizes.insert(addr, size);
        }
        self.th.tx_allocs.push((addr, size));
        Ok(addr)
    }

    /// The allocator call behind [`Tx::try_malloc`], translating an
    /// [`tm_alloc::AllocError`] into the alloc-failed abort (with the
    /// error stashed for [`Stm::try_txn`](crate::Stm::try_txn)).
    fn allocator_malloc(&mut self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, Abort> {
        match self.stm.allocator.try_malloc(ctx, size) {
            Ok(addr) => Ok(addr),
            Err(e) => {
                self.th.last_alloc_error = Some(e);
                Err(Abort::Conflict(AbortCause::AllocFailed))
            }
        }
    }

    /// Transactional free: deferred to commit time (paper §2); dropped if
    /// the transaction aborts.
    pub fn free(&mut self, ctx: &mut Ctx<'_>, addr: u64) {
        self.th.stats.tx_frees += 1;
        if self.stm.cfg.bug == crate::InjectedBug::TxAllocEarlyFree {
            // BUG (injected): hand the block to the allocator right now —
            // before commit, without quiescence, and irrevocably even if
            // this transaction later aborts.
            self.stm.allocator.free(ctx, addr);
            return;
        }
        self.th.tx_frees.push(addr);
    }

    /// Attempt to commit; returns false when commit-time validation fails
    /// (the caller rolls back and retries).
    pub(crate) fn commit(&mut self, ctx: &mut Ctx<'_>) -> bool {
        crate::backend::commit(self.stm, self.th, ctx)
    }
}
