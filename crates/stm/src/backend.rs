//! The pluggable concurrency-control layer.
//!
//! Every study axis in this repo is a first-class dimension; this module
//! opens the last hardwired one — the TM algorithm itself. Each edge of
//! the transaction life-cycle (begin / read / write / commit / rollback)
//! is one function here that matches on the configured [`BackendKind`] and
//! calls that backend's code statically, with the shared machinery
//! (descriptor reset, redo/undo buffers, transactional malloc/free,
//! limbo-based reclamation, statistics) staying in [`TxThread`]. Three
//! backends:
//!
//! * [`BackendKind::Etl`] — the paper's configuration: TinySTM-style
//!   word-based STM with a versioned-lock ownership table (both ETL and
//!   CTL lock designs, write-back and write-through).
//! * [`BackendKind::Norec`] — NOrec (Dalessandro, Spear, Scott, PPoPP'10):
//!   a single global sequence lock and value-based validation. There is no
//!   ownership table, so the paper's mechanisms 1–2 (ORT aliasing and
//!   stripe false sharing) vanish by construction; diffing NOrec against
//!   ETL on the same workload isolates exactly those mechanisms.
//! * [`BackendKind::SimHtm`] — a TSX-like best-effort hardware TM built
//!   directly on the MESI model in `tm-sim` (the regime of Dice et al.,
//!   *The Influence of Malloc Placement on TSX Hardware Transactional
//!   Memory*, arXiv:1504.04640): conflict aborts ride the coherence
//!   protocol's invalidations, capacity aborts ride L1 evictions, and a
//!   single-lock serial-irrevocable fallback takes over after
//!   [`HTM_MAX_RETRIES`] attempts.

use tm_sim::{Ctx, HtmAbort};

use crate::stats::AbortCause;
use crate::tx::{Abort, TxThread};
use crate::{LockDesign, Stm, WriteMode};

/// Which concurrency-control backend executes transactions. This is the
/// `--backend` axis of `tmstudy`; [`BackendKind::Etl`] is the paper's
/// configuration and the default everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Ownership-table STM (TinySTM ETL write-back by default; the
    /// [`LockDesign`]/[`WriteMode`] knobs select its CTL and write-through
    /// variants).
    #[default]
    Etl,
    /// NOrec: value-based validation under one global sequence lock.
    Norec,
    /// Simulated best-effort HTM with a serial-irrevocable fallback.
    SimHtm,
}

impl BackendKind {
    /// All backends, in presentation order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Etl, BackendKind::Norec, BackendKind::SimHtm];

    /// Stable lower-case CLI/report token.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Etl => "etl",
            BackendKind::Norec => "norec",
            BackendKind::SimHtm => "htm",
        }
    }
}

// The backend contract: one function per transaction life-cycle edge, each
// a match on the configured kind. All shared state lives in `Stm` (clock /
// sequence-lock word, ORT, active-snapshot array) and `TxThread`
// (read/write sets, redo/undo logs, tx-alloc buffers, statistics).

/// Reset the descriptor, take the backend's snapshot and maybe drain
/// reclamation limbo, leaving the thread able to `read`.
#[inline]
pub(crate) fn begin(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
    match stm.cfg.backend {
        BackendKind::Etl => EtlBackend::begin(stm, th, ctx),
        BackendKind::Norec => NorecBackend::begin(stm, th, ctx),
        BackendKind::SimHtm => HtmBackend::begin(stm, th, ctx),
    }
}

/// The transactional read path: honours read-own-write through the shared
/// `wmap` redo index, counts `stats.reads`, and returns
/// `Err(Abort::Conflict(_))` to restart the transaction.
#[inline]
pub(crate) fn read(
    stm: &Stm,
    th: &mut TxThread,
    ctx: &mut Ctx<'_>,
    addr: u64,
) -> Result<u64, Abort> {
    match stm.cfg.backend {
        BackendKind::Etl => EtlBackend::read(stm, th, ctx, addr),
        BackendKind::Norec => NorecBackend::read(stm, th, ctx, addr),
        BackendKind::SimHtm => HtmBackend::read(th, ctx, addr),
    }
}

/// The transactional write path, under the same rules as [`read`]
/// (counting `stats.writes`).
#[inline]
pub(crate) fn write(
    stm: &Stm,
    th: &mut TxThread,
    ctx: &mut Ctx<'_>,
    addr: u64,
    val: u64,
) -> Result<(), Abort> {
    match stm.cfg.backend {
        BackendKind::Etl => EtlBackend::write(stm, th, ctx, addr, val),
        BackendKind::Norec => NorecBackend::write(th, ctx, addr, val),
        BackendKind::SimHtm => HtmBackend::write(th, ctx, addr, val),
    }
}

/// False when commit-time validation fails (the caller rolls back and
/// retries). On success the transactional memory is finalized
/// (`TxThread::finalize_memory`), `stats.commits` counted and the thread
/// marked quiescent.
#[inline]
pub(crate) fn commit(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> bool {
    match stm.cfg.backend {
        BackendKind::Etl => EtlBackend::commit(stm, th, ctx),
        BackendKind::Norec => NorecBackend::commit(stm, th, ctx),
        BackendKind::SimHtm => HtmBackend::commit(stm, th, ctx),
    }
}

/// Undo the attempt (release locks, restore pre-images, undo tx-allocs),
/// record the abort cause, and leave the descriptor ready for the next
/// `begin`. Sim-HTM first tears down its hardware attempt and refines the
/// cause; the software backends share the descriptor's rollback.
#[inline]
pub(crate) fn rollback(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>, cause: AbortCause) {
    match stm.cfg.backend {
        BackendKind::Etl | BackendKind::Norec => th.rollback_common(stm, ctx, cause),
        BackendKind::SimHtm => HtmBackend::rollback(stm, th, ctx, cause),
    }
}

// ---------------------------------------------------------------------------
// ETL/CTL: the ownership-table STM (the paper's TinySTM reimplementation).
//
// Versioned-lock word encoding (one 64-bit word per ORT entry):
// * bit 0 set — locked; bits 63..1 hold the owner's thread id;
// * bit 0 clear — free; bits 63..1 hold the stripe's commit timestamp.
// ---------------------------------------------------------------------------

#[inline]
pub(crate) fn locked_word(tid: usize) -> u64 {
    ((tid as u64) << 1) | 1
}

#[inline]
pub(crate) fn is_locked(word: u64) -> bool {
    word & 1 == 1
}

#[inline]
pub(crate) fn owner_of(word: u64) -> u64 {
    word >> 1
}

#[inline]
pub(crate) fn version_of(word: u64) -> u64 {
    word >> 1
}

/// The ownership-table backend (ETL by default; CTL and write-through via
/// [`StmConfig::design`]/[`StmConfig::write_mode`]).
///
/// [`StmConfig::design`]: crate::StmConfig::design
/// [`StmConfig::write_mode`]: crate::StmConfig::write_mode
pub(crate) struct EtlBackend;

impl EtlBackend {
    /// Validate the read set against the current lock words. Locks owned by
    /// this transaction validate trivially.
    fn validate(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> bool {
        let _ = stm;
        for i in 0..th.read_set.len() {
            let (la, ver) = th.read_set[i];
            let l = ctx.read_u64(la);
            if is_locked(l) {
                if !th.lockset.contains(la) {
                    return false;
                }
            } else if version_of(l) != ver {
                return false;
            }
        }
        true
    }

    /// Timestamp extension: re-validate and move the snapshot forward.
    fn extend(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> Result<(), Abort> {
        let now = ctx.read_u64(stm.clock_addr);
        if Self::validate(stm, th, ctx) {
            th.rv = now;
            th.stats.extensions += 1;
            Ok(())
        } else {
            Err(Abort::Conflict(AbortCause::Validation))
        }
    }

    /// CTL commit prelude: acquire every write-set stripe lock in one
    /// burst (TL2-style). Returns false (caller aborts) if any stripe is
    /// locked or was committed to after an unextendable snapshot.
    fn acquire_write_locks(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> bool {
        for i in 0..th.write_entries.len() {
            let (addr, _) = th.write_entries[i];
            let la = stm.lock_addr_for(addr);
            if th.lockset.contains(la) {
                continue;
            }
            let l = ctx.read_u64(la);
            if is_locked(l)
                || version_of(l) > th.rv
                || ctx.cas_u64(la, l, locked_word(th.tid)).is_err()
            {
                return false;
            }
            th.locks_held.push((la, version_of(l)));
            th.lockset.insert(la, 0);
        }
        true
    }

    fn begin(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
        th.reset(ctx);
        // Publish a (conservative) snapshot *before* taking the real one:
        // a reclamation scan that misses the publication can then only
        // free blocks whose unlink already predates the second clock read,
        // so no reachable block is ever recycled under our feet.
        let announce = ctx.read_u64(stm.clock_addr);
        ctx.write_u64(stm.active_addr(th.tid), announce + 1);
        th.rv = ctx.read_u64(stm.clock_addr);
        th.drain_limbo(stm, ctx);
    }

    fn read(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>, addr: u64) -> Result<u64, Abort> {
        th.stats.reads += 1;
        ctx.tick(4);
        if let Some(i) = th.wmap.get(addr) {
            return Ok(th.write_entries[i as usize].1); // read-own-write
        }
        let la = stm.lock_addr_for(addr);
        let l = ctx.read_u64(la);
        if is_locked(l) {
            if owner_of(l) == th.tid as u64 {
                // We own the stripe (wrote a *different* word in it); the
                // word itself is unmodified in memory (write-back).
                return Ok(ctx.read_u64(addr));
            }
            return Err(Abort::Conflict(AbortCause::ReadLocked));
        }
        let (v, l2) = ctx.read_u64_pair(addr, la);
        if l2 != l {
            return Err(Abort::Conflict(AbortCause::ReadRace));
        }
        let ver = version_of(l);
        if ver > th.rv && stm.cfg.bug != crate::InjectedBug::SkipReadValidation {
            Self::extend(stm, th, ctx)?;
        }
        th.read_set.push((la, ver));
        Ok(v)
    }

    fn write(
        stm: &Stm,
        th: &mut TxThread,
        ctx: &mut Ctx<'_>,
        addr: u64,
        val: u64,
    ) -> Result<(), Abort> {
        th.stats.writes += 1;
        ctx.tick(4);
        if let Some(i) = th.wmap.get(addr) {
            th.write_entries[i as usize].1 = val;
            return Ok(());
        }
        if stm.cfg.design == LockDesign::Etl {
            let la = stm.lock_addr_for(addr);
            if !th.lockset.contains(la) {
                let l = ctx.read_u64(la);
                if is_locked(l) {
                    // Cannot be us: our locks are all in `lockset`.
                    return Err(Abort::Conflict(AbortCause::WriteLocked));
                }
                // The stripe may have been committed to after our snapshot —
                // possibly by a transaction that invalidated something we
                // already read. Extend (re-validating the read set) before
                // taking ownership, or this transaction could commit stale
                // reads and lose updates.
                if version_of(l) > th.rv && stm.cfg.bug != crate::InjectedBug::SkipWriteValidation {
                    Self::extend(stm, th, ctx)?;
                }
                if ctx.cas_u64(la, l, locked_word(th.tid)).is_err() {
                    return Err(Abort::Conflict(AbortCause::WriteLocked));
                }
                th.locks_held.push((la, version_of(l)));
                th.lockset.insert(la, 0);
            }
            if stm.cfg.write_mode == WriteMode::Through {
                // Write-through: memory is updated in place under the
                // stripe lock; the pre-image goes to the undo log.
                let old = ctx.read_u64(addr);
                th.undo.push((addr, old));
                ctx.write_u64(addr, val);
                return Ok(());
            }
        }
        th.wmap.insert(addr, th.write_entries.len() as u32);
        th.write_entries.push((addr, val));
        Ok(())
    }

    fn commit(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> bool {
        ctx.tick(12);
        if stm.cfg.design == LockDesign::Ctl
            && !th.write_entries.is_empty()
            && !Self::acquire_write_locks(stm, th, ctx)
        {
            return false;
        }
        if th.locks_held.is_empty() {
            debug_assert!(th.undo.is_empty());
            // Read-only (or empty) transaction: the snapshot was consistent
            // throughout; commit without touching the clock.
            let ts = if th.tx_frees.is_empty() {
                0
            } else {
                ctx.read_u64(stm.clock_addr)
            };
            th.finalize_memory(stm, ts);
            th.stats.commits += 1;
            th.clear_active(stm, ctx);
            return true;
        }
        let wv = ctx.fetch_add_u64(stm.clock_addr, 1) + 1;
        if th.rv + 1 != wv && !Self::validate(stm, th, ctx) {
            return false;
        }
        // Write back the redo log (a no-op under write-through, where
        // memory already holds the new values), then release locks with
        // the new version.
        for i in 0..th.write_entries.len() {
            let (addr, val) = th.write_entries[i];
            ctx.write_u64(addr, val);
        }
        th.undo.clear();
        for i in 0..th.locks_held.len() {
            let (la, _) = th.locks_held[i];
            ctx.write_u64(la, wv << 1);
        }
        th.finalize_memory(stm, wv);
        th.stats.commits += 1;
        th.clear_active(stm, ctx);
        true
    }
}

// ---------------------------------------------------------------------------
// NOrec: no ownership records — one global sequence lock, value-based
// validation (Dalessandro, Spear, Scott, PPoPP'10).
//
// The `Stm`'s clock word doubles as the sequence lock: even = stable,
// odd = a writer is committing. Reads log (address, value) pairs; whenever
// the sequence number moves, the whole read set is re-read and compared
// by value. A committing writer CASes the lock odd, writes back its redo
// log, and releases at `seq + 2`.
// ---------------------------------------------------------------------------

/// The NOrec backend. Reuses `TxThread::read_set` to hold (address, value)
/// pairs instead of (lock, version) pairs.
pub(crate) struct NorecBackend;

impl NorecBackend {
    /// Spin (in virtual time) until the sequence lock is even, then return
    /// it. Each probe is one simulated read; waiting burns virtual cycles
    /// exactly like a real seqlock reader would.
    fn stable_seq(stm: &Stm, ctx: &mut Ctx<'_>) -> u64 {
        // A writer in progress: a brief pause before each re-probe.
        ctx.read_u64_until(stm.clock_addr, 16, |s| s & 1 == 0)
    }

    /// Value-based validation: wait for a stable sequence number, re-read
    /// every logged location and compare by value, then confirm the
    /// sequence did not move while we validated. On success the snapshot
    /// advances to the validated sequence number.
    fn validate(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> Result<u64, Abort> {
        loop {
            let s1 = Self::stable_seq(stm, ctx);
            for i in 0..th.read_set.len() {
                let (addr, val) = th.read_set[i];
                ctx.tick(2);
                if ctx.read_u64(addr) != val {
                    return Err(Abort::Conflict(AbortCause::Validation));
                }
            }
            let s2 = ctx.read_u64(stm.clock_addr);
            if s1 == s2 {
                if s1 != th.rv {
                    th.stats.extensions += 1;
                }
                th.rv = s1;
                return Ok(s1);
            }
            // A writer slipped in mid-validation; start over.
        }
    }

    fn begin(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
        th.reset(ctx);
        // Same epoch-reclamation protocol as ETL: announce a conservative
        // snapshot before taking the real one, so the limbo drain of a
        // concurrent thread can never free a block this transaction may
        // still reach.
        let announce = ctx.read_u64(stm.clock_addr);
        ctx.write_u64(stm.active_addr(th.tid), announce + 1);
        th.rv = Self::stable_seq(stm, ctx);
        th.drain_limbo(stm, ctx);
    }

    fn read(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>, addr: u64) -> Result<u64, Abort> {
        th.stats.reads += 1;
        ctx.tick(4);
        if let Some(i) = th.wmap.get(addr) {
            return Ok(th.write_entries[i as usize].1); // read-own-write
        }
        // Data load + sequence-lock probe in one scheduling slot (the same
        // collapsed pair the ETL read path uses for its lock recheck).
        let (mut v, mut s) = ctx.read_u64_pair(addr, stm.clock_addr);
        while s != th.rv {
            // The clock moved (or a writer holds it): value-validate the
            // read set at a newer stable sequence, then retry the load.
            Self::validate(stm, th, ctx)?;
            let (v2, s2) = ctx.read_u64_pair(addr, stm.clock_addr);
            v = v2;
            s = s2;
        }
        th.read_set.push((addr, v));
        Ok(v)
    }

    fn write(th: &mut TxThread, ctx: &mut Ctx<'_>, addr: u64, val: u64) -> Result<(), Abort> {
        th.stats.writes += 1;
        ctx.tick(4);
        if let Some(i) = th.wmap.get(addr) {
            th.write_entries[i as usize].1 = val;
            return Ok(());
        }
        th.wmap.insert(addr, th.write_entries.len() as u32);
        th.write_entries.push((addr, val));
        Ok(())
    }

    fn commit(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> bool {
        ctx.tick(12);
        if th.write_entries.is_empty() {
            // Read-only: the read set was value-validated against a stable
            // sequence number, so the snapshot is consistent as-is.
            let ts = if th.tx_frees.is_empty() {
                0
            } else {
                ctx.read_u64(stm.clock_addr)
            };
            th.finalize_memory(stm, ts);
            th.stats.commits += 1;
            th.clear_active(stm, ctx);
            return true;
        }
        // Acquire the sequence lock at our snapshot (even → odd). A CAS
        // failure means the clock moved: re-validate by value and retry
        // from the new snapshot — NOrec aborts only on a value change,
        // never on mere clock motion.
        while ctx.cas_u64(stm.clock_addr, th.rv, th.rv + 1).is_err() {
            if stm.cfg.bug == crate::InjectedBug::NorecStaleSnapshot {
                // BUG (injected): refresh the snapshot without value-
                // validating the read set, trusting reads the lost race may
                // already have invalidated.
                th.rv = Self::stable_seq(stm, ctx);
                continue;
            }
            if NorecBackend::validate(stm, th, ctx).is_err() {
                return false;
            }
        }
        for i in 0..th.write_entries.len() {
            let (addr, val) = th.write_entries[i];
            ctx.write_u64(addr, val);
        }
        let wv = th.rv + 2;
        ctx.write_u64(stm.clock_addr, wv); // release: odd → next even
        th.undo.clear();
        th.finalize_memory(stm, wv);
        th.stats.commits += 1;
        th.clear_active(stm, ctx);
        true
    }
}

// ---------------------------------------------------------------------------
// Sim-HTM: best-effort hardware TM on the MESI model (Dice et al.,
// arXiv:1504.04640). The cache hierarchy tracks the transactional
// read/write line sets; coherence invalidations of tracked lines doom the
// transaction (conflict), L1 evictions of tracked lines doom it
// (capacity). Writes are buffered host-side and applied in one atomic
// commit event — the tags-only cache model means speculative stores are
// naturally invisible until then. The global clock word doubles as the
// serial-irrevocable fallback lock, subscribed inside every hardware
// attempt so a fallback writer aborts all concurrent hardware
// transactions.
// ---------------------------------------------------------------------------

/// Hardware attempts before falling back to the serial-irrevocable lock
/// (TSX retry policies typically give up after a handful of tries).
pub(crate) const HTM_MAX_RETRIES: u32 = 8;

/// The simulated-HTM backend.
pub(crate) struct HtmBackend;

impl HtmBackend {
    fn cause_of(a: HtmAbort) -> AbortCause {
        match a {
            HtmAbort::Conflict => AbortCause::Coherence,
            HtmAbort::Capacity => AbortCause::Capacity,
        }
    }

    /// Map a doom notice to the abort that restarts the transaction.
    fn doomed(a: HtmAbort) -> Abort {
        Abort::Conflict(Self::cause_of(a))
    }

    fn begin(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
        th.reset(ctx);
        // Hardware transactions publish no epoch snapshot (there is no
        // STM-side reclamation race: any write to a line a reader tracked
        // dooms the reader), so limbo blocks are freed unconditionally.
        th.drain_limbo_all(stm, ctx);
        if th.retries >= HTM_MAX_RETRIES {
            // Serial-irrevocable fallback: take the global lock (even →
            // odd) and run non-speculatively. Writes stay buffered so an
            // explicit workload restart can still roll back.
            loop {
                // Wait out a serial section in progress (odd), then try
                // to take the lock.
                let s = ctx.read_u64_until(stm.clock_addr, 64, |s| s & 1 == 0);
                if ctx.cas_u64(stm.clock_addr, s, s + 1).is_ok() {
                    th.rv = s;
                    th.htm_irrevocable = true;
                    return;
                }
                ctx.tick(64); // a peer took it first: wait out its section
            }
        }
        th.htm_irrevocable = false;
        // Wait until the fallback lock looks free before starting (a
        // transaction begun under a held lock would only abort at the
        // subscription check below).
        th.rv = ctx.read_u64_until(stm.clock_addr, 64, |s| s & 1 == 0);
        ctx.tick(30); // xbegin: checkpoint registers
        ctx.htm_begin();
        // Subscribe to the fallback lock: the read puts its line in the
        // hardware read set, so a fallback writer's CAS dooms us.
        if let Ok(s) = ctx.htm_read_u64(stm.clock_addr) {
            if s & 1 == 1 {
                // Lost the race: a fallback writer got in between the
                // probe and the subscription.
                th.htm_doom = Some(HtmAbort::Conflict);
            }
        } else {
            th.htm_doom = Some(HtmAbort::Conflict);
        }
    }

    fn read(th: &mut TxThread, ctx: &mut Ctx<'_>, addr: u64) -> Result<u64, Abort> {
        th.stats.reads += 1;
        ctx.tick(2); // no per-access instrumentation beyond the cache itself
        if let Some(i) = th.wmap.get(addr) {
            return Ok(th.write_entries[i as usize].1); // read-own-write
        }
        if th.htm_irrevocable {
            return Ok(ctx.read_u64(addr));
        }
        if let Some(d) = th.htm_doom {
            return Err(Self::doomed(d));
        }
        match ctx.htm_read_u64(addr) {
            Ok(v) => Ok(v),
            Err(d) => {
                th.htm_doom = Some(d);
                Err(Self::doomed(d))
            }
        }
    }

    fn write(th: &mut TxThread, ctx: &mut Ctx<'_>, addr: u64, val: u64) -> Result<(), Abort> {
        th.stats.writes += 1;
        ctx.tick(2);
        if let Some(i) = th.wmap.get(addr) {
            th.write_entries[i as usize].1 = val;
            return Ok(());
        }
        if !th.htm_irrevocable {
            if let Some(d) = th.htm_doom {
                return Err(Self::doomed(d));
            }
            // Claim the line for the hardware write set (exclusive
            // ownership now; the data lands at commit).
            if let Err(d) = ctx.htm_write_mark(addr) {
                th.htm_doom = Some(d);
                return Err(Self::doomed(d));
            }
        }
        th.wmap.insert(addr, th.write_entries.len() as u32);
        th.write_entries.push((addr, val));
        Ok(())
    }

    fn commit(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) -> bool {
        if th.htm_irrevocable {
            ctx.tick(12);
            for i in 0..th.write_entries.len() {
                let (addr, val) = th.write_entries[i];
                ctx.write_u64(addr, val);
            }
            let wv = th.rv + 2;
            ctx.write_u64(stm.clock_addr, wv); // release the fallback lock
            th.htm_irrevocable = false;
            th.finalize_memory(stm, wv);
            th.stats.commits += 1;
            return true;
        }
        ctx.tick(10); // xend
        if th.htm_doom.is_some() {
            return false;
        }
        match ctx.htm_commit(&th.write_entries) {
            Ok(()) => {
                th.finalize_memory(stm, 0);
                th.stats.commits += 1;
                true
            }
            Err(d) => {
                th.htm_doom = Some(d);
                false
            }
        }
    }

    fn rollback(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>, cause: AbortCause) {
        // Tear down hardware tracking (no-op if the attempt already ended
        // or never started), release the fallback lock if held, then the
        // shared descriptor rollback. A commit-time doom is recorded under
        // its hardware cause rather than the generic validation label.
        let hw = ctx.htm_abort();
        if th.htm_irrevocable {
            ctx.write_u64(stm.clock_addr, th.rv + 2);
            th.htm_irrevocable = false;
        }
        let cause = match th.htm_doom.take() {
            Some(d) if cause == AbortCause::Validation => Self::cause_of(d),
            _ => match hw {
                Some(d) if cause == AbortCause::Validation => Self::cause_of(d),
                _ => cause,
            },
        };
        ctx.tick(20); // abort: restore checkpoint
        th.rollback_common(stm, ctx, cause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_word_encoding() {
        assert!(is_locked(locked_word(3)));
        assert_eq!(owner_of(locked_word(3)), 3);
        assert!(!is_locked(7 << 1));
        assert_eq!(version_of(7 << 1), 7);
        assert_eq!(version_of(0), 0);
        assert!(!is_locked(0));
    }

    #[test]
    fn kind_tokens_round_trip() {
        let parse = |s| tm_obs::spec::one_of("--backend", &BackendKind::ALL, |k| k.name(), s);
        for k in BackendKind::ALL {
            assert_eq!(parse(k.name()), Ok(&k));
        }
        for bad in ["tl2", "ETL"] {
            assert_eq!(
                parse(bad),
                Err(format!("bad --backend '{bad}' (valid: etl, norec, htm)"))
            );
        }
        assert_eq!(BackendKind::default(), BackendKind::Etl);
    }

    use crate::{Stm, StmConfig};
    use tm_alloc::AllocatorKind;
    use tm_sim::{MachineConfig, Sim};

    fn setup(backend: BackendKind) -> (Sim, Stm) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let alloc = AllocatorKind::TbbMalloc.build(&sim);
        let stm = Stm::new(
            &sim,
            alloc,
            StmConfig {
                backend,
                ..StmConfig::default()
            },
        );
        (sim, stm)
    }

    fn run_counter(backend: BackendKind, threads: usize, iters: u64) -> crate::StmStats {
        let (sim, stm) = setup(backend);
        let addr = 0x5000_0000u64;
        sim.run(threads, |ctx| {
            let mut th = stm.thread(ctx.tid());
            for _ in 0..iters {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    ctx.tick(20);
                    tx.write(ctx, addr, v + 1)
                });
            }
            stm.retire(th);
        });
        let total = threads as u64 * iters;
        sim.with_state(|m| assert_eq!(m.read_u64(addr), total));
        let s = stm.stats();
        assert_eq!(s.commits, total);
        s
    }

    #[test]
    fn norec_counter_is_exact() {
        run_counter(BackendKind::Norec, 1, 100);
        let s = run_counter(BackendKind::Norec, 8, 50);
        assert!(s.aborts() > 0, "8 threads on one counter must conflict");
    }

    #[test]
    fn htm_counter_is_exact() {
        run_counter(BackendKind::SimHtm, 1, 100);
        let s = run_counter(BackendKind::SimHtm, 8, 50);
        assert!(s.aborts() > 0, "8 threads on one counter must conflict");
        assert!(
            s.by_cause[AbortCause::Coherence as usize] > 0,
            "contended counter aborts must be coherence conflicts"
        );
    }

    #[test]
    fn norec_has_no_stripe_false_conflicts() {
        // Two addresses 16 bytes apart share a 32-byte ORT stripe: ETL
        // writers false-conflict (the heart of the paper's Fig. 5), but
        // NOrec validates by *value* and has no ORT — the mechanism
        // vanishes by construction.
        for (backend, expect_aborts) in [(BackendKind::Etl, true), (BackendKind::Norec, false)] {
            let (sim, stm) = setup(backend);
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
            let s = stm.stats();
            assert_eq!(s.commits, 100);
            if expect_aborts {
                assert!(s.aborts() > 0, "ETL must false-conflict on the stripe");
            } else {
                assert_eq!(s.aborts(), 0, "NOrec has no ORT to false-conflict in");
            }
        }
    }

    #[test]
    fn htm_capacity_cliff() {
        // One thread touches far more lines than the 32 KB L1 holds inside
        // a single transaction: the hardware read set overflows, every
        // attempt dooms with Capacity, and the transaction only completes
        // via the serial-irrevocable fallback.
        let (sim, stm) = setup(BackendKind::SimHtm);
        sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            stm.txn(ctx, &mut th, |tx, ctx| {
                for i in 0..1024u64 {
                    tx.write(ctx, 0x6000_0000 + i * 64, i)?;
                }
                Ok(0)
            });
            stm.retire(th);
        });
        let s = stm.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(
            s.by_cause[AbortCause::Capacity as usize],
            u64::from(super::HTM_MAX_RETRIES),
            "every hardware attempt must overflow before the fallback runs"
        );
        sim.with_state(|m| assert_eq!(m.read_u64(0x6000_0000 + 63 * 64), 63));
    }

    #[test]
    fn htm_tx_alloc_joins_footprint() {
        // Allocator metadata touched inside a hardware transaction joins
        // the transactional footprint (the Dice et al. effect): the
        // transaction still commits, and memory allocated transactionally
        // is usable after commit.
        let (sim, stm) = setup(BackendKind::SimHtm);
        sim.run(2, |ctx| {
            let mut th = stm.thread(ctx.tid());
            for i in 0..20u64 {
                let slot = 0x7100_0000u64 + ctx.tid() as u64 * 64;
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let p = tx.malloc(ctx, 48);
                    tx.write(ctx, p, i)?;
                    let old = tx.read(ctx, slot)?;
                    if old != 0 {
                        tx.free(ctx, old);
                    }
                    tx.write(ctx, slot, p)
                });
            }
            stm.retire(th);
        });
        assert_eq!(stm.stats().commits, 40);
        assert_eq!(stm.stats().tx_mallocs, 40);
    }
}
