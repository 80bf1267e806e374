//! The conservative virtual-time scheduler.
//!
//! A thread may only execute its next *event* (shared-memory access, atomic,
//! lock operation, OS call) when its virtual clock is the minimum among all
//! runnable threads (ties broken by thread id). All machine state is mutated
//! in that order, so a run is a deterministic function of the workload —
//! independent of host scheduling, core count, or load. Pure compute between
//! events is charged lazily via [`Ctx::tick`] and flushed at the next event,
//! which keeps the event rate (and host-side synchronization) proportional
//! to the number of *shared* operations only.
//!
//! There is one scheduler and one code path through it. Exactly one logical
//! thread — or the driver, the context that called [`Sim::run`] — *holds
//! the turn* at any instant, under a scheduler lock taken once per run. A
//! thread that is not the minimum scans once (`Inner::next_turn`, one pass
//! over one packed key per thread) and hands the turn *straight to the
//! thread that is*, with that thread's **horizon** — the runner-up's key.
//! The resumed thread neither rescans nor re-checks: it stays the minimum
//! while its own key is below that horizon, so each of its events costs one
//! compare, and only crossing the horizon costs a scan and a hand-off. The
//! driver starts the first thread and gets the turn back only when nothing
//! is runnable: completion, or a virtual deadlock, which it reports after
//! unwinding the blocked threads one at a time. So whatever a thread does
//! between two hand-offs — events *and* host-side work, such as allocator
//! metadata — runs alone and in hand-off order. The rule that buys: never
//! wait on the host for a peer (it cannot run until you hand the turn on),
//! and never hold a host lock across an event. State that only a machine's
//! own threads touch needs no lock at all: a [`TurnCell`] is opened by the
//! holder of the turn, and the borrow checker keeps events out of it.
//!
//! The two backends differ in how they spawn threads, in what `hand_off`
//! does, and in whether they trust a horizon — nowhere else:
//!
//! * **Fibers** (default on x86-64 Linux): stackful coroutines on the
//!   calling OS thread; a hand-off is a ~20 ns assembly context switch.
//! * **OS threads** (fallback; force with `TM_SIM_EXEC=threads`): one
//!   scoped OS thread per logical thread; a hand-off passes a baton — one
//!   atomic word naming who holds the turn — and parks until it comes
//!   back. The reference the fiber backend is tested against, so it trusts
//!   no cached horizon: every horizon it is handed is 0, and it decides
//!   afresh with `next_turn` at every event.
//!
//! When a cached horizon may be trusted: (1) only the holder of the turn
//! runs, so no other thread's key can change except by the holder's own
//! doing; (2) the only thing it does to another key is wake a waiter in
//! `unlock` — the waiter re-enters at the releaser's clock and, with a
//! lower tid, precedes it — so `unlock` zeroes the horizon and the next
//! event scans again; (3) every other way of gaining control is a resume
//! by a peer (or the driver) that has just scanned and left a fresh
//! horizon, which holds because of (1). Debug builds assert "a resumed
//! thread is the minimum" at every resume, on both backends.
//!
//! `TM_SIM_EXEC=fibers|threads` selects a backend explicitly (any other
//! value, and `fibers` on an unsupported target, is refused:
//! [`check_exec_env`]). Single-thread runs skip hand-off machinery entirely
//! on either backend: the closure runs on the caller — the same event path
//! with an infinite horizon.

use std::cell::{Cell, UnsafeCell};
use std::panic::AssertUnwindSafe;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::Mutex;

use crate::cache::{CacheStats, MAX_CORES};
use crate::config::MachineConfig;
use crate::fiber;
use crate::machine::{MachineState, SimMutex};
use crate::report::SimReport;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    /// Waiting for the given simulated lock to be released.
    Blocked(usize),
    Done,
}

/// Low bits of a scheduling key that hold the thread id; the clock sits
/// above them, so comparing two keys as integers *is* the `(clock, tid)`
/// order and a scan needs neither an index nor a tie-break.
const TID_BITS: u32 = 8;
/// Scheduling key of a thread that is not runnable (blocked or done): it
/// sorts after every runnable key, so one scan over [`Inner::key`] finds
/// who runs next without consulting [`Inner::state`].
const PARKED: u64 = u64::MAX;
/// Bits of a scheduling key left for the virtual clock: a run whose clock
/// outgrows them panics (`virtual clock … overflows the scheduling key`).
/// A front end that takes cycle counts from outside (a delay to inject at
/// a scheduling point) bounds them by this, so that no run it starts can
/// get there.
pub const CLOCK_BITS: u32 = u64::BITS - TID_BITS;
/// Exclusive bound on the clocks a key can hold. A clock beyond it would
/// wrap and silently reorder threads, so [`sched_key`] refuses it.
const CLOCK_LIMIT: u64 = PARKED >> TID_BITS;

/// The scheduling key of thread `tid` runnable at clock `t`.
#[inline]
fn sched_key(t: u64, tid: usize) -> u64 {
    if t >= CLOCK_LIMIT {
        clock_overflow(t);
    }
    (t << TID_BITS) | tid as u64
}

// Out of line, so the check costs every event one compare and no more.
#[cold]
#[inline(never)]
fn clock_overflow(t: u64) -> ! {
    panic!("virtual clock {t} overflows the scheduling key");
}

struct Inner {
    machine: MachineState,
    /// Committed virtual clock per thread (kept while blocked and done).
    time: Vec<u64>,
    /// Scheduling key per thread: [`sched_key`] of its clock while
    /// runnable, [`PARKED`] otherwise. The one representation of "runnable,
    /// and when" that every decision is made on; written only by
    /// `flush`/`publish`/`park`/`wake`. It is the clock a thread has
    /// *published*: exact whenever another thread can look — a thread
    /// flushes before it hands the turn on, and parks before it blocks or
    /// finishes — while `commit` leaves it behind the clock until the next
    /// flush (nobody else runs in between: only the holder of the turn
    /// does).
    key: Vec<u64>,
    state: Vec<TState>,
    /// Remaining scheduler events before the run panics with
    /// [`FUEL_EXHAUSTED`]. Defaults to effectively-unlimited; the schedule
    /// explorer lowers it to turn virtual-time livelocks (e.g. a leaked
    /// serialization token spun on forever) into catchable panics.
    fuel: u64,
    /// Scheduler events executed since construction (or the last restore).
    /// Monotone across runs; the checkpoint layer uses before/after deltas
    /// to report how much replay work a restore avoided.
    events: u64,
    /// Rolling 64-bit execution fingerprint: every *committed* clock update
    /// mixes `(tid, new clock)` in scheduler order (see [`Inner::commit`]).
    /// Two runs from the same state with equal fingerprints executed the
    /// same event sequence with the same clocks — the dedup signal for the
    /// `tm-mc` prefix-tree explorer.
    hash: u64,
    /// Optional scheduling-point hook (see [`Ctx::sched_point`]); set
    /// between runs only, so a run reads it without a lock of its own.
    sched_hook: Option<Arc<SchedHook>>,
    /// The fiber stacks of this machine's runs: taken by the first run of
    /// more than one thread, reused by every later one.
    stacks: fiber::Stacks,
    /// The fiber backend's hand-off table (see [`Switch::Fibers`]), kept
    /// between runs for its capacity; a run moves it into its [`Rt`].
    sps: SavedSps,
}

/// Saved stack pointers of a run's fibers, then the driver's.
#[derive(Default)]
struct SavedSps(Vec<Cell<*mut u8>>);

// SAFETY: between runs the vector holds stale pointers that nothing
// dereferences; during a run it sits in the run's `Rt`, and every fiber
// that reads or writes it runs on the driver's OS thread.
unsafe impl Send for SavedSps {}

/// Panic message prefix raised when the event budget set by
/// [`Sim::set_fuel`] runs out. Model-checking harnesses match on this to
/// classify a run as a livelock rather than an assertion failure.
pub const FUEL_EXHAUSTED: &str = "virtual-time fuel exhausted";

/// A scheduling-point hook: maps `(tid, point)` — a logical thread and a
/// workload-chosen point id — to the virtual delay (in cycles) to inject
/// there. Installed per [`Sim`] via [`Sim::set_sched_hook`] and consulted by
/// [`Ctx::sched_point`]. Must be deterministic: the same `(tid, point)` pair
/// must always yield the same delay (transaction retries re-visit points).
pub type SchedHook = dyn Fn(usize, u64) -> u64 + Send + Sync;

impl Inner {
    /// The one decision procedure: who executes next, and for how long may
    /// it go on without looking again? One branch-free pass over the keys
    /// finds the two smallest: the minimum names the thread, and the
    /// runner-up is its *horizon* — it stays the minimum while its own key
    /// is below that, as long as nobody else's key moves ([`PARKED`] when
    /// it has no rival). `None` when no thread is runnable.
    #[inline]
    fn next_turn(&self) -> Option<(usize, u64)> {
        let (mut first, mut second) = (PARKED, PARKED);
        for &k in &self.key {
            second = second.min(first.max(k));
            first = first.min(k);
        }
        let tid_mask = (1 << TID_BITS) - 1;
        (first != PARKED).then_some(((first & tid_mask) as usize, second))
    }

    /// Is `tid` the thread that may execute next?
    fn is_min(&self, tid: usize) -> bool {
        matches!(self.next_turn(), Some((t, _)) if t == tid)
    }

    /// Charge one scheduler event against the fuel budget; panics when the
    /// budget set by [`Sim::set_fuel`] is exhausted. Saturating, so every
    /// event after exhaustion raises the same clean message (relevant when
    /// sibling threads keep executing while the first panic unwinds).
    #[inline]
    fn burn_fuel(&mut self) {
        self.events += 1;
        self.fuel = self.fuel.saturating_sub(1);
        if self.fuel == 0 {
            panic!("{FUEL_EXHAUSTED}: event budget ran out (possible livelock; see Sim::set_fuel)");
        }
    }

    /// Fold runnable thread `tid`'s pending local compute into its clock
    /// ahead of its next event; returns its new key. Deliberately not part
    /// of the fingerprint (see [`Inner::commit`]).
    #[inline]
    fn flush(&mut self, tid: usize, pending: u64) -> u64 {
        let t = self.time[tid] + pending;
        let key = sched_key(t, tid);
        self.time[tid] = t;
        self.key[tid] = key;
        key
    }

    /// Commit thread `tid`'s clock to `t` and fold the update into the
    /// execution fingerprint; the key is left for the next flush, publish
    /// or wake (see [`Inner::key`]). Every clock write made *in scheduler
    /// order* goes through here. The two that are not stay out of the
    /// fingerprint: the pending-flush of a thread that immediately blocks
    /// on a held lock (overwritten by the release, or committed here at
    /// wake-up), and the final flush of a finishing thread (not an event:
    /// it happens as soon as the closure returns, not when the thread's
    /// clock is the minimum).
    #[inline]
    fn commit(&mut self, tid: usize, t: u64) {
        self.time[tid] = t;
        let x = (t ^ ((tid as u64) << 56)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.hash = (self.hash ^ x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }

    /// Bring `tid`'s key up to its clock, if it is runnable.
    fn publish(&mut self, tid: usize) {
        if self.state[tid] == TState::Runnable {
            self.key[tid] = sched_key(self.time[tid], tid);
        }
    }

    /// Take `tid` out of scheduling (`state` is `Blocked(_)` or `Done`).
    fn park(&mut self, tid: usize, state: TState) {
        self.state[tid] = state;
        self.key[tid] = PARKED;
    }

    /// Make parked thread `tid` runnable again at its kept clock.
    fn wake(&mut self, tid: usize) {
        self.state[tid] = TState::Runnable;
        self.publish(tid);
    }
}

struct Shared {
    /// Locked once per [`Sim::run`], for all of it; never per event.
    inner: Mutex<Inner>,
}

/// Which hand-off mechanism executes multi-threaded runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Backend {
    Fibers,
    Threads,
}

/// The backend `TM_SIM_EXEC` selects (`fibers` where supported, else OS
/// `threads`, when it is unset), or what is wrong with its value — the one
/// place that knows the accepted spellings.
fn backend_from_env() -> Result<Backend, String> {
    let value = match std::env::var("TM_SIM_EXEC") {
        Ok(value) => value,
        Err(std::env::VarError::NotPresent) if fiber::SUPPORTED => return Ok(Backend::Fibers),
        Err(std::env::VarError::NotPresent) => return Ok(Backend::Threads),
        Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
    };
    match value.as_str() {
        "threads" => Ok(Backend::Threads),
        "fibers" if fiber::SUPPORTED => Ok(Backend::Fibers),
        "fibers" => {
            Err("bad TM_SIM_EXEC 'fibers' (the fiber backend needs x86-64 Linux)".to_string())
        }
        _ => Err(format!("bad TM_SIM_EXEC '{value}' (fibers|threads)")),
    }
}

/// Check the `TM_SIM_EXEC` environment variable the way [`Sim::new`] will
/// read it. A front end calls this once at start-up and reports the
/// message as a usage error; `Sim::new` itself panics with it.
pub fn check_exec_env() -> Result<(), String> {
    backend_from_env().map(drop)
}

/// A simulated machine plus scheduler. Create one per experiment
/// configuration; call [`Sim::run`] one or more times (e.g. a sequential
/// initialization phase followed by the parallel measurement phase — cache
/// and memory state persist across runs, virtual clocks restart at zero).
pub struct Sim {
    shared: Arc<Shared>,
    cfg: MachineConfig,
    backend: Backend,
}

impl Sim {
    /// Build a simulator for one machine configuration. The executor
    /// backend is chosen here, once, from `TM_SIM_EXEC` (`fibers` where
    /// supported, else OS `threads`) — both produce bit-identical reports.
    /// Panics on a value [`check_exec_env`] rejects, and on a machine the
    /// model cannot represent: more cores than the cache directory's
    /// sharer mask has bits, or a zero count that the topology or a cache
    /// geometry divides by.
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(
            cfg.cores <= 1 << TID_BITS,
            "{} cores do not fit the scheduling key's {TID_BITS} thread-id bits",
            cfg.cores
        );
        assert!(
            (1..=MAX_CORES).contains(&cfg.cores),
            "{} cores: a machine has 1 to {MAX_CORES}, one a bit of the cache directory's \
             {MAX_CORES}-bit sharer mask",
            cfg.cores
        );
        assert!(cfg.cores_per_socket > 0, "a machine has 0 cores per socket");
        for (level, cache) in [("L1", cfg.l1), ("L2", cfg.l2)] {
            assert!(cache.ways > 0, "the {level} cache has 0 ways");
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                machine: MachineState::new(cfg.clone()),
                time: Vec::new(),
                key: Vec::new(),
                state: Vec::new(),
                fuel: u64::MAX,
                events: 0,
                hash: 0,
                sched_hook: None,
                stacks: fiber::Stacks::default(),
                sps: SavedSps::default(),
            }),
        });
        Sim {
            shared,
            cfg,
            backend: backend_from_env().unwrap_or_else(|bad| panic!("{bad}")),
        }
    }

    #[cfg(test)]
    fn with_backend(cfg: MachineConfig, backend: Backend) -> Self {
        let mut s = Sim::new(cfg);
        s.backend = backend;
        s
    }

    /// The machine configuration this simulator was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Create a simulated mutex ahead of a run (allocator constructors use
    /// this; locks can also be created mid-run via [`Ctx::new_mutex`]).
    pub fn new_mutex(&self) -> SimMutex {
        self.shared.inner.lock().machine.new_lock()
    }

    /// Put `value` — host-side state the logical threads of this machine's
    /// runs share, such as an allocator model's metadata — in a cell that
    /// only the holder of the turn can open. See [`TurnCell`].
    pub fn turn_cell<T>(&self, value: T) -> TurnCell<T> {
        TurnCell {
            shared: Arc::clone(&self.shared),
            value: UnsafeCell::new(value),
        }
    }

    /// Install (or replace) the scheduling-point hook consulted by
    /// [`Ctx::sched_point`]. The hook turns a `(tid, point)` pair into a
    /// virtual delay, letting an external controller — e.g. the `tm-mc`
    /// schedule enumerator — decide exactly where delays are injected
    /// instead of the workload pre-sampling them. Panics instead of
    /// blocking when called during a run of this machine, as
    /// [`TurnCell::with_idle`] does.
    pub fn set_sched_hook(&self, hook: Arc<SchedHook>) {
        let Some(mut idle) = self.shared.inner.try_lock() else {
            panic!("Sim::set_sched_hook called during a run");
        };
        idle.sched_hook = Some(hook);
    }

    /// Bound the number of scheduler events the remaining runs on this
    /// simulator may execute. When the budget is exhausted the offending
    /// event panics with a message starting with [`FUEL_EXHAUSTED`], which
    /// unwinds like a workload panic (locks released, threads marked done).
    /// This converts virtual-time livelocks — spins that make host-side
    /// progress forever without the run terminating — into catchable,
    /// deterministic failures. `events` must be non-zero; the default is
    /// effectively unlimited.
    pub fn set_fuel(&self, events: u64) {
        assert!(events > 0, "fuel budget must be non-zero");
        self.shared.inner.lock().fuel = events;
    }

    /// Escape hatch for tests and post-run inspection: direct, untimed
    /// access to machine state (memory contents, OS bump pointer, ...).
    /// Must not be called while a run is in progress.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut MachineStateView<'_>) -> R) -> R {
        let mut g = self.shared.inner.lock();
        f(&mut MachineStateView { m: &mut g.machine })
    }

    /// Scheduler events executed so far (monotone across runs; rewound by
    /// [`Sim::restore`]). Used by the `tm-mc` explorer to account for the
    /// replay work a checkpoint restore avoided.
    pub fn events(&self) -> u64 {
        self.shared.inner.lock().events
    }

    /// The rolling execution fingerprint: a 64-bit hash folding every
    /// committed `(tid, clock)` update in scheduler order. Deterministic in
    /// the executed schedule, identical across executor backends, and
    /// rewound by [`Sim::restore`] — so the value after a run is a
    /// fingerprint of that run relative to the restored checkpoint.
    pub fn trace_hash(&self) -> u64 {
        self.shared.inner.lock().hash
    }

    /// Capture the complete simulator state — machine (sparse memory via
    /// COW page snapshot, cache hierarchy, locks, OS bump allocator) and
    /// the event/fingerprint counters. Must be called at quiescence
    /// (between runs): there is then no live thread stack to capture,
    /// which is what makes snapshots cheap and exact.
    /// `parent` enables page sharing between related snapshots.
    pub fn snapshot(&self, parent: Option<&SimSnapshot>) -> SimSnapshot {
        let mut g = self.shared.inner.lock();
        SimSnapshot {
            machine: g.machine.snapshot(parent.map(|p| &p.machine)),
            events: g.events,
            hash: g.hash,
        }
    }

    /// Rewind the simulator to `snap` (same quiescence contract as
    /// [`Sim::snapshot`]). The fuel budget is *not* part of a snapshot —
    /// re-arm it with [`Sim::set_fuel`] if the previous run may have
    /// drained it.
    pub fn restore(&self, snap: &SimSnapshot) {
        let mut g = self.shared.inner.lock();
        g.machine.restore(&snap.machine);
        g.events = snap.events;
        g.hash = snap.hash;
    }

    /// Execute `f` once per logical thread on `n` virtual cores and return
    /// the virtual-time report for this run. Thread `tid` is pinned to core
    /// `tid`. Panics if `n` exceeds the machine's core count.
    #[inline]
    pub fn run<F>(&self, n: usize, f: F) -> SimReport
    where
        F: Fn(&mut Ctx<'_>) + Sync,
    {
        self.run_dyn(n, &f)
    }

    /// [`Sim::run`]'s body, compiled once: the workload is erased at the
    /// door, which costs one indirect call per logical thread and nothing
    /// per event.
    fn run_dyn(&self, n: usize, f: &Workload<'_>) -> SimReport {
        assert!(n >= 1, "need at least one thread");
        assert!(
            n <= self.cfg.cores,
            "cannot run {n} threads on {} simulated cores",
            self.cfg.cores
        );
        // The one lock of the run; its threads reach `Inner` by raw pointer.
        // A warm run allocates nothing up to the report: the per-thread
        // vectors keep their capacity from run to run.
        let mut g = self.shared.inner.lock();
        g.time.clear();
        g.time.resize(n, 0);
        g.key.clear();
        g.key.extend((0..n).map(|tid| sched_key(0, tid)));
        g.state.clear();
        g.state.resize(n, TState::Runnable);
        for l in &g.machine.locks {
            assert!(l.holder.is_none(), "lock held across run boundary");
        }
        let stats_before: [CacheStats; MAX_CORES] = std::array::from_fn(|c| {
            if c < n {
                g.machine.caches.stats(c)
            } else {
                CacheStats::default()
            }
        });
        let (locks_before, os_before) = (g.machine.lock_stats(), g.machine.os_allocated);

        // Resolved once per run (`set_sched_hook` refuses to run during
        // one), so `Ctx::sched_point` is a null check and a direct call.
        let hook = g.sched_hook.clone();
        let mut rt = Rt {
            inner: &mut *g,
            n,
            shared: &self.shared,
            hook: hook.as_deref(),
            horizon: 0,
            trust: 0,
            deadlocked: false,
            panic: None,
            turn: AtomicUsize::new(n),
            switch: Switch::Fibers(Vec::new()),
        };
        if n == 1 {
            // Single thread: it is trivially always the minimum, so no
            // hand-off machinery at all — the closure runs on the caller,
            // with an infinite horizon.
            // SAFETY: `rt` is live, and this thread alone reaches it.
            let mut ctx = unsafe { Ctx::new(0, &mut rt, PARKED) };
            f(&mut ctx);
            ctx.finish();
        } else {
            // SAFETY: as above.
            unsafe { self.run_handing_off(&mut rt, f) };
        }

        let cycles = g.time.iter().copied().max().unwrap_or(0);
        let mut per_core = Vec::with_capacity(n);
        let mut total = CacheStats::default();
        for (c, before) in stats_before[..n].iter().enumerate() {
            let now = g.machine.caches.stats(c);
            let d = CacheStats {
                l1_accesses: now.l1_accesses - before.l1_accesses,
                l1_misses: now.l1_misses - before.l1_misses,
                l2_accesses: now.l2_accesses - before.l2_accesses,
                l2_misses: now.l2_misses - before.l2_misses,
                coherence_transfers: now.coherence_transfers - before.coherence_transfers,
                invalidations: now.invalidations - before.invalidations,
            };
            total.merge(&d);
            per_core.push(d);
        }
        let locks_now = g.machine.lock_stats();
        SimReport {
            threads: n,
            cycles,
            seconds: cycles as f64 / self.cfg.freq_hz as f64,
            cache_per_core: per_core,
            cache_total: total,
            locks: crate::machine::LockStats {
                acquisitions: locks_now.acquisitions - locks_before.acquisitions,
                contended: locks_now.contended - locks_before.contended,
                wait_cycles: locks_now.wait_cycles - locks_before.wait_cycles,
            },
            os_allocated: g.machine.os_allocated - os_before,
        }
    }

    /// A run of more than one logical thread: spawn them suspended, let the
    /// driver hand the turn round until all are done, and re-raise what went
    /// wrong.
    ///
    /// # Safety
    /// `rt` must point to a fresh run's state that only the caller reaches.
    /// It, `boots` and the fiber stacks outlive every thread of the run:
    /// `drive` returns once each has handed the turn on for good, and the
    /// scope joins its OS threads.
    unsafe fn run_handing_off<'a>(&self, rt: *mut Rt<'a>, f: &'a Workload<'a>) {
        // SAFETY: the caller's contract makes `rt` live and this thread its
        // only user until the first hand-off; after `drive` returns every
        // logical thread has handed the turn on for good, so the run state
        // is this thread's alone again for the checks below.
        let n = (*rt).n;
        let boots: [Boot<'_>; MAX_CORES] = std::array::from_fn(|tid| Boot { rt, f, tid });
        let boots = &boots[..n];
        match self.backend {
            Backend::Fibers => {
                let inner = &mut *(*rt).inner;
                let mut sps = std::mem::take(&mut inner.sps.0);
                sps.clear();
                // SAFETY: the stacks belong to this machine, whose run lock
                // the caller holds, and no context lives on them: the run
                // before this one returned only once `drive` had seen each
                // of its fibers hand the turn on for good, and a fiber
                // whose turn went for good is never resumed. The boot
                // frames point at `boots`, which outlive the run.
                for (stack, b) in inner.stacks.first(n).iter().zip(boots) {
                    let boot = ptr::from_ref(b) as *mut u8;
                    sps.push(Cell::new(stack.boot(fiber_main, boot)));
                }
                sps.push(Cell::new(ptr::null_mut()));
                (*rt).switch = Switch::Fibers(sps);
                (*rt).trust = u64::MAX;
                drive(rt);
                // Every fiber is done: the table goes back for the next run.
                let done = std::mem::replace(&mut (*rt).switch, Switch::Fibers(Vec::new()));
                if let Switch::Fibers(sps) = done {
                    (*(*rt).inner).sps.0 = sps;
                }
            }
            Backend::Threads => std::thread::scope(|s| {
                let turn = &(*rt).turn;
                let mut handles = Vec::with_capacity(n + 1);
                for b in boots {
                    let worker = s.spawn(move || {
                        await_turn(turn, b.tid);
                        thread_main(b);
                    });
                    handles.push(worker.thread().clone());
                }
                handles.push(std::thread::current());
                (*rt).switch = Switch::Threads(handles);
                // SAFETY: every worker parks in `await_turn` until the
                // driver names it, so this thread holds the turn and no
                // reference into `rt` is live here.
                drive(rt);
            }),
        }
        assert!(
            !(*rt).deadlocked,
            "virtual deadlock: every unfinished thread is blocked on a simulated lock"
        );
        if let Some(p) = (*rt).panic.take() {
            std::panic::resume_unwind(p);
        }
    }
}

/// Frozen simulator state produced by [`Sim::snapshot`]: the machine image
/// plus the event/fingerprint counters. Capturing is
/// `O(resident pages + materialized cache rows)`; restoring to the
/// snapshot taken (or restored to) last is `O(resident pages + ways touched
/// since)`, to any other what capturing costs. Either leaves the `Sim`
/// exactly as captured, so a
/// deterministic workload re-run from a snapshot is bit-identical to one
/// from a fresh simulator that executed the same prefix.
pub struct SimSnapshot {
    machine: crate::machine::MachineSnapshot,
    events: u64,
    hash: u64,
}

impl SimSnapshot {
    /// Scheduler events executed when this snapshot was taken (the cost of
    /// the prefix a restore avoids replaying).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Materialized memory pages captured (diagnostic).
    pub fn pages(&self) -> usize {
        self.machine.pages()
    }
}

/// Host-side state shared by the logical threads of one [`Sim`]'s runs, and
/// owned by whoever holds the turn: built by [`Sim::turn_cell`], opened
/// during a run by [`TurnCell::with`] at the cost of one pointer compare —
/// no lock, no atomic, no flag — and between runs by [`TurnCell::with_idle`].
///
/// Exactly one logical thread runs between two hand-offs of the turn, and a
/// thread hands it on only inside an event, which takes its `&mut Ctx`
/// ([`Ctx`]). `with` borrows that `Ctx` mutably for as long as the closure
/// runs, so the two rules for host-side state are the borrow checker's: the
/// closure cannot name `ctx`, hence no event — no hand-off — happens while
/// the value is borrowed, and no second `with` of the same machine nests
/// inside it.
///
/// ```
/// use tm_sim::{MachineConfig, Sim};
///
/// let sim = Sim::new(MachineConfig::xeon_e5405());
/// let cell = sim.turn_cell(0u64);
/// sim.run(4, |ctx| {
///     let seen = ctx.read_u64(0x1000);
///     cell.with(ctx, |sum| *sum += seen + 1);
/// });
/// assert_eq!(cell.with_idle(|sum| *sum), 4);
/// ```
///
/// An event under the borrow does not compile:
///
/// ```compile_fail,E0500
/// use tm_sim::{MachineConfig, Sim};
///
/// let sim = Sim::new(MachineConfig::xeon_e5405());
/// let cell = sim.turn_cell(0u64);
/// sim.run(4, |ctx| {
///     cell.with(ctx, |_| ctx.read_u64(0x1000));
/// });
/// ```
pub struct TurnCell<T> {
    /// The machine whose turn guards `value`.
    shared: Arc<Shared>,
    value: UnsafeCell<T>,
}

// SAFETY: `shared` is `Sync` by itself. `value` is reached only through
// `with` and `with_idle`, each of which establishes that its caller is the
// only thread inside the cell (see there) — the cell is a lock whose guard
// is the turn — so, as for a mutex, sharing the cell moves `T` between
// threads and never shares it: `T: Send` is what that needs.
unsafe impl<T: Send> Sync for TurnCell<T> {}

impl<T> TurnCell<T> {
    /// Run `f` on the value, from a logical thread of a run of this cell's
    /// machine. Panics if `ctx` is a thread of another [`Sim`].
    #[inline]
    pub fn with<R>(&self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut T) -> R) -> R {
        if !ptr::eq(ctx.shared, &*self.shared) {
            foreign_ctx();
        }
        // SAFETY: nothing else is inside the cell, and nothing can enter
        // before `f` returns. `ctx` exists only inside a `Sim::run` of this
        // machine (the check above), which holds `shared.inner` for all of
        // it: no second run, and no `with_idle`, which needs that lock. Of
        // the run's threads only the holder of the turn executes, on both
        // executors (`thread_main` calls the workload only after `resumed`;
        // on OS threads every access lies on the baton's `Release`/`Acquire`
        // chain — see `Boot`), and the caller is that thread: it has the
        // `&mut Ctx`, which is neither `Send` nor able to outlive the
        // workload call it was lent to. It stays the holder until its next
        // event, and `f` can cause none: every event takes the `&mut Ctx`
        // borrowed here. For the same reason `f` cannot call `with` again.
        f(unsafe { &mut *self.value.get() })
    }

    /// Run `f` on the value while no run of this cell's machine is in
    /// progress (set-up, inspection, snapshot and restore). Panics instead
    /// of blocking when one is — called from inside a run it could only
    /// deadlock — and likewise while another thread is inside the machine
    /// between runs (another `with_idle`, a [`Sim::snapshot`]).
    pub fn with_idle<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let Some(_idle) = self.shared.inner.try_lock() else {
            panic!("TurnCell::with_idle called during a run");
        };
        // SAFETY: `_idle` is the lock every `Sim::run` of this machine
        // holds from before its first thread starts until after its last
        // has finished, and every `with_idle` for the whole of `f`: while we
        // hold it no `Ctx` of this machine exists, so no `with` can be
        // running or start, and no other `with_idle` can.
        f(unsafe { &mut *self.value.get() })
    }
}

#[cold]
#[inline(never)]
fn foreign_ctx() -> ! {
    panic!("TurnCell::with called with the Ctx of another Sim");
}

/// State of a run; lives on the driver's stack and, like `Inner`, is reached
/// from the run's threads through a raw pointer. Only the holder of the turn
/// touches either, and it gives the turn up only in [`hand_off`]: references
/// into them are created fresh after every hand-off, never held across one.
struct Rt<'a> {
    inner: *mut Inner,
    /// Logical threads in the run; also the driver's slot, after theirs.
    n: usize,
    shared: &'a Shared,
    hook: Option<&'a SchedHook>,
    /// Mailbox of a hand-off: whoever resumes a thread leaves that thread's
    /// horizon here, and the resumed thread picks it up first thing.
    horizon: u64,
    /// Mask on every horizon handed out: all ones on fibers, zero on OS
    /// threads — the reference rescans at every event.
    trust: u64,
    /// Set by the driver on a virtual deadlock: from then on a thread
    /// resumed inside [`Ctx::lock`] unwinds.
    deadlocked: bool,
    /// First panic of a logical thread, in hand-off order; re-raised at the
    /// end. From then on every thread unwinds as it is resumed
    /// ([`resumed`]).
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// OS threads: the baton — the slot that holds the turn.
    turn: AtomicUsize,
    /// Not written once the first thread runs.
    switch: Switch,
}

/// What [`hand_off`] switches, per slot: the tids, then the driver.
enum Switch {
    /// The saved context of each suspended fiber.
    Fibers(Vec<Cell<*mut u8>>),
    /// The handle that unparks each OS thread.
    Threads(Vec<Thread>),
}

/// A run's workload, erased: every thread of every run calls it through
/// this one type, so the executor below is compiled once.
type Workload<'a> = dyn Fn(&mut Ctx<'_>) + Sync + 'a;

/// What a logical thread is started with.
struct Boot<'a> {
    rt: *mut Rt<'a>,
    f: &'a Workload<'a>,
    tid: usize,
}

// SAFETY: `f` is a shared reference to a `dyn Fn + Sync`: the trait object
// carries the `Sync` bound of the closure it erased, and calling it through
// the vtable takes no more than `&`, so sharing `f` between threads is what
// that bound allows. `rt` — whose `shared` and `hook` are `Sync` too — and
// the `Inner` behind it are reached from an OS thread only while it holds
// the turn: every access follows an `Acquire` load of the baton that read
// the thread's own slot (`await_turn`), stored with `Release` by the
// previous holder after its last access (`pass_baton`). The hand-offs thus
// order all accesses in one happens-before chain, as if one thread had made
// them.
unsafe impl Sync for Boot<'_> {}

/// Payload the scheduler unwinds a thread with — one blocked in a virtual
/// deadlock, or one suspended when a peer panicked; never the run's panic.
struct Unwound;

/// The driver's side of a run: start the first thread and, when the turn
/// comes back because nothing is runnable, find every thread done — or, a
/// virtual deadlock, unwind one blocked thread: resumed inside [`Ctx::lock`]
/// it unwinds with an [`Unwound`] payload, dropping the host-side guards
/// on its stack, and its `Ctx` drop releases its simulated locks; the
/// waiters that wakes run next and unwind the same way.
///
/// # Safety
/// Must run on the driver of the live run `rt` points to, holding the turn,
/// with no reference into `Inner` or `Rt` live in the caller.
unsafe fn drive(rt: *mut Rt<'_>) {
    let driver = (*rt).n;
    loop {
        // SAFETY: the driver holds the turn here — at entry, and each time
        // a hand-off comes back to it — and keeps no reference across one.
        let to = successor(rt, driver).expect("the driver has no key");
        if to != driver {
            hand_off(rt, driver, to, false);
            continue;
        }
        // Nothing is runnable: whoever is not done is blocked.
        // SAFETY: the driver holds the turn, and this borrow ends before
        // the next hand-off.
        let inner = &mut *(*rt).inner;
        let Some(t) = inner.state.iter().position(|s| *s != TState::Done) else {
            return;
        };
        (*rt).deadlocked = true;
        inner.wake(t);
    }
}

/// The body of a logical thread, entered holding the turn for the first
/// time; hands it on for good at the end.
///
/// # Safety
/// `boot.rt` must point to the live run this thread belongs to.
unsafe fn thread_main(boot: &Boot<'_>) {
    let (rt, tid) = (boot.rt, boot.tid);
    // SAFETY: a logical thread runs only while it holds the turn (the
    // driver or a peer handed it over to boot or resume it), and its `Ctx`
    // reaches `rt` only between hand-offs; `rt` outlives the thread
    // (`run_handing_off`).
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // The `Ctx` first: its drop is what marks a thread done, also one
        // that `resumed` unwinds before it ran at all.
        let mut ctx = Ctx::new(tid, rt, 0);
        ctx.horizon = resumed(rt, tid);
        (boot.f)(&mut ctx);
        ctx.finish();
        // If the closure panics, the `Ctx` drop marks the thread Done and frees
        // its locks; the peers unwind as they are resumed, and `run` re-raises
        // the payload once every thread has finished.
    }));
    if let Err(p) = result {
        // SAFETY: the `Ctx` is gone and the thread still holds the turn.
        if (*rt).panic.is_none() && !p.is::<Unwound>() {
            (*rt).panic = Some(p);
        }
    }
    // Done and parked: hand the turn on for good.
    let to = successor(rt, tid).expect("a finished thread is not the minimum");
    hand_off(rt, tid, to, true);
}

unsafe extern "C" fn fiber_main(arg: *mut u8) -> ! {
    thread_main(&*(arg as *const Boot<'_>));
    unreachable!("a finished fiber was resumed");
}

/// One scan for slot `from`, which cannot take the next step: the slot to
/// hand the turn to — the minimum, its horizon left in the mailbox; the
/// driver when nothing is runnable — or `Err(from's own horizon)` when the
/// scan finds `from` is the minimum after all.
///
/// # Safety
/// As for [`yield_turn`].
#[inline(always)]
unsafe fn successor(rt: *mut Rt<'_>, from: usize) -> Result<usize, u64> {
    match (&*(*rt).inner).next_turn() {
        Some((t, horizon)) if t == from => Err(horizon & (*rt).trust),
        Some((t, horizon)) => {
            (*rt).horizon = horizon & (*rt).trust;
            Ok(t)
        }
        None => Ok((*rt).n),
    }
}

/// Thread `tid` cannot take the next step — it is not the minimum, or it
/// just blocked: one scan, then hand the turn straight to the thread that
/// can, or to the driver. Returns `tid`'s own horizon once a peer has handed
/// the turn back — or at once, if the scan finds `tid` is the minimum after
/// all (its horizon was reset or is not trusted, not overtaken).
///
/// # Safety
/// Must run on thread `tid` of the live run `rt` points to, holding the
/// turn, with no reference into `Inner` or `Rt` live in the caller.
// Out of line on purpose: the event paths inline `take_turn`'s one compare,
// and measurably slow down (solo events by a quarter) if the scan and the
// switch are inlined into them along with it.
#[inline(never)]
unsafe fn yield_turn(rt: *mut Rt<'_>, tid: usize) -> u64 {
    match successor(rt, tid) {
        Ok(to) => {
            hand_off(rt, tid, to, false);
            resumed(rt, tid)
        }
        Err(horizon) => horizon,
    }
}

/// The one primitive the backends implement differently: suspend slot
/// `from`, resume slot `to`; returns when the turn comes back — never, after
/// handing it on `for_good` (an OS thread then returns at once instead).
///
/// # Safety
/// As for [`yield_turn`]; `from` is the caller's own slot, `to` a suspended one.
#[inline(always)]
unsafe fn hand_off(rt: *mut Rt<'_>, from: usize, to: usize, for_good: bool) {
    // A shared reference: parked OS threads hold one too.
    match &(*rt).switch {
        // SAFETY: `from` is the running fiber, so its slot may take its
        // stack pointer; `to` is suspended in a switch or freshly booted,
        // so its slot holds a stack pointer `fiber::switch` can resume, on
        // a stack the `Sim` keeps for the whole run.
        Switch::Fibers(sps) => fiber::switch(sps[from].as_ptr(), sps[to].get()),
        Switch::Threads(handles) => pass_baton(&(*rt).turn, handles, from, to, for_good),
    }
}

/// OS-thread backend: name `to` in the baton and unpark it, then wait for the
/// baton to come back unless it went `for_good`. Out of line, so that the
/// fiber path through [`yield_turn`] saves no registers for it.
#[inline(never)]
fn pass_baton(turn: &AtomicUsize, handles: &[Thread], from: usize, to: usize, for_good: bool) {
    // `Release`: all this thread did while it held the turn happens before
    // whatever `to` does next (`await_turn`).
    turn.store(to, Ordering::Release);
    handles[to].unpark();
    if !for_good {
        await_turn(turn, from);
    }
}

/// OS-thread backend: park until the baton names `slot`; `Acquire` pairs with
/// [`pass_baton`]'s store. `park` may return spuriously or on a stale token.
fn await_turn(turn: &AtomicUsize, slot: usize) {
    while turn.load(Ordering::Acquire) != slot {
        std::thread::park();
    }
}

/// First thing thread `tid` does whenever it gains control (boot, or return
/// from a hand-off): collect the horizon its resumer left for it — unless a
/// peer has panicked since. The run is lost then, and what this thread waits
/// for may never come (a word the dead thread owned, spun on with a fuel of
/// `u64::MAX`), so it unwinds here, as a deadlocked thread does in
/// [`Ctx::lock`]: its `Ctx` drop marks it done and frees its locks, and the
/// thread it hands the turn to does the same, until the driver re-raises
/// the panic. Every peer of a panicking thread is suspended in a hand-off,
/// so one load per hand-off reaches them all.
///
/// # Safety
/// As for [`yield_turn`].
unsafe fn resumed(rt: *mut Rt<'_>, tid: usize) -> u64 {
    // SAFETY: `tid` was just handed the turn, and its resumer wrote the
    // horizon and any panic before handing it over (for OS threads,
    // before the `Release` store `await_turn` acquired).
    if (*rt).panic.is_some() {
        std::panic::resume_unwind(Box::new(Unwound));
    }
    debug_assert!(
        (&*(*rt).inner).is_min(tid),
        "a resumed thread is the minimum"
    );
    (*rt).horizon
}

/// Untimed view of machine state for setup/inspection (see
/// [`Sim::with_state`]).
pub struct MachineStateView<'a> {
    m: &'a mut MachineState,
}

impl MachineStateView<'_> {
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.m.mem.read(addr)
    }
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.m.mem.write(addr, val)
    }
    pub fn os_alloc(&mut self, size: u64, align: u64) -> u64 {
        self.m.os_alloc(size, align)
    }
    pub fn os_allocated(&self) -> u64 {
        self.m.os_allocated
    }
    /// Host memory pressure proxy: 4 KiB pages materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.m.mem.resident_pages()
    }
    /// Loads and stores — this view's included — that landed on a page a
    /// [`Ctx::os_free`] gave back and nothing wrote since: a use after
    /// free of a large block. Host-side; in no report, not rewound by
    /// [`Sim::restore`].
    pub fn released_accesses(&self) -> u64 {
        self.m.mem.released_accesses()
    }
    /// Page-radix leaves that exist: one per 4 MiB span that holds a
    /// materialized page.
    pub fn radix_leaves(&self) -> usize {
        self.m.mem.radix_leaves()
    }
    /// Entries in the memory's materialization log, tombstones included.
    pub fn log_entries(&self) -> usize {
        self.m.mem.log_entries()
    }
}

/// Per-thread execution context handed to workload closures. All simulated
/// machine interaction goes through this handle.
///
/// Exactly one logical thread runs between two hand-offs of the turn, and a
/// thread hands it on only inside an event (a memory access, an atomic, a
/// lock operation, [`Ctx::fence`], ...). Host-side state the closures share
/// — a `Mutex<Vec<_>>`, an allocator's free lists — is therefore ordered by
/// hand-off order, identically on both executor backends. Two rules follow:
/// never wait on the host for a peer (it cannot run before this thread's
/// next event), and never hold a host lock across an event (the thread that
/// gets the turn may want it). A [`TurnCell`] holds such state without a
/// lock and turns the second rule into a compile error.
pub struct Ctx<'a> {
    tid: usize,
    n: usize,
    shared: &'a Shared,
    /// The scheduling-point hook installed when the run started, if any.
    hook: Option<&'a SchedHook>,
    /// The scheduler and machine state, behind the lock [`Sim::run`] holds
    /// for the whole run; ours to touch while we hold the turn.
    inner: *mut Inner,
    /// The run's hand-off state.
    rt: *mut Rt<'a>,
    /// This thread is the `(clock, tid)` minimum while its key is below
    /// `horizon` (the runner-up's key), so its events proceed on that one
    /// compare. Trustworthy because only the holder of the turn runs:
    /// nobody else's key can move until we hand the turn on (a fresh
    /// horizon comes with every resume) or wake a waiter (`unlock` zeroes
    /// it, forcing a rescan). Solo runs keep it at [`PARKED`], above every
    /// key; the OS-thread backend at 0, below every key.
    horizon: u64,
    pending: u64,
    /// Mirror of this thread's committed clock, maintained at every event
    /// for [`Ctx::now`] and the tracing path. Exact: another thread only
    /// ever advances our clock while we are blocked on a simulated lock, and
    /// the blocked path refreshes the mirror.
    local_time: u64,
    finished: bool,
}

impl Drop for Ctx<'_> {
    fn drop(&mut self) {
        // A panicking workload thread must still be marked Done, or every
        // other thread would wait on its (never-advancing) clock forever
        // and the run would deadlock instead of propagating the panic.
        if !self.finished {
            self.finish();
        }
    }
}

impl<'a> Ctx<'a> {
    /// # Safety
    /// `rt` must point to the live run thread `tid` belongs to.
    unsafe fn new(tid: usize, rt: *mut Rt<'a>, horizon: u64) -> Self {
        Ctx {
            tid,
            n: (*rt).n,
            shared: (*rt).shared,
            hook: (*rt).hook,
            inner: (*rt).inner,
            rt,
            horizon,
            pending: 0,
            local_time: 0,
            finished: false,
        }
    }

    /// This logical thread's id == the core it is pinned to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of logical threads in this run.
    pub fn n_threads(&self) -> usize {
        self.n
    }

    /// Charge `cycles` of local compute. O(1), no synchronization; the cost
    /// is folded into this thread's clock at its next shared event.
    #[inline]
    pub fn tick(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    /// Current virtual time of this thread (including pending local work).
    /// Lock-free: reads the locally mirrored clock.
    #[inline]
    pub fn now(&mut self) -> u64 {
        self.local_time + self.pending
    }

    /// Named scheduling point: if a hook is installed ([`Sim::set_sched_hook`]),
    /// ask it how many cycles to delay this thread here and inject that
    /// delay via [`Ctx::tick`]; with no hook this is free. `point` is a
    /// workload-chosen stable id (e.g. the transaction index), *not* a call
    /// counter — a retried transaction re-announces the same point and must
    /// receive the same delay, keeping replays deterministic. Returns the
    /// injected delay.
    pub fn sched_point(&mut self, point: u64) -> u64 {
        match self.hook {
            Some(h) => {
                let d = h(self.tid, point);
                if d > 0 {
                    self.tick(d);
                }
                d
            }
            None => 0,
        }
    }

    /// Block until this thread holds the minimum clock among runnable
    /// threads, then run `f` against the machine. `f` returns (cycle cost,
    /// result).
    fn event<R>(&mut self, f: impl FnOnce(&mut MachineState, usize) -> (u64, R)) -> R {
        // SAFETY: see `take_turn`; `g` is the only live reference into
        // `Inner` and no hand-off happens while it is.
        unsafe {
            self.take_turn();
            let g = &mut *self.inner;
            g.burn_fuel();
            let (cost, r) = f(&mut g.machine, self.tid);
            let t = g.time[self.tid] + cost;
            g.commit(self.tid, t);
            self.local_time = t;
            r
        }
    }

    /// Flush pending compute and return once this thread is the minimum —
    /// at once while its key is below the cached horizon, else after one
    /// scan and (unless that scan finds it is the minimum after all) a
    /// direct hand-off to the thread that is.
    ///
    /// # Safety
    /// The caller holds the turn, and must hold no reference into `Inner`:
    /// this may hand the turn to other threads, which mutate it. On return
    /// the caller may derive one, and must drop it before anything that can
    /// hand off again.
    #[inline(always)]
    unsafe fn take_turn(&mut self) {
        let key = (&mut *self.inner).flush(self.tid, self.pending);
        self.pending = 0;
        if key >= self.horizon {
            // Never on a solo run: its horizon is above every key.
            self.horizon = yield_turn(self.rt, self.tid);
        }
    }

    /// Zero-cost synchronization event: flush pending compute and block
    /// until this thread's clock is globally minimal. After `fence`
    /// returns, every other thread has either finished or advanced its
    /// clock past this thread's — so host-side shared state they published
    /// before that point (e.g. a test handing addresses across threads) is
    /// visible. Workloads that exchange host-side data keyed on virtual
    /// time must fence before reading it; `tick` alone imposes no ordering.
    /// It is also the only way to let a peer run: between two events this
    /// thread runs alone, so it must never wait on the host for a peer, nor
    /// hold a host lock across this or any other event (see [`Ctx`]).
    pub fn fence(&mut self) {
        self.event(|_, _| (0, ()));
    }

    /// Read the aligned 64-bit word at `addr` through the cache model.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, false);
            (cost, m.mem.read(addr))
        })
    }

    /// Read two words in one scheduling slot (both charged through the
    /// cache model, no interleaving between them). The STM's read path
    /// uses this for its data-load + lock-recheck pair: collapsing the
    /// window is semantically harmless (it can only *reduce* read races)
    /// and removes a third of the scheduler hand-offs on read-heavy
    /// workloads.
    pub fn read_u64_pair(&mut self, addr_a: u64, addr_b: u64) -> (u64, u64) {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr_a, false) + m.caches.access(tid, addr_b, false);
            (cost, (m.mem.read(addr_a), m.mem.read(addr_b)))
        })
    }

    /// Write the aligned 64-bit word at `addr` through the cache model.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, true);
            m.mem.write(addr, val);
            (cost, ())
        })
    }

    /// Atomic compare-and-swap on the word at `addr`. Returns `Ok(expected)`
    /// on success, `Err(actual)` on failure. Charged as a write access plus
    /// the atomic RMW premium (both success and failure pay it, like a real
    /// `lock cmpxchg`).
    pub fn cas_u64(&mut self, addr: u64, expected: u64, new: u64) -> Result<u64, u64> {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, true) + m.cfg.cost.atomic_rmw;
            let cur = m.mem.read(addr);
            if cur == expected {
                m.mem.write(addr, new);
                (cost, Ok(expected))
            } else {
                (cost, Err(cur))
            }
        })
    }

    /// Spin until a compare-and-swap of the word at `addr` from `expected`
    /// to `new` succeeds, charging `backoff` cycles of local compute after
    /// every failure: exactly `while cas_u64(addr, expected, new).is_err()
    /// { tick(backoff) }`, clocks, counters and fingerprint included —
    /// only the failures that run below the horizon take one pass between
    /// them instead of an event each (`Ctx::fold_repeats`, DESIGN.md §4.1).
    pub fn cas_u64_spin(&mut self, addr: u64, expected: u64, new: u64, backoff: u64) {
        while self.cas_u64(addr, expected, new).is_err() {
            self.tick(backoff);
            self.fold_repeats(addr, true);
        }
    }

    /// Read the word at `addr` until `done` accepts it, charging `backoff`
    /// cycles after every refusal, and return the accepted value: exactly
    /// `let mut v = read_u64(addr); while !done(v) { tick(backoff); v =
    /// read_u64(addr) }`, with the fold of [`Ctx::cas_u64_spin`]. `done`
    /// must be a pure function of the value.
    pub fn read_u64_until(&mut self, addr: u64, backoff: u64, done: impl Fn(u64) -> bool) -> u64 {
        loop {
            let v = self.read_u64(addr);
            if done(v) {
                return v;
            }
            self.tick(backoff);
            self.fold_repeats(addr, false);
        }
    }

    /// The one fold of a spin. The iteration that just ran accessed `addr`
    /// (a CAS when `cas`, else a read), found the word wanting, and left
    /// its backoff pending; run the iterations that follow in one pass —
    /// each flushes that backoff, is charged one event, one unit of fuel,
    /// a hit's cost and a commit (the clock and the fingerprint move per
    /// iteration), and fails again — for as long as the next one would
    /// start below the horizon, leave the fuel at 1 or more, and find the
    /// line where the cache model needs no coherence action to repeat the
    /// access. The cache takes the hits' effects at the end, in one step.
    /// The iteration that stops the fold runs as an event, so a hand-off,
    /// the fuel panic and the clock-overflow panic all happen where the
    /// loop would have them.
    ///
    /// Exact because only the holder of the turn runs until its key
    /// reaches the horizon: nothing else can write the word, move the
    /// line or change a peer's key meanwhile, so every folded iteration
    /// reads the value the last event read, at the same cost. The OS-thread
    /// reference trusts no horizon (every horizon it is handed is 0), so it
    /// never folds.
    fn fold_repeats(&mut self, addr: u64, cas: bool) {
        // SAFETY: we hold the turn, no other reference into `Inner` is live,
        // and nothing below hands the turn on.
        let g = unsafe { &mut *self.inner };
        let (tid, backoff, horizon) = (self.tid, self.pending, self.horizon);
        // Would the iteration after a commit at clock `t` start below the
        // horizon, on a clock the key can hold — without a scan?
        let below = |t: u64| t + backoff < CLOCK_LIMIT && sched_key(t + backoff, tid) < horizon;
        // Most spins have a peer just above them: ask the horizon before the
        // cache. The fuel before iteration `k` is `fuel - k`; at least 2, so
        // that its event leaves at least 1 and `burn_fuel` would not panic.
        let mut t = g.time[tid];
        if g.fuel < 2 || !below(t) {
            return;
        }
        let Some(hit) = g.machine.caches.repeat_cost(tid, addr, cas) else {
            return;
        };
        // A CAS pays the RMW premium on top of the hit, as `cas_u64` does.
        let cost = hit + u64::from(cas) * g.machine.cfg.cost.atomic_rmw;
        let mut k = 0;
        while k + 2 <= g.fuel && below(t) {
            t += backoff + cost;
            g.commit(tid, t);
            k += 1;
        }
        g.key[tid] = sched_key(t - cost, tid);
        g.events += k;
        g.fuel -= k;
        g.machine.caches.repeat(tid, addr, cas, k);
        self.local_time = t;
        #[cfg(test)]
        tests::FOLDED.with(|n| n.set(n.get() + k));
    }

    /// Start a best-effort hardware transaction on this core: subsequent
    /// [`Ctx::htm_read_u64`] / [`Ctx::htm_write_mark`] accesses join the
    /// transactional footprint tracked by the cache model, and coherence
    /// invalidations or L1 evictions of tracked lines doom the transaction.
    pub fn htm_begin(&mut self) {
        self.event(|m, tid| (0, m.caches.htm_begin(tid)))
    }

    /// End hardware tracking without committing and return the doom
    /// verdict, if any. Idempotent: calling with no transaction active
    /// returns `None`.
    pub fn htm_abort(&mut self) -> Option<crate::HtmAbort> {
        self.event(|m, tid| (0, m.caches.htm_end(tid)))
    }

    /// Transactional read: charge the access, add the line to the hardware
    /// read set, and return the current memory value. Fails if the
    /// transaction is already doomed or this access itself overflows the L1
    /// (the value cannot be trusted once tracking is lost).
    pub fn htm_read_u64(&mut self, addr: u64) -> Result<u64, crate::HtmAbort> {
        self.event(|m, tid| {
            if let Some(doom) = m.caches.htm_doomed(tid) {
                return (0, Err(doom));
            }
            let cost = m.caches.access(tid, addr, false);
            match m.caches.htm_doomed(tid) {
                Some(doom) => (cost, Err(doom)),
                None => (cost, Ok(m.mem.read(addr))),
            }
        })
    }

    /// Transactional write *marking*: charge a write access and add the
    /// line to the hardware write set, but do not change memory — buffered
    /// transactional stores stay invisible until [`Ctx::htm_commit`]
    /// applies them (the cache model is tags-only, so "invisible" is
    /// simply "not yet written to the central memory").
    pub fn htm_write_mark(&mut self, addr: u64) -> Result<(), crate::HtmAbort> {
        self.event(|m, tid| {
            if let Some(doom) = m.caches.htm_doomed(tid) {
                return (0, Err(doom));
            }
            let cost = m.caches.access(tid, addr, true);
            match m.caches.htm_doomed(tid) {
                Some(doom) => (cost, Err(doom)),
                None => (cost, Ok(())),
            }
        })
    }

    /// Atomically commit a hardware transaction: in one scheduling slot,
    /// check the doom verdict and — if clear — apply every buffered write
    /// to memory and end tracking. The single-event application is the
    /// model's analogue of the cache making all transactional stores
    /// visible at once at commit. Ends tracking in both outcomes.
    pub fn htm_commit(&mut self, writes: &[(u64, u64)]) -> Result<(), crate::HtmAbort> {
        self.event(|m, tid| {
            if let Some(doom) = m.caches.htm_end(tid) {
                return (0, Err(doom));
            }
            let mut cost = 0;
            for &(addr, val) in writes {
                cost += m.caches.access(tid, addr, true);
                m.mem.write(addr, val);
            }
            (cost, Ok(()))
        })
    }

    /// Atomic fetch-add on the word at `addr`; returns the previous value.
    pub fn fetch_add_u64(&mut self, addr: u64, delta: u64) -> u64 {
        self.event(|m, tid| {
            let cost = m.caches.access(tid, addr, true) + m.cfg.cost.atomic_rmw;
            let cur = m.mem.read(addr);
            m.mem.write(addr, cur.wrapping_add(delta));
            (cost, cur)
        })
    }

    /// Reserve a fresh aligned region from the simulated OS (mmap-like);
    /// charges the OS-call cost.
    pub fn os_alloc(&mut self, size: u64, align: u64) -> u64 {
        self.event(|m, _| {
            let cost = m.cfg.cost.os_alloc;
            (cost, m.os_alloc(size, align))
        })
    }

    /// Hand the mapping `[base, base + len)` an [`Ctx::os_alloc`] returned
    /// back to the simulated OS (munmap-like): the pages that lie wholly
    /// inside it give their host storage back and read as zero from now on.
    /// Host bookkeeping done while this thread holds the turn, not an event:
    /// no clock advance, no fuel, no fingerprint update, no scheduling
    /// point — the caller charges the munmap's cost with [`Ctx::tick`] — and
    /// `os_allocated` still counts the mapping.
    pub fn os_free(&mut self, base: u64, len: u64) {
        // SAFETY: we hold the turn, no other reference into `Inner` is live,
        // and nothing below hands the turn on.
        unsafe { &mut *self.inner }.machine.mem.release(base, len);
    }

    /// Create a new simulated mutex mid-run.
    pub fn new_mutex(&mut self) -> SimMutex {
        self.event(|m, _| (0, m.new_lock()))
    }

    /// Acquire `mx`, blocking in virtual time while another thread holds it.
    pub fn lock(&mut self, mx: SimMutex) {
        let mut counted = false;
        loop {
            if self.lock_attempt(mx, true, &mut counted) {
                return;
            }
            // We were enqueued as Blocked; wait until the releaser makes us
            // runnable again, then re-contend.
            assert!(
                self.n > 1,
                "virtual deadlock: lone thread blocked on a simulated lock"
            );
            // SAFETY: we hold the turn, no reference into `Inner` live.
            unsafe {
                // Parked, so this always hands the turn on; a peer resumes
                // us only once a release has made us the minimum — or the
                // driver does, to unwind a deadlock (see `drive`).
                self.horizon = yield_turn(self.rt, self.tid);
                if (*self.rt).deadlocked {
                    std::panic::resume_unwind(Box::new(Unwound));
                }
                // The releaser advanced our clock to the release time.
                self.local_time = (&*self.inner).time[self.tid];
            }
        }
    }

    /// Try to acquire `mx` without blocking; returns whether it was taken.
    /// This models Glibc's `pthread_mutex_trylock` arena probing.
    pub fn try_lock(&mut self, mx: SimMutex) -> bool {
        let mut counted = true; // try_lock never counts as contended
        self.lock_attempt(mx, false, &mut counted)
    }

    fn lock_attempt(&mut self, mx: SimMutex, block: bool, counted: &mut bool) -> bool {
        // SAFETY: see `take_turn`.
        unsafe {
            self.take_turn();
            let g = &mut *self.inner;
            let acquired = acquire_locked(g, self.tid, mx, block, counted);
            self.local_time = g.time[self.tid];
            acquired
        }
    }

    /// Release `mx`; all threads blocked on it become runnable with their
    /// clocks advanced to the release time (their wait is recorded in the
    /// lock statistics).
    pub fn unlock(&mut self, mx: SimMutex) {
        // SAFETY: see `take_turn`.
        unsafe {
            self.take_turn();
            let g = &mut *self.inner;
            let woke = release_lock(g, self.tid, mx);
            self.local_time = g.time[self.tid];
            if woke {
                // A waiter re-entered scheduling at our clock; with a
                // lower tid it precedes us. Look again at the next event.
                self.horizon = 0;
            }
        }
    }

    /// Run `f` under `mx` (convenience for lock/unlock pairs).
    pub fn with_lock<R>(&mut self, mx: SimMutex, f: impl FnOnce(&mut Self) -> R) -> R {
        self.lock(mx);
        let r = f(self);
        self.unlock(mx);
        r
    }

    fn finish(&mut self) {
        self.finished = true;
        // SAFETY: we hold the turn and no other reference into `Inner` is
        // live. The turn is handed on for good right after (`thread_main`),
        // not from here: this also runs from `Drop` mid-unwind.
        unsafe {
            finish_thread(&mut *self.inner, self.tid, self.pending);
        }
        self.pending = 0;
    }
}

/// Lock-acquisition attempt for a thread that holds the scheduling minimum.
/// Returns whether the lock was taken; on failure with `block`, the thread
/// is marked Blocked (the caller hands the turn on).
fn acquire_locked(
    g: &mut Inner,
    tid: usize,
    mx: SimMutex,
    block: bool,
    counted: &mut bool,
) -> bool {
    let now = g.time[tid];
    let l = &mut g.machine.locks[mx.id];
    if l.holder.is_none() {
        l.holder = Some(tid);
        l.acquisitions += 1;
        let mut cost = g.machine.cfg.cost.atomic_rmw + g.machine.cfg.cost.l1_hit;
        if let Some(prev) = g.machine.locks[mx.id].last_holder {
            if prev != tid {
                // The lock line must migrate from the previous holder.
                let caches = &g.machine.caches;
                cost += if caches.socket_of(prev) == caches.socket_of(tid) {
                    g.machine.cfg.cost.transfer_same_socket
                } else {
                    g.machine.cfg.cost.transfer_cross_socket
                };
            }
        }
        g.machine.locks[mx.id].last_holder = Some(tid);
        g.commit(tid, now + cost);
        true
    } else {
        if !*counted {
            g.machine.locks[mx.id].contended += 1;
            *counted = true;
        }
        if block {
            g.park(tid, TState::Blocked(mx.id));
        } else {
            // Failed trylock still pays for probing the lock word.
            g.commit(tid, now + g.machine.cfg.cost.atomic_rmw);
        }
        false
    }
}

/// Lock release for a thread that holds the scheduling minimum. Returns
/// whether it unblocked anyone (the releaser then resets its horizon).
fn release_lock(g: &mut Inner, tid: usize, mx: SimMutex) -> bool {
    assert_eq!(
        g.machine.locks[mx.id].holder,
        Some(tid),
        "unlock of a mutex not held by this thread"
    );
    let now = g.time[tid] + g.machine.cfg.cost.l1_hit;
    g.commit(tid, now);
    g.machine.locks[mx.id].holder = None;
    let mut woke = false;
    for t in 0..g.state.len() {
        if g.state[t] == TState::Blocked(mx.id) {
            let waited = now.saturating_sub(g.time[t]);
            g.machine.locks[mx.id].wait_cycles += waited;
            g.commit(t, g.time[t].max(now));
            g.wake(t);
            woke = true;
        }
    }
    woke
}

/// Mark `tid` Done (possibly mid-panic): flush its clock, release any locks
/// it still holds so survivors can make progress (poisoning is not
/// modelled; tests assert on the propagated panic instead), and unblock
/// their waiters to re-contend.
fn finish_thread(g: &mut Inner, tid: usize, pending: u64) {
    // Not a scheduling point (it runs as soon as the closure returns, not
    // when the thread's clock is the minimum), so the final flush stays out
    // of the fingerprint.
    g.time[tid] += pending;
    g.park(tid, TState::Done);
    let mut released = Vec::new();
    for (id, l) in g.machine.locks.iter_mut().enumerate() {
        if l.holder == Some(tid) {
            l.holder = None;
            released.push(id);
        }
    }
    if !released.is_empty() {
        for t in 0..g.state.len() {
            if let TState::Blocked(id) = g.state[t] {
                if released.contains(&id) {
                    g.wake(t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;
    use parking_lot::Mutex as HostMutex;

    thread_local! {
        /// Spin iterations `Ctx::fold_repeats` folded on this OS thread.
        pub(super) static FOLDED: Cell<u64> = const { Cell::new(0) };
    }

    fn sim() -> Sim {
        Sim::new(MachineConfig::tiny_test())
    }

    #[test]
    fn single_thread_time_accumulates() {
        let s = sim();
        let r = s.run(1, |ctx| {
            ctx.tick(100);
            ctx.write_u64(0x100, 7);
        });
        let miss = s.config().cost.l1_hit + s.config().cost.l2_hit + s.config().cost.mem;
        assert_eq!(r.cycles, 100 + miss);
    }

    #[test]
    fn memory_visible_across_threads() {
        let s = sim();
        s.run(1, |ctx| ctx.write_u64(0x200, 99));
        s.run(2, |ctx| {
            // Both threads observe the value written in the previous run.
            assert_eq!(ctx.read_u64(0x200), 99);
        });
    }

    #[test]
    fn deterministic_interleaving() {
        let run_once = || {
            let s = sim();
            let order = HostMutex::new(Vec::new());
            let r = s.run(4, |ctx| {
                for i in 0..20u64 {
                    ctx.tick((ctx.tid() as u64 + 1) * 13);
                    let v = ctx.fetch_add_u64(0x300, 1);
                    order.lock().push((ctx.tid(), i, v));
                }
            });
            // Host-side pushes happen in hand-off order, so the log is
            // the simulated interleaving as it is.
            (r.cycles, order.into_inner())
        };
        let (c1, o1) = run_once();
        let (c2, o2) = run_once();
        assert_eq!(c1, c2);
        assert_eq!(o1, o2);
    }

    // A workload exercising every scheduler interaction: ticks, atomics,
    // blocking locks, trylocks, and asymmetric per-thread compute.
    fn contended_workload(s: &Sim) -> (u64, Vec<(usize, u64, u64)>) {
        let mx = s.new_mutex();
        let order = HostMutex::new(Vec::new());
        let r = s.run(4, |ctx| {
            for i in 0..12u64 {
                ctx.tick((ctx.tid() as u64 + 1) * 7);
                let v = ctx.fetch_add_u64(0x900, 1);
                order.lock().push((ctx.tid(), i, v));
                ctx.lock(mx);
                let cur = ctx.read_u64(0x908);
                ctx.tick(30);
                ctx.write_u64(0x908, cur + 1);
                ctx.unlock(mx);
                if ctx.try_lock(mx) {
                    ctx.unlock(mx);
                }
            }
        });
        (r.cycles, order.into_inner())
    }

    #[test]
    fn backends_agree_bit_for_bit() {
        // The fiber and OS-thread backends implement one decision
        // procedure; this pins that they produce identical schedules,
        // clocks and lock statistics on a contended workload.
        if !fiber::SUPPORTED {
            return;
        }
        let st = Sim::with_backend(MachineConfig::tiny_test(), Backend::Threads);
        let sf = Sim::with_backend(MachineConfig::tiny_test(), Backend::Fibers);
        let (ct, ot) = contended_workload(&st);
        let (cf, of) = contended_workload(&sf);
        assert_eq!(ct, cf);
        assert_eq!(ot, of);
        st.with_state(|m| {
            let threads_total = m.read_u64(0x908);
            sf.with_state(|m2| assert_eq!(m2.read_u64(0x908), threads_total));
        });
    }

    #[test]
    fn one_sim_alternating_closure_types_runs_like_fresh_ones() {
        // Every closure type enters through the one erased `Sim::run` body,
        // whose boot table and fiber hand-off table a `Sim` reuses from run
        // to run: a run after one of another closure type must see nothing
        // of it. The executor is `TM_SIM_EXEC`'s, so CI's threads job runs
        // this on the OS-thread executor too.
        let counting = |s: &Sim, n: usize| {
            let mx = s.new_mutex();
            s.run(n, move |ctx| {
                for i in 0..6u64 {
                    ctx.tick((ctx.tid() as u64 + 1) * 11 + i);
                    ctx.fetch_add_u64(0x3000, 1);
                    ctx.with_lock(mx, |ctx| {
                        let v = ctx.read_u64(0x4000);
                        ctx.write_u64(0x4000, v + 1);
                    });
                }
            })
        };
        let base = [0x5000u64, 0x5800];
        let striding = |s: &Sim, n: usize| {
            s.run(n, |ctx| {
                let at = base[ctx.tid() % 2] + 64 * ctx.tid() as u64;
                for i in 0..4u64 {
                    ctx.write_u64(at + 8 * i, i);
                    ctx.tick(5 * (4 - i));
                }
                let _ = ctx.cas_u64(0x6000, 0, ctx.tid() as u64 + 1);
            })
        };
        let step = |s: &Sim, (stride, n): (bool, usize)| {
            let r = if stride {
                striding(s, n)
            } else {
                counting(s, n)
            };
            (format!("{r:?}"), s.trace_hash())
        };
        let steps = [
            (false, 1),
            (true, 8),
            (false, 8),
            (true, 1),
            (true, 8),
            (false, 8),
        ];
        let reused = Sim::new(MachineConfig::xeon_e5405());
        for k in 0..steps.len() {
            let fresh = Sim::new(MachineConfig::xeon_e5405());
            let mut want = None;
            for &st in &steps[..=k] {
                want = Some(step(&fresh, st));
            }
            assert_eq!(Some(step(&reused, steps[k])), want, "step {k}");
        }
    }

    #[test]
    fn panic_in_worker_propagates_and_releases() {
        let s = sim();
        let mx = s.new_mutex();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.run(2, |ctx| {
                if ctx.tid() == 0 {
                    ctx.tick(10);
                    ctx.lock(mx);
                    panic!("worker 0 exploded");
                }
                // Worker 1 waits its turn inside `lock` when worker 0
                // panics, and is unwound there: the run is lost.
                ctx.tick(100);
                ctx.lock(mx);
                ctx.write_u64(0xa00, 1);
                ctx.unlock(mx);
            });
        }));
        assert!(caught.is_err());
        s.with_state(|m| assert_eq!(m.read_u64(0xa00), 0));
        // The panicking thread's lock was released by its `Ctx` drop: the
        // next run starts (no lock is held across the boundary) and takes it.
        s.run(2, |ctx| ctx.with_lock(mx, |ctx| ctx.write_u64(0xa00, 1)));
        s.with_state(|m| assert_eq!(m.read_u64(0xa00), 1));
    }

    #[test]
    fn now_tracks_clock_without_lock() {
        let s = sim();
        s.run(2, |ctx| {
            let t0 = ctx.now();
            ctx.tick(40);
            assert_eq!(ctx.now(), t0 + 40);
            ctx.fence();
            // After an event the mirror equals the committed clock.
            let t1 = ctx.now();
            ctx.tick(1);
            assert_eq!(ctx.now(), t1 + 1);
        });
    }

    #[test]
    fn fetch_add_is_atomic_in_order() {
        let s = sim();
        s.run(4, |ctx| {
            for _ in 0..50 {
                ctx.fetch_add_u64(0x400, 1);
            }
        });
        s.with_state(|m| assert_eq!(m.read_u64(0x400), 200));
    }

    #[test]
    fn cas_success_and_failure() {
        let s = sim();
        s.run(1, |ctx| {
            assert_eq!(ctx.cas_u64(0x500, 0, 5), Ok(0));
            assert_eq!(ctx.cas_u64(0x500, 0, 9), Err(5));
            assert_eq!(ctx.read_u64(0x500), 5);
        });
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        let s = sim();
        let mx = s.new_mutex();
        s.run(4, |ctx| {
            for _ in 0..25 {
                ctx.lock(mx);
                // Non-atomic read-modify-write protected by the lock.
                let v = ctx.read_u64(0x600);
                ctx.tick(10);
                ctx.write_u64(0x600, v + 1);
                ctx.unlock(mx);
            }
        });
        s.with_state(|m| assert_eq!(m.read_u64(0x600), 100));
    }

    #[test]
    fn contended_lock_records_waits() {
        let s = sim();
        let mx = s.new_mutex();
        let r = s.run(2, |ctx| {
            for _ in 0..10 {
                ctx.lock(mx);
                ctx.tick(1000); // long critical section
                ctx.unlock(mx);
            }
        });
        assert!(r.locks.contended > 0);
        assert!(r.locks.wait_cycles > 0);
        assert_eq!(r.locks.acquisitions, 20);
    }

    #[test]
    fn try_lock_does_not_block() {
        let s = sim();
        let mx = s.new_mutex();
        let grabbed = HostMutex::new([false; 2]);
        s.run(2, |ctx| {
            if ctx.tid() == 0 {
                ctx.lock(mx);
                ctx.tick(100_000);
                ctx.unlock(mx);
            } else {
                ctx.tick(50); // arrive while t0 holds the lock
                let ok = ctx.try_lock(mx);
                grabbed.lock()[1] = ok;
                if ok {
                    ctx.unlock(mx);
                }
            }
        });
        assert!(!grabbed.lock()[1], "trylock during a held period must fail");
    }

    #[test]
    fn serial_section_time_is_sum() {
        // Two threads each hold the lock for ~1000 cycles: total run length
        // must be at least 2x the critical section because they serialize.
        let s = sim();
        let mx = s.new_mutex();
        let r = s.run(2, |ctx| {
            ctx.lock(mx);
            for i in 0..10 {
                ctx.write_u64(0x700 + 64 * i, 1);
                ctx.tick(100);
            }
            ctx.unlock(mx);
        });
        assert!(r.cycles >= 2_000);
    }

    #[test]
    fn os_alloc_in_run_is_aligned_and_charged() {
        let s = sim();
        let r = s.run(1, |ctx| {
            let a = ctx.os_alloc(1 << 16, 1 << 16);
            assert_eq!(a % (1 << 16), 0);
        });
        assert!(r.cycles >= s.config().cost.os_alloc);
        assert_eq!(r.os_allocated, 1 << 16);
    }

    #[test]
    fn report_cache_stats_are_per_run_deltas() {
        let s = sim();
        let r1 = s.run(1, |ctx| {
            for i in 0..10u64 {
                ctx.read_u64(0x8000 + i * 64);
            }
        });
        assert_eq!(r1.cache_total.l1_misses, 10);
        let r2 = s.run(1, |ctx| {
            for i in 0..10u64 {
                ctx.read_u64(0x8000 + i * 64);
            }
        });
        // Second run hits the warm cache: zero new misses.
        assert_eq!(r2.cache_total.l1_misses, 0);
        assert_eq!(r2.cache_total.l1_accesses, 10);
    }

    #[test]
    #[should_panic]
    fn too_many_threads_panics() {
        let s = sim();
        s.run(64, |_| {});
    }

    #[test]
    fn sched_point_without_hook_is_free() {
        let s = sim();
        s.run(2, |ctx| {
            let t0 = ctx.now();
            assert_eq!(ctx.sched_point(0), 0);
            assert_eq!(ctx.now(), t0);
        });
    }

    #[test]
    fn sched_point_hook_injects_requested_delay() {
        let s = sim();
        // Thread 1 is held back 500 cycles at point 0, so thread 0 wins the
        // race to the counter deterministically.
        s.set_sched_hook(Arc::new(
            |tid, point| {
                if tid == 1 && point == 0 {
                    500
                } else {
                    0
                }
            },
        ));
        let order = HostMutex::new(Vec::new());
        s.run(2, |ctx| {
            ctx.sched_point(0);
            let v = ctx.fetch_add_u64(0xb00, 1);
            order.lock().push((ctx.tid(), v));
        });
        assert_eq!(order.into_inner(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let s = sim();
        let mx = s.new_mutex();
        s.run(1, |ctx| ctx.write_u64(0x100, 7)); // prefix state
        let snap = s.snapshot(None);
        let workload = |ctx: &mut Ctx<'_>| {
            ctx.tick((ctx.tid() as u64 + 1) * 11);
            ctx.lock(mx);
            let v = ctx.read_u64(0x100);
            ctx.write_u64(0x100, v + 1);
            ctx.unlock(mx);
            ctx.fetch_add_u64(0x180, 3);
        };
        let r1 = s.run(3, workload);
        let (h1, e1) = (s.trace_hash(), s.events());
        let v1 = s.with_state(|m| (m.read_u64(0x100), m.read_u64(0x180)));
        s.restore(&snap);
        assert_eq!(s.events(), snap.events());
        let r2 = s.run(3, workload);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.cache_total.l1_misses, r2.cache_total.l1_misses);
        assert_eq!(r1.locks.acquisitions, r2.locks.acquisitions);
        assert_eq!(r1.locks.wait_cycles, r2.locks.wait_cycles);
        assert_eq!(r1.os_allocated, r2.os_allocated);
        assert_eq!((s.trace_hash(), s.events()), (h1, e1));
        assert_eq!(s.with_state(|m| (m.read_u64(0x100), m.read_u64(0x180))), v1);

        // The same where the machine's representation is sparse: a workload
        // that materializes, *after* the snapshot, cache rows, a page-table
        // leaf and a middle node the snapshot lacks — replayed from a
        // journalled restore and from a cold one.
        let far_addr = |tid: u64, i: u64| {
            let region = [0x4000_0000, 0x3_0000_0000, 0x100_0000_0000][(i % 3) as usize];
            region + tid * 0x1_0000 + i * 0x140
        };
        let far = |ctx: &mut Ctx<'_>| {
            for i in 0..40 {
                let addr = far_addr(ctx.tid() as u64, i);
                let v = ctx.read_u64(addr);
                ctx.write_u64(addr, v + i + 1);
                ctx.fetch_add_u64(0x180, 1);
            }
        };
        let outcome = |s: &Sim| {
            let report = s.run(3, far);
            let memory = s.with_state(|m| {
                let words = (0..3).flat_map(|tid| (0..40).map(move |i| far_addr(tid, i)));
                let digest = words.fold(m.read_u64(0x180), |d, addr| {
                    d.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ m.read_u64(addr)
                });
                (digest, m.resident_pages())
            });
            (format!("{report:?}"), s.trace_hash(), s.events(), memory)
        };
        s.restore(&snap);
        let first = outcome(&s);
        // Journalled path: the restore above left the journals armed for
        // `snap`.
        s.restore(&snap);
        assert_eq!(outcome(&s), first);
        // Cold path: a second snapshot takes the journals over, so going
        // back to `snap` copies — and must reset the rows it lacks.
        let later = s.snapshot(Some(&snap));
        assert!(later.pages() > snap.pages());
        s.run(1, |ctx| ctx.write_u64(0x5000_0000, 1));
        s.restore(&snap);
        assert_eq!(outcome(&s), first);
    }

    #[test]
    fn restore_drops_post_snapshot_locks_and_os_state() {
        let s = sim();
        s.run(1, |ctx| {
            ctx.write_u64(0x100, 1);
        });
        let snap = s.snapshot(None);
        let os0 = s.with_state(|m| m.os_allocated());
        s.run(1, |ctx| {
            let mx = ctx.new_mutex();
            ctx.lock(mx);
            ctx.unlock(mx);
            ctx.os_alloc(1 << 16, 1 << 16);
            ctx.write_u64(0x200, 9);
        });
        s.restore(&snap);
        assert_eq!(s.with_state(|m| m.os_allocated()), os0);
        s.with_state(|m| assert_eq!(m.read_u64(0x200), 0));
        // Deterministic lock-id reuse: a re-run mints the same id afresh.
        s.run(1, |ctx| {
            let mx = ctx.new_mutex();
            ctx.lock(mx);
            ctx.unlock(mx);
        });
    }

    #[test]
    fn trace_hash_separates_schedules_and_matches_backends() {
        if !fiber::SUPPORTED {
            return;
        }
        let hash_for = |backend: Backend, delay: u64| {
            let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
            s.set_sched_hook(Arc::new(move |tid, _| if tid == 1 { delay } else { 0 }));
            s.run(2, |ctx| {
                ctx.sched_point(0);
                ctx.fetch_add_u64(0xd00, 1);
            });
            s.trace_hash()
        };
        assert_eq!(
            hash_for(Backend::Fibers, 0),
            hash_for(Backend::Threads, 0),
            "fingerprint must be backend-independent"
        );
        assert_eq!(
            hash_for(Backend::Fibers, 700),
            hash_for(Backend::Threads, 700)
        );
        assert_ne!(
            hash_for(Backend::Fibers, 0),
            hash_for(Backend::Fibers, 700),
            "a delay that shifts clocks must change the fingerprint"
        );
    }

    #[test]
    fn fuel_exhaustion_panics_with_marker() {
        let s = sim();
        s.set_fuel(50);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.run(2, |ctx| loop {
                // Unbounded spin: only the fuel bound can end this run.
                let _ = ctx.cas_u64(0xc00, 1, 2);
            });
        }));
        let msg = panic_text(caught.expect_err("the spin must be cut short"));
        assert!(
            msg.starts_with(crate::FUEL_EXHAUSTED),
            "unexpected panic message: {msg}"
        );
    }

    fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    fn both_backends() -> Vec<Backend> {
        if fiber::SUPPORTED {
            vec![Backend::Fibers, Backend::Threads]
        } else {
            vec![Backend::Threads]
        }
    }

    #[test]
    fn finishing_is_not_part_of_the_fingerprint() {
        // Thread 0's only event runs first and leaves it ahead of thread 1,
        // whose zero-cost events all come before thread 0 could take
        // another turn. Thread 0 has none to take: it finishes at once,
        // before them, and its trailing compute never reaches an event. A
        // fingerprint that folded the finish would see it.
        let hash_for = |backend: Backend, trailing: u64| {
            let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
            s.run(2, |ctx| {
                if ctx.tid() == 0 {
                    ctx.write_u64(0xe00, 1);
                    ctx.tick(trailing);
                } else {
                    for _ in 0..3 {
                        ctx.fence();
                    }
                }
            });
            s.trace_hash()
        };
        let hashes: Vec<u64> = both_backends()
            .into_iter()
            .flat_map(|backend| [hash_for(backend, 5), hash_for(backend, 0)])
            .collect();
        assert!(
            hashes.windows(2).all(|w| w[0] == w[1]),
            "fingerprint depends on a thread's finish: {hashes:x?}"
        );
    }

    // --- Randomized differential test of the two executors ---

    /// One step of a generated thread program.
    #[derive(Clone, Debug)]
    enum Op {
        Tick(u64),
        Read(u64),
        Write(u64, u64),
        Cas(u64, u64, u64),
        FetchAdd(u64, u64),
        /// `cas_u64_spin(addr, expected, new, backoff)`: waits for a peer
        /// to store `expected`, for as long as the fuel lasts.
        CasSpin(u64, u64, u64, u64),
        /// `read_u64_until(addr, backoff, == value)`, bounded the same way.
        ReadUntil(u64, u64, u64),
        /// `lock` mutex `m` — or `try_lock` it and skip the rest when that
        /// fails — then run `body` and `unlock`.
        Critical {
            m: usize,
            try_only: bool,
            body: Vec<Op>,
        },
    }

    const SHARED: u64 = 0x4000;
    const RESULTS: u64 = 0x8000;
    /// Shared words the programs touch: four to a line over three lines,
    /// so both false and true sharing occur.
    fn shared_addr(i: u64) -> u64 {
        SHARED + (i / 4) * 64 + (i % 4) * 8
    }

    /// `len` random steps; nested critical sections only take mutexes
    /// above `min_mutex`, so lock order is ascending and nothing deadlocks.
    fn gen_ops(rng: &mut impl rand::Rng, len: usize, min_mutex: usize, mutexes: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let addr = shared_addr(rng.gen_range(0..12u64));
                let backoff = [0, 1, 16, 64][rng.gen_range(0..4usize)];
                match rng.gen_range(0..9u32) {
                    0 | 1 => Op::Tick(rng.gen_range(0..120u64)),
                    2 => Op::Read(addr),
                    3 => Op::Write(addr, rng.gen_range(0..4u64)),
                    4 => Op::Cas(addr, rng.gen_range(0..4u64), rng.gen_range(0..4u64)),
                    5 => Op::FetchAdd(addr, rng.gen_range(1..3u64)),
                    6 if rng.gen_bool(0.5) => Op::CasSpin(
                        addr,
                        rng.gen_range(0..4u64),
                        rng.gen_range(0..4u64),
                        backoff,
                    ),
                    6 => Op::ReadUntil(addr, rng.gen_range(0..4u64), backoff),
                    _ if min_mutex < mutexes => {
                        let m = rng.gen_range(min_mutex..mutexes);
                        let body_len = rng.gen_range(0..4usize);
                        Op::Critical {
                            m,
                            try_only: rng.gen_bool(0.4),
                            body: gen_ops(rng, body_len, m + 1, mutexes),
                        }
                    }
                    _ => Op::Tick(1),
                }
            })
            .collect()
    }

    /// Run `ops`; everything the thread observes is mixed into `seen`.
    fn exec_ops(ctx: &mut Ctx<'_>, ops: &[Op], mutexes: &[SimMutex], scale: u64, seen: &mut u64) {
        fn see(seen: &mut u64, v: u64) {
            *seen = seen.wrapping_mul(31).wrapping_add(v);
        }
        for op in ops {
            match op {
                Op::Tick(c) => ctx.tick(c * scale),
                Op::Read(a) => see(seen, ctx.read_u64(*a)),
                Op::Write(a, v) => ctx.write_u64(*a, *v),
                Op::Cas(a, e, n) => see(
                    seen,
                    ctx.cas_u64(*a, *e, *n).unwrap_or_else(|cur| cur + 100),
                ),
                Op::FetchAdd(a, d) => see(seen, ctx.fetch_add_u64(*a, *d)),
                Op::CasSpin(a, e, n, backoff) => ctx.cas_u64_spin(*a, *e, *n, *backoff),
                Op::ReadUntil(a, v, backoff) => {
                    see(seen, ctx.read_u64_until(*a, *backoff, |w| w == *v))
                }
                Op::Critical { m, try_only, body } => {
                    if *try_only {
                        let got = ctx.try_lock(mutexes[*m]);
                        see(seen, got as u64);
                        if !got {
                            continue;
                        }
                    } else {
                        ctx.lock(mutexes[*m]);
                    }
                    exec_ops(ctx, body, mutexes, scale, seen);
                    ctx.unlock(mutexes[*m]);
                }
            }
        }
    }

    /// Everything a run leaves behind, as one comparable value.
    fn run_programs(backend: Backend, programs: &[Vec<Op>], mutexes: usize) -> String {
        let n = programs.len();
        let cfg = MachineConfig {
            cores: 8,
            cores_per_socket: 4,
            ..MachineConfig::tiny_test()
        };
        let s = Sim::with_backend(cfg, backend);
        // A spin nobody ends runs until the fuel does.
        s.set_fuel(4000);
        let mutexes: Vec<SimMutex> = (0..mutexes).map(|_| s.new_mutex()).collect();
        // Host-side state, touched between events: who got there in what
        // order is part of the outcome, and compared unsorted.
        let host_log = HostMutex::new(Vec::new());
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.run(n, |ctx| {
                let ops = &programs[ctx.tid()];
                // An empty program finishes without a single event.
                if ops.is_empty() {
                    return;
                }
                let mut seen = 0;
                // Unequal compute per thread.
                let scale = 1 + 2 * ctx.tid() as u64;
                for op in ops {
                    exec_ops(ctx, std::slice::from_ref(op), &mutexes, scale, &mut seen);
                    host_log.lock().push(ctx.tid());
                }
                ctx.write_u64(RESULTS + 64 * ctx.tid() as u64, seen);
            })
        }))
        .map_err(panic_text);
        let memory: Vec<u64> = s.with_state(|m| {
            (0..12)
                .map(shared_addr)
                .chain((0..n as u64).map(|t| RESULTS + 64 * t))
                .map(|a| m.read_u64(a))
                .collect()
        });
        format!(
            "{r:?} hash={:x} events={} memory={memory:?} host_log={:?}",
            s.trace_hash(),
            s.events(),
            host_log.into_inner()
        )
    }

    #[test]
    fn executors_agree_on_random_workloads() {
        use rand::{Rng, SeedableRng};
        if !fiber::SUPPORTED {
            return;
        }
        FOLDED.set(0);
        for n in [2usize, 3, 8] {
            for seed in 0..24u64 {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed * 8 + n as u64);
                let mutexes = rng.gen_range(1..4usize);
                let programs: Vec<Vec<Op>> = (0..n)
                    .map(|_| {
                        // Some threads finish early, some do nothing.
                        let len = rng.gen_range(0..14usize);
                        gen_ops(&mut rng, len, 0, mutexes)
                    })
                    .collect();
                let fibers = run_programs(Backend::Fibers, &programs, mutexes);
                let threads = run_programs(Backend::Threads, &programs, mutexes);
                assert_eq!(fibers, threads, "n={n} seed={seed}: {programs:#?}");
            }
        }
        // The fibers folded spins the reference ran event by event.
        assert!(FOLDED.get() > 0, "no spin was folded");
    }

    // --- A spin primitive is the loop it replaces ---

    /// Spin on a CAS with [`Ctx::cas_u64_spin`] (`fold`) or with the loop
    /// it is specified as.
    fn spin_cas(ctx: &mut Ctx<'_>, fold: bool, addr: u64, expected: u64, new: u64, backoff: u64) {
        if fold {
            return ctx.cas_u64_spin(addr, expected, new, backoff);
        }
        while ctx.cas_u64(addr, expected, new).is_err() {
            ctx.tick(backoff);
        }
    }

    /// Spin on a read with [`Ctx::read_u64_until`] (`fold`) or with the
    /// loop it is specified as.
    fn spin_read(
        ctx: &mut Ctx<'_>,
        fold: bool,
        addr: u64,
        backoff: u64,
        done: impl Fn(u64) -> bool,
    ) -> u64 {
        if fold {
            return ctx.read_u64_until(addr, backoff, done);
        }
        let mut v = ctx.read_u64(addr);
        while !done(v) {
            ctx.tick(backoff);
            v = ctx.read_u64(addr);
        }
        v
    }

    /// What a run of `threads` logical threads left behind, and what it
    /// took to get there.
    struct Spun {
        /// Its report or its panic, each thread's `now()` at the end, the
        /// event count, the fingerprint, every clock and every core's cache
        /// counters, as one comparable value.
        outcome: String,
        events: u64,
        /// Spin iterations folded on the calling OS thread.
        folded: u64,
    }

    fn spin_run(s: &Sim, threads: usize, f: impl Fn(&mut Ctx<'_>) + Sync) -> Spun {
        let now = HostMutex::new(vec![None; threads]);
        let before = FOLDED.get();
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.run(threads, |ctx| {
                f(ctx);
                now.lock()[ctx.tid()] = Some(ctx.now());
            })
        }))
        .map_err(panic_text);
        let folded = FOLDED.get() - before;
        let g = s.shared.inner.lock();
        let caches: Vec<CacheStats> = (0..s.cfg.cores)
            .map(|c| g.machine.caches.stats(c))
            .collect();
        let outcome = format!(
            "{run:?} now={:?} events={} hash={:x} time={:?} caches={caches:?}",
            now.into_inner(),
            g.events,
            g.hash,
            g.time
        );
        Spun {
            outcome,
            events: g.events,
            folded,
        }
    }

    const TOKEN: u64 = 0x5000;
    const FLAG: u64 = 0x5040;

    /// Three threads: thread 0 holds a token for `sleep` cycles, thread 1
    /// CAS-spins for it, thread 2 crosses thread 1's horizon `crossings`
    /// times with fences while the token is held, then read-spins on a
    /// flag thread 0 raises last and CAS-spins for the token with no
    /// backoff. With `fuel`, the run gets that event budget.
    fn token_program(
        backend: Backend,
        fold: bool,
        sleep: u64,
        crossings: u64,
        fuel: Option<u64>,
    ) -> Spun {
        let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
        if let Some(fuel) = fuel {
            s.set_fuel(fuel);
        }
        spin_run(&s, 3, |ctx| match ctx.tid() {
            0 => {
                ctx.write_u64(TOKEN, 1);
                ctx.tick(sleep);
                ctx.write_u64(TOKEN, 0);
                ctx.tick(sleep / 3);
                ctx.write_u64(FLAG, 7);
            }
            1 => {
                ctx.tick(5);
                spin_cas(ctx, fold, TOKEN, 0, 2, 64);
                ctx.tick(sleep / 2);
                ctx.write_u64(TOKEN, 0);
            }
            _ => {
                for _ in 0..crossings {
                    ctx.tick(sleep / (crossings + 1) + 1);
                    ctx.fence();
                }
                let v = spin_read(ctx, fold, FLAG, 16, |v| v != 0);
                ctx.tick(v);
                spin_cas(ctx, fold, TOKEN, 0, 3, 0);
            }
        })
    }

    #[test]
    fn a_spin_primitive_equals_its_loop_across_horizon_crossings() {
        for backend in both_backends() {
            let mut folds = 0;
            for sleep in [0, 40, 3_000, 100_000] {
                for crossings in [0, 1, 50] {
                    let looped = token_program(backend, false, sleep, crossings, None);
                    let folded = token_program(backend, true, sleep, crossings, None);
                    let case = format!("{backend:?} sleep {sleep} crossings {crossings}");
                    assert_eq!(folded.outcome, looped.outcome, "{case}");
                    assert!(
                        looped.outcome.starts_with("Ok("),
                        "{case}: {}",
                        looped.outcome
                    );
                    assert_eq!(looped.folded, 0, "{case}");
                    folds += folded.folded;
                }
            }
            // The fibers fold here; on OS threads the counter is the
            // workers' own (`the_fold_fires_on_fibers_and_never_…`).
            if backend == Backend::Fibers {
                assert!(folds > 0, "nothing folded");
            }
        }
    }

    #[test]
    fn every_fuel_budget_cuts_a_spinning_run_where_the_loop_does() {
        for backend in both_backends() {
            let events = token_program(backend, false, 3_000, 1, None).events;
            for fuel in 1..=events + 1 {
                let looped = token_program(backend, false, 3_000, 1, Some(fuel));
                let folded = token_program(backend, true, 3_000, 1, Some(fuel));
                assert_eq!(folded.outcome, looped.outcome, "{backend:?} fuel {fuel}");
                let finished = looped.outcome.starts_with("Ok(");
                assert_eq!(finished, fuel > events, "{backend:?} fuel {fuel}");
                if !finished {
                    assert!(
                        looped
                            .outcome
                            .starts_with(&format!("Err(\"{FUEL_EXHAUSTED}")),
                        "{backend:?} fuel {fuel}: {}",
                        looped.outcome
                    );
                }
            }
        }
    }

    #[test]
    fn a_solo_spinner_runs_out_of_fuel_where_the_loop_does() {
        for backend in both_backends() {
            for fuel in (1..=8).chain([100, 10_000]) {
                let spin = |fold: bool| {
                    let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
                    s.set_fuel(fuel);
                    spin_run(&s, 1, |ctx| {
                        ctx.write_u64(TOKEN, 1);
                        if fuel % 2 == 0 {
                            spin_cas(ctx, fold, TOKEN, 0, 1, 64);
                        } else {
                            spin_read(ctx, fold, TOKEN, 16, |v| v == 0);
                        }
                    })
                };
                let (looped, folded) = (spin(false), spin(true));
                assert_eq!(folded.outcome, looped.outcome, "{backend:?} fuel {fuel}");
                assert_eq!(looped.events, fuel, "{backend:?} fuel {fuel}");
                assert!(
                    looped
                        .outcome
                        .starts_with(&format!("Err(\"{FUEL_EXHAUSTED}")),
                    "{}",
                    looped.outcome
                );
                // Every event after the first two (the write, then the
                // spin's first probe) but the fatal one is folded.
                assert_eq!(
                    folded.folded,
                    fuel.saturating_sub(3),
                    "{backend:?} fuel {fuel}"
                );
            }
        }
    }

    #[test]
    fn a_clock_that_outgrows_the_key_mid_spin_panics_where_the_loop_does() {
        let spin = |fold: bool, cas: bool| {
            let s = sim();
            spin_run(&s, 1, |ctx| {
                ctx.write_u64(TOKEN, 1);
                ctx.tick(CLOCK_LIMIT - 10_000);
                if cas {
                    spin_cas(ctx, fold, TOKEN, 0, 1, 64);
                } else {
                    spin_read(ctx, fold, TOKEN, 64, |v| v == 0);
                }
            })
        };
        for cas in [true, false] {
            let (looped, folded) = (spin(false, cas), spin(true, cas));
            assert_eq!(folded.outcome, looped.outcome, "cas {cas}");
            assert!(
                looped.outcome.contains("overflows the scheduling key"),
                "{}",
                looped.outcome
            );
            assert!(folded.folded > 100, "cas {cas}: {} folded", folded.folded);
        }
    }

    #[test]
    fn the_fold_fires_on_fibers_and_never_on_the_os_thread_reference() {
        // On OS threads the logical threads run on workers of their own:
        // each reads its own counter at the end.
        let workers = |backend: Backend| {
            let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
            let seen = HostMutex::new(0);
            let spun = spin_run(&s, 3, |ctx| {
                // Thread 1 spins alone below thread 0's release and thread
                // 2's wake-up (two spinners would cross each other's
                // horizon at every probe).
                match ctx.tid() {
                    0 => {
                        ctx.write_u64(TOKEN, 1);
                        ctx.tick(50_000);
                        ctx.write_u64(TOKEN, 0);
                    }
                    1 => ctx.cas_u64_spin(TOKEN, 0, 0, 64),
                    _ => {
                        ctx.tick(80_000);
                        ctx.fence();
                    }
                }
                *seen.lock() += FOLDED.get();
            });
            spun.folded + seen.into_inner()
        };
        if fiber::SUPPORTED {
            assert!(workers(Backend::Fibers) > 0);
        }
        assert_eq!(workers(Backend::Threads), 0);
    }

    // --- The rules for when a cached horizon may be trusted ---

    #[test]
    fn unlock_hands_the_turn_to_a_woken_lower_tid_waiter() {
        // Thread 1 releases a lock thread 0 is blocked on: thread 0 comes
        // back at thread 1's own clock and, with the lower tid, precedes
        // it. Thread 1's horizon was infinite until then (its only rival
        // was parked), so its very next event must look again.
        for backend in both_backends() {
            let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
            let mx = s.new_mutex();
            let retaken = HostMutex::new(None);
            let woke_at = HostMutex::new(0);
            s.run(2, |ctx| {
                if ctx.tid() == 0 {
                    ctx.tick(50);
                    ctx.lock(mx); // held by thread 1 since clock 0: blocks
                    *woke_at.lock() = ctx.now();
                    ctx.unlock(mx);
                } else {
                    ctx.lock(mx);
                    ctx.tick(1000);
                    ctx.unlock(mx);
                    // Same clock as the woken thread 0, which goes first
                    // and takes the lock.
                    let got = ctx.try_lock(mx);
                    *retaken.lock() = Some(got);
                    if got {
                        ctx.unlock(mx);
                    }
                }
            });
            assert_eq!(*retaken.lock(), Some(false), "{backend:?}");
            // The blocked wait refreshed thread 0's clock mirror.
            assert!(*woke_at.lock() > 1000, "{backend:?}");
        }
    }

    #[test]
    fn blocked_thread_is_resumed_by_a_peers_hand_off() {
        // Thread 2 releases the lock thread 0 waits for while thread 1 sits
        // between the release's start and its end in virtual time. So the
        // releaser hands the turn to thread 1, and thread 1 — not the
        // releaser, not the driver — hands it to the woken thread 0.
        let order_for = |backend: Backend| {
            let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
            let cost = s.config().cost;
            let release_starts = cost.atomic_rmw + cost.l1_hit + 600;
            assert!(cost.l1_hit >= 2, "the release must span thread 1's clock");
            let mx = s.new_mutex();
            let order = HostMutex::new(Vec::new());
            s.run(3, |ctx| {
                let tid = ctx.tid();
                let ticket = |ctx: &mut Ctx<'_>| {
                    let v = ctx.fetch_add_u64(0xf00, 1);
                    order.lock().push((v, tid, ctx.now()));
                };
                match tid {
                    0 => {
                        ctx.tick(40);
                        ctx.lock(mx);
                        ticket(ctx);
                        ctx.unlock(mx);
                    }
                    1 => {
                        ctx.tick(release_starts + 1);
                        ctx.fence();
                        ctx.tick(50);
                        ticket(ctx);
                    }
                    _ => {
                        ctx.lock(mx);
                        ctx.tick(600);
                        ctx.unlock(mx);
                        ctx.tick(2000);
                        ticket(ctx);
                    }
                }
            });
            // Host-side pushes happen in hand-off order: unsorted.
            (order.into_inner(), s.trace_hash())
        };
        let orders: Vec<_> = both_backends().into_iter().map(order_for).collect();
        let who: Vec<usize> = orders[0].0.iter().map(|&(_, tid, _)| tid).collect();
        assert_eq!(who, [1, 0, 2]);
        assert!(orders.windows(2).all(|w| w[0] == w[1]), "{orders:?}");
    }

    /// Threads 0 and 1 deadlock AB-BA, each holding a host mutex of its own
    /// as well; thread 2 finishes later with nobody to hand the turn to, so
    /// the driver gets it. Returns what `run` panicked with and the host
    /// mutexes, having checked that the simulated locks were let go.
    fn ab_ba_deadlock(backend: Backend) -> (String, [HostMutex<()>; 2]) {
        let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
        let (a, b) = (s.new_mutex(), s.new_mutex());
        let host = [HostMutex::new(()), HostMutex::new(())];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.run(3, |ctx| match ctx.tid() {
                2 => {
                    ctx.tick(10_000);
                    ctx.fence();
                }
                tid => {
                    let _held = host[tid].lock();
                    let (first, second) = if tid == 0 { (a, b) } else { (b, a) };
                    ctx.lock(first);
                    ctx.tick(100);
                    ctx.lock(second);
                }
            });
        }));
        s.run(2, |ctx| ctx.with_lock(a, |ctx| ctx.with_lock(b, |_| ())));
        let report = panic_text(caught.expect_err("a deadlocked run must panic"));
        (report, host)
    }

    #[test]
    #[should_panic(expected = "virtual deadlock")]
    fn last_runnable_thread_finishing_among_blocked_peers_is_a_deadlock() {
        let reports: Vec<String> = both_backends()
            .into_iter()
            .map(|backend| ab_ba_deadlock(backend).0)
            .collect();
        assert!(reports.windows(2).all(|w| w[0] == w[1]), "{reports:?}");
        panic!("{}", reports[0]);
    }

    #[test]
    fn a_host_mutex_held_by_a_deadlocked_thread_is_free_again_after_run_panics() {
        // The blocked threads are unwound, not abandoned: the guards on
        // their stacks are dropped.
        for backend in both_backends() {
            let (report, host) = ab_ba_deadlock(backend);
            assert!(report.starts_with("virtual deadlock"), "{backend:?}");
            assert!(host.iter().all(|m| m.try_lock().is_some()), "{backend:?}");
        }
    }

    #[test]
    fn panic_among_peers_mid_hand_off_reraises_the_payload() {
        for backend in both_backends() {
            let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
            let mx = s.new_mutex();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                s.run(4, |ctx| {
                    for i in 0..10 {
                        ctx.tick(7 * (ctx.tid() as u64 + 1));
                        ctx.fetch_add_u64(0xa40, 1);
                        if ctx.tid() == 1 && i == 4 {
                            // The three peers are suspended in hand-offs.
                            ctx.lock(mx);
                            panic!("worker 1 exploded");
                        }
                    }
                    ctx.lock(mx);
                    let v = ctx.read_u64(0xa80);
                    ctx.write_u64(0xa80, v + 1);
                    ctx.unlock(mx);
                });
            }));
            let msg = panic_text(caught.expect_err("the panic must propagate"));
            assert_eq!(msg, "worker 1 exploded", "{backend:?}");
            // Each peer was unwound where it waited for its turn, so none
            // reached the lock — which the dead thread's `Ctx` drop
            // released: the next run takes it.
            s.with_state(|m| assert_eq!(m.read_u64(0xa80), 0, "{backend:?}"));
            s.run(3, |ctx| {
                ctx.lock(mx);
                let v = ctx.read_u64(0xa80);
                ctx.write_u64(0xa80, v + 1);
                ctx.unlock(mx);
            });
            s.with_state(|m| assert_eq!(m.read_u64(0xa80), 3, "{backend:?}"));
        }
    }

    #[test]
    fn a_panic_ends_a_run_whose_peers_spin_on_what_the_dead_thread_owns() {
        // Thread 0 takes a word, as a transaction takes an ORT stripe, and
        // panics before giving it back; its seven peers spin on the word
        // with plain reads. They are unwound as they are resumed, so the
        // run ends one round of hand-offs after the panic, with its
        // payload. The fuel bound only turns a regression into a failure
        // (of the event count below) instead of a hang.
        const FUEL: u64 = 200_000;
        for backend in both_backends() {
            let cfg = MachineConfig {
                cores: 8,
                cores_per_socket: 4,
                ..MachineConfig::tiny_test()
            };
            let s = Sim::with_backend(cfg, backend);
            s.set_fuel(FUEL);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                s.run(8, |ctx| {
                    if ctx.tid() == 0 {
                        ctx.write_u64(0xb40, 1);
                        ctx.tick(500);
                        ctx.fence();
                        panic!("owner exploded");
                    }
                    while ctx.read_u64(0xb40) != 0 {
                        ctx.tick(5);
                    }
                });
            }));
            let msg = panic_text(caught.expect_err("the panic must propagate"));
            assert_eq!(msg, "owner exploded", "{backend:?}");
            assert!(
                s.events() < FUEL / 100,
                "{backend:?}: {} events",
                s.events()
            );
        }
    }

    #[test]
    fn fuel_runs_out_on_a_thread_just_handed_the_minimum() {
        for backend in both_backends() {
            let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
            s.set_fuel(7);
            let fences = HostMutex::new([0u32; 2]);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // Lockstep clocks: every event follows a hand-off.
                s.run(2, |ctx| loop {
                    ctx.tick(10);
                    ctx.fence();
                    fences.lock()[ctx.tid()] += 1;
                });
            }));
            let msg = panic_text(caught.expect_err("the budget must end the run"));
            assert!(msg.starts_with(FUEL_EXHAUSTED), "{backend:?}: {msg}");
            // Events 1-6 alternate 0,1,...; the 7th lands on thread 0 as
            // thread 1 hands it the turn and is refused; thread 1 is
            // unwound where it waits and takes no eighth.
            assert_eq!(*fences.lock(), [3, 3], "{backend:?}");
            assert_eq!(s.events(), 7, "{backend:?}");
        }
    }

    // --- The two limits the packed scheduling key introduces ---

    #[test]
    #[should_panic(expected = "do not fit the scheduling key")]
    fn more_cores_than_the_key_has_tid_bits_is_refused() {
        Sim::new(MachineConfig {
            cores: (1 << TID_BITS) + 1,
            ..MachineConfig::tiny_test()
        });
    }

    // --- Machines the model cannot represent ---

    /// Cores 0 and 16 of a 17-core machine would be one bit of the
    /// directory's sharer mask: core 16 kept a stale copy across core 0's
    /// write, and its next read was an L1 hit (a debug build overflowed).
    #[test]
    #[should_panic(expected = "17 cores: a machine has 1 to 16, one a bit of the cache \
                               directory's 16-bit sharer mask")]
    fn a_machine_of_more_cores_than_the_sharer_mask_has_bits_is_refused() {
        Sim::new(MachineConfig {
            cores: 17,
            cores_per_socket: 17,
            ..MachineConfig::tiny_test()
        });
    }

    #[test]
    #[should_panic(expected = "0 cores: a machine has 1 to 16")]
    fn a_machine_of_no_cores_is_refused() {
        Sim::new(MachineConfig {
            cores: 0,
            ..MachineConfig::tiny_test()
        });
    }

    #[test]
    #[should_panic(expected = "a machine has 0 cores per socket")]
    fn a_socket_of_no_cores_is_refused() {
        Sim::new(MachineConfig {
            cores_per_socket: 0,
            ..MachineConfig::tiny_test()
        });
    }

    #[test]
    #[should_panic(expected = "the L1 cache has 0 ways")]
    fn an_l1_of_no_ways_is_refused() {
        let tiny = MachineConfig::tiny_test();
        Sim::new(MachineConfig {
            l1: CacheConfig { ways: 0, ..tiny.l1 },
            ..tiny
        });
    }

    #[test]
    #[should_panic(expected = "the L2 cache has 0 ways")]
    fn an_l2_of_no_ways_is_refused() {
        let tiny = MachineConfig::tiny_test();
        Sim::new(MachineConfig {
            l2: CacheConfig { ways: 0, ..tiny.l2 },
            ..tiny
        });
    }

    #[test]
    fn the_key_holds_every_tid_up_to_its_limit() {
        let top = (1 << TID_BITS) - 1;
        assert!(sched_key(0, top) < sched_key(1, 0));
        assert!(sched_key(CLOCK_LIMIT - 1, top) < PARKED);
    }

    #[test]
    #[should_panic(expected = "overflows the scheduling key")]
    fn a_clock_beyond_the_key_is_refused() {
        let s = sim();
        s.run(1, |ctx| {
            ctx.tick(CLOCK_LIMIT);
            ctx.fence();
        });
    }

    // --- TurnCell: host-side state owned by the holder of the turn ---

    #[test]
    fn the_cell_refuses_the_ctx_of_another_sim() {
        let (mine, other) = (sim(), sim());
        let cell = mine.turn_cell(0u64);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            other.run(1, |ctx| cell.with(ctx, |v| *v += 1));
        }));
        let msg = panic_text(caught.expect_err("a foreign Ctx must be refused"));
        assert_eq!(msg, "TurnCell::with called with the Ctx of another Sim");
        mine.run(1, |ctx| cell.with(ctx, |v| *v += 2));
        assert_eq!(cell.with_idle(|v| *v), 2);
    }

    #[test]
    fn with_idle_inside_a_run_panics_instead_of_hanging() {
        for backend in both_backends() {
            for n in [1, 4] {
                let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
                let cell = s.turn_cell(0u64);
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    s.run(n, |ctx| {
                        ctx.fence();
                        cell.with_idle(|v| *v += 1);
                    });
                }));
                let msg = panic_text(caught.expect_err("with_idle in a run must panic"));
                assert_eq!(
                    msg, "TurnCell::with_idle called during a run",
                    "{backend:?}"
                );
                // The run is over: the cell is idle again, and untouched.
                assert_eq!(cell.with_idle(|v| *v), 0, "{backend:?}, {n} threads");
            }
        }
    }

    #[test]
    fn set_sched_hook_inside_a_run_panics_instead_of_hanging() {
        for backend in both_backends() {
            for n in [1, 4] {
                let s = Sim::with_backend(MachineConfig::tiny_test(), backend);
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    s.run(n, |ctx| {
                        ctx.fence();
                        s.set_sched_hook(Arc::new(|_, _| 0));
                    });
                }));
                let msg = panic_text(caught.expect_err("set_sched_hook in a run must panic"));
                assert_eq!(
                    msg, "Sim::set_sched_hook called during a run",
                    "{backend:?}"
                );
                // The run is over: installing works again.
                s.set_sched_hook(Arc::new(|_, _| 0));
            }
        }
    }

    #[test]
    fn every_run_of_a_sim_runs_its_fibers_on_the_same_stacks() {
        if !fiber::SUPPORTED {
            return;
        }
        let s = Sim::with_backend(MachineConfig::tiny_test(), Backend::Fibers);
        // Where each thread's frame sits: the same stack, the same depth.
        let frames = || {
            let at = HostMutex::new([0usize; 4]);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                s.run(4, |ctx| {
                    let local = ctx.tid();
                    at.lock()[ctx.tid()] = ptr::addr_of!(local) as usize;
                    ctx.fence();
                    assert!(ctx.tid() != 2, "a panicking run keeps its stacks too");
                });
            }));
            assert!(caught.is_err());
            at.into_inner()
        };
        let first = frames();
        let mut distinct = first.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{first:x?}");
        for _ in 0..3 {
            assert_eq!(frames(), first);
        }
    }

    #[test]
    fn the_hand_off_chain_orders_what_eight_threads_do_in_the_cell() {
        // Nothing but the turn orders the read-modify-writes below: were two
        // OS threads ever inside the cell together, updates would be lost or
        // the logs of the two backends would differ.
        const ROUNDS: u64 = 300;
        let logs: Vec<Vec<usize>> = both_backends()
            .into_iter()
            .map(|backend| {
                let cfg = MachineConfig {
                    cores: 8,
                    cores_per_socket: 4,
                    ..MachineConfig::tiny_test()
                };
                let s = Sim::with_backend(cfg, backend);
                let mx = s.new_mutex();
                let cell = s.turn_cell((0u64, Vec::new()));
                s.run(8, |ctx| {
                    let tid = ctx.tid();
                    for _ in 0..ROUNDS {
                        ctx.lock(mx);
                        cell.with(ctx, |(sum, log)| {
                            let seen = std::hint::black_box(*sum);
                            log.push(tid);
                            *sum = seen + 1;
                        });
                        ctx.unlock(mx);
                        cell.with(ctx, |(sum, _)| *sum = std::hint::black_box(*sum) + 1);
                        ctx.tick(3 + tid as u64);
                    }
                });
                let (sum, log) = cell.with_idle(std::mem::take);
                assert_eq!(sum, 8 * ROUNDS * 2, "{backend:?}");
                log
            })
            .collect();
        assert_eq!(logs[0].len() as u64, 8 * ROUNDS);
        assert!(logs.iter().all(|log| *log == logs[0]));
    }
}
