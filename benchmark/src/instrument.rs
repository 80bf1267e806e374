//! Benchmark-side copies of the library drivers, built from the same
//! public parts (`Sim`, `AllocatorKind::build`, `Stm::new`, `tm_ds`,
//! `StampApp`) so that the traced run can read what the library drivers
//! keep to themselves: `StmStats`, `CacheStats`, `LockStats`,
//! `Sim::events()`, resident pages, and — through an [`Allocator`] wrapper
//! injected under the STM — allocator calls and the virtual time spent in
//! them. Each copy must reproduce its library original bit for bit; the
//! traced run and `cargo test` both check that.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tm_alloc::{AllocError, Allocator, AllocatorAttrs, AllocatorKind, HeapAuditor, HeapSnapshot};
use tm_core::synthetic::SyntheticConfig;
use tm_core::threadtest::{ThreadtestConfig, ThreadtestResult};
use tm_core::Metrics;
use tm_ds::{StructureKind, TxHashSet, TxList, TxRbTree, TxSet};
use tm_sim::{Ctx, MachineConfig, Sim, SimReport};
use tm_stamp::runner::{StampOpts, StampResult};
use tm_stamp::StampApp;
use tm_stm::{AbortCause, Stm, StmConfig, StmStats, TxThread};

/// Everything the traced run counts, summed over the cells of a pass.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub sim_events: u64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub coherence_transfers: u64,
    pub lock_acquisitions: u64,
    pub lock_contended: u64,
    pub resident_pages: u64,
    /// Scheduler events of the runs with more than one thread (the ones
    /// that pay a hand-off); the rest ran on the solo path.
    pub sim_events_shared: u64,
    /// STM statistics of every phase, per backend (`BackendKind as usize`).
    pub stm_by: [StmStats; 3],
    /// `malloc` + `free` calls per allocator (`AllocatorKind as usize`).
    pub alloc_calls_by: [u64; 4],
    /// Virtual cycles between entering and leaving `malloc`/`free`.
    pub alloc_virt_cycles: u64,
    /// Run length × threads, summed over runs: what the allocator's
    /// cycles are a share of.
    pub thread_virt_cycles: u64,
    pub audit_violations: u64,
    pub mc_schedules: u64,
    pub mc_pruned: u64,
    pub mc_deduped: u64,
    pub mc_checkpoints: u64,
    pub mc_replay_steps_saved: u64,
    /// Allocation sites the every-site OOM sweep enumerated.
    pub mc_oom_sites: u64,
}

impl Counts {
    /// STM statistics summed over the backends.
    pub fn stm(&self) -> StmStats {
        let mut all = StmStats::default();
        for s in &self.stm_by {
            all.merge(s);
        }
        all
    }

    pub fn alloc_calls(&self) -> u64 {
        self.alloc_calls_by.iter().sum()
    }

    fn absorb_run(&mut self, r: &SimReport) {
        self.l1_accesses += r.cache_total.l1_accesses;
        self.l1_misses += r.cache_total.l1_misses;
        self.l2_misses += r.cache_total.l2_misses;
        self.coherence_transfers += r.cache_total.coherence_transfers;
        self.lock_acquisitions += r.locks.acquisitions;
        self.lock_contended += r.locks.contended;
        self.thread_virt_cycles += r.cycles * r.threads as u64;
    }

    /// Close one cell: the machine-wide totals that only exist per `Sim`.
    fn absorb_cell(&mut self, cell: &CellProbe) {
        self.sim_events += cell.sim.events();
        self.sim_events_shared += cell.shared_events;
        self.resident_pages += cell.sim.with_state(|m| m.resident_pages()) as u64;
        self.alloc_calls_by[cell.kind as usize] += cell.alloc.calls.load(Ordering::Relaxed);
        self.alloc_virt_cycles += cell.alloc.virt_cycles.load(Ordering::Relaxed);
        if let Some(a) = &cell.auditor {
            self.audit_violations += a.report().violation_count;
        }
    }
}

/// One recorded allocator call: which thread asked for how many bytes, or
/// freed which address. The address only serves to pair a free with its
/// malloc when the trace is replayed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceOp {
    pub tid: u32,
    pub malloc: bool,
    pub size: u64,
    pub addr: u64,
}

/// A cell's allocator calls in the order the simulator executed them, and
/// where the single-threaded populate phase ends.
#[derive(Clone, Debug, Default)]
pub struct AllocTrace {
    pub ops: Vec<TraceOp>,
    pub populate_len: usize,
    pub threads: usize,
}

/// The allocator wrapper the traced run injects through the public trait.
/// It adds no simulated event and no virtual time: `Ctx::now` only reads
/// the thread's mirrored clock.
pub struct Counting {
    inner: Arc<dyn Allocator>,
    calls: AtomicU64,
    virt_cycles: AtomicU64,
    log: Option<parking_lot::Mutex<Vec<TraceOp>>>,
}

impl Counting {
    pub fn new(inner: Arc<dyn Allocator>, record: bool) -> Arc<Counting> {
        Arc::new(Counting {
            inner,
            calls: AtomicU64::new(0),
            virt_cycles: AtomicU64::new(0),
            log: record.then(|| parking_lot::Mutex::new(Vec::new())),
        })
    }

    fn note(&self, ctx: &mut Ctx<'_>, entered: u64, malloc: bool, size: u64, addr: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.virt_cycles
            .fetch_add(ctx.now() - entered, Ordering::Relaxed);
        if let Some(log) = &self.log {
            log.lock().push(TraceOp {
                tid: ctx.tid() as u32,
                malloc,
                size,
                addr,
            });
        }
    }

    fn log_len(&self) -> usize {
        self.log.as_ref().map_or(0, |l| l.lock().len())
    }
}

impl Allocator for Counting {
    fn malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> u64 {
        let entered = ctx.now();
        let addr = self.inner.malloc(ctx, size);
        self.note(ctx, entered, true, size, addr);
        addr
    }

    fn free(&self, ctx: &mut Ctx<'_>, addr: u64) {
        let entered = ctx.now();
        self.inner.free(ctx, addr);
        self.note(ctx, entered, false, 0, addr);
    }

    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        let entered = ctx.now();
        let r = self.inner.try_malloc(ctx, size);
        if let Ok(addr) = r {
            self.note(ctx, entered, true, size, addr);
        }
        r
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        let entered = ctx.now();
        let r = self.inner.try_free(ctx, addr);
        if r.is_ok() {
            self.note(ctx, entered, false, 0, addr);
        }
        r
    }

    fn min_block(&self) -> u64 {
        self.inner.min_block()
    }

    fn attributes(&self) -> AllocatorAttrs {
        self.inner.attributes()
    }

    fn snapshot(&self) -> Option<HeapSnapshot> {
        self.inner.snapshot()
    }

    fn restore(&self, snap: &HeapSnapshot) {
        self.inner.restore(snap)
    }
}

/// One cell's machine with the counting (and optionally auditing)
/// allocator on it.
struct CellProbe {
    sim: Sim,
    kind: AllocatorKind,
    alloc: Arc<Counting>,
    auditor: Option<Arc<HeapAuditor>>,
    shared_events: u64,
}

impl CellProbe {
    fn new(machine: MachineConfig, kind: AllocatorKind, audit: bool, record: bool) -> CellProbe {
        let sim = Sim::new(machine);
        let base = kind.build(&sim);
        let auditor = audit.then(|| HeapAuditor::new(Arc::clone(&base)));
        let under: Arc<dyn Allocator> = match &auditor {
            Some(a) => Arc::clone(a) as Arc<dyn Allocator>,
            None => base,
        };
        CellProbe {
            alloc: Counting::new(under, record),
            sim,
            kind,
            auditor,
            shared_events: 0,
        }
    }

    fn stm(&self, cfg: StmConfig) -> Arc<Stm> {
        Arc::new(Stm::new(
            &self.sim,
            Arc::clone(&self.alloc) as Arc<dyn Allocator>,
            cfg,
        ))
    }

    /// `Sim::run`, with the run's counters folded into `counts`.
    fn run(
        &mut self,
        counts: &mut Counts,
        threads: usize,
        f: impl Fn(&mut Ctx<'_>) + Sync,
    ) -> SimReport {
        let before = self.sim.events();
        let report = self.sim.run(threads, f);
        if threads > 1 {
            self.shared_events += self.sim.events() - before;
        }
        counts.absorb_run(&report);
        report
    }
}

/// A set of the configured structure, shared by value between the phases.
#[derive(Clone, Copy)]
pub enum AnySet {
    List(TxList),
    Hash(TxHashSet),
    Tree(TxRbTree),
}

impl AnySet {
    pub fn new(cfg: &SyntheticConfig, stm: &Stm, ctx: &mut Ctx<'_>) -> AnySet {
        match cfg.structure {
            StructureKind::LinkedList => AnySet::List(TxList::new(stm, ctx)),
            StructureKind::HashSet => AnySet::Hash(TxHashSet::new(stm, ctx, cfg.buckets)),
            StructureKind::RbTree => AnySet::Tree(TxRbTree::new(stm, ctx)),
        }
    }

    pub fn as_set(&self) -> &dyn TxSet {
        match self {
            AnySet::List(s) => s,
            AnySet::Hash(s) => s,
            AnySet::Tree(s) => s,
        }
    }
}

/// The populate phase of `run_synthetic`: insert keys drawn from `rng`
/// until `cfg.initial_size` of them went in.
pub fn populate(
    set: &dyn TxSet,
    stm: &Stm,
    ctx: &mut Ctx<'_>,
    th: &mut TxThread,
    rng: &mut SmallRng,
    cfg: &SyntheticConfig,
) {
    let mut inserted = 0;
    while inserted < cfg.initial_size {
        let key = rng.gen_range(0..cfg.key_range);
        if set.insert(stm, ctx, th, key) {
            inserted += 1;
        }
    }
}

/// One thread's share of the measured phase of `run_synthetic`:
/// `cfg.ops_per_thread` operations, `cfg.update_pct` of them updates that
/// alternate between inserting a fresh key and removing it again.
pub fn mixed_ops(
    set: &dyn TxSet,
    stm: &Stm,
    ctx: &mut Ctx<'_>,
    th: &mut TxThread,
    rng: &mut SmallRng,
    cfg: &SyntheticConfig,
) {
    let mut pending_remove: Option<u64> = None;
    for _ in 0..cfg.ops_per_thread {
        let is_update = rng.gen_range(0..100) < cfg.update_pct;
        if is_update {
            match pending_remove.take() {
                Some(key) => {
                    set.remove(stm, ctx, th, key);
                }
                None => {
                    let key = rng.gen_range(0..cfg.key_range);
                    set.insert(stm, ctx, th, key);
                    pending_remove = Some(key);
                }
            }
        } else {
            let key = rng.gen_range(0..cfg.key_range);
            set.contains(stm, ctx, th, key);
        }
    }
}

/// `tm_core::synthetic::run_synthetic`, rebuilt on [`CellProbe`]. Must
/// return the same [`Metrics`] bit for bit. With `trace`, also returns
/// the cell's allocator calls.
pub fn synthetic(
    cfg: &SyntheticConfig,
    audit: bool,
    counts: &mut Counts,
    trace: Option<&mut AllocTrace>,
) -> Metrics {
    assert_eq!(
        cfg.alloc_fault,
        tm_alloc::AllocFaultPlan::None,
        "the benchmark runs fault-free cells only"
    );
    let mut cell = CellProbe::new(cfg.machine.clone(), cfg.allocator, audit, trace.is_some());
    let stm = cell.stm(StmConfig {
        backend: cfg.backend,
        cm: cfg.cm,
        shift: cfg.shift,
        object_cache: cfg.object_cache,
        design: cfg.design,
        write_mode: cfg.write_mode,
        ort_hash: cfg.ort_hash,
        ..StmConfig::default()
    });
    let stm = &stm;

    let set_cell = parking_lot::Mutex::new(None::<AnySet>);
    cell.run(counts, 1, |ctx| {
        let set = AnySet::new(cfg, stm, ctx);
        let mut th = stm.thread(0);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        populate(set.as_set(), stm, ctx, &mut th, &mut rng, cfg);
        stm.retire(th);
        *set_cell.lock() = Some(set);
    });
    counts.stm_by[cfg.backend as usize].merge(&stm.stats());
    stm.reset_stats();
    let populate_len = cell.alloc.log_len();

    let report = cell.run(counts, cfg.threads, |ctx| {
        let any = set_cell.lock().expect("the populate phase built the set");
        let mut th = stm.thread(ctx.tid());
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed ^ (ctx.tid() as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15),
        );
        mixed_ops(any.as_set(), stm, ctx, &mut th, &mut rng, cfg);
        stm.retire(th);
    });

    let stats = stm.stats();
    counts.stm_by[cfg.backend as usize].merge(&stats);
    counts.absorb_cell(&cell);
    if let Some(trace) = trace {
        let log = cell.alloc.log.as_ref().expect("recording was requested");
        *trace = AllocTrace {
            ops: std::mem::take(&mut *log.lock()),
            populate_len,
            threads: cfg.threads,
        };
    }
    Metrics {
        seconds: report.seconds,
        throughput: report.throughput(stats.commits),
        abort_ratio: stats.abort_ratio(),
        l1_miss: report.cache_total.l1_miss_ratio(),
        l2_miss: report.cache_total.l2_miss_ratio(),
        commits: stats.commits,
        aborts: stats.aborts(),
        alloc_failed_aborts: stats.by_cause[AbortCause::AllocFailed as usize],
        lock_wait_cycles: report.locks.wait_cycles,
        cache_hits: stats.cache_hits,
    }
}

/// `tm_core::threadtest::run_threadtest`, rebuilt on [`CellProbe`].
pub fn threadtest(cfg: &ThreadtestConfig, audit: bool, counts: &mut Counts) -> ThreadtestResult {
    let mut cell = CellProbe::new(MachineConfig::xeon_e5405(), cfg.allocator, audit, false);
    let alloc = Arc::clone(&cell.alloc);
    let report = cell.run(counts, cfg.threads, |ctx| {
        for _ in 0..cfg.pairs_per_thread {
            let p = alloc.malloc(ctx, cfg.block_size);
            ctx.write_u64(p, ctx.tid() as u64);
            alloc.free(ctx, p);
        }
    });
    counts.absorb_cell(&cell);
    let pairs = (cfg.threads as u64 * cfg.pairs_per_thread) as f64;
    ThreadtestResult {
        mops: pairs / report.seconds / 1e6,
        seconds: report.seconds,
        l1_miss: report.cache_total.l1_miss_ratio(),
    }
}

/// `tm_stamp::runner::run_app`, rebuilt on [`CellProbe`]. The audit count
/// goes to `counts`, so `heap_violations` in the result stays 0 like the
/// unaudited original's.
pub fn stamp(
    app: &dyn StampApp,
    allocator: AllocatorKind,
    threads: usize,
    opts: &StampOpts,
    audit: bool,
    counts: &mut Counts,
) -> StampResult {
    assert_eq!(
        opts.alloc_fault,
        tm_alloc::AllocFaultPlan::None,
        "the benchmark runs fault-free cells only"
    );
    let mut cell = CellProbe::new(MachineConfig::xeon_e5405(), allocator, audit, false);
    let stm = cell.stm(StmConfig {
        backend: opts.backend,
        cm: opts.cm,
        shift: opts.shift,
        object_cache: opts.object_cache,
        design: opts.design,
        write_mode: opts.write_mode,
        ort_hash: opts.ort_hash,
        ..StmConfig::default()
    });
    let stm = &stm;

    let seq = cell.run(counts, 1, |ctx| app.init(stm, ctx));
    counts.stm_by[opts.backend as usize].merge(&stm.stats());
    stm.reset_stats();

    let par = cell.run(counts, threads, |ctx| {
        let mut th = stm.thread(ctx.tid());
        app.worker(stm, ctx, &mut th);
        stm.retire(th);
    });

    let checksum_cell = parking_lot::Mutex::new(None);
    cell.run(counts, 1, |ctx| {
        app.verify(stm, ctx);
        *checksum_cell.lock() = app.checksum(stm, ctx);
    });

    let stats = stm.stats();
    counts.stm_by[opts.backend as usize].merge(&stats);
    counts.absorb_cell(&cell);
    StampResult {
        seq_seconds: seq.seconds,
        par_seconds: par.seconds,
        commits: stats.commits,
        aborts: stats.aborts(),
        alloc_failed_aborts: stats.by_cause[AbortCause::AllocFailed as usize],
        abort_ratio: stats.abort_ratio(),
        l1_miss: par.cache_total.l1_miss_ratio(),
        l2_miss: par.cache_total.l2_miss_ratio(),
        lock_wait_cycles: par.locks.wait_cycles,
        cache_hits: stats.cache_hits,
        checksum: checksum_cell.into_inner(),
        heap_violations: 0,
    }
}

/// What replaying one [`AllocTrace`] against one allocator cost.
#[derive(Clone, Debug)]
pub struct Replay {
    pub ops: u64,
    pub host_s: f64,
    /// Bytes the allocator took from the simulated OS: the trace's memory
    /// efficiency under this allocator.
    pub os_bytes: u64,
    /// What the simulator counted while replaying.
    pub counts: Counts,
}

/// Replay a recorded trace against `kind` with no STM and no data
/// structure in the loop: the populate prefix on one thread, the rest on
/// the recorded threads. A free of a block that its (other) thread has not
/// allocated yet under this allocator's timing waits in virtual time.
pub fn replay(trace: &AllocTrace, kind: AllocatorKind) -> Replay {
    // Pair each free with the index of the malloc that produced its block.
    let mut live: HashMap<u64, usize> = HashMap::new();
    let mut blocks = 0usize;
    let mut plan: Vec<Vec<(bool, u64, usize)>> = vec![Vec::new(); trace.threads + 1];
    for (i, op) in trace.ops.iter().enumerate() {
        // Lane 0 is the populate phase; lane t+1 is thread t afterwards.
        let lane = if i < trace.populate_len {
            0
        } else {
            op.tid as usize + 1
        };
        if op.malloc {
            live.insert(op.addr, blocks);
            plan[lane].push((true, op.size, blocks));
            blocks += 1;
        } else if let Some(id) = live.remove(&op.addr) {
            plan[lane].push((false, 0, id));
        }
    }
    let addrs: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();
    let ops: u64 = plan.iter().map(|l| l.len() as u64).sum();

    let sim = Sim::new(MachineConfig::xeon_e5405());
    let alloc = kind.build(&sim);
    let play = |ctx: &mut Ctx<'_>, lane: &[(bool, u64, usize)]| {
        for &(malloc, size, id) in lane {
            if malloc {
                addrs[id].store(alloc.malloc(ctx, size), Ordering::Relaxed);
            } else {
                let mut addr = addrs[id].load(Ordering::Relaxed);
                while addr == 0 {
                    ctx.tick(200);
                    ctx.fence();
                    addr = addrs[id].load(Ordering::Relaxed);
                }
                alloc.free(ctx, addr);
            }
        }
    };
    let start = std::time::Instant::now();
    let a = sim.run(1, |ctx| play(ctx, &plan[0]));
    let solo_events = sim.events();
    let b = sim.run(trace.threads, |ctx| play(ctx, &plan[ctx.tid() + 1]));
    let host_s = start.elapsed().as_secs_f64();
    let mut counts = Counts {
        sim_events: sim.events(),
        sim_events_shared: sim.events() - solo_events,
        ..Counts::default()
    };
    counts.absorb_run(&a);
    counts.absorb_run(&b);
    Replay {
        ops,
        host_s,
        os_bytes: a.os_allocated + b.os_allocated,
        counts,
    }
}
