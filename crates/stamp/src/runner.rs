//! STAMP execution harness: build the stack, run seq + par phases, report
//! the paper's metrics; plus the Table 5 allocation profile.

use std::sync::Arc;

use tm_alloc::profile::{Region, RegionStats};
use tm_alloc::{AllocFaultPlan, AllocatorKind};
use tm_stm::{BackendKind, CmKind, LockDesign, OrtHash, Stack, StackSpec, StmConfig, WriteMode};

use crate::{AppKind, StampApp};

/// Options for a STAMP run (the sweep axes of §6).
#[derive(Clone, Debug)]
pub struct StampOpts {
    /// Enable the §6.2 transactional object cache (Table 7).
    pub object_cache: bool,
    /// ORT stripe shift.
    pub shift: u32,
    /// Lock acquisition design (extension; the paper uses ETL).
    pub design: LockDesign,
    /// Write strategy (extension; the paper uses write-back).
    pub write_mode: WriteMode,
    /// ORT hash (extension; the paper uses shift-and-modulo).
    pub ort_hash: OrtHash,
    /// TM backend (extension; the paper uses TinySTM ETL).
    pub backend: BackendKind,
    /// Contention manager (extension; the paper uses SUICIDE).
    pub cm: CmKind,
    /// Seed for the per-run RNG streams.
    pub seed: u64,
    /// Wrap the allocator in a [`tm_alloc::HeapAuditor`]; violations are
    /// reported in [`StampResult::heap_violations`]. Adds host-side
    /// bookkeeping but no simulated time.
    pub audit_heap: bool,
    /// Allocation-fault plan (robustness extension). `None` without
    /// [`StampOpts::audit_heap`] builds the exact fault-free stack, the
    /// bare model; any other plan is armed on the
    /// [`tm_alloc::HeapAuditor`], which then wraps the model audited or
    /// not.
    pub alloc_fault: AllocFaultPlan,
}

impl Default for StampOpts {
    fn default() -> Self {
        StampOpts {
            object_cache: false,
            shift: 5,
            design: LockDesign::Etl,
            write_mode: WriteMode::Back,
            ort_hash: OrtHash::ShiftMod,
            backend: BackendKind::Etl,
            cm: CmKind::Suicide,
            seed: 0xace,
            audit_heap: false,
            alloc_fault: AllocFaultPlan::None,
        }
    }
}

impl StampOpts {
    /// The stack these options describe on `alloc`.
    pub fn spec(&self, alloc: AllocatorKind) -> StackSpec {
        StackSpec {
            stm: StmConfig {
                backend: self.backend,
                cm: self.cm,
                shift: self.shift,
                object_cache: self.object_cache,
                design: self.design,
                write_mode: self.write_mode,
                ort_hash: self.ort_hash,
                ..StmConfig::default()
            },
            fault: self.alloc_fault,
            audit: self.audit_heap,
            ..StackSpec::new(alloc)
        }
    }
}

/// Metrics of one STAMP run — what Figs. 7/8 and Tables 6/7 report.
#[derive(Clone, Debug)]
pub struct StampResult {
    /// Virtual seconds of the initialization phase.
    pub seq_seconds: f64,
    /// Virtual seconds of the parallel (timed) phase — the paper's y-axis.
    pub par_seconds: f64,
    /// Committed transactions in the parallel phase.
    pub commits: u64,
    /// Aborted transaction attempts in the parallel phase.
    pub aborts: u64,
    /// The subset of `aborts` caused by a failed transactional
    /// allocation (always 0 unless [`StampOpts::alloc_fault`] injects
    /// failures — real allocators in the simulator never run out).
    pub alloc_failed_aborts: u64,
    /// `aborts / (commits + aborts)`.
    pub abort_ratio: f64,
    /// L1 data-cache miss ratio of the parallel phase.
    pub l1_miss: f64,
    /// L2 miss ratio of the parallel phase.
    pub l2_miss: f64,
    /// Virtual cycles spent waiting on allocator locks in the par phase.
    pub lock_wait_cycles: u64,
    /// Object-cache hits (Table 7 diagnostics).
    pub cache_hits: u64,
    /// Interleaving-independent checksum of the final logical state, when
    /// the app defines one (see [`StampApp::checksum`]).
    pub checksum: Option<u64>,
    /// Heap-invariant violations found by the auditor; always 0 for a
    /// stack without one (neither [`StampOpts::audit_heap`] nor a fault
    /// plan).
    pub heap_violations: u64,
}

impl StampResult {
    /// Report section with every metric, for `RunReport` emission (same
    /// two-column shape as `tm_core::Metrics::section`).
    pub fn section(&self) -> tm_obs::Section {
        tm_obs::Section::Table {
            header: vec!["metric".into(), "value".into()],
            rows: vec![
                vec!["seq_seconds".into(), format!("{:.6}", self.seq_seconds)],
                vec!["par_seconds".into(), format!("{:.6}", self.par_seconds)],
                vec!["commits".into(), self.commits.to_string()],
                vec!["aborts".into(), self.aborts.to_string()],
                vec!["abort_ratio".into(), format!("{:.6}", self.abort_ratio)],
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
                vec!["l1_miss".into(), format!("{:.6}", self.l1_miss)],
                vec!["l2_miss".into(), format!("{:.6}", self.l2_miss)],
                vec!["lock_wait_cycles".into(), self.lock_wait_cycles.to_string()],
                vec!["cache_hits".into(), self.cache_hits.to_string()],
            ])
            .collect(),
        }
    }
}

/// Instantiate an application at a given scale (1 = smoke-test size; the
/// bench binaries use larger scales, recorded in EXPERIMENTS.md).
pub fn make_app(kind: AppKind, scale: u64, seed: u64) -> Box<dyn StampApp> {
    use crate::apps::*;
    match kind {
        AppKind::Bayes => Box::new(Bayes::new(8 * scale, 64 * scale, seed)),
        AppKind::Genome => Box::new(Genome::new(192 * scale, seed)),
        AppKind::Intruder => Box::new(Intruder::new(24 * scale, seed)),
        AppKind::Kmeans => Box::new(Kmeans::new(128 * scale, seed)),
        AppKind::Labyrinth => Box::new(Labyrinth::new(12, 8 * scale, seed)),
        AppKind::Ssca2 => Box::new(Ssca2::new(48 * scale, 192 * scale, seed)),
        AppKind::Vacation => Box::new(Vacation::new(48 * scale, 64 * scale, seed)),
        AppKind::Yada => Box::new(Yada::new(128 * scale, seed)),
    }
}

/// Run one application on one allocator at one thread count. Deterministic.
pub fn run_app(
    app: &dyn StampApp,
    allocator: AllocatorKind,
    threads: usize,
    opts: &StampOpts,
) -> StampResult {
    run_app_on(&Stack::new(&opts.spec(allocator)), app, threads)
}

/// [`run_app`] on a stack the caller built, and can inspect afterwards.
pub fn run_app_on(stack: &Stack, app: &dyn StampApp, threads: usize) -> StampResult {
    let Stack {
        sim, stm, auditor, ..
    } = stack;

    let seq = sim.run(1, |ctx| app.init(stm, ctx));
    stm.reset_stats();

    let par = sim.run(threads, |ctx| {
        let mut th = stm.thread(ctx.tid());
        app.worker(stm, ctx, &mut th);
        stm.retire(th);
    });

    // Post-run invariant checks and checksum (outside the timed phases).
    let checksum_cell = parking_lot::Mutex::new(None);
    sim.run(1, |ctx| {
        app.verify(stm, ctx);
        *checksum_cell.lock() = app.checksum(stm, ctx);
    });

    let stats = stm.stats();
    StampResult {
        seq_seconds: seq.seconds,
        par_seconds: par.seconds,
        commits: stats.commits,
        aborts: stats.aborts(),
        alloc_failed_aborts: stats.by_cause[tm_stm::AbortCause::AllocFailed as usize],
        abort_ratio: stats.abort_ratio(),
        l1_miss: par.cache_total.l1_miss_ratio(),
        l2_miss: par.cache_total.l2_miss_ratio(),
        lock_wait_cycles: par.locks.wait_cycles,
        cache_hits: stats.cache_hits,
        checksum: checksum_cell.into_inner(),
        heap_violations: auditor.as_ref().map_or(0, |a| a.report().violation_count),
    }
}

/// Convenience: build the app at `scale` and run it.
pub fn run_kind(
    kind: AppKind,
    allocator: AllocatorKind,
    threads: usize,
    opts: &StampOpts,
    scale: u64,
) -> StampResult {
    let app = make_app(kind, scale, opts.seed);
    run_app(app.as_ref(), allocator, threads, opts)
}

/// Regenerate the Table 5 characterization for one application: run it
/// sequentially (1 thread, as the paper does) on an audited stack and
/// return the auditor's per-region histograms `[seq, par, tx]`.
pub fn profile_app(app: &dyn StampApp, allocator: AllocatorKind) -> [RegionStats; 3] {
    let Stack {
        sim, stm, auditor, ..
    } = &Stack::new(&StackSpec {
        audit: true,
        ..StackSpec::new(allocator)
    });
    let auditor = auditor.as_ref().expect("an audited stack");
    // During init everything counts as `seq`, even transactions (the paper
    // instrumented the *sequential execution*, relying on STAMP's phase
    // annotations). In the parallel phase a tx hook, installed after
    // init, flips Par ↔ Tx.
    sim.run(1, |ctx| app.init(stm, ctx));
    let hooked = Arc::clone(auditor);
    stm.set_tx_hook(Arc::new(move |tid, enter| {
        hooked.set_region(tid, if enter { Region::Tx } else { Region::Par });
    }));
    auditor.set_region(0, Region::Par);
    sim.run(1, |ctx| {
        let mut th = stm.thread(0);
        app.worker(stm, ctx, &mut th);
        stm.retire(th);
    });
    auditor.region_stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_run_at_smoke_scale() {
        for kind in AppKind::ALL {
            let r = run_kind(kind, AllocatorKind::TbbMalloc, 2, &StampOpts::default(), 1);
            assert!(r.par_seconds > 0.0, "{}: empty parallel phase", kind.name());
        }
    }

    #[test]
    fn deterministic_runs() {
        let a = run_kind(
            AppKind::Vacation,
            AllocatorKind::Glibc,
            4,
            &StampOpts::default(),
            1,
        );
        let b = run_kind(
            AppKind::Vacation,
            AllocatorKind::Glibc,
            4,
            &StampOpts::default(),
            1,
        );
        assert_eq!(a.par_seconds, b.par_seconds);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn backends_agree_on_genome_checksum() {
        // The final logical state is interleaving-independent, so every
        // backend — whatever its conflict-detection mechanism — must land
        // on the same checksum as a serial ETL run.
        let reference = run_kind(
            AppKind::Genome,
            AllocatorKind::TbbMalloc,
            1,
            &StampOpts::default(),
            1,
        );
        for backend in BackendKind::ALL {
            let opts = StampOpts {
                backend,
                ..StampOpts::default()
            };
            let r = run_kind(AppKind::Genome, AllocatorKind::TbbMalloc, 4, &opts, 1);
            assert_eq!(
                r.checksum,
                reference.checksum,
                "backend {} diverged from the serial ETL reference",
                backend.name()
            );
            assert!(r.commits > 0);
        }
    }

    #[test]
    fn injected_alloc_faults_are_retried_leak_free() {
        let base = run_kind(
            AppKind::Genome,
            AllocatorKind::TbbMalloc,
            2,
            &StampOpts::default(),
            1,
        );
        // Count the allocation sites of the init phase on an audited
        // stack (same deterministic stack as run_app), so the injected
        // failure can be aimed past them — at the parallel phase, where
        // allocations are transactional and a failure must abort, unwind
        // leak-free, and retry. Sites inside init are non-transactional
        // and fatal by contract.
        let init_sites = {
            let stack = Stack::new(&StackSpec {
                audit: true,
                ..StackSpec::new(AllocatorKind::TbbMalloc)
            });
            let app = make_app(AppKind::Genome, 1, StampOpts::default().seed);
            stack.sim.run(1, |ctx| app.init(&stack.stm, ctx));
            stack.auditor.unwrap().sites()
        };
        let opts = StampOpts {
            audit_heap: true,
            alloc_fault: AllocFaultPlan::NthSite(init_sites + 5),
            ..StampOpts::default()
        };
        let r = run_kind(AppKind::Genome, AllocatorKind::TbbMalloc, 2, &opts, 1);
        assert_eq!(
            r.checksum, base.checksum,
            "injected failure must not change the final logical state"
        );
        assert_eq!(r.heap_violations, 0, "alloc-failure unwind must stay clean");
        assert_eq!(
            r.commits, base.commits,
            "the failed transaction must retry to commit"
        );
        assert_eq!(
            r.alloc_failed_aborts, 1,
            "exactly the one injected failure must surface as an alloc-failed abort"
        );
        assert_eq!(base.alloc_failed_aborts, 0);
    }

    #[test]
    fn generous_fault_budget_reproduces_fault_free_run() {
        let base = run_kind(
            AppKind::Kmeans,
            AllocatorKind::Glibc,
            2,
            &StampOpts::default(),
            1,
        );
        let opts = StampOpts {
            alloc_fault: AllocFaultPlan::ByteBudget(u64::MAX),
            ..StampOpts::default()
        };
        let r = run_kind(AppKind::Kmeans, AllocatorKind::Glibc, 2, &opts, 1);
        assert_eq!(base.par_seconds, r.par_seconds);
        assert_eq!(base.commits, r.commits);
        assert_eq!(base.aborts, r.aborts);
    }

    #[test]
    fn object_cache_reduces_allocator_traffic_for_yada() {
        let base = StampOpts::default();
        let cached = StampOpts {
            object_cache: true,
            ..StampOpts::default()
        };
        let plain = run_kind(AppKind::Yada, AllocatorKind::Glibc, 4, &base, 1);
        let opt = run_kind(AppKind::Yada, AllocatorKind::Glibc, 4, &cached, 1);
        assert_eq!(plain.cache_hits, 0);
        assert!(opt.cache_hits > 0, "object cache must serve some mallocs");
    }
}
