//! The paper's synthetic microbenchmark (§5).
//!
//! A configurable number of threads updates (insert/delete) or searches a
//! shared transactional data structure. As in the paper, the element count
//! stays roughly constant because insertions and deletions take turns: the
//! next element removed is the last one inserted (per thread). The main
//! thread populates the structure before the workers start, so initial
//! nodes are laid out contiguously by the allocator — the precondition of
//! the Fig. 5 stripe-sharing scenario.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tm_alloc::AllocatorKind;
use tm_ds::{AnySet, StructureKind};
use tm_stm::{BackendKind, CmKind, LockDesign, OrtHash, Stack, StackSpec, StmConfig, WriteMode};

use tm_sim::MachineConfig;

use crate::Metrics;

/// One synthetic-benchmark configuration (a point in the Fig. 4 sweeps).
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Structure under test.
    pub structure: StructureKind,
    /// Allocator under test.
    pub allocator: AllocatorKind,
    /// Worker thread count of the measured phase.
    pub threads: usize,
    /// Percentage of operations that are updates (paper: 0, 20, 60).
    pub update_pct: u32,
    /// Initial element count (paper: 4096; scaled down by default so the
    /// full sweep runs in minutes under the simulator).
    pub initial_size: u64,
    /// Keys are drawn from `[0, key_range)` (paper: 2 × set size).
    pub key_range: u64,
    /// Operations per thread in the measured phase.
    pub ops_per_thread: u64,
    /// ORT stripe shift (paper default 5; Fig. 6 uses 4).
    pub shift: u32,
    /// Enable the §6.2 object cache.
    pub object_cache: bool,
    /// Lock acquisition design (extension; paper uses ETL).
    pub design: LockDesign,
    /// Write strategy (extension; paper uses write-back).
    pub write_mode: WriteMode,
    /// ORT hash (extension; paper uses shift-and-modulo).
    pub ort_hash: OrtHash,
    /// TM backend (extension; paper uses TinySTM ETL).
    pub backend: BackendKind,
    /// Contention manager (extension; paper uses SUICIDE).
    pub cm: CmKind,
    /// Workload seed.
    pub seed: u64,
    /// Allocation-fault plan (robustness extension; `None` builds the
    /// exact fault-free stack, the bare model with no wrapper).
    pub alloc_fault: tm_alloc::AllocFaultPlan,
    /// Hash-set bucket count (paper: 128 K for a 4 K set — 32× the size).
    pub buckets: u64,
    /// Machine model (default: the paper's Xeon E5405).
    pub machine: MachineConfig,
}

impl SyntheticConfig {
    /// Paper-shaped defaults at reduced scale: 512 elements, keys in
    /// [0, 1024), 60 % updates (the configuration the paper focuses on).
    pub fn scaled(structure: StructureKind, allocator: AllocatorKind, threads: usize) -> Self {
        let initial = match structure {
            // Long list traversals are O(n) per op; keep the list smaller
            // so sweeps stay fast, as the paper's relative effects do not
            // depend on the absolute length.
            StructureKind::LinkedList => 256,
            _ => 1024,
        };
        SyntheticConfig {
            structure,
            allocator,
            threads,
            update_pct: 60,
            initial_size: initial,
            key_range: initial * 2,
            ops_per_thread: match structure {
                StructureKind::LinkedList => 300,
                _ => 3000,
            },
            shift: 5,
            object_cache: false,
            design: LockDesign::Etl,
            write_mode: WriteMode::Back,
            ort_hash: OrtHash::ShiftMod,
            backend: BackendKind::Etl,
            cm: CmKind::Suicide,
            seed: 0x5eed,
            alloc_fault: tm_alloc::AllocFaultPlan::None,
            buckets: (initial * 32).next_power_of_two(),
            machine: MachineConfig::xeon_e5405(),
        }
    }

    /// The stack this configuration runs on.
    pub fn spec(&self) -> StackSpec {
        StackSpec {
            machine: self.machine.clone(),
            alloc: self.allocator,
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
            audit: false,
        }
    }
}

/// Run one configuration and return its metrics. Deterministic.
pub fn run_synthetic(cfg: &SyntheticConfig) -> Metrics {
    run_synthetic_cm(cfg).0
}

/// Like [`run_synthetic`], but also returns the contention-manager tallies
/// of the parallel phase and the adaptive switch transcript (`(thread,
/// switch)` pairs, sorted; empty unless `cfg.cm` is [`CmKind::Adaptive`]).
/// Same simulation as [`run_synthetic`] — the extras are free observability.
pub fn run_synthetic_cm(
    cfg: &SyntheticConfig,
) -> (Metrics, tm_stm::CmStats, Vec<(usize, tm_stm::CmSwitch)>) {
    let stack = Stack::new(&cfg.spec());
    let stm = &stack.stm;

    // ---- Sequential phase: the main thread builds the structure. ----
    let set_cell = parking_lot::Mutex::new(None::<AnySet>);
    stack.sim.run(1, |ctx| {
        let set = AnySet::new(cfg.structure, stm, ctx, cfg.buckets);
        let mut th = stm.thread(0);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut inserted = 0;
        while inserted < cfg.initial_size {
            let key = rng.gen_range(0..cfg.key_range);
            if set.as_set().insert(stm, ctx, &mut th, key) {
                inserted += 1;
            }
        }
        stm.retire(th);
        *set_cell.lock() = Some(set);
    });
    stm.reset_stats();

    // ---- Parallel phase: the measured region. ----
    let report = stack.sim.run(cfg.threads, |ctx| {
        // Handles are Copy: take one out so threads do not hold the mutex.
        let any = set_cell.lock().unwrap();
        let set = any.as_set();
        let mut th = stm.thread(ctx.tid());
        let mut rng = SmallRng::seed_from_u64(
            cfg.seed ^ (ctx.tid() as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15),
        );
        // Insertions and deletions take turns (paper §4): remember the last
        // inserted key and remove it on the next update.
        let mut pending_remove: Option<u64> = None;
        for _ in 0..cfg.ops_per_thread {
            let is_update = rng.gen_range(0..100) < cfg.update_pct;
            if is_update {
                match pending_remove.take() {
                    Some(key) => {
                        set.remove(stm, ctx, &mut th, key);
                    }
                    None => {
                        let key = rng.gen_range(0..cfg.key_range);
                        set.insert(stm, ctx, &mut th, key);
                        pending_remove = Some(key);
                    }
                }
            } else {
                let key = rng.gen_range(0..cfg.key_range);
                set.contains(stm, ctx, &mut th, key);
            }
        }
        stm.retire(th);
    });

    let stats = stm.stats();
    let metrics = Metrics {
        seconds: report.seconds,
        throughput: report.throughput(stats.commits),
        abort_ratio: stats.abort_ratio(),
        l1_miss: report.cache_total.l1_miss_ratio(),
        l2_miss: report.cache_total.l2_miss_ratio(),
        commits: stats.commits,
        aborts: stats.aborts(),
        alloc_failed_aborts: stats.by_cause[tm_stm::AbortCause::AllocFailed as usize],
        lock_wait_cycles: report.locks.wait_cycles,
        cache_hits: stats.cache_hits,
    };
    (metrics, stm.cm_stats(), stm.cm_switches())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(structure: StructureKind, allocator: AllocatorKind, threads: usize) -> Metrics {
        let mut cfg = SyntheticConfig::scaled(structure, allocator, threads);
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 100;
        cfg.buckets = 1 << 11;
        run_synthetic(&cfg)
    }

    #[test]
    fn runs_all_structures() {
        for s in StructureKind::ALL {
            let m = quick(s, AllocatorKind::TbbMalloc, 2);
            assert!(m.commits >= 200, "{s:?}: expected 200 commits");
            assert!(m.throughput > 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let a = quick(StructureKind::HashSet, AllocatorKind::TcMalloc, 4);
        let b = quick(StructureKind::HashSet, AllocatorKind::TcMalloc, 4);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn list_aborts_higher_with_16b_spacing_than_32b() {
        // The Fig. 5 / Table 4 effect: under shift 5, Glibc's 32-byte nodes
        // land on distinct stripes, the 16-byte nodes of TBB share stripes
        // pairwise → more (false) aborts. Needs a list long enough that
        // true conflicts do not saturate the abort rate.
        let run = |kind| {
            let mut cfg = SyntheticConfig::scaled(StructureKind::LinkedList, kind, 4);
            cfg.ops_per_thread = 150;
            run_synthetic(&cfg)
        };
        let glibc = run(AllocatorKind::Glibc);
        let tbb = run(AllocatorKind::TbbMalloc);
        assert!(
            tbb.abort_ratio > glibc.abort_ratio,
            "expected TBB abort ratio ({:.3}) > Glibc ({:.3})",
            tbb.abort_ratio,
            glibc.abort_ratio
        );
    }

    #[test]
    fn ctl_design_and_mix_hash_work_end_to_end() {
        use tm_stm::{LockDesign, OrtHash};
        let mut cfg = SyntheticConfig::scaled(StructureKind::RbTree, AllocatorKind::Glibc, 4);
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 100;
        cfg.design = LockDesign::Ctl;
        cfg.ort_hash = OrtHash::Mix;
        let m = run_synthetic(&cfg);
        assert_eq!(m.commits, 400);
    }

    #[test]
    fn modern_machine_model_runs() {
        let mut cfg = SyntheticConfig::scaled(StructureKind::HashSet, AllocatorKind::TcMalloc, 8);
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 50;
        cfg.buckets = 1 << 11;
        cfg.machine = tm_sim::MachineConfig::modern_8core();
        let m = run_synthetic(&cfg);
        assert_eq!(m.commits, 400);
        // Same workload, different machine: time scale differs from Xeon.
        let mut x = cfg.clone();
        x.machine = tm_sim::MachineConfig::xeon_e5405();
        let mx = run_synthetic(&x);
        assert_ne!(m.seconds, mx.seconds);
    }

    #[test]
    fn generous_fault_budget_changes_nothing() {
        // The fault plan is host-side bookkeeping with no simulated time;
        // a budget no allocation ever hits must reproduce the fault-free
        // numbers exactly.
        let base = quick(StructureKind::HashSet, AllocatorKind::TbbMalloc, 4);
        let mut cfg = SyntheticConfig::scaled(StructureKind::HashSet, AllocatorKind::TbbMalloc, 4);
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 100;
        cfg.buckets = 1 << 11;
        cfg.alloc_fault = tm_alloc::AllocFaultPlan::ByteBudget(u64::MAX);
        let faulted = run_synthetic(&cfg);
        assert_eq!(base.seconds, faulted.seconds);
        assert_eq!(base.commits, faulted.commits);
        assert_eq!(base.aborts, faulted.aborts);
    }

    #[test]
    fn probabilistic_faults_abort_but_commit_the_same_work() {
        // Sporadic allocation failures surface as alloc-failed aborts
        // that the contention manager retries, so the committed work is
        // unchanged — only the abort count grows.
        let base = quick(StructureKind::HashSet, AllocatorKind::TbbMalloc, 4);
        let mut cfg = SyntheticConfig::scaled(StructureKind::HashSet, AllocatorKind::TbbMalloc, 4);
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 100;
        cfg.buckets = 1 << 11;
        // Seed chosen so the deterministic fault stream spares the two
        // non-transactional setup allocations (those are fatal by
        // contract) while still landing several transactional failures.
        cfg.alloc_fault = tm_alloc::AllocFaultPlan::Prob { seed: 2, denom: 32 };
        let faulted = run_synthetic(&cfg);
        assert_eq!(base.commits, faulted.commits);
        assert_eq!(base.alloc_failed_aborts, 0);
        assert!(
            faulted.alloc_failed_aborts > 0,
            "expected injected alloc-failed aborts (total aborts: base {}, faulted {})",
            base.aborts,
            faulted.aborts
        );
    }

    #[test]
    fn read_only_workload_never_aborts() {
        let mut cfg = SyntheticConfig::scaled(StructureKind::HashSet, AllocatorKind::Hoard, 4);
        cfg.update_pct = 0;
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 100;
        cfg.buckets = 1 << 11;
        let m = run_synthetic(&cfg);
        assert_eq!(m.aborts, 0);
    }
}
