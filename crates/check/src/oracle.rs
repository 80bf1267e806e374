//! Serial-oracle checking for synthetic set workloads and STAMP apps.
//!
//! **Synthetic sets.** The parallel run records every operation's outcome
//! (per thread, in program order). For a set, linearizability decomposes
//! key by key: the operations touching one key — with their booleans — must
//! admit *some* serial order, and that admits a closed-form check (the
//! successful inserts and removes on a key strictly alternate). A violated
//! condition is a concrete proof that no serial order explains the run,
//! i.e. a real STM bug — there are no false positives. Single-thread runs
//! are additionally diffed op-by-op against a `BTreeSet` reference.
//!
//! **STAMP.** Apps with an interleaving-independent final state expose a
//! [`tm_stamp::StampApp::checksum`]; the N-thread checksum is diffed
//! against a fresh one-thread reference run of the same app, seed and
//! allocator. Both runs execute under the heap auditor.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tm_alloc::AllocatorKind;
use tm_ds::{AnySet, StructureKind};
use tm_obs::{panic_message, CheckCell, CheckStatus};
use tm_stamp::runner::{run_kind, StampOpts, StampResult};
use tm_stamp::AppKind;
use tm_stm::{BackendKind, CmKind, Stack, StackSpec, StmConfig};

use crate::strategies::SetOp;
use crate::{cell_from, kv};

/// ORT stripe shift of every synthetic check cell.
const SHIFT: u32 = 5;
/// Successful inserts performed by the sequential warm-up.
const INITIAL_SIZE: u64 = 12;
/// Keys are drawn from `0..KEY_RANGE`.
const KEY_RANGE: u64 = 32;
/// Operations per worker thread.
const OPS_PER_THREAD: u64 = 120;
/// Percentage of operations that are updates (insert/remove pairs).
const UPDATE_PCT: u64 = 60;
/// Workload seed.
const SEED: u64 = 0xc0ffee;

/// One cell of the synthetic check matrix: a small, fast workload (the
/// constants above) with enough churn to catch interleaving bugs while
/// keeping a full matrix sweep in seconds.
#[derive(Clone, Debug)]
pub struct SynthCheckConfig {
    /// Structure under test.
    pub structure: StructureKind,
    /// Allocator under test.
    pub allocator: AllocatorKind,
    /// Worker thread count of the parallel phase.
    pub threads: usize,
}

impl SynthCheckConfig {
    /// The cell of `structure` on `allocator` at `threads` workers.
    pub fn quick(structure: StructureKind, allocator: AllocatorKind, threads: usize) -> Self {
        SynthCheckConfig {
            structure,
            allocator,
            threads,
        }
    }
}

/// The raw material the oracle judges: initial membership, every recorded
/// operation outcome, and the final swept state.
pub struct SynthObservation {
    /// Keys present after the sequential warm-up.
    pub init: BTreeSet<u64>,
    /// Per-thread `(op, result)` logs in program order.
    pub events: Vec<Vec<(SetOp, bool)>>,
    /// Keys present after the parallel phase (raw sweep).
    pub fin: BTreeSet<u64>,
    /// Committed transactions in the parallel phase.
    pub commits: u64,
    /// Heap-auditor violations across the whole run.
    pub heap_violations: u64,
}

/// Execute the workload and record everything the oracle needs. The
/// workload mirrors `tm_core::synthetic::run_synthetic`: warm-up inserts,
/// then per-thread streams of updates (alternating insert/remove) and
/// membership probes.
pub fn observe_synthetic(cfg: &SynthCheckConfig) -> SynthObservation {
    let Stack {
        sim, stm, auditor, ..
    } = Stack::new(&StackSpec {
        stm: StmConfig {
            shift: SHIFT,
            ..StmConfig::default()
        },
        audit: true,
        ..StackSpec::new(cfg.allocator)
    });

    // Sequential warm-up; record the exact initial membership.
    let set_cell: Mutex<Option<AnySet>> = Mutex::new(None);
    let init_cell: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    sim.run(1, |ctx| {
        let buckets = (KEY_RANGE * 2).next_power_of_two();
        let set = AnySet::new(cfg.structure, &stm, ctx, buckets);
        let mut th = stm.thread(0);
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut init = BTreeSet::new();
        while (init.len() as u64) < INITIAL_SIZE.min(KEY_RANGE) {
            let key = rng.gen_range(0..KEY_RANGE);
            if set.as_set().insert(&stm, ctx, &mut th, key) {
                init.insert(key);
            }
        }
        stm.retire(th);
        *init_cell.lock() = init;
        *set_cell.lock() = Some(set);
    });
    stm.reset_stats();

    // Parallel phase: every op's outcome goes into the per-thread log.
    let logs: Mutex<Vec<Vec<(SetOp, bool)>>> = Mutex::new(vec![Vec::new(); cfg.threads]);
    sim.run(cfg.threads, |ctx| {
        let set = set_cell.lock().unwrap(); // copy the handle out; drop the host lock
        let set = set.as_set();
        let tid = ctx.tid();
        let mut th = stm.thread(tid);
        let mut rng =
            SmallRng::seed_from_u64(SEED ^ (tid as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
        let mut log = Vec::with_capacity(OPS_PER_THREAD as usize);
        let mut pending_remove = None;
        for _ in 0..OPS_PER_THREAD {
            let key = rng.gen_range(0..KEY_RANGE);
            let op = if rng.gen_range(0..100) < UPDATE_PCT {
                match pending_remove.take() {
                    Some(k) => SetOp::Remove(k),
                    None => {
                        pending_remove = Some(key);
                        SetOp::Insert(key)
                    }
                }
            } else {
                SetOp::Contains(key)
            };
            let result = match op {
                SetOp::Insert(k) => set.insert(&stm, ctx, &mut th, k),
                SetOp::Remove(k) => set.remove(&stm, ctx, &mut th, k),
                SetOp::Contains(k) => set.contains(&stm, ctx, &mut th, k),
            };
            log.push((op, result));
        }
        stm.retire(th);
        logs.lock()[tid] = log;
    });
    let commits = stm.stats().commits;

    // Final sweep + structural invariants, outside the timed phases.
    let fin_cell: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    sim.run(1, |ctx| {
        let set = set_cell.lock().unwrap();
        set.check_invariants_raw(ctx);
        let mut th = stm.thread(0);
        let mut fin = BTreeSet::new();
        for key in 0..KEY_RANGE {
            if set.as_set().contains(&stm, ctx, &mut th, key) {
                fin.insert(key);
            }
        }
        stm.retire(th);
        *fin_cell.lock() = fin;
    });

    SynthObservation {
        init: init_cell.into_inner(),
        events: logs.into_inner(),
        fin: fin_cell.into_inner(),
        commits,
        heap_violations: auditor.expect("an audited stack").report().violation_count,
    }
}

/// Per-key operation tallies extracted from the logs.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyWitness {
    /// Successful inserts.
    pub si: u64,
    /// Failed inserts.
    pub fi: u64,
    /// Successful removes.
    pub sr: u64,
    /// Failed removes.
    pub fr: u64,
    /// Contains that returned true / false.
    pub ct: u64,
    /// Contains that returned false.
    pub cf: u64,
}

/// Serial-witness conditions for one key. `init`/`fin` are the key's
/// initial and final membership. Returns every violated condition; an
/// empty vector means some serial order of this key's operations exists.
pub fn witness_failures(key: u64, init: bool, fin: bool, w: &KeyWitness) -> Vec<String> {
    let mut out = Vec::new();
    let net = w.si as i64 - w.sr as i64;
    let expect_fin = init as i64 + net;
    if !(0..=1).contains(&expect_fin) || (expect_fin == 1) != fin {
        out.push(format!(
            "key {key}: final membership {fin} inconsistent with init={} si={} sr={}",
            init as u8, w.si, w.sr
        ));
    }
    let net_ok = if init {
        (-1..=0).contains(&net)
    } else {
        (0..=1).contains(&net)
    };
    if !net_ok {
        out.push(format!(
            "key {key}: successful inserts/removes cannot alternate (init={} si={} sr={})",
            init as u8, w.si, w.sr
        ));
    }
    if w.fi > 0 && !(init || w.si > 0) {
        out.push(format!(
            "key {key}: insert failed but key was never present"
        ));
    }
    if w.fr > 0 && init && w.sr == 0 {
        out.push(format!(
            "key {key}: remove failed but key was always present"
        ));
    }
    if w.ct > 0 && !(init || w.si > 0) {
        out.push(format!(
            "key {key}: contains saw a key that was never inserted"
        ));
    }
    if w.cf > 0 && init && w.sr == 0 {
        out.push(format!(
            "key {key}: contains missed a key that was never removed"
        ));
    }
    out
}

/// Validate a full observation: per-key serial witnesses for every key,
/// plus an exact `BTreeSet` replay when the run was single-threaded.
pub fn validate_synthetic(obs: &SynthObservation, key_range: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let mut tallies = vec![KeyWitness::default(); key_range as usize];
    for log in &obs.events {
        for &(op, result) in log {
            let w = &mut tallies[op.key() as usize];
            match (op, result) {
                (SetOp::Insert(_), true) => w.si += 1,
                (SetOp::Insert(_), false) => w.fi += 1,
                (SetOp::Remove(_), true) => w.sr += 1,
                (SetOp::Remove(_), false) => w.fr += 1,
                (SetOp::Contains(_), true) => w.ct += 1,
                (SetOp::Contains(_), false) => w.cf += 1,
            }
        }
    }
    for (key, w) in tallies.iter().enumerate() {
        let key = key as u64;
        failures.extend(witness_failures(
            key,
            obs.init.contains(&key),
            obs.fin.contains(&key),
            w,
        ));
    }
    // Single-threaded runs admit exactly one serial order: program order.
    if obs.events.len() == 1 {
        let mut model = obs.init.clone();
        for (i, &(op, result)) in obs.events[0].iter().enumerate() {
            let expect = match op {
                SetOp::Insert(k) => model.insert(k),
                SetOp::Remove(k) => model.remove(&k),
                SetOp::Contains(k) => model.contains(&k),
            };
            if expect != result {
                failures.push(format!(
                    "serial replay diverged at op {i}: {op:?} -> {result}"
                ));
            }
        }
        if model != obs.fin {
            failures.push("serial replay final state differs from swept state".into());
        }
    }
    failures
}

/// Run one synthetic cell and fold the verdict into a [`CheckCell`].
pub fn run_synth_cell(cfg: &SynthCheckConfig) -> CheckCell {
    let config = vec![
        kv("kind", "synth"),
        kv("structure", cfg.structure.name()),
        kv("alloc", cfg.allocator.name()),
        kv("threads", cfg.threads),
        kv("shift", SHIFT),
    ];
    let obs = match catch_unwind(AssertUnwindSafe(|| observe_synthetic(cfg))) {
        Ok(obs) => obs,
        Err(payload) => {
            return CheckCell {
                config,
                status: CheckStatus::Error,
                detail: Some(format!("panicked: {}", panic_message(payload.as_ref()))),
                checks: vec![],
            }
        }
    };
    let mut failures = validate_synthetic(&obs, KEY_RANGE);
    if obs.heap_violations > 0 {
        failures.push(format!("{} heap-invariant violations", obs.heap_violations));
    }
    let ops: u64 = obs.events.iter().map(|l| l.len() as u64).sum();
    let checks = vec![
        ("ops".into(), ops),
        ("keys".into(), KEY_RANGE),
        ("commits".into(), obs.commits),
        ("final_size".into(), obs.fin.len() as u64),
        ("heap_violations".into(), obs.heap_violations),
    ];
    cell_from(config, checks, failures)
}

/// The one STAMP differential: an audited `threads`-thread run of `app`
/// under `opts` is diffed against an audited one-thread run under
/// `reference_opts` (same app, seed in the options, scale and allocator)
/// through the app checksum, when the app defines one. The final logical
/// state is interleaving-independent, so a divergence is a correctness bug
/// in whatever the two option sets differ by; the labels name the two
/// sides in the evidence. The `verify()` assertions inside each app are
/// themselves oracle checks: a panic in either run is a correctness
/// failure, not a harness error.
pub fn stamp_diff_cell(
    config: Vec<(String, String)>,
    app: AppKind,
    allocator: AllocatorKind,
    threads: usize,
    scale: u64,
    (label, opts): (&str, StampOpts),
    (reference_label, reference_opts): (&str, StampOpts),
) -> CheckCell {
    diff_runs(config, threads, label, reference_label, |reference| {
        let (threads, opts) = if reference {
            (1, &reference_opts)
        } else {
            (threads, &opts)
        };
        run_kind(app, allocator, threads, opts, scale)
    })
}

/// The verdict of [`stamp_diff_cell`] over any pair of runs:
/// `run(false)` is the parallel side, `run(true)` the serial reference.
fn diff_runs(
    config: Vec<(String, String)>,
    threads: usize,
    label: &str,
    reference_label: &str,
    run: impl Fn(bool) -> StampResult,
) -> CheckCell {
    let attempt = |reference: bool, side: String| {
        catch_unwind(AssertUnwindSafe(|| run(reference)))
            .map_err(|p| format!("verify failed ({side}): {}", panic_message(p.as_ref())))
    };
    let runs = attempt(false, format!("{label} {threads} threads")).and_then(|par| {
        let reference = attempt(true, format!("{reference_label} reference"))?;
        Ok((par, reference))
    });
    let (par, reference) = match runs {
        Ok(runs) => runs,
        Err(why) => return cell_from(config, vec![], vec![why]),
    };
    let mut failures = Vec::new();
    match (par.checksum, reference.checksum) {
        (Some(p), Some(s)) if p != s => {
            failures.push(format!(
                "checksum diverged: {label} {p:#x} vs {reference_label} {s:#x}"
            ));
        }
        (Some(_), None) | (None, Some(_)) => {
            failures.push("checksum defined for one run but not the other".into());
        }
        _ => {}
    }
    let violations = par.heap_violations + reference.heap_violations;
    if violations > 0 {
        failures.push(format!("{violations} heap-invariant violations"));
    }
    let checks = vec![
        ("commits".into(), par.commits),
        ("aborts".into(), par.aborts),
        ("checksummed".into(), par.checksum.is_some() as u64),
        ("heap_violations".into(), violations),
    ];
    cell_from(config, checks, failures)
}

/// Every STAMP cell runs under the heap auditor.
fn audited(opts: StampOpts) -> StampOpts {
    StampOpts {
        audit_heap: true,
        ..opts
    }
}

/// Run one STAMP cell: N-thread audited run diffed against a one-thread
/// reference run through the app checksum (when the app defines one).
pub fn run_stamp_cell(
    kind: AppKind,
    allocator: AllocatorKind,
    threads: usize,
    scale: u64,
) -> CheckCell {
    let config = vec![
        kv("kind", "stamp"),
        kv("app", kind.name()),
        kv("alloc", allocator.name()),
        kv("threads", threads),
    ];
    let opts = audited(StampOpts::default());
    stamp_diff_cell(
        config,
        kind,
        allocator,
        threads,
        scale,
        ("parallel", opts.clone()),
        ("serial", opts),
    )
}

/// Cross-backend differential cell: an N-thread run under `backend` is
/// diffed against a fresh one-thread **ETL** reference of the same app,
/// seed, scale and allocator. Any divergence is a correctness bug in the
/// backend's conflict detection — NOrec's value validation and sim-HTM's
/// cache-set tracking are held to the same linearizable outcome the
/// ORT-based ETL produces.
pub fn run_backend_cell(
    backend: BackendKind,
    kind: AppKind,
    allocator: AllocatorKind,
    threads: usize,
    scale: u64,
) -> CheckCell {
    let config = vec![
        kv("kind", "backend-diff"),
        kv("backend", backend.name()),
        kv("app", kind.name()),
        kv("alloc", allocator.name()),
        kv("threads", threads),
    ];
    let under = |backend| {
        audited(StampOpts {
            backend,
            ..StampOpts::default()
        })
    };
    stamp_diff_cell(
        config,
        kind,
        allocator,
        threads,
        scale,
        (backend.name(), under(backend)),
        ("serial etl", under(BackendKind::Etl)),
    )
}

/// Cross-CM differential cell: an N-thread run under contention manager
/// `cm` is diffed against a fresh one-thread **SUICIDE** reference of the
/// same app, seed, scale and allocator. A CM only decides *when a doomed
/// transaction retries*, never *what commits*, so the final logical state
/// must be bit-identical to the baseline policy — any divergence means the
/// CM leaked into conflict detection (e.g. a serialization token that
/// failed to exclude, or an adaptive switch that corrupted per-thread
/// state mid-transaction).
pub fn run_cm_cell(
    cm: CmKind,
    kind: AppKind,
    allocator: AllocatorKind,
    threads: usize,
    scale: u64,
) -> CheckCell {
    let config = vec![
        kv("kind", "cm-diff"),
        kv("cm", cm.name()),
        kv("app", kind.name()),
        kv("alloc", allocator.name()),
        kv("threads", threads),
    ];
    let under = |cm| {
        audited(StampOpts {
            cm,
            ..StampOpts::default()
        })
    };
    stamp_diff_cell(
        config,
        kind,
        allocator,
        threads,
        scale,
        (cm.name(), under(cm)),
        ("serial suicide", under(CmKind::Suicide)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_accepts_legal_histories() {
        // init=0: insert, probe, remove, failed remove.
        let w = KeyWitness {
            si: 1,
            fi: 0,
            sr: 1,
            fr: 1,
            ct: 1,
            cf: 1,
        };
        assert!(witness_failures(3, false, false, &w).is_empty());
        // init=1: remove then re-insert, ending present.
        let w = KeyWitness {
            si: 1,
            sr: 1,
            ..KeyWitness::default()
        };
        assert!(witness_failures(4, true, true, &w).is_empty());
    }

    #[test]
    fn witness_catches_lost_update() {
        // Two successful inserts of the same absent key with no remove in
        // between: the signature of a lost update. No serial order exists.
        let w = KeyWitness {
            si: 2,
            ..KeyWitness::default()
        };
        let fails = witness_failures(7, false, true, &w);
        assert!(
            fails.iter().any(|f| f.contains("cannot alternate")),
            "{fails:?}"
        );
    }

    #[test]
    fn witness_catches_phantom_reads() {
        let w = KeyWitness {
            ct: 1,
            ..KeyWitness::default()
        };
        let fails = witness_failures(9, false, false, &w);
        assert!(
            fails.iter().any(|f| f.contains("never inserted")),
            "{fails:?}"
        );
        let w = KeyWitness {
            cf: 1,
            ..KeyWitness::default()
        };
        let fails = witness_failures(9, true, true, &w);
        assert!(
            fails.iter().any(|f| f.contains("never removed")),
            "{fails:?}"
        );
    }

    #[test]
    fn witness_catches_final_state_drift() {
        let w = KeyWitness::default();
        let fails = witness_failures(2, false, true, &w);
        assert!(
            fails.iter().any(|f| f.contains("final membership")),
            "{fails:?}"
        );
    }

    #[test]
    fn serial_run_matches_model_exactly() {
        for structure in StructureKind::ALL {
            let cfg = SynthCheckConfig::quick(structure, AllocatorKind::TcMalloc, 1);
            let obs = observe_synthetic(&cfg);
            let failures = validate_synthetic(&obs, KEY_RANGE);
            assert!(failures.is_empty(), "{structure:?}: {failures:?}");
        }
    }

    #[test]
    fn parallel_cells_pass_for_every_structure() {
        for structure in StructureKind::ALL {
            let cfg = SynthCheckConfig::quick(structure, AllocatorKind::Hoard, 4);
            let cell = run_synth_cell(&cfg);
            assert_eq!(cell.status, CheckStatus::Pass, "{:?}", cell.detail);
            let ops = cell.checks.iter().find(|(k, _)| k == "ops").unwrap().1;
            assert_eq!(ops, 4 * OPS_PER_THREAD);
        }
    }

    #[test]
    fn stamp_differential_fails_every_way_two_runs_can_disagree() {
        // One real outcome, bent per case: the verdict logic is the same
        // whichever option the two sides differ by.
        let opts = audited(StampOpts::default());
        let real = run_kind(AppKind::Genome, AllocatorKind::TbbMalloc, 1, &opts, 1);
        assert!(real.checksum.is_some() && real.heap_violations == 0);
        let diff = |run: &dyn Fn(bool) -> StampResult| {
            diff_runs(vec![kv("kind", "stub")], 4, "parallel", "serial", run)
        };

        let agree = diff(&|_| real.clone());
        assert_eq!(agree.status, CheckStatus::Pass, "{:?}", agree.detail);
        assert_eq!(agree.checks.len(), 4);

        for (panicking_side, names) in [(false, "parallel 4 threads"), (true, "serial reference")] {
            let cell = diff(&|reference| {
                assert!(reference != panicking_side, "verify: tree lost a node");
                real.clone()
            });
            assert_eq!(cell.status, CheckStatus::Fail);
            assert_eq!(
                cell.detail.unwrap(),
                format!("verify failed ({names}): verify: tree lost a node")
            );
            assert!(cell.checks.is_empty());
        }

        let bent = |checksum: fn(bool, u64) -> Option<u64>| {
            diff(&|reference| StampResult {
                checksum: checksum(reference, real.checksum.unwrap()),
                ..real.clone()
            })
        };
        let diverged = bent(|reference, sum| Some(sum ^ reference as u64));
        assert_eq!(diverged.status, CheckStatus::Fail);
        let detail = diverged.detail.unwrap();
        assert!(
            detail.starts_with("checksum diverged: parallel 0x")
                && detail.contains(" vs serial 0x"),
            "{detail}"
        );
        for one_sided in [
            bent(|reference, sum| reference.then_some(sum)),
            bent(|reference, sum| (!reference).then_some(sum)),
        ] {
            assert_eq!(one_sided.status, CheckStatus::Fail);
            assert_eq!(
                one_sided.detail.unwrap(),
                "checksum defined for one run but not the other"
            );
        }

        let audited_out = diff(&|reference| StampResult {
            heap_violations: reference as u64,
            ..real.clone()
        });
        assert_eq!(
            audited_out.detail.as_deref(),
            Some("1 heap-invariant violations")
        );
    }

    #[test]
    fn stamp_cell_diffs_genome_against_serial_reference() {
        let cell = run_stamp_cell(AppKind::Genome, AllocatorKind::TbbMalloc, 4, 1);
        assert_eq!(cell.status, CheckStatus::Pass, "{:?}", cell.detail);
        let summed = cell
            .checks
            .iter()
            .find(|(k, _)| k == "checksummed")
            .unwrap()
            .1;
        assert_eq!(summed, 1, "genome must define a checksum");
    }
}
