//! Checkpoint/restore prefix-tree execution for the schedule explorer.
//!
//! The from-scratch enumerator ([`crate::enumerate()`]) rebuilds the
//! entire world — simulator, allocator, STM, seeded heap — for every
//! delay vector, then re-executes the identical construction-and-seeding
//! prefix before the schedules diverge. This module executes that shared
//! prefix exactly once per `(program, config)` cell: a [`Session`] builds
//! the stack, seeds the heap, and captures a *root checkpoint* (simulator
//! snapshot with copy-on-write page sharing, allocator heap metadata, STM
//! host counters) at post-seeding quiescence; each schedule then runs as
//! three restores plus a fuel re-arm instead of a rebuild. Checkpoints
//! are taken only at quiescence — between [`tm_sim::Sim::run`] calls —
//! so no live fiber or thread stack ever needs capturing, which is what
//! keeps snapshots exact under both executor backends.
//!
//! On top of the session, [`explore`] layers *state-fingerprint dedup*:
//! after each clean run it compares the simulator's 64-bit execution
//! fingerprint ([`tm_sim::Sim::trace_hash`]) against earlier schedules.
//! When schedule `w` ends in the same fingerprint as an earlier schedule
//! `v` whose support ends no later than `w`'s, every *extension* of `w`
//! (same delays plus extra delayed points strictly to the right) behaves
//! like the corresponding — already enumerated — extension of `v`, so
//! `w`'s extension subtree is skipped and accounted in
//! [`EnumStats::deduped`]. This is an explicit approximation in the SPIN
//! hash-compaction tradition: a 64-bit fingerprint can collide, and the
//! fingerprint deliberately omits the clock flush of a thread that
//! blocks immediately after a scheduling point (that omission is what
//! lets absorbed delays be *detected*) and the final flush of a thread
//! that finishes (not a scheduler-ordered point). See DESIGN.md §14; the
//! from-scratch enumerator remains the oracle, and `tmstudy mc
//! --no-checkpoint` falls back to it wholesale. Rebuilding the world is
//! not expensive either — a simulated machine costs what its run touches
//! (DESIGN.md §4), so a from-scratch schedule takes about twice a restored
//! one — which is what lets the oracle run beside every reduction; it
//! stays the oracle because it shares none of the snapshot, journal and
//! dedup machinery it checks.

use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use tm_alloc::{Allocator as _, HeapSnapshot};
use tm_sim::{IntMap, Sim, SimSnapshot};
use tm_stm::{Stack, Stm, StmHostSnapshot, StmStats};

use crate::conflict;
use crate::enumerate::{binomial, pruned_count, EnumConfig, EnumStats};
use crate::program::{
    classify_panic, delay_table, install_hook, main_phase, run_schedule, seed_heap, DelayTable,
    McProgram, QuietPanics, RunConfig,
};

/// A reusable execution cell for one `(program, config)` pair: the
/// simulator, allocator, and STM are built and seeded once, and a root
/// checkpoint is captured at post-seeding quiescence. Every [`Session::run`]
/// rewinds to the root instead of rebuilding the world, with the same
/// verdict contract as [`run_schedule`]. It is the one checkpointed
/// session: the every-site OOM sweep ([`crate::oom::OomSession`]) is this
/// type over an audited fault-injecting stack.
pub struct Session {
    program: McProgram,
    stack: Stack,
    root_sim: SimSnapshot,
    root_heap: HeapSnapshot,
    root_stm: StmHostSnapshot,
    /// Fuel each run starts with: the configured budget minus what the
    /// seed phase consumed, matching the from-scratch runner (which arms
    /// the full budget *before* seeding).
    run_fuel: u64,
    restores: u64,
    /// The schedule the next run plays: the scheduling hook installed at
    /// construction reads it, [`Session::play`] fills it.
    delays: DelayTable,
}

impl Session {
    /// Build, seed, and checkpoint one cell. Returns `None` when the
    /// cell cannot be checkpointed — the allocator does not support heap
    /// snapshots, or the seed phase itself panicked (e.g. a tiny fuel
    /// budget with an allocating seed) — in which case callers fall back
    /// to the from-scratch [`run_schedule`].
    pub fn try_new(program: &McProgram, cfg: &RunConfig) -> Option<Session> {
        Session::over(program, cfg, cfg.stack())
    }

    /// [`Session::try_new`] over a stack the caller built (with `cfg.fuel`
    /// already armed): seed it and checkpoint it.
    pub(crate) fn over(program: &McProgram, cfg: &RunConfig, stack: Stack) -> Option<Session> {
        let _quiet = QuietPanics::enter();
        let seed = || seed_heap(program, &stack.sim, &stack.alloc);
        std::panic::catch_unwind(AssertUnwindSafe(seed)).ok()?;
        let root_heap = stack.alloc.snapshot()?;
        let root_sim = stack.sim.snapshot(None);
        let root_stm = stack.stm.snapshot_host();
        // A seed phase that survived left at least one event of budget
        // (exhausting it on the last event would have panicked).
        let run_fuel = cfg.fuel - root_sim.events();
        let delays = delay_table(&vec![0; program.points()]);
        install_hook(&stack.sim, program.base.txns as usize, Arc::clone(&delays));
        Some(Session {
            program: *program,
            stack,
            root_sim,
            root_heap,
            root_stm,
            run_fuel,
            restores: 0,
            delays,
        })
    }

    /// Execute one delay vector from the root checkpoint.
    pub fn run(&mut self, delays: &[u64]) -> Result<(), String> {
        self.rewind();
        self.play(delays, |_, _| {})
    }

    /// Restore the simulator, heap, and STM host state to the root and
    /// re-arm the fuel. Every run starts here, so a previous run that
    /// panicked (mutant exploration does, routinely) leaves no residue:
    /// the worker-panic protocol releases simulated locks and quiesces the
    /// run before propagating, and the restore rewinds whatever it touched.
    pub(crate) fn rewind(&mut self) {
        self.restores += 1;
        self.stack.sim.restore(&self.root_sim);
        self.stack.alloc.restore(&self.root_heap);
        self.stack.stm.restore_host(&self.root_stm);
        self.stack.sim.set_fuel(self.run_fuel);
    }

    /// The main phase under `delays` from wherever the machine stands,
    /// then `after` (the OOM sweep's quiescence drain) if every invariant
    /// held; a panic in either is classified as [`run_schedule`] does.
    pub(crate) fn play(
        &self,
        delays: &[u64],
        after: impl FnOnce(&Sim, &Stm),
    ) -> Result<(), String> {
        assert_eq!(delays.len(), self.program.points(), "schedule arity");
        for (slot, &delay) in self.delays.iter().zip(delays) {
            slot.store(delay, Relaxed);
        }
        let _quiet = QuietPanics::enter();
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            main_phase(&self.program, &self.stack.sim, &self.stack.stm)?;
            after(&self.stack.sim, &self.stack.stm);
            Ok(())
        }))
        .unwrap_or_else(|payload| Err(classify_panic(payload.as_ref())))
    }

    /// Scheduler events the root checkpoint encapsulates — the replay
    /// work every restore avoids re-executing.
    pub fn root_events(&self) -> u64 {
        self.root_sim.events()
    }

    /// Restores performed so far (one per [`Session::run`]).
    pub fn restores(&self) -> u64 {
        self.restores
    }

    /// The execution fingerprint after the last run, relative to the
    /// root checkpoint — identical to what the from-scratch runner's
    /// simulator would report after the same schedule.
    pub fn trace_hash(&self) -> u64 {
        self.stack.sim.trace_hash()
    }

    /// Merged STM statistics after the last run (host counters are
    /// rewound on every restore, so these are per-run, not cumulative).
    pub fn stats(&self) -> StmStats {
        self.stack.stm.stats()
    }
}

/// Throughput accounting for one sweep, for the `tm-mc-report/v1.1`
/// throughput block.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Throughput {
    /// Schedules executed per wall-clock second.
    pub schedules_per_sec: f64,
    /// Scheduler events restores avoided re-executing: the root
    /// checkpoint's event count times the number of restores.
    pub replay_steps_saved: u64,
    /// Checkpoints captured (one root per session; 0 when the sweep fell
    /// back to from-scratch execution).
    pub checkpoints_taken: u64,
}

/// Where a sweep's [`Throughput`] is measured from: its start, and the
/// restores its session had made before it (a cell's shrink runs on the
/// same session afterwards and is not the sweep's).
pub(crate) struct Meter {
    start: Instant,
    restores: u64,
}

impl Meter {
    pub(crate) fn start(session: Option<&Session>) -> Meter {
        Meter {
            start: Instant::now(),
            restores: session.map_or(0, Session::restores),
        }
    }

    /// The throughput of the `explored` schedules run since the start.
    pub(crate) fn read(&self, session: Option<&Session>, explored: u64) -> Throughput {
        let secs = self.start.elapsed().as_secs_f64().max(1e-9);
        Throughput {
            schedules_per_sec: explored as f64 / secs,
            replay_steps_saved: session
                .map_or(0, |s| s.root_events() * (s.restores() - self.restores)),
            checkpoints_taken: session.is_some() as u64,
        }
    }
}

/// Run one schedule on `session` (a restore and a run) or, without one,
/// from scratch.
pub(crate) fn run_on(
    session: Option<&mut Session>,
    program: &McProgram,
    cfg: &RunConfig,
    delays: &[u64],
) -> Result<(), String> {
    match session {
        Some(s) => s.run(delays),
        None => run_schedule(program, cfg, delays),
    }
}

/// Schedules in the extension subtree of a support ending at pool
/// position `last` with support size `k`: choose 1..=depth-k extra
/// positions strictly to the right, each with any of `m` magnitudes.
fn extension_count(pool: usize, last: usize, k: usize, depth: usize, m: usize) -> u64 {
    let avail = (pool - 1 - last) as u64;
    let mut total: u128 = 0;
    let mut mj: u128 = 1;
    for j in 1..=(depth - k) as u64 {
        mj = mj.saturating_mul(m as u128);
        total = total.saturating_add((binomial(avail, j) as u128).saturating_mul(mj));
    }
    total.min(u64::MAX as u128) as u64
}

/// Checkpointed counterpart of [`crate::enumerate()`]: same bounded
/// schedule space, same visit order, same verdicts — executed via a
/// [`Session`] restore per schedule instead of a rebuild, with
/// state-fingerprint dedup of extension subtrees. Falls back to the
/// from-scratch runner (and disables dedup) when the cell cannot be
/// checkpointed. `stats.explored` at a violation is still the 1-based
/// witness index among *executed* schedules.
pub fn explore(
    program: &McProgram,
    cfg: &RunConfig,
    ecfg: &EnumConfig,
) -> (EnumStats, Option<(Vec<u64>, String)>, Throughput) {
    walk(program, cfg, ecfg, Session::try_new(program, cfg).as_mut())
}

/// The one walker of the bounded schedule space: supports in order of
/// increasing size (iterative deepening), lexicographic combinations
/// over the support pool, mixed-radix magnitude assignments within each.
/// With a `session` every schedule is a restore-and-run and extension
/// subtrees are deduped by state fingerprint; without one every schedule
/// is a from-scratch [`run_schedule`] and nothing is deduped — which is
/// [`crate::enumerate()`], the oracle.
pub(crate) fn walk(
    program: &McProgram,
    cfg: &RunConfig,
    ecfg: &EnumConfig,
    mut session: Option<&mut Session>,
) -> (EnumStats, Option<(Vec<u64>, String)>, Throughput) {
    let _quiet = QuietPanics::enter();
    let meter = Meter::start(session.as_deref());
    let points = program.points();
    let support_pool: Vec<usize> = if ecfg.prune {
        conflict::active_points(program)
    } else {
        (0..points).collect()
    };
    let pool = support_pool.len();
    let m = ecfg.magnitudes.len();
    let mut stats = EnumStats {
        pruned: pruned_count(points as u64, pool as u64, ecfg.depth, m as u64),
        ..EnumStats::default()
    };

    // Fingerprint of each executed schedule → the smallest last-support
    // pool position seen with that fingerprint, and the (combo, assign)
    // prefixes whose extension subtrees are skipped. The zero schedule's
    // conceptual last position is -1: it precedes every support.
    let mut seen: IntMap<u64, i64> = IntMap::default();
    let mut skips: HashSet<Vec<(u32, u32)>> = HashSet::new();
    // The current schedule's (combo, assign) pairs, whose prefixes are
    // looked up in `skips`.
    let mut key: Vec<(u32, u32)> = Vec::with_capacity(ecfg.depth);

    let mut delays = vec![0u64; points];
    // Support size 0: the undisturbed schedule.
    stats.explored += 1;
    if let Err(detail) = run_on(session.as_deref_mut(), program, cfg, &delays) {
        let t = meter.read(session.as_deref(), stats.explored);
        return (stats, Some((delays, detail)), t);
    }
    if let Some(s) = &session {
        seen.insert(s.trace_hash(), -1);
    }

    for k in 1..=ecfg.depth.min(pool) {
        let mut combo: Vec<usize> = (0..k).collect();
        loop {
            let mut assign = vec![0usize; k];
            loop {
                key.clear();
                key.extend(
                    combo
                        .iter()
                        .zip(&assign)
                        .map(|(&c, &a)| (c as u32, a as u32)),
                );
                // A schedule whose (combo, assign) proper prefix was
                // deduped is an already-accounted extension: skip it
                // without running or recounting it.
                let skipped = !skips.is_empty() && (1..k).any(|j| skips.contains(&key[..j]));
                if !skipped {
                    if stats.explored >= ecfg.max_schedules {
                        stats.capped = true;
                        let t = meter.read(session.as_deref(), stats.explored);
                        return (stats, None, t);
                    }
                    for (slot, &mag_idx) in combo.iter().zip(assign.iter()) {
                        delays[support_pool[*slot]] = ecfg.magnitudes[mag_idx];
                    }
                    stats.explored += 1;
                    let r = run_on(session.as_deref_mut(), program, cfg, &delays);
                    if let Err(detail) = r {
                        let t = meter.read(session.as_deref(), stats.explored);
                        return (stats, Some((delays, detail)), t);
                    }
                    for slot in &combo {
                        delays[support_pool[*slot]] = 0;
                    }
                    if let Some(s) = &session {
                        let hash = s.trace_hash();
                        let last = combo[k - 1] as i64;
                        match seen.get(&hash).copied() {
                            // An earlier schedule with the same end state
                            // and a support ending no later: this
                            // schedule's extensions mirror that one's.
                            Some(prev) if prev <= last => {
                                skips.insert(key.clone());
                                stats.deduped +=
                                    extension_count(pool, combo[k - 1], k, ecfg.depth, m);
                            }
                            Some(prev) => {
                                seen.insert(hash, prev.min(last));
                            }
                            None => {
                                seen.insert(hash, last);
                            }
                        }
                    }
                }
                // Advance the magnitude counter.
                let mut i = 0;
                loop {
                    if i == k {
                        break;
                    }
                    assign[i] += 1;
                    if assign[i] < m {
                        break;
                    }
                    assign[i] = 0;
                    i += 1;
                }
                if i == k {
                    break;
                }
            }
            // Advance the combination; fall through to the next support
            // size when this one is exhausted.
            let mut advanced = false;
            let mut i = k;
            while i > 0 {
                i -= 1;
                if combo[i] < pool - (k - i) {
                    combo[i] += 1;
                    for j in i + 1..k {
                        combo[j] = combo[j - 1] + 1;
                    }
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
    }
    let t = meter.read(session.as_deref(), stats.explored);
    (stats, None, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{
        explore_check_cell, run_mutant_cell_opt, MutantRecipe, Strategy, SweepWork,
    };
    use crate::enumerate::{enumerate, space_size};
    use crate::program::ProgramKind;
    use tm_check::TransferProgram;
    use tm_obs::McVerdict;
    use tm_stm::InjectedBug;

    fn small() -> McProgram {
        McProgram {
            base: TransferProgram {
                threads: 3,
                cells: 2,
                txns: 2,
                ..TransferProgram::default()
            },
            kind: ProgramKind::Transfer,
        }
    }

    #[test]
    fn session_matches_oracle_per_schedule_and_is_stable() {
        let p = small();
        let cfg = RunConfig::clean();
        let mut s = Session::try_new(&p, &cfg).expect("tbb supports heap snapshots");
        let schedules: Vec<Vec<u64>> = vec![
            vec![0; p.points()],
            (0..p.points() as u64).map(|i| (i * 37) % 400).collect(),
            (0..p.points() as u64).map(|i| (i % 3) * 800).collect(),
        ];
        let mut hashes = Vec::new();
        for d in &schedules {
            assert_eq!(s.run(d), run_schedule(&p, &cfg, d), "{d:?}");
            hashes.push(s.trace_hash());
        }
        // Restores actually rewind: re-running each schedule reproduces
        // its fingerprint exactly.
        for (d, h) in schedules.iter().zip(&hashes) {
            assert_eq!(s.run(d), Ok(()));
            assert_eq!(s.trace_hash(), *h, "fingerprint drifted for {d:?}");
        }
        assert_eq!(s.restores(), 2 * schedules.len() as u64);
    }

    #[test]
    fn session_survives_a_failing_run() {
        // TxAllocEarlyFree corrupts the STM object cache's free list on
        // every schedule. In debug builds the corruption trips an arithmetic
        // check inside the allocator (an unwind through the whole stack); in
        // release it surfaces as a conservation violation. Either way the
        // run errs exactly like the oracle, and the session must come back
        // byte-identical: the next run matches both a fresh session and the
        // from-scratch oracle.
        let p = McProgram {
            base: TransferProgram::default(),
            kind: ProgramKind::AllocSwap,
        };
        let cfg = RunConfig {
            bug: tm_stm::InjectedBug::TxAllocEarlyFree,
            ..RunConfig::clean()
        };
        let zero = vec![0u64; p.points()];
        let next: Vec<u64> = (0..p.points() as u64).map(|i| (i % 2) * 400).collect();

        let mut survivor = Session::try_new(&p, &cfg).unwrap();
        let r0 = survivor.run(&zero);
        assert!(r0.is_err(), "mutant must be caught, got {r0:?}");
        #[cfg(debug_assertions)]
        assert!(
            r0.as_ref().is_err_and(|e| e.starts_with("panic:")),
            "expected an allocator panic, got {r0:?}"
        );
        assert_eq!(run_schedule(&p, &cfg, &zero), r0, "oracle disagrees");
        let r1 = survivor.run(&next);
        let h1 = survivor.trace_hash();

        let mut fresh = Session::try_new(&p, &cfg).unwrap();
        assert_eq!(fresh.run(&next), r1, "post-failure verdict drifted");
        assert_eq!(fresh.trace_hash(), h1, "post-failure fingerprint drifted");
        assert_eq!(run_schedule(&p, &cfg, &next), r1, "oracle disagrees");
    }

    #[test]
    fn session_classifies_livelock_like_the_oracle() {
        let p = small();
        let cfg = RunConfig {
            fuel: 50,
            ..RunConfig::clean()
        };
        let zero = vec![0u64; p.points()];
        let mut s = Session::try_new(&p, &cfg).unwrap();
        let r = s.run(&zero);
        assert!(
            r.as_ref().is_err_and(|e| e.starts_with("livelock:")),
            "{r:?}"
        );
        assert_eq!(r, run_schedule(&p, &cfg, &zero));
        // Fuel exhaustion unwinds through the workers in every build
        // profile, so this doubles as the panic-recovery test: the session
        // must restore cleanly and reproduce the same livelock again.
        let h = s.trace_hash();
        assert_eq!(s.run(&zero), r, "post-panic verdict drifted");
        assert_eq!(s.trace_hash(), h, "post-panic fingerprint drifted");
    }

    #[test]
    fn explore_matches_enumerate_and_accounts_the_space() {
        let p = small();
        let ecfg = EnumConfig {
            depth: 2,
            magnitudes: vec![200, 400],
            ..EnumConfig::default()
        };
        let cfg = RunConfig::clean();
        let (estats, efound) = enumerate(&p, &cfg, &ecfg);
        let (xstats, xfound, t) = explore(&p, &cfg, &ecfg);
        assert!(efound.is_none() && xfound.is_none());
        assert_eq!(xstats.pruned, estats.pruned);
        assert!(!xstats.capped);
        assert_eq!(
            xstats.explored + xstats.pruned + xstats.deduped,
            space_size(p.points() as u64, ecfg.depth, ecfg.magnitudes.len())
        );
        // Whatever dedup skipped, the executed set plus the skipped set
        // covers exactly what the oracle executed.
        assert_eq!(xstats.explored + xstats.deduped, estats.explored);
        assert_eq!(t.checkpoints_taken, 1);
        // Transfer programs seed via direct state writes (no scheduler
        // events), so the root checkpoint saves no replay steps.
        assert_eq!(t.replay_steps_saved, 0);
        assert!(t.schedules_per_sec > 0.0);
    }

    /// Sweep `base` with [`Strategy::Random`] (delays below 400 cycles)
    /// under `bug`: schedules run, and the first violation if any.
    fn random_sweep(
        base: TransferProgram,
        bug: InjectedBug,
        cases: u64,
        seed: u64,
    ) -> (u64, Option<(Vec<u64>, String)>) {
        let program = McProgram {
            base,
            kind: ProgramKind::Transfer,
        };
        let run = RunConfig {
            bug,
            ..RunConfig::clean()
        };
        let strategy = Strategy::Random {
            cases,
            max_delay: 400,
            seed,
        };
        let mut session = Session::try_new(&program, &run);
        let work = &mut SweepWork::default();
        let (stats, found) = strategy.sweep(&program, &run, session.as_mut(), work);
        (stats.explored, found)
    }

    #[test]
    fn correct_stm_conserves_under_exploration() {
        let (ran, found) = random_sweep(TransferProgram::default(), InjectedBug::None, 12, 0x51ee7);
        assert_eq!(ran, 12);
        assert!(found.is_none(), "{found:?}");
    }

    #[test]
    fn skipped_write_validation_is_caught_and_shrunk() {
        let bug = InjectedBug::SkipWriteValidation;
        let recipe = MutantRecipe {
            bug,
            program: McProgram {
                base: TransferProgram::default(),
                kind: ProgramKind::Transfer,
            },
            run: RunConfig {
                bug,
                ..RunConfig::clean()
            },
            strategy: Strategy::Random {
                cases: 64,
                max_delay: 400,
                seed: 0x51ee7,
            },
        };
        let cell = run_mutant_cell_opt(&recipe, true, &mut SweepWork::default());
        // Lost updates must surface within the schedule budget.
        assert_eq!(cell.verdict, McVerdict::Caught, "{:?}", cell.counterexample);
        assert!(cell.explored <= 64);
        let cx = cell.counterexample.unwrap();
        // Deterministic replay of the minimal schedule on the mutant.
        let replay = run_schedule(&recipe.program, &recipe.run, &cx.schedule);
        assert_eq!(replay, Err(cx.detail.clone()));
        assert!(cx.detail.starts_with("conservation violated"), "{cx:?}");
        // Shrinking actually ran and produced something no heavier than a
        // raw random schedule could be.
        assert!(cx.shrink_steps > 0, "no shrink performed");
        assert!(
            cx.schedule.iter().sum::<u64>() < recipe.program.points() as u64 * 400,
            "shrunk schedule should not be maximal"
        );
        // The same schedule on a correct STM conserves: the failure is the
        // bug's, not the harness's.
        assert_eq!(
            run_schedule(&recipe.program, &RunConfig::clean(), &cx.schedule),
            Ok(())
        );
    }

    #[test]
    fn empty_schedule_program_explores_cleanly() {
        // txns = 0 ⇒ zero scheduling points ⇒ the only schedule is the
        // empty delay vector; the runner, the sampler and the shrinker's
        // strategy must cope.
        let base = TransferProgram {
            txns: 0,
            ..TransferProgram::default()
        };
        let program = McProgram {
            base,
            kind: ProgramKind::Transfer,
        };
        assert_eq!(program.points(), 0);
        assert_eq!(run_schedule(&program, &RunConfig::clean(), &[]), Ok(()));
        let (ran, found) = random_sweep(base, InjectedBug::None, 8, 0x1);
        assert_eq!(ran, 8);
        assert!(found.is_none(), "{found:?}");
    }

    #[test]
    fn single_thread_program_explores_cleanly() {
        // One thread cannot race with itself even with a seeded bug: the
        // explorer must report no violation, not a spurious one.
        let base = TransferProgram {
            threads: 1,
            ..TransferProgram::default()
        };
        let (ran, found) = random_sweep(base, InjectedBug::SkipWriteValidation, 16, 0x2);
        assert_eq!(ran, 16);
        assert!(found.is_none(), "{found:?}");
    }

    #[test]
    fn zero_budget_explores_nothing() {
        let bug = InjectedBug::SkipWriteValidation;
        let (ran, found) = random_sweep(TransferProgram::default(), bug, 0, 0x3);
        assert_eq!(ran, 0, "a zero budget must explore zero schedules");
        assert!(found.is_none(), "{found:?}");
    }

    #[test]
    fn self_test_cells_classify_both_ways() {
        use tm_obs::CheckStatus;
        let clean = explore_check_cell(InjectedBug::None, 6, 0xabc);
        assert_eq!(clean.status, CheckStatus::Pass, "{:?}", clean.detail);
        assert_eq!(clean.checks, [("schedules".to_string(), 6)]);
        let seeded = explore_check_cell(InjectedBug::SkipWriteValidation, 64, 0xabc);
        assert_eq!(seeded.status, CheckStatus::Pass, "{:?}", seeded.detail);
        assert!(seeded.detail.unwrap().contains("caught at case"));
        // The other way: the same rows fail when the verdict is not the
        // expected one — a seeded bug with no budget to find it escapes.
        let escaped = explore_check_cell(InjectedBug::SkipWriteValidation, 0, 0xabc);
        assert_eq!(escaped.status, CheckStatus::Fail);
        assert_eq!(escaped.detail.as_deref(), Some("explore verdict escaped"));
    }

    #[test]
    fn extension_counts() {
        // pool=4, last position 1, k=1, depth=3, m=2:
        // j=1 → C(2,1)·2 = 4; j=2 → C(2,2)·4 = 4.
        assert_eq!(extension_count(4, 1, 1, 3, 2), 8);
        // Nothing to the right → no extensions.
        assert_eq!(extension_count(4, 3, 1, 3, 2), 0);
        // depth == k → no room for extensions.
        assert_eq!(extension_count(4, 0, 2, 2, 2), 0);
    }
}
