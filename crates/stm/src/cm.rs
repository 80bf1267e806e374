//! Contention management: the policy deciding how a transaction reacts to
//! its own abort, made pluggable the same way [`crate::backend`] made the
//! concurrency-control protocol pluggable.
//!
//! The paper fixes TinySTM's contention manager to SUICIDE (abort self,
//! restart immediately) for every experiment, so all of its
//! allocator-induced pathologies are measured under exactly one reaction
//! policy. This module reproduces the classical alternatives surveyed by
//! Pasqualin et al. (arXiv:2206.01359) on top of the shared restart loop in
//! [`Stm::txn`](crate::Stm::txn):
//!
//! * [`CmKind::Suicide`] — restart with the deterministic randomized
//!   bounded-exponential pause the simulator has always used (the default;
//!   byte-identical to the pre-CM behaviour).
//! * [`CmKind::BackoffExp`] — the same randomized pause with an 8× wider
//!   base window and a deeper exponent cap; trades latency for a sharply
//!   lower reconflict probability.
//! * [`CmKind::Karma`] — priority accrues with the work a transaction has
//!   invested (its read+write footprint, accumulated across aborted
//!   attempts); high-karma transactions retry almost immediately, low-karma
//!   ones yield.
//! * [`CmKind::Timestamp`] — seniority by virtual-time age: the longer a
//!   transaction has been trying (since its first attempt), the shorter its
//!   pause, so old transactions eventually win over young ones.
//! * [`CmKind::Serialize`] — after a few consecutive aborts the transaction
//!   grabs a global serialization token (a CAS word in *simulated* memory)
//!   and holds it until commit, mimicking the serial-irrevocable escape
//!   hatch that dominates HTM policy outcomes in Dice et al.
//!   (arXiv:1504.04640).
//! * [`CmKind::Adaptive`] — a per-thread controller that watches abort-rate
//!   windows and walks the escalation ladder Suicide → BackoffExp → Karma →
//!   Serialize (and back down when contention subsides). All of its inputs
//!   are per-thread deterministic quantities (own stats deltas, virtual
//!   time), so its switch points are bit-identical across runs and across
//!   the fibers/threads executors.
//!
//! Dispatch mirrors `backend.rs`: the retry loop calls the three hooks
//! below, each a match on the thread's active static policy (the
//! configured one, or where the adaptive controller stands), and
//! [`CmKind::Suicide`] does no CM bookkeeping at all, so every artifact
//! produced under the default configuration stays byte-identical.

use tm_sim::Ctx;

use crate::stats::{AbortCause, StmStats};
use crate::tx::TxThread;
use crate::Stm;

/// Which contention-management policy reacts to aborts (see the module
/// docs for the policy zoo). Selected by
/// [`StmConfig::cm`](crate::StmConfig::cm); the CLI token is `--cm`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CmKind {
    /// TinySTM's SUICIDE: restart with the deterministic randomized
    /// bounded-exponential pause (the paper's configuration, the default).
    #[default]
    Suicide = 0,
    /// Wider randomized exponential backoff (8× base window, deeper cap).
    BackoffExp = 1,
    /// Footprint-accrued priority: invested work shortens the pause.
    Karma = 2,
    /// Virtual-time seniority: transaction age shortens the pause.
    Timestamp = 3,
    /// Global serialization token after repeated aborts.
    Serialize = 4,
    /// Per-thread adaptive controller over the static policies above.
    Adaptive = 5,
}

impl CmKind {
    /// Number of variants (sizes the per-policy stat arrays).
    pub const COUNT: usize = 6;

    /// All variants, in escalation order (`Adaptive` last).
    pub const ALL: [CmKind; CmKind::COUNT] = [
        CmKind::Suicide,
        CmKind::BackoffExp,
        CmKind::Karma,
        CmKind::Timestamp,
        CmKind::Serialize,
        CmKind::Adaptive,
    ];

    /// The static (non-adaptive) policies, in escalation order.
    pub const STATIC: [CmKind; 5] = [
        CmKind::Suicide,
        CmKind::BackoffExp,
        CmKind::Karma,
        CmKind::Timestamp,
        CmKind::Serialize,
    ];

    /// Stable lower-case CLI/report token.
    pub fn name(self) -> &'static str {
        match self {
            CmKind::Suicide => "suicide",
            CmKind::BackoffExp => "backoff",
            CmKind::Karma => "karma",
            CmKind::Timestamp => "timestamp",
            CmKind::Serialize => "serialize",
            CmKind::Adaptive => "adaptive",
        }
    }

    /// How many consecutive [`AbortCause::AllocFailed`] aborts the policy
    /// absorbs before [`Stm::try_txn`](crate::Stm::try_txn) stops retrying
    /// and propagates the allocator's error to the caller. Patient
    /// policies (wide backoff, the adaptive controller) wait longer for a
    /// transient exhaustion to clear — another transaction's commit or
    /// quiescent reclamation may free memory between attempts — while
    /// immediate-restart policies give up quickly: retrying without a
    /// pause cannot change the allocator's answer.
    pub fn alloc_retry_budget(self) -> u32 {
        match self {
            CmKind::Suicide | CmKind::Serialize => 2,
            CmKind::Karma | CmKind::Timestamp => 4,
            CmKind::BackoffExp | CmKind::Adaptive => 8,
        }
    }

    /// Whether this configuration can reach [`CmKind::Serialize`] and thus
    /// needs the global token word allocated in simulated memory.
    pub(crate) fn needs_token(self) -> bool {
        matches!(self, CmKind::Serialize | CmKind::Adaptive)
    }

    /// The policy the thread starts under (`Adaptive` starts at the bottom
    /// of the escalation ladder).
    pub(crate) fn initial_policy(self) -> CmKind {
        match self {
            CmKind::Adaptive => CmKind::Suicide,
            k => k,
        }
    }
}

/// One policy switch taken by the adaptive controller, recorded per thread
/// so determinism tests can compare switch points bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CmSwitch {
    /// Index of the abort-rate window whose boundary triggered the switch.
    pub window: u32,
    /// Virtual time of the committing/aborting event that closed the
    /// window.
    pub at: u64,
    /// Policy before the switch.
    pub from: CmKind,
    /// Policy after the switch.
    pub to: CmKind,
}

/// Contention-management statistics: which policy each transaction attempt
/// retired under, plus the adaptive controller's activity. Kept separate
/// from [`StmStats`], and all-zero under the default [`CmKind::Suicide`]
/// configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmStats {
    /// Commits indexed by the policy active when the attempt committed.
    pub commits_under: [u64; CmKind::COUNT],
    /// Aborts indexed by the policy active when the attempt aborted.
    pub aborts_under: [u64; CmKind::COUNT],
    /// Policy switches taken by the adaptive controller.
    pub switches: u64,
    /// Adaptive windows whose aborts were dominated by ownership-table
    /// causes (read/write-locked, read-race) — the aliasing signature for
    /// which a NOrec backend (no ORT) would be the better fit. Surfaced as
    /// a recommendation; the controller does not switch backends mid-run,
    /// since ETL and NOrec metadata cannot coexist on live data.
    pub norec_hints: u64,
}

impl CmStats {
    /// Total attempts (commits + aborts) across every policy.
    pub fn attempts(&self) -> u64 {
        self.commits_under.iter().sum::<u64>() + self.aborts_under.iter().sum::<u64>()
    }

    /// The policy with the most commits (ties resolve to the first in
    /// escalation order) — "where the controller converged".
    pub fn dominant_policy(&self) -> CmKind {
        let mut best = CmKind::Suicide;
        let mut best_n = 0u64;
        for k in CmKind::ALL {
            let n = self.commits_under[k as usize];
            if n > best_n {
                best = k;
                best_n = n;
            }
        }
        best
    }

    /// Accumulate another thread's tally (all counters are additive).
    pub fn merge(&mut self, o: &CmStats) {
        for i in 0..CmKind::COUNT {
            self.commits_under[i] += o.commits_under[i];
            self.aborts_under[i] += o.aborts_under[i];
        }
        self.switches += o.switches;
        self.norec_hints += o.norec_hints;
    }
}

// --- the three hooks ------------------------------------------------------
//
// Called from the retry loop in `Stm::txn_inner`. All simulated work a
// policy performs (pauses, token CASes) goes through `ctx`, so policies
// stay deterministic in virtual time. `th.cm_active` is always a static
// policy: the configured one, or the adaptive controller's current rung.

/// First hook of `Stm::txn`, before the first attempt: Timestamp dates the
/// transaction.
#[inline]
pub(crate) fn txn_start(th: &mut TxThread, ctx: &mut Ctx<'_>) {
    if th.cm_active == CmKind::Timestamp {
        th.cm_start = ctx.now();
    }
}

/// Post-rollback hook: pause (or serialize) before the retry, then close
/// the adaptive controller's window if it is full.
#[inline]
pub(crate) fn after_abort(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
    if stm.cfg.cm != CmKind::Suicide {
        th.cm_stats.aborts_under[th.cm_active as usize] += 1;
    }
    pause(stm, th, ctx);
    if stm.cfg.cm == CmKind::Adaptive {
        th.window_aborts += 1;
        rotate(th, ctx);
    }
}

/// Post-commit hook: release any serialization token, reset karma, retire
/// window accounting.
#[inline]
pub(crate) fn after_commit(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
    if stm.cfg.cm == CmKind::Suicide {
        return;
    }
    th.cm_stats.commits_under[th.cm_active as usize] += 1;
    release_token(stm, th, ctx);
    if th.cm_active == CmKind::Karma {
        th.karma = 0;
    }
    if stm.cfg.cm == CmKind::Adaptive {
        th.window_commits += 1;
        rotate(th, ctx);
    }
}

/// Final hook when `Stm::try_txn` gives up on a persistently failing
/// allocation: account the abort to the active policy and release the
/// serialization token if this thread escalated into holding it (the
/// normal release point, `after_commit`, is never reached on this path).
#[inline]
pub(crate) fn propagate_alloc_failure(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
    if stm.cfg.cm == CmKind::Suicide {
        return;
    }
    th.cm_stats.aborts_under[th.cm_active as usize] += 1;
    release_token(stm, th, ctx);
}

/// Give the serialization token back if this thread holds it. Policy-
/// independent: it must also run when the adaptive controller left
/// Serialize while the token was held.
fn release_token(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
    if th.holds_token {
        if stm.cfg.bug != crate::InjectedBug::SerializeTokenLeak {
            // BUG (injected) when skipped: the token word stays claimed
            // forever, so every later serialization attempt livelocks.
            ctx.write_u64(stm.serialize_token, 0);
        }
        th.holds_token = false;
    }
}

/// Consecutive aborts before [`CmKind::Serialize`] reaches for the global
/// token.
const SERIALIZE_AFTER: u32 = 4;

/// The active static policy's reaction to an abort; every policy first
/// counts the retry.
///
/// * Suicide — the paper's policy: the deterministic randomized
///   bounded-exponential pause of [`TxThread::backoff_cycles`].
/// * BackoffExp — the same randomized pause with an 8× wider base window
///   and a deeper exponent cap.
/// * Karma — priority accrues with the footprint invested across aborted
///   attempts of the same transaction (reset at commit); each doubling of
///   invested work halves the Suicide pause, down to 1/64 of it.
/// * Timestamp — seniority by virtual-time age since the first attempt, in
///   4096-cycle units; each doubling of age halves the pause, so older
///   transactions drain first.
/// * Serialize — after [`SERIALIZE_AFTER`] consecutive aborts, acquire the
///   global serialization token (a CAS word in simulated memory, so the
///   acquisition is costed and deterministic) and hold it to commit;
///   before that, the Suicide pause. Unserialized threads are unaffected.
fn pause(stm: &Stm, th: &mut TxThread, ctx: &mut Ctx<'_>) {
    th.retries = th.retries.saturating_add(1);
    let cycles = match th.cm_active {
        CmKind::Suicide => th.backoff_cycles(),
        CmKind::BackoffExp => th.backoff_rand() % (256u64 << th.retries.min(12)),
        CmKind::Karma => {
            let (reads, writes) = th.footprint();
            th.karma = th.karma.saturating_add(reads + writes + 1);
            let shrink = (64 - th.karma.leading_zeros()).min(6);
            th.backoff_cycles() >> shrink
        }
        CmKind::Timestamp => {
            let age = ctx.now().saturating_sub(th.cm_start) / 4096;
            let shrink = (64 - age.leading_zeros()).min(6);
            th.backoff_cycles() >> shrink
        }
        CmKind::Serialize if th.retries >= SERIALIZE_AFTER && !th.holds_token => {
            ctx.cas_u64_spin(stm.serialize_token, 0, th.tid as u64 + 1, 64);
            th.holds_token = true;
            return;
        }
        CmKind::Serialize => th.backoff_cycles(),
        CmKind::Adaptive => unreachable!("the active policy is a static one"),
    };
    ctx.tick(cycles);
}

// --- the adaptive controller ---------------------------------------------

/// Attempts (commits + aborts) per abort-rate window.
const WINDOW: u32 = 64;
/// Escalate when more than 3/8 of a window's attempts aborted.
const ESCALATE_NUM: u32 = 3;
const ESCALATE_DEN: u32 = 8;
/// De-escalate when fewer than 1/16 aborted.
const DEESCALATE_DEN: u32 = 16;
/// The escalation ladder (indices into [`CmKind::STATIC`] minus
/// Timestamp, which targets long-transaction starvation rather than raw
/// abort pressure and is reachable only by configuring it statically).
const LADDER: [CmKind; 4] = [
    CmKind::Suicide,
    CmKind::BackoffExp,
    CmKind::Karma,
    CmKind::Serialize,
];

/// Adaptive: the hooks run the currently active static policy, and at
/// every window boundary this walks the [`LADDER`] up (abort rate above
/// 3/8) or down (below 1/16). Every input is per-thread and virtual-time
/// deterministic — own window counters, own stats deltas — so switch points
/// replay bit-identically across runs and executors.
fn rotate(th: &mut TxThread, ctx: &mut Ctx<'_>) {
    let total = th.window_commits + th.window_aborts;
    if total < WINDOW {
        return;
    }
    // ORT-aliasing signature of the closing window: aborts whose cause is a
    // stripe lock or the two-probe read race. A NOrec backend has no ORT and
    // none of these causes; record the hint.
    let delta = |s: &StmStats, cause: AbortCause| s.by_cause[cause as usize];
    let ort_now = delta(&th.stats, AbortCause::ReadLocked)
        + delta(&th.stats, AbortCause::WriteLocked)
        + delta(&th.stats, AbortCause::ReadRace);
    let ort_base = delta(&th.window_base, AbortCause::ReadLocked)
        + delta(&th.window_base, AbortCause::WriteLocked)
        + delta(&th.window_base, AbortCause::ReadRace);
    let ort_aborts = ort_now - ort_base;
    if ort_aborts * 2 > th.window_aborts as u64 {
        th.cm_stats.norec_hints += 1;
    }
    let pos = LADDER.iter().position(|&k| k == th.cm_active).unwrap_or(0);
    let next = if th.window_aborts * ESCALATE_DEN > total * ESCALATE_NUM {
        LADDER[(pos + 1).min(LADDER.len() - 1)]
    } else if th.window_aborts * DEESCALATE_DEN < total {
        LADDER[pos.saturating_sub(1)]
    } else {
        th.cm_active
    };
    if next != th.cm_active {
        th.cm_stats.switches += 1;
        th.switch_log.push(CmSwitch {
            window: th.windows,
            at: ctx.now(),
            from: th.cm_active,
            to: next,
        });
        th.cm_active = next;
    }
    th.windows += 1;
    th.window_commits = 0;
    th.window_aborts = 0;
    th.window_base = th.stats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stm, StmConfig};
    use tm_alloc::AllocatorKind;
    use tm_sim::{MachineConfig, Sim};

    fn setup(cm: CmKind) -> (Sim, Stm) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let alloc = AllocatorKind::TbbMalloc.build(&sim);
        let stm = Stm::new(
            &sim,
            alloc,
            StmConfig {
                cm,
                ..StmConfig::default()
            },
        );
        (sim, stm)
    }

    /// Hammer one shared counter; whatever the CM does, the result must be
    /// exact and every attempt accounted for.
    fn run_counter(cm: CmKind, threads: usize, iters: u64) -> Stm {
        let (sim, stm) = setup(cm);
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
        assert_eq!(stm.stats().commits, total);
        stm
    }

    #[test]
    fn every_policy_keeps_the_counter_exact() {
        for cm in CmKind::ALL {
            let stm = run_counter(cm, 8, 40);
            if cm != CmKind::Suicide {
                let s = stm.cm_stats();
                assert_eq!(
                    s.commits_under.iter().sum::<u64>(),
                    320,
                    "{cm:?}: every commit is attributed to a policy"
                );
            }
        }
    }

    #[test]
    fn suicide_tallies_stay_zero() {
        // The byte-identity contract: the default configuration performs
        // no CM bookkeeping at all.
        let stm = run_counter(CmKind::Suicide, 8, 40);
        assert_eq!(stm.cm_stats().attempts(), 0);
        assert!(stm.cm_switches().is_empty());
    }

    #[test]
    fn backoff_trades_time_for_fewer_aborts() {
        let suicide = run_counter(CmKind::Suicide, 8, 40);
        let backoff = run_counter(CmKind::BackoffExp, 8, 40);
        assert!(
            backoff.stats().aborts() < suicide.stats().aborts(),
            "wider backoff must reconflict less ({} vs {})",
            backoff.stats().aborts(),
            suicide.stats().aborts()
        );
    }

    #[test]
    fn serialize_token_caps_consecutive_aborts() {
        let stm = run_counter(CmKind::Serialize, 8, 40);
        let s = stm.cm_stats();
        assert_eq!(s.commits_under[CmKind::Serialize as usize], 320);
        assert!(stm.serialize_token != 0, "token word must be allocated");
    }

    #[test]
    fn token_is_released_at_commit() {
        let (sim, stm) = setup(CmKind::Serialize);
        let addr = 0x5000_0000u64;
        sim.run(8, |ctx| {
            let mut th = stm.thread(ctx.tid());
            for _ in 0..30 {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    ctx.tick(50);
                    tx.write(ctx, addr, v + 1)
                });
            }
            assert!(!th.holds_token, "token must not outlive a transaction");
            stm.retire(th);
        });
        sim.with_state(|m| assert_eq!(m.read_u64(stm.serialize_token), 0));
    }

    #[test]
    fn adaptive_escalates_under_contention_and_replays_identically() {
        let run = || {
            let (sim, stm) = setup(CmKind::Adaptive);
            let addr = 0x5000_0000u64;
            sim.run(8, |ctx| {
                let mut th = stm.thread(ctx.tid());
                for _ in 0..120 {
                    stm.txn(ctx, &mut th, |tx, ctx| {
                        let v = tx.read(ctx, addr)?;
                        ctx.tick(60);
                        tx.write(ctx, addr, v + 1)
                    });
                }
                stm.retire(th);
            });
            (stm.cm_switches(), stm.cm_stats())
        };
        let (switches, stats) = run();
        assert!(
            stats.switches > 0,
            "8 threads on one hot counter must push the controller off Suicide"
        );
        assert_eq!(switches.len() as u64, stats.switches);
        // Determinism: the exact same switch transcript on a second run.
        let (again, _) = run();
        assert_eq!(switches, again);
    }

    #[test]
    fn adaptive_stays_quiet_without_contention() {
        let (sim, stm) = setup(CmKind::Adaptive);
        sim.run(4, |ctx| {
            let addr = 0x6000_0000u64 + ctx.tid() as u64 * 4096;
            let mut th = stm.thread(ctx.tid());
            for _ in 0..100 {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let v = tx.read(ctx, addr)?;
                    tx.write(ctx, addr, v + 1)
                });
            }
            stm.retire(th);
        });
        let s = stm.cm_stats();
        assert_eq!(s.switches, 0, "disjoint workloads must stay on Suicide");
        assert_eq!(s.commits_under[CmKind::Suicide as usize], 400);
    }

    #[test]
    fn kind_tokens_round_trip() {
        let parse = |s| tm_obs::spec::one_of("--cm", &CmKind::ALL, |k| k.name(), s);
        for k in CmKind::ALL {
            assert_eq!(parse(k.name()), Ok(&k));
        }
        let valid = "suicide, backoff, karma, timestamp, serialize, adaptive";
        for bad in ["SUICIDE", ""] {
            assert_eq!(
                parse(bad),
                Err(format!("bad --cm '{bad}' (valid: {valid})"))
            );
        }
        assert_eq!(CmKind::default(), CmKind::Suicide);
    }

    #[test]
    fn only_token_policies_allocate_the_token() {
        for k in CmKind::ALL {
            assert_eq!(
                k.needs_token(),
                matches!(k, CmKind::Serialize | CmKind::Adaptive)
            );
        }
    }

    #[test]
    fn dominant_policy_prefers_most_commits() {
        let mut s = CmStats::default();
        assert_eq!(s.dominant_policy(), CmKind::Suicide);
        s.commits_under[CmKind::BackoffExp as usize] = 10;
        s.commits_under[CmKind::Karma as usize] = 30;
        assert_eq!(s.dominant_policy(), CmKind::Karma);
        assert_eq!(s.attempts(), 40);
    }
}
