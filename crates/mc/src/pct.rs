//! PCT-style randomized priority scheduling for depths the bounded
//! exhaustive sweep cannot reach.
//!
//! Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS 2010)
//! runs each trial under random thread priorities with `d − 1` random
//! priority *change points*, and guarantees any bug of depth `d` is hit
//! with probability at least `1 / (n · k^{d−1})` per trial (`n` threads,
//! `k` scheduling points). The virtual-time analogue here maps priority
//! rank to a per-point base delay (lower priority ⇒ longer delay at
//! every scheduling point, so higher-priority threads run ahead) and a
//! change point to one large extra delay that demotes its thread
//! mid-run. The mapping is an approximation — delays stack with the
//! STM's own backoff rather than replacing the scheduler — but it keeps
//! PCT's shape: each trial is cheap, derived from `(seed, trial)` alone,
//! and any violating trial is already a delay vector ready for the
//! shrinker. This module is the trial *generator*; the trials run in the
//! sample-until-violation loop [`crate::Strategy::Pct`] shares with
//! [`crate::Strategy::Random`].

use crate::program::McProgram;

/// Shape of one randomized priority sweep.
#[derive(Clone, Copy, Debug)]
pub struct PctConfig {
    /// Independent trials to run.
    pub trials: u64,
    /// Targeted bug depth `d`: each trial inserts `d − 1` change points.
    pub depth: usize,
    /// Base delay unit; thread with priority rank `r` waits `r · quantum`
    /// at every scheduling point.
    pub quantum: u64,
    /// Stream seed; trial `i` derives its randomness from `(seed, i)`.
    pub seed: u64,
}

impl Default for PctConfig {
    fn default() -> Self {
        PctConfig {
            trials: 64,
            depth: 2,
            quantum: 400,
            seed: 0x9c7,
        }
    }
}

/// splitmix64 — the statelessly seedable PRNG used for trial derivation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The delay vector for one PCT trial — exposed for determinism tests.
pub fn trial_schedule(program: &McProgram, cfg: &PctConfig, trial: u64) -> Vec<u64> {
    let p = program.base;
    let points = program.points();
    let txns = p.txns as usize;
    let mut state = mix(cfg.seed ^ trial.wrapping_mul(0xd1b54a32d192ed03));
    let mut next = || {
        state = mix(state);
        state
    };
    // Random priority permutation (Fisher–Yates); rank 0 runs first.
    let mut rank: Vec<u64> = (0..p.threads as u64).collect();
    for i in (1..rank.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        rank.swap(i, j);
    }
    let mut delays: Vec<u64> = (0..points)
        .map(|i| rank[i / txns.max(1)] * cfg.quantum)
        .collect();
    // d − 1 change points: one large demotion each.
    let boost = cfg.quantum * (p.threads as u64 + 1) * 4;
    for _ in 1..cfg.depth.max(1) {
        if points > 0 {
            let cp = (next() % points as u64) as usize;
            delays[cp] += boost;
        }
    }
    delays
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramKind, RunConfig};
    use crate::{Session, Strategy, SweepWork};
    use tm_check::TransferProgram;

    fn program() -> McProgram {
        McProgram {
            base: TransferProgram::default(),
            kind: ProgramKind::Transfer,
        }
    }

    #[test]
    fn trials_are_deterministic_in_seed_and_index() {
        let p = program();
        let cfg = PctConfig::default();
        assert_eq!(trial_schedule(&p, &cfg, 7), trial_schedule(&p, &cfg, 7));
        assert_ne!(trial_schedule(&p, &cfg, 7), trial_schedule(&p, &cfg, 8));
    }

    #[test]
    fn trial_has_rank_structure_and_change_points() {
        let p = program();
        let cfg = PctConfig {
            depth: 3,
            ..PctConfig::default()
        };
        let delays = trial_schedule(&p, &cfg, 0);
        assert_eq!(delays.len(), p.points());
        // Every delay is rank·quantum plus possibly change-point boosts,
        // so all are multiples of the quantum.
        assert!(delays.iter().all(|d| d % cfg.quantum == 0));
        // Some thread has rank 0 and (absent a change point) zero delays.
        let txns = p.base.txns as usize;
        assert!(
            (0..p.base.threads).any(|t| delays[t * txns..(t + 1) * txns].contains(&0)),
            "{delays:?}"
        );
    }

    #[test]
    fn clean_stm_survives_a_pct_sweep() {
        let strategy = Strategy::Pct(PctConfig {
            trials: 8,
            ..PctConfig::default()
        });
        let (p, run) = (program(), RunConfig::clean());
        let mut session = Session::try_new(&p, &run);
        let mut work = SweepWork::default();
        let (stats, found) = strategy.sweep(&p, &run, session.as_mut(), &mut work);
        assert_eq!((stats.explored, work.schedules), (8, 8));
        // The trials ran on the session, one restore each.
        assert_eq!(work.checkpoints_taken, 1);
        assert_eq!(session.unwrap().restores(), 8);
        assert!(found.is_none(), "{found:?}");
    }
}
