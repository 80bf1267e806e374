//! Bounded-depth exhaustive schedule enumeration with conflict pruning.
//!
//! The schedule space is the set of delay vectors whose *support* (the
//! points with a non-zero delay) has size at most `depth`, with each
//! non-zero delay drawn from a small magnitude alphabet. The enumerator
//! sweeps it in order of increasing support size (iterative deepening —
//! a violation is always found at its minimal support), restricting the
//! support to the conflict-active points computed by [`crate::conflict`]
//! and accounting for every schedule the restriction skipped in the
//! `pruned` counter, so a report can never silently shrink its coverage
//! claim.

use crate::program::{McProgram, RunConfig};

/// Shape of one bounded-exhaustive sweep.
#[derive(Clone, Debug)]
pub struct EnumConfig {
    /// Maximum support size (number of simultaneously delayed points).
    pub depth: usize,
    /// Non-zero delay magnitudes to try at each supported point.
    pub magnitudes: Vec<u64>,
    /// Hard cap on executed schedules; the sweep stops (without verdict
    /// inflation) when it is reached.
    pub max_schedules: u64,
    /// Restrict supports to conflict-active points. Sound for the
    /// transfer programs (see DESIGN.md); the AllocSwap program forces
    /// this off via its all-conflicting footprints.
    pub prune: bool,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            depth: 2,
            magnitudes: vec![400],
            max_schedules: 200_000,
            prune: true,
        }
    }
}

impl EnumConfig {
    /// Refuse a magnitude that is no delay (0: its schedules are the
    /// undelayed run over again), one named twice (its schedules run
    /// twice and count as deduplicated), and one the virtual clock cannot
    /// hold. A delay re-applies on every retry of its transaction, so the
    /// delays a thread sits out are bounded by `points × magnitude`, not
    /// by `magnitude`; that product must stay under 2^55 cycles, half of
    /// the scheduling key's clock bits ([`tm_sim::CLOCK_BITS`]), the other
    /// half being the workload's own. Magnitudes come from outside
    /// (`tmstudy mc --magnitudes`); beyond the bound a run either wraps its
    /// clock and explores schedules nobody named, or panics in the
    /// scheduler and is reported as a violation of the clean STM.
    pub fn check_magnitudes(&self, program: &McProgram) -> Result<(), String> {
        if self.magnitudes.contains(&0) {
            return Err("bad --magnitudes '0' (a delay of 0 cycles is no delay)".into());
        }
        let mut seen = self.magnitudes.clone();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("bad --magnitudes '{}' (named twice)", w[0]));
        }
        let points = program.points().max(1) as u64;
        let limit = (1u64 << (tm_sim::CLOCK_BITS - 1)) / points;
        match self.magnitudes.iter().find(|&&m| m > limit) {
            None => Ok(()),
            Some(m) => Err(format!(
                "bad --magnitudes '{m}' (at most {limit}: {points} scheduling points × \
                 delay must stay under 2^{} virtual cycles)",
                tm_sim::CLOCK_BITS - 1
            )),
        }
    }
}

/// What a sweep did: how many schedules ran, how many the conflict
/// relation removed from the bounded space, and whether the cap stopped
/// the sweep early.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Schedules executed.
    pub explored: u64,
    /// Schedules in the bounded space skipped by pruning.
    pub pruned: u64,
    /// Schedules skipped by the checkpointed explorer's state-fingerprint
    /// dedup ([`crate::explore::explore`]); always 0 for the from-scratch
    /// enumerator. An uncapped sweep satisfies `explored + pruned +
    /// deduped == space_size`.
    pub deduped: u64,
    /// True when `max_schedules` stopped the sweep before the bounded
    /// space was covered.
    pub capped: bool,
}

pub(crate) fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let mut r: u128 = 1;
    for i in 0..k.min(n - k) {
        r = r * (n - i) as u128 / (i + 1) as u128;
    }
    r.min(u64::MAX as u128) as u64
}

/// Schedules the pruning removed: for each support size `k`, the
/// supports over all `points` minus the supports over the `active`
/// subset, times the `m^k` magnitude assignments.
pub(crate) fn pruned_count(points: u64, active: u64, depth: usize, m: u64) -> u64 {
    let mut total: u128 = 0;
    let mut mk: u128 = 1;
    for k in 1..=depth as u64 {
        mk = mk.saturating_mul(m as u128);
        let skipped = (binomial(points, k) - binomial(active, k)) as u128;
        total = total.saturating_add(skipped.saturating_mul(mk));
    }
    total.min(u64::MAX as u128) as u64
}

/// Exhaustively explore the bounded schedule space for `program` under
/// `cfg`, every schedule from scratch: the walker of
/// [`crate::explore::explore`] with no session, so nothing is restored
/// and nothing deduped. Returns the sweep statistics and, if any schedule
/// violated an invariant, the raw (unshrunk) delay vector with the
/// violation detail; `stats.explored` at that moment is the 1-based index
/// of the witness.
pub fn enumerate(
    program: &McProgram,
    cfg: &RunConfig,
    ecfg: &EnumConfig,
) -> (EnumStats, Option<(Vec<u64>, String)>) {
    let (stats, found, _) = crate::explore::walk(program, cfg, ecfg, None);
    (stats, found)
}

/// Number of schedules a full (uncapped) sweep would execute — the
/// coverage denominator quoted in reports: `1 + Σ_{k=1..depth}
/// C(supports, k) · m^k`.
pub fn space_size(supports: u64, depth: usize, magnitudes: usize) -> u64 {
    let mut total: u128 = 1;
    let mut mk: u128 = 1;
    for k in 1..=depth as u64 {
        mk = mk.saturating_mul(magnitudes as u128);
        total = total.saturating_add((binomial(supports, k) as u128).saturating_mul(mk));
    }
    total.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramKind;
    use tm_check::TransferProgram;

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
    fn magnitudes_beyond_the_virtual_clock_are_refused() {
        let p = small();
        let with = |magnitudes: Vec<u64>| EnumConfig {
            magnitudes,
            ..EnumConfig::default()
        };
        let limit = (1u64 << 55) / p.points() as u64;
        assert_eq!(with(vec![400, limit]).check_magnitudes(&p), Ok(()));
        for bad in [limit + 1, 1 << 56, u64::MAX] {
            let err = with(vec![400, bad]).check_magnitudes(&p).unwrap_err();
            assert!(
                err.starts_with(&format!("bad --magnitudes '{bad}'")),
                "{err}"
            );
            assert!(err.contains("2^55"), "{err}");
        }
    }

    #[test]
    fn magnitudes_that_are_no_delay_or_named_twice_are_refused() {
        let p = small();
        let with = |magnitudes: Vec<u64>| EnumConfig {
            magnitudes,
            ..EnumConfig::default()
        };
        assert_eq!(with(vec![400, 3200]).check_magnitudes(&p), Ok(()));
        for (bad, named) in [
            (vec![0], "'0' (a delay of 0"),
            (vec![400, 0], "'0'"),
            (vec![400, 400], "'400' (named twice)"),
            (vec![3200, 400, 3200], "'3200' (named twice)"),
        ] {
            let err = with(bad.clone()).check_magnitudes(&p).unwrap_err();
            assert!(
                err.starts_with(&format!("bad --magnitudes {named}")),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn binomials() {
        assert_eq!(binomial(6, 0), 1);
        assert_eq!(binomial(6, 2), 15);
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(3, 5), 0);
    }

    #[test]
    fn space_size_matches_explored_plus_pruned() {
        let p = small();
        let ecfg = EnumConfig {
            depth: 2,
            magnitudes: vec![200, 400],
            ..EnumConfig::default()
        };
        let (stats, found) = enumerate(&p, &RunConfig::clean(), &ecfg);
        assert!(found.is_none(), "{found:?}");
        assert!(!stats.capped);
        assert_eq!(
            stats.explored + stats.pruned,
            space_size(p.points() as u64, ecfg.depth, ecfg.magnitudes.len())
        );
    }

    #[test]
    fn cap_stops_the_sweep() {
        let p = small();
        let ecfg = EnumConfig {
            depth: 2,
            max_schedules: 5,
            ..EnumConfig::default()
        };
        let (stats, found) = enumerate(&p, &RunConfig::clean(), &ecfg);
        assert!(found.is_none());
        assert!(stats.capped);
        assert_eq!(stats.explored, 5);
    }

    #[test]
    fn zero_depth_runs_only_the_zero_schedule() {
        let p = small();
        let ecfg = EnumConfig {
            depth: 0,
            ..EnumConfig::default()
        };
        let (stats, found) = enumerate(&p, &RunConfig::clean(), &ecfg);
        assert!(found.is_none());
        assert_eq!(stats.explored, 1);
        assert_eq!(stats.pruned, 0);
    }
}
