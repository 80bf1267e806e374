//! Run reports: virtual runtime plus the counters the paper collects via
//! PAPI (cache events) and profiling (lock behaviour).

use crate::cache::CacheStats;
use crate::machine::LockStats;

/// Result of one [`crate::Sim::run`]: the virtual-time length of the run and
/// event counters, all measured as deltas over the run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Number of logical threads in the run.
    pub threads: usize,
    /// Virtual length of the run in cycles (max over thread clocks).
    pub cycles: u64,
    /// `cycles` converted at the machine's nominal frequency.
    pub seconds: f64,
    /// Cache counters per core used by the run.
    pub cache_per_core: Vec<CacheStats>,
    /// Sum over `cache_per_core`.
    pub cache_total: CacheStats,
    /// Aggregate simulated-lock statistics.
    pub locks: LockStats,
    /// Bytes obtained from the simulated OS during the run.
    pub os_allocated: u64,
}

impl SimReport {
    /// Throughput for a run that completed `ops` operations, in ops/second
    /// of virtual time.
    pub fn throughput(&self, ops: u64) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            ops as f64 / self.seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let r = SimReport {
            threads: 1,
            cycles: 2_000_000_000,
            seconds: 1.0,
            cache_per_core: vec![],
            cache_total: CacheStats::default(),
            locks: LockStats::default(),
            os_allocated: 0,
        };
        assert!((r.throughput(500) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_throughput_is_zero() {
        let r = SimReport {
            threads: 1,
            cycles: 0,
            seconds: 0.0,
            cache_per_core: vec![],
            cache_total: CacheStats::default(),
            locks: LockStats::default(),
            os_allocated: 0,
        };
        assert_eq!(r.throughput(10), 0.0);
    }
}
