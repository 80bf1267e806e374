//! Commit/abort statistics — the paper's primary STM-side metric
//! (Table 4 reports the fraction of aborted transactions).

/// Why a transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// Read found the versioned lock held by another transaction.
    ReadLocked = 0,
    /// Write failed to acquire the versioned lock.
    WriteLocked = 1,
    /// Read-set validation failed (at commit or timestamp extension).
    Validation = 2,
    /// The lock word changed between the pre- and post-read probes.
    ReadRace = 3,
    /// The workload requested a restart.
    Explicit = 4,
    /// Sim-HTM only: a transactional line was evicted from the L1 (the
    /// hardware read/write set overflowed the cache).
    Capacity = 5,
    /// Sim-HTM only: a coherence invalidation (or remote read of a
    /// write-set line) hit a transactional line — the hardware analogue of
    /// a read/write conflict.
    Coherence = 6,
    /// `Tx::try_malloc` observed the allocator refuse the request (real
    /// exhaustion or an injected `AllocFaultPlan`); the transaction
    /// unwinds its allocation journal and the retry loop decides whether
    /// to retry or propagate the failure to the caller.
    AllocFailed = 7,
}

impl AbortCause {
    /// Number of variants (sizes the `by_cause` array).
    pub const COUNT: usize = 8;

    /// Stable lower-case label for reports.
    pub fn name(self) -> &'static str {
        match self {
            AbortCause::ReadLocked => "read-locked",
            AbortCause::WriteLocked => "write-locked",
            AbortCause::Validation => "validation",
            AbortCause::ReadRace => "read-race",
            AbortCause::Explicit => "explicit",
            AbortCause::Capacity => "capacity",
            AbortCause::Coherence => "coherence-conflict",
            AbortCause::AllocFailed => "alloc-failed",
        }
    }

    /// All variants, in slot order (report renderers iterate this).
    pub const ALL: [AbortCause; AbortCause::COUNT] = [
        AbortCause::ReadLocked,
        AbortCause::WriteLocked,
        AbortCause::Validation,
        AbortCause::ReadRace,
        AbortCause::Explicit,
        AbortCause::Capacity,
        AbortCause::Coherence,
        AbortCause::AllocFailed,
    ];
}

/// Per-thread (and merged global) transaction statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StmStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborts indexed by `AbortCause as usize`.
    pub by_cause: [u64; AbortCause::COUNT],
    /// Successful timestamp extensions.
    pub extensions: u64,
    /// Transactional loads performed.
    pub reads: u64,
    /// Transactional stores performed.
    pub writes: u64,
    /// Transactional allocations served by the object cache (Table 7
    /// effectiveness metric).
    pub cache_hits: u64,
    /// Allocations made inside transactions.
    pub tx_mallocs: u64,
    /// Frees requested inside transactions (deferred to commit).
    pub tx_frees: u64,
}

impl StmStats {
    /// Total aborted transaction attempts.
    pub fn aborts(&self) -> u64 {
        self.by_cause.iter().sum()
    }

    /// Fraction of transaction *attempts* that aborted, in `[0, 1]` — the
    /// quantity in the paper's Table 4.
    pub fn abort_ratio(&self) -> f64 {
        let total = self.commits + self.aborts();
        if total == 0 {
            0.0
        } else {
            self.aborts() as f64 / total as f64
        }
    }

    /// Count one aborted attempt under its cause.
    pub fn record_abort(&mut self, cause: AbortCause) {
        self.by_cause[cause as usize] += 1;
    }

    /// Accumulate another thread's stats into this one (all counters are
    /// additive, so merge order does not matter).
    pub fn merge(&mut self, o: &StmStats) {
        self.commits += o.commits;
        for i in 0..AbortCause::COUNT {
            self.by_cause[i] += o.by_cause[i];
        }
        self.extensions += o.extensions;
        self.reads += o.reads;
        self.writes += o.writes;
        self.cache_hits += o.cache_hits;
        self.tx_mallocs += o.tx_mallocs;
        self.tx_frees += o.tx_frees;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_ratio_math() {
        let mut s = StmStats {
            commits: 60,
            ..Default::default()
        };
        s.record_abort(AbortCause::ReadLocked);
        s.record_abort(AbortCause::ReadLocked);
        for _ in 0..38 {
            s.record_abort(AbortCause::Validation);
        }
        assert_eq!(s.aborts(), 40);
        assert!((s.abort_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(StmStats::default().abort_ratio(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StmStats {
            commits: 5,
            ..Default::default()
        };
        let mut b = StmStats {
            commits: 7,
            ..Default::default()
        };
        b.record_abort(AbortCause::Explicit);
        a.merge(&b);
        assert_eq!(a.commits, 12);
        assert_eq!(a.by_cause[AbortCause::Explicit as usize], 1);
    }
}
