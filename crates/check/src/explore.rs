//! The token-transfer program every schedule explorer drives.
//!
//! `threads` workers each run `txns` transfer transactions over `cells`
//! token cells, moving amounts drawn from a per-thread LCG stream; the
//! token total is invariant under any correct STM. This module owns the
//! program's *shape and stream* only. Executing it under a schedule,
//! checking its invariants, sweeping and shrinking schedules all live in
//! `tm-mc`, which reads [`TransferProgram::moves`] both to run the
//! transfers and to compute the static conflict relation it prunes with —
//! one stream, so the two cannot drift apart.

/// The transaction program under exploration: `threads` workers each run
/// `txns` transfer transactions over `cells` token cells (one ORT stripe
/// apart), moving amounts derived from a per-thread LCG stream.
#[derive(Clone, Copy, Debug)]
pub struct TransferProgram {
    /// Stream seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Token cells.
    pub cells: u64,
    /// Transactions per thread.
    pub txns: u64,
}

impl Default for TransferProgram {
    fn default() -> Self {
        TransferProgram {
            seed: 0xbead,
            threads: 3,
            cells: 3,
            txns: 8,
        }
    }
}

impl TransferProgram {
    /// Tokens each cell starts with.
    pub const INITIAL_TOKENS: u64 = 1_000;

    /// Number of scheduling points a schedule must cover.
    pub fn points(&self) -> usize {
        self.threads * self.txns as usize
    }

    /// The invariant total.
    pub fn expected_total(&self) -> u64 {
        self.cells * Self::INITIAL_TOKENS
    }

    /// The transfers thread `tid` attempts, in program order, as
    /// `(from, to, amount)` with `from`/`to` cell indices below `cells`.
    pub fn moves(&self, tid: usize) -> impl Iterator<Item = (u64, u64, u64)> {
        let cells = self.cells;
        let mut x = self.seed ^ (tid as u64).wrapping_mul(0x9e3779b97f4a7c15);
        (0..self.txns).map(move |_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x % cells, (x >> 8) % cells, (x >> 16) % 7)
        })
    }
}
