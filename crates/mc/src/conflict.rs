//! The static conflict relation that powers schedule-space pruning.
//!
//! The transfer programs derive every transaction's cell footprint from a
//! per-thread LCG stream, so the read/write footprint of scheduling point
//! `(tid, txn)` is known *statically* — before any schedule runs. Two
//! transactions are **independent** when their footprints are disjoint:
//! they touch different ownership-table stripes, so no order of their
//! commits can change either one's reads, writes, or the end state the
//! invariants inspect. Delaying a transaction that is independent of
//! every other-thread transaction only commutes it past operations it
//! cannot conflict with, producing an execution equivalent (with respect
//! to the checked invariants) to one already in the space — so the
//! enumerator restricts delay support to the *active* points and counts
//! the skipped schedules as `pruned` (a DPOR-style persistent-set
//! argument specialised to this program family; DESIGN.md gives the
//! soundness argument and its caveats).
//!
//! The footprints are read from the stream the program body itself
//! executes ([`tm_check::TransferProgram::moves`]), so the conflict
//! relation cannot drift from what the workload actually does.

use crate::program::{McProgram, ProgramKind};

/// The cells one transaction may read or write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Footprint {
    /// Touches exactly these cell indices (reads; writes iff they differ).
    Cells(u64, u64),
    /// May touch every cell (the observer) or couples through shared
    /// allocator metadata (AllocSwap) — conflicts with everything.
    All,
}

impl Footprint {
    fn intersects(&self, other: &Footprint) -> bool {
        match (self, other) {
            (Footprint::All, _) | (_, Footprint::All) => true,
            (Footprint::Cells(a, b), Footprint::Cells(c, d)) => {
                a == c || a == d || b == c || b == d
            }
        }
    }
}

/// Per-`(tid, txn)` footprints, row-major like the delay vector: entry
/// `tid * txns + t` is the footprint of thread `tid`'s `t`-th
/// transaction.
pub fn footprints(program: &McProgram) -> Vec<Footprint> {
    let p = program.base;
    let mut out = Vec::with_capacity(program.points());
    for tid in 0..p.threads {
        // The observer reads every cell; node allocation and freeing
        // couple every AllocSwap transaction through the allocator's
        // shared metadata. Both conflict with everything.
        let all = program.kind == ProgramKind::AllocSwap
            || (program.kind == ProgramKind::TransferObserver && tid == 0);
        out.extend(p.moves(tid).map(|(from, to, _)| {
            if all {
                Footprint::All
            } else {
                Footprint::Cells(from, to)
            }
        }));
    }
    out
}

/// Scheduling points worth delaying: point `i` is *active* when its
/// transaction's footprint intersects some transaction of a different
/// thread. The returned indices are sorted by descending conflict degree
/// (how many other-thread transactions intersect) so the enumerator
/// tries the most contended points first — a search-order heuristic
/// only; it does not affect which schedules are eventually covered.
pub fn active_points(program: &McProgram) -> Vec<usize> {
    let fps = footprints(program);
    let txns = program.base.txns as usize;
    let degree: Vec<usize> = (0..fps.len())
        .map(|i| {
            let tid = i / txns.max(1);
            fps.iter()
                .enumerate()
                .filter(|(j, fp)| j / txns.max(1) != tid && fps[i].intersects(fp))
                .count()
        })
        .collect();
    let mut active: Vec<usize> = (0..fps.len()).filter(|&i| degree[i] > 0).collect();
    active.sort_by(|&a, &b| degree[b].cmp(&degree[a]).then(a.cmp(&b)));
    active
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_check::TransferProgram;

    fn transfer(cells: u64) -> McProgram {
        McProgram {
            base: TransferProgram {
                cells,
                ..TransferProgram::default()
            },
            kind: ProgramKind::Transfer,
        }
    }

    #[test]
    fn footprints_cover_every_point_in_row_major_order() {
        let p = transfer(3);
        let fps = footprints(&p);
        assert_eq!(fps.len(), p.points());
        for fp in &fps {
            match fp {
                Footprint::Cells(a, b) => assert!(*a < 3 && *b < 3),
                Footprint::All => panic!("plain transfer has no All footprints"),
            }
        }
    }

    #[test]
    fn single_cell_program_conflicts_everywhere() {
        // Every transaction touches cell 0, so every point is active.
        let p = transfer(1);
        assert_eq!(active_points(&p).len(), p.points());
    }

    #[test]
    fn many_cells_leave_some_points_independent() {
        // With far more cells than transactions, some footprints are
        // disjoint from every other-thread footprint and get pruned.
        let p = transfer(64);
        assert!(
            active_points(&p).len() < p.points(),
            "expected pruning opportunities with 64 cells"
        );
    }

    #[test]
    fn observer_and_allocswap_points_are_all_active() {
        for kind in [ProgramKind::TransferObserver, ProgramKind::AllocSwap] {
            let p = McProgram {
                base: TransferProgram::default(),
                kind,
            };
            assert_eq!(active_points(&p).len(), p.points(), "{kind:?}");
        }
    }

    #[test]
    fn active_points_sorted_by_descending_degree() {
        let p = transfer(3);
        let fps = footprints(&p);
        let txns = p.base.txns as usize;
        let deg = |i: usize| {
            fps.iter()
                .enumerate()
                .filter(|(j, fp)| j / txns != i / txns && fps[i].intersects(fp))
                .count()
        };
        let active = active_points(&p);
        for w in active.windows(2) {
            assert!(deg(w[0]) >= deg(w[1]));
        }
    }
}
