//! Property tests of the STM itself: arbitrary multi-threaded read/write
//! scripts over a small address pool must behave as *some* serial order —
//! checked via per-cell token conservation and snapshot consistency. The
//! conservation program and its runner are the schedule explorer's own
//! (`tm_check::TransferProgram` under `tm_mc::run_schedule`), so the
//! property here and the explorer rows of `tmstudy check` drive exactly
//! the same transactions and check the same invariants.

use proptest::prelude::*;
use std::sync::Arc;
use tm_alloc::AllocatorKind;
use tm_check::TransferProgram;
use tm_mc::{run_schedule, McProgram, ProgramKind, RunConfig};
use tm_sim::{MachineConfig, Sim};
use tm_stm::{Stm, StmConfig};

fn stack() -> (Sim, Arc<Stm>) {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let alloc = AllocatorKind::TbbMalloc.build(&sim);
    let stm = Arc::new(Stm::new(&sim, alloc, StmConfig::default()));
    (sim, stm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Token conservation: transactions move random amounts between cells;
    /// the total is invariant no matter the interleaving or abort pattern.
    /// The program and runner are the explorer's; here the property
    /// quantifies over program shape *and* schedule.
    #[test]
    fn transfers_conserve_tokens(
        seed in any::<u64>(),
        threads in 2usize..6,
        cells in 2u64..6,
        txns in 5u64..20,
    ) {
        let program = McProgram {
            base: TransferProgram { seed, threads, cells, txns },
            kind: ProgramKind::Transfer,
        };
        // Independent stream for the schedule, derived from the same seed.
        let mut x = seed.rotate_left(17) ^ 0xd1b5_4a32_d192_ed03;
        let delays: Vec<u64> = (0..program.points())
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) % 400
            })
            .collect();
        prop_assert_eq!(run_schedule(&program, &RunConfig::clean(), &delays), Ok(()));
        // The undisturbed schedule conserves too.
        let calm = vec![0; program.points()];
        prop_assert_eq!(run_schedule(&program, &RunConfig::clean(), &calm), Ok(()));
    }

    /// Snapshot consistency: a transaction reading a pair of cells that
    /// are always updated together must never observe them out of sync.
    #[test]
    fn paired_cells_never_tear(seed in any::<u64>(), writers in 1usize..4) {
        let (sim, stm) = stack();
        let a = 0x5000_0000u64;
        let b = 0x5000_8000u64; // different stripes
        sim.run(writers + 1, |ctx| {
            let mut th = stm.thread(ctx.tid());
            if ctx.tid() == 0 {
                // Reader: both cells must always match.
                for _ in 0..60 {
                    let (va, vb) = stm.txn(ctx, &mut th, |tx, ctx| {
                        Ok((tx.read(ctx, a)?, tx.read(ctx, b)?))
                    });
                    assert_eq!(va, vb, "torn read: {va} vs {vb}");
                    ctx.tick(seed % 97 + 1);
                }
            } else {
                for i in 0..40u64 {
                    stm.txn(ctx, &mut th, |tx, ctx| {
                        let v = tx.read(ctx, a)?;
                        tx.write(ctx, a, v + 1)?;
                        tx.write(ctx, b, v + 1)
                    });
                    ctx.tick((seed >> 8) % 53 + i % 7);
                }
            }
            stm.retire(th);
        });
    }

    /// Transactional allocation atomicity: blocks from aborted transactions
    /// never leak into the committed structure.
    #[test]
    fn aborted_allocs_are_undone(seed in any::<u64>()) {
        let (sim, stm) = stack();
        let head = 0x6000_0000u64;
        sim.run(4, |ctx| {
            let mut th = stm.thread(ctx.tid());
            let mut x = seed ^ ctx.tid() as u64;
            for _ in 0..25 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Push a node onto a shared stack; every committed node
                // must carry the magic tag.
                stm.txn(ctx, &mut th, |tx, ctx| {
                    let node = tx.malloc(ctx, 16);
                    let old = tx.read(ctx, head)?;
                    ctx.write_u64(node + 8, old);
                    ctx.write_u64(node, 0xfeed_0000 + ctx.tid() as u64);
                    tx.write(ctx, head, node)
                });
                ctx.tick(x % 300);
            }
            stm.retire(th);
        });
        // Walk the stack raw: exactly 100 nodes, all tagged.
        sim.run(1, |ctx| {
            let mut cur = ctx.read_u64(head);
            let mut n = 0;
            while cur != 0 {
                let tag = ctx.read_u64(cur);
                assert!((0xfeed_0000..0xfeed_0008).contains(&tag), "bad tag {tag:#x}");
                cur = ctx.read_u64(cur + 8);
                n += 1;
            }
            assert_eq!(n, 100, "stack must hold one node per committed txn");
        });
    }
}
