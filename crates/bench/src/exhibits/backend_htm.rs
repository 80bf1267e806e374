//! Backend exhibit: the simulated-HTM capacity cliff.
//!
//! Best-effort HTM (Intel TSX regime, cf. Dice et al., arXiv:1504.04640)
//! tracks the transactional read/write set in the L1 cache: evicting a
//! tracked line aborts the transaction with a capacity fault, and no
//! amount of retrying helps — the transaction only completes through the
//! serial-irrevocable fallback. This exhibit sweeps a single transaction's
//! write footprint across the 32 KB L1 boundary and records where commits
//! stop being hardware commits: below the boundary capacity aborts are
//! zero, above it every attempt faults (`HTM_MAX_RETRIES` capacity aborts
//! per transaction) before the fallback path commits.
use tm_alloc::AllocatorKind;
use tm_stm::{AbortCause, BackendKind, Stack, StackSpec, StmConfig};

/// Per-transaction write footprints, in 64-byte lines. The simulated L1
/// holds 512 lines (32 KB); the sweep brackets it.
const FOOTPRINT_LINES: [u64; 6] = [64, 128, 256, 448, 640, 1024];

/// Transactions per footprint point — enough to average the fixed costs,
/// few enough to keep the over-L1 points (8 faults each) cheap.
const TXNS: u64 = 4;

fn run_point(lines: u64) -> (u64, u64, u64) {
    let htm = StmConfig {
        backend: BackendKind::SimHtm,
        ..StmConfig::default()
    };
    let Stack { sim, stm, .. } = Stack::new(&StackSpec {
        stm: htm,
        ..StackSpec::new(AllocatorKind::TbbMalloc)
    });
    let base = 0x6000_0000u64;
    sim.run(1, |ctx| {
        let mut th = stm.thread(ctx.tid());
        for t in 0..TXNS {
            stm.txn(ctx, &mut th, |tx, ctx| {
                for i in 0..lines {
                    tx.write(ctx, base + i * 64, t + 1)?;
                }
                Ok(())
            });
        }
        stm.retire(th);
    });
    sim.with_state(|m| {
        for i in 0..lines {
            assert_eq!(m.read_u64(base + i * 64), TXNS);
        }
    });
    let s = stm.stats();
    (
        s.commits,
        s.by_cause[AbortCause::Capacity as usize],
        s.by_cause[AbortCause::Coherence as usize],
    )
}

/// The sim-HTM capacity exhibit as a run report.
pub fn run() -> crate::RunReport {
    let mut rows = Vec::new();
    for lines in FOOTPRINT_LINES {
        let (commits, capacity, coherence) = run_point(lines);
        rows.push(vec![
            lines.to_string(),
            format!("{:.0}", lines * 64 / 1024),
            commits.to_string(),
            capacity.to_string(),
            coherence.to_string(),
            if capacity > 0 { "fallback" } else { "hardware" }.into(),
        ]);
    }
    let header = [
        "lines/tx",
        "footprint KB",
        "commits",
        "capacity aborts",
        "coherence aborts",
        "commit path",
    ];
    crate::RunReport::new("backend_htm", "ablation")
        .backend(BackendKind::SimHtm.name())
        .meta("scale", crate::scale())
        .meta("threads", 1)
        .section("data", crate::table_section(&header, &rows))
}
