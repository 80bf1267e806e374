//! The five workloads: what a pass of each runs, and what makes a cell
//! count as failed.
//!
//! Every workload is a closed loop with one client: a pass is a fixed list
//! of cells run one after another on one OS thread (the simulator's fiber
//! executor), and the next pass starts when the previous one has finished.
//! The list is generated from the seed; the crates under test only ever
//! see the generated configurations.
//!
//! Pass sizes are a quarter (STAMP: a fifth) of the sizes the matrix
//! these workloads descend from was tracked at (`tmstudy sweep --quick`,
//! 2.5 s a pass), cut uniformly so that a run fits twenty to forty passes
//! into its measuring time; no workload and no cell was dropped to get there.

use tm_alloc::AllocatorKind;
use tm_check::TransferProgram;
use tm_core::synthetic::{run_synthetic, SyntheticConfig};
use tm_core::threadtest::{run_threadtest, ThreadtestConfig, ThreadtestResult};
use tm_core::Metrics;
use tm_ds::StructureKind;
use tm_mc::{EnumConfig, McProgram, MutantRecipe, ProgramKind, RunConfig, SweepWork};
use tm_sim::{MachineConfig, Sim};
use tm_stamp::runner::{make_app, run_app, StampOpts, StampResult};
use tm_stamp::AppKind;
use tm_stm::{BackendKind, CmKind, InjectedBug, Stm, StmConfig};

use crate::instrument::{self, Counts};

/// Name and reason of each workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "synth-matrix",
        "list, hash and rbtree on 4 allocators at 8 threads under ETL/SUICIDE: sim hand-offs, the cache model and the ETL read/write/commit path carry it, the allocators little",
    ),
    (
        "backend-mix",
        "hash and rbtree on glibc and tc under NOrec, sim-HTM, ETL/backoff and ETL/adaptive: the same stm layer through its other backends and CMs, where an ETL-only gain must not cost",
    ),
    (
        "alloc-churn",
        "threadtest malloc/free pairs, 4 allocators x 5 block sizes x 1 and 8 threads: alloc and sim locks/cache do all the work and stm/ds none, so an STM change predicts no change here",
    ),
    (
        "stamp-apps",
        "7 STAMP apps on 4 allocators at 8 threads: long sequential phases on the solo path, large footprints and page walks, heavy transactional malloc/free (the paper's section 6)",
    ),
    (
        "mc-explore",
        "depth-3 schedule sweeps over 3 backends x 6 CMs x 6 programs, the mutant catalog and the every-site OOM sweep: thousands of tiny runs, so snapshot/restore, fiber spawn and stack set-up dominate",
    ),
];

/// Synthetic cells run this fraction of `SyntheticConfig::scaled`'s
/// operations per thread.
const SYNTH_OPS_DIVISOR: u64 = 4;
/// An rbtree configuration is run this many times, each from its own
/// sub-seed with its share of the operations. Eight threads on one tree
/// fall into a high or a low abort regime with the seed's draw of keys and
/// stay there for the whole cell (under TBB and TCMalloc its virtual time
/// moves by a quarter, under back-off, the adaptive CM and sim-HTM its host
/// time by 9-17 %, and by as much at half the length), so more draws
/// average it out where longer ones do not.
const RBTREE_DRAWS: u64 = 3;
const CHURN_PAIRS_PER_THREAD: u64 = 4_000;
const CHURN_THREADS: [usize; 2] = [1, 8];
/// Per size bucket, the block sizes a seed may pick. All sizes of a bucket
/// take the same path through every allocator (Hoard's local cache ends at
/// 256 B, TBB's small-object path below 8 KB), so the seed moves simulated
/// addresses and cache sets but not which code runs.
const CHURN_BUCKETS: [&[u64]; 5] = [
    &[16, 24, 32],
    &[48, 56, 64, 72, 80],
    &[208, 224, 240, 256],
    &[832, 896, 960, 1024],
    &[8192],
];
/// Seven of the eight STAMP ports. Yada is left out: at one seed in four
/// (4 of 16 at scale 8 on Glibc) its 8-thread run ends with a
/// `HeapAuditor` violation, and without the auditor under it the same
/// defect has panicked a fiber or never ended; a benchmark must not run
/// cells that can fail. Fixing `crates/stamp/src/apps/yada.rs` and adding
/// it back is a later change.
pub const STAMP_APPS: [AppKind; 7] = [
    AppKind::Bayes,
    AppKind::Genome,
    AppKind::Intruder,
    AppKind::Kmeans,
    AppKind::Labyrinth,
    AppKind::Ssca2,
    AppKind::Vacation,
];
const STAMP_SCALE: u64 = 8;
/// A STAMP cell's input is drawn again, at most this often, when the
/// library's own 8-thread run of it fails the checksum check: a benchmark
/// must not run cells that can fail, and about one Intruder input in some
/// hundreds does (at seed 502, Intruder on Glibc commits 9 transactions
/// too many and the `HeapAuditor` under it reports a violation). Each
/// redraw is printed. A defect that fails every draw still fails the run.
const STAMP_MAX_DRAWS: usize = 4;
const LABYRINTH_SCALE: u64 = 4;
const THREADS: usize = 8;
/// Programs swept per backend × CM cell, each from its own seed, and the
/// length the same program is stretched to when only its simulated time
/// is wanted: a 6-transaction program's conflicts are a coin toss per
/// seed, so both the sweep's host time and the program's virtual time are
/// averaged over many draws. Six programs also keep the checkpointed
/// sweeps at three fifths of the pass: the one catalog mutant that shrinks
/// its witness by from-scratch replays (`Sim::new` some 400 times, 7 MB of
/// arrays each) is bound by memory bandwidth, wanders 176-230 ms within a
/// run with what the host's neighbours do, and at two programs a cell was
/// 40 % of the pass (ten runs at one seed then spread 5 %).
const MC_PROGRAMS_PER_CELL: usize = 6;
const MC_VIRT_TXNS: u64 = 256;
const MC_DEPTH: usize = 3;
const MC_MAGNITUDES: [u64; 2] = [400, 3200];
const MC_CATALOG_DEPTH: usize = 2;

/// splitmix64 of `seed + i`: an independent stream per cell, so that the
/// cells of a pass do not all draw the same keys and a seed's luck
/// averages out over the pass.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `stamp.<app>`: the span group of an app's cells, and the stem of its
/// per-layer metric `stamp.<app>.host_ms`.
pub fn stamp_group(app: AppKind) -> String {
    format!("stamp.{}", app.name().to_ascii_lowercase())
}

/// One unit of a pass.
pub enum Cell {
    Synth(SyntheticConfig),
    Churn(ThreadtestConfig),
    Stamp {
        kind: AppKind,
        alloc: AllocatorKind,
        scale: u64,
        opts: StampOpts,
        /// Checksum of the same input run on one thread, filled in by
        /// [`prepare`]; the 8-thread run must land on it.
        solo_checksum: Option<u64>,
    },
    /// One backend × CM cell of a bounded-exhaustive clean sweep: of the
    /// depth-3 matrix (`catalog` false) or of the quick suite.
    McSweep {
        program: McProgram,
        backend: BackendKind,
        cm: CmKind,
        ecfg: EnumConfig,
        catalog: bool,
        /// Simulated seconds of the program ([`transfer_virt_s`]), filled
        /// in by [`prepare`]. Only the depth-3 matrix's programs come from
        /// the seed, so only they carry the workload's simulated time.
        virt_s: f64,
    },
    /// One mutant of the quick suite's catalog: found, shrunk, replayed.
    McMutant(MutantRecipe),
    /// One cell of the every-site allocation-failure sweep.
    McOom(RunConfig),
}

/// How a cell is executed.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Through the library's own driver — what the timed numbers use.
    Library,
    /// Through the benchmark-side copy that can count; `audit` also puts a
    /// `HeapAuditor` under the counting wrapper.
    Instrumented { audit: bool },
}

/// What one execution of a cell produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Fixed work done: commits, malloc/free pairs, or schedules + sites.
    pub ops: u64,
    /// Simulated seconds the work took.
    pub virt_s: f64,
    /// Everything that must repeat exactly whenever the cell runs again.
    pub print: Vec<u64>,
    /// Whether one of the cell's correctness checks failed, and why.
    pub failed: bool,
    pub notes: Vec<String>,
}

impl Outcome {
    fn single(ops: u64, virt_s: f64, print: Vec<u64>, failure: Option<String>) -> Outcome {
        Outcome {
            ops,
            virt_s,
            print,
            failed: failure.is_some(),
            notes: failure.into_iter().collect(),
        }
    }
}

fn synth_outcome(cfg: &SyntheticConfig, m: &Metrics) -> Outcome {
    let want = cfg.threads as u64 * cfg.ops_per_thread;
    Outcome::single(
        m.commits,
        m.seconds,
        vec![
            m.commits,
            m.aborts,
            m.seconds.to_bits(),
            m.throughput.to_bits(),
            m.abort_ratio.to_bits(),
            m.l1_miss.to_bits(),
            m.l2_miss.to_bits(),
            m.alloc_failed_aborts,
            m.lock_wait_cycles,
            m.cache_hits,
        ],
        (m.commits != want).then(|| format!("{} commits, expected {want}", m.commits)),
    )
}

fn churn_outcome(cfg: &ThreadtestConfig, r: &ThreadtestResult) -> Outcome {
    Outcome::single(
        cfg.threads as u64 * cfg.pairs_per_thread,
        r.seconds,
        vec![r.seconds.to_bits(), r.mops.to_bits(), r.l1_miss.to_bits()],
        // NaN-safe: a broken run must not slip through a `<=` test.
        (!(r.mops > 0.0 && r.seconds > 0.0)).then(|| "no throughput".to_string()),
    )
}

fn stamp_outcome(cell: &Cell, r: &StampResult, solo_checksum: Option<u64>) -> Outcome {
    Outcome::single(
        r.commits,
        r.seq_seconds + r.par_seconds,
        vec![
            r.commits,
            r.aborts,
            r.seq_seconds.to_bits(),
            r.par_seconds.to_bits(),
            r.l1_miss.to_bits(),
            r.l2_miss.to_bits(),
            r.alloc_failed_aborts,
            r.lock_wait_cycles,
            r.cache_hits,
            r.checksum.is_some() as u64,
            r.checksum.unwrap_or(0),
        ],
        (r.checksum != solo_checksum).then(|| {
            format!(
                "{}: checksum {:?} at {THREADS} threads, {:?} at 1",
                cell.label(),
                r.checksum,
                solo_checksum
            )
        }),
    )
}

/// Simulated seconds of the explored program, stretched to
/// [`MC_VIRT_TXNS`] transactions a thread, on its undisturbed schedule
/// under one backend × CM. The explorer keeps each schedule's virtual time
/// to itself, so this benchmark-side copy of the transfer program (the
/// shape of `tm_check::explore::run_transfers`) is what gives `mc-explore`
/// a `virt_ms`.
fn transfer_virt_s(p: &TransferProgram, backend: BackendKind, cm: CmKind) -> f64 {
    let p = &TransferProgram {
        txns: MC_VIRT_TXNS,
        ..*p
    };
    const BASE: u64 = 0x4000_0000;
    const STRIDE: u64 = 4096;
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let stm = Stm::new(
        &sim,
        AllocatorKind::TbbMalloc.build(&sim),
        StmConfig {
            backend,
            cm,
            ..StmConfig::default()
        },
    );
    sim.with_state(|m| {
        for c in 0..p.cells {
            m.write_u64(BASE + c * STRIDE, TransferProgram::INITIAL_TOKENS);
        }
    });
    let report = sim.run(p.threads, |ctx| {
        let tid = ctx.tid();
        let mut th = stm.thread(tid);
        let mut x = p.seed ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for _ in 0..p.txns {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let from = BASE + (x % p.cells) * STRIDE;
            let to = BASE + ((x >> 8) % p.cells) * STRIDE;
            let amt = (x >> 16) % 7;
            stm.txn(ctx, &mut th, |tx, ctx| {
                let f = tx.read(ctx, from)?;
                let v = tx.read(ctx, to)?;
                if from != to && f >= amt {
                    tx.write(ctx, from, f - amt)?;
                    tx.write(ctx, to, v + amt)?;
                }
                Ok(())
            });
        }
        stm.retire(th);
    });
    report.seconds
}

fn absorb_work(counts: &mut Counts, work: &SweepWork) {
    counts.mc_schedules += work.schedules;
    counts.mc_deduped += work.deduped;
    counts.mc_checkpoints += work.checkpoints_taken;
    counts.mc_replay_steps_saved += work.replay_steps_saved;
}

impl Cell {
    /// Span name of the cell in the traced run.
    pub fn label(&self) -> String {
        match self {
            Cell::Synth(c) => format!(
                "synth {} {} {}/{}",
                c.structure.name(),
                c.allocator.name(),
                c.backend.name(),
                c.cm.name()
            ),
            Cell::Churn(c) => format!(
                "churn {} {}B x{}",
                c.allocator.name(),
                c.block_size,
                c.threads
            ),
            Cell::Stamp { kind, alloc, .. } => format!("{} {}", stamp_group(*kind), alloc.name()),
            Cell::McSweep {
                program,
                backend,
                cm,
                catalog,
                ..
            } => format!(
                "{} {} {}/{}",
                if *catalog { "mc.catalog" } else { "mc.d3" },
                program.kind.name(),
                backend.name(),
                cm.name()
            ),
            Cell::McMutant(recipe) => format!("mc.catalog mutant {}", recipe.bug.name()),
            Cell::McOom(cfg) => format!(
                "mc.oom {} {}/{} {}",
                cfg.alloc.name(),
                cfg.backend.name(),
                cfg.cm.name(),
                cfg.bug.name()
            ),
        }
    }

    /// The per-layer span metric this cell's time is summed into, if any:
    /// `stamp.<app>` or `mc.d3` / `mc.catalog` / `mc.oom`.
    pub fn group(&self) -> Option<String> {
        match self {
            Cell::Stamp { kind, .. } => Some(stamp_group(*kind)),
            Cell::McSweep { catalog: false, .. } => Some("mc.d3".into()),
            Cell::McSweep { catalog: true, .. } | Cell::McMutant(_) => Some("mc.catalog".into()),
            Cell::McOom(_) => Some("mc.oom".into()),
            Cell::Synth(_) | Cell::Churn(_) => None,
        }
    }

    /// Run the cell once. `counts` receives what the chosen mode can
    /// count: everything under [`Mode::Instrumented`], the model checker's
    /// own work tallies under either mode.
    pub fn run(&self, mode: Mode, counts: &mut Counts) -> Outcome {
        match self {
            Cell::Synth(cfg) => {
                let m = match mode {
                    Mode::Library => run_synthetic(cfg),
                    Mode::Instrumented { audit } => instrument::synthetic(cfg, audit, counts, None),
                };
                synth_outcome(cfg, &m)
            }
            Cell::Churn(cfg) => {
                let r = match mode {
                    Mode::Library => run_threadtest(cfg),
                    Mode::Instrumented { audit } => instrument::threadtest(cfg, audit, counts),
                };
                churn_outcome(cfg, &r)
            }
            Cell::Stamp {
                kind,
                alloc,
                scale,
                opts,
                solo_checksum,
            } => {
                let app = make_app(*kind, *scale, opts.seed);
                let r = match mode {
                    Mode::Library => run_app(app.as_ref(), *alloc, THREADS, opts),
                    Mode::Instrumented { audit } => {
                        instrument::stamp(app.as_ref(), *alloc, THREADS, opts, audit, counts)
                    }
                };
                stamp_outcome(self, &r, *solo_checksum)
            }
            Cell::McSweep {
                program,
                backend,
                cm,
                ecfg,
                virt_s,
                ..
            } => {
                let mut work = SweepWork::default();
                let cell = tm_mc::run_clean_cell_opt(
                    program,
                    AllocatorKind::TbbMalloc,
                    *backend,
                    *cm,
                    ecfg,
                    true,
                    &mut work,
                );
                absorb_work(counts, &work);
                counts.mc_pruned += cell.pruned;
                let space =
                    tm_mc::space_size(program.points() as u64, ecfg.depth, ecfg.magnitudes.len());
                let covered = cell.explored + cell.pruned + cell.deduped;
                let failure = if !cell.verdict.is_expected() {
                    Some(format!("{}: verdict {}", cell.key(), cell.verdict.name()))
                } else if cell.capped || covered != space {
                    Some(format!(
                        "{}: covered {covered} of {space} schedules",
                        cell.key()
                    ))
                } else {
                    None
                };
                Outcome::single(work.schedules, *virt_s, mc_print(&cell, &work), failure)
            }
            Cell::McMutant(recipe) => {
                let mut work = SweepWork::default();
                let cell = tm_mc::run_mutant_cell_opt(recipe, true, &mut work);
                absorb_work(counts, &work);
                counts.mc_pruned += cell.pruned;
                let failure = (!cell.verdict.is_expected())
                    .then(|| format!("{}: verdict {}", cell.key(), cell.verdict.name()));
                Outcome::single(work.schedules, 0.0, mc_print(&cell, &work), failure)
            }
            Cell::McOom(cfg) => {
                let cell = tm_mc::oom_cell(&tm_mc::oom_program(), cfg);
                counts.mc_oom_sites += cell.sites;
                let failure = (!cell.verdict.is_expected())
                    .then(|| format!("oom {}: verdict {}", self.label(), cell.verdict.name()));
                Outcome::single(
                    cell.sites,
                    0.0,
                    vec![
                        cell.verdict as u64,
                        cell.sites,
                        cell.injected,
                        cell.committed_retries,
                        cell.alloc_aborts,
                        cell.failing_site.map_or(0, |s| s + 1),
                    ],
                    failure,
                )
            }
        }
    }
}

/// What must repeat exactly when a model-checker cell runs again.
fn mc_print(cell: &tm_obs::McCell, work: &SweepWork) -> Vec<u64> {
    vec![
        cell.verdict as u64,
        cell.explored,
        cell.pruned,
        cell.deduped,
        work.schedules,
        work.replay_steps_saved,
        work.checkpoints_taken,
    ]
}

/// One clean-sweep cell of `program` under `backend` × `cm`.
fn sweep_cell(
    program: McProgram,
    backend: BackendKind,
    cm: CmKind,
    ecfg: EnumConfig,
    catalog: bool,
) -> Cell {
    let virt_s = if catalog {
        0.0
    } else {
        transfer_virt_s(&program.base, backend, cm)
    };
    Cell::McSweep {
        program,
        backend,
        cm,
        ecfg,
        catalog,
        virt_s,
    }
}

/// The cells of `tmstudy mc --quick --depth 2` (`tm_mc::quick_report_opt`)
/// followed by those of `tmstudy mc --oom` (`tm_mc::oom_quick_report`),
/// one timing unit each so that a burst of interference spoils one small
/// sample and not the whole suite's. `cargo test` holds this list against
/// the two library suites cell for cell.
fn quick_suite_cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = tm_mc::mutation_catalog()
        .into_iter()
        .map(Cell::McMutant)
        .collect();
    let ecfg = tm_mc::quick_clean_config(MC_CATALOG_DEPTH);
    for backend in BackendKind::ALL {
        for cm in CmKind::ALL {
            cells.push(sweep_cell(
                tm_mc::small_program(),
                backend,
                cm,
                ecfg.clone(),
                true,
            ));
        }
    }
    cells.push(sweep_cell(
        tm_mc::sparse_program(),
        BackendKind::Etl,
        CmKind::Suicide,
        tm_mc::quick_clean_config(2),
        true,
    ));
    for alloc in AllocatorKind::ALL {
        for backend in [BackendKind::Etl, BackendKind::Norec] {
            for cm in [CmKind::Suicide, CmKind::Adaptive] {
                cells.push(Cell::McOom(RunConfig {
                    alloc,
                    backend,
                    cm,
                    ..RunConfig::clean()
                }));
            }
        }
    }
    cells.push(Cell::McOom(RunConfig {
        bug: InjectedBug::LeakOnAllocFail,
        ..RunConfig::clean()
    }));
    cells
}

/// The cells of one synthetic configuration: one, or [`RBTREE_DRAWS`].
fn synth_cells(
    structure: StructureKind,
    alloc: AllocatorKind,
    backend: BackendKind,
    cm: CmKind,
    next_seed: &mut impl FnMut() -> u64,
) -> Vec<Cell> {
    let draws = if structure == StructureKind::RbTree {
        RBTREE_DRAWS
    } else {
        1
    };
    (0..draws)
        .map(|_| {
            let mut cfg = SyntheticConfig::scaled(structure, alloc, THREADS);
            cfg.ops_per_thread /= SYNTH_OPS_DIVISOR * draws;
            cfg.backend = backend;
            cfg.cm = cm;
            cfg.seed = next_seed();
            Cell::Synth(cfg)
        })
        .collect()
}

/// Generate a workload's cells from the seed and run whatever reference
/// the correctness checks need (the 1-thread STAMP checksums). `None` for
/// an unknown workload name.
pub fn prepare(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let mut cells = Vec::new();
    let mut next_seed = {
        let mut i = 0;
        move || {
            i += 1;
            sub_seed(seed, i)
        }
    };
    match workload {
        "synth-matrix" => {
            for structure in StructureKind::ALL {
                for alloc in AllocatorKind::ALL {
                    cells.extend(synth_cells(
                        structure,
                        alloc,
                        BackendKind::Etl,
                        CmKind::Suicide,
                        &mut next_seed,
                    ));
                }
            }
        }
        "backend-mix" => {
            for structure in [StructureKind::HashSet, StructureKind::RbTree] {
                for alloc in [AllocatorKind::Glibc, AllocatorKind::TcMalloc] {
                    for (backend, cm) in [
                        (BackendKind::Norec, CmKind::Suicide),
                        (BackendKind::SimHtm, CmKind::Suicide),
                        (BackendKind::Etl, CmKind::BackoffExp),
                        (BackendKind::Etl, CmKind::Adaptive),
                    ] {
                        cells.extend(synth_cells(structure, alloc, backend, cm, &mut next_seed));
                    }
                }
            }
        }
        "alloc-churn" => {
            let sizes: Vec<u64> = CHURN_BUCKETS
                .iter()
                .map(|bucket| bucket[(next_seed() % bucket.len() as u64) as usize])
                .collect();
            for allocator in AllocatorKind::ALL {
                for &block_size in &sizes {
                    for threads in CHURN_THREADS {
                        cells.push(Cell::Churn(ThreadtestConfig {
                            allocator,
                            threads,
                            block_size,
                            pairs_per_thread: CHURN_PAIRS_PER_THREAD,
                        }));
                    }
                }
            }
        }
        "stamp-apps" => {
            for kind in STAMP_APPS {
                let scale = if kind == AppKind::Labyrinth {
                    LABYRINTH_SCALE
                } else {
                    STAMP_SCALE
                };
                for alloc in AllocatorKind::ALL {
                    let mut draws = 0;
                    let (opts, solo_checksum) = loop {
                        let opts = StampOpts {
                            seed: next_seed(),
                            ..StampOpts::default()
                        };
                        let checksum = |threads| {
                            let app = make_app(kind, scale, opts.seed);
                            run_app(app.as_ref(), alloc, threads, &opts).checksum
                        };
                        let solo = checksum(1);
                        draws += 1;
                        if draws == STAMP_MAX_DRAWS || checksum(THREADS) == solo {
                            break (opts, solo);
                        }
                        println!(
                            "stamp-apps: {} on {} fails at {THREADS} threads on input {:#x}; drawing another",
                            kind.name(),
                            alloc.name(),
                            opts.seed
                        );
                    };
                    cells.push(Cell::Stamp {
                        kind,
                        alloc,
                        scale,
                        opts,
                        solo_checksum,
                    });
                }
            }
        }
        "mc-explore" => {
            for backend in BackendKind::ALL {
                for cm in CmKind::ALL {
                    for _ in 0..MC_PROGRAMS_PER_CELL {
                        cells.push(sweep_cell(
                            McProgram {
                                base: TransferProgram {
                                    seed: next_seed(),
                                    ..tm_mc::small_program().base
                                },
                                kind: ProgramKind::Transfer,
                            },
                            backend,
                            cm,
                            EnumConfig {
                                depth: MC_DEPTH,
                                magnitudes: MC_MAGNITUDES.to_vec(),
                                ..EnumConfig::default()
                            },
                            false,
                        ));
                    }
                }
            }
            cells.extend(quick_suite_cells());
        }
        _ => return None,
    }
    Some(cells)
}

/// Mark every cell whose print differs from the reference pass's as
/// failed: at a fixed seed the simulator is deterministic, so any
/// difference is a defect (or an instrumented driver that drifted).
pub fn check_against(pass: &mut [Outcome], reference: &[Outcome], what: &str) {
    assert_eq!(pass.len(), reference.len(), "passes run the same cells");
    for (i, (got, want)) in pass.iter_mut().zip(reference).enumerate() {
        if got.print != want.print {
            got.failed = true;
            got.notes
                .push(format!("cell {i}: {what} differs from the reference pass"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_per_cell_and_repeat_per_seed() {
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
        assert_ne!(sub_seed(7, 3), sub_seed(7, 4));
        assert_ne!(sub_seed(7, 3), sub_seed(8, 3));
    }

    #[test]
    fn every_workload_prepares_and_unknown_names_do_not() {
        for (name, cells) in [
            ("synth-matrix", 20),
            ("backend-mix", 32),
            ("alloc-churn", 40),
            ("mc-explore", 149),
        ] {
            assert_eq!(prepare(name, 1).expect(name).len(), cells, "{name}");
        }
        assert!(prepare("no-such-workload", 1).is_none());
    }

    #[test]
    fn churn_sizes_stay_inside_their_buckets() {
        for seed in 0..32 {
            for cell in prepare("alloc-churn", seed).unwrap() {
                let Cell::Churn(c) = cell else {
                    panic!("alloc-churn holds churn cells only")
                };
                assert!(CHURN_BUCKETS.iter().any(|b| b.contains(&c.block_size)));
            }
        }
    }

    fn small(structure: StructureKind, alloc: AllocatorKind) -> SyntheticConfig {
        let mut cfg = SyntheticConfig::scaled(structure, alloc, 4);
        cfg.initial_size = 64;
        cfg.key_range = 128;
        cfg.ops_per_thread = 60;
        cfg.buckets = 1 << 11;
        cfg.seed = 99;
        cfg
    }

    #[test]
    fn instrumented_synthetic_driver_matches_run_synthetic_bit_for_bit() {
        for (structure, alloc, backend) in [
            (
                StructureKind::LinkedList,
                AllocatorKind::Glibc,
                BackendKind::Etl,
            ),
            (
                StructureKind::HashSet,
                AllocatorKind::TcMalloc,
                BackendKind::Norec,
            ),
            (
                StructureKind::RbTree,
                AllocatorKind::Hoard,
                BackendKind::SimHtm,
            ),
        ] {
            let mut cfg = small(structure, alloc);
            cfg.backend = backend;
            let cell = Cell::Synth(cfg);
            let mut counts = Counts::default();
            let library = cell.run(Mode::Library, &mut Counts::default());
            let traced = cell.run(Mode::Instrumented { audit: true }, &mut counts);
            assert_eq!(library.print, traced.print, "{}", cell.label());
            assert!(!library.failed && !traced.failed);
            // The counts see both phases, the metrics only the second.
            assert!(counts.stm().commits > library.ops);
            assert!(counts.sim_events > 0 && counts.alloc_calls() > 0);
            assert!(counts.alloc_virt_cycles < counts.thread_virt_cycles);
        }
    }

    #[test]
    fn instrumented_threadtest_and_stamp_drivers_match_the_library() {
        let churn = Cell::Churn(ThreadtestConfig {
            allocator: AllocatorKind::Hoard,
            threads: 4,
            block_size: 512,
            pairs_per_thread: 200,
        });
        let mut counts = Counts::default();
        assert_eq!(
            churn.run(Mode::Library, &mut Counts::default()).print,
            churn
                .run(Mode::Instrumented { audit: true }, &mut counts)
                .print
        );
        assert_eq!(counts.alloc_calls(), 2 * 4 * 200);
        assert_eq!(counts.audit_violations, 0);

        let opts = StampOpts {
            seed: 5,
            ..StampOpts::default()
        };
        let app = make_app(AppKind::Genome, 1, opts.seed);
        let solo_checksum = run_app(app.as_ref(), AllocatorKind::TbbMalloc, 1, &opts).checksum;
        assert!(solo_checksum.is_some());
        let stamp = Cell::Stamp {
            kind: AppKind::Genome,
            alloc: AllocatorKind::TbbMalloc,
            scale: 1,
            opts,
            solo_checksum,
        };
        let library = stamp.run(Mode::Library, &mut Counts::default());
        let traced = stamp.run(Mode::Instrumented { audit: false }, &mut Counts::default());
        assert_eq!(library.print, traced.print);
        assert!(!library.failed && !traced.failed);
    }

    #[test]
    fn a_wrong_reference_checksum_fails_the_stamp_cell() {
        let opts = StampOpts {
            seed: 5,
            ..StampOpts::default()
        };
        let cell = Cell::Stamp {
            kind: AppKind::Genome,
            alloc: AllocatorKind::TbbMalloc,
            scale: 1,
            opts,
            solo_checksum: Some(1),
        };
        let out = cell.run(Mode::Library, &mut Counts::default());
        assert!(out.failed);
        assert!(out.notes[0].contains("checksum"));
    }

    #[test]
    fn a_stamp_input_the_library_fails_on_is_drawn_again() {
        // Seed 502 draws 0x17e00410562ae605 for Intruder on Glibc, where
        // the 8-thread run lands on another checksum than the 1-thread one.
        let cells = prepare("stamp-apps", 502).unwrap();
        assert_eq!(cells.len(), 4 * STAMP_APPS.len());
        let cell = &cells[8];
        assert_eq!(cell.label(), "stamp.intruder Glibc");
        let Cell::Stamp { opts, .. } = cell else {
            panic!("stamp-apps holds stamp cells only")
        };
        assert_ne!(opts.seed, sub_seed(502, 9));
        let out = cell.run(Mode::Library, &mut Counts::default());
        assert!(!out.failed, "{:?}", out.notes);
    }

    #[test]
    fn a_drifting_cell_fails_against_the_reference_pass() {
        let reference = [Outcome::single(1, 0.0, vec![1, 2, 3], None)];
        let mut same = reference.to_vec();
        check_against(&mut same, &reference, "print");
        assert!(!same[0].failed);
        let mut drifted = [Outcome::single(1, 0.0, vec![1, 2, 4], None)];
        check_against(&mut drifted, &reference, "print");
        assert!(drifted[0].failed);
        assert!(drifted[0].notes[0].contains("differs"));
    }

    #[test]
    fn quick_suite_cells_are_the_librarys_two_quick_suites_cell_for_cell() {
        let (report, work) = tm_mc::quick_report_opt("t", MC_CATALOG_DEPTH, true);
        let oom = tm_mc::oom_quick_report("t");
        let cells = quick_suite_cells();
        assert_eq!(cells.len(), report.cells.len() + oom.cells.len());
        let mut counts = Counts::default();
        let outs: Vec<Outcome> = cells
            .iter()
            .map(|c| c.run(Mode::Library, &mut counts))
            .collect();
        let (catalog, sweep) = outs.split_at(report.cells.len());
        for (got, want) in catalog.iter().zip(&report.cells) {
            assert_eq!(
                got.print[..4],
                [
                    want.verdict as u64,
                    want.explored,
                    want.pruned,
                    want.deduped
                ],
                "{}",
                want.key()
            );
        }
        for (got, want) in sweep.iter().zip(&oom.cells) {
            assert_eq!(
                got.print[..5],
                [
                    want.verdict as u64,
                    want.sites,
                    want.injected,
                    want.committed_retries,
                    want.alloc_aborts
                ]
            );
        }
        assert_eq!(counts.mc_schedules, work.schedules);
        assert!(outs.iter().all(|o| !o.failed));
    }

    #[test]
    fn mc_sweep_cell_covers_its_space_and_reports_virtual_time() {
        let cells = prepare("mc-explore", 3).unwrap();
        let out = cells[0].run(Mode::Library, &mut Counts::default());
        assert!(!out.failed, "{:?}", out.notes);
        assert!(out.ops > 1 && out.virt_s > 0.0);
    }
}
