//! Per-layer probes: micro-drivers that call one layer's public API in
//! isolation and report its host cost per operation.
//!
//! A probe above the simulator subtracts what the simulator below it cost
//! (its event and cache counters times the `sim.*` unit costs measured
//! first), so `stm.*` and `alloc.*` values are *self* times. That is what
//! the interaction model in [`Units::model_ns`] adds up: a faster layer
//! saves at most its count times the change in its unit cost. `ds.*`
//! values are whole operations, layers below included: the structures'
//! own code is a compare and a pointer step per node, and subtracting
//! some hundred accesses at their probe prices left it negative.
//!
//! Every probe runs batches until its time budget is spent and reports the
//! median batch, inside one span named after its metric. The host changes
//! speed between batches (see `calib`), which would turn a difference of
//! two timings taken a second apart into noise; so a [`Yard`] times a tiny
//! fixed simulator loop before each batch, and every timing is carried to
//! the reference host through it.

use std::sync::Arc;
use std::time::Instant;

use rand::{rngs::SmallRng, SeedableRng};
use tm_alloc::{AllocFaultPlan, Allocator, AllocatorKind};
use tm_core::synthetic::SyntheticConfig;
use tm_ds::{StructureKind, TxQueue};
use tm_mc::{OomSession, RunConfig, Session};
use tm_obs::json::Json;
use tm_sim::{Ctx, MachineConfig, Sim, SimReport};
use tm_stm::{BackendKind, Stm, StmConfig};

use crate::calib;
use crate::instrument::{self, AllocTrace, AnySet, Counts};
use crate::span::Tracer;
use crate::stats::median;

/// Short names of the allocators and backends in metric names, in the
/// order of `AllocatorKind as usize` and `BackendKind as usize`.
pub const ALLOC_KEYS: [(AllocatorKind, &str); 4] = [
    (AllocatorKind::Glibc, "glibc"),
    (AllocatorKind::Hoard, "hoard"),
    (AllocatorKind::TbbMalloc, "tbb"),
    (AllocatorKind::TcMalloc, "tc"),
];
pub const BACKEND_KEYS: [(BackendKind, &str); 3] = [
    (BackendKind::Etl, "etl"),
    (BackendKind::Norec, "norec"),
    (BackendKind::SimHtm, "htm"),
];

/// Host unit costs the interaction model multiplies counts by (ns).
#[derive(Clone, Debug, Default)]
pub struct Units {
    pub solo_event: f64,
    pub handoff: f64,
    pub l1_hit: f64,
    pub l1_miss: f64,
    pub l2_miss: f64,
    pub coherence: f64,
    pub lock: f64,
    /// Self time per begin+commit, read and write, per backend.
    pub stm_begin_commit: [f64; 3],
    pub stm_read: [f64; 3],
    pub stm_write: [f64; 3],
    /// Self time of a transactional malloc + free pair.
    pub stm_malloc_free: f64,
    /// Self time per allocator call in the replayed trace, per allocator.
    pub alloc_call: [f64; 4],
    /// Model-checker prices: one checkpointed schedule, one session
    /// set-up, one OOM-sweep site.
    pub mc_schedule: f64,
    pub mc_session_new: f64,
    pub mc_oom_site: f64,
}

impl Units {
    /// Every unit cost times `k`: the costs as they are on a host running
    /// `k` times slower than the reference.
    fn stretched(&self, k: f64) -> Units {
        let each = |a: [f64; 3]| a.map(|v| v * k);
        Units {
            solo_event: self.solo_event * k,
            handoff: self.handoff * k,
            l1_hit: self.l1_hit * k,
            l1_miss: self.l1_miss * k,
            l2_miss: self.l2_miss * k,
            coherence: self.coherence * k,
            lock: self.lock * k,
            stm_begin_commit: each(self.stm_begin_commit),
            stm_read: each(self.stm_read),
            stm_write: each(self.stm_write),
            stm_malloc_free: self.stm_malloc_free * k,
            alloc_call: self.alloc_call.map(|v| v * k),
            mc_schedule: self.mc_schedule * k,
            mc_session_new: self.mc_session_new * k,
            mc_oom_site: self.mc_oom_site * k,
        }
    }

    /// Host ns the simulator is expected to spend on a run with these
    /// counters: every event pays the scheduler (the hand-off price when
    /// other threads exist, the solo price otherwise), every access pays
    /// its cache-model outcome above the bare event, every lock pair its
    /// own price.
    pub fn sim_ns(&self, c: &Counts) -> f64 {
        let solo_events = (c.sim_events - c.sim_events_shared) as f64;
        let l1_hits = (c.l1_accesses - c.l1_misses) as f64;
        let l2_hits = (c.l1_misses - c.l2_misses) as f64;
        solo_events * self.solo_event
            + c.sim_events_shared as f64 * self.handoff
            + l1_hits * (self.l1_hit - self.solo_event)
            + l2_hits * (self.l1_miss - self.solo_event)
            + c.l2_misses as f64 * (self.l2_miss - self.solo_event)
            + c.coherence_transfers as f64 * self.coherence
            + c.lock_acquisitions as f64 * self.lock
    }

    /// Host ns the `stm` layer itself is expected to add: per attempt,
    /// per read and per write at the backend's prices, and per
    /// transactional malloc/free pair (mallocs and frees nearly pair up,
    /// so half their sum counts the pairs).
    pub fn stm_ns(&self, c: &Counts) -> f64 {
        c.stm_by
            .iter()
            .enumerate()
            .map(|(b, s)| {
                (s.commits + s.aborts()) as f64 * self.stm_begin_commit[b]
                    + s.reads as f64 * self.stm_read[b]
                    + s.writes as f64 * self.stm_write[b]
                    + (s.tx_mallocs + s.tx_frees) as f64 / 2.0 * self.stm_malloc_free
            })
            .sum()
    }

    /// Host ns the `alloc` layer itself is expected to add.
    pub fn alloc_ns(&self, c: &Counts) -> f64 {
        c.alloc_calls_by
            .iter()
            .zip(self.alloc_call)
            .map(|(calls, unit)| *calls as f64 * unit)
            .sum()
    }

    /// Host ns the `mc` layer is expected to take as a whole (it drives
    /// its own simulators, so nothing below it is counted separately).
    pub fn mc_ns(&self, c: &Counts) -> f64 {
        c.mc_schedules as f64 * self.mc_schedule
            + c.mc_checkpoints as f64 * self.mc_session_new
            + c.mc_oom_sites as f64 * self.mc_oom_site
    }

    /// The written-down interaction model: host ns a pass with these
    /// counts should take if the four layers' counted operations at their
    /// probed prices were all there is. Whatever the measured pass takes
    /// beyond it — the drivers' own loops and RNG, `Sim::new` and teardown
    /// per cell, an operation costing more in the workload than in its
    /// probe — is the residual.
    pub fn model_ns(&self, c: &Counts) -> f64 {
        self.sim_ns(c) + self.stm_ns(c) + self.alloc_ns(c) + self.mc_ns(c)
    }
}

/// One timed simulator run with what the simulator counted during it.
struct SimBatch {
    secs: f64,
    cycles: u64,
    counts: Counts,
}

impl SimBatch {
    fn ns(&self) -> f64 {
        self.secs * 1e9
    }

    /// What the run took beyond what the simulator below is expected to
    /// have cost.
    fn self_ns(&self, units: &Units) -> f64 {
        self.ns() - units.sim_ns(&self.counts)
    }
}

fn counts_of(r: &SimReport, events: u64) -> Counts {
    Counts {
        sim_events: events,
        sim_events_shared: if r.threads > 1 { events } else { 0 },
        l1_accesses: r.cache_total.l1_accesses,
        l1_misses: r.cache_total.l1_misses,
        l2_misses: r.cache_total.l2_misses,
        coherence_transfers: r.cache_total.coherence_transfers,
        lock_acquisitions: r.locks.acquisitions,
        ..Counts::default()
    }
}

/// Run `f` on `threads` simulated threads and time the whole run.
fn sim_batch(sim: &Sim, threads: usize, f: impl Fn(&mut Ctx<'_>) + Sync) -> SimBatch {
    let events = sim.events();
    let start = Instant::now();
    let report = sim.run(threads, f);
    let secs = start.elapsed().as_secs_f64();
    SimBatch {
        secs,
        cycles: report.cycles,
        counts: counts_of(&report, sim.events() - events),
    }
}

/// Time `reps` calls of `f` and return microseconds per call.
fn us_per_call(reps: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn xeon() -> Sim {
    Sim::new(MachineConfig::xeon_e5405())
}

/// The yardstick that carries a timing taken now to the reference host: a
/// fixed loop of L1-hit reads on a simulator of its own, timed once beside
/// the calibration kernel and again whenever a timing needs carrying.
pub struct Yard {
    sim: Sim,
    /// Seconds the loop would take on the reference host.
    reference_s: f64,
}

impl Yard {
    const READS: u64 = 4_000;

    pub fn new() -> Yard {
        let yard = Yard {
            sim: xeon(),
            reference_s: 0.0,
        };
        yard.sim.with_state(|m| m.write_u64(REGION, 1));
        yard.lap();
        let before = calib::kernel_seconds();
        let laps: Vec<f64> = (0..9).map(|_| yard.lap()).collect();
        let after = calib::kernel_seconds();
        Yard {
            reference_s: median(&laps) * calib::REFERENCE_S / before.min(after),
            ..yard
        }
    }

    fn lap(&self) -> f64 {
        let start = Instant::now();
        self.sim.run(1, |ctx| {
            for _ in 0..Self::READS {
                ctx.read_u64(REGION);
            }
        });
        start.elapsed().as_secs_f64()
    }

    /// How many times slower than the reference host this host runs right
    /// now (the quicker of two laps, as interference only adds time).
    pub fn stretch(&self) -> f64 {
        self.lap().min(self.lap()) / self.reference_s
    }
}

/// What a probe's reading is, which decides how it is carried to the
/// reference host.
#[derive(Clone, Copy)]
enum Reading {
    /// A duration: divided by the stretch.
    Time,
    /// Work per second: multiplied by it.
    Rate,
}

/// Collects probe results and owns the per-probe time budget.
pub struct Probes<'a> {
    tracer: &'a mut Tracer,
    yard: &'a Yard,
    budget_s: f64,
    pub values: Vec<(String, f64)>,
    /// Unit costs on the reference host.
    pub units: Units,
}

impl<'a> Probes<'a> {
    pub fn new(tracer: &'a mut Tracer, yard: &'a Yard, budget_s: f64) -> Probes<'a> {
        Probes {
            tracer,
            yard,
            budget_s,
            values: Vec::new(),
            units: Units::default(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Run `batch` under a span called `name` until the budget is spent,
    /// at least three times; record and return the median reading on the
    /// reference host. The batch sees the unit costs measured so far as
    /// they are on the host right now.
    fn measure(&mut self, name: &str, kind: Reading, mut batch: impl FnMut(&Units) -> f64) -> f64 {
        let (budget, yard, units) = (self.budget_s, self.yard, &self.units);
        let (readings, _) = self.tracer.scope(name, |_| {
            let start = Instant::now();
            let mut readings = Vec::new();
            while readings.len() < 3 || start.elapsed().as_secs_f64() < budget {
                let stretch = yard.stretch();
                let now = batch(&units.stretched(stretch));
                readings.push(match kind {
                    Reading::Time => now / stretch,
                    Reading::Rate => now * stretch,
                });
            }
            readings
        });
        let v = median(&readings);
        self.put(name, v);
        v
    }

    /// [`Probes::measure`] of a duration, which nearly every probe is.
    fn probe(&mut self, name: &str, batch: impl FnMut(&Units) -> f64) -> f64 {
        self.measure(name, Reading::Time, batch)
    }
}

const REGION: u64 = 0x2000_0000;
const N: u64 = 20_000;

fn sim_probes(p: &mut Probes<'_>) {
    p.probe("sim.new_us", |_| {
        us_per_call(4, || {
            std::hint::black_box(xeon());
        })
    });

    let sim = xeon();
    p.probe("sim.run_spawn_us", |_| {
        us_per_call(16, || {
            sim.run(8, |_| {});
        })
    });

    for (pages, suffix) in [(64u64, ""), (4096, "_4k")] {
        let sim = xeon();
        let dirty = |round: u64| {
            sim.run(1, |ctx| {
                for page in 0..pages {
                    ctx.write_u64(REGION + page * 4096, round);
                }
            });
        };
        dirty(0);
        let root = sim.snapshot(None);
        let mut round = 0;
        p.probe(&format!("sim.snapshot_us{suffix}"), |_| {
            round += 1;
            dirty(round);
            let start = Instant::now();
            let snap = sim.snapshot(Some(&root));
            let us = start.elapsed().as_secs_f64() * 1e6;
            drop(snap);
            us
        });
        p.probe(&format!("sim.restore_us{suffix}"), |_| {
            round += 1;
            dirty(round);
            us_per_call(1, || sim.restore(&root))
        });
    }

    let sim = xeon();
    p.units.solo_event = p.probe("sim.solo_event_ns", |_| {
        let b = sim_batch(&sim, 1, |ctx| {
            for _ in 0..N {
                ctx.fence();
            }
        });
        b.ns() / b.counts.sim_events as f64
    });
    p.units.handoff = p.probe("sim.handoff_ns", |_| {
        // Equal clocks advancing in lockstep: every event hands the
        // minimum to another thread.
        let b = sim_batch(&sim, 8, |ctx| {
            for _ in 0..N / 8 {
                ctx.tick(1);
                ctx.fence();
            }
        });
        b.ns() / b.counts.sim_events as f64
    });
    p.units.l1_hit = p.probe("sim.l1_hit_ns", |_| {
        let b = sim_batch(&sim, 1, |ctx| {
            for _ in 0..N {
                ctx.read_u64(REGION);
            }
        });
        b.ns() / N as f64
    });
    // 4096 lines cycled in order: more than the L1's 512, far fewer than
    // the L2's 98 304, so after one lap every read misses L1 and hits L2.
    let lap = || {
        sim_batch(&sim, 1, |ctx| {
            for i in 0..N {
                ctx.read_u64(REGION + (i % 4096) * 64);
            }
        })
    };
    lap();
    p.units.l1_miss = p.probe("sim.l1_miss_ns", |_| lap().ns() / N as f64);
    // 262 144 lines cycled in order put 64 lines on every 24-way L2 set:
    // each is evicted before its turn comes again, so every read goes to
    // memory. A cursor carries the position from batch to batch.
    let mut cursor = 0u64;
    p.units.l2_miss = p.probe("sim.l2_miss_ns", |_| {
        let from = cursor;
        cursor += N;
        let b = sim_batch(&sim, 1, |ctx| {
            for i in from..from + N {
                ctx.read_u64(REGION + 0x1000_0000 + (i % 262_144) * 64);
            }
        });
        b.ns() / N as f64
    });
    // Two threads writing one line take it from each other on every
    // access; writing a line each is the same schedule without transfers.
    let ping = |stride: u64| {
        sim_batch(&sim, 2, move |ctx| {
            let addr = REGION + 0x0800_0000 + ctx.tid() as u64 * stride;
            for i in 0..N / 2 {
                ctx.write_u64(addr, i);
                ctx.tick(1);
            }
        })
    };
    p.units.coherence = p.probe("sim.coherence_ns", |_| {
        let shared = ping(0);
        let private = ping(4096);
        (shared.ns() - private.ns()) / shared.counts.coherence_transfers.max(1) as f64
    });
    let mx = sim.new_mutex();
    p.units.lock = p.probe("sim.lock_ns", |_| {
        let b = sim_batch(&sim, 1, |ctx| {
            for _ in 0..N {
                ctx.lock(mx);
                ctx.unlock(mx);
            }
        });
        b.ns() / N as f64
    });
    // The sparse memory alone (no cache model): consecutive reads on
    // different resident pages walk the page table every time.
    const WALK: u64 = REGION + 0x2000_0000;
    sim.with_state(|m| {
        for page in 0..4096u64 {
            m.write_u64(WALK + page * 4096, page);
        }
    });
    p.probe("sim.page_walk_ns", |_| {
        let start = Instant::now();
        let sum = sim.with_state(|m| {
            (0..N).fold(0u64, |sum, i| {
                sum.wrapping_add(m.read_u64(WALK + (i % 4096) * 4096))
            })
        });
        std::hint::black_box(sum);
        start.elapsed().as_secs_f64() * 1e9 / N as f64
    });
    p.probe("sim.htm_access_ns", |_| {
        const LINES: u64 = 32;
        let b = sim_batch(&sim, 1, |ctx| {
            for _ in 0..N / LINES {
                ctx.htm_begin();
                for line in 0..LINES {
                    let _ = ctx.htm_read_u64(REGION + line * 64);
                }
                let _ = ctx.htm_commit(&[]);
            }
        });
        b.ns() / (N / LINES * LINES) as f64
    });
}

/// Record the allocator calls of one list, one rbtree and one hash cell —
/// the satellite's trace: `(tid, size, malloc|free)` through the counting
/// wrapper, at an eighth of the benchmark's cell size.
fn record_traces(seed: u64) -> Vec<AllocTrace> {
    [
        StructureKind::LinkedList,
        StructureKind::RbTree,
        StructureKind::HashSet,
    ]
    .into_iter()
    .map(|structure| {
        let mut cfg = SyntheticConfig::scaled(structure, AllocatorKind::TbbMalloc, 8);
        cfg.ops_per_thread /= 8;
        cfg.seed = seed;
        let mut trace = AllocTrace::default();
        instrument::synthetic(&cfg, false, &mut Counts::default(), Some(&mut trace));
        trace
    })
    .collect()
}

fn alloc_probes(p: &mut Probes<'_>, seed: u64) {
    const PAIRS: u64 = 4096;
    const RUN: usize = 2048;
    let traces = record_traces(seed);
    for (i, (kind, key)) in ALLOC_KEYS.into_iter().enumerate() {
        let sim = xeon();
        let alloc = kind.build(&sim);
        let pairs = |size: u64| {
            sim_batch(&sim, 1, |ctx| {
                for _ in 0..PAIRS {
                    let a = alloc.malloc(ctx, size);
                    alloc.free(ctx, a);
                }
            })
        };
        let mut cycles = 0;
        p.probe(&format!("alloc.{key}.fast_ns"), |u| {
            let b = pairs(64);
            cycles = b.cycles;
            b.self_ns(u) / PAIRS as f64
        });
        p.put(
            format!("alloc.{key}.virt_cycles_per_pair"),
            cycles as f64 / PAIRS as f64,
        );
        p.probe(&format!("alloc.{key}.slow_ns"), |u| {
            let b = sim_batch(&sim, 1, |ctx| {
                let blocks: Vec<u64> = (0..RUN).map(|_| alloc.malloc(ctx, 64)).collect();
                for a in blocks {
                    alloc.free(ctx, a);
                }
            });
            b.self_ns(u) / (2 * RUN) as f64
        });
        p.probe(&format!("alloc.{key}.large_ns"), |u| {
            pairs(8192).self_ns(u) / PAIRS as f64
        });
        p.probe(&format!("alloc.{key}.remote_free_ns"), |u| {
            let blocks = parking_lot::Mutex::new(Vec::new());
            sim.run(1, |ctx| {
                *blocks.lock() = (0..RUN).map(|_| alloc.malloc(ctx, 64)).collect();
            });
            // Thread 1 frees what thread 0 allocated; thread 0 is idle, so
            // nothing is handed off while the frees run.
            let b = sim_batch(&sim, 2, |ctx| {
                if ctx.tid() == 1 {
                    for a in blocks.lock().drain(..) {
                        alloc.free(ctx, a);
                    }
                }
            });
            let mut counts = b.counts.clone();
            counts.sim_events_shared = 0;
            (b.ns() - u.sim_ns(&counts)) / RUN as f64
        });
        p.probe(&format!("alloc.{key}.snapshot_us"), |_| {
            us_per_call(8, || {
                std::hint::black_box(alloc.snapshot());
            })
        });
        let mut os_bytes = 0;
        p.units.alloc_call[i] = p.probe(&format!("alloc.{key}.replay_ns_per_op"), |u| {
            let (mut ns, mut ops) = (0.0, 0);
            os_bytes = 0;
            for t in &traces {
                let r = instrument::replay(t, kind);
                ns += r.host_s * 1e9 - u.sim_ns(&r.counts);
                ops += r.ops;
                os_bytes += r.os_bytes;
            }
            ns / ops as f64
        });
        p.put(format!("alloc.{key}.os_bytes"), os_bytes as f64);
    }
}

fn stm_probes(p: &mut Probes<'_>) {
    const TXNS: u64 = 2000;
    const READS: u64 = 64;
    const WRITES: u64 = 16;
    for (i, (backend, key)) in BACKEND_KEYS.into_iter().enumerate() {
        let sim = xeon();
        let stm = Stm::new(
            &sim,
            AllocatorKind::TbbMalloc.build(&sim),
            StmConfig {
                backend,
                ..StmConfig::default()
            },
        );
        // One transaction shape per probe: `reads` loads, then `writes`
        // stores, over distinct words of a few lines.
        let txns = |reads: u64, writes: u64| {
            sim_batch(&sim, 1, |ctx| {
                let mut th = stm.thread(0);
                for _ in 0..TXNS {
                    stm.txn(ctx, &mut th, |tx, ctx| {
                        for w in 0..reads {
                            tx.read(ctx, REGION + w * 8)?;
                        }
                        for w in 0..writes {
                            tx.write(ctx, REGION + 4096 + w * 8, w)?;
                        }
                        Ok(())
                    });
                }
                stm.retire(th);
            })
        };
        p.units.stm_begin_commit[i] = p.probe(&format!("stm.{key}.begin_commit_ns"), |u| {
            txns(0, 0).self_ns(u) / TXNS as f64
        });
        p.units.stm_read[i] = p.probe(&format!("stm.{key}.read_ns"), |u| {
            (txns(READS, 0).self_ns(u) / TXNS as f64 - u.stm_begin_commit[i]) / READS as f64
        });
        p.units.stm_write[i] = p.probe(&format!("stm.{key}.write_ns"), |u| {
            (txns(0, WRITES).self_ns(u) / TXNS as f64 - u.stm_begin_commit[i]) / WRITES as f64
        });
    }

    let sim = xeon();
    let alloc = AllocatorKind::TbbMalloc.build(&sim);
    let stm = Stm::new(&sim, Arc::clone(&alloc), StmConfig::default());
    // The shape of a set's insert and remove: one transaction allocates a
    // block and commits, a later one frees it.
    p.units.stm_malloc_free = p.probe("stm.tx_malloc_free_ns", |u| {
        let b = sim_batch(&sim, 1, |ctx| {
            let mut th = stm.thread(0);
            let mut blocks = Vec::with_capacity(TXNS as usize);
            for _ in 0..TXNS {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    blocks.push(tx.malloc(ctx, 64));
                    Ok(())
                });
            }
            for a in blocks {
                stm.txn(ctx, &mut th, |tx, ctx| {
                    tx.free(ctx, a);
                    Ok(())
                });
            }
            stm.retire(th);
        });
        b.self_ns(u) / TXNS as f64 - 2.0 * u.stm_begin_commit[0]
    });
    p.probe("stm.new_us", |_| {
        us_per_call(4, || {
            std::hint::black_box(Stm::new(&sim, Arc::clone(&alloc), StmConfig::default()));
        })
    });
    p.probe("stm.thread_new_us", |_| {
        us_per_call(256, || stm.retire(stm.thread(0)))
    });
}

fn ds_probes(p: &mut Probes<'_>) {
    const OPS: u64 = 2000;
    for (structure, key) in [
        (StructureKind::LinkedList, "list"),
        (StructureKind::HashSet, "hash"),
        (StructureKind::RbTree, "rbtree"),
    ] {
        let mut cfg = SyntheticConfig::scaled(structure, AllocatorKind::TbbMalloc, 1);
        cfg.ops_per_thread = OPS;
        let sim = xeon();
        let stm = Stm::new(
            &sim,
            AllocatorKind::TbbMalloc.build(&sim),
            StmConfig::default(),
        );
        let set = parking_lot::Mutex::new(None);
        sim.run(1, |ctx| {
            let s = AnySet::new(&cfg, &stm, ctx);
            let mut th = stm.thread(0);
            let mut rng = SmallRng::seed_from_u64(1);
            instrument::populate(s.as_set(), &stm, ctx, &mut th, &mut rng, &cfg);
            stm.retire(th);
            *set.lock() = Some(s);
        });
        let set = set.into_inner().expect("the populate run built the set");
        let mut round = 1;
        // The synthetic benchmark's mix on one thread: 60 % updates that
        // alternate insert and remove, 40 % lookups.
        p.probe(&format!("ds.{key}.op_ns"), |_| {
            round += 1;
            let b = sim_batch(&sim, 1, |ctx| {
                let mut th = stm.thread(0);
                let mut rng = SmallRng::seed_from_u64(round);
                instrument::mixed_ops(set.as_set(), &stm, ctx, &mut th, &mut rng, &cfg);
                stm.retire(th);
            });
            b.ns() / OPS as f64
        });
    }

    let sim = xeon();
    let stm = Stm::new(
        &sim,
        AllocatorKind::TbbMalloc.build(&sim),
        StmConfig::default(),
    );
    let queue = parking_lot::Mutex::new(None);
    sim.run(1, |ctx| *queue.lock() = Some(TxQueue::new(&stm, ctx)));
    let queue = queue.into_inner().expect("the first run built the queue");
    p.probe("ds.queue.op_ns", |_| {
        let b = sim_batch(&sim, 1, |ctx| {
            let mut th = stm.thread(0);
            for v in 0..OPS / 2 {
                queue.push(&stm, ctx, &mut th, v);
                queue.pop(&stm, ctx, &mut th);
            }
            stm.retire(th);
        });
        b.ns() / OPS as f64
    });
}

fn mc_probes(p: &mut Probes<'_>) {
    let program = tm_mc::small_program();
    let cfg = RunConfig::clean();
    let zero = vec![0u64; program.points()];
    p.units.mc_session_new = 1e3
        * p.probe("mc.session_new_us", |_| {
            us_per_call(4, || {
                std::hint::black_box(Session::try_new(&program, &cfg));
            })
        });
    let mut session = Session::try_new(&program, &cfg).expect("the clean cell checkpoints");
    p.units.mc_schedule = 1e3
        * p.probe("mc.schedule_us", |_| {
            us_per_call(16, || {
                session.run(&zero).expect("the clean STM conserves");
            })
        });
    p.probe("mc.enumerate_schedule_us", |_| {
        us_per_call(4, || {
            tm_mc::run_schedule(&program, &cfg, &zero).expect("the clean STM conserves");
        })
    });
    let oom = tm_mc::oom_program();
    let mut session = OomSession::try_new(&oom, &cfg).expect("the clean oom cell checkpoints");
    p.units.mc_oom_site = 1e3
        * p.probe("mc.oom_site_us", |_| {
            us_per_call(8, || {
                // One site past the seed phase's: the first transactional
                // allocation fails, aborts, and is retried.
                let site = session.seed_sites() + 1;
                session
                    .run(AllocFaultPlan::NthSite(site))
                    .expect("the clean STM absorbs one failed allocation");
            })
        });
}

/// Where the committed exhibit reports live, relative to this package.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");

fn tooling_probes(p: &mut Probes<'_>) {
    let slots = tm_obs::ShardedSlots::new(8, 16);
    p.probe("obs.sharded_add_ns", |_| {
        let start = Instant::now();
        for i in 0..N as usize {
            slots.add(i % 8, i % 16, 1);
        }
        start.elapsed().as_secs_f64() * 1e9 / N as f64
    });
    let trace = tm_obs::Trace::new(8, 4096);
    trace.set_enabled(true);
    p.probe("obs.trace_event_ns", |_| {
        let start = Instant::now();
        for i in 0..N {
            trace.emit((i % 8) as usize, i, tm_obs::EventKind::TxBegin, i, 0);
        }
        start.elapsed().as_secs_f64() * 1e9 / N as f64
    });

    // The committed exhibit reports, read-only, are the JSON corpus.
    let mut texts: Vec<String> = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(RESULTS_DIR)
        .unwrap_or_else(|e| panic!("cannot read {RESULTS_DIR}: {e}"))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    for path in names {
        texts.push(std::fs::read_to_string(&path).expect("read a committed report"));
    }
    let bytes: usize = texts.iter().map(String::len).sum();
    let mb_per_s = |secs: f64| bytes as f64 / 1e6 / secs;
    let mut docs: Vec<Json> = Vec::new();
    p.measure("obs.json_parse_mb_s", Reading::Rate, |_| {
        let start = Instant::now();
        docs = texts
            .iter()
            .map(|t| Json::parse(t).expect("a committed report parses"))
            .collect();
        mb_per_s(start.elapsed().as_secs_f64())
    });
    p.measure("obs.json_emit_mb_s", Reading::Rate, |_| {
        let start = Instant::now();
        for d in &docs {
            std::hint::black_box(d.emit_pretty());
        }
        mb_per_s(start.elapsed().as_secs_f64())
    });

    p.probe("core.stack_build_us", |_| {
        us_per_call(4, || {
            std::hint::black_box(
                tm_core::build_stack(AllocatorKind::TbbMalloc, StmConfig::default()).sim,
            );
        })
    });
    let reports = tm_core::book::load_results_dir(RESULTS_DIR).expect("load the exhibit reports");
    p.probe("core.book_render_ms", |_| {
        us_per_call(1, || {
            std::hint::black_box(tm_core::book::render_book(&reports));
        }) / 1e3
    });
    p.probe("sweep.cell_overhead_us", |_| {
        const CELLS: usize = 64;
        let cells: Vec<_> = (0..CELLS)
            .map(|i| vec![("cell".to_string(), i.to_string())])
            .collect();
        let policy = tm_sweep::Policy {
            workers: 1,
            ..tm_sweep::Policy::default()
        };
        let start = Instant::now();
        let report = tm_sweep::run_cells("probe", cells, Arc::new(|_| Ok(vec![])), &policy);
        assert_eq!(report.degraded(), 0);
        start.elapsed().as_secs_f64() * 1e6 / CELLS as f64
    });
    p.probe("check.oracle_cell_ms", |_| {
        us_per_call(1, || {
            let cell = tm_check::run_synth_cell(&tm_check::SynthCheckConfig::quick(
                StructureKind::HashSet,
                AllocatorKind::TbbMalloc,
                4,
            ));
            assert_eq!(cell.status, tm_obs::CheckStatus::Pass);
        }) / 1e3
    });
}

/// Run every probe. `seed` picks the keys of the recorded allocation
/// trace; nothing else in the probes is random.
pub fn run_all(p: &mut Probes<'_>, seed: u64) {
    sim_probes(p);
    stm_probes(p);
    alloc_probes(p, seed);
    ds_probes(p);
    mc_probes(p);
    tooling_probes(p);
}
