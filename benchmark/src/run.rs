//! One run of one workload in this process: set-up, timed passes,
//! correctness checks, and either the end-to-end metrics (untraced) or the
//! per-layer ones (traced).

use std::time::Instant;

use tm_obs::json::Json;

use crate::calib::{self, Clock};
use crate::catalog::{per_layer, END_TO_END};
use crate::host;
use crate::instrument::Counts;
use crate::probes::{self, Probes, Yard};
use crate::span::{self, Tracer};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{check_against, prepare, stamp_group, Cell, Mode, Outcome, STAMP_APPS};

/// Set-ups per run (their best-of estimate is `setup_s`) and the fewest
/// timed passes, whatever `--seconds` says.
const SETUPS: usize = 5;
const MIN_PASSES: usize = 5;

/// What the caller asked for.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up and one pass instead of five and at least five: `--smoke`.
    pub smoke: bool,
}

/// One reported number and the samples it was taken from (the rounds of a
/// best-of estimate; the number itself where it is exact).
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Summary,
}

/// The result of a run, before it is printed.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub spans: Vec<span::Span>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed cells as a share of the cells checked, over every pass.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric exactly a `value` and a `unit`.
    pub fn to_driver_json(&self) -> Json {
        self.to_json(|_| Vec::new())
    }

    /// The same with `failed_share`, and `n`, `median`, `q1` and `q3` of
    /// the samples beside every value: a row of the `tm-bench/v2` document.
    pub fn to_row_json(&self) -> Json {
        let mut row = self.to_json(|m| {
            vec![
                ("n".into(), Json::u64(m.samples.n as u64)),
                ("median".into(), Json::Num(m.samples.median)),
                ("q1".into(), Json::Num(m.samples.q1)),
                ("q3".into(), Json::Num(m.samples.q3)),
            ]
        });
        if let Json::Obj(pairs) = &mut row {
            pairs.insert(3, ("failed_share".into(), Json::Num(self.failed_share())));
        }
        row
    }

    fn to_json(&self, more: impl Fn(&Metric) -> Vec<(String, Json)>) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut pairs = vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ];
                            pairs.extend(more(m));
                            (m.name.clone(), Json::Obj(pairs))
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Tally of checked and failed cells over every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &[Outcome]) {
        for o in pass {
            self.attempted += 1;
            self.failed += u64::from(o.failed);
            // A defect repeats on every pass; one copy of its note is enough.
            for n in &o.notes {
                if !self.notes.contains(n) {
                    self.notes.push(n.clone());
                }
            }
        }
    }
}

/// One pass: every cell once, each in its own span. Returns the outcomes,
/// the pass's wall seconds and each cell's.
fn run_pass(
    tracer: &mut Tracer,
    name: &str,
    cells: &[Cell],
    mode: Mode,
    counts: &mut Counts,
) -> (Vec<Outcome>, f64, Vec<f64>) {
    let ((outcomes, cell_secs), secs) = tracer.scope(name, |tracer| {
        let mut outcomes = Vec::with_capacity(cells.len());
        let mut cell_secs = Vec::with_capacity(cells.len());
        for cell in cells {
            let (o, s) = tracer.scope(&cell.label(), |_| cell.run(mode, counts));
            outcomes.push(o);
            cell_secs.push(s);
        }
        (outcomes, cell_secs)
    });
    (outcomes, secs, cell_secs)
}

/// Generate the cells, run their reference checks and the warm-up pass
/// that every later pass must reproduce — on the heap as glibc ships it,
/// which is what a fresh `tmstudy` runs on. Returns with them the kernel
/// share of the warm-up pass's CPU time (the library's cells alone, not
/// the benchmark's own generating of them), and prints which kinds of
/// cell the kernel time went to (in clock ticks of 10 ms, so a single cell
/// resolves only when it takes tens of milliseconds).
fn cold_set_up(tracer: &mut Tracer, args: &RunArgs) -> Option<(Vec<Cell>, Vec<Outcome>, f64)> {
    let (r, _) = tracer.scope("setup", |tracer| {
        let cells = prepare(&args.workload, args.seed)?;
        let mut sys_ticks: Vec<(u64, String)> = Vec::new();
        let prepared = host::cpu_ticks();
        let (reference, _) = tracer.scope("pass.warmup", |tracer| {
            cells
                .iter()
                .map(|cell| {
                    let before = host::cpu_ticks();
                    let label = cell.label();
                    let (o, _) =
                        tracer.scope(&label, |_| cell.run(Mode::Library, &mut Counts::default()));
                    sys_ticks.push((host::cpu_ticks().1 - before.1, label));
                    o
                })
                .collect::<Vec<_>>()
        });
        let done = host::cpu_ticks();
        sys_ticks.sort_by(|a, b| b.cmp(a));
        println!(
            "cold warm-up pass of {}: {} of {} clock ticks in the kernel ({} of {} before it, generating the cells)",
            args.workload,
            done.1 - prepared.1,
            done.0 + done.1 - prepared.0 - prepared.1,
            prepared.1,
            prepared.0 + prepared.1
        );
        // By the first word of the cell labels (`mc.d3`, `stamp.bayes`, ...),
        // then the single cells that took more than a tick.
        let mut by_kind: Vec<(&str, u64)> = Vec::new();
        for (ticks, label) in &sys_ticks {
            let kind = label.split(' ').next().unwrap_or(label);
            match by_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, total)) => *total += ticks,
                None => by_kind.push((kind, *ticks)),
            }
        }
        for (kind, ticks) in by_kind.iter().filter(|(_, t)| *t > 0) {
            println!("  {ticks:>4} of them in the {kind} cells");
        }
        for (ticks, label) in sys_ticks.iter().take(3).filter(|(t, _)| *t > 1) {
            println!("  {ticks:>4} of them in  {label}");
        }
        Some((cells, reference, host::sys_share(prepared, done)))
    });
    r
}

/// One pass through the library's own drivers, every cell a sample of
/// the unit `first_unit` + its index.
fn library_pass(clock: &mut Clock, cells: &[Cell], first_unit: usize) -> Vec<Outcome> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            clock.time(first_unit + i, || {
                cell.run(Mode::Library, &mut Counts::default())
            })
        })
        .collect()
}

/// The untraced run: the numbers a user of the system sees.
fn run_untraced(args: &RunArgs) -> Option<RunResult> {
    host::pin_heap();
    let mut tally = Tally::default();
    let mut clock = Clock::start();

    // A set-up is unit 0 (generate the cells, run the reference checks)
    // and one unit per cell of its warm-up pass.
    let mut prepared = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        let cells = clock.time(0, || prepare(&args.workload, args.seed))?;
        let reference = library_pass(&mut clock, &cells, 1);
        tally.add(&reference);
        prepared = Some((cells, reference));
    }
    let (cells, reference) = prepared.expect("at least one set-up ran");
    let setups = clock.take();

    let min_passes = if args.smoke { 1 } else { MIN_PASSES };
    let mut passes = 0;
    let started = Instant::now();
    while passes < min_passes || started.elapsed().as_secs_f64() < args.seconds {
        let mut outcomes = library_pass(&mut clock, &cells, 0);
        passes += 1;
        check_against(&mut outcomes, &reference, "a timed pass");
        tally.add(&outcomes);
    }
    let timed = clock.take();

    let exact = |v: f64| (v, summarize(&[v]));
    let best = |samples: &[(usize, f64)], units: usize| {
        (
            calib::best_of(samples, units),
            summarize(&calib::round_totals(samples, units)),
        )
    };
    let values = [
        best(&timed, cells.len()),
        exact(host::peak_rss_mb()),
        best(&setups, 1 + cells.len()),
        exact(reference.iter().map(|o| o.virt_s).sum::<f64>() * 1e3),
        exact(reference.iter().map(|o| o.ops).sum::<u64>() as f64),
    ];
    Some(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (value, samples))| Metric {
                name: m.name.to_string(),
                unit: m.unit,
                value,
                samples,
            })
            .collect(),
        spans: Vec::new(),
    })
}

/// The traced run: spans around every call into a layer, the probes, and
/// the counts of one instrumented pass. Its timings never feed an
/// end-to-end metric.
fn run_traced(args: &RunArgs) -> Option<RunResult> {
    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let mut values: Vec<(String, f64)> = Vec::new();
    let started = Instant::now();

    let (body, _) = tracer.scope(&format!("workload {}", args.workload), |tracer| {
        let (cells, reference, sys_share) = cold_set_up(tracer, args)?;
        tally.add(&reference);
        // Everything after this runs on the pinned heap and pays the
        // kernel next to nothing.
        host::pin_heap();

        // The instrumented drivers must reproduce the library's results
        // bit for bit, here with the heap auditor under them.
        let mut audited = Counts::default();
        let (mut outcomes, _, _) = run_pass(
            tracer,
            "pass.audited",
            &cells,
            Mode::Instrumented { audit: true },
            &mut audited,
        );
        check_against(&mut outcomes, &reference, "the instrumented driver");
        tally.add(&outcomes);

        // Probes take two fifths of the measuring time, spread evenly.
        let yard = Yard::new();
        let budget = args.seconds * 0.4 / per_layer().len() as f64;
        let ((mut probed, units), _) = tracer.scope("probes", |tracer| {
            let mut p = Probes::new(tracer, &yard, budget);
            probes::run_all(&mut p, args.seed);
            (p.values, p.units)
        });
        values.append(&mut probed);

        // Untraced and traced passes alternate, so both see the same host.
        let (mut plain, mut traced, mut stretches) = (Vec::new(), Vec::new(), Vec::new());
        let mut counts = Counts::default();
        let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
        let min_pairs = if args.smoke { 1 } else { 3 };
        while plain.len() < min_pairs || started.elapsed().as_secs_f64() < args.seconds {
            // Both timings are carried to the reference host, like the
            // probes' unit costs they are compared with.
            let stretch = yard.stretch();
            stretches.push(stretch);
            let (mut a, secs, _) = run_pass(
                tracer,
                "pass.untraced",
                &cells,
                Mode::Library,
                &mut Counts::default(),
            );
            plain.push(secs / stretch);
            counts = Counts::default();
            let (mut b, secs, cell_secs) = run_pass(
                tracer,
                "pass",
                &cells,
                Mode::Instrumented { audit: false },
                &mut counts,
            );
            traced.push(secs / stretch);
            check_against(&mut a, &reference, "a timed pass");
            check_against(&mut b, &reference, "the instrumented driver");
            tally.add(&a);
            tally.add(&b);
            // Seconds per pass of each cell group (`stamp.<app>`, `mc.*`).
            let mut sums: Vec<(String, f64)> = Vec::new();
            for (cell, s) in cells.iter().zip(cell_secs) {
                if let Some(g) = cell.group() {
                    match sums.iter_mut().find(|(n, _)| *n == g) {
                        Some((_, total)) => *total += s,
                        None => sums.push((g, s)),
                    }
                }
            }
            for (g, total) in sums {
                match groups.iter_mut().find(|(n, _)| *n == g) {
                    Some((_, v)) => v.push(total),
                    None => groups.push((g, vec![total])),
                }
            }
        }

        let stm = counts.stm();
        let attempts = stm.commits + stm.aborts();
        let share = |part: f64, whole: f64| if whole == 0.0 { 0.0 } else { part / whole };
        for (name, v) in [
            ("sim.events", counts.sim_events),
            ("sim.l1_accesses", counts.l1_accesses),
            ("sim.l1_misses", counts.l1_misses),
            ("sim.l2_misses", counts.l2_misses),
            ("sim.coherence_transfers", counts.coherence_transfers),
            ("sim.lock_acquisitions", counts.lock_acquisitions),
            ("sim.lock_contended", counts.lock_contended),
            ("sim.resident_pages", counts.resident_pages),
            ("alloc.calls", counts.alloc_calls()),
            ("alloc.audit_violations", audited.audit_violations),
            ("stm.commits", stm.commits),
            ("stm.aborts", stm.aborts()),
            ("stm.reads", stm.reads),
            ("stm.writes", stm.writes),
            ("stm.tx_mallocs", stm.tx_mallocs),
            ("stm.tx_frees", stm.tx_frees),
            ("stm.extensions", stm.extensions),
            ("mc.schedules", counts.mc_schedules),
            ("mc.pruned", counts.mc_pruned),
            ("mc.deduped", counts.mc_deduped),
            ("mc.checkpoints", counts.mc_checkpoints),
            ("mc.replay_steps_saved", counts.mc_replay_steps_saved),
        ] {
            values.push((name.to_string(), v as f64));
        }
        values.push((
            "alloc.busy_share".into(),
            share(
                counts.alloc_virt_cycles as f64,
                counts.thread_virt_cycles as f64,
            ),
        ));
        values.push((
            "stm.commit_share".into(),
            share(stm.commits as f64, attempts as f64),
        ));
        // An mc group's metric is its seconds per pass; a STAMP app's is
        // the milliseconds of one of its cells. Zero where the workload
        // has no such cells.
        let group_secs = |group: &str| {
            groups
                .iter()
                .find(|(n, _)| n == group)
                .map_or(0.0, |(_, v)| median(v))
        };
        for app in STAMP_APPS {
            let group = stamp_group(app);
            let n = cells
                .iter()
                .filter(|c| c.group().as_deref() == Some(&group))
                .count();
            values.push((
                format!("{group}.host_ms"),
                group_secs(&group) * 1e3 / n.max(1) as f64,
            ));
        }
        for group in ["mc.d3", "mc.catalog", "mc.oom"] {
            values.push((format!("{group}_s"), group_secs(group)));
        }
        let traced_s = median(&traced);
        values.push(("host.sys_share".into(), sys_share));
        values.push(("host.speed".into(), 1.0 / median(&stretches)));
        values.push((
            "trace.overhead_share".into(),
            traced_s / median(&plain) - 1.0,
        ));
        values.push((
            "model.residual_share".into(),
            1.0 - units.model_ns(&counts) / (traced_s * 1e9),
        ));
        println!(
            "interaction model on {}: pass {:.1} ms = sim {:.1} + stm {:.1} + alloc {:.1} + mc {:.1} + residual {:.1}",
            args.workload,
            traced_s * 1e3,
            units.sim_ns(&counts) / 1e6,
            units.stm_ns(&counts) / 1e6,
            units.alloc_ns(&counts) / 1e6,
            units.mc_ns(&counts) / 1e6,
            traced_s * 1e3 - units.model_ns(&counts) / 1e6,
        );
        Some(())
    });
    body?;

    // Every catalogued metric exactly once, in catalogue order.
    let metrics = per_layer()
        .into_iter()
        .map(|l| {
            let mut found = values.iter().filter(|(n, _)| *n == l.name);
            let v = found
                .next()
                .unwrap_or_else(|| panic!("no value measured for {}", l.name))
                .1;
            assert!(found.next().is_none(), "{} measured twice", l.name);
            Metric {
                name: l.name,
                unit: l.unit,
                value: v,
                samples: summarize(&[v]),
            }
        })
        .collect::<Vec<_>>();
    assert_eq!(
        metrics.len(),
        values.len(),
        "a measured value is not catalogued"
    );
    Some(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
        metrics,
        spans: tracer.spans().to_vec(),
    })
}

/// Run one workload; `None` when its name is unknown.
pub fn run(args: &RunArgs) -> Option<RunResult> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failed_cell_makes_the_run_incorrect() {
        let run = |failed| RunResult {
            attempted: 40,
            failed,
            notes: Vec::new(),
            metrics: vec![Metric {
                name: "host_s".into(),
                unit: "s",
                value: 0.5,
                samples: summarize(&[0.5, 0.6]),
            }],
            spans: Vec::new(),
        };
        assert!(run(0).correct());
        assert_eq!(run(0).failed_share(), 0.0);
        let bad = run(1);
        assert!(!bad.correct());
        assert_eq!(bad.failed_share(), 0.025);
        let line = bad.to_driver_json();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
        // The driver's line holds exactly a value and a unit per metric;
        // the document's row adds the samples and the share.
        let metric = |j: &Json| match j.get("metrics").and_then(|m| m.get("host_s")) {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        assert_eq!(metric(&line), ["value", "unit"]);
        let row = bad.to_row_json();
        assert_eq!(metric(&row), ["value", "unit", "n", "median", "q1", "q3"]);
        assert_eq!(row.get("failed_share").and_then(Json::as_f64), Some(0.025));
    }
}
