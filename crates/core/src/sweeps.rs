//! Cell runners and spec building for `tmstudy sweep`.
//!
//! A sweep cell is a flat `(key, value)` configuration produced by
//! [`tm_obs::sweep::SweepSpec::expand`]; [`run_cell`] parses one such
//! configuration into a library workload (synthetic structures, STAMP
//! applications, threadtest), runs it and returns named scalar metrics.
//! Everything returns `Result` rather than panicking so that a cell that
//! fails degrades to an `error` cell in the matrix instead of taking down
//! the whole sweep. [`tm_obs::sweep::run_spec`] runs the cells
//! one after another on the calling thread.
//!
//! [`spec_from_flags`] turns `tmstudy sweep` command-line flags into a
//! [`tm_obs::sweep::SweepSpec`]: comma-separated flag values become axes in a
//! fixed canonical order (so the expansion order — and therefore the
//! matrix cell order — does not depend on the order flags were typed),
//! and `--reps N` adds a trailing `rep` axis to force repetitions. It
//! parses every cell before any runs: a value a cell's parser refuses is
//! an error of the whole spec.

use std::collections::HashMap;

use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_obs::sweep::SweepSpec;
use tm_sim::MachineConfig;
use tm_stamp::runner::{make_app, run_app, StampOpts};
use tm_stamp::AppKind;
use tm_stm::{LockDesign, OrtHash, WriteMode};

use crate::synthetic::{run_synthetic, SyntheticConfig};
use crate::threadtest::{run_threadtest, ThreadtestConfig};

fn lookup<'a>(config: &'a [(String, String)], key: &str) -> Option<&'a str> {
    config
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn parse<T: std::str::FromStr>(
    config: &[(String, String)],
    key: &str,
    default: T,
) -> Result<T, String> {
    match lookup(config, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {key} '{v}'")),
    }
}

/// The `threads` key (default 8), checked against the cores of the
/// machine the workload builds: the core count sizes every allocator
/// model's per-thread tables and bounds `Sim::run`, so a count outside
/// `1..=cores` is bad input here rather than a panic there.
fn threads_of(config: &[(String, String)], machine: &MachineConfig) -> Result<usize, String> {
    let (threads, cores) = (parse(config, "threads", 8)?, machine.cores);
    if (1..=cores).contains(&threads) {
        Ok(threads)
    } else {
        Err(format!(
            "bad --threads '{threads}' (1..={cores} simulated cores)"
        ))
    }
}

fn alloc_of(config: &[(String, String)]) -> Result<AllocatorKind, String> {
    lookup(config, "alloc").map_or(Ok(AllocatorKind::TbbMalloc), str::parse)
}

/// Parse one backend token with the clean-error contract: unknown values
/// name the valid set instead of failing opaquely.
pub fn parse_backend(v: &str) -> Result<tm_stm::BackendKind, String> {
    tm_stm::BackendKind::parse(v).ok_or_else(|| {
        format!(
            "unknown backend '{v}' (valid backends: {})",
            tm_stm::BackendKind::list()
        )
    })
}

/// Parse one contention-manager token with the same clean-error contract
/// as [`parse_backend`].
pub fn parse_cm(v: &str) -> Result<tm_stm::CmKind, String> {
    tm_stm::CmKind::parse(v).ok_or_else(|| {
        format!(
            "unknown contention manager '{v}' (valid --cm values: {})",
            tm_stm::CmKind::list()
        )
    })
}

/// The STM-stack knobs every transactional workload shares, read from
/// their keys — `backend`, `cm`, `shift`, `seed`, `alloc-fault`, and the
/// bare `object-cache` / `ctl` / `write-through` / `mix-hash` switches
/// (on when present) — in the one struct that holds exactly those. A
/// combination the STM does not run is an error ([`tm_stm::StmConfig::check`]).
fn stack_opts(config: &[(String, String)]) -> Result<StampOpts, String> {
    let on = |key| lookup(config, key).is_some();
    let defaults = StampOpts::default();
    let opts = StampOpts {
        backend: lookup(config, "backend").map_or(Ok(defaults.backend), parse_backend)?,
        cm: lookup(config, "cm").map_or(Ok(defaults.cm), parse_cm)?,
        shift: parse(config, "shift", defaults.shift)?,
        seed: parse(config, "seed", defaults.seed)?,
        alloc_fault: lookup(config, "alloc-fault")
            .map_or(Ok(defaults.alloc_fault), tm_alloc::AllocFaultPlan::parse)?,
        object_cache: on("object-cache"),
        design: if on("ctl") {
            LockDesign::Ctl
        } else {
            LockDesign::Etl
        },
        write_mode: if on("write-through") {
            WriteMode::Through
        } else {
            WriteMode::Back
        },
        ort_hash: if on("mix-hash") {
            OrtHash::Mix
        } else {
            OrtHash::ShiftMod
        },
        ..defaults
    };
    opts.stm_config().check()?;
    Ok(opts)
}

/// The synthetic-benchmark configuration a `(key, value)` list describes
/// — a sweep cell's config or `tmstudy synth`'s flags: `structure`,
/// `alloc`, `threads`, `update-pct`, `size`, `ops`, `seed` and the stack knobs,
/// each defaulting as [`SyntheticConfig::scaled`] does. A value that does
/// not parse is an error naming its key.
pub fn synth_config(config: &[(String, String)]) -> Result<SyntheticConfig, String> {
    let structure = match lookup(config, "structure") {
        Some("list") | Some("linked-list") => StructureKind::LinkedList,
        Some("hash") | Some("hashset") => StructureKind::HashSet,
        Some("rbtree") | Some("tree") | None => StructureKind::RbTree,
        Some(other) => return Err(format!("unknown structure '{other}'")),
    };
    let stack = stack_opts(config)?;
    let mut cfg = SyntheticConfig::scaled(structure, alloc_of(config)?, 8);
    cfg.threads = threads_of(config, &cfg.machine)?;
    cfg.backend = stack.backend;
    cfg.cm = stack.cm;
    cfg.shift = stack.shift;
    cfg.alloc_fault = stack.alloc_fault;
    cfg.object_cache = stack.object_cache;
    cfg.design = stack.design;
    cfg.write_mode = stack.write_mode;
    cfg.ort_hash = stack.ort_hash;
    cfg.update_pct = parse(config, "update-pct", cfg.update_pct)?;
    if cfg.update_pct > 100 {
        return Err(format!("bad --update-pct '{}' (0..=100)", cfg.update_pct));
    }
    // The same derivations `scaled` makes from its own initial size.
    cfg.initial_size = parse(config, "size", cfg.initial_size)?;
    if cfg.initial_size == 0 {
        return Err("bad --size '0' (a structure starts with at least 1 element)".into());
    }
    let key_range = cfg.initial_size.checked_mul(2);
    let buckets = cfg
        .initial_size
        .checked_mul(32)
        .and_then(u64::checked_next_power_of_two);
    let (Some(key_range), Some(buckets)) = (key_range, buckets) else {
        return Err(format!(
            "bad --size '{}' (at most 2^58 elements: its key range and bucket count must fit a u64)",
            cfg.initial_size
        ));
    };
    cfg.key_range = key_range;
    cfg.buckets = buckets;
    cfg.ops_per_thread = parse(config, "ops", cfg.ops_per_thread)?;
    cfg.seed = parse(config, "seed", cfg.seed)?;
    Ok(cfg)
}

/// One STAMP run as a `(key, value)` list describes it (see
/// [`stamp_run`]).
pub struct StampRun {
    /// The `app` key, when present.
    pub app: Option<AppKind>,
    /// Allocator under test.
    pub alloc: AllocatorKind,
    /// Worker thread count.
    pub threads: usize,
    /// Input scale.
    pub scale: u64,
    /// Stack knobs and seed.
    pub opts: StampOpts,
}

/// The largest scale whose input sizes fit a `u64`: 192 is the largest
/// factor `make_app` multiplies a scale by (Genome, Ssca2).
const MAX_SCALE: u64 = u64::MAX / 192;

/// The STAMP run a sweep cell's config or `tmstudy stamp`'s flags
/// describe: `app`, `alloc`, `threads` (8), `scale` (2), `seed` and the
/// stack knobs. A value that does not parse is an error naming its key,
/// and so is a scale of 0 (an empty input) or one whose input sizes
/// overflow a `u64`. A scale that fits but exhausts the simulated heap is
/// a failed run, not bad input.
pub fn stamp_run(config: &[(String, String)]) -> Result<StampRun, String> {
    let scale = parse(config, "scale", 2)?;
    if !(1..=MAX_SCALE).contains(&scale) {
        return Err(format!("bad --scale '{scale}' (1..={MAX_SCALE})"));
    }
    Ok(StampRun {
        app: lookup(config, "app").map(str::parse).transpose()?,
        alloc: alloc_of(config)?,
        threads: threads_of(config, &MachineConfig::xeon_e5405())?,
        scale,
        opts: stack_opts(config)?,
    })
}

/// The threadtest point a sweep cell's config or `tmstudy threadtest`'s
/// flags describe: `alloc`, `threads` (8), `size` (64), `pairs` (1000).
pub fn threadtest_config(config: &[(String, String)]) -> Result<ThreadtestConfig, String> {
    Ok(ThreadtestConfig {
        allocator: alloc_of(config)?,
        threads: threads_of(config, &MachineConfig::xeon_e5405())?,
        block_size: parse(config, "size", 64)?,
        pairs_per_thread: parse(config, "pairs", 1000)?,
    })
}

/// One sweep cell's workload, parsed from its config and ready to run.
enum Workload {
    Synth(SyntheticConfig),
    Stamp(AppKind, StampRun),
    Threadtest(ThreadtestConfig),
}

/// The parse step of a sweep cell: its `workload` key (`synth`, `stamp`
/// or `threadtest`) and the configuration that workload reads, or the
/// parser's error. Keys a workload does not consume, such as `rep` or a
/// `seed`-only axis, are labels and are ignored.
fn parse_cell(config: &[(String, String)]) -> Result<Workload, String> {
    match lookup(config, "workload") {
        Some("synth") | None => Ok(Workload::Synth(synth_config(config)?)),
        Some("stamp") => {
            let run = stamp_run(config)?;
            let app = run.app.ok_or("stamp sweep needs an app axis (--app)")?;
            Ok(Workload::Stamp(app, run))
        }
        Some("threadtest") => Ok(Workload::Threadtest(threadtest_config(config)?)),
        Some(other) => Err(format!("unknown workload '{other}'")),
    }
}

/// Execute one sweep cell: parse it, then run its workload and return
/// its named metrics.
pub fn run_cell(config: &[(String, String)]) -> Result<Vec<(String, f64)>, String> {
    Ok(match parse_cell(config)? {
        Workload::Synth(cfg) => {
            let m = run_synthetic(&cfg);
            vec![
                ("throughput".into(), m.throughput),
                ("abort_pct".into(), m.abort_ratio * 100.0),
                ("l1_miss_pct".into(), m.l1_miss * 100.0),
            ]
        }
        Workload::Stamp(app, run) => {
            let a = make_app(app, run.scale, run.opts.seed);
            let r = run_app(a.as_ref(), run.alloc, run.threads, &run.opts);
            vec![
                ("par_s".into(), r.par_seconds),
                ("speedup".into(), r.seq_seconds / r.par_seconds),
                ("abort_pct".into(), r.abort_ratio * 100.0),
                ("l1_miss_pct".into(), r.l1_miss * 100.0),
            ]
        }
        Workload::Threadtest(cfg) => {
            let r = run_threadtest(&cfg);
            vec![
                ("mpairs_per_s".into(), r.mops),
                ("l1_miss_pct".into(), r.l1_miss * 100.0),
            ]
        }
    })
}

/// Flags that become sweep axes when present, in canonical axis order.
/// Comma-separated values expand the axis; a single value is a one-value
/// axis (still recorded per cell).
pub const AXIS_FLAGS: &[&str] = &[
    "structure",
    "app",
    "alloc",
    "backend",
    "cm",
    "alloc-fault",
    "threads",
    "shift",
    "update-pct",
    "size",
    "ops",
    "pairs",
    "scale",
    "seeds",
];

/// The STM-stack knobs `tm_core::sweeps` reads for every transactional
/// workload: flags that take a value, and bare switches.
const STACK_VALUES: [&str; 5] = ["backend", "cm", "shift", "seed", "alloc-fault"];
const STACK_SWITCHES: [&str; 4] = ["object-cache", "ctl", "write-through", "mix-hash"];

/// One row of [`SUBCOMMANDS`]: `(name, value flags, bare switches)`.
pub type Subcommand = (
    &'static str,
    &'static [&'static [&'static str]],
    &'static [&'static str],
);

/// What each `tmstudy` subcommand understands.
/// [`tm_obs::spec::parse_flags`] refuses everything else, so a typo is a
/// usage error instead of a run on the defaults. (`report` takes file
/// names, not flags.)
pub const SUBCOMMANDS: &[Subcommand] = &[
    (
        "synth",
        &[
            &["structure", "alloc", "threads", "update-pct", "size", "ops"],
            &STACK_VALUES,
        ],
        &STACK_SWITCHES,
    ),
    (
        "stamp",
        &[&["app", "alloc", "threads", "scale"], &STACK_VALUES],
        &STACK_SWITCHES,
    ),
    ("threadtest", &[&["alloc", "threads", "size", "pairs"]], &[]),
    ("profile", &[&["app", "alloc", "scale"]], &[]),
    ("machine", &[], &[]),
    (
        "sweep",
        &[&["workload", "reps", "name", "out"], AXIS_FLAGS],
        &["quick"],
    ),
    ("check", &[&["backend", "cm", "name", "out"]], &["quick"]),
    (
        "mc",
        &[
            &["backend", "cm", "alloc", "depth", "budget", "magnitudes"],
            &["alloc-fault", "name", "out"],
        ],
        &["quick", "no-checkpoint", "oom"],
    ),
    ("book", &[&["results", "out"]], &["stdout", "check"]),
];

/// The `--quick` preset: the paper's full synthetic allocator × structure
/// matrix at 8 threads. Fast enough for a CI smoke job (seconds with the
/// fiber scheduler) while still exercising every allocator and structure.
/// Explicitly-passed axis flags override the preset values.
const QUICK_PRESET: &[(&str, &str)] = &[
    ("structure", "list,hash,rbtree"),
    ("alloc", "glibc,hoard,tbb,tc"),
    ("threads", "8"),
];

/// The most cells one sweep may have (2^16): a bound on outside input,
/// like the JSON parser's nesting depth.
pub const MAX_SWEEP_CELLS: u64 = 1 << 16;

/// Build a [`SweepSpec`] from `tmstudy sweep` flags (as parsed into a
/// flag-name → value map). `--workload` (default `synth`) becomes a fixed
/// key, each flag in the canonical axis list becomes an axis, and
/// `--reps N` appends a `rep` axis with values `1..=N`. `--quick` fills in
/// the preset axes (full allocator × structure matrix at 8 threads). A
/// matrix of more than [`MAX_SWEEP_CELLS`] cells is refused before any is
/// built.
pub fn spec_from_flags(flags: &HashMap<String, String>) -> Result<SweepSpec, String> {
    let workload = flags.get("workload").map_or("synth", String::as_str);
    if !["synth", "stamp", "threadtest"].contains(&workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let quick = flags.contains_key("quick");
    let name = flags.get("name").cloned().unwrap_or_else(|| {
        if quick {
            "sweep_quick".into()
        } else {
            format!("sweep_{workload}")
        }
    });
    let mut spec = SweepSpec::new(name).fixed("workload", workload);
    for &f in AXIS_FLAGS {
        let preset = quick
            .then(|| QUICK_PRESET.iter().find(|(k, _)| *k == f).map(|(_, v)| *v))
            .flatten();
        if let Some(vals) = flags.get(f).map(String::as_str).or(preset) {
            let values: Vec<String> = vals
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            if values.is_empty() {
                return Err(format!("--{f} has no values"));
            }
            // --seeds is plural on the command line but each cell carries
            // one seed.
            let axis = if f == "seeds" { "seed" } else { f };
            spec = spec.axis(axis, values);
        }
    }
    let reps = match flags.get("reps") {
        Some(n) => match n.parse::<u32>() {
            Ok(0) => return Err("--reps must be at least 1".into()),
            Ok(n) => Some(n),
            Err(_) => return Err(format!("bad --reps '{n}'")),
        },
        None => None,
    };
    // The matrix is bounded before a cell or a `rep` label is built.
    let cells = spec
        .axes
        .iter()
        .map(|(_, values)| values.len() as u64)
        .chain(reps.map(u64::from))
        .try_fold(1u64, u64::checked_mul);
    if cells.is_none_or(|n| n > MAX_SWEEP_CELLS) {
        let count = cells.map_or(format!("over {}", u64::MAX), |n| n.to_string());
        return Err(format!(
            "the sweep has {count} cells, more than the bound of {MAX_SWEEP_CELLS}"
        ));
    }
    if let Some(n) = reps {
        spec = spec.axis("rep", (1..=n).map(|i| i.to_string()));
    }
    // Every cell parses before any runs, so a value its parser refuses
    // fails the whole sweep with that parser's message instead of
    // producing a matrix of error cells.
    for cell in spec.expand() {
        parse_cell(&cell)?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn spec_axis_order_is_canonical_not_flag_order() {
        let mut flags = HashMap::new();
        flags.insert("threads".to_string(), "1,8".to_string());
        flags.insert("alloc".to_string(), "glibc,hoard".to_string());
        flags.insert("reps".to_string(), "2".to_string());
        let spec = spec_from_flags(&flags).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "threads", "rep"]);
        assert_eq!(spec.cell_count(), 8);
        assert_eq!(spec.fixed, cfg(&[("workload", "synth")]));
    }

    #[test]
    fn the_cell_bound_counts_reps_and_holds_at_its_edge() {
        let mut flags = HashMap::new();
        flags.insert("threads".to_string(), "1,2".to_string());
        flags.insert("reps".to_string(), (MAX_SWEEP_CELLS / 2).to_string());
        assert_eq!(
            spec_from_flags(&flags).unwrap().cell_count() as u64,
            MAX_SWEEP_CELLS
        );
        flags.insert("reps".to_string(), (MAX_SWEEP_CELLS / 2 + 1).to_string());
        assert_eq!(
            spec_from_flags(&flags).unwrap_err(),
            "the sweep has 65538 cells, more than the bound of 65536"
        );
    }

    #[test]
    fn quick_preset_expands_to_full_alloc_structure_matrix() {
        let mut flags = HashMap::new();
        flags.insert("quick".to_string(), String::new());
        let spec = spec_from_flags(&flags).unwrap();
        assert_eq!(spec.name, "sweep_quick");
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["structure", "alloc", "threads"]);
        assert_eq!(spec.cell_count(), 12);
        // Explicit axis flags override the preset values.
        flags.insert("alloc".to_string(), "glibc".to_string());
        let spec = spec_from_flags(&flags).unwrap();
        assert_eq!(spec.cell_count(), 3);
    }

    #[test]
    fn bad_workload_and_bad_values_are_errors_not_panics() {
        let mut flags = HashMap::new();
        flags.insert("workload".to_string(), "quantum".to_string());
        assert!(spec_from_flags(&flags).is_err());
        assert!(run_cell(&cfg(&[("workload", "quantum")])).is_err());
        assert!(run_cell(&cfg(&[("alloc", "jemalloc")])).is_err());
        assert!(
            run_cell(&cfg(&[("workload", "stamp")])).is_err(),
            "app is required"
        );
        // More threads than the machine has cores, or none: the cell
        // records the CLI's line instead of `Sim::run`'s panic.
        for (workload, threads) in [("synth", "9"), ("threadtest", "0"), ("stamp", "16")] {
            let cell = cfg(&[
                ("workload", workload),
                ("app", "genome"),
                ("threads", threads),
            ]);
            assert_eq!(
                run_cell(&cell).unwrap_err(),
                format!("bad --threads '{threads}' (1..=8 simulated cores)")
            );
        }
    }

    #[test]
    fn a_typo_on_any_axis_is_an_error_of_the_whole_spec() {
        let cases: [(&[(&str, &str)], &str); 5] = [
            (&[("alloc", "glibc,hord")], "'hord'"),
            (&[("structure", "list,lst")], "unknown structure 'lst'"),
            (&[("workload", "stamp"), ("app", "genome,genom")], "'genom'"),
            (&[("threads", "1,x")], "bad threads 'x'"),
            (&[("workload", "stamp")], "stamp sweep needs an app axis"),
        ];
        for (pairs, told) in cases {
            let flags: HashMap<String, String> = pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let err = spec_from_flags(&flags).unwrap_err();
            assert!(err.contains(told), "{pairs:?}: {err}");
        }
    }

    #[test]
    fn a_configuration_the_stm_does_not_run_is_an_error_cell() {
        let stamp = [("workload", "stamp"), ("app", "genome")];
        let cases: [(Vec<(&str, &str)>, &str); 4] = [
            (vec![("shift", "64")], "bad --shift '64'"),
            (vec![("ctl", ""), ("write-through", "")], "not --ctl"),
            (
                [&stamp[..], &[("backend", "htm"), ("write-through", "")]].concat(),
                "etl backend only, not htm",
            ),
            (vec![("size", "0")], "bad --size '0'"),
        ];
        for (pairs, told) in cases {
            let err = run_cell(&cfg(&pairs)).unwrap_err();
            assert!(err.contains(told), "{pairs:?}: {err}");
        }
    }

    #[test]
    fn a_synthetic_configuration_derives_in_range_or_names_its_key() {
        let sizes = [1, 1 << 58, (1 << 58) + 1, 1 << 59, 1 << 63, u64::MAX];
        let pcts = [0, 100, 101, u32::MAX];
        for size in sizes {
            for pct in pcts {
                let (size_s, pct_s) = (size.to_string(), pct.to_string());
                let config = cfg(&[("size", &size_s), ("update-pct", &pct_s)]);
                match synth_config(&config) {
                    Ok(c) => {
                        assert!(pct <= 100 && size <= 1 << 58, "{size} x {pct} accepted");
                        assert_eq!((c.initial_size, c.update_pct), (size, pct));
                        assert!(c.key_range > c.initial_size, "{size}: {}", c.key_range);
                        assert!(c.buckets.is_power_of_two(), "{size}: {}", c.buckets);
                        assert!(c.buckets >= c.initial_size, "{size}: {}", c.buckets);
                    }
                    Err(e) if pct > 100 => {
                        assert_eq!(e, format!("bad --update-pct '{pct}' (0..=100)"));
                    }
                    Err(e) => {
                        assert!(size > 1 << 58, "{size} x {pct}: {e}");
                        assert!(e.starts_with(&format!("bad --size '{size}'")), "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_stamp_scale_is_positive_and_fits_every_input_size() {
        let max = u64::MAX / 192;
        for scale in [0, 1, max, max + 1, u64::MAX] {
            let scale_s = scale.to_string();
            match stamp_run(&cfg(&[("scale", &scale_s)])) {
                Ok(run) => {
                    assert!((1..=max).contains(&scale), "{scale} accepted");
                    assert_eq!(run.scale, scale);
                }
                Err(e) => {
                    assert!(scale == 0 || scale > max, "{scale}: {e}");
                    assert!(e.starts_with(&format!("bad --scale '{scale}'")), "{e}");
                }
            }
        }
    }

    #[test]
    fn backend_axis_expands_and_rejects_typos() {
        let mut flags = HashMap::new();
        flags.insert("backend".to_string(), "etl,norec,htm".to_string());
        flags.insert("alloc".to_string(), "glibc".to_string());
        let spec = spec_from_flags(&flags).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "backend"]);
        assert_eq!(spec.cell_count(), 3);

        flags.insert("backend".to_string(), "tl2".to_string());
        let err = spec_from_flags(&flags).unwrap_err();
        assert!(
            err.contains("unknown backend 'tl2'") && err.contains("etl, norec, htm"),
            "{err}"
        );
        let err = run_cell(&cfg(&[("backend", "tl2")])).unwrap_err();
        assert!(err.contains("valid backends"), "{err}");
    }

    #[test]
    fn backend_cells_run_both_workloads() {
        for backend in ["norec", "htm"] {
            let metrics = run_cell(&cfg(&[
                ("workload", "synth"),
                ("structure", "hash"),
                ("backend", backend),
                ("threads", "2"),
                ("ops", "200"),
                ("size", "64"),
            ]))
            .unwrap();
            let t = metrics.iter().find(|(k, _)| k == "throughput").unwrap().1;
            assert!(t > 0.0, "{backend}: zero throughput");
        }
        let metrics = run_cell(&cfg(&[
            ("workload", "stamp"),
            ("app", "genome"),
            ("backend", "norec"),
            ("threads", "2"),
            ("scale", "1"),
        ]))
        .unwrap();
        assert!(metrics.iter().any(|(k, v)| k == "par_s" && *v > 0.0));
    }

    #[test]
    fn cm_axis_expands_and_rejects_typos() {
        let mut flags = HashMap::new();
        flags.insert("cm".to_string(), "suicide,backoff,adaptive".to_string());
        flags.insert("alloc".to_string(), "glibc".to_string());
        let spec = spec_from_flags(&flags).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "cm"]);
        assert_eq!(spec.cell_count(), 3);

        flags.insert("cm".to_string(), "polite".to_string());
        let err = spec_from_flags(&flags).unwrap_err();
        assert!(
            err.contains("unknown contention manager 'polite'")
                && err.contains("suicide, backoff, karma, timestamp, serialize, adaptive"),
            "{err}"
        );
        let err = run_cell(&cfg(&[("cm", "polite")])).unwrap_err();
        assert!(err.contains("valid --cm values"), "{err}");
    }

    #[test]
    fn cm_cells_run_both_workloads() {
        for cm in ["backoff", "adaptive"] {
            let metrics = run_cell(&cfg(&[
                ("workload", "synth"),
                ("structure", "hash"),
                ("cm", cm),
                ("threads", "2"),
                ("ops", "200"),
                ("size", "64"),
            ]))
            .unwrap();
            let t = metrics.iter().find(|(k, _)| k == "throughput").unwrap().1;
            assert!(t > 0.0, "{cm}: zero throughput");
        }
        let metrics = run_cell(&cfg(&[
            ("workload", "stamp"),
            ("app", "genome"),
            ("cm", "backoff"),
            ("threads", "2"),
            ("scale", "1"),
        ]))
        .unwrap();
        assert!(metrics.iter().any(|(k, v)| k == "par_s" && *v > 0.0));
    }

    #[test]
    fn alloc_fault_axis_expands_and_rejects_typos() {
        let mut flags = HashMap::new();
        flags.insert(
            "alloc-fault".to_string(),
            "none,budget:4096,prob:1:64".to_string(),
        );
        flags.insert("alloc".to_string(), "glibc".to_string());
        let spec = spec_from_flags(&flags).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "alloc-fault"]);
        assert_eq!(spec.cell_count(), 3);

        flags.insert("alloc-fault".to_string(), "sometimes".to_string());
        let err = spec_from_flags(&flags).unwrap_err();
        assert!(
            err.contains("invalid alloc-fault plan 'sometimes'"),
            "{err}"
        );
        let err = run_cell(&cfg(&[("alloc-fault", "sometimes")])).unwrap_err();
        assert!(err.contains("invalid alloc-fault plan"), "{err}");
    }

    #[test]
    fn alloc_fault_cells_run_both_workloads() {
        let metrics = run_cell(&cfg(&[
            ("workload", "synth"),
            ("structure", "hash"),
            ("alloc-fault", "prob:0xfa17:256"),
            ("threads", "2"),
            ("ops", "200"),
            ("size", "64"),
        ]))
        .unwrap();
        let t = metrics.iter().find(|(k, _)| k == "throughput").unwrap().1;
        assert!(t > 0.0, "faulted synth cell produced no throughput");
        let metrics = run_cell(&cfg(&[
            ("workload", "stamp"),
            ("app", "genome"),
            ("alloc-fault", "budget:0xffffffff"),
            ("threads", "2"),
            ("scale", "1"),
        ]))
        .unwrap();
        assert!(metrics.iter().any(|(k, v)| k == "par_s" && *v > 0.0));
    }

    #[test]
    fn synth_cell_produces_throughput() {
        let metrics = run_cell(&cfg(&[
            ("workload", "synth"),
            ("structure", "list"),
            ("alloc", "glibc"),
            ("threads", "2"),
            ("ops", "200"),
            ("size", "64"),
        ]))
        .unwrap();
        let t = metrics.iter().find(|(k, _)| k == "throughput").unwrap().1;
        assert!(t > 0.0);
    }

    #[test]
    fn threadtest_cell_produces_mpairs() {
        let metrics = run_cell(&cfg(&[
            ("workload", "threadtest"),
            ("alloc", "tc"),
            ("threads", "2"),
            ("pairs", "100"),
        ]))
        .unwrap();
        assert!(metrics.iter().any(|(k, v)| k == "mpairs_per_s" && *v > 0.0));
        // A cell of no pairs reports numbers JSON can hold (`null` is what
        // a NaN becomes in the matrix).
        let idle = [("workload", "threadtest"), ("alloc", "tc"), ("pairs", "0")];
        let metrics = run_cell(&cfg(&idle)).unwrap();
        assert!(metrics.iter().all(|(_, v)| v.is_finite()), "{metrics:?}");
    }
}
