//! Cell runners and spec building for `tmstudy sweep`.
//!
//! A sweep cell is a flat `(key, value)` configuration produced by
//! [`tm_sweep::SweepSpec::expand`]; [`run_cell`] maps one such
//! configuration onto the library workloads (synthetic structures, STAMP
//! applications, threadtest) and returns named scalar metrics. Everything
//! returns `Result` rather than panicking so that a malformed or
//! impossible cell degrades to an `error` cell in the matrix instead of
//! taking down the whole sweep.
//!
//! [`spec_from_flags`] turns `tmstudy sweep` command-line flags into a
//! [`tm_sweep::SweepSpec`]: comma-separated flag values become axes in a
//! fixed canonical order (so the expansion order — and therefore the
//! matrix cell order — does not depend on the order flags were typed),
//! and `--reps N` adds a trailing `rep` axis to force repetitions.

use std::collections::HashMap;

use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_sim::MachineConfig;
use tm_stamp::runner::{make_app, run_app, StampOpts};
use tm_stamp::AppKind;
use tm_stm::{LockDesign, OrtHash, WriteMode};
use tm_sweep::SweepSpec;

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
    // The same derivations `scaled` makes from its own initial size.
    cfg.initial_size = parse(config, "size", cfg.initial_size)?;
    if cfg.initial_size == 0 {
        return Err("bad --size '0' (a structure starts with at least 1 element)".into());
    }
    cfg.key_range = cfg.initial_size * 2;
    cfg.buckets = (cfg.initial_size * 32).next_power_of_two();
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

/// The STAMP run a sweep cell's config or `tmstudy stamp`'s flags
/// describe: `app`, `alloc`, `threads` (8), `scale` (2), `seed` and the
/// stack knobs. A value that does not parse is an error naming its key.
pub fn stamp_run(config: &[(String, String)]) -> Result<StampRun, String> {
    Ok(StampRun {
        app: lookup(config, "app").map(str::parse).transpose()?,
        alloc: alloc_of(config)?,
        threads: threads_of(config, &MachineConfig::xeon_e5405())?,
        scale: parse(config, "scale", 2)?,
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

/// Execute one sweep cell. Dispatches on the cell's `workload` key
/// (`synth`, `stamp` or `threadtest`); unknown keys such as `rep` or
/// `seed`-only axes are configuration labels and are ignored by workloads
/// that do not consume them.
pub fn run_cell(config: &[(String, String)]) -> Result<Vec<(String, f64)>, String> {
    match lookup(config, "workload") {
        Some("synth") | None => synth_cell(config),
        Some("stamp") => stamp_cell(config),
        Some("threadtest") => threadtest_cell(config),
        Some(other) => Err(format!("unknown workload '{other}'")),
    }
}

fn synth_cell(config: &[(String, String)]) -> Result<Vec<(String, f64)>, String> {
    let m = run_synthetic(&synth_config(config)?);
    Ok(vec![
        ("throughput".into(), m.throughput),
        ("abort_pct".into(), m.abort_ratio * 100.0),
        ("l1_miss_pct".into(), m.l1_miss * 100.0),
    ])
}

fn stamp_cell(config: &[(String, String)]) -> Result<Vec<(String, f64)>, String> {
    let run = stamp_run(config)?;
    let app = run.app.ok_or("stamp sweep needs an app axis (--app)")?;
    let a = make_app(app, run.scale, run.opts.seed);
    let r = run_app(a.as_ref(), run.alloc, run.threads, &run.opts);
    Ok(vec![
        ("par_s".into(), r.par_seconds),
        ("speedup".into(), r.seq_seconds / r.par_seconds),
        ("abort_pct".into(), r.abort_ratio * 100.0),
        ("l1_miss_pct".into(), r.l1_miss * 100.0),
    ])
}

fn threadtest_cell(config: &[(String, String)]) -> Result<Vec<(String, f64)>, String> {
    let r = run_threadtest(&threadtest_config(config)?);
    Ok(vec![
        ("mpairs_per_s".into(), r.mops),
        ("l1_miss_pct".into(), r.l1_miss * 100.0),
    ])
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

/// The `--quick` preset: the paper's full synthetic allocator × structure
/// matrix at 8 threads. Fast enough for a CI smoke job (seconds with the
/// fiber scheduler) while still exercising every allocator and structure.
/// Explicitly-passed axis flags override the preset values.
const QUICK_PRESET: &[(&str, &str)] = &[
    ("structure", "list,hash,rbtree"),
    ("alloc", "glibc,hoard,tbb,tc"),
    ("threads", "8"),
];

/// Build a [`SweepSpec`] from `tmstudy sweep` flags (as parsed into a
/// flag-name → value map). `--workload` (default `synth`) becomes a fixed
/// key, each flag in the canonical axis list becomes an axis, and
/// `--reps N` appends a `rep` axis with values `1..=N`. `--quick` fills in
/// the preset axes (full allocator × structure matrix at 8 threads).
pub fn spec_from_flags(flags: &HashMap<String, String>) -> Result<SweepSpec, String> {
    let workload = flags.get("workload").map_or("synth", String::as_str);
    if !["synth", "stamp", "threadtest"].contains(&workload) {
        return Err(format!("unknown workload '{workload}'"));
    }
    // Validate backend tokens up front so a typo fails the whole sweep
    // with a clean listing instead of producing a matrix of error cells.
    if let Some(vals) = flags.get("backend") {
        for v in vals.split(',').map(str::trim).filter(|v| !v.is_empty()) {
            parse_backend(v)?;
        }
    }
    if let Some(vals) = flags.get("cm") {
        for v in vals.split(',').map(str::trim).filter(|v| !v.is_empty()) {
            parse_cm(v)?;
        }
    }
    if let Some(vals) = flags.get("alloc-fault") {
        for v in vals.split(',').map(str::trim).filter(|v| !v.is_empty()) {
            tm_alloc::AllocFaultPlan::parse(v)?;
        }
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
    if let Some(n) = flags.get("reps") {
        let n: u32 = n.parse().map_err(|_| format!("bad --reps '{n}'"))?;
        if n == 0 {
            return Err("--reps must be at least 1".into());
        }
        spec = spec.axis("rep", (1..=n).map(|i| i.to_string()));
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
