//! Cell runners and spec building for `tmstudy sweep`.
//!
//! A sweep cell is a flat `(key, value)` configuration produced by
//! [`tm_obs::sweep::SweepSpec::expand`] — the same list
//! [`tm_obs::spec::parse_flags`] makes of argv, so `tmstudy
//! synth|stamp|threadtest|profile` hand their flags to the parsers cells
//! use ([`synth_config`], [`stamp_run`], [`threadtest_config`]), and every
//! key is read through [`tm_obs::spec`]'s `value`, `flag`, `choice` and
//! `list`. A name — a kind, a workload, a subcommand — is its exact token,
//! looked up by [`tm_obs::spec::one_of`].
//! [`run_cell`] parses one such configuration into a library workload
//! (synthetic structures, STAMP applications, threadtest), runs it and
//! returns named scalar metrics.
//! Everything returns `Result` rather than panicking so that a cell that
//! fails degrades to an `error` cell in the matrix instead of taking down
//! the whole sweep. [`tm_obs::sweep::run_spec`] runs the cells
//! one after another on the calling thread.
//!
//! [`SUBCOMMANDS`] is the one statement of the flags each subcommand
//! reads; the stack's part of the `synth` and `stamp` rows is
//! [`StackSpec::KEYS`] and [`StackSpec::SWITCHES`]. A sweep of workload
//! `W` takes exactly `W`'s row besides its own flags ([`parse_flags`]):
//! [`spec_from_flags`] makes each of `W`'s value flags given, as a comma
//! list, an axis in the row's order (so the matrix cell order does not
//! depend on the order flags were typed), each of `W`'s switches given a
//! fixed key of every cell, and `--reps N` a trailing `rep` axis. It
//! parses every cell before any runs: a value a cell's parser refuses is
//! an error of the whole spec.

use tm_alloc::AllocatorKind;
use tm_ds::StructureKind;
use tm_obs::spec::{choice, flag, list, one_of, value, Flags};
use tm_obs::sweep::SweepSpec;
use tm_sim::MachineConfig;
use tm_stamp::runner::{make_app, run_app_on, StampOpts};
use tm_stamp::AppKind;
use tm_stm::{Stack, StackSpec};

use crate::synthetic::{run_synthetic, SyntheticConfig};
use crate::threadtest::{run_threadtest, ThreadtestConfig};

/// The `threads` key (default 8), checked against the cores of the
/// machine the workload builds: the core count sizes every allocator
/// model's per-thread tables and bounds `Sim::run`, so a count outside
/// `1..=cores` is bad input here rather than a panic there.
fn threads_of(config: &[(String, String)], machine: &MachineConfig) -> Result<usize, String> {
    let (threads, cores) = (flag(config, "threads", 8)?, machine.cores);
    if (1..=cores).contains(&threads) {
        Ok(threads)
    } else {
        Err(format!(
            "bad --threads '{threads}' (1..={cores} simulated cores)"
        ))
    }
}

/// The synthetic-benchmark configuration a `(key, value)` list describes
/// — a sweep cell's config or `tmstudy synth`'s flags: `structure`,
/// `threads`, `update-pct`, `size`, `ops`, `seed` and the stack's keys
/// ([`StackSpec::parse`]), each defaulting as [`SyntheticConfig::scaled`]
/// does. A value that does not parse is an error naming its key.
pub fn synth_config(config: &[(String, String)]) -> Result<SyntheticConfig, String> {
    let structure = choice(
        config,
        "structure",
        &StructureKind::ALL,
        |k| k.token(),
        StructureKind::RbTree,
    )?;
    let spec = StackSpec::parse(config)?;
    let mut cfg = SyntheticConfig::scaled(structure, spec.alloc, 8);
    cfg.threads = threads_of(config, &cfg.machine)?;
    cfg.backend = spec.stm.backend;
    cfg.cm = spec.stm.cm;
    cfg.shift = spec.stm.shift;
    cfg.alloc_fault = spec.fault;
    cfg.object_cache = spec.stm.object_cache;
    cfg.design = spec.stm.design;
    cfg.write_mode = spec.stm.write_mode;
    cfg.ort_hash = spec.stm.ort_hash;
    cfg.update_pct = flag(config, "update-pct", cfg.update_pct)?;
    if cfg.update_pct > 100 {
        return Err(format!("bad --update-pct '{}' (0..=100)", cfg.update_pct));
    }
    // The same derivations `scaled` makes from its own initial size.
    cfg.initial_size = flag(config, "size", cfg.initial_size)?;
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
    cfg.ops_per_thread = flag(config, "ops", cfg.ops_per_thread)?;
    cfg.seed = flag(config, "seed", cfg.seed)?;
    Ok(cfg)
}

/// One STAMP run as a `(key, value)` list describes it (see
/// [`stamp_run`]).
pub struct StampRun {
    /// The `app` key, when present.
    pub app: Option<AppKind>,
    /// Worker thread count.
    pub threads: usize,
    /// Input scale.
    pub scale: u64,
    /// The stack the run builds.
    pub spec: StackSpec,
    /// Workload seed.
    pub seed: u64,
}

/// The largest scale whose input sizes fit a `u64`: 192 is the largest
/// factor `make_app` multiplies a scale by (Genome, Ssca2).
const MAX_SCALE: u64 = u64::MAX / 192;

/// The STAMP run a sweep cell's config or `tmstudy stamp`'s flags
/// describe: `app`, `threads` (8), `scale` (2), `seed` and the stack's
/// keys ([`StackSpec::parse`]). A value that does not parse is an error
/// naming its key, and so is a scale of 0 (an empty input) or one whose
/// input sizes overflow a `u64`. A scale that fits but exhausts the
/// simulated heap is a failed run, not bad input.
pub fn stamp_run(config: &[(String, String)]) -> Result<StampRun, String> {
    let scale = flag(config, "scale", 2)?;
    if !(1..=MAX_SCALE).contains(&scale) {
        return Err(format!("bad --scale '{scale}' (1..={MAX_SCALE})"));
    }
    let app = value(config, "app")
        .map(|v| one_of("--app", &AppKind::ALL, |k| k.token(), v).copied())
        .transpose()?;
    let spec = StackSpec::parse(config)?;
    Ok(StampRun {
        app,
        threads: threads_of(config, &spec.machine)?,
        scale,
        seed: flag(config, "seed", StampOpts::default().seed)?,
        spec,
    })
}

/// The threadtest point a sweep cell's config or `tmstudy threadtest`'s
/// flags describe: `alloc` (read by [`StackSpec::parse`]), `threads` (8),
/// `size` (64), `pairs` (1000).
pub fn threadtest_config(config: &[(String, String)]) -> Result<ThreadtestConfig, String> {
    let spec = StackSpec::parse(config)?;
    Ok(ThreadtestConfig {
        allocator: spec.alloc,
        threads: threads_of(config, &spec.machine)?,
        block_size: flag(config, "size", 64)?,
        pairs_per_thread: flag(config, "pairs", 1000)?,
    })
}

/// A sweep cell's parser, and the parsed cell: it runs its workload and
/// returns its named metrics.
type Parse = fn(&[(String, String)]) -> Result<Run, String>;
type Run = Box<dyn FnOnce() -> Vec<(String, f64)>>;

/// The workloads a sweep runs, each named by the subcommand whose row of
/// [`SUBCOMMANDS`] its cells read, with the parser of its cells.
const WORKLOADS: [(&str, Parse); 3] = [
    ("synth", |config| {
        let cfg = synth_config(config)?;
        Ok(Box::new(move || {
            let m = run_synthetic(&cfg);
            vec![
                ("throughput".into(), m.throughput),
                ("abort_pct".into(), m.abort_ratio * 100.0),
                ("l1_miss_pct".into(), m.l1_miss * 100.0),
            ]
        }))
    }),
    ("stamp", |config| {
        let run = stamp_run(config)?;
        let app = run.app.ok_or("stamp sweep needs an app axis (--app)")?;
        Ok(Box::new(move || {
            let a = make_app(app, run.scale, run.seed);
            let r = run_app_on(&Stack::new(&run.spec), a.as_ref(), run.threads);
            vec![
                ("par_s".into(), r.par_seconds),
                ("speedup".into(), r.seq_seconds / r.par_seconds),
                ("abort_pct".into(), r.abort_ratio * 100.0),
                ("l1_miss_pct".into(), r.l1_miss * 100.0),
            ]
        }))
    }),
    ("threadtest", |config| {
        let cfg = threadtest_config(config)?;
        Ok(Box::new(move || {
            let r = run_threadtest(&cfg);
            vec![
                ("mpairs_per_s".into(), r.mops),
                ("l1_miss_pct".into(), r.l1_miss * 100.0),
            ]
        }))
    }),
];

/// The parse step of a sweep cell: its `workload` key (default `synth`)
/// and the configuration that workload reads, or the parser's error.
fn parse_cell(config: &[(String, String)]) -> Result<Run, String> {
    let workload = value(config, "workload").unwrap_or("synth");
    let (_, parse) = one_of("--workload", &WORKLOADS, |w| w.0, workload)?;
    parse(config)
}

/// Execute one sweep cell: parse it, then run its workload and return
/// its named metrics.
pub fn run_cell(config: &[(String, String)]) -> Result<Vec<(String, f64)>, String> {
    Ok(parse_cell(config)?())
}

/// One row of [`SUBCOMMANDS`]: `(name, value flags, bare switches)`.
pub type Subcommand = (
    &'static str,
    &'static [&'static [&'static str]],
    &'static [&'static str],
);

/// What each `tmstudy` subcommand understands, and all a sweep of a
/// workload accepts besides its own flags: [`tm_obs::spec::parse_flags`]
/// refuses everything else, so a typo is a usage error instead of a run
/// on the defaults. A workload's value flags are its sweep axes, in this
/// order. `report` takes file names, not flags: its row is empty, and
/// `tmstudy` hands it its arguments as they are.
pub const SUBCOMMANDS: &[Subcommand] = &[
    (
        "synth",
        &[
            &["structure"],
            &StackSpec::KEYS,
            &["threads", "update-pct", "size", "ops", "seed"],
        ],
        &StackSpec::SWITCHES,
    ),
    (
        "stamp",
        &[&["app"], &StackSpec::KEYS, &["threads", "scale", "seed"]],
        &StackSpec::SWITCHES,
    ),
    ("threadtest", &[&["alloc", "threads", "size", "pairs"]], &[]),
    ("profile", &[&["app", "alloc", "scale"]], &[]),
    ("machine", &[], &[]),
    ("sweep", &[&["workload", "reps", "name", "out"]], &["quick"]),
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
    ("report", &[], &[]),
];

/// `cmd`'s row of [`SUBCOMMANDS`], or the refusal of a name no row has.
pub fn row(cmd: &str) -> Result<&'static Subcommand, String> {
    one_of("subcommand", SUBCOMMANDS, |r| r.0, cmd)
}

/// The row of [`SUBCOMMANDS`] a sweep of `workload` reads, or the
/// refusal of a name no sweep runs.
pub fn sweep_row(workload: &str) -> Result<&'static Subcommand, String> {
    row(one_of("--workload", &WORKLOADS, |w| w.0, workload)?.0)
}

/// Parse `tmstudy <cmd>`'s arguments against `cmd`'s row of
/// [`SUBCOMMANDS`] ([`tm_obs::spec::parse_flags`]). A sweep also takes the
/// row of the workload its `--workload` names (`synth` by default): any
/// other flag is refused, naming the flag and the workload, and so is a
/// second `--workload`.
pub fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, String> {
    let (_, values, switches) = row(cmd)?;
    let mut program = format!("tmstudy {cmd}");
    let (mut values, mut switches) = (values.to_vec(), switches.to_vec());
    if cmd == "sweep" {
        let workload = (args.iter().position(|a| a == "--workload"))
            .and_then(|at| args.get(at + 1))
            .filter(|w| !w.starts_with("--"))
            .map_or("synth", String::as_str);
        let (_, axes, fixed) = sweep_row(workload)?;
        program += &format!(" --workload {workload}");
        values.extend_from_slice(axes);
        switches.extend_from_slice(fixed);
    }
    tm_obs::spec::parse_flags(&program, &values, &switches, args)
}

/// The most cells one sweep may have (2^16): a bound on outside input,
/// like the JSON parser's nesting depth.
pub const MAX_SWEEP_CELLS: u64 = 1 << 16;

/// Build a [`SweepSpec`] from `tmstudy sweep` flags as [`parse_flags`]
/// reads them. `--workload` (default `synth`) and each of its switches
/// given become fixed keys, each of its value flags given (or preset by
/// `--quick`) an axis of the values its comma list names
/// ([`tm_obs::spec::list`]), in its row's order, and `--reps N` appends a
/// `rep` axis with values `1..=N`. A matrix of more than
/// [`MAX_SWEEP_CELLS`] cells is refused before any is built.
pub fn spec_from_flags(flags: &[(String, String)]) -> Result<SweepSpec, String> {
    let workload = value(flags, "workload").unwrap_or("synth");
    let (_, values, switches) = sweep_row(workload)?;
    let quick = value(flags, "quick").is_some();
    let default = if quick {
        "sweep_quick".to_string()
    } else {
        format!("sweep_{workload}")
    };
    let name = value(flags, "name").map_or(default, String::from);
    let mut spec = SweepSpec::new(name).fixed("workload", workload);
    for &switch in *switches {
        if let Some(on) = value(flags, switch) {
            spec = spec.fixed(switch, on);
        }
    }
    for &f in values.iter().flat_map(|group| group.iter()) {
        // The `--quick` preset: the paper's synthetic allocator × structure
        // matrix at 8 threads, as far as the workload's row reaches.
        let preset: Option<Vec<&str>> = match f {
            _ if !quick => None,
            "structure" => Some(StructureKind::ALL.map(StructureKind::token).to_vec()),
            "alloc" => Some(AllocatorKind::ALL.map(AllocatorKind::token).to_vec()),
            "threads" => Some(vec!["8"]),
            _ => None,
        };
        let preset = preset.map(|p| p.into_iter().map(String::from).collect());
        if let Some(values) = list::<String>(flags, f)?.or(preset) {
            spec = spec.axis(f, values);
        }
    }
    let reps: Option<u32> = (value(flags, "reps").is_some())
        .then(|| flag(flags, "reps", 0))
        .transpose()?;
    if reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
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
        drop(parse_cell(&cell)?);
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
        let flags = cfg(&[("threads", "1,8"), ("alloc", "glibc,hoard"), ("reps", "2")]);
        let spec = spec_from_flags(&flags).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "threads", "rep"]);
        assert_eq!(spec.cell_count(), 8);
        assert_eq!(spec.fixed, cfg(&[("workload", "synth")]));
    }

    #[test]
    fn the_cell_bound_counts_reps_and_holds_at_its_edge() {
        let flags = |reps: u64| cfg(&[("threads", "1,2"), ("reps", &reps.to_string())]);
        assert_eq!(
            spec_from_flags(&flags(MAX_SWEEP_CELLS / 2))
                .unwrap()
                .cell_count() as u64,
            MAX_SWEEP_CELLS
        );
        assert_eq!(
            spec_from_flags(&flags(MAX_SWEEP_CELLS / 2 + 1)).unwrap_err(),
            "the sweep has 65538 cells, more than the bound of 65536"
        );
    }

    #[test]
    fn quick_preset_expands_to_full_alloc_structure_matrix() {
        let spec = spec_from_flags(&cfg(&[("quick", "true")])).unwrap();
        assert_eq!(spec.name, "sweep_quick");
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["structure", "alloc", "threads"]);
        assert_eq!(spec.cell_count(), 12);
        // Explicit axis flags override the preset values.
        let spec = spec_from_flags(&cfg(&[("quick", "true"), ("alloc", "glibc")])).unwrap();
        assert_eq!(spec.cell_count(), 3);
    }

    #[test]
    fn a_threadtest_quick_sweep_sets_only_the_keys_of_its_row() {
        let spec = spec_from_flags(&cfg(&[("workload", "threadtest"), ("quick", "true")])).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "threads"]);
        assert_eq!(spec.cell_count(), 4);
        for cell in spec.expand() {
            assert!(cell.iter().all(|(k, _)| k != "structure"), "{cell:?}");
        }
    }

    #[test]
    fn a_switch_is_a_fixed_key_and_axes_follow_the_row() {
        let flags = cfg(&[("ctl", "true"), ("threads", "1,2"), ("shift", "4,5")]);
        let spec = spec_from_flags(&flags).unwrap();
        assert_eq!(spec.fixed, cfg(&[("workload", "synth"), ("ctl", "true")]));
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["shift", "threads"], "the stack's keys come first");
    }

    #[test]
    fn bad_workload_and_bad_values_are_errors_not_panics() {
        assert!(spec_from_flags(&cfg(&[("workload", "quantum")])).is_err());
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
        let cases: [(&[(&str, &str)], &str); 8] = [
            (&[("alloc", "glibc,hord")], "'hord'"),
            (&[("alloc", "glibc,GLIBC")], "bad --alloc 'GLIBC'"),
            (&[("alloc", "glibc, glibc")], "--alloc lists 'glibc' twice"),
            (&[("structure", "list,lst")], "bad --structure 'lst'"),
            (&[("workload", "stamp"), ("app", "genome,genom")], "'genom'"),
            (&[("threads", "1,x")], "bad --threads 'x'"),
            (&[("alloc", ",")], "--alloc has no values"),
            (&[("workload", "stamp")], "stamp sweep needs an app axis"),
        ];
        for (pairs, told) in cases {
            let err = spec_from_flags(&cfg(pairs)).unwrap_err();
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
        let flags = |backend| cfg(&[("backend", backend), ("alloc", "glibc")]);
        let spec = spec_from_flags(&flags("etl,norec,htm")).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "backend"]);
        assert_eq!(spec.cell_count(), 3);

        let told = "bad --backend 'tl2' (valid: etl, norec, htm)";
        assert_eq!(spec_from_flags(&flags("tl2")).unwrap_err(), told);
        assert_eq!(run_cell(&cfg(&[("backend", "tl2")])).unwrap_err(), told);
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
        let flags = |cm| cfg(&[("cm", cm), ("alloc", "glibc")]);
        let spec = spec_from_flags(&flags("suicide,backoff,adaptive")).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "cm"]);
        assert_eq!(spec.cell_count(), 3);

        let told =
            "bad --cm 'polite' (valid: suicide, backoff, karma, timestamp, serialize, adaptive)";
        assert_eq!(spec_from_flags(&flags("polite")).unwrap_err(), told);
        assert_eq!(run_cell(&cfg(&[("cm", "polite")])).unwrap_err(), told);
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
        let flags = |plans| cfg(&[("alloc-fault", plans), ("alloc", "glibc")]);
        let spec = spec_from_flags(&flags("none,budget:4096,prob:1:64")).unwrap();
        let axes: Vec<&str> = spec.axes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(axes, ["alloc", "alloc-fault"]);
        assert_eq!(spec.cell_count(), 3);

        let err = spec_from_flags(&flags("sometimes")).unwrap_err();
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
