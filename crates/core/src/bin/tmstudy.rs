//! `tmstudy` — command-line front end for the whole reproduction stack.
//!
//! ```sh
//! tmstudy synth --structure list --alloc glibc --threads 8 --shift 5
//! tmstudy stamp --app yada --alloc tc --threads 8 --object-cache
//! tmstudy threadtest --alloc hoard --size 512
//! tmstudy profile --app intruder
//! tmstudy machine
//! tmstudy report results/fig4.json
//! tmstudy report results/fig4.json old-results/fig4.json
//! tmstudy sweep --structure list --alloc glibc,hoard,tbb,tc --threads 1,2,4,8
//! tmstudy check --quick
//! tmstudy book --check
//! ```
//!
//! Every run is deterministic; flags map 1:1 onto the library types, so
//! anything printed here can be reproduced programmatically.

use std::sync::atomic::{AtomicBool, Ordering};

use tm_alloc::profile::{bucket_label, Region};
use tm_alloc::{AllocFaultPlan, AllocatorKind};
use tm_core::sweeps::{
    parse_flags, stamp_run, sweep_row, synth_config, threadtest_config, MAX_SWEEP_CELLS,
    SUBCOMMANDS,
};
use tm_core::synthetic::run_synthetic;
use tm_core::threadtest::run_threadtest;
use tm_ds::StructureKind;
use tm_obs::spec::{flag, list, value, Flags};
use tm_stamp::runner::{make_app, profile_app, run_app_on};
use tm_stamp::AppKind;
use tm_stm::{BackendKind, CmKind, Stack, StackSpec};

fn main() {
    // The environment is input too: every subcommand builds simulators,
    // and `Sim::new` panics on a `TM_SIM_EXEC` it cannot honour.
    ok_or_exit(tm_sim::check_exec_env());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return;
    };
    if cmd == "report" {
        return report(rest);
    }
    let flags = ok_or_exit(parse_flags(cmd, rest));
    match cmd.as_str() {
        "synth" => workload(|| synth(&flags)),
        "stamp" => workload(|| stamp(&flags)),
        "threadtest" => workload(|| threadtest(&flags)),
        "profile" => workload(|| profile(&flags)),
        "machine" => machine(),
        "sweep" => sweep(&flags),
        "check" => check(&flags),
        "mc" => mc(&flags),
        "book" => book(&flags),
        _ => unreachable!("{cmd} is in SUBCOMMANDS"),
    }
}

/// Run a single-experiment subcommand. A panic inside the simulated
/// workload (a wild access, a failed invariant of the stack under test) is
/// a failed experiment, not a crash of the tool: one `error:` line with the
/// message and where it was raised, exit 1.
fn workload(run: impl FnOnce()) {
    // The hook runs where a panic is raised, on whichever simulated thread;
    // the first is the one `Sim::run` re-raises.
    static REPORTED: AtomicBool = AtomicBool::new(false);
    std::panic::set_hook(Box::new(|info| {
        let payload = info.payload();
        let message = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(no message)");
        // An assertion's message spans lines.
        let message = message.split_whitespace().collect::<Vec<_>>().join(" ");
        let at = info
            .location()
            .map_or(String::new(), |l| format!(" (at {l})"));
        if !REPORTED.swap(true, Ordering::Relaxed) {
            eprintln!("error: the workload panicked: {message}{at}");
        }
    }));
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err() {
        std::process::exit(1);
    }
}

/// The usage text, from [`SUBCOMMANDS`] and the kinds' `ALL`.
fn usage() {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, ..)| *name).collect();
    eprintln!("usage: tmstudy <{}> [flags]", names.join("|"));
    for (name, values, switches) in SUBCOMMANDS {
        let values = values.iter().flat_map(|group| group.iter());
        let flags: String = (values.map(|f| format!(" [--{f} V]")))
            .chain(switches.iter().map(|s| format!(" [--{s}]")))
            .collect();
        let flags = match *name {
            "report" => " <a.json> [<b.json>] — pretty-print one results file, or diff two",
            _ => &flags,
        };
        let line = format!("{:<11}{flags}", format!("{name}:"));
        eprintln!("{}", line.trim_end());
    }
    let workloads = names.into_iter().filter(|w| sweep_row(w).is_ok());
    eprintln!(
        "sweep axes: --workload {} (default synth) adds that workload's flags, \
         each value a comma list (an axis), each switch set in every cell; at \
         most {MAX_SWEEP_CELLS} cells; every cell parses before any runs (a \
         refused value exits 2); exit 1 when a cell ends in `error`\n\
         tokens: --structure {} | --alloc {} | --app {} | --backend {} | --cm {} | \
         --alloc-fault {}",
        workloads.collect::<Vec<_>>().join("|"),
        StructureKind::ALL.map(StructureKind::token).join(","),
        AllocatorKind::ALL.map(AllocatorKind::token).join(","),
        AppKind::ALL.map(AppKind::token).join(","),
        BackendKind::ALL.map(BackendKind::name).join(","),
        CmKind::ALL.map(CmKind::name).join(","),
        AllocFaultPlan::GRAMMAR,
    );
}

/// Load a results JSON file of any schema in `tm_obs::REGISTRY`.
fn load_report(path: &str) -> Result<Box<dyn tm_obs::Report>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    tm_obs::load_report(&src).map_err(|e| format!("{path}: {e}"))
}

/// Pretty-print one results JSON file (of whichever registered schema its
/// `schema` field names), or structurally diff two of the same schema
/// (exit code 1 when they differ, for scripting).
fn report(args: &[String]) {
    let load = |path: &String| ok_or_exit(load_report(path));
    match args {
        [one] => print!("{}", load(one).render()),
        [a, b] => match ok_or_exit(load(a).diff(load(b).as_ref())) {
            None => println!("reports are identical"),
            Some(d) => {
                print!("{d}");
                std::process::exit(1);
            }
        },
        _ => ok_or_exit(Err(format!(
            "report takes one or two files, not {}",
            args.len()
        ))),
    }
}

/// Write a matrix where `--out` says (default
/// `results/<name>.<kind>.json`) and print its rendering.
fn write_matrix<C: tm_obs::Cell>(flags: &Flags, report: &tm_obs::Matrix<C>, what: &str) {
    let out = value(flags, "out").map_or_else(
        || format!("results/{}.{}.json", report.name, C::KIND),
        String::from,
    );
    let dir = std::path::Path::new(&out).parent();
    ok_or_exit(
        dir.map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&out, report.to_json_string()))
            .map_err(|e| format!("cannot write {out}: {e}")),
    );
    print!("{}", report.render());
    println!("\n{what} written to {out}");
}

/// The correctness gates' exit: 1 when any cell is degraded.
fn exit_if_degraded(degraded: usize, what: &str) {
    if degraded > 0 {
        eprintln!("error: {degraded} {what}");
        std::process::exit(1);
    }
}

/// Run a declarative sweep, one cell after another, and write the matrix.
/// Exit 1 when any cell ends in `error` — what makes a sweep usable as a
/// gate.
fn sweep(flags: &Flags) {
    let spec = ok_or_exit(tm_core::sweeps::spec_from_flags(flags));
    eprintln!("sweep '{}': {} cells", spec.name, spec.cell_count());
    let report = tm_obs::sweep::run_spec(&spec, &tm_core::sweeps::run_cell);
    write_matrix(flags, &report, "matrix");
    exit_if_degraded(report.degraded(), "degraded cell(s)");
}

/// Run the correctness matrix (tm-check) and write a `tm-check-report/v1`
/// document. Exit 1 when any cell fails — the gate CI and `verify.sh` use.
fn check(flags: &Flags) {
    use tm_check::SynthCheckConfig;
    use tm_check::{run_backend_cell, run_cm_cell, run_heap_cell, run_stamp_cell, run_synth_cell};
    use tm_mc::explore_check_cell;
    use tm_stm::InjectedBug;

    let quick = value(flags, "quick").is_some();
    // `--backend` and `--cm`, read by the one stack parser.
    let spec = ok_or_exit(StackSpec::parse(flags));
    // Cross-backend differential suite: `--backend X` narrows it to one
    // backend (unknown values exit 2); by default every non-ETL backend
    // is diffed against the serial ETL reference.
    let diff_backends: Vec<BackendKind> = match value(flags, "backend") {
        Some(_) => vec![spec.stm.backend],
        None => BackendKind::ALL
            .into_iter()
            .filter(|b| *b != BackendKind::Etl)
            .collect(),
    };
    // Cross-CM differential suite: `--cm X` narrows it to one policy
    // (unknown values exit 2); by default every non-SUICIDE policy is
    // diffed against the serial SUICIDE reference, trimmed to two
    // representative policies under `--quick`.
    let diff_cms: Vec<CmKind> = match value(flags, "cm") {
        Some(_) => vec![spec.stm.cm],
        None if quick => vec![CmKind::BackoffExp, CmKind::Adaptive],
        None => CmKind::ALL
            .into_iter()
            .filter(|c| *c != CmKind::Suicide)
            .collect(),
    };
    let name = value(flags, "name").unwrap_or(if quick { "check-quick" } else { "check" });
    let allocs: Vec<AllocatorKind> = if quick {
        vec![AllocatorKind::Glibc, AllocatorKind::TbbMalloc]
    } else {
        AllocatorKind::ALL.to_vec()
    };
    let synth_threads: &[usize] = if quick { &[4] } else { &[2, 8] };
    let apps: Vec<AppKind> = if quick {
        // The two apps with interleaving-independent checksums: the cells
        // that actually diff parallel state against the serial reference.
        vec![AppKind::Genome, AppKind::Intruder]
    } else {
        AppKind::ALL.to_vec()
    };
    let explore_budget = if quick { 8 } else { 24 };

    let mut cells = Vec::new();
    eprintln!("check '{name}': synthetic serial oracles…");
    for structure in StructureKind::ALL {
        for &alloc in &allocs {
            for &threads in synth_threads {
                cells.push(run_synth_cell(&SynthCheckConfig::quick(
                    structure, alloc, threads,
                )));
            }
        }
    }
    eprintln!("check '{name}': STAMP parallel-vs-serial checksums…");
    for &app in &apps {
        for &alloc in &allocs {
            cells.push(run_stamp_cell(app, alloc, 4, 1));
        }
    }
    eprintln!("check '{name}': cross-backend differentials…");
    let diff_apps: &[AppKind] = if quick {
        &[AppKind::Genome]
    } else {
        &[AppKind::Genome, AppKind::Intruder]
    };
    for &backend in &diff_backends {
        for &app in diff_apps {
            cells.push(run_backend_cell(
                backend,
                app,
                AllocatorKind::TbbMalloc,
                4,
                1,
            ));
        }
    }
    eprintln!("check '{name}': cross-CM differentials…");
    for &cm in &diff_cms {
        cells.push(run_cm_cell(
            cm,
            AppKind::Genome,
            AllocatorKind::TbbMalloc,
            4,
            1,
        ));
    }
    eprintln!("check '{name}': heap invariants…");
    for &alloc in &allocs {
        cells.push(run_heap_cell(alloc, 4));
    }
    eprintln!("check '{name}': interleaving explorer…");
    cells.push(explore_check_cell(
        InjectedBug::None,
        explore_budget,
        0x51ee7,
    ));
    // Self-test: the harness must catch a deliberately broken STM.
    cells.push(explore_check_cell(
        InjectedBug::SkipWriteValidation,
        64,
        0x51ee7,
    ));
    eprintln!("check '{name}': schedule model checker…");
    cells.extend(tm_mc::check_cells());
    eprintln!("check '{name}': every-site OOM sweep…");
    cells.extend(tm_mc::oom_check_cells());

    let mut report = tm_obs::CheckReport::new(name)
        .meta("quick", quick)
        .meta("allocators", allocs.len())
        .meta("apps", apps.len());
    report.cells = cells;
    write_matrix(flags, &report, "check report");
    exit_if_degraded(report.degraded(), "failing cell(s)");
}

/// `tmstudy mc --oom`: the every-site allocation-failure sweep. A
/// counting dry run enumerates the fallible program's allocation sites,
/// each site is re-executed from a root checkpoint with exactly that
/// allocation failing, a byte-budget pressure run exhausts the retry
/// budget, and the `leak-on-alloc-fail` mutant must be caught at its
/// minimal failing site. Writes a `tm-oom-report/v1` document; exit 1
/// on any unexpected verdict.
fn mc_oom(flags: &Flags) {
    let name = value(flags, "name").unwrap_or("oom-quick");
    eprintln!("mc '{name}': every-site OOM sweep (4 allocators × etl/norec × suicide/adaptive)…");
    let report = tm_mc::oom_quick_report(name);
    write_matrix(flags, &report, "oom report");
    exit_if_degraded(report.degraded(), "unexpected verdict(s)");
}

/// The two fixed `mc` suites, the only flags of `mc`'s row each one reads
/// besides its own, and why any other is refused, not ignored.
const MC_SUITES: [(&str, &[&str], &str); 2] = [
    (
        "oom",
        &["name", "out"],
        "it sweeps every allocation site of a fixed matrix with its own fault plans",
    ),
    (
        "quick",
        &["depth", "no-checkpoint", "name", "out"],
        "it runs the fixed mutation catalog and clean matrix, fault-free \
         (only --depth and --no-checkpoint shape it; `mc --oom` fails allocations)",
    ),
];

/// Run the schedule model checker (tm-mc) and write a `tm-mc-report/v1`
/// (or, with throughput accounting, `v1.1`) document. `--quick` runs the
/// mutation catalog plus the exhaustive clean sweep across every backend
/// × CM; otherwise a targeted bounded-exhaustive clean sweep over the
/// requested axes. Cells execute via the checkpoint/restore explorer
/// unless `--no-checkpoint` forces the from-scratch enumerator (which
/// also omits the throughput block, keeping the artifact plain v1). Exit
/// 1 when any cell ends with an unexpected verdict (a violation on the
/// clean STM or an escaped mutant), 2 on bad flags.
fn mc(flags: &Flags) {
    let (_, values, switches) = tm_core::sweeps::row("mc").expect("mc has a row");
    let row = values
        .iter()
        .flat_map(|group| group.iter())
        .chain(*switches);
    for (mode, reads, why) in MC_SUITES {
        if value(flags, mode).is_some() {
            let mut unread = row.clone().filter(|f| **f != mode && !reads.contains(f));
            if let Some(flag) = unread.find(|f| value(flags, f).is_some()) {
                eprintln!("error: --{flag} does not apply to mc --{mode}: {why}");
                std::process::exit(2);
            }
            break;
        }
    }
    if value(flags, "oom").is_some() {
        return mc_oom(flags);
    }
    let quick = value(flags, "quick").is_some();
    let depth = ok_or_exit(flag(flags, "depth", 3usize));
    let budget = ok_or_exit(
        flag(flags, "budget", 200_000u64).and_then(|budget| match budget {
            0 => Err("bad --budget '0' (a sweep runs at least 1 schedule)".to_string()),
            budget => Ok(budget),
        }),
    );
    let checkpoint = value(flags, "no-checkpoint").is_none();
    // The targeted sweep's stack: `--alloc`, `--alloc-fault`, and the one
    // backend or CM a `--backend` or `--cm` narrows it to.
    let spec = ok_or_exit(StackSpec::parse(flags));
    let name = value(flags, "name").unwrap_or(if quick { "mc-quick" } else { "mc" });
    let started = std::time::Instant::now();
    let (mut report, work) = if quick {
        eprintln!("mc '{name}': mutation catalog + exhaustive clean sweep (depth {depth})…");
        tm_mc::quick_report_opt(name, depth, checkpoint)
    } else {
        let backends = match value(flags, "backend") {
            Some(_) => vec![spec.stm.backend],
            None => BackendKind::ALL.to_vec(),
        };
        let cms = match value(flags, "cm") {
            Some(_) => vec![spec.stm.cm],
            None => CmKind::ALL.to_vec(),
        };
        let magnitudes = ok_or_exit(list(flags, "magnitudes")).unwrap_or_else(|| vec![400]);
        // A fault plan makes the transfer program's allocations fallible,
        // so explore the allocating program when one is requested.
        let program = if spec.fault == AllocFaultPlan::None {
            tm_mc::small_program()
        } else {
            tm_mc::oom_program()
        };
        let ecfg = tm_mc::EnumConfig {
            depth,
            magnitudes,
            max_schedules: budget,
            ..tm_mc::EnumConfig::default()
        };
        ok_or_exit(ecfg.check_magnitudes(&program));
        eprintln!(
            "mc '{name}': exhaustive clean sweep, depth {depth}, {} backend(s) × {} CM(s), \
             budget {budget}…",
            backends.len(),
            cms.len()
        );
        let mut report = tm_obs::McReport::new(name)
            .meta("mode", "sweep")
            .meta("depth", depth)
            .meta("budget", budget)
            .meta("alloc", spec.alloc.name());
        if spec.fault != AllocFaultPlan::None {
            report = report.meta("alloc-fault", spec.fault);
        }
        let mut work = tm_mc::SweepWork::default();
        for &backend in &backends {
            for &cm in &cms {
                let run = tm_mc::RunConfig {
                    alloc: spec.alloc,
                    backend,
                    cm,
                    alloc_fault: spec.fault,
                    ..tm_mc::RunConfig::clean()
                };
                let cell = tm_mc::run_clean_cell(&program, &run, &ecfg, checkpoint, &mut work);
                report.cells.push(cell);
            }
        }
        (report, work)
    };
    // The throughput block records what checkpointing bought; a
    // from-scratch run stays plain v1 so frozen baselines diff cleanly.
    if checkpoint {
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        report.throughput = Some(tm_obs::mc::McThroughput {
            schedules_per_sec: work.schedules as f64 / secs,
            replay_steps_saved: work.replay_steps_saved,
            checkpoints_taken: work.checkpoints_taken,
            deduped: work.deduped,
        });
    }
    write_matrix(flags, &report, "mc report");
    exit_if_degraded(report.degraded(), "unexpected verdict(s)");
}

/// Render REPRODUCTION.md from results/*.json; `--check` compares against
/// the committed copy instead of writing (exit 1 on drift).
fn book(flags: &Flags) {
    let dir = value(flags, "results").unwrap_or("results");
    let out = value(flags, "out").unwrap_or("REPRODUCTION.md");
    let reports = ok_or_exit(tm_core::book::load_results_dir(dir));
    let text = tm_core::book::render_book(&reports);
    if value(flags, "stdout").is_some() {
        print!("{text}");
    } else if value(flags, "check").is_some() {
        let committed =
            ok_or_exit(std::fs::read_to_string(out).map_err(|e| format!("cannot read {out}: {e}")));
        if committed == text {
            println!("{out} is up to date with {dir}/*.json");
        } else {
            eprintln!(
                "{out} drifted from {dir}/*.json — regenerate with `tmstudy book` \
                 and commit the result"
            );
            std::process::exit(1);
        }
    } else {
        ok_or_exit(std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}")));
        println!("wrote {out} ({} exhibits)", reports.len());
    }
}

/// Bad input exits 2 with a one-line `error:`; it never panics.
fn ok_or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn synth(flags: &Flags) {
    let cfg = ok_or_exit(synth_config(flags));
    println!("config: {cfg:?}\n");
    let m = run_synthetic(&cfg);
    println!("virtual time : {:.6} s", m.seconds);
    println!("throughput   : {:.0} tx/s", m.throughput);
    println!("commits      : {}", m.commits);
    println!(
        "aborts       : {} ({:.2} %)",
        m.aborts,
        m.abort_ratio * 100.0
    );
    println!("L1 miss      : {:.3} %", m.l1_miss * 100.0);
    println!("L2 miss      : {:.3} %", m.l2_miss * 100.0);
    println!("lock waits   : {} cycles", m.lock_wait_cycles);
    println!("cache hits   : {}", m.cache_hits);
}

fn stamp(flags: &Flags) {
    let run = ok_or_exit(stamp_run(flags));
    let app = run.app.unwrap_or(AppKind::Yada);
    let a = make_app(app, run.scale, run.seed);
    println!(
        "app: {} | alloc: {} | threads: {} | scale: {}\n",
        app.name(),
        run.spec.alloc.name(),
        run.threads,
        run.scale
    );
    let r = run_app_on(&Stack::new(&run.spec), a.as_ref(), run.threads);
    println!("seq time     : {:.6} s", r.seq_seconds);
    println!("par time     : {:.6} s", r.par_seconds);
    println!("commits      : {}", r.commits);
    println!(
        "aborts       : {} ({:.2} %)",
        r.aborts,
        r.abort_ratio * 100.0
    );
    println!("L1 miss      : {:.3} %", r.l1_miss * 100.0);
    println!("lock waits   : {} cycles", r.lock_wait_cycles);
    println!("cache hits   : {}", r.cache_hits);
}

fn threadtest(flags: &Flags) {
    let r = run_threadtest(&ok_or_exit(threadtest_config(flags)));
    println!("throughput : {:.2} M pairs/s", r.mops);
    println!("L1 miss    : {:.3} %", r.l1_miss * 100.0);
}

fn profile(flags: &Flags) {
    let run = ok_or_exit(stamp_run(flags));
    let app = run.app.unwrap_or(AppKind::Genome);
    let scale = run.scale;
    let a = make_app(app, scale, 0xace);
    let prof = profile_app(a.as_ref(), run.spec.alloc);
    println!("{} allocation profile (scale {scale}):", app.name());
    print!("{:>6}", "region");
    for b in 0..8 {
        print!(" {:>9}", bucket_label(b));
    }
    println!(" {:>9} {:>9} {:>12}", "mallocs", "frees", "bytes");
    for region in Region::ALL {
        let s = prof[region as usize];
        print!("{:>6}", region.name());
        for n in s.by_bucket {
            print!(" {n:>9}");
        }
        println!(" {:>9} {:>9} {:>12}", s.mallocs, s.frees, s.bytes);
    }
}

fn machine() {
    let m = tm_sim::MachineConfig::xeon_e5405();
    println!("simulated machine (paper Table 2):");
    println!(
        "  cores        : {} ({} sockets x {})",
        m.cores,
        m.sockets(),
        m.cores_per_socket
    );
    println!(
        "  L1d per core : {} KB, {}-way, 64 B lines",
        m.l1.size / 1024,
        m.l1.ways
    );
    println!(
        "  L2 per socket: {} MB, {}-way",
        m.l2.size / (1024 * 1024),
        m.l2.ways
    );
    println!("  frequency    : {} GHz (virtual)", m.freq_hz as f64 / 1e9);
    println!(
        "  costs        : L1 {} / L2 {} / mem {} / xfer {}-{} / rmw +{} / os {}",
        m.cost.l1_hit,
        m.cost.l2_hit,
        m.cost.mem,
        m.cost.transfer_same_socket,
        m.cost.transfer_cross_socket,
        m.cost.atomic_rmw,
        m.cost.os_alloc
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(cmd: &str, args: &[&str]) -> Result<Flags, String> {
        parse_flags(cmd, &args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// Does `src` load, through the loader `tmstudy report` uses, as an `R`?
    fn loads_as<R: tm_obs::Report>(src: &str) -> bool {
        tm_obs::load_report(src).is_ok_and(|r| (r.as_ref() as &dyn std::any::Any).is::<R>())
    }

    #[test]
    fn report_load_rejects_unknown_schema_with_clear_error() {
        let path = std::env::temp_dir().join(format!("tmstudy-mystery-{}", std::process::id()));
        std::fs::write(&path, r#"{"schema": "tm-mystery/v9", "name": "x"}"#).unwrap();
        let err = load_report(path.to_str().unwrap())
            .err()
            .expect("unknown schema must not load");
        std::fs::remove_file(&path).unwrap();
        assert!(err.starts_with(path.to_str().unwrap()), "{err}");
        assert!(err.contains("unknown schema 'tm-mystery/v9'"), "{err}");
        for known in tm_obs::REGISTRY.iter().flat_map(|s| s.ids) {
            assert!(err.contains(known), "error must list {known}: {err}");
        }
    }

    #[test]
    fn report_load_rejects_missing_schema_and_non_json() {
        let err = tm_obs::load_report(r#"{"name": "x"}"#).err().unwrap();
        assert!(err.contains("no 'schema' field"), "{err}");
        let err = tm_obs::load_report("not json at all").err().unwrap();
        assert!(err.contains("not JSON"), "{err}");
        let err = load_report("/nonexistent/x.json").err().unwrap();
        assert!(err.contains("cannot read /nonexistent/x.json"), "{err}");
    }

    #[test]
    fn report_load_dispatches_mc_schema() {
        let mut mc = tm_obs::McReport::new("m");
        assert!(loads_as::<tm_obs::McReport>(&mc.to_json_string()));
        // A v1.1 artifact (throughput block present) dispatches the same way.
        mc.throughput = Some(tm_obs::mc::McThroughput::default());
        assert!(mc.to_json_string().contains(tm_obs::mc::MC_SCHEMA_V1_1));
        assert!(loads_as::<tm_obs::McReport>(&mc.to_json_string()));
    }

    #[test]
    fn no_checkpoint_flag_rejects_stray_tokens() {
        let parsed = flags("mc", &["--no-checkpoint", "--depth", "2"]).unwrap();
        assert_eq!(value(&parsed, "no-checkpoint"), Some("true"));
        assert_eq!(value(&parsed, "depth"), Some("2"));
        assert_eq!(value(&flags("mc", &[]).unwrap(), "no-checkpoint"), None);
        let err = flags("mc", &["--no-checkpoint", "bogus"]).unwrap_err();
        assert!(err.contains("stray token 'bogus'"), "{err}");
    }

    #[test]
    fn report_load_dispatches_oom_schema() {
        let oom = tm_obs::OomReport::new("o");
        assert!(oom.to_json_string().contains(tm_obs::oom::OOM_SCHEMA));
        assert!(loads_as::<tm_obs::OomReport>(&oom.to_json_string()));
    }

    #[test]
    fn oom_flag_rejects_stray_tokens() {
        assert_eq!(
            value(&flags("mc", &["--oom"]).unwrap(), "oom"),
            Some("true")
        );
        let err = flags("mc", &["--oom", "bogus"]).unwrap_err();
        assert!(err.contains("--oom takes no value"), "{err}");
    }

    #[test]
    fn report_load_dispatches_all_three_schemas() {
        let run = tm_obs::RunReport::new("r", "figure");
        assert!(loads_as::<tm_obs::RunReport>(&run.to_json_string()));
        let sweep = tm_obs::SweepReport::new("s");
        assert!(loads_as::<tm_obs::SweepReport>(&sweep.to_json_string()));
        let check = tm_obs::CheckReport::new("c");
        assert!(loads_as::<tm_obs::CheckReport>(&check.to_json_string()));
        assert!(!loads_as::<tm_obs::SweepReport>(&check.to_json_string()));
    }
}
