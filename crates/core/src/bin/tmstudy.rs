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
    parse_backend, parse_cm, stamp_run, synth_config, threadtest_config, SUBCOMMANDS,
};
use tm_core::synthetic::run_synthetic;
use tm_core::threadtest::run_threadtest;
use tm_ds::StructureKind;
use tm_obs::spec::Flags;
use tm_stamp::runner::{make_app, profile_app, run_app};
use tm_stamp::AppKind;

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

fn usage() {
    eprintln!(
        "usage: tmstudy <synth|stamp|threadtest|profile|machine|report|sweep|check|mc|book> [flags]\n\
         synth:      --structure list|hash|rbtree --alloc <a> --threads N \
         [--backend etl|norec|htm] [--cm <policy>] [--update-pct P] [--shift S] \
         [--size N] [--ops N] [--seed N] [--ctl] [--write-through] [--mix-hash] \
         [--object-cache] [--alloc-fault PLAN]\n\
         stamp:      --app <name> --alloc <a> --threads N [--scale S] \
         [--backend etl|norec|htm] [--cm <policy>] [--shift S] [--seed N] [--ctl] \
         [--write-through] [--mix-hash] [--object-cache] [--alloc-fault PLAN]\n\
         threadtest: --alloc <a> [--size BYTES] [--threads N] [--pairs N]\n\
         profile:    --app <name> [--alloc <a>] [--scale S]\n\
         report:     <a.json> — pretty-print; <a.json> <b.json> — diff \
         (any results schema, by its `schema` field)\n\
         sweep:      [--workload synth|stamp|threadtest] axes as comma lists \
         (--structure --app --alloc --backend --cm --alloc-fault --threads --shift \
         --update-pct --size --ops --pairs --scale --seeds) [--quick] [--reps N] \
         [--name S] [--out FILE]; at most 65536 cells (more exits 2); every \
         cell parses before any runs (a value a parser refuses exits 2); cells run one after another; exit 1 when \
         any cell ends in `error`\n\
         check:      correctness matrix (serial oracles, heap audit, \
         cross-backend and cross-CM diffs, interleaving explorer) [--quick] \
         [--backend B] [--cm C] [--name S] [--out FILE]\n\
         mc:         systematic schedule exploration (bounded-exhaustive \
         enumeration with conflict pruning, checkpoint/restore prefix-tree \
         execution) [--quick] [--backend B] [--cm C] [--alloc A] [--depth N] \
         [--budget N] [--magnitudes A,B,..] [--no-checkpoint] [--alloc-fault PLAN] \
         [--name S] [--out FILE]; --oom runs the every-site allocation-failure \
         sweep instead (writes results/<name>.oom.json)\n\
         book:       [--results DIR] [--out FILE] [--stdout] [--check]\n\
         allocators: glibc hoard tbb tc\n\
         cm (contention manager): suicide backoff karma timestamp serialize adaptive\n\
         alloc-fault plans: none | budget:<bytes> | class:<size>:<max-live> | \
         site:<n> | prob:<seed>:<denom>"
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
        _ => usage(),
    }
}

/// Write a matrix where `--out` says (default
/// `results/<name>.<kind>.json`) and print its rendering.
fn write_matrix<C: tm_obs::Cell>(flags: &Flags, report: &tm_obs::Matrix<C>, what: &str) {
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("results/{}.{}.json", report.name, C::KIND));
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
    let spec = tm_core::sweeps::spec_from_flags(flags).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(2);
    });
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
    use tm_stm::{BackendKind, CmKind, InjectedBug};

    let quick = flags.contains_key("quick");
    // Cross-backend differential suite: `--backend X` narrows it to one
    // backend (unknown values exit 2); by default every non-ETL backend
    // is diffed against the serial ETL reference.
    let diff_backends: Vec<BackendKind> = match flags.get("backend") {
        Some(v) => vec![ok_or_exit(parse_backend(v))],
        None => BackendKind::ALL
            .into_iter()
            .filter(|b| *b != BackendKind::Etl)
            .collect(),
    };
    // Cross-CM differential suite: `--cm X` narrows it to one policy
    // (unknown values exit 2); by default every non-SUICIDE policy is
    // diffed against the serial SUICIDE reference, trimmed to two
    // representative policies under `--quick`.
    let diff_cms: Vec<CmKind> = match flags.get("cm") {
        Some(v) => vec![ok_or_exit(parse_cm(v))],
        None if quick => vec![CmKind::BackoffExp, CmKind::Adaptive],
        None => CmKind::ALL
            .into_iter()
            .filter(|c| *c != CmKind::Suicide)
            .collect(),
    };
    let name = flags.get("name").cloned().unwrap_or_else(|| {
        if quick {
            "check-quick".into()
        } else {
            "check".into()
        }
    });
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

    let mut report = tm_obs::CheckReport::new(&name)
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
    let name = flags
        .get("name")
        .cloned()
        .unwrap_or_else(|| "oom-quick".into());
    eprintln!("mc '{name}': every-site OOM sweep (4 allocators × etl/norec × suicide/adaptive)…");
    let report = tm_mc::oom_quick_report(&name);
    write_matrix(flags, &report, "oom report");
    exit_if_degraded(report.degraded(), "unexpected verdict(s)");
}

/// The two fixed `mc` suites, the flags of the targeted sweep each one does
/// not read, and why — one of them is refused, not ignored.
const MC_SUITES: [(&str, &[&str], &str); 2] = [
    (
        "oom",
        &[
            "alloc-fault",
            "backend",
            "cm",
            "alloc",
            "depth",
            "budget",
            "magnitudes",
            "no-checkpoint",
            "quick",
        ],
        "it sweeps every allocation site of a fixed matrix with its own fault plans",
    ),
    (
        "quick",
        &[
            "alloc-fault",
            "backend",
            "cm",
            "alloc",
            "budget",
            "magnitudes",
        ],
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
    use tm_stm::{BackendKind, CmKind};
    for (mode, unread, why) in MC_SUITES {
        if flags.contains_key(mode) {
            if let Some(flag) = unread.iter().find(|f| flags.contains_key(**f)) {
                eprintln!("error: --{flag} does not apply to mc --{mode}: {why}");
                std::process::exit(2);
            }
            break;
        }
    }
    if flags.contains_key("oom") {
        return mc_oom(flags);
    }
    let quick = flags.contains_key("quick");
    let depth = get(flags, "depth", 3usize);
    let budget = ok_or_exit(match get(flags, "budget", 200_000u64) {
        0 => Err("bad --budget '0' (a sweep runs at least 1 schedule)".to_string()),
        budget => Ok(budget),
    });
    let checkpoint = !flags.contains_key("no-checkpoint");
    let alloc_fault = ok_or_exit(
        flags
            .get("alloc-fault")
            .map_or(Ok(AllocFaultPlan::None), |v| AllocFaultPlan::parse(v)),
    );
    let name = flags.get("name").cloned().unwrap_or_else(|| {
        if quick {
            "mc-quick".into()
        } else {
            "mc".into()
        }
    });
    let started = std::time::Instant::now();
    let (mut report, work) = if quick {
        eprintln!("mc '{name}': mutation catalog + exhaustive clean sweep (depth {depth})…");
        tm_mc::quick_report_opt(&name, depth, checkpoint)
    } else {
        let backends: Vec<BackendKind> = match flags.get("backend") {
            Some(v) => vec![ok_or_exit(parse_backend(v))],
            None => BackendKind::ALL.to_vec(),
        };
        let cms: Vec<CmKind> = match flags.get("cm") {
            Some(v) => vec![ok_or_exit(parse_cm(v))],
            None => CmKind::ALL.to_vec(),
        };
        let alloc = ok_or_exit(
            flags
                .get("alloc")
                .map_or(Ok(AllocatorKind::TbbMalloc), |v| v.parse()),
        );
        let magnitudes: Vec<u64> = match flags.get("magnitudes") {
            None => vec![400],
            Some(list) => {
                let parsed: Result<Vec<u64>, _> =
                    list.split(',').map(|v| v.trim().parse()).collect();
                match parsed {
                    Ok(m) if !m.is_empty() => m,
                    _ => {
                        eprintln!(
                            "error: --magnitudes takes a comma-separated list of \
                             delay cycles (got '{list}')"
                        );
                        std::process::exit(2);
                    }
                }
            }
        };
        // A fault plan makes the transfer program's allocations fallible,
        // so explore the allocating program when one is requested.
        let program = if alloc_fault == AllocFaultPlan::None {
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
        let mut report = tm_obs::McReport::new(&name)
            .meta("mode", "sweep")
            .meta("depth", depth)
            .meta("budget", budget)
            .meta("alloc", alloc.name());
        if alloc_fault != AllocFaultPlan::None {
            report = report.meta("alloc-fault", alloc_fault);
        }
        let mut work = tm_mc::SweepWork::default();
        for &backend in &backends {
            for &cm in &cms {
                report.cells.push(tm_mc::run_clean_cell_fault_opt(
                    &program,
                    alloc,
                    alloc_fault,
                    backend,
                    cm,
                    &ecfg,
                    checkpoint,
                    &mut work,
                ));
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
    let dir = flags
        .get("results")
        .cloned()
        .unwrap_or_else(|| "results".into());
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "REPRODUCTION.md".into());
    let reports = ok_or_exit(tm_core::book::load_results_dir(&dir));
    let text = tm_core::book::render_book(&reports);
    if flags.contains_key("stdout") {
        print!("{text}");
    } else if flags.contains_key("check") {
        let committed = ok_or_exit(
            std::fs::read_to_string(&out).map_err(|e| format!("cannot read {out}: {e}")),
        );
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
        ok_or_exit(std::fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}")));
        println!("wrote {out} ({} exhibits)", reports.len());
    }
}

/// Parse `args` against `cmd`'s row of [`SUBCOMMANDS`] (the rule is
/// [`tm_obs::spec::parse_flags`]); a subcommand without a row is a usage
/// error too.
fn parse_flags(cmd: &str, args: &[String]) -> Result<Flags, String> {
    let (_, values, switches) =
        SUBCOMMANDS
            .iter()
            .find(|(name, ..)| *name == cmd)
            .ok_or(format!(
                "unknown subcommand '{cmd}' (tmstudy without arguments prints the usage)"
            ))?;
    tm_obs::spec::parse_flags(&format!("tmstudy {cmd}"), values, switches, args)
}

/// `--<key>` parsed as a `T`, or `default` when absent; a value that
/// does not parse exits 2 with the canonical message.
fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> T {
    ok_or_exit(tm_obs::spec::flag(flags, key, default))
}

/// Bad input exits 2 with a one-line `error:`; it never panics.
fn ok_or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The flags as the `(key, value)` list the `tm_core::sweeps` config
/// builders read — the same builders that decode sweep cells.
fn pairs(flags: &Flags) -> Vec<(String, String)> {
    flags.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

fn synth(flags: &Flags) {
    let cfg = ok_or_exit(synth_config(&pairs(flags)));
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
    let run = ok_or_exit(stamp_run(&pairs(flags)));
    let app = run.app.unwrap_or(AppKind::Yada);
    let a = make_app(app, run.scale, run.opts.seed);
    println!(
        "app: {} | alloc: {} | threads: {} | scale: {}\n",
        app.name(),
        run.alloc.name(),
        run.threads,
        run.scale
    );
    let r = run_app(a.as_ref(), run.alloc, run.threads, &run.opts);
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
    let r = run_threadtest(&ok_or_exit(threadtest_config(&pairs(flags))));
    println!("throughput : {:.2} M pairs/s", r.mops);
    println!("L1 miss    : {:.3} %", r.l1_miss * 100.0);
}

fn profile(flags: &Flags) {
    let run = ok_or_exit(stamp_run(&pairs(flags)));
    let app = run.app.unwrap_or(AppKind::Genome);
    let scale = run.scale;
    let a = make_app(app, scale, 0xace);
    let prof = profile_app(a.as_ref(), run.alloc);
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
        assert_eq!(parsed["no-checkpoint"], "true");
        assert_eq!(parsed["depth"], "2");
        assert!(!flags("mc", &[]).unwrap().contains_key("no-checkpoint"));
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
        assert_eq!(flags("mc", &["--oom"]).unwrap()["oom"], "true");
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
