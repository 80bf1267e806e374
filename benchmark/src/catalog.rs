//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction, bound and the one-sentence reason. `BENCHMARK.json` is this
//! catalogue written out (`cargo test` checks that they agree), and
//! `run.sh --list` prints it.

use tm_obs::json::Json;

use crate::probes::{ALLOC_KEYS, BACKEND_KEYS};
use crate::workloads::{stamp_group, STAMP_APPS, WORKLOADS};

/// Seconds one run measures for; also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 18;

/// A number a user of the system sees, with the share of the parent's
/// median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub why: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "host_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        why: "host seconds one pass of fixed work takes: each cell's best time over the run's passes, rescaled by the calibration kernel timed beside it, summed over the cells; what `tmstudy sweep`, `make_all` and `mc` cost on the wall (25 %, not 10: ten seeds spread 1-3 % on a quiet host, but a neighbour's minutes-long episode on the shared build host slowed four runs in a row by 7-36 %, a spread of 11 %)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
        why: "VmHWM when the run ends: memory reported beside time, as a faster layer that keeps more pages resident has not simply won (20 %, not 10: backend-mix reads 10.4, 10.9 or 11.4 MB depending on the seed, in steps of half a megabyte)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        why: "host seconds of one set-up (generate the cells from the seed, run the reference checks and the warm-up pass), estimated like host_s over the run's five set-ups, so work moved out of the timed passes shows",
    },
    EndToEnd {
        name: "virt_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        why: "simulated milliseconds one pass's fixed work takes, summed over its cells: the paper's own clock; exact at a fixed seed, so a simulator-only change must leave it bit-identical (the bound only has to cover how far it moves from seed to seed)",
    },
    EndToEnd {
        name: "ops",
        unit: "count",
        better: "higher",
        bound: 0.02,
        why: "fixed work per pass (commits, malloc/free pairs, schedules + sites), so ops / host_s is derivable and a pass that quietly does less shows",
    },
];

/// A number of one layer, and the end-to-end metric it should move.
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name: name.into(),
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in the order a traced run prints them.
pub fn per_layer() -> Vec<Layer> {
    let mut v = Vec::new();
    let mc_only = "host_s and setup_s on mc-explore only";
    for name in [
        "sim.new_us",
        "sim.run_spawn_us",
        "sim.snapshot_us",
        "sim.restore_us",
        "sim.snapshot_us_4k",
        "sim.restore_us_4k",
    ] {
        v.push(layer(name, "us", "lower", mc_only));
    }
    let steady = "host_s on synth-matrix, backend-mix, alloc-churn";
    for name in [
        "sim.handoff_ns",
        "sim.l1_hit_ns",
        "sim.l1_miss_ns",
        "sim.l2_miss_ns",
        "sim.coherence_ns",
        "sim.lock_ns",
    ] {
        v.push(layer(name, "ns", "lower", steady));
    }
    v.push(layer(
        "sim.solo_event_ns",
        "ns",
        "lower",
        "host_s on stamp-apps",
    ));
    v.push(layer(
        "sim.page_walk_ns",
        "ns",
        "lower",
        "host_s on stamp-apps",
    ));
    v.push(layer(
        "sim.htm_access_ns",
        "ns",
        "lower",
        "host_s on backend-mix",
    ));
    for name in [
        "sim.events",
        "sim.l1_accesses",
        "sim.l1_misses",
        "sim.l2_misses",
        "sim.coherence_transfers",
        "sim.lock_acquisitions",
        "sim.lock_contended",
    ] {
        v.push(layer(
            name,
            "count",
            "lower",
            "host_s of the workload it is counted on, times its unit cost",
        ));
    }
    v.push(layer("sim.resident_pages", "count", "lower", "peak_rss_mb"));

    let alloc_moves = "host_s on alloc-churn (most), stamp-apps (some), synth-matrix (little)";
    for (_, k) in ALLOC_KEYS {
        for (suffix, unit) in [
            ("fast_ns", "ns"),
            ("slow_ns", "ns"),
            ("large_ns", "ns"),
            ("remote_free_ns", "ns"),
            ("snapshot_us", "us"),
            ("replay_ns_per_op", "ns"),
        ] {
            v.push(layer(
                format!("alloc.{k}.{suffix}"),
                unit,
                "lower",
                alloc_moves,
            ));
        }
        v.push(layer(
            format!("alloc.{k}.virt_cycles_per_pair"),
            "cycles",
            "lower",
            "virt_ms",
        ));
        v.push(layer(
            format!("alloc.{k}.os_bytes"),
            "bytes",
            "lower",
            "virt_ms; memory efficiency of the replayed trace",
        ));
    }
    v.push(layer("alloc.calls", "count", "lower", alloc_moves));
    v.push(layer("alloc.busy_share", "share", "lower", "virt_ms"));
    v.push(layer(
        "alloc.audit_violations",
        "count",
        "lower",
        "none: a HeapAuditor finding, reported and not gated",
    ));

    for (_, b) in BACKEND_KEYS {
        let moves = if b == "etl" {
            "host_s on synth-matrix and stamp-apps; none on alloc-churn"
        } else {
            "host_s on backend-mix; none on alloc-churn"
        };
        for suffix in ["begin_commit_ns", "read_ns", "write_ns"] {
            v.push(layer(format!("stm.{b}.{suffix}"), "ns", "lower", moves));
        }
    }
    v.push(layer(
        "stm.tx_malloc_free_ns",
        "ns",
        "lower",
        "host_s on stamp-apps",
    ));
    v.push(layer("stm.new_us", "us", "lower", "host_s on mc-explore"));
    v.push(layer(
        "stm.thread_new_us",
        "us",
        "lower",
        "host_s on mc-explore",
    ));
    v.push(layer("stm.commits", "count", "higher", "virt_ms"));
    v.push(layer("stm.aborts", "count", "lower", "virt_ms"));
    v.push(layer("stm.commit_share", "share", "higher", "virt_ms"));
    for name in [
        "stm.reads",
        "stm.writes",
        "stm.tx_mallocs",
        "stm.tx_frees",
        "stm.extensions",
    ] {
        v.push(layer(name, "count", "lower", "virt_ms"));
    }

    for k in ["list", "hash", "rbtree", "queue"] {
        v.push(layer(
            format!("ds.{k}.op_ns"),
            "ns",
            "lower",
            "host_s on synth-matrix (whole operation on one thread, layers below included)",
        ));
    }
    for app in STAMP_APPS {
        v.push(layer(
            format!("{}.host_ms", stamp_group(app)),
            "ms",
            "lower",
            "host_s on stamp-apps",
        ));
    }
    let mc = "host_s on mc-explore";
    for name in [
        "mc.session_new_us",
        "mc.schedule_us",
        "mc.enumerate_schedule_us",
        "mc.oom_site_us",
    ] {
        v.push(layer(name, "us", "lower", mc));
    }
    for name in ["mc.d3_s", "mc.catalog_s", "mc.oom_s"] {
        v.push(layer(name, "s", "lower", mc));
    }
    v.push(layer("mc.schedules", "count", "lower", mc));
    for name in [
        "mc.pruned",
        "mc.deduped",
        "mc.checkpoints",
        "mc.replay_steps_saved",
    ] {
        v.push(layer(name, "count", "higher", mc));
    }

    let none = "no end-to-end metric by more than 1 %";
    v.push(layer("obs.sharded_add_ns", "ns", "lower", none));
    v.push(layer("obs.trace_event_ns", "ns", "lower", none));
    v.push(layer("obs.json_emit_mb_s", "MB/s", "higher", none));
    v.push(layer("obs.json_parse_mb_s", "MB/s", "higher", none));
    v.push(layer("core.stack_build_us", "us", "lower", none));
    v.push(layer("core.book_render_ms", "ms", "lower", none));
    v.push(layer("sweep.cell_overhead_us", "us", "lower", none));
    v.push(layer("check.oracle_cell_ms", "ms", "lower", none));

    v.push(layer("host.sys_share", "share", "lower", "what a fresh `tmstudy` pays: kernel share of the CPU time of the traced run's first warm-up pass, on the unpinned heap"));
    v.push(layer(
        "host.speed",
        "share",
        "higher",
        "none: the calibration kernel's speed against the reference host",
    ));
    v.push(layer(
        "trace.overhead_share",
        "share",
        "lower",
        "none: traced against untraced pass",
    ));
    v.push(layer(
        "model.residual_share",
        "share",
        "lower",
        "none: host_s the interaction model does not explain",
    ));
    v
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> Json {
    let obj = |pairs: Vec<(&str, Json)>| {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::u64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", Json::str(m.name.clone())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The catalogue as text, for `--list`.
pub fn render() -> String {
    let mut out = String::from("workloads (closed loop, one client):\n");
    for (name, why) in WORKLOADS {
        out += &format!("  {name:<14} {why}\n");
    }
    out += "\nend-to-end metrics (per workload; n, median, q1, q3 per row — with some twenty\npasses no tail percentile has ten samples beyond it, so none is reported):\n";
    for m in &END_TO_END {
        out += &format!(
            "  {:<12} {:<6} {:<7} bound {:>4.0} %  {}\n",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.why
        );
    }
    out += "  (failures are reported as `failed` of `attempted` cells beside the metrics)\n";
    out +=
        "\nper-layer metrics (traced run; no bound) and the end-to-end metric each should move:\n";
    for m in per_layer() {
        out += &format!(
            "  {:<32} {:<7} {:<7} {}\n",
            m.name, m.unit, m.better, m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<String> = layers.iter().map(|l| l.name.clone()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in &END_TO_END {
            assert!((0.0..=0.25).contains(&m.bound));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for unit in layers
            .iter()
            .map(|l| l.unit)
            .chain(END_TO_END.iter().map(|m| m.unit))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
            );
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&on_disk).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `benchmark/run.sh --benchmark-json > BENCHMARK.json`"
        );
    }
}
