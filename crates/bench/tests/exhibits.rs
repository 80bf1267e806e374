//! The exhibit pipeline held against what is committed: an exhibit is a
//! pure function, so running one must reproduce its `results/<name>.json`
//! byte for byte, and the registry must still say what EXPERIMENTS.md says.

use tm_alloc::AllocatorKind;
use tm_bench::exhibits;
use tm_ds::StructureKind;
use tm_stamp::runner::StampOpts;
use tm_stamp::AppKind;

fn repo_file(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The exhibits that run in under 50 ms each in a release build. The other
/// eighteen are held against their reports by the drift gate of
/// `scripts/verify.sh`, which runs all 25 through `make_all`.
const FAST: [&str; 7] = [
    "table1",
    "table2",
    "fig1",
    "table5",
    "ablation_padding",
    "ablation_serial",
    "backend_htm",
];

#[test]
fn fast_exhibits_reproduce_their_committed_reports() {
    if tm_bench::scale() != 1 {
        return; // the committed reports are the default-scale ones
    }
    for name in FAST {
        assert_eq!(
            exhibits::run_by_name(name).unwrap().to_json_string(),
            repo_file(&format!("results/{name}.json")),
            "{name} no longer regenerates results/{name}.json"
        );
    }
}

#[test]
fn experiments_md_carries_the_generated_exhibit_table() {
    assert!(
        repo_file("EXPERIMENTS.md").contains(&exhibits::experiments_table()),
        "EXPERIMENTS.md drifted from `make_all --table`"
    );
}

#[test]
fn equal_configurations_share_a_result_and_a_changed_seed_does_not_collide() {
    let cfg = tm_bench::synth_cfg(StructureKind::LinkedList, AllocatorKind::Glibc, 2, 5);
    let miss = format!("{:?}", tm_bench::synth_point_cm(&cfg));
    assert_eq!(format!("{:?}", tm_bench::synth_point_cm(&cfg)), miss);
    let mut reseeded = cfg.clone();
    reseeded.seed ^= 1;
    assert_ne!(format!("{:?}", tm_bench::synth_point_cm(&reseeded)), miss);

    // A hit returns what a miss returned, correctness fields included.
    let (app, kind) = (AppKind::Genome, AllocatorKind::Glibc);
    let miss = tm_bench::stamp_point(app, kind, 2);
    assert!(miss.checksum.is_some());
    assert_eq!(
        format!("{:?}", tm_bench::stamp_point(app, kind, 2)),
        format!("{miss:?}")
    );
    let reseeded = StampOpts {
        seed: StampOpts::default().seed ^ 1,
        ..StampOpts::default()
    };
    let other = tm_bench::stamp_point_opts(app, kind, 2, &reseeded, tm_bench::stamp_scale(app));
    assert_ne!(format!("{other:?}"), format!("{miss:?}"));
}
