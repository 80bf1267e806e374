//! `StmConfig::check` is the one statement of which knob combinations the
//! STM runs: each refusal below names the knob at fault, `Stm::new` panics
//! with the same message, and every combination the studies build passes.

use tm_stm::{
    BackendKind, CmKind, InjectedBug, LockDesign, OrtHash, Stack, StackSpec, StmConfig, WriteMode,
};

const BUGS: [InjectedBug; 7] = [
    InjectedBug::None,
    InjectedBug::SkipWriteValidation,
    InjectedBug::SkipReadValidation,
    InjectedBug::NorecStaleSnapshot,
    InjectedBug::TxAllocEarlyFree,
    InjectedBug::SerializeTokenLeak,
    InjectedBug::LeakOnAllocFail,
];

fn refusal(cfg: StmConfig) -> String {
    cfg.check()
        .expect_err("a configuration the STM does not run")
}

#[test]
fn a_shift_of_64_or_more_is_refused() {
    // `addr >> 64` wraps to `addr >> 0` in release builds: shift 64 would
    // run as 0 and 65 as 1.
    for shift in [64, 65, u32::MAX] {
        let told = format!("bad --shift '{shift}' (a stripe shift is below 64)");
        assert_eq!(
            refusal(StmConfig {
                shift,
                ..StmConfig::default()
            }),
            told
        );
    }
    let widest = StmConfig {
        shift: 63,
        ..StmConfig::default()
    };
    assert_eq!(widest.check(), Ok(()));
}

#[test]
fn write_through_under_commit_time_locking_is_refused() {
    let cfg = StmConfig {
        design: LockDesign::Ctl,
        write_mode: WriteMode::Through,
        ..StmConfig::default()
    };
    assert_eq!(
        refusal(cfg),
        "--write-through requires encounter-time locking, not --ctl"
    );
}

#[test]
fn the_design_knobs_on_another_backend_are_refused() {
    for backend in [BackendKind::Norec, BackendKind::SimHtm] {
        let told = format!(
            "--ctl and --write-through apply to the etl backend only, not {}",
            backend.name()
        );
        let ctl = StmConfig {
            backend,
            design: LockDesign::Ctl,
            ..StmConfig::default()
        };
        let through = StmConfig {
            backend,
            write_mode: WriteMode::Through,
            ..StmConfig::default()
        };
        assert_eq!(refusal(ctl), told);
        assert_eq!(refusal(through), told);
    }
}

#[test]
fn a_seeded_bug_outside_its_backend_is_refused() {
    let cases = [
        (InjectedBug::SkipWriteValidation, BackendKind::Norec),
        (InjectedBug::SkipReadValidation, BackendKind::SimHtm),
        (InjectedBug::NorecStaleSnapshot, BackendKind::Etl),
    ];
    for (bug, backend) in cases {
        let cfg = StmConfig {
            backend,
            bug,
            ..StmConfig::default()
        };
        let told = format!(
            "injected bug {} does not apply to backend {}",
            bug.name(),
            backend.name()
        );
        assert_eq!(refusal(cfg), told);
    }
}

#[test]
#[should_panic(expected = "bad --shift '64'")]
fn stm_new_panics_with_the_check_message() {
    let cfg = StmConfig {
        shift: 64,
        ..StmConfig::default()
    };
    let _ = Stack::new(&StackSpec {
        stm: cfg,
        ..StackSpec::new(tm_alloc::AllocatorKind::TbbMalloc)
    });
}

/// Every combination of the knobs the STM exposes that is not refused
/// above — a superset of what the 25 exhibits and the check matrix
/// build (they vary backend, contention manager, shift, object cache,
/// design, write mode and hash, never the table size) — is accepted.
#[test]
fn every_other_combination_is_accepted() {
    let etl_designs = [
        (LockDesign::Etl, WriteMode::Back),
        (LockDesign::Ctl, WriteMode::Back),
        (LockDesign::Etl, WriteMode::Through),
    ];
    let mut accepted = 0;
    for backend in BackendKind::ALL {
        let designs = if backend == BackendKind::Etl {
            &etl_designs[..]
        } else {
            &etl_designs[..1]
        };
        for (cm, &(design, write_mode)) in CmKind::ALL
            .into_iter()
            .flat_map(|cm| designs.iter().map(move |d| (cm, d)))
        {
            for bug in BUGS.into_iter().filter(|b| b.applies_to(backend)) {
                for shift in 0..64 {
                    for (object_cache, ort_hash) in [
                        (false, OrtHash::ShiftMod),
                        (true, OrtHash::ShiftMod),
                        (false, OrtHash::Mix),
                        (true, OrtHash::Mix),
                    ] {
                        let cfg = StmConfig {
                            backend,
                            cm,
                            shift,
                            object_cache,
                            design,
                            write_mode,
                            ort_hash,
                            bug,
                        };
                        assert_eq!(cfg.check(), Ok(()), "{cfg:?}");
                        accepted += 1;
                    }
                }
            }
        }
    }
    // ETL: 3 designs × 6 bugs; NOrec: 1 × 5; HTM: 1 × 4 — each × 6 CMs,
    // 64 shifts and 4 cache/hash pairs.
    assert_eq!(accepted, (18 + 5 + 4) * 6 * 64 * 4);
}

/// The model checker's recipes — every seeded bug with its backend — and
/// its clean sweep over every backend and contention manager build
/// configurations the check accepts.
#[test]
fn the_model_checker_catalog_is_accepted() {
    for recipe in tm_mc::mutation_catalog() {
        let cfg = recipe.run.spec().stm;
        assert_eq!(cfg.check(), Ok(()), "{cfg:?}");
    }
    for backend in BackendKind::ALL {
        for cm in CmKind::ALL {
            let run = tm_mc::RunConfig {
                backend,
                cm,
                ..tm_mc::RunConfig::clean()
            };
            assert_eq!(run.spec().stm.check(), Ok(()));
        }
    }
}
