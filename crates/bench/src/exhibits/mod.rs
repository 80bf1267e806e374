//! The exhibit registry — single source of truth for every paper exhibit.
//!
//! Each paper table/figure (plus the extension ablations) lives in one
//! submodule exposing `pub fn run() -> RunReport`: a pure function of the
//! code and `TM_SCALE` that prints nothing and touches no file.
//! [`REGISTRY`] lists them all in canonical paper order with their
//! metadata, so the one runner (`make_all`), the generated book
//! (`tmstudy book`) and the EXPERIMENTS.md determinism table all derive
//! from the same list instead of keeping parallel name arrays in sync by
//! hand.

pub mod ablation_design;
pub mod ablation_hash;
pub mod ablation_machine;
pub mod ablation_padding;
pub mod ablation_serial;
pub mod ablation_shift;
pub mod ablation_variance;
pub mod backend_htm;
pub mod backend_norec;
pub mod cm_adaptive;
pub mod cm_matrix;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig4_mixes;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use tm_obs::spec::one_of;
use tm_stm::BackendKind;

/// One registered exhibit.
pub struct Exhibit {
    /// Artifact stem (`results/<name>.json`) and the name `make_all --only`
    /// takes.
    pub name: &'static str,
    /// Report kind (`table`, `figure` or `ablation`), mirrored in the
    /// run-report meta.
    pub kind: &'static str,
    /// One-line description, used by the generated docs.
    pub title: &'static str,
    /// Whether the exhibit's numbers depend on the shim PRNG stream.
    /// Deterministic exhibits regenerate byte-identically at a given
    /// `TM_SCALE`; rand-sensitive ones shift if the rand shim's stream or
    /// seeding changes.
    pub rand_sensitive: bool,
    /// How `tmstudy check` covers this exhibit's workload (the
    /// EXPERIMENTS.md check-status column): `serial-oracle` (synthetic set
    /// workloads validated against per-key serial witnesses),
    /// `checksum-diff` (STAMP runs diffed against a serial reference
    /// checksum), `app-verify` (STAMP apps whose final state is
    /// schedule-dependent; covered by their built-in `verify()` oracles),
    /// `heap-audit` (allocator-level workloads under the heap auditor), or
    /// `static` (no runtime state to check).
    pub check: &'static str,
    /// TM backend the exhibit studies. The paper's exhibits all run under
    /// TinySTM ETL; the backend exhibits compare against it, so the
    /// column names the *subject* backend.
    pub backend: BackendKind,
    /// Runs the exhibit and returns its report.
    pub run: fn() -> crate::RunReport,
}

/// Every exhibit, in canonical paper order (paper exhibits first, then the
/// extension ablations). This order is the one `make_all` runs and the one
/// the generated REPRODUCTION book uses.
pub const REGISTRY: &[Exhibit] = &[
    Exhibit {
        name: "table1",
        kind: "table",
        title: "Main attributes of the four modelled allocators",
        rand_sensitive: false,
        check: "heap-audit",
        backend: BackendKind::Etl,
        run: table1::run,
    },
    Exhibit {
        name: "table2",
        kind: "table",
        title: "Simulated machine configuration",
        rand_sensitive: false,
        check: "static",
        backend: BackendKind::Etl,
        run: table2::run,
    },
    Exhibit {
        name: "fig1",
        kind: "figure",
        title: "Intruder and Yada at 8 cores, Glibc vs Hoard (motivating gap)",
        rand_sensitive: false,
        check: "checksum-diff",
        backend: BackendKind::Etl,
        run: fig1::run,
    },
    Exhibit {
        name: "fig3",
        kind: "figure",
        title: "Threadtest throughput vs block size, 8 threads",
        rand_sensitive: false,
        check: "heap-audit",
        backend: BackendKind::Etl,
        run: fig3::run,
    },
    Exhibit {
        name: "fig4",
        kind: "figure",
        title: "Synthetic data-structure throughput vs cores, 60% updates",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: fig4::run,
    },
    Exhibit {
        name: "table3",
        kind: "table",
        title: "Best and worst allocators per synthetic structure",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: table3::run,
    },
    Exhibit {
        name: "table4",
        kind: "table",
        title: "Abort fraction and L1 miss ratio for the sorted list",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: table4::run,
    },
    Exhibit {
        name: "fig6",
        kind: "figure",
        title: "Relative speedup of the linked list: ORT shift 4 vs 6",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: fig6::run,
    },
    Exhibit {
        name: "table5",
        kind: "table",
        title: "STAMP allocation characterization by size class",
        rand_sensitive: true,
        check: "app-verify",
        backend: BackendKind::Etl,
        run: table5::run,
    },
    Exhibit {
        name: "fig7",
        kind: "figure",
        title: "STAMP execution time vs cores, six applications",
        rand_sensitive: true,
        check: "checksum-diff",
        backend: BackendKind::Etl,
        run: fig7::run,
    },
    Exhibit {
        name: "table6",
        kind: "table",
        title: "Best and worst allocators per STAMP application",
        rand_sensitive: true,
        check: "checksum-diff",
        backend: BackendKind::Etl,
        run: table6::run,
    },
    Exhibit {
        name: "fig8",
        kind: "figure",
        title: "Speedup curves for Genome and Yada",
        rand_sensitive: false,
        check: "checksum-diff",
        backend: BackendKind::Etl,
        run: fig8::run,
    },
    Exhibit {
        name: "table7",
        kind: "table",
        title: "Gain from the STM-level object-cache optimization",
        rand_sensitive: true,
        check: "app-verify",
        backend: BackendKind::Etl,
        run: table7::run,
    },
    Exhibit {
        name: "ablation_padding",
        kind: "ablation",
        title: "Labyrinth with and without per-thread pool padding",
        rand_sensitive: false,
        check: "app-verify",
        backend: BackendKind::Etl,
        run: ablation_padding::run,
    },
    Exhibit {
        name: "ablation_hash",
        kind: "ablation",
        title: "HashSet anomaly vs the ORT hash function",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: ablation_hash::run,
    },
    Exhibit {
        name: "ablation_design",
        kind: "ablation",
        title: "Encounter-time vs commit-time locking",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: ablation_design::run,
    },
    Exhibit {
        name: "ablation_shift",
        kind: "ablation",
        title: "Full ORT stripe-shift sweep (3..=8) for the linked list",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: ablation_shift::run,
    },
    Exhibit {
        name: "ablation_machine",
        kind: "ablation",
        title: "Allocator effects across machine profiles",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: ablation_machine::run,
    },
    Exhibit {
        name: "ablation_serial",
        kind: "ablation",
        title: "Negative control: serial allocator under no contention",
        rand_sensitive: false,
        check: "heap-audit",
        backend: BackendKind::Etl,
        run: ablation_serial::run,
    },
    Exhibit {
        name: "ablation_variance",
        kind: "ablation",
        title: "Bayes run-to-run variance study",
        rand_sensitive: true,
        check: "app-verify",
        backend: BackendKind::Etl,
        run: ablation_variance::run,
    },
    Exhibit {
        name: "fig4_mixes",
        kind: "figure",
        title: "Fig. 4 extension: read-only and read-dominated mixes",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: fig4_mixes::run,
    },
    Exhibit {
        name: "backend_norec",
        kind: "ablation",
        title: "§5.2 HashSet anomaly under NOrec: value validation removes ORT false conflicts",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Norec,
        run: backend_norec::run,
    },
    Exhibit {
        name: "backend_htm",
        kind: "ablation",
        title: "Simulated HTM capacity-abort cliff as transaction footprint crosses L1",
        rand_sensitive: false,
        check: "checksum-diff",
        backend: BackendKind::SimHtm,
        run: backend_htm::run,
    },
    Exhibit {
        name: "cm_matrix",
        kind: "ablation",
        title: "Allocator × contention-manager abort surface for the linked list",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: cm_matrix::run,
    },
    Exhibit {
        name: "cm_adaptive",
        kind: "ablation",
        title: "Adaptive CM controller vs the best static policy per allocator",
        rand_sensitive: true,
        check: "serial-oracle",
        backend: BackendKind::Etl,
        run: cm_adaptive::run,
    },
];

/// Run one exhibit by its exact name (used by `make_all` cells and tests).
pub fn run_by_name(name: &str) -> Result<crate::RunReport, String> {
    let e = one_of("exhibit", REGISTRY, |e| e.name, name)?;
    Ok((e.run)())
}

/// The per-exhibit determinism table for EXPERIMENTS.md, generated from
/// [`REGISTRY`] so the docs cannot drift from the code
/// (`make_all --table` prints it).
pub fn experiments_table() -> String {
    let mut out = String::from(
        "| Exhibit | Kind | Backend | Rand stream | Check | Description |\n|---|---|---|---|---|---|\n",
    );
    for e in REGISTRY {
        out.push_str(&format!(
            "| [`{name}`](results/{name}.json) | {kind} | {backend} | {det} | {check} | {title} |\n",
            name = e.name,
            kind = e.kind,
            backend = e.backend.name(),
            det = if e.rand_sensitive {
                "sensitive"
            } else {
                "deterministic"
            },
            check = e.check,
            title = e.title,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 25);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 25, "duplicate exhibit name in REGISTRY");
    }

    #[test]
    fn find_and_run_by_name_agree_with_registry() {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        for miss in ["nope", "FIG4", "fig"] {
            assert_eq!(
                run_by_name(miss).err(),
                Some(format!(
                    "bad exhibit '{miss}' (valid: {})",
                    names.join(", ")
                ))
            );
        }
    }

    #[test]
    fn experiments_table_lists_every_exhibit() {
        let t = experiments_table();
        for e in REGISTRY {
            assert!(t.contains(e.name), "missing {}", e.name);
        }
        assert!(t.contains("| deterministic |"));
        assert!(t.contains("| sensitive |"));
    }

    #[test]
    fn every_exhibit_has_a_known_check_mode() {
        const MODES: [&str; 5] = [
            "serial-oracle",
            "checksum-diff",
            "app-verify",
            "heap-audit",
            "static",
        ];
        for e in REGISTRY {
            assert!(
                MODES.contains(&e.check),
                "{}: bad check '{}'",
                e.name,
                e.check
            );
        }
        let t = experiments_table();
        assert!(t.contains("| Check |"));
        assert!(t.contains("| serial-oracle |"));
    }
}
