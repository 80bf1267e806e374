//! # tm-bench — the exhibit pipeline
//!
//! Every table and figure of the paper, and every extension ablation, is
//! one pure function `fn() -> RunReport` listed in [`exhibits::REGISTRY`].
//! The `make_all` binary is the only thing that runs one: it writes
//! `results/<name>.json` (the one artifact per exhibit, schema
//! `tm-run-report/v1`) and prints the rendering `tmstudy report` gives.
//! `make_all --only fig4,table3` regenerates a subset; `make_all` with no
//! flag regenerates all of them.
//!
//! Absolute numbers come from the virtual-time simulator, so they are not
//! comparable to the paper's wall-clock seconds; the *shapes* (who wins,
//! by roughly what factor, where the crossovers sit) are the reproduction
//! targets, recorded exhibit-by-exhibit in EXPERIMENTS.md.
//!
//! All sweeps are deterministic. `TM_SCALE` (default 1) scales workload
//! sizes; larger values sharpen the shapes at the cost of runtime.

#![deny(missing_docs)]

use std::any::Any;
use std::collections::BTreeMap;

use parking_lot::Mutex;
use tm_alloc::AllocatorKind;
use tm_core::synthetic::{run_synthetic_cm, SyntheticConfig};
use tm_core::Metrics;
use tm_ds::StructureKind;
use tm_obs::Series;
use tm_stamp::runner::{run_kind, StampOpts, StampResult};
use tm_stamp::AppKind;
use tm_stm::{CmStats, CmSwitch};

/// Results of the points this process has already run, keyed by their
/// whole configuration. A run is a pure function of its configuration, so
/// exhibits that share points (fig4/table3/table4, fig7/table6/fig8,
/// cm_matrix/cm_adaptive) run each once per `make_all`; nothing outlives
/// the process, so there is no entry that can go stale.
static MEMO: Mutex<BTreeMap<String, Box<dyn Any + Send>>> = Mutex::new(BTreeMap::new());

fn memo<V: Clone + Send + 'static>(key: String, run: impl FnOnce() -> V) -> V {
    // The lock is not held across `run`: two workers that miss on one key
    // both run it, and both get the same value.
    if let Some(hit) = MEMO.lock().get(&key) {
        let hit = hit
            .downcast_ref::<V>()
            .expect("a key names its result type");
        return hit.clone();
    }
    let value = run();
    MEMO.lock().insert(key, Box::new(value.clone()));
    value
}

/// What [`run_synthetic_cm`] returns: the metrics, the contention-manager
/// tallies and the adaptive switch transcript.
pub type SynthResult = (Metrics, CmStats, Vec<(usize, CmSwitch)>);

/// Memoized [`run_synthetic_cm`].
pub fn synth_point_cm(cfg: &SyntheticConfig) -> SynthResult {
    memo(format!("synth {cfg:?}"), || run_synthetic_cm(cfg))
}

/// The metrics of [`synth_point_cm`].
pub fn synth_point(cfg: &SyntheticConfig) -> Metrics {
    synth_point_cm(cfg).0
}

/// Workload scale multiplier from the `TM_SCALE` environment variable (1
/// when unset), or what is wrong with its value. `make_all` checks this
/// once at start-up and reports the message as a usage error.
pub fn scale_from_env() -> Result<u64, String> {
    let value = match std::env::var("TM_SCALE") {
        Ok(value) => value,
        Err(std::env::VarError::NotPresent) => return Ok(1),
        Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
    };
    match value.parse() {
        Ok(scale) if scale > 0 => Ok(scale),
        _ => Err(format!("bad TM_SCALE '{value}'")),
    }
}

/// [`scale_from_env`] for the exhibits, which run after `make_all` has
/// checked the variable: panics on a bad value.
pub fn scale() -> u64 {
    scale_from_env().unwrap_or_else(|bad| panic!("{bad}"))
}

/// The thread counts of the paper's synthetic sweeps (Fig. 4, Table 4).
pub const SYNTH_THREADS: [usize; 5] = [1, 2, 4, 6, 8];
/// The thread counts of the paper's STAMP sweeps (Fig. 7/8).
pub const STAMP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Synthetic configuration used by the Fig. 4 / Table 3 / Table 4 / Fig. 6
/// regenerators (write-dominated, as the paper's discussion focuses on).
pub fn synth_cfg(
    structure: StructureKind,
    allocator: AllocatorKind,
    threads: usize,
    shift: u32,
) -> SyntheticConfig {
    let s = scale();
    let mut cfg = SyntheticConfig::scaled(structure, allocator, threads);
    cfg.shift = shift;
    cfg.initial_size *= s;
    cfg.key_range *= s;
    cfg.buckets = (cfg.initial_size * 32).next_power_of_two();
    cfg
}

/// One full synthetic sweep: throughput series per allocator (memoized).
pub fn synth_sweep(structure: StructureKind, shift: u32) -> Vec<Series> {
    AllocatorKind::ALL
        .iter()
        .map(|&kind| Series {
            label: kind.name().to_string(),
            points: SYNTH_THREADS
                .iter()
                .map(|&t| {
                    let m = synth_point(&synth_cfg(structure, kind, t, shift));
                    (t as f64, m.throughput)
                })
                .collect(),
        })
        .collect()
}

/// Memoized [`run_kind`].
pub fn stamp_point_opts(
    app: AppKind,
    kind: AllocatorKind,
    threads: usize,
    opts: &StampOpts,
    scale: u64,
) -> StampResult {
    memo(
        format!("stamp {app:?} {kind:?} t{threads} s{scale} {opts:?}"),
        || run_kind(app, kind, threads, opts, scale),
    )
}

/// One STAMP sweep point with the default options at the app's
/// [`stamp_scale`].
pub fn stamp_point(app: AppKind, kind: AllocatorKind, threads: usize) -> StampResult {
    stamp_point_opts(app, kind, threads, &StampOpts::default(), stamp_scale(app))
}

/// Per-app scale: keep the slowest apps tractable under the simulator.
pub fn stamp_scale(app: AppKind) -> u64 {
    let s = scale();
    match app {
        AppKind::Labyrinth => s, // long transactions; scale gently
        _ => 2 * s,
    }
}

pub use tm_obs::{RunReport, Section};

pub mod exhibits;

/// [`Section`] from the curves of a figure.
pub fn series_section(x_label: &str, series: &[Series]) -> Section {
    Section::Series {
        x_label: x_label.to_string(),
        lines: series.to_vec(),
    }
}

/// [`Section`] from the header and rows of a table.
pub fn table_section(header: &[&str], rows: &[Vec<String>]) -> Section {
    Section::Table {
        header: header.iter().map(|h| h.to_string()).collect(),
        rows: rows.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        // (Environment-dependent test kept trivial: parsing logic only.)
        assert!(scale() >= 1);
    }

    #[test]
    fn memo_runs_a_key_once() {
        let mut runs = 0;
        for _ in 0..2 {
            assert_eq!(
                memo("memo_runs_a_key_once".into(), || {
                    runs += 1;
                    7u64
                }),
                7
            );
        }
        assert_eq!(runs, 1);
    }

    #[test]
    fn synth_cfg_scales_consistently() {
        let cfg = synth_cfg(StructureKind::HashSet, AllocatorKind::Glibc, 4, 5);
        assert_eq!(cfg.key_range, cfg.initial_size * 2);
        assert!(cfg.buckets.is_power_of_two());
        assert_eq!(cfg.shift, 5);
    }
}
