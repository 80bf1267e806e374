//! The machine-readable model-checking report.
//!
//! Where [`crate::check::CheckReport`] records differential correctness
//! cells, an [`McReport`] records *systematic schedule exploration* cells:
//! each cell is one configuration (strategy × backend × contention manager
//! × allocator × injected bug) pushed through the `tm-mc` schedule
//! explorer. A cell over the clean STM passes when no schedule in the
//! explored space violates an invariant (`clean`); a cell over a seeded
//! mutant passes only when the explorer *finds and shrinks* a violation
//! (`caught`) — a surviving mutant (`escaped`) means the explorer lost its
//! teeth, which is just as much a failure as a violation on the clean STM.
//!
//! The on-disk form is the `tm-mc-report/v1` JSON schema, written by
//! `tmstudy mc` to `results/<name>.mc.json` and consumed by `tmstudy
//! report`. `cells[].explored`/`pruned` count schedules run and schedules
//! soundly skipped by the independence argument; a clean PASS with zero
//! explored schedules is vacuous, so renderers surface both counters.
//! Counterexamples carry the full delay vector, so any reported violation
//! is replayable by construction.

use crate::json::Json;
use crate::matrix::{
    diff_value, field, key_of, named_scalar, opt_obj, req, Cell, Codec, Field, Fields, Matrix,
    CONFIG, COUNT, FLAG, NON_ZERO, OR_0,
};

/// Schema identifier written into every model-checking report.
pub const MC_SCHEMA: &str = "tm-mc-report/v1";

/// Extended schema carrying the optional checkpoint-throughput block and
/// per-cell dedup/cap markers. A report that uses none of the v1.1
/// additions is emitted (byte-identically) as plain v1.
pub const MC_SCHEMA_V1_1: &str = "tm-mc-report/v1.1";

/// Wall-clock summary of a checkpointed exploration run ([`McReport`]'s
/// optional `throughput` block). Never part of determinism goldens —
/// `schedules_per_sec` varies with the host — which is why it lives
/// beside the cells instead of inside them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct McThroughput {
    /// Schedules executed per wall-clock second across the whole run.
    pub schedules_per_sec: f64,
    /// Virtual-time events *not* re-executed thanks to checkpoint
    /// restore: root-prefix events × restores.
    pub replay_steps_saved: u64,
    /// Root checkpoints captured (one per session the run built).
    pub checkpoints_taken: u64,
    /// Schedules skipped by state-fingerprint dedup, summed over cells.
    pub deduped: u64,
}

impl Fields for McThroughput {
    const FIELDS: &'static [Field<Self>] = &[
        field!("schedules_per_sec" => schedules_per_sec: req()),
        field!("replay_steps_saved" => replay_steps_saved: OR_0),
        field!("checkpoints_taken" => checkpoints_taken: OR_0),
        field!("deduped" => deduped: OR_0),
    ];
}

/// The mc schema's top-level extra: the optional throughput block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct McExtra {
    /// Wall-clock summary of the checkpointed explorer, when the run used
    /// it. Host-dependent, so excluded from determinism comparisons.
    pub throughput: Option<McThroughput>,
}

impl Fields for McExtra {
    const FIELDS: &'static [Field<Self>] = &[field!("throughput" => throughput: opt_obj(), minor)];
}

/// Outcome of one model-checking cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum McVerdict {
    /// Clean STM: every explored schedule satisfied every invariant.
    #[default]
    Clean,
    /// Seeded mutant: a violating schedule was found and shrunk. This is
    /// the *expected* outcome for a mutant cell.
    Caught,
    /// Clean STM: some schedule violated an invariant — a real (or
    /// injected-but-unexpected) atomicity bug.
    Violation,
    /// Seeded mutant: the explorer exhausted its budget without finding a
    /// violation; the mutation catalog no longer proves the tool works.
    Escaped,
}

impl McVerdict {
    /// Stable lower-case name used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            McVerdict::Clean => "clean",
            McVerdict::Caught => "caught",
            McVerdict::Violation => "violation",
            McVerdict::Escaped => "escaped",
        }
    }

    /// Did the cell end the way its kind requires (`clean` for clean
    /// cells, `caught` for mutant cells)?
    pub fn is_expected(self) -> bool {
        matches!(self, McVerdict::Clean | McVerdict::Caught)
    }
}

named_scalar!(McVerdict, "mc verdict", [Clean, Caught, Violation, Escaped]);

/// A violating schedule, already shrunk to a minimal replayable form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct McCounterexample {
    /// The minimal delay vector: one virtual-cycle delay per scheduling
    /// point, in `(tid, txn)` row-major order. Feeding this exact vector
    /// back into the same configuration reproduces the violation.
    pub schedule: Vec<u64>,
    /// What broke: the violated invariant and the observed evidence.
    pub detail: String,
    /// 1-based index of the schedule that first exposed the violation.
    pub found_at: u64,
    /// Successful shrink steps applied to reach the minimal vector.
    pub shrink_steps: u64,
}

/// A counterexample's `schedule`: an array of delays.
pub const DELAYS: Codec<Vec<u64>> = Codec {
    emit: |v| Some(Json::Arr(v.iter().map(|d| Json::u64(*d)).collect())),
    parse: |v, owner, name| {
        v.and_then(Json::as_arr)
            .ok_or_else(|| format!("{owner} missing {name} array"))?
            .iter()
            .map(|d| {
                d.as_u64()
                    .ok_or_else(|| format!("{name} delay not an integer"))
            })
            .collect()
    },
};

impl Fields for McCounterexample {
    const FIELDS: &'static [Field<Self>] = &[
        field!("schedule" => schedule: DELAYS),
        field!("detail" => detail: req()),
        field!("found_at" => found_at: OR_0),
        field!("shrink_steps" => shrink_steps: OR_0),
    ];
}

/// One executed model-checking cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct McCell {
    /// The cell's configuration as `(key, value)` pairs, in declaration
    /// order (same convention as sweep/check cells).
    pub config: Vec<(String, String)>,
    /// How the cell ended.
    pub verdict: McVerdict,
    /// Schedules actually executed.
    pub explored: u64,
    /// Schedules soundly skipped by independence-based pruning.
    pub pruned: u64,
    /// Schedules skipped by the checkpointed explorer's state-fingerprint
    /// dedup — a 64-bit-hash approximation, so renderers must surface it
    /// as a caveat. Omitted from the JSON when zero (v1 byte-identity).
    pub deduped: u64,
    /// True when the schedule budget stopped the sweep before the bounded
    /// space was covered — the cell's coverage claim is partial. Omitted
    /// from the JSON when false.
    pub capped: bool,
    /// Present for `caught`/`violation` cells: the shrunk witness.
    pub counterexample: Option<McCounterexample>,
}

impl McCell {
    /// Stable identity of the cell within its report (see [`key_of`]).
    pub fn key(&self) -> String {
        key_of(&self.config)
    }
}

impl Fields for McCell {
    const FIELDS: &'static [Field<Self>] = &[
        field!("config" => config: CONFIG),
        field!("verdict" => verdict: req()),
        field!("explored" => explored: COUNT),
        field!("pruned" => pruned: COUNT),
        field!("deduped" => deduped: NON_ZERO, minor),
        field!("capped" => capped: FLAG, minor),
        field!("counterexample" => counterexample: opt_obj()),
    ];
}

impl Cell for McCell {
    type Extra = McExtra;
    const SCHEMAS: &'static [&'static str] = &[MC_SCHEMA, MC_SCHEMA_V1_1];
    const KIND: &'static str = "mc";
    const NOUN: &'static str = "mc report";

    fn config(&self) -> &[(String, String)] {
        &self.config
    }

    /// Violations on the clean STM and escaped mutants.
    fn degraded(&self) -> bool {
        !self.verdict.is_expected()
    }

    fn render_extra(extra: &McExtra, out: &mut String) {
        if let Some(t) = &extra.throughput {
            out.push_str(&format!(
                "  throughput: {:.0} schedules/s, {} replay steps saved, \
                 {} checkpoint(s), {} deduped\n",
                t.schedules_per_sec, t.replay_steps_saved, t.checkpoints_taken, t.deduped
            ));
        }
    }

    /// One line per cell with its exploration counters, its coverage
    /// caveats, and the shrunk counterexample if it has one.
    fn render(cells: &[Self], out: &mut String) {
        for c in cells {
            let deduped = if c.deduped > 0 {
                format!(" deduped={}", c.deduped)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<9} [{}] explored={} pruned={}{deduped}\n",
                c.verdict.name(),
                c.key(),
                c.explored,
                c.pruned
            ));
            if c.capped {
                out.push_str(
                    "            WARNING: schedule budget capped the sweep before the \
                     bounded space was covered\n",
                );
            }
            if c.deduped > 0 {
                out.push_str(
                    "            WARNING: deduped counts rest on 64-bit state \
                     fingerprints (collision risk; see DESIGN.md)\n",
                );
            }
            if let Some(cx) = &c.counterexample {
                let delays = cx
                    .schedule
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!(
                    "            {} (found at schedule {}, {} shrink steps)\n",
                    cx.detail, cx.found_at, cx.shrink_steps
                ));
                out.push_str(&format!("            minimal delays: [{delays}]\n"));
            }
        }
    }

    /// Verdict, exploration counters, the cap marker and the
    /// counterexample's delay vector.
    fn diff(&self, o: &Self, key: &str, out: &mut String) {
        let counts = |c: &Self| format!("{}/{}/{}", c.explored, c.pruned, c.deduped);
        diff_value(out, key, "verdict", self.verdict.name(), o.verdict.name());
        diff_value(out, key, "explored/pruned/deduped", counts(self), counts(o));
        diff_value(out, key, "capped", self.capped, o.capped);
        if self.counterexample.as_ref().map(|cx| &cx.schedule)
            != o.counterexample.as_ref().map(|cx| &cx.schedule)
        {
            out.push_str(&format!("cell [{key}]: counterexample differs\n"));
        }
    }
}

/// One model-checking run: identity, free-form metadata, the optional
/// throughput block (`report.throughput`), and one [`McCell`] per
/// explored configuration.
pub type McReport = Matrix<McCell>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> McReport {
        let mut r = McReport::new("mc_quick")
            .meta("mode", "quick")
            .meta("seed", 11);
        r.cells = vec![
            McCell {
                config: vec![
                    ("strategy".into(), "exhaustive".into()),
                    ("backend".into(), "etl".into()),
                    ("cm".into(), "suicide".into()),
                    ("bug".into(), "none".into()),
                ],
                verdict: McVerdict::Clean,
                explored: 232,
                pruned: 96,
                deduped: 0,
                capped: false,
                counterexample: None,
            },
            McCell {
                config: vec![
                    ("strategy".into(), "exhaustive".into()),
                    ("backend".into(), "etl".into()),
                    ("bug".into(), "skip-write-validation".into()),
                ],
                verdict: McVerdict::Caught,
                explored: 17,
                pruned: 4,
                deduped: 0,
                capped: false,
                counterexample: Some(McCounterexample {
                    schedule: vec![0, 0, 400, 0, 0, 0],
                    detail: "conservation violated: total 3250 != 3000".into(),
                    found_at: 17,
                    shrink_steps: 3,
                }),
            },
        ];
        r
    }

    fn sample_v1_1() -> McReport {
        let mut r = sample();
        r.throughput = Some(McThroughput {
            schedules_per_sec: 15625.0,
            replay_steps_saved: 4200,
            checkpoints_taken: 3,
            deduped: 12,
        });
        r.cells[0].deduped = 12;
        r.cells[1].capped = true;
        r
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample();
        let parsed = McReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn v1_1_roundtrips_and_plain_reports_stay_v1() {
        let plain = sample().to_json_string();
        assert!(plain.contains(MC_SCHEMA) && !plain.contains(MC_SCHEMA_V1_1));
        assert!(!plain.contains("throughput") && !plain.contains("deduped"));

        let rich = sample_v1_1();
        let text = rich.to_json_string();
        assert!(text.contains(MC_SCHEMA_V1_1));
        let parsed = McReport::parse(&text).unwrap();
        assert_eq!(parsed, rich);
    }

    #[test]
    fn render_surfaces_throughput_and_warnings() {
        let text = sample_v1_1().render();
        for needle in [
            "throughput: 15625 schedules/s, 4200 replay steps saved",
            "deduped=12",
            "WARNING: schedule budget capped the sweep",
            "WARNING: deduped counts rest on 64-bit state",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // A plain v1 report renders with none of the new noise.
        let plain = sample().render();
        assert!(!plain.contains("WARNING") && !plain.contains("throughput"));
    }

    #[test]
    fn diff_flags_dedup_and_cap_changes_but_not_throughput() {
        let a = sample_v1_1();
        let mut b = sample_v1_1();
        b.throughput.as_mut().unwrap().schedules_per_sec = 1.0;
        assert_eq!(a.diff(&b), None, "throughput must not affect the diff");
        b.cells[0].deduped = 0;
        b.cells[1].capped = false;
        let d = a.diff(&b).unwrap();
        assert!(
            d.contains("explored/pruned/deduped 232/96/12 -> 232/96/0"),
            "{d}"
        );
        assert!(d.contains("capped true -> false"), "{d}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let j = sample().to_json_string().replace(MC_SCHEMA, "bogus/v9");
        let err = McReport::parse(&j).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn degraded_counts_unexpected_verdicts() {
        assert_eq!(sample().degraded(), 0);
        let mut r = sample();
        r.cells[0].verdict = McVerdict::Violation;
        r.cells[1].verdict = McVerdict::Escaped;
        assert_eq!(r.degraded(), 2);
    }

    #[test]
    fn render_mentions_verdict_counters_and_counterexample() {
        let text = sample().render();
        for needle in [
            "mc_quick (mc: 2 cells, 0 degraded)",
            "clean",
            "[strategy=exhaustive backend=etl cm=suicide bug=none]",
            "explored=232 pruned=96",
            "caught",
            "conservation violated",
            "minimal delays: [0,0,400,0,0,0]",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn diff_reports_verdict_and_counter_changes() {
        let a = sample();
        assert_eq!(a.diff(&a), None);
        let mut b = sample();
        b.cells[0].verdict = McVerdict::Violation;
        b.cells[0].explored = 7;
        b.cells.pop();
        let d = a.diff(&b).unwrap();
        assert!(d.contains("verdict clean -> violation"), "{d}");
        assert!(
            d.contains("explored/pruned/deduped 232/96/0 -> 7/96/0"),
            "{d}"
        );
        assert!(d.contains("only in left"), "{d}");
    }

    #[test]
    fn bad_delay_type_is_an_error() {
        let mut j = sample().to_json_string();
        j = j.replace("400", "\"long\"");
        let err = McReport::parse(&j).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
    }
}
