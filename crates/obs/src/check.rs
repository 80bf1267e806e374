//! The machine-readable correctness-check report.
//!
//! Where [`crate::sweep::SweepReport`] records *performance* cells, a
//! [`CheckReport`] records *correctness* cells: each cell is one
//! configuration (allocator × structure/app × threads × …) run through a
//! differential checker — serial-oracle diffing, interleaving
//! exploration, or heap auditing — and ends `pass`, `fail` or `error`.
//! A `fail` means the checker found a real semantic divergence (the
//! paper's core assumption — allocators change performance, never
//! semantics — would be violated); an `error` means the checker itself
//! could not run the cell.
//!
//! The on-disk form is the `tm-check-report/v1` JSON schema, written by
//! `tmstudy check` to `results/<name>.check.json` and consumed by
//! `tmstudy report`. `cells[].checks` carries named counters describing
//! how much evidence the cell produced (keys validated, schedules
//! explored, blocks audited); a PASS with zero counters is meaningless,
//! so renderers surface them.

use crate::json::Json;
use crate::matrix::{
    diff_named, diff_value, field, key_of, named_scalar, opt, pairs_from, pairs_json, req, Cell,
    Codec, Field, Fields, Matrix, CONFIG,
};

/// Schema identifier written into every check report.
pub const CHECK_SCHEMA: &str = "tm-check-report/v1";

/// Outcome of one correctness cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckStatus {
    /// Every oracle/invariant the cell ran agreed with the STM execution.
    #[default]
    Pass,
    /// A checker found a semantic divergence or invariant violation.
    Fail,
    /// The checker could not run (bad config, panic, missing workload).
    Error,
}

impl CheckStatus {
    /// Stable lower-case name used in the JSON encoding.
    pub fn name(self) -> &'static str {
        match self {
            CheckStatus::Pass => "pass",
            CheckStatus::Fail => "fail",
            CheckStatus::Error => "error",
        }
    }
}

named_scalar!(CheckStatus, "check status", [Pass, Fail, Error]);

/// One executed correctness cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckCell {
    /// The cell's configuration as `(key, value)` pairs, in declaration
    /// order (same convention as sweep cells).
    pub config: Vec<(String, String)>,
    /// How the cell ended.
    pub status: CheckStatus,
    /// Failure/error detail for non-`pass` cells (the first divergence
    /// found, or the checker error).
    pub detail: Option<String>,
    /// Named evidence counters: how many keys/schedules/blocks the cell
    /// actually checked. Empty counters make a `pass` vacuous.
    pub checks: Vec<(String, u64)>,
}

/// A cell's `checks`: named evidence counters.
pub const CHECKS: Codec<Vec<(String, u64)>> = Codec {
    emit: |v| Some(pairs_json(v, |n| Json::u64(*n))),
    parse: |v, owner, name| {
        pairs_from(
            v,
            || format!("{owner} missing {name} object"),
            |k, j| {
                j.as_u64()
                    .ok_or_else(|| format!("check counter '{k}' not an integer"))
            },
        )
    },
};

impl Fields for CheckCell {
    const FIELDS: &'static [Field<Self>] = &[
        field!("config" => config: CONFIG),
        field!("status" => status: req()),
        field!("detail" => detail: opt()),
        field!("checks" => checks: CHECKS),
    ];
}

impl Cell for CheckCell {
    type Extra = ();
    const SCHEMAS: &'static [&'static str] = &[CHECK_SCHEMA];
    const KIND: &'static str = "check";
    const NOUN: &'static str = "check report";

    fn config(&self) -> &[(String, String)] {
        &self.config
    }

    fn degraded(&self) -> bool {
        self.status != CheckStatus::Pass
    }

    /// One line per cell with its evidence counters, then its detail.
    fn render(cells: &[Self], out: &mut String) {
        for c in cells {
            let counters = c
                .checks
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "  {:<5} [{}] {}\n",
                c.status.name(),
                key_of(&c.config),
                counters
            ));
            if let Some(d) = &c.detail {
                out.push_str(&format!("        {d}\n"));
            }
        }
    }

    /// Status changes and per-counter changes.
    fn diff(&self, o: &Self, key: &str, out: &mut String) {
        diff_value(out, key, "status", self.status.name(), o.status.name());
        diff_named(out, key, &self.checks, &o.checks, |_, _| String::new());
    }
}

/// One check run: identity, free-form metadata, and one [`CheckCell`]
/// per checked configuration.
pub type CheckReport = Matrix<CheckCell>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckReport {
        let mut r = CheckReport::new("check_full")
            .meta("mode", "full")
            .meta("seed", 7);
        r.cells = vec![
            CheckCell {
                config: vec![
                    ("check".into(), "synth".into()),
                    ("alloc".into(), "glibc".into()),
                    ("threads".into(), "8".into()),
                ],
                status: CheckStatus::Pass,
                detail: None,
                checks: vec![("keys".into(), 512), ("ops".into(), 4096)],
            },
            CheckCell {
                config: vec![
                    ("check".into(), "explore".into()),
                    ("bug".into(), "skip-write-validation".into()),
                ],
                status: CheckStatus::Fail,
                detail: Some("conservation violated: total 3998 != 4000".into()),
                checks: vec![("schedules".into(), 64)],
            },
        ];
        r
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample();
        let parsed = CheckReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let j = sample().to_json_string().replace(CHECK_SCHEMA, "bogus/v9");
        let err = CheckReport::parse(&j).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn degraded_counts_non_pass_cells() {
        assert_eq!(sample().degraded(), 1);
        let mut all_pass = sample();
        all_pass.cells.truncate(1);
        assert_eq!(all_pass.degraded(), 0);
    }

    #[test]
    fn render_mentions_status_key_and_counters() {
        let text = sample().render();
        for needle in [
            "check_full (check: 2 cells, 1 degraded)",
            "pass",
            "[check=synth alloc=glibc threads=8]",
            "keys=512",
            "fail",
            "conservation violated",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn bad_counter_type_is_an_error() {
        let mut j = sample().to_json_string();
        j = j.replace("\"keys\": 512", "\"keys\": \"many\"");
        let err = CheckReport::parse(&j).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
    }
}
