//! The machine-readable every-site OOM sweep report.
//!
//! Where an [`crate::mc::McReport`] cell explores the *schedule* space of
//! one configuration, an [`OomReport`] cell explores its *allocation
//! failure* space: a counting dry run enumerates every allocation site
//! the workload executes, then the cell is re-run once per site with that
//! single allocation forced to fail. A clean cell passes when every
//! injected failure ends either in a committed retry or a clean
//! `AllocFailed` abort — zero leaks, zero invariant violations
//! ([`McVerdict::Clean`]); a cell over a seeded mutant (e.g.
//! `leak-on-alloc-fail`) passes only when some injected site exposes the
//! leak, shrunk to the smallest failing site index
//! ([`McVerdict::Caught`]).
//!
//! The on-disk form is the `tm-oom-report/v1` JSON schema, written by
//! `tmstudy mc --oom` to `results/<name>.oom.json` and consumed by
//! `tmstudy report` (rendered and diffed like any other artifact; the
//! results book skips it by schema). Verdict vocabulary is shared with
//! the mc schema — the failure-space sweep and the schedule-space sweep
//! answer the same "did the checker keep its teeth" question.

use crate::matrix::{
    diff_value, field, key_of, opt, req, Cell, Field, Fields, Matrix, CONFIG, COUNT,
};
use crate::mc::McVerdict;

/// Schema identifier written into every OOM sweep report.
pub const OOM_SCHEMA: &str = "tm-oom-report/v1";

/// One executed OOM sweep cell: a configuration swept across every one of
/// its allocation sites.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OomCell {
    /// The cell's configuration as `(key, value)` pairs, in declaration
    /// order (same convention as sweep/check/mc cells).
    pub config: Vec<(String, String)>,
    /// How the cell ended. `Clean`/`Caught` are the expected outcomes;
    /// `Violation` means an injected failure leaked or broke an
    /// invariant on the clean STM, `Escaped` means a seeded mutant
    /// survived every injected site.
    pub verdict: McVerdict,
    /// Allocation sites enumerated by the counting dry run.
    pub sites: u64,
    /// Failure injections actually executed (one run per swept site).
    pub injected: u64,
    /// Injected sites whose transaction retried and committed anyway.
    pub committed_retries: u64,
    /// Injected sites that ended in a clean `AllocFailed` abort
    /// propagated to the caller.
    pub alloc_aborts: u64,
    /// For `caught`/`violation` cells: the smallest site index whose
    /// injected failure exposed the problem.
    pub failing_site: Option<u64>,
    /// For `caught`/`violation` cells: what broke at that site.
    pub detail: Option<String>,
}

impl Fields for OomCell {
    const FIELDS: &'static [Field<Self>] = &[
        field!("config" => config: CONFIG),
        field!("verdict" => verdict: req()),
        field!("sites" => sites: COUNT),
        field!("injected" => injected: COUNT),
        field!("committed_retries" => committed_retries: COUNT),
        field!("alloc_aborts" => alloc_aborts: COUNT),
        field!("failing_site" => failing_site: opt()),
        field!("detail" => detail: opt()),
    ];
}

impl Cell for OomCell {
    type Extra = ();
    const SCHEMAS: &'static [&'static str] = &[OOM_SCHEMA];
    const KIND: &'static str = "oom";
    const NOUN: &'static str = "oom report";

    fn config(&self) -> &[(String, String)] {
        &self.config
    }

    /// Violations on the clean STM and escaped mutants.
    fn degraded(&self) -> bool {
        !self.verdict.is_expected()
    }

    /// One line per cell with its site/outcome counters, then the
    /// failing site for a cell that has one.
    fn render(cells: &[Self], out: &mut String) {
        for c in cells {
            out.push_str(&format!(
                "  {:<9} [{}] sites={} injected={} retries={} aborts={}\n",
                c.verdict.name(),
                key_of(&c.config),
                c.sites,
                c.injected,
                c.committed_retries,
                c.alloc_aborts
            ));
            if let Some(site) = c.failing_site {
                let detail = c.detail.as_deref().unwrap_or("no detail recorded");
                out.push_str(&format!("            site {site}: {detail}\n"));
            }
        }
    }

    /// Verdict, site/outcome counters and the failing site.
    fn diff(&self, o: &Self, key: &str, out: &mut String) {
        let counts = |c: &Self| {
            let (s, i, r, a) = (c.sites, c.injected, c.committed_retries, c.alloc_aborts);
            format!("{s}/{i}/{r}/{a}")
        };
        let site = |c: &Self| format!("{:?}", c.failing_site);
        diff_value(out, key, "verdict", self.verdict.name(), o.verdict.name());
        diff_value(
            out,
            key,
            "sites/injected/retries/aborts",
            counts(self),
            counts(o),
        );
        diff_value(out, key, "failing site", site(self), site(o));
    }
}

/// One every-site OOM sweep run: identity, free-form metadata, and one
/// [`OomCell`] per swept configuration.
pub type OomReport = Matrix<OomCell>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OomReport {
        let mut r = OomReport::new("oom_quick")
            .meta("mode", "quick")
            .meta("program", "oom");
        r.cells = vec![
            OomCell {
                config: vec![
                    ("alloc".into(), "tbb".into()),
                    ("backend".into(), "etl".into()),
                    ("cm".into(), "suicide".into()),
                    ("bug".into(), "none".into()),
                ],
                verdict: McVerdict::Clean,
                sites: 24,
                injected: 24,
                committed_retries: 9,
                alloc_aborts: 15,
                failing_site: None,
                detail: None,
            },
            OomCell {
                config: vec![
                    ("alloc".into(), "tbb".into()),
                    ("backend".into(), "etl".into()),
                    ("bug".into(), "leak-on-alloc-fail".into()),
                ],
                verdict: McVerdict::Caught,
                sites: 24,
                injected: 3,
                committed_retries: 0,
                alloc_aborts: 2,
                failing_site: Some(2),
                detail: Some("leaked 1 block (16 bytes) after injected failure".into()),
            },
        ];
        r
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample();
        let parsed = OomReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let j = sample().to_json_string().replace(OOM_SCHEMA, "bogus/v9");
        let err = OomReport::parse(&j).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn clean_cells_omit_failing_site_fields() {
        let text = sample().to_json_string();
        // Exactly one cell (the caught mutant) carries the optional pair.
        assert_eq!(text.matches("failing_site").count(), 1);
        assert_eq!(text.matches("\"detail\"").count(), 1);
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
    fn render_mentions_verdict_counters_and_failing_site() {
        let text = sample().render();
        for needle in [
            "oom_quick (oom: 2 cells, 0 degraded)",
            "clean",
            "[alloc=tbb backend=etl cm=suicide bug=none]",
            "sites=24 injected=24 retries=9 aborts=15",
            "caught",
            "site 2: leaked 1 block (16 bytes) after injected failure",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn diff_reports_verdict_counter_and_site_changes() {
        let a = sample();
        assert_eq!(a.diff(&a), None);
        let mut b = sample();
        b.cells[0].verdict = McVerdict::Violation;
        b.cells[0].alloc_aborts = 14;
        b.cells[1].failing_site = Some(7);
        let d = a.diff(&b).unwrap();
        assert!(d.contains("verdict clean -> violation"), "{d}");
        assert!(
            d.contains("sites/injected/retries/aborts 24/24/9/15 -> 24/24/9/14"),
            "{d}"
        );
        assert!(d.contains("failing site Some(2) -> Some(7)"), "{d}");
        b.cells.pop();
        let d = a.diff(&b).unwrap();
        assert!(d.contains("only in left"), "{d}");
    }
}
