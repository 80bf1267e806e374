//! The machine-readable run report.
//!
//! Every exhibit is emitted once, as `results/<name>.json` conforming to
//! the `tm-run-report/v1` schema defined here: one [`RunReport`] with
//! free-form metadata plus typed sections. `tmstudy report` pretty-prints
//! a report or diffs two of them (e.g. before/after an allocator change),
//! and `tmstudy book` renders REPRODUCTION.md from them.

use crate::json::Json;
use crate::matrix::{
    check_schema, document, emit_fields, field, opt, parse_fields, render_meta, req, same_schema,
    Codec, Field, Fields, Report, META,
};

/// Schema identifier written into every report.
pub const SCHEMA: &str = "tm-run-report/v1";

/// Additive v1.1 schema: identical to v1 plus optional top-level fields —
/// `backend` naming the TM backend that produced the run ("etl", "norec",
/// "htm") and `cm` naming the contention-management policy ("suicide",
/// "backoff", "karma", "timestamp", "serialize", "adaptive"). Reports that
/// set neither keep emitting plain v1 so every existing artifact stays
/// byte-identical; readers accept both schemas with or without either
/// field.
pub const SCHEMA_V1_1: &str = "tm-run-report/v1.1";

/// Every schema id a run report may carry: v1, then the minor version.
pub const SCHEMAS: &[&str] = &[SCHEMA, SCHEMA_V1_1];

/// One labelled curve of a figure: `(x, y)` points in x order.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Curve label (usually an allocator name).
    pub label: String,
    /// `(x, y)` samples in x order.
    pub points: Vec<(f64, f64)>,
}

/// One typed block of results: a figure's curves or a table. Counters
/// and histograms are written as tables (a counter is a `name, value`
/// row).
#[derive(Clone, Debug, PartialEq)]
pub enum Section {
    /// Labeled lines over a shared x-axis, as explicit (x, y) points.
    Series {
        /// Name of the shared x axis ("cores", "block_size", ...).
        x_label: String,
        /// One curve per line.
        lines: Vec<Series>,
    },
    /// A rectangular table of strings.
    Table {
        /// Column headers.
        header: Vec<String>,
        /// Data rows, each as long as `header`.
        rows: Vec<Vec<String>>,
    },
}

impl Section {
    fn kind(&self) -> &'static str {
        match self {
            Section::Series { .. } => "series",
            Section::Table { .. } => "table",
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Section::Series { x_label, lines } => Json::Obj(vec![
                ("x_label".into(), Json::str(x_label.clone())),
                (
                    "lines".into(),
                    Json::Obj(
                        lines
                            .iter()
                            .map(|line| {
                                (
                                    line.label.clone(),
                                    Json::Arr(
                                        line.points
                                            .iter()
                                            .map(|&(x, y)| {
                                                Json::Arr(vec![Json::Num(x), Json::Num(y)])
                                            })
                                            .collect(),
                                    ),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
            Section::Table { header, rows } => Json::Obj(vec![
                (
                    "header".into(),
                    Json::Arr(header.iter().map(|h| Json::str(h.clone())).collect()),
                ),
                (
                    "rows".into(),
                    Json::Arr(
                        rows.iter()
                            .map(|r| Json::Arr(r.iter().map(|c| Json::str(c.clone())).collect()))
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    fn from_json(kind: &str, data: &Json) -> Result<Section, String> {
        match kind {
            "series" => {
                let x_label = data
                    .get("x_label")
                    .and_then(Json::as_str)
                    .ok_or("series missing x_label")?
                    .to_string();
                let Some(Json::Obj(line_pairs)) = data.get("lines") else {
                    return Err("series missing lines object".into());
                };
                let mut lines = Vec::with_capacity(line_pairs.len());
                for (label, pts) in line_pairs {
                    let points = pts
                        .as_arr()
                        .ok_or("series line must be an array")?
                        .iter()
                        .map(|p| {
                            let p = p.as_arr().filter(|p| p.len() == 2);
                            match p {
                                Some([x, y]) => {
                                    Ok((x.as_f64().ok_or("bad x")?, y.as_f64().ok_or("bad y")?))
                                }
                                _ => Err("series point must be [x, y]".to_string()),
                            }
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    lines.push(Series {
                        label: label.clone(),
                        points,
                    });
                }
                Ok(Section::Series { x_label, lines })
            }
            "table" => {
                let header = str_arr(data.get("header"), "header")?;
                let rows = data
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("table missing rows")?
                    .iter()
                    .map(|r| str_arr(Some(r), "row"))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Section::Table { header, rows })
            }
            other => Err(format!("unknown section kind '{other}'")),
        }
    }
}

fn str_arr(v: Option<&Json>, what: &str) -> Result<Vec<String>, String> {
    v.and_then(Json::as_arr)
        .ok_or_else(|| format!("missing {what} array"))?
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{what} entry not a string"))
        })
        .collect()
}

/// One experiment run: identity, free-form metadata (configuration knobs,
/// thread counts, seeds — all stringly, they are labels not data), and
/// typed result sections.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Artifact name, matching the `results/<name>.json` stem.
    pub name: String,
    /// What produced it: "table", "figure", "ablation", "profile", ...
    pub kind: String,
    /// Free-form string key/values (configuration knobs, thread counts,
    /// seeds). Labels, not data: diffs compare them textually.
    pub meta: Vec<(String, String)>,
    /// TM backend that produced the run ("etl", "norec", "htm"). `None`
    /// emits the original v1 schema (byte-identical artifacts); `Some`
    /// bumps the emitted schema to v1.1.
    pub backend: Option<String>,
    /// Contention-management policy that produced the run ("suicide",
    /// "backoff", ...). Same contract as `backend`: `None` keeps the
    /// emitted schema (and bytes) unchanged, `Some` bumps it to v1.1.
    pub cm: Option<String>,
    /// Titled result sections, in emission order.
    pub sections: Vec<(String, Section)>,
}

impl RunReport {
    /// An empty report with the given artifact name and kind.
    pub fn new(name: impl Into<String>, kind: impl Into<String>) -> Self {
        RunReport {
            name: name.into(),
            kind: kind.into(),
            meta: Vec::new(),
            backend: None,
            cm: None,
            sections: Vec::new(),
        }
    }

    /// Append a metadata key/value (builder style).
    pub fn meta(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Self {
        self.meta.push((key.into(), value.to_string()));
        self
    }

    /// Set the TM backend label (builder style); switches emission to the
    /// v1.1 schema.
    pub fn backend(mut self, backend: impl Into<String>) -> Self {
        self.backend = Some(backend.into());
        self
    }

    /// Set the contention-management policy label (builder style);
    /// switches emission to the v1.1 schema.
    pub fn cm(mut self, cm: impl Into<String>) -> Self {
        self.cm = Some(cm.into());
        self
    }

    /// Append a titled section (builder style).
    pub fn section(mut self, title: impl Into<String>, section: Section) -> Self {
        self.sections.push((title.into(), section));
        self
    }

    /// The JSON tree: `tm-run-report/v1` when neither backend nor cm is
    /// set (keeping every pre-extension artifact byte-identical), v1.1
    /// with the optional `backend`/`cm` fields otherwise.
    pub fn to_json(&self) -> Json {
        document(SCHEMAS, |top| emit_fields(self, top))
    }

    /// The on-disk form: pretty-printed JSON with a trailing newline.
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Decode a `tm-run-report/v1` or v1.1 JSON tree (v1.1 adds the
    /// optional `backend` and `cm` fields; everything else is identical).
    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        check_schema(v, SCHEMAS)?;
        let mut report = RunReport::new("", "");
        parse_fields(&mut report, v, "report")?;
        Ok(report)
    }

    /// Parse the on-disk JSON text form.
    pub fn parse(src: &str) -> Result<RunReport, String> {
        RunReport::from_json(&Json::parse(src)?)
    }

    /// Human rendering for `tmstudy report <file>`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} ({})\n", self.name, self.kind));
        if let Some(b) = &self.backend {
            out.push_str(&format!("  backend = {b}\n"));
        }
        if let Some(c) = &self.cm {
            out.push_str(&format!("  cm = {c}\n"));
        }
        render_meta(&self.meta, &mut out);
        for (title, section) in &self.sections {
            out.push_str(&format!("\n== {title} [{}] ==\n", section.kind()));
            match section {
                Section::Series { x_label, lines } => {
                    for Series { label, points } in lines {
                        out.push_str(&format!(
                            "  {label} ({} points, x={x_label}):",
                            points.len()
                        ));
                        for (x, y) in points {
                            out.push_str(&format!(" ({x}, {y})"));
                        }
                        out.push('\n');
                    }
                }
                Section::Table { header, rows } => {
                    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
                    for r in rows {
                        for (i, c) in r.iter().enumerate() {
                            if i < widths.len() {
                                widths[i] = widths[i].max(c.len());
                            } else {
                                widths.push(c.len());
                            }
                        }
                    }
                    let fmt_row = |cells: &[String]| {
                        let mut line = String::from(" ");
                        for (i, c) in cells.iter().enumerate() {
                            line.push_str(&format!(
                                " {:<w$}",
                                c,
                                w = widths.get(i).copied().unwrap_or(0)
                            ));
                        }
                        line.trim_end().to_string() + "\n"
                    };
                    out.push_str(&fmt_row(header));
                    for r in rows {
                        out.push_str(&fmt_row(r));
                    }
                }
            }
        }
        out
    }

    /// Structural diff for `tmstudy report --diff a.json b.json`: reports
    /// metadata changes, section presence, and changed sections. Returns
    /// `None` when the two reports are identical.
    pub fn diff(&self, other: &RunReport) -> Option<String> {
        if self == other {
            return None;
        }
        let mut out = String::new();
        if self.name != other.name {
            out.push_str(&format!("name: {} -> {}\n", self.name, other.name));
        }
        if self.kind != other.kind {
            out.push_str(&format!("kind: {} -> {}\n", self.kind, other.kind));
        }
        let show = |b: &Option<String>| b.clone().unwrap_or_else(|| "(none)".into());
        if self.backend != other.backend {
            out.push_str(&format!(
                "backend: {} -> {}\n",
                show(&self.backend),
                show(&other.backend)
            ));
        }
        if self.cm != other.cm {
            out.push_str(&format!("cm: {} -> {}\n", show(&self.cm), show(&other.cm)));
        }
        diff_meta(&mut out, &self.meta, &other.meta);
        // Section-level comparison by title.
        for (title, sa) in &self.sections {
            match other.sections.iter().find(|(t, _)| t == title) {
                None => out.push_str(&format!("section '{title}': only in left\n")),
                Some((_, sb)) if sa != sb => out.push_str(&format!(
                    "section '{title}' [{} vs {}]: differs\n",
                    sa.kind(),
                    sb.kind()
                )),
                Some(_) => {}
            }
        }
        for (title, _) in &other.sections {
            if !self.sections.iter().any(|(t, _)| t == title) {
                out.push_str(&format!("section '{title}': only in right\n"));
            }
        }
        if out.is_empty() {
            // Differences only in ordering.
            out.push_str("reports differ only in ordering\n");
        }
        Some(out)
    }
}

/// The `sections` array: one `{title, type, data}` object per section.
const SECTIONS: Codec<Vec<(String, Section)>> = Codec {
    emit: |v| {
        let section = |(title, s): &(String, Section)| {
            Json::Obj(vec![
                ("title".into(), Json::str(title.clone())),
                ("type".into(), Json::str(s.kind())),
                ("data".into(), s.to_json()),
            ])
        };
        Some(Json::Arr(v.iter().map(section).collect()))
    },
    parse: |v, owner, name| {
        v.and_then(Json::as_arr)
            .ok_or_else(|| format!("{owner} missing {name} array"))?
            .iter()
            .map(|s| {
                let text = req::<String>().parse;
                let title = text(s.get("title"), "section", "title")?;
                let kind = text(s.get("type"), "section", "type")?;
                let data = s.get("data").ok_or("section missing data")?;
                Ok((title, Section::from_json(&kind, data)?))
            })
            .collect()
    },
};

impl Fields for RunReport {
    const FIELDS: &'static [Field<Self>] = &[
        field!("name" => name: req()),
        field!("kind" => kind: req()),
        field!("backend" => backend: opt(), minor),
        field!("cm" => cm: opt(), minor),
        field!("meta" => meta: META),
        field!("sections" => sections: SECTIONS),
    ];
}

impl Report for RunReport {
    fn render(&self) -> String {
        RunReport::render(self)
    }
    fn diff(&self, other: &dyn Report) -> Result<Option<String>, String> {
        Ok(RunReport::diff(self, same_schema(other)?))
    }
}

fn diff_meta(out: &mut String, a: &[(String, String)], b: &[(String, String)]) {
    for (k, va) in a {
        match b.iter().find(|(kb, _)| kb == k) {
            None => out.push_str(&format!("meta '{k}': only in left ({va})\n")),
            Some((_, vb)) if va != vb => out.push_str(&format!("meta '{k}': {va} -> {vb}\n")),
            Some(_) => {}
        }
    }
    for (k, vb) in b {
        if !a.iter().any(|(ka, _)| ka == k) {
            out.push_str(&format!("meta '{k}': only in right ({vb})\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport::new("fig4", "figure")
            .meta("threads", 8)
            .meta("allocator", "tcmalloc")
            .section(
                "stm",
                Section::Table {
                    header: vec!["counter".into(), "value".into()],
                    rows: vec![
                        vec!["commits".into(), "1000".into()],
                        vec!["aborts".into(), "37".into()],
                    ],
                },
            )
            .section(
                "throughput",
                Section::Series {
                    x_label: "threads".into(),
                    lines: vec![Series {
                        label: "tcmalloc".into(),
                        points: vec![(1.0, 0.5), (8.0, 3.25)],
                    }],
                },
            )
            .section(
                "notes",
                Section::Table {
                    header: vec!["app".into(), "time".into()],
                    rows: vec![vec!["vacation".into(), "1.23".into()]],
                },
            )
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample();
        let parsed = RunReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut j = sample().to_json_string();
        j = j.replace(SCHEMA, "tm-run-report/v0");
        let err = RunReport::parse(&j).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn backend_field_bumps_schema_to_v1_1() {
        let plain = sample();
        assert!(plain.to_json_string().contains("\"tm-run-report/v1\""));
        assert!(!plain.to_json_string().contains("backend"));

        let tagged = sample().backend("norec");
        let j = tagged.to_json_string();
        assert!(j.contains(SCHEMA_V1_1), "{j}");
        assert!(j.contains("\"backend\": \"norec\""), "{j}");
        let parsed = RunReport::parse(&j).unwrap();
        assert_eq!(parsed, tagged);
        assert_eq!(parsed.backend.as_deref(), Some("norec"));
    }

    #[test]
    fn diff_reports_backend_change() {
        let a = sample();
        let b = sample().backend("htm");
        let d = a.diff(&b).unwrap();
        assert!(d.contains("backend: (none) -> htm"), "{d}");
    }

    #[test]
    fn cm_field_bumps_schema_to_v1_1() {
        let plain = sample();
        assert!(plain.to_json_string().contains("\"tm-run-report/v1\""));
        assert!(!plain.to_json_string().contains("\"cm\""));

        let tagged = sample().cm("adaptive");
        let j = tagged.to_json_string();
        assert!(j.contains(SCHEMA_V1_1), "{j}");
        assert!(j.contains("\"cm\": \"adaptive\""), "{j}");
        let parsed = RunReport::parse(&j).unwrap();
        assert_eq!(parsed, tagged);
        assert_eq!(parsed.cm.as_deref(), Some("adaptive"));
        assert_eq!(parsed.backend, None);

        // Both fields together render in `backend, cm` order after kind.
        let both = sample().backend("etl").cm("karma");
        let j = both.to_json_string();
        let bpos = j.find("\"backend\"").unwrap();
        let cpos = j.find("\"cm\"").unwrap();
        assert!(bpos < cpos, "{j}");
        assert_eq!(RunReport::parse(&j).unwrap(), both);
    }

    #[test]
    fn diff_reports_cm_change() {
        let a = sample();
        let b = sample().cm("backoff");
        let d = a.diff(&b).unwrap();
        assert!(d.contains("cm: (none) -> backoff"), "{d}");
        assert!(b.render().contains("cm = backoff"));
    }

    #[test]
    fn render_mentions_all_sections() {
        let text = sample().render();
        for needle in [
            "fig4 (figure)",
            "== stm [table] ==",
            "commits",
            "== throughput [series] ==",
            "tcmalloc (2 points, x=threads): (1, 0.5) (8, 3.25)",
            "vacation",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn diff_reports_meta_and_section_changes() {
        let a = sample();
        let mut b = sample();
        if let Section::Table { rows, .. } = &mut b.sections[0].1 {
            rows[1][1] = "74".into(); // aborts doubled
        }
        b.meta[1].1 = "glibc".into();
        let d = a.diff(&b).unwrap();
        assert!(d.contains("meta 'allocator': tcmalloc -> glibc"), "{d}");
        assert!(d.contains("section 'stm' [table vs table]: differs"), "{d}");
        assert!(!d.contains("throughput"), "{d}");
        assert!(a.diff(&sample()).is_none());
    }

    #[test]
    fn diff_notes_missing_sections() {
        let a = sample();
        let mut b = sample();
        b.sections.remove(2);
        let d = a.diff(&b).unwrap();
        assert!(d.contains("section 'notes': only in left"), "{d}");
    }
}
