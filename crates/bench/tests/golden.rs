//! Byte-stability of the plain-text renderers.
//!
//! `tmstudy book` renders every figure of REPRODUCTION.md through
//! `render_series`, and the examples print through `render_table`, so the
//! bytes of both are pinned against golden files: any change to their
//! formatting fails here and must be blessed on purpose
//! (`GOLDEN_BLESS=1 cargo test -p tm-bench`). The JSON form of a report
//! must round-trip structurally.

use tm_core::report::{render_series, render_table};
use tm_obs::Series;

fn golden_table() -> (Vec<&'static str>, Vec<Vec<String>>, String) {
    let header = vec!["Structure", "Best", "Worst", "Perf. diff"];
    let rows = vec![
        vec![
            "LinkedList".into(),
            "Glibc".into(),
            "TBBMalloc".into(),
            "13.10%".into(),
        ],
        vec![
            "HashSet".into(),
            "Hoard".into(),
            "TCMalloc".into(),
            "18.50%".into(),
        ],
    ];
    let body = render_table("Golden: best/worst fixture", &header, &rows);
    (header, rows, body)
}

fn golden_series() -> (Vec<Series>, String) {
    let series = vec![
        Series {
            label: "Glibc".into(),
            points: vec![(1.0, 1000.0), (2.0, 1900.0), (4.0, 3500.0)],
        },
        Series {
            label: "Hoard".into(),
            points: vec![(1.0, 900.0), (2.0, 1700.0), (4.0, 3600.0)],
        },
    ];
    let body = render_series("Golden: sweep fixture", "cores", &series);
    (series, body)
}

fn check_golden(path: &str, actual: &str) {
    let full = format!("{}/tests/{path}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(&full, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("missing golden file {full} ({e}); run with GOLDEN_BLESS=1"));
    assert_eq!(
        actual, expected,
        "{path} drifted — REPRODUCTION.md and the examples would change; bless only if intended"
    );
}

#[test]
fn table_rendering_is_byte_stable() {
    let (_, _, body) = golden_table();
    check_golden("golden/table.txt", &body);
}

#[test]
fn series_rendering_is_byte_stable() {
    let (_, body) = golden_series();
    check_golden("golden/series.txt", &body);
}

#[test]
fn report_round_trips_through_json() {
    let (header, rows, _) = golden_table();
    let (series, _) = golden_series();
    let report = tm_bench::RunReport::new("golden", "table")
        .meta("scale", 1)
        .meta("threads", 8)
        .section("data", tm_bench::table_section(&header, &rows))
        .section("sweep", tm_bench::series_section("cores", &series));
    let parsed = tm_bench::RunReport::parse(&report.to_json_string()).unwrap();
    assert_eq!(parsed, report);
    assert!(report.diff(&parsed).is_none());
}
