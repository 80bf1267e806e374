//! Characterization goldens for the five report schemas.
//!
//! Every byte `tm-obs` emits for a report — JSON key order, where an
//! optional member lands, the v1/v1.1 schema string, the `render()` text
//! and the `diff()` text — is an interface: committed artifacts, the
//! results book and `tmstudy report` all depend on it. Each schema has one
//! file under `tests/golden/`: documents in compact JSON, one a line (the
//! first uses every optional member, the second perturbs it, any further
//! line is the same report in the schema's other version), then the
//! rendering of the first and its diff against the second. A document must
//! parse, and what the parsed report writes must be exactly the pretty
//! form of its line — which pins emit and parse at once. The files were
//! blessed before the schemas moved onto the shared envelope (except the
//! check diff, which that move added), so they prove it changed no output.
//! Re-bless the text sections with `GOLDEN_BLESS=1 cargo test -p tm-obs
//! --test schema_goldens` only for an intentional format change.

use tm_obs::json::Json;
use tm_obs::{CheckReport, McReport, OomReport, RunReport, SweepReport};

fn golden_path(schema: &str) -> String {
    format!(
        "{}/tests/golden/{schema}.golden",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The documents of a schema's golden file, one a line.
fn documents(schema: &str) -> Vec<String> {
    let text = std::fs::read_to_string(golden_path(schema)).expect("golden file");
    let (docs, _) = text.split_once("--- render\n").expect("render section");
    docs.lines().map(str::to_string).collect()
}

/// Hold one schema against its golden file, through plain functions so
/// one driver serves all five report types.
fn check_golden<R>(
    schema: &str,
    parse: fn(&str) -> Result<R, String>,
    write: fn(&R) -> String,
    render: fn(&R) -> String,
    diff: fn(&R, &R) -> Option<String>,
) {
    let docs = documents(schema);
    let reports: Vec<R> = docs
        .iter()
        .map(|doc| {
            let report = parse(doc).unwrap_or_else(|e| panic!("{schema}: {e}\n{doc}"));
            let pretty = Json::parse(doc).unwrap().emit_pretty();
            assert_eq!(write(&report), pretty, "{schema}: emitted bytes drifted");
            report
        })
        .collect();
    assert_eq!(diff(&reports[0], &reports[0]), None, "{schema}: self-diff");
    let actual = format!(
        "{}\n--- render\n{}--- diff\n{}",
        docs.join("\n"),
        render(&reports[0]),
        diff(&reports[0], &reports[1]).expect("the perturbed document differs")
    );
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(golden_path(schema), &actual).unwrap();
    }
    let expected = std::fs::read_to_string(golden_path(schema)).unwrap();
    assert_eq!(actual, expected, "{schema}.golden drifted");
}

#[test]
fn sweep_golden() {
    check_golden(
        "sweep",
        SweepReport::parse,
        SweepReport::to_json_string,
        SweepReport::render,
        SweepReport::diff,
    );
}

#[test]
fn check_golden_with_the_shared_diff() {
    check_golden(
        "check",
        CheckReport::parse,
        CheckReport::to_json_string,
        CheckReport::render,
        CheckReport::diff,
    );
}

#[test]
fn mc_golden_and_the_v1_boundary() {
    check_golden(
        "mc",
        McReport::parse,
        McReport::to_json_string,
        McReport::render,
        McReport::diff,
    );
    // The third document is the first minus every v1.1 addition, and it
    // (round-tripping above) stayed v1. Each addition bumps on its own.
    let docs = documents("mc");
    assert!(docs[0].contains("tm-mc-report/v1.1") && docs[2].contains("tm-mc-report/v1\""));
    let rich = McReport::parse(&docs[0]).unwrap();
    for bump in [
        |r: &mut McReport, rich: &McReport| r.throughput = rich.throughput.clone(),
        |r: &mut McReport, _: &McReport| r.cells[0].deduped = 1,
        |r: &mut McReport, _: &McReport| r.cells[2].capped = true,
    ] {
        let mut r = McReport::parse(&docs[2]).unwrap();
        bump(&mut r, &rich);
        assert!(r.to_json_string().contains("\"tm-mc-report/v1.1\""));
    }
}

#[test]
fn oom_golden() {
    check_golden(
        "oom",
        OomReport::parse,
        OomReport::to_json_string,
        OomReport::render,
        OomReport::diff,
    );
}

#[test]
fn run_golden_and_the_v1_boundary() {
    check_golden(
        "run",
        RunReport::parse,
        RunReport::to_json_string,
        RunReport::render,
        RunReport::diff,
    );
    let docs = documents("run");
    assert!(docs[0].contains("tm-run-report/v1.1") && docs[2].contains("tm-run-report/v1\""));
    let plain = RunReport::parse(&docs[2]).unwrap();
    for tagged in [plain.clone().backend("htm"), plain.clone().cm("adaptive")] {
        assert!(tagged.to_json_string().contains("\"tm-run-report/v1.1\""));
    }
    // Same sections in another order: unequal, but nothing to itemize.
    let mut reordered = plain.clone();
    reordered.sections.swap(0, 1);
    assert_eq!(
        plain.diff(&reordered).as_deref(),
        Some("reports differ only in ordering\n")
    );
}

/// The parsers' errors for malformed input, exactly: each case replaces
/// one piece of a schema's first golden document.
#[test]
fn malformed_input_errors() {
    type Parse = fn(&str) -> Option<String>;
    let parsers: [(&str, Parse); 5] = [
        ("sweep", |s| SweepReport::parse(s).err()),
        ("check", |s| CheckReport::parse(s).err()),
        ("mc", |s| McReport::parse(s).err()),
        ("oom", |s| OomReport::parse(s).err()),
        ("run", |s| RunReport::parse(s).err()),
    ];
    // (schema, text to find, replacement, the error)
    let cases: &[(&str, &str, &str, &str)] = &[
        (
            "sweep",
            "tm-sweep-report/v1",
            "bogus/v9",
            "unsupported schema 'bogus/v9' (want 'tm-sweep-report/v1')",
        ),
        ("sweep", r#""name":"list-sweep""#, r#""name":4"#, "sweep missing name"),
        ("sweep", r#""axes":{"#, r#""axles":{"#, "sweep missing axes object"),
        ("sweep", r#""alloc":["#, r#""alloc":3,"x":["#, "axis 'alloc' not an array"),
        ("sweep", r#"["glibc","#, "[7,", "axis 'alloc' value not a string"),
        ("sweep", r#""cells":["#, r#""sells":["#, "sweep missing cells array"),
        ("sweep", r#""status":"error""#, r#""status":1"#, "cell missing status"),
        ("sweep", r#""status":"error""#, r#""status":"timeout""#, "bad cell status 'timeout' (valid: ok, error)"),
        ("sweep", r#""wall_ms":12"#, r#""wall_ms":"12""#, "cell missing wall_ms"),
        ("sweep", r#""wall_ms":12"#, r#""wall":12"#, "cell missing wall_ms"),
        ("sweep", r#""metrics":{"#, r#""metric":{"#, "cell missing metrics object"),
        ("sweep", r#""aborts":7.0"#, r#""aborts":"7""#, "metric 'aborts' not a number"),
        (
            "check",
            "tm-check-report/v1",
            "bogus/v9",
            "unsupported schema 'bogus/v9' (want 'tm-check-report/v1')",
        ),
        ("check", r#""name":"check_full","#, "", "check report missing name"),
        ("check", r#""meta":{"#, r#""beta":{"#, "check report missing meta object"),
        ("check", r#""seed":"7""#, r#""seed":7"#, "meta 'seed' not a string"),
        ("check", r#""cells":["#, r#""sells":["#, "check report missing cells array"),
        ("check", r#""config":{"#, r#""conf":{"#, "cell missing config object"),
        ("check", r#""alloc":"glibc""#, r#""alloc":1"#, "cell config 'alloc' not a string"),
        ("check", r#""status":"pass","#, "", "cell missing status"),
        ("check", r#""fail""#, r#""meh""#, "bad check status 'meh' (valid: pass, fail, error)"),
        ("check", r#""checks":{"#, r#""cheques":{"#, "cell missing checks object"),
        ("check", r#""keys":512"#, r#""keys":"many""#, "check counter 'keys' not an integer"),
        (
            "mc",
            "tm-mc-report/v1.1",
            "bogus/v9",
            "unsupported schema 'bogus/v9' (want 'tm-mc-report/v1' or 'tm-mc-report/v1.1')",
        ),
        ("mc", r#""name":"mc_quick","#, "", "mc report missing name"),
        ("mc", r#""meta":{"#, r#""beta":{"#, "mc report missing meta object"),
        (
            "mc",
            r#""schedules_per_sec":15625.5"#,
            r#""sps":1"#,
            "throughput missing schedules_per_sec",
        ),
        ("mc", r#""cells":["#, r#""sells":["#, "mc report missing cells array"),
        ("mc", r#""config":{"#, r#""conf":{"#, "cell missing config object"),
        ("mc", r#""verdict":"clean","#, "", "cell missing verdict"),
        ("mc", r#""escaped""#, r#""fled""#, "bad mc verdict 'fled' (valid: clean, caught, violation, escaped)"),
        ("mc", r#""explored":232"#, r#""explored":-1"#, "cell missing explored count"),
        ("mc", r#""pruned":96,"#, "", "cell missing pruned count"),
        ("mc", r#""schedule":["#, r#""sched":["#, "counterexample missing schedule array"),
        ("mc", "400", r#""long""#, "schedule delay not an integer"),
        ("mc", r#""detail":"cons"#, r#""retail":"cons"#, "counterexample missing detail"),
        (
            "oom",
            "tm-oom-report/v1",
            "bogus/v9",
            "unsupported schema 'bogus/v9' (want 'tm-oom-report/v1')",
        ),
        ("oom", r#""name":"oom_quick","#, "", "oom report missing name"),
        ("oom", r#""meta":{"#, r#""beta":{"#, "oom report missing meta object"),
        ("oom", r#""cells":["#, r#""sells":["#, "oom report missing cells array"),
        ("oom", r#""verdict":"clean","#, "", "cell missing verdict"),
        ("oom", r#""sites":8"#, r#""sites":"8""#, "cell missing sites count"),
        ("oom", r#""alloc_aborts":15"#, r#""aa":15"#, "cell missing alloc_aborts count"),
        (
            "run",
            "tm-run-report/v1.1",
            "tm-run-report/v0",
            "unsupported schema 'tm-run-report/v0' (want 'tm-run-report/v1' or 'tm-run-report/v1.1')",
        ),
        ("run", r#""name":"fig4","#, "", "report missing name"),
        ("run", r#""kind":"figure","#, "", "report missing kind"),
        ("run", r#""meta":{"#, r#""beta":{"#, "report missing meta object"),
        ("run", r#""threads":"8""#, r#""threads":8"#, "meta 'threads' not a string"),
        ("run", r#""sections":["#, r#""parts":["#, "report missing sections array"),
        ("run", r#""type":"table""#, r#""type":"poem""#, "unknown section kind 'poem'"),
        // The kinds no producer writes are gone: a document with one is
        // as unknown as any other.
        ("run", r#""type":"table""#, r#""type":"counters""#, "unknown section kind 'counters'"),
        ("run", r#""type":"table""#, r#""type":"histogram""#, "unknown section kind 'histogram'"),
        ("run", r#""type":"table""#, r#""type":"text""#, "unknown section kind 'text'"),
        ("run", r#""header":["counter""#, r#""head":["counter""#, "missing header array"),
        ("run", r#"["aborts","37"]"#, r#"["aborts",37]"#, "row entry not a string"),
        ("run", "[8.0,3.25]", "[3.25]", "series point must be [x, y]"),
    ];
    for (schema, find, replace, want) in cases {
        let doc = &documents(schema)[0];
        let parse = parsers.iter().find(|(s, _)| s == schema).unwrap().1;
        assert!(doc.contains(find), "{schema}: fixture lost {find:?}");
        let got = parse(&doc.replacen(find, replace, 1));
        assert_eq!(got.as_deref(), Some(*want), "{schema}: {find} -> {replace}");
    }
}

/// Optional members are read leniently: a wrong type reads as absent.
#[test]
fn optional_members_of_the_wrong_type_read_as_absent() {
    let doc = documents("mc")[0]
        .replace(
            r#""pruned":96,"deduped":12"#,
            r#""pruned":96,"deduped":"x""#,
        )
        .replace(r#""capped":true"#, r#""capped":1"#)
        .replace(r#""found_at":17"#, r#""found_at":"x""#);
    let r = McReport::parse(&doc).unwrap();
    assert_eq!(r.cells[0].deduped, 0);
    assert!(!r.cells[1].capped);
    assert_eq!(r.cells[1].counterexample.as_ref().unwrap().found_at, 0);
    let doc = documents("sweep")[0].replace(r#""error":"panic: cell exploded""#, r#""error":5"#);
    assert_eq!(SweepReport::parse(&doc).unwrap().cells[2].error, None);
    let doc = documents("oom")[0].replace(r#""failing_site":2"#, r#""failing_site":"two""#);
    assert_eq!(OomReport::parse(&doc).unwrap().cells[1].failing_site, None);
}
