//! Hostile input: the JSON parser, the report loader and the argv parser
//! must answer any input with a value or an error — never a panic, never
//! a hang. The byte strings are arbitrary, or a committed schema golden
//! cut short or with one byte changed; the argv vectors mix the flags a
//! caller understands with unknown ones, bare words, `--`, empty strings
//! and values; the names given to the name lookup are tokens, near misses
//! and arbitrary text.

use std::sync::OnceLock;

use proptest::prelude::*;
use tm_obs::json::Json;
use tm_obs::load_report;
use tm_obs::spec::{one_of, parse_flags};

/// Every document of every schema golden, as bytes: the compact JSON
/// lines above each file's `--- render` marker.
fn golden_documents() -> &'static [Vec<u8>] {
    static DOCS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    DOCS.get_or_init(read_golden_documents)
}

fn read_golden_documents() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("the golden directory")
        .map(|e| e.expect("a golden entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "golden"))
        .collect();
    paths.sort();
    let mut docs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("a golden file");
        let (lines, _) = text.split_once("--- render\n").expect("a render marker");
        docs.extend(lines.lines().map(|l| l.as_bytes().to_vec()));
    }
    assert!(docs.len() >= 10, "{} golden documents", docs.len());
    docs
}

/// Bytes that steer the parser into its structure: brackets, quotes,
/// escapes, literals and number syntax.
const JSON_BYTES: &[u8] = b"{}[]\",:\\ \n0123456789.eE+-truefalsnu";

/// Fragments of JSON's grammar, whole and cut short: strung together they
/// reach the parser's escape, number and literal states far more often
/// than single bytes do.
const JSON_PIECES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    " ",
    "\\",
    "\\u",
    "\\u00",
    "\\u00e9",
    "\\n",
    "0",
    "12",
    "-",
    ".5",
    "e+",
    "E9",
    "1e400",
    "true",
    "fals",
    "null",
    "nu",
    "\"k\":",
    "\"schema\":",
];

/// Parse `bytes` both ways; either may fail, neither may panic.
fn parse_everything(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Json::parse(&text);
    let _ = load_report(&text);
}

/// The caller's table of `parse_flags`: two value-flag groups and two
/// switches.
const VALUES: &[&[&str]] = &[&["alloc", "threads"], &["out"]];
const SWITCHES: &[&str] = &["quick", "ctl"];

/// Argv tokens: known value flags and switches, unknown flags, `--`,
/// near-flags, bare words, values, empty strings, and line breaks, tabs
/// and quotes alone and inside flags, words and values.
const TOKENS: &[&str] = &[
    "--alloc",
    "--threads",
    "--out",
    "--quick",
    "--ctl",
    "--x",
    "--bogus",
    "--",
    "---",
    "-",
    "-x",
    "bare",
    "glibc",
    "8",
    "1,2",
    "",
    " ",
    "--alloc=glibc",
    "\n",
    "\r",
    "\t",
    "'",
    "x\ny",
    "--bogus\nx",
    "--al\rloc",
    "1\t2",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Arbitrary bytes, converted lossily to UTF-8; bytes drawn from
    /// JSON's own punctuation; both interleaved; strung grammar fragments
    /// — each also after an
    /// opening quote, bracket and object key, so the parser's string,
    /// array and member states see them too.
    #[test]
    fn json_and_reports_survive_arbitrary_bytes(
        raw in prop::collection::vec(0u16..256, 0..160),
        picks in prop::collection::vec(0usize..JSON_BYTES.len(), 0..160),
        pieces in prop::collection::vec(0usize..JSON_PIECES.len(), 0..40),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let json_ish: Vec<u8> = picks.iter().map(|&i| JSON_BYTES[i]).collect();
        let mixed: Vec<u8> = bytes.iter().zip(&json_ish).flat_map(|(&a, &b)| [a, b]).collect();
        let grammar: Vec<u8> = pieces.iter().flat_map(|&i| JSON_PIECES[i].bytes()).collect();
        for body in [&bytes, &json_ish, &mixed, &grammar] {
            for head in [&b""[..], b"\"", b"[", b"{\"k\":"] {
                parse_everything(&[head, body].concat());
            }
        }
    }

    /// A committed document cut at any byte, and one with any single byte
    /// replaced — by an arbitrary byte or by JSON punctuation.
    #[test]
    fn json_and_reports_survive_truncated_and_mutated_goldens(
        doc in 0usize..1_000,
        at in 0usize..1_000_000,
        byte in 0u16..256,
        pick in 0usize..JSON_BYTES.len(),
    ) {
        let docs = golden_documents();
        let doc = &docs[doc % docs.len()];
        let at = at % doc.len();
        parse_everything(&doc[..at]);
        for b in [byte as u8, JSON_BYTES[pick]] {
            let mut mutated = doc.to_vec();
            mutated[at] = b;
            parse_everything(&mutated);
        }
    }

    /// Any token vector parses to flags from the caller's table, each
    /// named once, or to a one-line error.
    #[test]
    fn parse_flags_answers_any_argv_in_one_line(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..10),
    ) {
        let args: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
        match parse_flags("tmstudy test", VALUES, SWITCHES, &args) {
            Ok(flags) => {
                for (at, (name, value)) in flags.iter().enumerate() {
                    prop_assert!(
                        flags[..at].iter().all(|(k, _)| k != name),
                        "{args:?} kept --{name} twice"
                    );
                    let known = VALUES.iter().any(|g| g.contains(&name.as_str()));
                    prop_assert!(
                        known || SWITCHES.contains(&name.as_str()),
                        "{args:?} accepted --{name}"
                    );
                    prop_assert!(!value.starts_with("--"), "{args:?}: --{name} {value}");
                }
            }
            Err(e) => prop_assert!(
                !e.contains(['\n', '\r']) && !e.is_empty(),
                "{args:?}: {e:?}"
            ),
        }
    }

    /// A name is found exactly when it is one of the tokens, as itself;
    /// anything else — another case, a prefix, padding, arbitrary bytes —
    /// is one line naming what was asked for and listing the tokens.
    #[test]
    fn one_of_finds_exactly_the_tokens_and_refuses_the_rest_in_one_line(
        pieces in prop::collection::vec(0usize..NAME_PIECES.len(), 0..4),
        raw in prop::collection::vec(0u16..256, 0..8),
        with_raw in any::<bool>(),
    ) {
        let mut name: String = pieces.iter().map(|&i| NAME_PIECES[i]).collect();
        if with_raw {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            name += &String::from_utf8_lossy(&bytes);
        }
        match one_of("--k", NAMES, |n| *n, &name) {
            Ok(found) => prop_assert_eq!(*found, name.as_str()),
            Err(e) => {
                prop_assert!(!NAMES.contains(&name.as_str()), "{name:?} refused: {e}");
                prop_assert!(!e.contains('\n'), "{name:?}: {e:?}");
                prop_assert!(e.starts_with("bad --k '"), "{name:?}: {e}");
                prop_assert!(e.ends_with("' (valid: glibc, tbb, list, rbtree)"), "{name:?}: {e}");
            }
        }
    }
}

/// The tokens `one_of` is asked about in the property above, and the
/// pieces its names are strung from: the tokens, their other cases,
/// prefixes, separators and blanks.
const NAMES: &[&str] = &["glibc", "tbb", "list", "rbtree"];
const NAME_PIECES: &[&str] = &[
    "glibc", "tbb", "list", "rbtree", "GLIBC", "Tbb", "rb", "tree", "lis", ",", " ", "\n", "'", "",
];

/// Every truncation of every golden document, exhaustively: the prefix
/// lengths are few enough to try them all.
#[test]
fn every_prefix_of_every_golden_document_parses_or_errs() {
    for doc in golden_documents() {
        for at in 0..doc.len() {
            parse_everything(&doc[..at]);
        }
    }
}
