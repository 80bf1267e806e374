//! Minimal JSON tree, emitter and parser.
//!
//! The build environment is fully offline, so `serde` is not available;
//! the report layer needs exactly one thing — a faithful, dependency-free
//! JSON round trip for its five schemas ([`crate::report::RunReport`] and
//! the four [`crate::matrix`] reports) — and this module is that. Object
//! key order is preserved (reports are diffed textually), and integers are
//! kept distinct from floats so counters emit as `1234`, not `1234.0`.
//!
//! # Example: a `RunReport`'s JSON round trip
//!
//! The examples below are doc-tests — they run under `cargo test`, so the
//! JSON shown here is executable documentation, not decoration:
//!
//! ```
//! use tm_obs::json::Json;
//! use tm_obs::{RunReport, Section};
//!
//! let report = RunReport::new("fig4", "figure")
//!     .meta("threads", 8)
//!     .section(
//!         "stm",
//!         Section::Table {
//!             header: vec!["counter".into(), "value".into()],
//!             rows: vec![vec!["commits".into(), "1000".into()]],
//!         },
//!     );
//!
//! // The on-disk form is pretty-printed `tm-run-report/v1` JSON...
//! let text = report.to_json_string();
//! assert!(text.starts_with("{\n  \"schema\": \"tm-run-report/v1\""));
//!
//! // ...which parses back to exactly the same report...
//! assert_eq!(RunReport::parse(&text).unwrap(), report);
//!
//! // ...and is an ordinary JSON tree underneath.
//! let tree = Json::parse(&text).unwrap();
//! assert_eq!(tree.get("name").and_then(Json::as_str), Some("fig4"));
//! ```
//!
//! Integers survive as integers (a counter of 1000 emits as `1000`, never
//! `1000.0`), and object key order is preserved:
//!
//! ```
//! use tm_obs::json::Json;
//!
//! let v = Json::Obj(vec![
//!     ("commits".into(), Json::u64(1000)),
//!     ("ratio".into(), Json::Num(0.25)),
//! ]);
//! assert_eq!(v.emit(), r#"{"commits":1000,"ratio":0.25}"#);
//! assert_eq!(Json::parse(&v.emit()).unwrap(), v);
//! ```

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// A number with no fractional part, emitted without a decimal point.
    Int(i64),
    /// Any other number. Non-finite values emit as `null` (JSON has no
    /// NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is insertion order and is preserved by the
    /// parser.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for `Json::Str(s.into())`.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `u64` counter as an integer node (saturating at `i64::MAX`).
    pub fn u64(v: u64) -> Json {
        // Counters are u64; i64 covers every value the stack produces
        // (virtual clocks included), and staying in one integer variant
        // keeps parsing unambiguous. Saturate rather than wrap on the
        // astronomically-unlikely overflow.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is an `Int` in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Numeric value as f64 — accepts both `Int` and `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::NAN), // non-finite round trip
            _ => None,
        }
    }

    /// Array contents, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact single-line emission.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty emission with two-space indentation and a trailing newline —
    /// the on-disk format for `results/<name>.json` (stable, diffable).
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` is Rust's shortest-roundtrip float formatting
                    // and always includes a decimal point or exponent.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns a descriptive error with a byte
    /// offset on malformed input.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Arrays and objects a document may nest: far deeper than any report
/// schema goes, and shallow enough that the recursive descent below (and
/// the drop of what it built) cannot run out of stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if b == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            // Exactly four hex digits (`from_str_radix`
                            // would take a sign).
                            let code = hex
                                .iter()
                                .try_fold(0, |code, &h| Some(code * 16 + (h as char).to_digit(16)?))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not produced by our
                            // emitter; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        assert_eq!(&Json::parse(&v.emit()).unwrap(), v);
        assert_eq!(&Json::parse(&v.emit_pretty()).unwrap(), v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Int(-42));
        roundtrip(&Json::u64(u64::MAX / 4));
        roundtrip(&Json::Num(0.1));
        roundtrip(&Json::Num(1.5e300));
        roundtrip(&Json::str("hello \"quoted\"\nline\ttab\\slash"));
        roundtrip(&Json::str("unicode: π ≈ 3.14159"));
    }

    #[test]
    fn ints_emit_without_decimal_point() {
        assert_eq!(Json::Int(1234).emit(), "1234");
        assert_eq!(Json::Num(1234.5).emit(), "1234.5");
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
    }

    #[test]
    fn nested_structure_roundtrips() {
        let v = Json::Obj(vec![
            ("name".into(), Json::str("fig4")),
            (
                "threads".into(),
                Json::Arr(vec![Json::Int(1), Json::Int(2)]),
            ),
            (
                "meta".into(),
                Json::Obj(vec![("empty_arr".into(), Json::Arr(vec![]))]),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        roundtrip(&v);
        // Key order is preserved.
        let parsed = Json::parse(&v.emit_pretty()).unwrap();
        if let Json::Obj(pairs) = &parsed {
            assert_eq!(pairs[0].0, "name");
            assert_eq!(pairs[1].0, "threads");
        } else {
            panic!("not an object");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::Obj(vec![
            ("k".into(), Json::Int(7)),
            ("s".into(), Json::str("x")),
        ]);
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("k").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        let v = Json::parse(&nested(MAX_DEPTH)).expect("at the bound");
        roundtrip(&v);
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than 128 at byte {MAX_DEPTH}"));
        // Far past it: an error, not a stack overflow.
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128 at byte "), "{err}");
        // Siblings do not add up.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn a_unicode_escape_is_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u00e9""#).unwrap(), Json::str("é"));
        assert_eq!(Json::parse(r#""\u00E9""#).unwrap(), Json::str("é"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00g1""#,
            r#""\u12""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![(
                "a".into(),
                Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::str("A\n")])
            )])
        );
    }
}
