//! Textual input the front ends share: argv and colon-separated specs.
//!
//! * [`parse_flags`] — the argv rule of both binaries (`tmstudy`,
//!   `make_all`): `--name value` or a bare `--switch`, checked against the
//!   caller's table of the flags it understands, so a typo is a usage
//!   error instead of a run on the defaults, and a flag given twice is
//!   refused instead of one of its values winning.
//! * [`value`] / [`flag`] / [`choice`] / [`list`] — the one reader of a
//!   configuration: the ordered `(key, value)` list that [`parse_flags`]
//!   returns and that a sweep cell is. Every front end and every cell
//!   parser reads its keys through these, so a bad value is always
//!   `bad --<key> '<v>'`, and a comma list always splits the same way and
//!   names each item once.
//! * [`one_of`] — the one name lookup: a kind, a registry entry or a
//!   report status is found by its exact token (no case folding, no
//!   aliases), and a miss lists the valid tokens.
//! * [`quote`] — the one quoting rule of every refusal that shows its
//!   input: escaped, so the refusal stays one line.
//! * [`kind`] / [`fields`] / [`int`] — the tokenizing layer under the
//!   `<kind>:<field>[:<field>…]` grammar of the allocator fault plans
//!   behind `--alloc-fault` (`tm-alloc`). The caller owns its kind table
//!   and field semantics — these only answer "what are the pieces", never
//!   "what do they mean".

use std::collections::HashSet;
use std::str::FromStr;

/// A configuration: `(key, value)` pairs in the order given, each key at
/// most once. A flag is `--name value`, or a bare switch (value `true`).
pub type Flags = Vec<(String, String)>;

/// Parse `args` against what `program` understands: `values` (groups of
/// flags that take the next token) and bare `switches` (which take none).
/// A flag in neither table, a token that is no flag, a value after a
/// switch, a value flag left without one and a flag given twice are
/// usage errors naming the token.
pub fn parse_flags(
    program: &str,
    values: &[&[&str]],
    switches: &[&str],
    args: &[String],
) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("stray token {}", quote(arg)));
        };
        let given = args.next_if(|next| !next.starts_with("--"));
        let given = if values.iter().any(|part| part.contains(&name)) {
            given.ok_or(format!("--{name} needs a value"))?.clone()
        } else if switches.contains(&name) {
            if let Some(stray) = given {
                return Err(format!(
                    "--{name} takes no value (stray token {})",
                    quote(stray)
                ));
            }
            "true".to_string()
        } else {
            return Err(format!("unknown flag {} for {program}", quote(arg)));
        };
        if value(&flags, name).is_some() {
            return Err(format!("--{name} given twice"));
        }
        flags.push((name.to_string(), given));
    }
    Ok(flags)
}

/// The value of `key` in `config`, if it is there.
pub fn value<'a>(config: &'a [(String, String)], key: &str) -> Option<&'a str> {
    (config.iter())
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// `key`'s value parsed as a `T`, or `default` when absent; a value that
/// does not parse is the canonical `bad --<key> '<value>'` usage error.
pub fn flag<T: FromStr>(config: &[(String, String)], key: &str, default: T) -> Result<T, String> {
    value(config, key).map_or(Ok(default), |v| parse(key, v))
}

/// `key`'s value looked up among `all` by its exact token ([`one_of`]),
/// or `default` when absent; a miss is `bad --<key> '<v>' (valid: …)`.
pub fn choice<T: Copy>(
    config: &[(String, String)],
    key: &str,
    all: &[T],
    token: impl Fn(&T) -> &str,
    default: T,
) -> Result<T, String> {
    value(config, key).map_or(Ok(default), |v| {
        one_of(&format!("--{key}"), all, token, v).copied()
    })
}

/// `key`'s value as a comma list of `T`s, or `None` when absent. Items are
/// trimmed and empty ones dropped; a list with nothing left is
/// `--<key> has no values`, an item whose text comes twice is
/// `--<key> lists '<item>' twice`, and an item that does not parse is
/// `bad --<key> '<item>'`.
pub fn list<T: FromStr>(config: &[(String, String)], key: &str) -> Result<Option<Vec<T>>, String> {
    let Some(raw) = value(config, key) else {
        return Ok(None);
    };
    let items: Vec<&str> = (raw.split(',').map(str::trim))
        .filter(|item| !item.is_empty())
        .collect();
    if items.is_empty() {
        return Err(format!("--{key} has no values"));
    }
    let mut seen = HashSet::new();
    if let Some(item) = items.iter().find(|item| !seen.insert(*item)) {
        return Err(format!("--{key} lists {} twice", quote(item)));
    }
    let items = items.into_iter().map(|item| parse(key, item));
    items.collect::<Result<_, _>>().map(Some)
}

fn parse<T: FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad --{key} {}", quote(v)))
}

/// `s` between single quotes, escaped as Rust escapes a string for
/// debugging: the one quoting rule of every refusal that shows what it was
/// given, so the refusal stays one line whatever `s` holds.
pub fn quote(s: &str) -> String {
    format!("'{}'", s.escape_debug())
}

/// The item of `items` whose token is exactly `s`: every name the front
/// ends and the report loaders read has one spelling. A miss is
/// `bad <what> '<s>' (valid: a, b, c)`, listing the items' tokens, on one
/// line whatever `s` holds (it is shown through [`quote`]).
pub fn one_of<'a, T>(
    what: &str,
    items: &'a [T],
    token: impl Fn(&T) -> &str,
    s: &str,
) -> Result<&'a T, String> {
    items.iter().find(|&item| token(item) == s).ok_or_else(|| {
        let valid: Vec<&str> = items.iter().map(&token).collect();
        format!("bad {what} {} (valid: {})", quote(s), valid.join(", "))
    })
}

/// Split a spec into its leading kind token and the remainder after the
/// first `:`. `None` when there is no colon at all (every spec grammar
/// here requires at least `kind:field`).
pub fn kind(raw: &str) -> Option<(&str, &str)> {
    raw.split_once(':')
}

/// Split the remainder into exactly `N` colon-separated fields. `None`
/// when the field count differs or any field is empty — fault specs
/// have fixed arity per kind, and `budget::3` is a typo, not a plan.
pub fn fields<const N: usize>(rest: &str) -> Option<[&str; N]> {
    let mut out = [""; N];
    let mut it = rest.split(':');
    for slot in out.iter_mut() {
        let f = it.next()?;
        if f.is_empty() {
            return None;
        }
        *slot = f;
    }
    if it.next().is_some() {
        return None;
    }
    Some(out)
}

/// Parse one unsigned integer field. Accepts plain decimal and (for
/// seeds) a `0x` hex prefix; rejects empty text, signs, and anything
/// `u64` overflows on.
pub fn int(field: &str) -> Option<u64> {
    match field.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        // `str::parse` tolerates a leading `+`; a fault spec should not.
        None if field.bytes().all(|b| b.is_ascii_digit()) => field.parse::<u64>().ok(),
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_requires_a_colon() {
        assert_eq!(kind("budget:65536"), Some(("budget", "65536")));
        assert_eq!(kind("prob:7:16"), Some(("prob", "7:16")));
        assert_eq!(kind("no-colon"), None);
        assert_eq!(kind(""), None);
    }

    #[test]
    fn fields_enforce_exact_arity() {
        assert_eq!(fields::<1>("65536"), Some(["65536"]));
        assert_eq!(fields::<2>("7:16"), Some(["7", "16"]));
        assert_eq!(fields::<2>("7"), None, "too few");
        assert_eq!(fields::<1>("7:16"), None, "too many");
        assert_eq!(fields::<2>(":16"), None, "empty field");
        assert_eq!(fields::<2>("7:"), None, "empty trailing field");
        assert_eq!(fields::<1>(""), None);
    }

    #[test]
    fn int_accepts_decimal_and_hex_only() {
        assert_eq!(int("42"), Some(42));
        assert_eq!(int("0xace"), Some(0xace));
        assert_eq!(int("0"), Some(0));
        assert_eq!(int(""), None);
        assert_eq!(int("-3"), None);
        assert_eq!(int("+3"), None);
        assert_eq!(int("3.5"), None);
        assert_eq!(int("0x"), None);
        assert_eq!(int("99999999999999999999999"), None, "u64 overflow");
    }

    #[test]
    fn flags_are_checked_against_the_callers_table() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_flags("prog", &[&["jobs"], &["out"]], &["table"], &args)
        };
        let flags = parse(&["--jobs", "4", "--table", "--out", "m.json"]).unwrap();
        let keys: Vec<&str> = flags.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["jobs", "table", "out"], "argv order");
        assert_eq!(flag(&flags, "jobs", 1usize), Ok(4));
        assert_eq!(flag(&flags, "absent", 7u64), Ok(7));
        assert_eq!(value(&flags, "table"), Some("true"));
        assert_eq!(value(&flags, "out"), Some("m.json"));
        assert_eq!(value(&flags, "absent"), None);
        for (args, message) in [
            (&["--job", "4"][..], "unknown flag '--job' for prog"),
            (&["x"], "stray token 'x'"),
            (
                &["--table", "x"],
                "--table takes no value (stray token 'x')",
            ),
            (&["--jobs"], "--jobs needs a value"),
            (&["--jobs", "--table"], "--jobs needs a value"),
            (
                &["--jobs", "1", "--out", "a", "--jobs", "2"],
                "--jobs given twice",
            ),
            (&["--table", "--table"], "--table given twice"),
            (&["--jobs", "1", "--jobs", "1"], "--jobs given twice"),
        ] {
            assert_eq!(parse(args).unwrap_err(), message, "{args:?}");
        }
        let flags = parse(&["--jobs", "x"]).unwrap();
        assert_eq!(flag(&flags, "jobs", 1usize).unwrap_err(), "bad --jobs 'x'");

        // What a refusal shows of its input is quoted one way: escaped,
        // so the refusal stays on one line.
        for (args, message) in [
            (&["x\ny"][..], r"stray token 'x\ny'"),
            (&["--job\r", "4"], r"unknown flag '--job\r' for prog"),
            (
                &["--table", "\t'"],
                r"--table takes no value (stray token '\t\'')",
            ),
        ] {
            assert_eq!(parse(args).unwrap_err(), message, "{args:?}");
        }
        let flags = parse(&["--jobs", "1\n2"]).unwrap();
        assert_eq!(
            flag(&flags, "jobs", 1usize).unwrap_err(),
            r"bad --jobs '1\n2'"
        );

        // The one comma-list rule: items trimmed, empty ones dropped.
        let config = |v: &str| vec![("k".to_string(), v.to_string())];
        let strings = |v: &str| list::<String>(&config(v), "k");
        assert_eq!(strings("a,b").unwrap(), Some(vec!["a".into(), "b".into()]));
        assert_eq!(
            strings(" a , b ").unwrap(),
            Some(vec!["a".into(), "b".into()])
        );
        assert_eq!(
            strings("a,").unwrap(),
            Some(vec!["a".into()]),
            "trailing comma"
        );
        assert_eq!(strings("a,,b").unwrap().map(|v| v.len()), Some(2));
        for empty in [",", "", " , "] {
            assert_eq!(
                strings(empty).unwrap_err(),
                "--k has no values",
                "{empty:?}"
            );
        }
        // Each item once, compared as trimmed text.
        for twice in ["a,a", " a , b,a", "a,,a"] {
            assert_eq!(
                strings(twice).unwrap_err(),
                "--k lists 'a' twice",
                "{twice:?}"
            );
        }
        assert_eq!(list::<u64>(&config("1, 2"), "k"), Ok(Some(vec![1, 2])));
        assert_eq!(list::<u64>(&config("1,x"), "k").unwrap_err(), "bad --k 'x'");
        assert_eq!(strings("a\nb,a\nb").unwrap_err(), r"--k lists 'a\nb' twice");
        assert_eq!(list::<u64>(&config("1"), "absent"), Ok(None));
    }
}
