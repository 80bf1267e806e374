//! Textual input the front ends share: argv and colon-separated specs.
//!
//! * [`parse_flags`] / [`flag`] — the argv rule of both binaries
//!   (`tmstudy`, `make_all`): `--name value` or a bare `--switch`, checked
//!   against the caller's table of the flags it understands, so a typo is
//!   a usage error instead of a run on the defaults.
//! * [`kind`] / [`fields`] / [`int`] — the tokenizing layer under the
//!   `<kind>:<field>[:<field>…]` grammar of the allocator fault plans
//!   behind `--alloc-fault` (`tm-alloc`). The caller owns its kind table
//!   and field semantics — these only answer "what are the pieces", never
//!   "what do they mean".

use std::collections::HashMap;

/// Command-line flags: `--name value`, or a bare switch (value `true`).
pub type Flags = HashMap<String, String>;

/// Parse `args` against what `program` understands: `values` (groups of
/// flags that take the next token) and bare `switches` (which take none).
/// A flag in neither table, a token that is no flag, a value after a
/// switch and a value flag left without one are usage errors naming the
/// token.
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
            return Err(format!("stray token '{arg}'"));
        };
        let value = args.next_if(|next| !next.starts_with("--"));
        let value = if values.iter().any(|part| part.contains(&name)) {
            value.ok_or(format!("--{name} needs a value"))?.clone()
        } else if switches.contains(&name) {
            if let Some(stray) = value {
                return Err(format!("--{name} takes no value (stray token '{stray}')"));
            }
            "true".to_string()
        } else {
            return Err(format!("unknown flag '--{name}' for {program}"));
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// `--<key>` parsed as a `T`, or `default` when absent; a value that does
/// not parse is the canonical `bad --<key> '<value>'` usage error.
pub fn flag<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    flags.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad --{key} '{v}'"))
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
        assert_eq!(flag(&flags, "jobs", 1usize), Ok(4));
        assert_eq!(flag(&flags, "absent", 7u64), Ok(7));
        assert_eq!(flags["table"], "true");
        assert_eq!(flags["out"], "m.json");
        for (args, message) in [
            (&["--job", "4"][..], "unknown flag '--job' for prog"),
            (&["x"], "stray token 'x'"),
            (
                &["--table", "x"],
                "--table takes no value (stray token 'x')",
            ),
            (&["--jobs"], "--jobs needs a value"),
            (&["--jobs", "--table"], "--jobs needs a value"),
        ] {
            assert_eq!(parse(args).unwrap_err(), message, "{args:?}");
        }
        let flags = parse(&["--jobs", "x"]).unwrap();
        assert_eq!(flag(&flags, "jobs", 1usize).unwrap_err(), "bad --jobs 'x'");
    }
}
