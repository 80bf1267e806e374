//! Hostile input to the `--alloc-fault` grammar: any string over
//! `[a-z0-9:]` parses to a plan or to a one-line error, never a panic, and
//! a plan it accepts prints a token that parses back to it.

use proptest::prelude::*;
use tm_alloc::AllocFaultPlan;

/// Each plan kind's prefix, and nothing, so the random tail reaches the
/// field parsers as often as the kind table.
const HEADS: &[&str] = &["", "none", "budget:", "class:", "site:", "prob:", "0x"];
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:";
/// Field fragments over the same alphabet: decimal and hex numbers, a
/// bare or doubled `0x`, values one past `u64::MAX`, and separators.
const FIELD_PIECES: &[&str] = &[
    "0",
    "7",
    "65536",
    "0x",
    "0xff",
    "x",
    "g",
    ":",
    "::",
    "18446744073709551616",
    "0x10000000000000000",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn a_fault_plan_parses_or_errs_in_one_line(
        head in 0usize..HEADS.len(),
        tail in prop::collection::vec(0usize..ALPHABET.len(), 0..24),
        fields in prop::collection::vec(0usize..FIELD_PIECES.len(), 0..8),
    ) {
        let tail: String = tail.iter().map(|&i| ALPHABET[i] as char).collect();
        let fields: String = fields.iter().map(|&i| FIELD_PIECES[i]).collect();
        let head = HEADS[head];
        for raw in [tail.clone(), format!("{head}{fields}"), format!("{head}{tail}")] {
            match AllocFaultPlan::parse(&raw) {
                Ok(plan) => prop_assert_eq!(AllocFaultPlan::parse(&plan.to_string()), Ok(plan)),
                Err(e) => prop_assert!(!e.contains('\n') && e.contains(&raw), "{raw:?}: {e:?}"),
            }
        }
    }
}
