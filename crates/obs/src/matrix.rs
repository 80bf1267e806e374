//! The envelope every report schema shares, and the registry of schemas.
//!
//! Four of the five schemas are *matrices* — `schema`, `name`, `meta`,
//! optional top-level extras, then `cells[]`, each cell a `config` plus
//! schema-specific members — and differ only in what a cell holds.
//! [`Matrix<C>`] is that envelope, written once: construction, the
//! `meta` builder, `degraded`, JSON emit and parse, the rendered header
//! and the key-joined diff. A schema is its cell struct, a [`Cell`] impl
//! and one ordered [`Field`] table; `SweepReport`, `CheckReport`,
//! `McReport` and `OomReport` are aliases of `Matrix<their cell>`.
//! [`crate::report::RunReport`] keeps its own section model but is emitted
//! and parsed through the same field tables and schema rule.
//!
//! **Adding a cell member** is one `field!` line in the cell's table
//! (plus the struct field): the line names the JSON key, the struct field
//! and a [`Codec`] that says how the value is written, when it is left
//! out, and what a missing one reads as. Table order is emission order.
//!
//! **The minor-version rule**, stated once: a field marked `minor` that
//! is actually emitted makes the document the schema's minor version (the
//! last entry of its schema ids); a document that emits none stays —
//! byte for byte — the v1 it always was. Readers accept every listed id.
//!
//! **Adding a schema** is a cell type, its [`Cell`] impl, and one line in
//! [`REGISTRY`]; `tmstudy report` renders and diffs it from there.

use std::any::Any;
use std::fmt::{Debug, Display};
use std::ops::{Deref, DerefMut};

use crate::json::Json;

/// One member of a JSON object, bound to a struct field by `field!`.
pub struct Field<T> {
    /// The JSON key.
    pub name: &'static str,
    /// Emitting this member makes the document its schema's minor version.
    pub minor: bool,
    /// The member's value, or `None` to leave the key out.
    pub emit: fn(&T) -> Option<Json>,
    /// Store the member (`None`: key absent) into the struct; the last
    /// argument names the enclosing object in error messages.
    pub parse: fn(&mut T, Option<&Json>, &str) -> Result<(), String>,
}

/// `field!("key" => struct_field: CODEC)` — one [`Field`] table line;
/// append `, minor` for a member that bumps the schema version.
macro_rules! field {
    ($name:literal => $f:ident: $codec:expr) => {
        field!($name => $f: $codec, false)
    };
    ($name:literal => $f:ident: $codec:expr, minor) => {
        field!($name => $f: $codec, true)
    };
    ($name:literal => $f:ident: $codec:expr, $minor:literal) => {
        $crate::matrix::Field {
            name: $name,
            minor: $minor,
            emit: |t| ($codec.emit)(&t.$f),
            parse: |t, v, owner| {
                t.$f = ($codec.parse)(v, owner, $name)?;
                Ok(())
            },
        }
    };
}
pub(crate) use field;

/// A struct with a field table.
pub trait Fields: Sized + 'static {
    /// The struct's JSON members, in emission order.
    const FIELDS: &'static [Field<Self>];
}

/// Append `t`'s members to `out`; true when a `minor` member was emitted.
pub fn emit_fields<T: Fields>(t: &T, out: &mut Vec<(String, Json)>) -> bool {
    let mut minor = false;
    for f in T::FIELDS {
        if let Some(v) = (f.emit)(t) {
            minor |= f.minor;
            out.push((f.name.into(), v));
        }
    }
    minor
}

/// Read every member of `t` out of `obj`, which error messages call
/// `owner`.
pub fn parse_fields<T: Fields>(t: &mut T, obj: &Json, owner: &str) -> Result<(), String> {
    T::FIELDS
        .iter()
        .try_for_each(|f| (f.parse)(t, obj.get(f.name), owner))
}

/// A document: a leading `schema` member, then whatever `body` appends.
/// `body` returns whether it emitted a minor-version member, which picks
/// the id: `ids[0]`, else the last.
pub fn document(ids: &[&str], body: impl FnOnce(&mut Vec<(String, Json)>) -> bool) -> Json {
    let mut top = vec![("schema".to_string(), Json::Null)];
    let minor = body(&mut top);
    top[0].1 = Json::str(if minor { ids[ids.len() - 1] } else { ids[0] });
    Json::Obj(top)
}

/// Reject a document whose `schema` member is none of `ids`.
pub fn check_schema(v: &Json, ids: &[&str]) -> Result<(), String> {
    let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
    if ids.contains(&schema) {
        return Ok(());
    }
    let want: Vec<String> = ids.iter().map(|id| format!("'{id}'")).collect();
    Err(format!(
        "unsupported schema '{schema}' (want {})",
        want.join(" or ")
    ))
}

/// How one value type is written to and read from a JSON member.
pub struct Codec<V> {
    /// The JSON value, or `None` to leave the member out.
    pub emit: fn(&V) -> Option<Json>,
    /// The value of the member (`None`: key absent), given what error
    /// messages call the enclosing object, then the member's key.
    pub parse: fn(Option<&Json>, &str, &str) -> Result<V, String>,
}

/// A value written as a single JSON number or string.
pub trait Scalar: Sized {
    /// The JSON form.
    fn to_json(&self) -> Json;
    /// `None` when `v` is not the JSON type this value is written as.
    fn from_json(v: &Json) -> Option<Result<Self, String>>;
}

impl Scalar for u64 {
    fn to_json(&self) -> Json {
        Json::u64(*self)
    }
    fn from_json(v: &Json) -> Option<Result<u64, String>> {
        v.as_u64().map(Ok)
    }
}

impl Scalar for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Option<Result<f64, String>> {
        v.as_f64().map(Ok)
    }
}

impl Scalar for String {
    fn to_json(&self) -> Json {
        Json::str(self.clone())
    }
    fn from_json(v: &Json) -> Option<Result<String, String>> {
        v.as_str().map(|s| Ok(s.to_string()))
    }
}

/// [`Scalar`] for an enum with `name()`, given what it is and all its
/// variants: written as its name, read back by the one name lookup
/// ([`crate::spec::one_of`]), so an unknown name is
/// `bad <what> '<name>' (valid: …)`.
macro_rules! named_scalar {
    ($t:ident, $what:literal, [$($v:ident),+]) => {
        impl $crate::matrix::Scalar for $t {
            fn to_json(&self) -> Json {
                Json::str(self.name())
            }
            fn from_json(v: &Json) -> Option<Result<Self, String>> {
                let all = [$($t::$v),+];
                v.as_str()
                    .map(|s| $crate::spec::one_of($what, &all, |v| v.name(), s).copied())
            }
        }
    };
}
pub(crate) use named_scalar;

/// Always written; absent or mistyped is "`owner` missing `name`".
pub const fn req<V: Scalar>() -> Codec<V> {
    Codec {
        emit: |v| Some(v.to_json()),
        parse: |v, owner, name| {
            v.and_then(V::from_json)
                .unwrap_or_else(|| Err(format!("{owner} missing {name}")))
        },
    }
}

/// Written when `Some`; absent or mistyped reads as `None`.
pub const fn opt<V: Scalar>() -> Codec<Option<V>> {
    Codec {
        emit: |v| v.as_ref().map(V::to_json),
        parse: |v, _, _| Ok(v.and_then(V::from_json).and_then(Result::ok)),
    }
}

/// [`req`] for an event count: "`owner` missing `name` count".
pub const COUNT: Codec<u64> = Codec {
    emit: |v| Some(Json::u64(*v)),
    parse: |v, owner, name| {
        v.and_then(Json::as_u64)
            .ok_or_else(|| format!("{owner} missing {name} count"))
    },
};

/// A count always written; absent or mistyped reads as 0.
pub const OR_0: Codec<u64> = Codec {
    emit: COUNT.emit,
    parse: |v, _, _| Ok(v.and_then(Json::as_u64).unwrap_or(0)),
};

/// A count written only when non-zero; absent or mistyped reads as 0.
pub const NON_ZERO: Codec<u64> = Codec {
    emit: |v| (*v > 0).then(|| Json::u64(*v)),
    parse: OR_0.parse,
};

/// A marker written (as `true`) only when set.
pub const FLAG: Codec<bool> = Codec {
    emit: |v| v.then_some(Json::Bool(true)),
    parse: |v, _, _| Ok(matches!(v, Some(Json::Bool(true)))),
};

/// An optional nested object with its own field table, which error
/// messages call by the member's key.
pub const fn opt_obj<R: Fields + Default>() -> Codec<Option<R>> {
    Codec {
        emit: |v| {
            v.as_ref().map(|r| {
                let mut members = Vec::new();
                emit_fields(r, &mut members);
                Json::Obj(members)
            })
        },
        parse: |v, _, name| {
            v.map(|obj| {
                let mut r = R::default();
                parse_fields(&mut r, obj, name).map(|()| r)
            })
            .transpose()
        },
    }
}

/// An object of named values, in order.
pub fn pairs_json<V>(pairs: &[(String, V)], value: impl Fn(&V) -> Json) -> Json {
    Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// Inverse of [`pairs_json`]: `missing` words the error for a member
/// that is not an object, `value` reads (or rejects) one named entry.
pub fn pairs_from<V>(
    v: Option<&Json>,
    missing: impl FnOnce() -> String,
    value: impl Fn(&str, &Json) -> Result<V, String>,
) -> Result<Vec<(String, V)>, String> {
    match v {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, j)| Ok((k.clone(), value(k, j)?)))
            .collect(),
        _ => Err(missing()),
    }
}

/// `(key, value)` string pairs: a report's `meta`, a cell's `config`.
pub type StrPairs = Vec<(String, String)>;

fn str_pairs_json(pairs: &[(String, String)]) -> Json {
    pairs_json(pairs, |s| Json::str(s.clone()))
}

fn str_pairs_from(
    v: Option<&Json>,
    owner: &str,
    name: &str,
    label: &str,
) -> Result<StrPairs, String> {
    pairs_from(
        v,
        || format!("{owner} missing {name} object"),
        |k, j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{label} '{k}' not a string"))
        },
    )
}

/// A report's free-form `meta` labels.
pub const META: Codec<StrPairs> = Codec {
    emit: |v| Some(str_pairs_json(v)),
    parse: |v, owner, name| str_pairs_from(v, owner, name, name),
};

/// A cell's `config`: the `(key, value)` pairs that identify it.
pub const CONFIG: Codec<StrPairs> = Codec {
    emit: META.emit,
    parse: |v, owner, name| str_pairs_from(v, owner, name, "cell config"),
};

/// The `  key = value` lines under a rendered report's header.
pub fn render_meta(meta: &[(String, String)], out: &mut String) {
    for (k, v) in meta {
        out.push_str(&format!("  {k} = {v}\n"));
    }
}

/// Stable identity of a cell within its matrix: `k=v k2=v2 …` in config
/// order. Joins cells when diffing two matrices and matches
/// fault-injection patterns.
pub fn key_of(config: &[(String, String)]) -> String {
    config
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One `what a -> b` line when a member of two same-keyed cells differs.
pub fn diff_value<V: PartialEq + Display>(out: &mut String, key: &str, what: &str, a: V, b: V) {
    if a != b {
        out.push_str(&format!("cell [{key}]: {what} {a} -> {b}\n"));
    }
}

/// Diff two cells' named values (a sweep cell's metrics, a check cell's
/// counters) by name; `change` words what follows `a -> b`.
pub fn diff_named<V: PartialEq + Display>(
    out: &mut String,
    key: &str,
    a: &[(String, V)],
    b: &[(String, V)],
    change: impl Fn(&V, &V) -> String,
) {
    for (n, va) in a {
        match b.iter().find(|(k, _)| k == n) {
            None => out.push_str(&format!("cell [{key}] {n}: only in left\n")),
            Some((_, vb)) if va != vb => out.push_str(&format!(
                "cell [{key}] {n}: {va} -> {vb}{}\n",
                change(va, vb)
            )),
            Some(_) => {}
        }
    }
    for (n, _) in b {
        if !a.iter().any(|(k, _)| k == n) {
            out.push_str(&format!("cell [{key}] {n}: only in right\n"));
        }
    }
}

impl Fields for () {
    const FIELDS: &'static [Field<()>] = &[];
}

/// One matrix schema, as seen by the shared envelope: the cell type's
/// field table (which starts with `config`) plus what only the schema
/// knows.
pub trait Cell: Fields + Clone + Debug + PartialEq + Default {
    /// The schema's optional top-level members, between `meta` and
    /// `cells` (`axes`, `throughput`); `()` for a schema with none.
    type Extra: Fields + Clone + Debug + PartialEq + Default;
    /// Accepted `schema` ids: v1 first, the minor version (if any) last.
    const SCHEMAS: &'static [&'static str];
    /// The schema's short name in the rendered header ("sweep", "mc").
    const KIND: &'static str;
    /// What parse errors call the document ("sweep", "check report").
    const NOUN: &'static str;
    /// The `(key, value)` pairs that identify the cell.
    fn config(&self) -> &[(String, String)];
    /// Did the cell end other than its kind requires?
    fn degraded(&self) -> bool;
    /// The extras' lines of the rendered header.
    fn render_extra(_: &Self::Extra, _: &mut String) {}
    /// The body of the rendered report: every cell, in order.
    fn render(cells: &[Self], out: &mut String);
    /// Lines for what differs between this cell and the same-keyed
    /// `other`, leaving host-time members out.
    fn diff(&self, other: &Self, key: &str, out: &mut String);
}

/// One report in a matrix schema: identity, free-form metadata, the
/// schema's extras, and one cell per configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<C: Cell> {
    /// Artifact name, matching the `results/<name>.<kind>.json` stem.
    pub name: String,
    /// Free-form string key/values describing the whole run; labels, not
    /// data.
    pub meta: Vec<(String, String)>,
    /// The schema's top-level extras; their fields are also reachable
    /// directly (`report.axes`, `report.throughput`).
    pub extra: C::Extra,
    /// Executed cells, in execution order.
    pub cells: Vec<C>,
}

impl<C: Cell> Deref for Matrix<C> {
    type Target = C::Extra;
    fn deref(&self) -> &C::Extra {
        &self.extra
    }
}

impl<C: Cell> DerefMut for Matrix<C> {
    fn deref_mut(&mut self) -> &mut C::Extra {
        &mut self.extra
    }
}

impl<C: Cell> Matrix<C> {
    /// An empty report with the given artifact name.
    pub fn new(name: impl Into<String>) -> Self {
        Matrix {
            name: name.into(),
            meta: Vec::new(),
            extra: C::Extra::default(),
            cells: Vec::new(),
        }
    }

    /// Append a metadata key/value (builder style).
    pub fn meta(mut self, key: impl Into<String>, value: impl Display) -> Self {
        self.meta.push((key.into(), value.to_string()));
        self
    }

    /// Number of cells that did not end the way their kind requires.
    pub fn degraded(&self) -> usize {
        self.cells.iter().filter(|c| c.degraded()).count()
    }

    /// The JSON tree, in the schema's v1 form unless a minor-version
    /// member is emitted (see the module docs).
    pub fn to_json(&self) -> Json {
        document(C::SCHEMAS, |top| {
            top.push(("name".into(), Json::str(self.name.clone())));
            top.push(("meta".into(), str_pairs_json(&self.meta)));
            let mut minor = emit_fields(&self.extra, top);
            let cells = self.cells.iter().map(|c| {
                let mut members = Vec::new();
                minor |= emit_fields(c, &mut members);
                Json::Obj(members)
            });
            top.push(("cells".into(), Json::Arr(cells.collect())));
            minor
        })
    }

    /// The on-disk form: pretty-printed JSON with a trailing newline.
    pub fn to_json_string(&self) -> String {
        self.to_json().emit_pretty()
    }

    /// Decode a JSON tree carrying any of the schema's ids.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        check_schema(v, C::SCHEMAS)?;
        let mut report = Matrix::new((req::<String>().parse)(v.get("name"), C::NOUN, "name")?);
        report.meta = (META.parse)(v.get("meta"), C::NOUN, "meta")?;
        parse_fields(&mut report.extra, v, C::NOUN)?;
        let cells = v.get("cells").and_then(Json::as_arr);
        for obj in cells.ok_or_else(|| format!("{} missing cells array", C::NOUN))? {
            let mut cell = C::default();
            parse_fields(&mut cell, obj, "cell")?;
            report.cells.push(cell);
        }
        Ok(report)
    }

    /// Parse the on-disk JSON text form.
    pub fn parse(src: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(src)?)
    }

    /// Human rendering for `tmstudy report <file>`: a summary header,
    /// then the schema's cell listing.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} ({}: {} cells, {} degraded)\n",
            self.name,
            C::KIND,
            self.cells.len(),
            self.degraded()
        );
        render_meta(&self.meta, &mut out);
        C::render_extra(&self.extra, &mut out);
        out.push('\n');
        C::render(&self.cells, &mut out);
        out
    }

    /// Structural diff for `tmstudy report <a> <b>`: cells joined by
    /// [`key_of`], each pair compared by the schema, plus cells present
    /// on one side only. Host-time members (wall clock, throughput)
    /// are left out. `None` when nothing differs.
    pub fn diff(&self, other: &Self) -> Option<String> {
        let mut out = String::new();
        if self.name != other.name {
            out.push_str(&format!("name: {} -> {}\n", self.name, other.name));
        }
        let keys =
            |m: &Self| -> Vec<String> { m.cells.iter().map(|c| key_of(c.config())).collect() };
        let (left, right) = (keys(self), keys(other));
        for (c, key) in self.cells.iter().zip(&left) {
            match right.iter().position(|k| k == key) {
                None => out.push_str(&format!("cell [{key}]: only in left\n")),
                Some(i) => c.diff(&other.cells[i], key, &mut out),
            }
        }
        for key in right.iter().filter(|k| !left.contains(k)) {
            out.push_str(&format!("cell [{key}]: only in right\n"));
        }
        (!out.is_empty()).then_some(out)
    }
}

/// What `tmstudy report` needs of a loaded report, whatever its schema.
pub trait Report: Any {
    /// Human rendering.
    fn render(&self) -> String;
    /// Structural diff against a report of the same schema (`Ok(None)`:
    /// equivalent); `Err` when `other` is of another schema.
    fn diff(&self, other: &dyn Report) -> Result<Option<String>, String>;
}

/// `other` as the same concrete report type as the caller's, or the
/// error [`Report::diff`] gives for a schema mismatch.
pub fn same_schema<R: Report>(other: &dyn Report) -> Result<&R, String> {
    (other as &dyn Any)
        .downcast_ref()
        .ok_or_else(|| "cannot diff reports of different schemas".to_string())
}

impl<C: Cell> Report for Matrix<C> {
    fn render(&self) -> String {
        Matrix::render(self)
    }
    fn diff(&self, other: &dyn Report) -> Result<Option<String>, String> {
        Ok(Matrix::diff(self, same_schema(other)?))
    }
}

/// One schema `tmstudy report` understands.
pub struct Schema {
    /// The `schema` ids the loader accepts.
    pub ids: &'static [&'static str],
    /// What a parse error calls the document.
    pub what: &'static str,
    /// Decode a JSON tree carrying one of `ids`.
    pub load: fn(&Json) -> Result<Box<dyn Report>, String>,
}

impl Schema {
    const fn matrix<C: Cell>(what: &'static str) -> Schema {
        Schema {
            ids: C::SCHEMAS,
            what,
            load: |v| Ok(Box::new(Matrix::<C>::from_json(v)?)),
        }
    }
}

/// Every report schema, in the order error messages list them.
pub const REGISTRY: &[Schema] = &[
    Schema {
        ids: crate::report::SCHEMAS,
        what: "run report",
        load: |v| Ok(Box::new(crate::RunReport::from_json(v)?)),
    },
    Schema::matrix::<crate::SweepCell>("sweep matrix"),
    Schema::matrix::<crate::CheckCell>("check report"),
    Schema::matrix::<crate::McCell>("mc report"),
    Schema::matrix::<crate::OomCell>("oom report"),
];

/// Load a results document of any registered schema, dispatching on its
/// `schema` member. An unrecognised one gets an error naming the
/// registry's ids, not a parse failure.
pub fn load_report(src: &str) -> Result<Box<dyn Report>, String> {
    let tree = Json::parse(src).map_err(|e| format!("not JSON: {e}"))?;
    let known = || {
        let ids: Vec<&str> = REGISTRY.iter().flat_map(|s| s.ids).copied().collect();
        format!("(known schemas: {})", ids.join(", "))
    };
    let id = tree
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("no 'schema' field {}", known()))?;
    let schema = REGISTRY
        .iter()
        .find(|s| s.ids.contains(&id))
        .ok_or_else(|| format!("unknown schema '{id}' {}", known()))?;
    (schema.load)(&tree).map_err(|e| format!("malformed {}: {e}", schema.what))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document that satisfies every registered schema at once.
    fn universal(id: &str) -> String {
        format!(
            r#"{{"schema": "{id}", "name": "x", "kind": "k", "meta": {{}},
                "axes": {{}}, "sections": [], "cells": []}}"#
        )
    }

    #[test]
    fn every_registered_schema_id_loads_renders_and_diffs() {
        for id in REGISTRY.iter().flat_map(|s| s.ids) {
            let r = load_report(&universal(id)).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(r.render().starts_with("x ("), "{id}: {}", r.render());
            assert_eq!(r.diff(r.as_ref()), Ok(None), "{id}");
        }
    }

    #[test]
    fn diffing_across_schemas_is_an_error_not_a_panic() {
        let a = load_report(&universal(REGISTRY[1].ids[0])).unwrap();
        let b = load_report(&universal(REGISTRY[2].ids[0])).unwrap();
        let err = a.diff(b.as_ref()).unwrap_err();
        assert_eq!(err, "cannot diff reports of different schemas");
    }

    #[test]
    fn unknown_schema_error_lists_exactly_the_registry() {
        let err = load_report(&universal("tm-mystery/v9")).err().unwrap();
        let ids: Vec<&str> = REGISTRY.iter().flat_map(|s| s.ids).copied().collect();
        assert_eq!(
            err,
            format!(
                "unknown schema 'tm-mystery/v9' (known schemas: {})",
                ids.join(", ")
            )
        );
        assert_eq!(ids.len(), 7, "five schemas, two with a minor version");
    }

    #[test]
    fn the_loader_names_what_was_malformed() {
        for schema in REGISTRY {
            let doc = format!(r#"{{"schema": "{}"}}"#, schema.ids[0]);
            let err = load_report(&doc).err().unwrap();
            let prefix = format!("malformed {}: ", schema.what);
            assert!(err.starts_with(&prefix), "{err}");
        }
    }
}
