//! Columnar record batches for vectorized scans.
//!
//! A [`ColumnBatch`] is the unit of work of the vectorized execution path:
//! a fixed-size slice of a heap (or index rid-list) scan, transposed into
//! typed column vectors. Engines read only the fields an expression
//! pipeline actually references, so a batch over a wide record costs a few
//! integer copies instead of a full record clone per row.
//!
//! Layout decisions:
//!
//! * Each column is **type-optimistic**: the first concrete value fixes the
//!   vector type (`Int`/`Double`/`Bool`/`Str`), and any later type mix
//!   demotes the column to a [`Column::Generic`] vector of owned values —
//!   correctness never depends on a clean schema.
//! * `Null`/`Missing` are carried out-of-band in a per-lane [`Presence`]
//!   tag, so kernels answer `IS NULL` / `IS MISSING` without touching data.
//! * String columns are **dictionary encoded** (codes + distinct values).
//!   Low-cardinality columns make predicates cheap — a comparison against a
//!   literal is evaluated once per distinct value, not once per row — while
//!   high-cardinality columns overflow [`DICT_CAP`] and demote to generic
//!   storage rather than bloat.

use polyframe_datamodel::{Record, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// Default number of rows per batch (overridable per engine through
/// `ExecOptions::batch_rows` in the sqlengine crate).
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// Hard ceiling on configured batch sizes: larger batches stop helping and
/// start hurting cache residency, so absurd overrides clamp here.
pub const MAX_BATCH_ROWS: usize = 65_536;

/// Distinct-value ceiling for dictionary-encoded string columns; columns
/// exceeding it (e.g. unique identifiers) demote to [`Column::Generic`].
pub const DICT_CAP: usize = 256;

/// Dictionaries at or below this size are probed linearly (first differing
/// byte fails the compare) instead of through the hash map, which must
/// always walk the whole string.
const DICT_LINEAR_PROBE: usize = 8;

/// Build-time facts about one column of a batch, computed while the
/// column is pushed so kernels can pick a fast path without re-scanning
/// the presence tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSummary {
    /// Every lane of the column is `Presence::Present`: kernels may run
    /// branch-free typed loops over the raw data vector with no per-lane
    /// tag checks.
    pub all_valid: bool,
    /// The column started dictionary-encoded but overflowed [`DICT_CAP`]
    /// and was demoted to generic storage — string predicates lose the
    /// per-distinct-value evaluation shortcut for this batch.
    pub dict_overflowed: bool,
}

impl ColumnSummary {
    fn new() -> ColumnSummary {
        ColumnSummary {
            all_valid: true,
            dict_overflowed: false,
        }
    }
}

/// Per-lane null/absence tag, stored next to the typed data vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// A concrete value lives in the data vector at this lane.
    Present,
    /// Explicit `null`; the data lane holds a type default.
    Null,
    /// Absent field; the data lane holds a type default.
    Missing,
}

/// One typed column vector of a [`ColumnBatch`].
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Lane values (type default on non-present lanes).
        data: Vec<i64>,
        /// Per-lane presence tags.
        tags: Vec<Presence>,
    },
    /// 64-bit floats.
    Double {
        /// Lane values (type default on non-present lanes).
        data: Vec<f64>,
        /// Per-lane presence tags.
        tags: Vec<Presence>,
    },
    /// Booleans.
    Bool {
        /// Lane values (type default on non-present lanes).
        data: Vec<bool>,
        /// Per-lane presence tags.
        tags: Vec<Presence>,
    },
    /// Dictionary-encoded strings: `dict[codes[lane]]` is the lane's value.
    Str {
        /// Per-lane dictionary codes (0 on non-present lanes).
        codes: Vec<u32>,
        /// Distinct values, each a `Value::Str`, in first-seen order.
        dict: Vec<Value>,
        /// Per-lane presence tags.
        tags: Vec<Presence>,
    },
    /// Mixed-type (or otherwise non-vectorizable) column: owned values.
    Generic(Vec<Value>),
}

impl Column {
    /// The lane's value, borrowing from the column where storage permits.
    pub fn value_at(&self, lane: usize) -> Cow<'_, Value> {
        match self {
            Column::Int { data, tags } => match tags[lane] {
                Presence::Present => Cow::Owned(Value::Int(data[lane])),
                Presence::Null => Cow::Owned(Value::Null),
                Presence::Missing => Cow::Owned(Value::Missing),
            },
            Column::Double { data, tags } => match tags[lane] {
                Presence::Present => Cow::Owned(Value::Double(data[lane])),
                Presence::Null => Cow::Owned(Value::Null),
                Presence::Missing => Cow::Owned(Value::Missing),
            },
            Column::Bool { data, tags } => match tags[lane] {
                Presence::Present => Cow::Owned(Value::Bool(data[lane])),
                Presence::Null => Cow::Owned(Value::Null),
                Presence::Missing => Cow::Owned(Value::Missing),
            },
            Column::Str { codes, dict, tags } => match tags[lane] {
                Presence::Present => Cow::Borrowed(&dict[codes[lane] as usize]),
                Presence::Null => Cow::Owned(Value::Null),
                Presence::Missing => Cow::Owned(Value::Missing),
            },
            Column::Generic(vals) => Cow::Borrowed(&vals[lane]),
        }
    }

    /// The lane's presence tag.
    pub fn presence_at(&self, lane: usize) -> Presence {
        match self {
            Column::Int { tags, .. }
            | Column::Double { tags, .. }
            | Column::Bool { tags, .. }
            | Column::Str { tags, .. } => tags[lane],
            Column::Generic(vals) => match &vals[lane] {
                Value::Missing => Presence::Missing,
                Value::Null => Presence::Null,
                _ => Presence::Present,
            },
        }
    }
}

/// A fixed-size columnar slice of a scan: the referenced fields of up to
/// `batch_rows` records, transposed into typed vectors.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    columns: Vec<Column>,
    summaries: Vec<ColumnSummary>,
}

impl ColumnBatch {
    /// Transpose `rows` into typed columns, one per entry of `fields` (in
    /// order). Fields absent from a record become `Missing` lanes.
    pub fn from_records(rows: &[&Record], fields: &[String]) -> ColumnBatch {
        let mut summaries = Vec::with_capacity(fields.len());
        let columns = fields
            .iter()
            .map(|f| {
                let mut b = ColumnBuilder::new(rows.len());
                // Rows of one table share a field layout, so the previous
                // row's hit position resolves almost every lookup in one
                // probe instead of a name scan.
                let mut hint = 0;
                for rec in rows {
                    b.push(rec.get_hinted(f, &mut hint));
                }
                let (col, summary) = b.finish();
                summaries.push(summary);
                col
            })
            .collect();
        ColumnBatch {
            len: rows.len(),
            columns,
            summaries,
        }
    }

    /// Number of rows in this batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column built for `fields[i]` of [`ColumnBatch::from_records`].
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Build-time summary of `fields[i]` (presence profile, dict fate).
    pub fn summary(&self, i: usize) -> ColumnSummary {
        self.summaries[i]
    }

    /// True when every lane of `fields[i]` holds a concrete value.
    pub fn all_valid(&self, i: usize) -> bool {
        self.summaries[i].all_valid
    }

    /// Number of columns that finished dictionary-encoded in this batch.
    pub fn dict_columns(&self) -> usize {
        self.columns
            .iter()
            .filter(|c| matches!(c, Column::Str { .. }))
            .count()
    }

    /// Number of columns that overflowed [`DICT_CAP`] and were demoted.
    pub fn dict_demoted(&self) -> usize {
        self.summaries.iter().filter(|s| s.dict_overflowed).count()
    }
}

/// Type-optimistic column builder: fixes the vector type on the first
/// concrete value and demotes to [`Column::Generic`] on any mismatch,
/// reconstructing already-pushed lanes from the typed data + tags. Tracks
/// a [`ColumnSummary`] as lanes arrive so the finished batch knows which
/// columns admit null-fast kernels without a second pass over the tags.
struct ColumnBuilder {
    state: BuilderState,
    summary: ColumnSummary,
}

impl ColumnBuilder {
    fn new(capacity: usize) -> ColumnBuilder {
        ColumnBuilder {
            state: BuilderState::Untyped(Vec::with_capacity(capacity)),
            summary: ColumnSummary::new(),
        }
    }

    fn push(&mut self, value: Option<&Value>) {
        self.state.push(value, &mut self.summary);
    }

    fn finish(self) -> (Column, ColumnSummary) {
        (self.state.finish(), self.summary)
    }
}

enum BuilderState {
    /// Only `Null`/`Missing` seen so far.
    Untyped(Vec<Presence>),
    Int(Vec<i64>, Vec<Presence>),
    Double(Vec<f64>, Vec<Presence>),
    Bool(Vec<bool>, Vec<Presence>),
    Str {
        codes: Vec<u32>,
        dict: Vec<Value>,
        lookup: HashMap<String, u32>,
        tags: Vec<Presence>,
    },
    Generic(Vec<Value>),
}

impl BuilderState {
    fn push(&mut self, value: Option<&Value>, summary: &mut ColumnSummary) {
        let tag = match value {
            None | Some(Value::Missing) => Presence::Missing,
            Some(Value::Null) => Presence::Null,
            Some(_) => Presence::Present,
        };
        if tag != Presence::Present {
            summary.all_valid = false;
            match self {
                BuilderState::Untyped(tags) => tags.push(tag),
                BuilderState::Int(data, tags) => {
                    data.push(0);
                    tags.push(tag);
                }
                BuilderState::Double(data, tags) => {
                    data.push(0.0);
                    tags.push(tag);
                }
                BuilderState::Bool(data, tags) => {
                    data.push(false);
                    tags.push(tag);
                }
                BuilderState::Str { codes, tags, .. } => {
                    codes.push(0);
                    tags.push(tag);
                }
                BuilderState::Generic(vals) => vals.push(match tag {
                    Presence::Null => Value::Null,
                    _ => Value::Missing,
                }),
            }
            return;
        }
        // A concrete value: does it fit the vector type?
        let v = value.expect("present lane has a value");
        match (&mut *self, v) {
            (BuilderState::Int(data, tags), Value::Int(i)) => {
                data.push(*i);
                tags.push(Presence::Present);
                return;
            }
            (BuilderState::Double(data, tags), Value::Double(d)) => {
                data.push(*d);
                tags.push(Presence::Present);
                return;
            }
            (BuilderState::Bool(data, tags), Value::Bool(b)) => {
                data.push(*b);
                tags.push(Presence::Present);
                return;
            }
            (
                BuilderState::Str {
                    codes,
                    dict,
                    lookup,
                    tags,
                },
                Value::Str(s),
            ) => {
                // Low-cardinality columns stay out of the hash map: a
                // linear probe fails on the first differing byte, where
                // hashing always walks the whole string.
                let code = if dict.len() <= DICT_LINEAR_PROBE {
                    dict.iter()
                        .position(|d| matches!(d, Value::Str(x) if x == s))
                        .map(|i| i as u32)
                } else {
                    lookup.get(s.as_str()).copied()
                };
                if let Some(c) = code {
                    codes.push(c);
                    tags.push(Presence::Present);
                    return;
                }
                if dict.len() < DICT_CAP {
                    let c = dict.len() as u32;
                    dict.push(Value::Str(s.clone()));
                    lookup.insert(s.clone(), c);
                    codes.push(c);
                    tags.push(Presence::Present);
                    return;
                }
                // High-cardinality column: fall through and demote,
                // recording the overflow so it surfaces in observability
                // instead of silently costing the dict shortcut.
                summary.dict_overflowed = true;
            }
            (BuilderState::Generic(vals), v) => {
                vals.push(v.clone());
                return;
            }
            (BuilderState::Untyped(tags), v) => {
                // First concrete value fixes the type; backfill defaults.
                let n = tags.len();
                let taken = std::mem::take(tags);
                *self = match v {
                    Value::Int(i) => {
                        let mut data = vec![0; n];
                        data.push(*i);
                        let mut tags = taken;
                        tags.push(Presence::Present);
                        BuilderState::Int(data, tags)
                    }
                    Value::Double(d) => {
                        let mut data = vec![0.0; n];
                        data.push(*d);
                        let mut tags = taken;
                        tags.push(Presence::Present);
                        BuilderState::Double(data, tags)
                    }
                    Value::Bool(b) => {
                        let mut data = vec![false; n];
                        data.push(*b);
                        let mut tags = taken;
                        tags.push(Presence::Present);
                        BuilderState::Bool(data, tags)
                    }
                    Value::Str(s) => {
                        let mut tags = taken;
                        tags.push(Presence::Present);
                        let mut lookup = HashMap::new();
                        lookup.insert(s.clone(), 0);
                        BuilderState::Str {
                            codes: vec![0; n + 1],
                            dict: vec![Value::Str(s.clone())],
                            lookup,
                            tags,
                        }
                    }
                    other => {
                        let mut vals: Vec<Value> = taken
                            .into_iter()
                            .map(|t| match t {
                                Presence::Null => Value::Null,
                                _ => Value::Missing,
                            })
                            .collect();
                        vals.push(other.clone());
                        BuilderState::Generic(vals)
                    }
                };
                return;
            }
            _ => {}
        }
        // Type mismatch against an already-fixed vector type.
        self.demote(Some(v));
    }

    /// Rebuild as a generic column (reconstructing pushed lanes), then
    /// append `extra` if given.
    fn demote(&mut self, extra: Option<&Value>) {
        let current = std::mem::replace(self, BuilderState::Generic(Vec::new()));
        let mut vals = materialize(current.finish());
        if let Some(v) = extra {
            vals.push(v.clone());
        }
        *self = BuilderState::Generic(vals);
    }

    fn finish(self) -> Column {
        match self {
            // All lanes unknown: keep the tags, data stays empty-typed.
            BuilderState::Untyped(tags) => Column::Int {
                data: vec![0; tags.len()],
                tags,
            },
            BuilderState::Int(data, tags) => Column::Int { data, tags },
            BuilderState::Double(data, tags) => Column::Double { data, tags },
            BuilderState::Bool(data, tags) => Column::Bool { data, tags },
            BuilderState::Str {
                codes, dict, tags, ..
            } => Column::Str { codes, dict, tags },
            BuilderState::Generic(vals) => Column::Generic(vals),
        }
    }
}

/// Expand a column back into owned per-lane values (demotion path).
fn materialize(col: Column) -> Vec<Value> {
    (0..col_len(&col))
        .map(|i| col.value_at(i).into_owned())
        .collect()
}

fn col_len(col: &Column) -> usize {
    match col {
        Column::Int { tags, .. }
        | Column::Double { tags, .. }
        | Column::Bool { tags, .. }
        | Column::Str { tags, .. } => tags.len(),
        Column::Generic(vals) => vals.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    fn batch(recs: &[Record], fields: &[&str]) -> ColumnBatch {
        let refs: Vec<&Record> = recs.iter().collect();
        let names: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        ColumnBatch::from_records(&refs, &names)
    }

    /// Every lane must reconstruct exactly what `Record::get` reports.
    fn assert_roundtrip(recs: &[Record], fields: &[&str]) {
        let b = batch(recs, fields);
        assert_eq!(b.len(), recs.len());
        for (ci, f) in fields.iter().enumerate() {
            for (lane, rec) in recs.iter().enumerate() {
                let expect = rec.get(f).cloned().unwrap_or(Value::Missing);
                // Compare debug renderings so `NaN` lanes count as equal.
                assert_eq!(
                    format!("{:?}", b.column(ci).value_at(lane).into_owned()),
                    format!("{expect:?}"),
                    "field {f} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn typed_columns_roundtrip() {
        let recs = vec![
            record! {"i" => 1i64, "d" => 1.5, "b" => true, "s" => "x"},
            record! {"i" => 2i64, "d" => 2.5, "b" => false, "s" => "y"},
            record! {"i" => 3i64, "d" => f64::NAN, "b" => true, "s" => "x"},
        ];
        assert_roundtrip(&recs, &["i", "d", "b", "s"]);
        let b = batch(&recs, &["s"]);
        match b.column(0) {
            Column::Str { dict, codes, .. } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes, &[0, 1, 0]);
            }
            other => panic!("expected dict column, got {other:?}"),
        }
    }

    #[test]
    fn nulls_missing_and_absent_fields() {
        let recs = vec![
            record! {"a" => Value::Null},
            record! {"b" => 1i64},
            record! {"a" => 7i64},
        ];
        assert_roundtrip(&recs, &["a", "b", "zzz"]);
        let b = batch(&recs, &["a"]);
        assert_eq!(b.column(0).presence_at(0), Presence::Null);
        assert_eq!(b.column(0).presence_at(1), Presence::Missing);
        assert_eq!(b.column(0).presence_at(2), Presence::Present);
    }

    #[test]
    fn mixed_types_demote_to_generic() {
        let recs = vec![
            record! {"a" => 1i64},
            record! {"a" => "two"},
            record! {"a" => 3.0},
        ];
        assert_roundtrip(&recs, &["a"]);
        let b = batch(&recs, &["a"]);
        assert!(matches!(b.column(0), Column::Generic(_)));
    }

    #[test]
    fn dict_overflow_demotes() {
        let recs: Vec<Record> = (0..DICT_CAP + 10)
            .map(|i| record! {"s" => format!("v{i}")})
            .collect();
        assert_roundtrip(&recs, &["s"]);
        let b = batch(&recs, &["s"]);
        assert!(matches!(b.column(0), Column::Generic(_)));
    }

    #[test]
    fn arrays_and_objects_are_generic() {
        let recs = vec![
            record! {"a" => vec![1i64, 2]},
            record! {"a" => Value::Obj(record! {"x" => 1i64})},
        ];
        assert_roundtrip(&recs, &["a"]);
        let b = batch(&recs, &["a"]);
        assert!(matches!(b.column(0), Column::Generic(_)));
    }

    #[test]
    fn all_unknown_column_roundtrips() {
        let recs = vec![record! {"b" => 1i64}, record! {"a" => Value::Null}];
        assert_roundtrip(&recs, &["a"]);
    }

    #[test]
    fn summaries_track_presence() {
        let recs = vec![
            record! {"a" => 1i64, "b" => 1i64},
            record! {"a" => 2i64, "b" => Value::Null},
        ];
        let b = batch(&recs, &["a", "b", "zzz"]);
        assert!(b.all_valid(0));
        assert!(!b.all_valid(1), "null lane must clear all_valid");
        assert!(!b.all_valid(2), "absent field must clear all_valid");
        assert!(!b.summary(0).dict_overflowed);
    }

    #[test]
    fn summaries_track_dict_overflow() {
        let recs: Vec<Record> = (0..DICT_CAP + 10)
            .map(|i| record! {"s" => format!("v{i}"), "t" => "tag"})
            .collect();
        let b = batch(&recs, &["s", "t"]);
        assert!(b.summary(0).dict_overflowed);
        assert!(b.all_valid(0), "overflow does not imply nulls");
        assert!(!b.summary(1).dict_overflowed);
        assert_eq!(b.dict_demoted(), 1);
        assert_eq!(b.dict_columns(), 1);
    }

    #[test]
    fn type_mismatch_demotion_is_not_dict_overflow() {
        let recs = vec![record! {"a" => "one"}, record! {"a" => 2i64}];
        let b = batch(&recs, &["a"]);
        assert!(matches!(b.column(0), Column::Generic(_)));
        assert!(!b.summary(0).dict_overflowed);
    }
}
