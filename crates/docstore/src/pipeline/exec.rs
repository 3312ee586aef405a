//! Pipeline execution.
//!
//! Streaming stages (match/project/addFields/limit/unwind/lookup) compose as
//! iterators so a trailing `$limit` stops the collection scan early; `$group`
//! and `$sort` materialize.

use crate::error::{DocError, Result};
use crate::pipeline::expr::{self, truthy, CmpOp, MongoExpr, Vars};
use crate::pipeline::optimizer::{find_downstream_limit, PhysicalPipeline, Source};
use crate::pipeline::{Accum, GroupId, GroupMode, ProjectItem, Stage};
use crate::store::Collections;
use polyframe_datamodel::{cmp_total, NumericSum, Record, SortKey, TopK, Value};
use polyframe_storage::{Direction, ScanRange, Table};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Document stream.
pub type DocIter<'b> = Box<dyn Iterator<Item = Result<Value>> + 'b>;

/// Run an optimized pipeline against `collection`. `collections` is the full
/// catalog (visible to `$lookup`).
pub fn run_pipeline<'b>(
    collections: &'b Collections,
    collection: &str,
    pipeline: &'b PhysicalPipeline,
    vars: &'b Vars,
) -> Result<Vec<Value>> {
    let table = collections.collection(collection)?;
    let stream = source_stream(table, &pipeline.source)?;
    apply_stages(collections, stream, &pipeline.stages, vars)?.collect()
}

/// Chain `stages` onto `stream`. A `$sort` whose output reaches a
/// `$limit` through stages that keep documents 1:1 runs as a bounded
/// top-k: the documents past the limit are never observable downstream.
pub(crate) fn apply_stages<'b>(
    collections: &'b Collections,
    mut stream: DocIter<'b>,
    stages: &'b [Stage],
    vars: &'b Vars,
) -> Result<DocIter<'b>> {
    for (i, stage) in stages.iter().enumerate() {
        stream = match stage {
            Stage::Sort(keys) => {
                let docs: Vec<Value> = stream.collect::<Result<_>>()?;
                let limit = find_downstream_limit(&stages[i + 1..]);
                Box::new(sort_docs(docs, keys, limit).into_iter().map(Ok))
            }
            _ => apply_stage(collections, stream, stage, vars)?,
        };
    }
    Ok(stream)
}

/// Sort documents by `keys` (stable), keeping the first `limit`. Each
/// document's key paths are extracted once, then the top-k kernel sorts
/// the decorated documents.
pub(crate) fn sort_docs(
    docs: impl IntoIterator<Item = Value>,
    keys: &[(String, bool)],
    limit: Option<u64>,
) -> Vec<Value> {
    let mut sorted = TopK::new(limit.map(|n| n as usize));
    for doc in docs {
        let key: Vec<SortKey> = keys
            .iter()
            .map(|(field, desc)| SortKey::new(doc.get_path(field), *desc))
            .collect();
        sorted.push(key, doc);
    }
    sorted.into_sorted_items()
}

fn source_stream<'b>(table: &'b Table, source: &'b Source) -> Result<DocIter<'b>> {
    match source {
        Source::CollScan => Ok(Box::new(
            table.heap().scan().map(|(_, d)| Ok(Value::Obj(d.clone()))),
        )),
        Source::IndexEq { attr, value } => {
            let ix = table
                .index_on(attr)
                .ok_or_else(|| DocError::Exec(format!("no index on {attr}")))?;
            Ok(Box::new(
                ix.scan(&ScanRange::eq(value.clone()), Direction::Forward)
                    .map(move |(_, rid)| {
                        table
                            .get(rid)
                            .map(|d| Value::Obj(d.clone()))
                            .ok_or_else(|| DocError::Exec("dangling index entry".into()))
                    }),
            ))
        }
        Source::IndexRange { attr, lo, hi } => {
            let ix = table
                .index_on(attr)
                .ok_or_else(|| DocError::Exec(format!("no index on {attr}")))?;
            let range = ScanRange {
                lo: lo.clone(),
                hi: hi.clone(),
            };
            Ok(Box::new(ix.scan(&range, Direction::Forward).map(
                move |(_, rid)| {
                    table
                        .get(rid)
                        .map(|d| Value::Obj(d.clone()))
                        .ok_or_else(|| DocError::Exec("dangling index entry".into()))
                },
            )))
        }
        Source::IndexOrdered { attr, desc, limit } => {
            let ix = table
                .index_on(attr)
                .ok_or_else(|| DocError::Exec(format!("no index on {attr}")))?;
            let dir = if *desc {
                Direction::Backward
            } else {
                Direction::Forward
            };
            let iter = ix.scan(&ScanRange::all(), dir).map(move |(_, rid)| {
                table
                    .get(rid)
                    .map(|d| Value::Obj(d.clone()))
                    .ok_or_else(|| DocError::Exec("dangling index entry".into()))
            });
            match limit {
                Some(n) => Ok(Box::new(iter.take(*n as usize))),
                None => Ok(Box::new(iter)),
            }
        }
    }
}

fn apply_stage<'b>(
    collections: &'b Collections,
    stream: DocIter<'b>,
    stage: &'b Stage,
    vars: &'b Vars,
) -> Result<DocIter<'b>> {
    match stage {
        Stage::Match(None) => Ok(stream),
        Stage::Match(Some(pred)) => Ok(Box::new(stream.filter_map(move |doc| match doc {
            Ok(doc) => match expr::eval(pred, &doc, vars) {
                Ok(v) => truthy(&v).then_some(Ok(doc)),
                Err(e) => Some(Err(e)),
            },
            Err(e) => Some(Err(e)),
        }))),
        Stage::Project(items) => Ok(Box::new(stream.map(move |doc| {
            let doc = doc?;
            project_doc(items, &doc, vars)
        }))),
        Stage::AddFields(fields) => Ok(Box::new(stream.map(move |doc| {
            let doc = doc?;
            let mut rec = match doc {
                Value::Obj(r) => r,
                other => {
                    return Err(DocError::Exec(format!(
                        "$addFields over non-document ({})",
                        other.type_name()
                    )))
                }
            };
            for (name, e) in fields {
                let v = expr::eval(e, &Value::Obj(rec.clone()), vars)?;
                rec.insert(name.clone(), v);
            }
            Ok(Value::Obj(rec))
        }))),
        Stage::Group { id, accs, mode } => {
            let out = run_group(stream, id, accs, *mode, vars)?;
            Ok(Box::new(out.into_iter().map(Ok)))
        }
        Stage::Sort(_) => unreachable!("`$sort` runs in apply_stages"),
        Stage::Limit(n) => Ok(Box::new(stream.take(*n as usize))),
        Stage::Count(name) => {
            let mut n = 0usize;
            for doc in stream {
                doc?;
                n += 1;
            }
            // MongoDB quirk: $count emits nothing at all on empty input.
            if n == 0 {
                Ok(Box::new(std::iter::empty()))
            } else {
                let mut rec = Record::new();
                rec.insert(name.clone(), Value::Int(n as i64));
                Ok(Box::new(std::iter::once(Ok(Value::Obj(rec)))))
            }
        }
        Stage::Lookup {
            from,
            as_field,
            let_vars,
            pipeline,
        } => {
            let inner_table = collections.collection(from)?;
            // Index-probe fast path: the inner pipeline is a pure equality
            // on a let-variable over an indexed field — the index
            // nested-loop join the paper observed.
            let probe = lookup_probe(pipeline, inner_table);
            // General path: pre-optimize the inner pipeline once.
            let inner_phys = crate::pipeline::optimizer::optimize(pipeline, &|a| {
                inner_table.index_on(a).map(|ix| ix.is_complete())
            });
            Ok(Box::new(stream.map(move |doc| {
                let doc = doc?;
                let mut inner_vars = vars.clone();
                for (name, e) in let_vars {
                    inner_vars.insert(name.clone(), expr::eval(e, &doc, vars)?);
                }
                let matches: Vec<Value> = match &probe {
                    Some((attr, var)) => {
                        let key = inner_vars
                            .get(var)
                            .cloned()
                            .ok_or_else(|| DocError::Exec(format!("undefined $${var}")))?;
                        let ix = inner_table.index_on(attr).expect("probe checked");
                        ix.lookup(&key)
                            .into_iter()
                            .filter_map(|rid| inner_table.get(rid))
                            .map(|d| Value::Obj(d.clone()))
                            .collect()
                    }
                    None => run_pipeline(collections, from, &inner_phys, &inner_vars)?,
                };
                let mut rec = doc.into_obj().map_err(|e| DocError::Exec(e.to_string()))?;
                rec.insert(as_field.clone(), Value::Array(matches));
                Ok(Value::Obj(rec))
            })))
        }
        Stage::Unwind {
            path,
            preserve_empty,
        } => Ok(Box::new(stream.flat_map(move |doc| {
            let doc = match doc {
                Ok(d) => d,
                Err(e) => return vec![Err(e)],
            };
            match doc.get_path(path) {
                Value::Array(items) if !items.is_empty() => items
                    .into_iter()
                    .map(|item| {
                        let mut rec = doc.as_obj().unwrap().clone();
                        rec.insert(path.clone(), item);
                        Ok(Value::Obj(rec))
                    })
                    .collect(),
                _ if *preserve_empty => {
                    let mut rec = doc.as_obj().unwrap().clone();
                    rec.remove(path);
                    vec![Ok(Value::Obj(rec))]
                }
                _ => Vec::new(),
            }
        }))),
        Stage::Out(_) => Err(DocError::Pipeline(
            "$out must be the final stage (handled by the store)".to_string(),
        )),
    }
}

/// Detect the index-probe `$lookup` pattern: `[$match{}]* $match($eq($field,
/// $$var))` with an index on the field.
fn lookup_probe(pipeline: &[Stage], inner: &Table) -> Option<(String, String)> {
    let mut pred = None;
    for stage in pipeline {
        match stage {
            Stage::Match(None) => continue,
            Stage::Match(Some(p)) if pred.is_none() => pred = Some(p),
            _ => return None,
        }
    }
    if let Some(MongoExpr::Cmp(CmpOp::Eq, a, b)) = pred {
        let (field, var) = match (a.as_ref(), b.as_ref()) {
            (MongoExpr::FieldRef(p), MongoExpr::VarRef(v)) if p.len() == 1 => (&p[0], v),
            (MongoExpr::VarRef(v), MongoExpr::FieldRef(p)) if p.len() == 1 => (&p[0], v),
            _ => return None,
        };
        if inner.index_on(field).is_some() {
            return Some((field.clone(), var.clone()));
        }
    }
    None
}

/// Apply a `$project` stage to one document.
pub fn project_doc(items: &[ProjectItem], doc: &Value, vars: &Vars) -> Result<Value> {
    let inclusion = items
        .iter()
        .any(|i| matches!(i, ProjectItem::Include(_) | ProjectItem::Computed(_, _)));
    let src = doc
        .as_obj()
        .ok_or_else(|| DocError::Exec("$project over non-document".to_string()))?;
    if inclusion {
        let mut rec = Record::new();
        // `_id` is kept by inclusion projections unless excluded here.
        let id_excluded = items
            .iter()
            .any(|i| matches!(i, ProjectItem::Exclude(f) if f == "_id"));
        if !id_excluded {
            if let Some(id) = src.get("_id") {
                rec.insert("_id", id.clone());
            }
        }
        for item in items {
            match item {
                ProjectItem::Include(f) => {
                    if let Some(v) = src.get(f) {
                        rec.insert(f.clone(), v.clone());
                    }
                }
                ProjectItem::Computed(f, e) => {
                    rec.insert(f.clone(), expr::eval(e, doc, vars)?);
                }
                ProjectItem::Exclude(f) if f == "_id" => {}
                ProjectItem::Exclude(f) => {
                    return Err(DocError::Pipeline(format!(
                        "cannot exclude {f} inside an inclusion projection"
                    )))
                }
            }
        }
        Ok(Value::Obj(rec))
    } else {
        // Pure exclusion projection.
        let mut rec = src.clone();
        for item in items {
            if let ProjectItem::Exclude(f) = item {
                rec.remove(f);
            }
        }
        Ok(Value::Obj(rec))
    }
}

/// Total-order key for grouping.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OrdKey(pub Vec<Value>);

impl Eq for OrdKey {}
impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            let ord = cmp_total(a, b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// Group-stage accumulator.
#[derive(Debug, Clone)]
pub struct GroupAcc {
    /// Which accumulator this is.
    pub spec: Accum,
    sum: NumericSum,
    sumsq: f64,
    count: i64,
    min: Option<Value>,
    max: Option<Value>,
}

impl GroupAcc {
    /// Fresh accumulator.
    pub fn new(spec: &Accum) -> GroupAcc {
        GroupAcc {
            spec: spec.clone(),
            sum: NumericSum::default(),
            sumsq: 0.0,
            count: 0,
            min: None,
            max: None,
        }
    }

    /// Fold a document's evaluated argument in. MongoDB accumulators skip
    /// non-numeric values for `$sum`/`$avg`/`$stdDevPop`.
    pub fn update(&mut self, v: &Value) {
        match &self.spec {
            Accum::Sum(_) | Accum::Avg(_) | Accum::StdDevPop(_) => {
                if let Some(x) = v.as_f64() {
                    self.sum.add(v);
                    self.sumsq += x * x;
                    self.count += 1;
                }
            }
            Accum::Min(_) => {
                if !v.is_unknown()
                    && self
                        .min
                        .as_ref()
                        .is_none_or(|cur| cmp_total(v, cur) == Ordering::Less)
                {
                    self.min = Some(v.clone());
                }
            }
            Accum::Max(_) => {
                if !v.is_unknown()
                    && self
                        .max
                        .as_ref()
                        .is_none_or(|cur| cmp_total(v, cur) == Ordering::Greater)
                {
                    self.max = Some(v.clone());
                }
            }
            Accum::Count(_) => {
                if !v.is_unknown() {
                    self.count += 1;
                }
            }
        }
    }

    /// Final value.
    pub fn finalize(&self) -> Value {
        match &self.spec {
            Accum::Sum(_) => self.sum.value(),
            Accum::Avg(_) => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double(self.sum.as_f64() / self.count as f64)
                }
            }
            Accum::StdDevPop(_) => {
                if self.count == 0 {
                    Value::Null
                } else {
                    let n = self.count as f64;
                    let mean = self.sum.as_f64() / n;
                    Value::Double((self.sumsq / n - mean * mean).max(0.0).sqrt())
                }
            }
            Accum::Min(_) => self.min.clone().unwrap_or(Value::Null),
            Accum::Max(_) => self.max.clone().unwrap_or(Value::Null),
            Accum::Count(_) => Value::Int(self.count),
        }
    }

    /// Serialize for cross-shard merging.
    pub fn to_partial(&self) -> Value {
        let mut rec = Record::new();
        self.sum.write_partial(&mut rec);
        rec.insert("sumsq", self.sumsq);
        rec.insert("count", self.count);
        rec.insert("min", self.min.clone().unwrap_or(Value::Missing));
        rec.insert("max", self.max.clone().unwrap_or(Value::Missing));
        Value::Obj(rec)
    }

    /// Merge a serialized partial state.
    pub fn merge_partial(&mut self, partial: &Value) {
        self.sum.merge(&NumericSum::from_partial(partial));
        self.sumsq += partial.get_path("sumsq").as_f64().unwrap_or(0.0);
        self.count += partial.get_path("count").as_i64().unwrap_or(0);
        let pmin = partial.get_path("min");
        if !pmin.is_unknown()
            && self
                .min
                .as_ref()
                .is_none_or(|cur| cmp_total(&pmin, cur) == Ordering::Less)
        {
            self.min = Some(pmin);
        }
        let pmax = partial.get_path("max");
        if !pmax.is_unknown()
            && self
                .max
                .as_ref()
                .is_none_or(|cur| cmp_total(&pmax, cur) == Ordering::Greater)
        {
            self.max = Some(pmax);
        }
    }
}

/// Run a `$group` stage over a stream in `mode` (see [`GroupMode`]).
/// Groups come out in key order; `_id: {}` over empty input emits
/// nothing (MongoDB).
pub fn run_group(
    stream: DocIter<'_>,
    id: &GroupId,
    accs: &[(String, Accum)],
    mode: GroupMode,
    vars: &Vars,
) -> Result<Vec<Value>> {
    let fresh = || -> Vec<GroupAcc> { accs.iter().map(|(_, a)| GroupAcc::new(a)).collect() };
    let mut groups: BTreeMap<OrdKey, Vec<GroupAcc>> = BTreeMap::new();

    for doc in stream {
        let doc = doc?;
        let key = match (mode, id) {
            (GroupMode::Final, _) => OrdKey(vec![doc.get_path("_id")]),
            (_, GroupId::Empty) => OrdKey(vec![]),
            (_, GroupId::Keys(keys)) => {
                let mut kv = Vec::with_capacity(keys.len());
                for (_, e) in keys {
                    kv.push(expr::eval(e, &doc, vars)?);
                }
                OrdKey(kv)
            }
        };
        let slot = groups.entry(key).or_insert_with(fresh);
        for ((name, spec), acc) in accs.iter().zip(slot.iter_mut()) {
            match mode {
                GroupMode::Final => acc.merge_partial(&doc.get_path(name)),
                _ => acc.update(&expr::eval(spec.arg(), &doc, vars)?),
            }
        }
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, slot) in groups {
        let id_val = match (mode, id) {
            // The first `_id` seen for the group, as the map keeps it.
            (GroupMode::Final, _) => key.0.into_iter().next().unwrap_or(Value::Missing),
            (_, GroupId::Empty) => Value::Obj(Record::new()),
            (_, GroupId::Keys(keys)) => {
                let mut idrec = Record::with_capacity(keys.len());
                for ((name, _), v) in keys.iter().zip(key.0) {
                    idrec.insert(name.clone(), v);
                }
                Value::Obj(idrec)
            }
        };
        let mut rec = Record::new();
        rec.insert("_id", id_val);
        for ((name, _), acc) in accs.iter().zip(&slot) {
            let v = match mode {
                GroupMode::Partial => acc.to_partial(),
                _ => acc.finalize(),
            };
            rec.insert(name.clone(), v);
        }
        out.push(Value::Obj(rec));
    }
    Ok(out)
}
