//! Physical plan execution.
//!
//! Operators are streaming iterators wherever the operator is non-blocking
//! (scans, filters, projections, limits), so `LIMIT`-topped pipelines stop
//! early — the behaviour that makes lazy evaluation beat eager evaluation on
//! the paper's expressions 5 and 10. Blocking operators (sort, aggregate,
//! join build sides) materialize internally.

pub mod aggregate;
#[deny(clippy::unwrap_used)]
mod distinct;
pub mod eval;
#[deny(clippy::unwrap_used)]
mod join;
pub mod parallel;
mod vector;

pub use parallel::{
    available_threads, ExecOptions, ExecReport, DEFAULT_BATCH_ROWS, DEFAULT_MORSEL_ROWS,
    MAX_BATCH_ROWS,
};

use crate::engine::Database;
use crate::error::{EngineError, Result};
use crate::plan::logical::{AggArg, AggExpr, AggMode, ProjectSpec, Scalar};
use crate::plan::physical::{DatasetRef, PhysicalPlan};
use aggregate::{Accumulator, OrdValue};
use eval::{eval, make_record, passes_filter};
use polyframe_datamodel::{Record, SortKey, TopK, Value};
use polyframe_storage::{Direction, ScanRange, Table};
use std::collections::{BTreeMap, BTreeSet};

/// A stream of result rows.
pub type RowIter<'a> = Box<dyn Iterator<Item = Result<Value>> + 'a>;

/// Executes physical plans against a database.
pub struct Executor<'a> {
    db: &'a Database,
}

impl<'a> Executor<'a> {
    /// New executor over `db`.
    pub fn new(db: &'a Database) -> Executor<'a> {
        Executor { db }
    }

    /// Run a plan to completion.
    pub fn run(&self, plan: &'a PhysicalPlan) -> Result<Vec<Value>> {
        self.stream(plan)?.collect()
    }

    /// Run a plan on the vectorized batch path (morsel-parallel when `opts`
    /// allows and the scan spans several morsels) when `opts.vectorized` is
    /// on and the plan compiles to a batch pipeline — early-exit `LIMIT`
    /// pipelines included. Everything else (nested blocking operators, the
    /// index-only operators, `VALUES`) runs the serial row interpreter, and
    /// the report names why. Every path produces identical result sets.
    pub fn run_with(
        &self,
        plan: &'a PhysicalPlan,
        opts: &ExecOptions,
    ) -> Result<(Vec<Value>, ExecReport)> {
        let mut fallback = None;
        if opts.vectorized {
            match parallel::try_run(self.db, plan, opts) {
                parallel::TryRunOutcome::Ran(result) => return result,
                // Remember *why* the batch path declined, so the trace can
                // report `fallback:<cause>`.
                parallel::TryRunOutcome::Fallback(cause) => fallback = Some(cause),
            }
        }
        let report = ExecReport {
            fallback,
            ..ExecReport::serial()
        };
        Ok((self.run(plan)?, report))
    }

    fn table(&self, ds: &DatasetRef) -> Result<&'a Table> {
        self.db.dataset(&ds.namespace, &ds.dataset)
    }

    fn index<'t>(&self, table: &'t Table, attr: &str) -> Result<&'t polyframe_storage::Index> {
        table
            .index_on(attr)
            .ok_or_else(|| EngineError::exec(format!("no index on attribute {attr} (planner bug)")))
    }

    /// Build the iterator tree for `plan`.
    pub fn stream(&self, plan: &'a PhysicalPlan) -> Result<RowIter<'a>> {
        match plan {
            PhysicalPlan::SeqScan { dataset } => {
                let table = self.table(dataset)?;
                Ok(Box::new(
                    table.heap().scan().map(|(_, r)| Ok(Value::Obj(r.clone()))),
                ))
            }
            PhysicalPlan::IndexScan {
                dataset,
                attr,
                range,
                direction,
            } => {
                let table = self.table(dataset)?;
                let index = self.index(table, attr)?;
                Ok(Box::new(index.scan(range, *direction).map(
                    move |(_, rid)| {
                        table
                            .get(rid)
                            .map(|r| Value::Obj(r.clone()))
                            .ok_or_else(|| EngineError::exec("dangling index entry"))
                    },
                )))
            }
            PhysicalPlan::IndexUnknownScan { dataset, attr } => {
                let table = self.table(dataset)?;
                let index = self.index(table, attr)?;
                let rids = index.scan_unknown();
                Ok(Box::new(rids.into_iter().map(move |rid| {
                    table
                        .get(rid)
                        .map(|r| Value::Obj(r.clone()))
                        .ok_or_else(|| EngineError::exec("dangling index entry"))
                })))
            }
            PhysicalPlan::IndexOnlyCount {
                dataset,
                attr,
                range,
                output,
            } => {
                let table = self.table(dataset)?;
                let index = self.index(table, attr)?;
                let count = match range {
                    Some(r) => index.count_range(r),
                    None => index.scan_unknown().len(),
                };
                Ok(single_row(make_record([(
                    output.clone(),
                    Value::Int(count as i64),
                )])))
            }
            PhysicalPlan::PrimaryIndexCount { dataset, output } => {
                let table = self.table(dataset)?;
                let pk = table
                    .primary_index()
                    .ok_or_else(|| EngineError::exec("no primary index (planner bug)"))?;
                // A leaf walk (not a heap scan): cheap, but not the O(1)
                // metadata lookup graph/document stores expose.
                let count = pk.count_range(&ScanRange::all());
                Ok(single_row(make_record([(
                    output.clone(),
                    Value::Int(count as i64),
                )])))
            }
            PhysicalPlan::IndexMinMax {
                dataset,
                attr,
                is_min,
                output,
            } => {
                let table = self.table(dataset)?;
                let index = self.index(table, attr)?;
                let v = if *is_min {
                    index.min_key()
                } else {
                    index.max_key()
                };
                Ok(single_row(make_record([(
                    output.clone(),
                    v.unwrap_or(Value::Null),
                )])))
            }
            PhysicalPlan::IndexOrderedScan {
                dataset,
                attr,
                direction,
                limit,
            } => {
                let table = self.table(dataset)?;
                let index = self.index(table, attr)?;
                let iter = index
                    .scan(&ScanRange::all(), *direction)
                    .map(move |(_, rid)| {
                        table
                            .get(rid)
                            .map(|r| Value::Obj(r.clone()))
                            .ok_or_else(|| EngineError::exec("dangling index entry"))
                    });
                match limit {
                    Some(n) => Ok(Box::new(iter.take(*n as usize))),
                    None => Ok(Box::new(iter)),
                }
            }
            PhysicalPlan::IndexOnlyJoinCount {
                left,
                right,
                output,
            } => {
                let lt = self.table(&left.0)?;
                let rt = self.table(&right.0)?;
                let li = self.index(lt, &left.1)?;
                let ri = self.index(rt, &right.1)?;
                let count = merge_join_count(
                    li.scan(&ScanRange::all(), Direction::Forward)
                        .map(|(k, _)| k),
                    ri.scan(&ScanRange::all(), Direction::Forward)
                        .map(|(k, _)| k),
                );
                Ok(single_row(make_record([(
                    output.clone(),
                    Value::Int(count as i64),
                )])))
            }
            PhysicalPlan::IndexNLJoin {
                outer,
                outer_key,
                inner,
                outer_binding,
                inner_binding,
            } => {
                let inner_table = self.table(&inner.0)?;
                let inner_index = self.index(inner_table, &inner.1)?;
                let outer_rows = self.stream(outer)?;
                Ok(Box::new(IndexNlJoinIter {
                    outer: outer_rows,
                    outer_key,
                    inner_table,
                    inner_index,
                    outer_binding: outer_binding.as_str(),
                    inner_binding: inner_binding.as_str(),
                    pending: Vec::new(),
                }))
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                left_binding,
                right_binding,
                kind,
            } => {
                // Build on the right, probe from the left.
                let mut build: BTreeMap<OrdValue, Vec<Value>> = BTreeMap::new();
                for row in self.stream(right)? {
                    let row = row?;
                    let key = eval(right_key, &row)?;
                    if key.is_unknown() {
                        continue;
                    }
                    build.entry(OrdValue(key)).or_default().push(row);
                }
                let probe = self.stream(left)?;
                let is_left_join = *kind == crate::ast::JoinKind::Left;
                let (lb, rb) = (left_binding.clone(), right_binding.clone());
                Ok(Box::new(probe.flat_map(move |row| {
                    let row = match row {
                        Ok(r) => r,
                        Err(e) => return vec![Err(e)],
                    };
                    let key = match eval(left_key, &row) {
                        Ok(k) => k,
                        Err(e) => return vec![Err(e)],
                    };
                    let matches = if key.is_unknown() {
                        None
                    } else {
                        build.get(&OrdValue(key))
                    };
                    match matches {
                        Some(rows) => rows
                            .iter()
                            .map(|r| {
                                Ok(make_record([
                                    (lb.clone(), row.clone()),
                                    (rb.clone(), r.clone()),
                                ]))
                            })
                            .collect(),
                        None if is_left_join => vec![Ok(make_record([
                            (lb.clone(), row.clone()),
                            (rb.clone(), Value::Null),
                        ]))],
                        None => Vec::new(),
                    }
                })))
            }
            PhysicalPlan::Filter { input, predicate } => {
                let rows = self.stream(input)?;
                Ok(Box::new(rows.filter_map(move |row| match row {
                    Ok(row) => match passes_filter(predicate, &row) {
                        Ok(true) => Some(Ok(row)),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    },
                    Err(e) => Some(Err(e)),
                })))
            }
            PhysicalPlan::Project { input, spec } => {
                let rows = self.stream(input)?;
                Ok(Box::new(rows.map(move |row| {
                    let row = row?;
                    project_row(spec, &row)
                })))
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                mode,
            } => {
                let rows = self.stream(input)?;
                let out = run_aggregate(rows, group_by, aggs, *mode)?;
                Ok(Box::new(out.into_iter().map(Ok)))
            }
            PhysicalPlan::Sort { input, keys, topk } => {
                let rows: Result<Vec<Value>> = self.stream(input)?.collect();
                // Every row's keys are evaluated (key errors fire in row
                // order); only rows the top-k admits are kept.
                let mut sorted = TopK::new(topk.map(|k| k as usize));
                for row in rows? {
                    let mut kv = Vec::with_capacity(keys.len());
                    for (expr, desc) in keys {
                        kv.push(SortKey::new(eval(expr, &row)?, *desc));
                    }
                    sorted.push(kv, row);
                }
                Ok(Box::new(sorted.into_sorted_items().into_iter().map(Ok)))
            }
            PhysicalPlan::Limit { input, n } => {
                let rows = self.stream(input)?;
                Ok(Box::new(rows.take(*n as usize)))
            }
            PhysicalPlan::Distinct { input } => {
                let rows = self.stream(input)?;
                let mut seen: BTreeSet<OrdValue> = BTreeSet::new();
                let mut out = Vec::new();
                for row in rows {
                    let row = row?;
                    if seen.insert(OrdValue(row.clone())) {
                        out.push(row);
                    }
                }
                Ok(Box::new(out.into_iter().map(Ok)))
            }
            PhysicalPlan::Values { rows } => Ok(Box::new(rows.iter().cloned().map(Ok))),
        }
    }
}

fn single_row(row: Value) -> RowIter<'static> {
    Box::new(std::iter::once(Ok(row)))
}

/// Streaming index nested-loop join: each outer row probes the inner index
/// and fetches matching inner records from the heap.
struct IndexNlJoinIter<'a> {
    outer: RowIter<'a>,
    outer_key: &'a Scalar,
    inner_table: &'a Table,
    inner_index: &'a polyframe_storage::Index,
    outer_binding: &'a str,
    inner_binding: &'a str,
    pending: Vec<Value>,
}

impl<'a> Iterator for IndexNlJoinIter<'a> {
    type Item = Result<Value>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.pending.pop() {
                return Some(Ok(row));
            }
            let outer_row = match self.outer.next()? {
                Ok(r) => r,
                Err(e) => return Some(Err(e)),
            };
            let key = match eval(self.outer_key, &outer_row) {
                Ok(k) => k,
                Err(e) => return Some(Err(e)),
            };
            if key.is_unknown() {
                continue;
            }
            for rid in self.inner_index.lookup(&key) {
                match self.inner_table.get(rid) {
                    Some(inner) => self.pending.push(make_record([
                        (self.outer_binding.to_string(), outer_row.clone()),
                        (self.inner_binding.to_string(), Value::Obj(inner.clone())),
                    ])),
                    None => return Some(Err(EngineError::exec("dangling index entry"))),
                }
            }
        }
    }
}

/// Apply a projection spec to one row.
pub fn project_row(spec: &ProjectSpec, row: &Value) -> Result<Value> {
    match spec {
        ProjectSpec::Value(s) => eval(s, row),
        ProjectSpec::Columns(cols) => {
            let mut rec = Record::with_capacity(cols.len());
            for (name, s) in cols {
                rec.insert(name.clone(), eval(s, row)?);
            }
            Ok(Value::Obj(rec))
        }
        ProjectSpec::MergeStars(bindings) => {
            let mut rec = Record::new();
            for b in bindings {
                match row.get_path(b) {
                    Value::Obj(inner) => {
                        for (k, v) in inner.iter() {
                            rec.insert(k.to_string(), v.clone());
                        }
                    }
                    Value::Missing | Value::Null => {}
                    other => {
                        return Err(EngineError::exec(format!(
                            "cannot flatten non-record binding {b} ({})",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(Value::Obj(rec))
        }
    }
}

/// Count merge-join matches between two sorted key streams (the index-only
/// join: `sum over distinct keys of left_dups * right_dups`).
fn merge_join_count<'v>(
    left: impl Iterator<Item = &'v Value>,
    right: impl Iterator<Item = &'v Value>,
) -> usize {
    use std::cmp::Ordering;
    let mut left = left.filter(|k| !k.is_unknown()).peekable();
    let mut right = right.filter(|k| !k.is_unknown()).peekable();
    let mut count = 0usize;
    while let (Some(&lk), Some(&rk)) = (left.peek(), right.peek()) {
        match polyframe_datamodel::cmp_total(lk, rk) {
            Ordering::Less => {
                left.next();
            }
            Ordering::Greater => {
                right.next();
            }
            Ordering::Equal => {
                let key = lk.clone();
                let mut l_dups = 0usize;
                while left.peek().is_some_and(|k| **k == key) {
                    l_dups += 1;
                    left.next();
                }
                let mut r_dups = 0usize;
                while right.peek().is_some_and(|k| **k == key) {
                    r_dups += 1;
                    right.next();
                }
                count += l_dups * r_dups;
            }
        }
    }
    count
}

/// Aggregate a materialized row set (public entry point used by the
/// distributed coordinator to merge shard partials).
pub fn aggregate_rows(
    rows: Vec<Value>,
    group_by: &[(String, Scalar)],
    aggs: &[AggExpr],
    mode: AggMode,
) -> Result<Vec<Value>> {
    run_aggregate(Box::new(rows.into_iter().map(Ok)), group_by, aggs, mode)
}

/// Hash (well, tree) aggregation shared by all modes.
fn run_aggregate(
    rows: RowIter<'_>,
    group_by: &[(String, Scalar)],
    aggs: &[AggExpr],
    mode: AggMode,
) -> Result<Vec<Value>> {
    let mut state = AggState::new(group_by, aggs, mode);
    for row in rows {
        state.push(&row?)?;
    }
    Ok(state.finish())
}

/// Incremental aggregation state: rows fold into the accumulators one at a
/// time, so neither the serial executor nor a parallel morsel ever holds
/// its input rows materialized. (Materializing a morsel before aggregating
/// costs ~2-3x on allocator pressure alone — each scanned record is a
/// fresh clone.)
pub(crate) struct AggState<'p> {
    group_by: &'p [(String, Scalar)],
    aggs: &'p [AggExpr],
    mode: AggMode,
    groups: BTreeMap<Vec<OrdValue>, Vec<Accumulator>>,
    scalar_accs: Vec<Accumulator>, // used when group_by is empty
    saw_any: bool,
}

impl<'p> AggState<'p> {
    /// Fresh state for one aggregation.
    pub(crate) fn new(
        group_by: &'p [(String, Scalar)],
        aggs: &'p [AggExpr],
        mode: AggMode,
    ) -> AggState<'p> {
        AggState {
            group_by,
            aggs,
            mode,
            groups: BTreeMap::new(),
            scalar_accs: aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
            saw_any: false,
        }
    }

    /// Fold one input row into the state.
    pub(crate) fn push(&mut self, row: &Value) -> Result<()> {
        self.saw_any = true;
        let accs = if self.group_by.is_empty() {
            &mut self.scalar_accs
        } else {
            let mut key = Vec::with_capacity(self.group_by.len());
            for (_, expr) in self.group_by {
                key.push(OrdValue(eval(expr, row)?));
            }
            let aggs = self.aggs;
            self.groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| Accumulator::new(a.func)).collect())
        };
        for (agg, acc) in self.aggs.iter().zip(accs.iter_mut()) {
            match self.mode {
                AggMode::Complete | AggMode::Partial => match &agg.arg {
                    AggArg::Star => acc.update(None)?,
                    AggArg::Expr(e) => acc.update(Some(&eval(e, row)?))?,
                },
                AggMode::Final => {
                    // Input rows carry serialized partial states.
                    acc.merge_partial(&row.get_path(&agg.name))?;
                }
            }
        }
        Ok(())
    }

    /// Fold one row's pre-evaluated group key and aggregate arguments (the
    /// vectorized path computes both with batch programs, so this skips
    /// the per-row `Scalar` walk). `args[i] == None` is `COUNT(*)`; a
    /// slice shorter than the aggregate list updates only the leading
    /// accumulators. In `Final` mode each argument is a serialized
    /// partial state (the batch programs fetch `Field(agg.name)`), folded
    /// with `merge_partial` like the row path's `push`.
    pub(crate) fn push_values(
        &mut self,
        key: Vec<OrdValue>,
        args: &[Option<&Value>],
    ) -> Result<()> {
        self.saw_any = true;
        let mode = self.mode;
        let accs = if self.group_by.is_empty() {
            &mut self.scalar_accs
        } else {
            let aggs = self.aggs;
            self.groups
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| Accumulator::new(a.func)).collect())
        };
        for (acc, arg) in accs.iter_mut().zip(args) {
            match (mode, arg) {
                (AggMode::Final, Some(partial)) => acc.merge_partial(partial)?,
                _ => acc.update(*arg)?,
            }
        }
        Ok(())
    }

    /// Borrow the scalar accumulators for the vectorized fused fold:
    /// `None` unless this is a scalar (no GROUP BY) aggregation folding
    /// raw values (`Complete`/`Partial` mode) — the only shape whose
    /// per-row fold is a plain `Accumulator::update` per argument. A
    /// `Some` return marks the state non-empty (`saw_any`), so callers
    /// must have at least one row to fold.
    pub(crate) fn typed_fold_accs(&mut self) -> Option<&mut [Accumulator]> {
        if !self.group_by.is_empty() || self.mode == AggMode::Final {
            return None;
        }
        self.saw_any = true;
        Some(&mut self.scalar_accs)
    }

    /// Tear the state into its accumulator parts for a cross-morsel merge.
    pub(crate) fn into_parts(self) -> AggParts {
        AggParts {
            groups: self.groups,
            scalar_accs: self.scalar_accs,
            saw_any: self.saw_any,
        }
    }

    /// Fold one morsel's accumulator parts into this state — the
    /// columnar-side final-aggregate merge: accumulator states combine
    /// directly via [`Accumulator::merge_state`] instead of being
    /// serialized to partial rows and re-aggregated.
    pub(crate) fn absorb(&mut self, parts: AggParts) {
        self.saw_any |= parts.saw_any;
        if parts.saw_any {
            for (acc, other) in self.scalar_accs.iter_mut().zip(&parts.scalar_accs) {
                acc.merge_state(other);
            }
        }
        for (key, accs) in parts.groups {
            match self.groups.entry(key) {
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    for (acc, other) in o.get_mut().iter_mut().zip(&accs) {
                        acc.merge_state(other);
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(accs);
                }
            }
        }
    }

    /// Emit the output rows, ordered by group key.
    pub(crate) fn finish(self) -> Vec<Value> {
        let emit = |key: Option<&[OrdValue]>, accs: &[Accumulator]| -> Value {
            let mut rec = Record::with_capacity(self.group_by.len() + self.aggs.len());
            if let Some(key) = key {
                for ((name, _), k) in self.group_by.iter().zip(key.iter()) {
                    rec.insert(name.clone(), k.0.clone());
                }
            }
            for (agg, acc) in self.aggs.iter().zip(accs.iter()) {
                let v = match self.mode {
                    AggMode::Partial => acc.to_partial(),
                    _ => acc.finalize(),
                };
                rec.insert(agg.name.clone(), v);
            }
            Value::Obj(rec)
        };

        if self.group_by.is_empty() {
            // Scalar aggregation always emits one row — except in Partial
            // mode on an empty shard, where emitting nothing lets Final
            // mode treat absent shards uniformly (COUNT still works
            // because a fresh accumulator contributes zero).
            if self.mode == AggMode::Partial && !self.saw_any {
                return Vec::new();
            }
            vec![emit(None, &self.scalar_accs)]
        } else {
            self.groups
                .iter()
                .map(|(key, accs)| emit(Some(key), accs))
                .collect()
        }
    }
}

/// One morsel's accumulator state, detached from the plan borrows so it
/// can cross the worker/coordinator boundary (see [`AggState::into_parts`]
/// and [`AggState::absorb`]).
pub(crate) struct AggParts {
    groups: BTreeMap<Vec<OrdValue>, Vec<Accumulator>>,
    scalar_accs: Vec<Accumulator>,
    saw_any: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::logical::AggFunc;
    use polyframe_datamodel::record;

    #[test]
    fn merge_join_count_products() {
        let left = [Value::Int(1), Value::Int(2), Value::Int(2), Value::Int(5)];
        let right = [Value::Int(2), Value::Int(2), Value::Int(2), Value::Int(5)];
        // key 2: 2*3 = 6, key 5: 1*1 = 1.
        assert_eq!(merge_join_count(left.iter(), right.iter()), 7);
    }

    #[test]
    fn merge_join_skips_unknowns() {
        let left = [Value::Null, Value::Int(1)];
        let right = [Value::Missing, Value::Int(1)];
        assert_eq!(merge_join_count(left.iter(), right.iter()), 1);
    }

    #[test]
    fn project_merge_stars() {
        let row = make_record([
            ("l".to_string(), Value::Obj(record! {"a" => 1i64})),
            ("r".to_string(), Value::Obj(record! {"b" => 2i64})),
        ]);
        let spec = ProjectSpec::MergeStars(vec!["l".into(), "r".into()]);
        let out = project_row(&spec, &row).unwrap();
        assert_eq!(out.get_path("a"), Value::Int(1));
        assert_eq!(out.get_path("b"), Value::Int(2));
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let rows: RowIter<'_> = Box::new(std::iter::empty());
        let aggs = vec![AggExpr {
            name: "count".into(),
            func: AggFunc::Count,
            arg: AggArg::Star,
        }];
        let out = run_aggregate(rows, &[], &aggs, AggMode::Complete).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_path("count"), Value::Int(0));
    }

    #[test]
    fn partial_then_final_roundtrip() {
        let aggs = vec![AggExpr {
            name: "avg".into(),
            func: AggFunc::Avg,
            arg: AggArg::Expr(Scalar::Field("x".into())),
        }];
        let make_rows = |vals: Vec<i64>| -> Vec<Value> {
            vals.into_iter()
                .map(|v| Value::Obj(record! {"x" => v}))
                .collect()
        };
        let p1 = run_aggregate(
            Box::new(make_rows(vec![1, 2]).into_iter().map(Ok)),
            &[],
            &aggs,
            AggMode::Partial,
        )
        .unwrap();
        let p2 = run_aggregate(
            Box::new(make_rows(vec![3, 4, 5]).into_iter().map(Ok)),
            &[],
            &aggs,
            AggMode::Partial,
        )
        .unwrap();
        let all: Vec<Value> = p1.into_iter().chain(p2).collect();
        let fin = run_aggregate(
            Box::new(all.into_iter().map(Ok)),
            &[],
            &aggs,
            AggMode::Final,
        )
        .unwrap();
        assert_eq!(fin[0].get_path("avg"), Value::Double(3.0));
    }
}
