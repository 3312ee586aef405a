//! Cypher planning and execution.

use crate::cypher::parser::{
    CAgg, CBinOp, CExpr, CFunc, CypherQuery, EntryExpr, MatchClause, ReturnClause, WithBinding,
    WithClause,
};
use crate::error::{GraphError, Result};
use crate::store::{LabelStore, Labels, ScanRange};
use polyframe_datamodel::{
    cmp_total, sql_compare, NumericSum, Record, SortKey, TopK, TriBool, Value,
};
use polyframe_storage::KeyBound;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A variable binding: a node reference (lazy — strings untouched) or a
/// computed value.
#[derive(Debug, Clone)]
enum GVal {
    Node { label: String, idx: usize },
    Val(Value),
}

/// One row: variable environment.
type Env = Vec<(String, GVal)>;

type EnvIter<'a> = Box<dyn Iterator<Item = Result<Env>> + 'a>;

fn env_get<'e>(env: &'e Env, var: &str) -> Result<&'e GVal> {
    env.iter()
        .find(|(v, _)| v == var)
        .map(|(_, g)| g)
        .ok_or_else(|| GraphError::Semantic(format!("unbound variable {var}")))
}

fn env_set(env: &mut Env, var: &str, val: GVal) {
    if let Some(slot) = env.iter_mut().find(|(v, _)| v == var) {
        slot.1 = val;
    } else {
        env.push((var.to_string(), val));
    }
}

/// Expression evaluation over one pinned snapshot's labels.
impl Labels {
    /// Read one property lazily.
    fn prop(&self, env: &Env, var: &str, prop: &str) -> Result<Value> {
        match env_get(env, var)? {
            GVal::Node { label, idx } => Ok(self.label(label)?.prop_value(*idx, prop)),
            GVal::Val(v) => Ok(v.get_path(prop)),
        }
    }

    /// Materialize a whole binding (touches the string store for nodes).
    fn materialize(&self, env: &Env, var: &str) -> Result<Value> {
        match env_get(env, var)? {
            GVal::Node { label, idx } => Ok(Value::Obj(self.label(label)?.materialize(*idx))),
            GVal::Val(v) => Ok(v.clone()),
        }
    }

    fn eval(&self, expr: &CExpr, env: &Env) -> Result<Value> {
        match expr {
            CExpr::Lit(v) => Ok(v.clone()),
            CExpr::Prop(var, prop) => self.prop(env, var, prop),
            CExpr::Var(v) => self.materialize(env, v),
            CExpr::IsNull(inner, negated) => {
                let v = self.eval(inner, env)?;
                Ok(Value::Bool(v.is_unknown() != *negated))
            }
            CExpr::Not(inner) => {
                let v = self.eval(inner, env)?;
                Ok(truthy(&v).not().to_value())
            }
            CExpr::Bin(op, a, b) => {
                let (x, y) = (self.eval(a, env)?, self.eval(b, env)?);
                eval_binop(*op, &x, &y)
            }
            CExpr::Func(f, args) => {
                let v = self.eval(&args[0], env)?;
                eval_func(*f, v)
            }
            CExpr::Agg(_, _) | CExpr::CountStar => Err(GraphError::Semantic(
                "aggregate in a non-aggregating context".to_string(),
            )),
        }
    }

    fn filter_pass(&self, pred: &CExpr, env: &Env) -> Result<bool> {
        Ok(truthy(&self.eval(pred, env)?).is_true())
    }
}

fn truthy(v: &Value) -> TriBool {
    match v {
        Value::Bool(b) => TriBool::from_bool(*b),
        _ => TriBool::Unknown,
    }
}

fn eval_binop(op: CBinOp, x: &Value, y: &Value) -> Result<Value> {
    use CBinOp::*;
    match op {
        And => Ok(truthy(x).and(truthy(y)).to_value()),
        Or => Ok(truthy(x).or(truthy(y)).to_value()),
        Eq | Ne | Lt | Le | Gt | Ge => {
            if x.is_unknown() || y.is_unknown() {
                return Ok(Value::Null);
            }
            let tri = match (op, sql_compare(x, y)) {
                (Eq, Some(Ordering::Equal)) => TriBool::True,
                (Eq, Some(_)) => TriBool::False,
                (Ne, Some(Ordering::Equal)) => TriBool::False,
                (Ne, Some(_)) => TriBool::True,
                (Lt, Some(o)) => TriBool::from_bool(o == Ordering::Less),
                (Le, Some(o)) => TriBool::from_bool(o != Ordering::Greater),
                (Gt, Some(o)) => TriBool::from_bool(o == Ordering::Greater),
                (Ge, Some(o)) => TriBool::from_bool(o != Ordering::Less),
                (Eq, None) => TriBool::False,
                (Ne, None) => TriBool::True,
                (_, None) => TriBool::Unknown,
                _ => unreachable!(),
            };
            Ok(tri.to_value())
        }
        Add | Sub | Mul | Div | Mod => {
            if x.is_unknown() || y.is_unknown() {
                return Ok(Value::Null);
            }
            if let (Value::Str(a), Value::Str(b), Add) = (x, y, op) {
                return Ok(Value::Str(format!("{a}{b}")));
            }
            let (Some(a), Some(b)) = (x.as_f64(), y.as_f64()) else {
                return Err(GraphError::Exec(format!(
                    "arithmetic over {} and {}",
                    x.type_name(),
                    y.type_name()
                )));
            };
            let both_int = matches!((x, y), (Value::Int(_), Value::Int(_)));
            let r = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    if both_int {
                        // Cypher integer division truncates.
                        return Ok(Value::Int(x.as_i64().unwrap() / y.as_i64().unwrap()));
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            if both_int && r.fract() == 0.0 && r.abs() < 9.0e15 {
                Ok(Value::Int(r as i64))
            } else {
                Ok(Value::Double(r))
            }
        }
    }
}

fn eval_func(f: CFunc, v: Value) -> Result<Value> {
    if v.is_unknown() {
        return Ok(Value::Null);
    }
    match f {
        CFunc::Upper => Ok(match v {
            Value::Str(s) => Value::Str(s.to_uppercase()),
            _ => Value::Null,
        }),
        CFunc::Lower => Ok(match v {
            Value::Str(s) => Value::Str(s.to_lowercase()),
            _ => Value::Null,
        }),
        CFunc::Abs => Ok(match v {
            Value::Int(i) => Value::Int(i.abs()),
            Value::Double(d) => Value::Double(d.abs()),
            _ => Value::Null,
        }),
        CFunc::ToInteger => Ok(match v {
            Value::Int(i) => Value::Int(i),
            Value::Double(d) => Value::Int(d as i64),
            Value::Bool(b) => Value::Int(i64::from(b)),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            _ => Value::Null,
        }),
        CFunc::ToString => Ok(Value::Str(v.to_string())),
    }
}

// ------------------------------------------------------------- planning --

/// The access path chosen for the anchor `MATCH`.
#[derive(Debug, Clone, PartialEq)]
enum Access {
    /// O(1) label metadata count (whole query short-circuits).
    MetadataCount,
    /// Full label scan.
    LabelScan,
    /// Index equality seek.
    IndexSeek { prop: String, value: Value },
    /// Index range scan.
    IndexRange {
        prop: String,
        lo: KeyBound,
        hi: KeyBound,
    },
}

struct Plan<'q> {
    var: String,
    label: String,
    access: Access,
    /// Residual predicate of the first filtering clause (after index
    /// absorption), if any.
    residual: Option<CExpr>,
    /// Whether the first `WITH`'s WHERE was consumed by the access path.
    consumed_first_where: bool,
    /// Join clause, if a second MATCH exists.
    join: Option<&'q MatchClause>,
}

fn plan<'q>(q: &'q CypherQuery, labels: &Labels) -> Result<Plan<'q>> {
    let first = &q.matches[0];
    if first.patterns.len() != 1 {
        return Err(GraphError::Semantic(
            "the first MATCH must bind exactly one labelled node".to_string(),
        ));
    }
    let (var, label) = &first.patterns[0];
    let label = label
        .clone()
        .ok_or_else(|| GraphError::Semantic("the first MATCH pattern needs a label".to_string()))?;
    let store = labels.label(&label)?;

    let join = q.matches.get(1);

    // Metadata count: MATCH + (pass-through WITHs) + RETURN COUNT(*).
    if join.is_none()
        && first.where_.is_none()
        && matches!(q.ret, ReturnClause::CountStar(_))
        && q.withs.iter().all(|w| {
            matches!(w.binding, WithBinding::Var(_)) && w.where_.is_none() && w.order_by.is_none()
        })
    {
        return Ok(Plan {
            var: var.clone(),
            label,
            access: Access::MetadataCount,
            residual: None,
            consumed_first_where: false,
            join,
        });
    }

    // Index selection from the first predicate (MATCH WHERE or first WITH
    // WHERE, when that WITH is a pass-through).
    let (pred, from_with) = match (&first.where_, q.withs.first()) {
        (Some(p), _) => (Some(p), false),
        (None, Some(w)) if matches!(w.binding, WithBinding::Var(_)) => (w.where_.as_ref(), true),
        _ => (None, false),
    };

    let mut access = Access::LabelScan;
    let mut residual = None;
    let mut consumed = false;
    if let Some(pred) = pred {
        if join.is_none() {
            let mut conjuncts = Vec::new();
            flatten_and(pred, &mut conjuncts);
            // Equality seek.
            if let Some(pos) = conjuncts.iter().position(|c| {
                eq_prop_lit(c, var).is_some_and(|(p, v)| !v.is_unknown() && store.has_index(p))
            }) {
                let (p, v) = eq_prop_lit(&conjuncts[pos], var).unwrap();
                access = Access::IndexSeek {
                    prop: p.to_string(),
                    value: v.clone(),
                };
                conjuncts.remove(pos);
                residual = rebuild_and(conjuncts);
                consumed = from_with;
            } else if let Some((p, lo, hi, used)) = range_bounds(&conjuncts, var, store) {
                access = Access::IndexRange { prop: p, lo, hi };
                let rest: Vec<CExpr> = conjuncts
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !used.contains(i))
                    .map(|(_, c)| c.clone())
                    .collect();
                residual = rebuild_and(rest);
                consumed = from_with;
            } else {
                residual = Some(pred.clone());
                consumed = from_with;
            }
        } else {
            residual = Some(pred.clone());
            consumed = from_with;
        }
    }

    Ok(Plan {
        var: var.clone(),
        label,
        access,
        residual,
        consumed_first_where: consumed,
        join,
    })
}

fn flatten_and(e: &CExpr, out: &mut Vec<CExpr>) {
    match e {
        CExpr::Bin(CBinOp::And, a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other.clone()),
    }
}

fn rebuild_and(conjuncts: Vec<CExpr>) -> Option<CExpr> {
    conjuncts
        .into_iter()
        .reduce(|a, b| CExpr::Bin(CBinOp::And, Box::new(a), Box::new(b)))
}

fn eq_prop_lit<'e>(e: &'e CExpr, var: &str) -> Option<(&'e str, &'e Value)> {
    if let CExpr::Bin(CBinOp::Eq, a, b) = e {
        match (a.as_ref(), b.as_ref()) {
            (CExpr::Prop(v, p), CExpr::Lit(val)) if v == var => Some((p, val)),
            (CExpr::Lit(val), CExpr::Prop(v, p)) if v == var => Some((p, val)),
            _ => None,
        }
    } else {
        None
    }
}

fn range_bounds(
    conjuncts: &[CExpr],
    var: &str,
    store: &LabelStore,
) -> Option<(String, KeyBound, KeyBound, Vec<usize>)> {
    for c in conjuncts {
        let Some((prop, _, _)) = range_prop_lit(c, var) else {
            continue;
        };
        if !store.has_index(prop) {
            continue;
        }
        let prop = prop.to_string();
        let mut lo = KeyBound::Unbounded;
        let mut hi = KeyBound::Unbounded;
        let mut used = Vec::new();
        for (i, c2) in conjuncts.iter().enumerate() {
            if let Some((p2, op, v)) = range_prop_lit(c2, var) {
                if p2 == prop && !v.is_unknown() {
                    match op {
                        CBinOp::Ge => lo = KeyBound::Included(v.clone()),
                        CBinOp::Gt => lo = KeyBound::Excluded(v.clone()),
                        CBinOp::Le => hi = KeyBound::Included(v.clone()),
                        CBinOp::Lt => hi = KeyBound::Excluded(v.clone()),
                        _ => continue,
                    }
                    used.push(i);
                }
            }
        }
        if !used.is_empty() {
            return Some((prop, lo, hi, used));
        }
    }
    None
}

fn range_prop_lit<'e>(e: &'e CExpr, var: &str) -> Option<(&'e str, CBinOp, &'e Value)> {
    if let CExpr::Bin(op @ (CBinOp::Ge | CBinOp::Gt | CBinOp::Le | CBinOp::Lt), a, b) = e {
        match (a.as_ref(), b.as_ref()) {
            (CExpr::Prop(v, p), CExpr::Lit(val)) if v == var => Some((p, *op, val)),
            (CExpr::Lit(val), CExpr::Prop(v, p)) if v == var => {
                let flipped = match op {
                    CBinOp::Ge => CBinOp::Le,
                    CBinOp::Gt => CBinOp::Lt,
                    CBinOp::Le => CBinOp::Ge,
                    CBinOp::Lt => CBinOp::Gt,
                    _ => unreachable!(),
                };
                Some((p, flipped, val))
            }
            _ => None,
        }
    } else {
        None
    }
}

// ------------------------------------------------------------ execution --

/// Execute a parsed query.
pub fn execute(q: &CypherQuery, labels: &Labels) -> Result<Vec<Value>> {
    let plan = plan(q, labels)?;

    if plan.access == Access::MetadataCount {
        let n = labels.label(&plan.label)?.count() as i64;
        return Ok(vec![wrap_count(n, &q.ret)]);
    }

    let store = labels.label(&plan.label)?;
    let var = plan.var.clone();
    let mk = move |idx: usize, label: &str| -> Env {
        vec![(
            var.clone(),
            GVal::Node {
                label: label.to_string(),
                idx,
            },
        )]
    };
    let label_name = plan.label.clone();

    let mut rows: EnvIter<'_> = match &plan.access {
        Access::LabelScan | Access::MetadataCount => {
            let label_name = label_name.clone();
            Box::new(store.node_indices().map(move |i| Ok(mk(i, &label_name))))
        }
        Access::IndexSeek { prop, value } => {
            let hits = store
                .index_lookup(prop, value)
                .ok_or_else(|| GraphError::Exec(format!("no index on {prop}")))?;
            let label_name = label_name.clone();
            Box::new(hits.into_iter().map(move |i| Ok(mk(i, &label_name))))
        }
        Access::IndexRange { prop, lo, hi } => {
            let hits = store
                .index_range(
                    prop,
                    &ScanRange {
                        lo: lo.clone(),
                        hi: hi.clone(),
                    },
                )
                .ok_or_else(|| GraphError::Exec(format!("no index on {prop}")))?;
            let label_name = label_name.clone();
            Box::new(hits.into_iter().map(move |i| Ok(mk(i, &label_name))))
        }
    };

    // Residual predicate from the anchor clause.
    if let Some(pred) = &plan.residual {
        rows = Box::new(rows.filter_map(move |env| match env {
            Ok(env) => match labels.filter_pass(pred, &env) {
                Ok(true) => Some(Ok(env)),
                Ok(false) => None,
                Err(e) => Some(Err(e)),
            },
            Err(e) => Some(Err(e)),
        }));
    }

    // Join MATCH.
    if let Some(join) = plan.join {
        rows = apply_join(rows, join, labels)?;
    }

    // WITH chain.
    let mut skip_first_where = plan.consumed_first_where;
    for (i, w) in q.withs.iter().enumerate() {
        let strip_where = skip_first_where && i == 0;
        skip_first_where = false;
        let bound = order_by_bound(&q.withs[i + 1..], &q.ret, q.limit);
        rows = apply_with(rows, w, labels, strip_where, bound)?;
    }

    // RETURN.
    match &q.ret {
        ReturnClause::CountStar(_) => {
            let mut n = 0i64;
            for env in rows {
                env?;
                n += 1;
            }
            Ok(vec![Value::Int(n)])
        }
        ReturnClause::Var(v) => {
            let iter = rows.map(move |env| {
                let env = env?;
                labels.materialize(&env, v)
            });
            collect_limited(iter, q.limit)
        }
        ReturnClause::Expr(e, _) => {
            let iter = rows.map(move |env| {
                let env = env?;
                labels.eval(e, &env)
            });
            collect_limited(iter, q.limit)
        }
    }
}

/// The row budget of a `WITH … ORDER BY`: the query's `LIMIT` when every
/// later clause keeps rows 1:1 (no `WHERE`, aggregation or re-sort) and
/// `RETURN` emits rows rather than counting them.
fn order_by_bound(later: &[WithClause], ret: &ReturnClause, limit: Option<u64>) -> Option<u64> {
    let one_to_one = later.iter().all(|w| {
        w.where_.is_none()
            && w.order_by.is_none()
            && match &w.binding {
                WithBinding::Var(_) | WithBinding::MapProject { .. } => true,
                WithBinding::MapAs { entries, .. } => !aggregates(entries),
            }
    });
    match ret {
        ReturnClause::Var(_) | ReturnClause::Expr(..) if one_to_one => limit,
        _ => None,
    }
}

/// Whether a `WITH {…} AS v` map aggregates (and so groups its rows).
fn aggregates(entries: &[crate::cypher::parser::Entry]) -> bool {
    entries
        .iter()
        .any(|e| matches!(&e.expr, EntryExpr::Expr(x) if x.has_aggregate()))
}

fn wrap_count(n: i64, _ret: &ReturnClause) -> Value {
    Value::Int(n)
}

fn collect_limited(
    iter: impl Iterator<Item = Result<Value>>,
    limit: Option<u64>,
) -> Result<Vec<Value>> {
    match limit {
        Some(n) => iter.take(n as usize).collect(),
        None => iter.collect(),
    }
}

fn apply_join<'a>(
    rows: EnvIter<'a>,
    join: &'a MatchClause,
    labels: &'a Labels,
) -> Result<EnvIter<'a>> {
    // Expect: patterns [(bound, None), (new, Some(label))] (either order)
    // and WHERE bound.p1 = new.p2.
    let (new_var, new_label) = join
        .patterns
        .iter()
        .find_map(|(v, l)| l.as_ref().map(|l| (v.clone(), l.clone())))
        .ok_or_else(|| GraphError::Semantic("join MATCH needs a labelled pattern".to_string()))?;
    let pred = join
        .where_
        .as_ref()
        .ok_or_else(|| GraphError::Semantic("join MATCH needs a WHERE".to_string()))?;
    let (bound_prop, new_prop) = match pred {
        CExpr::Bin(CBinOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (CExpr::Prop(v1, p1), CExpr::Prop(v2, p2)) if *v2 == new_var && *v1 != new_var => {
                (p1.clone(), p2.clone())
            }
            (CExpr::Prop(v1, p1), CExpr::Prop(v2, p2)) if *v1 == new_var && *v2 != new_var => {
                (p2.clone(), p1.clone())
            }
            _ => {
                return Err(GraphError::Semantic(
                    "join WHERE must be an equality between two node properties".to_string(),
                ))
            }
        },
        _ => {
            return Err(GraphError::Semantic(
                "join WHERE must be a single equality".to_string(),
            ))
        }
    };
    let bound_var = join
        .patterns
        .iter()
        .find(|(_, l)| l.is_none())
        .map(|(v, _)| v.clone())
        .ok_or_else(|| GraphError::Semantic("join MATCH needs a bound pattern".to_string()))?;

    let inner = labels.label(&new_label)?;
    let indexed = inner.has_index(&new_prop);

    Ok(Box::new(rows.flat_map(move |env| {
        let env = match env {
            Ok(e) => e,
            Err(e) => return vec![Err(e)],
        };
        let key = match labels.prop(&env, &bound_var, &bound_prop) {
            Ok(k) => k,
            Err(e) => return vec![Err(e)],
        };
        if key.is_unknown() {
            return Vec::new();
        }
        let matches: Vec<usize> = if indexed {
            inner.index_lookup(&new_prop, &key).unwrap_or_default()
        } else {
            inner
                .node_indices()
                .filter(|i| {
                    sql_compare(&inner.prop_value(*i, &new_prop), &key) == Some(Ordering::Equal)
                })
                .collect()
        };
        matches
            .into_iter()
            .map(|idx| {
                let mut out = env.clone();
                env_set(
                    &mut out,
                    &new_var,
                    GVal::Node {
                        label: new_label.clone(),
                        idx,
                    },
                );
                Ok(out)
            })
            .collect()
    })))
}

fn apply_with<'a>(
    rows: EnvIter<'a>,
    w: &'a WithClause,
    labels: &'a Labels,
    strip_where: bool,
    bound: Option<u64>,
) -> Result<EnvIter<'a>> {
    let mut rows: EnvIter<'a> = match &w.binding {
        WithBinding::Var(_) => rows,
        WithBinding::MapProject { var, entries } => {
            let var = var.clone();
            Box::new(rows.map(move |env| {
                let env = env?;
                let map = build_map(labels, &env, &var, entries)?;
                let mut out = env;
                env_set(&mut out, &var, GVal::Val(map));
                Ok(out)
            }))
        }
        WithBinding::MapAs { entries, alias } => {
            if aggregates(entries) {
                let out = aggregate_map(labels, rows, entries, alias)?;
                Box::new(out.into_iter().map(Ok))
            } else {
                let alias = alias.clone();
                Box::new(rows.map(move |env| {
                    let env = env?;
                    let map = build_map(labels, &env, &alias, entries)?;
                    Ok(vec![(alias.clone(), GVal::Val(map))])
                }))
            }
        }
    };

    if !strip_where {
        if let Some(pred) = &w.where_ {
            rows = Box::new(rows.filter_map(move |env| match env {
                Ok(env) => match labels.filter_pass(pred, &env) {
                    Ok(true) => Some(Ok(env)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                },
                Err(e) => Some(Err(e)),
            }));
        }
    }

    if let Some((key, desc)) = &w.order_by {
        // Every row's key is evaluated (key errors fire in row order);
        // the top-k kernel keeps `bound` rows when a later LIMIT caps
        // the output.
        let collected: Result<Vec<Env>> = rows.collect();
        let mut sorted = TopK::new(bound.map(|n| n as usize));
        for env in collected? {
            sorted.push(SortKey::new(labels.eval(key, &env)?, *desc), env);
        }
        rows = Box::new(sorted.into_sorted_items().into_iter().map(Ok));
    }
    Ok(rows)
}

/// Build a projection map (`t{...}`).
fn build_map(
    labels: &Labels,
    env: &Env,
    var: &str,
    entries: &[crate::cypher::parser::Entry],
) -> Result<Value> {
    let mut rec = Record::new();
    for entry in entries {
        match &entry.expr {
            EntryExpr::AllProps => {
                if let Value::Obj(all) = labels.materialize(env, var)? {
                    for (k, v) in all.iter() {
                        rec.insert(k.to_string(), v.clone());
                    }
                }
            }
            EntryExpr::EmbedVar(v) => {
                rec.insert(entry.alias.clone(), labels.materialize(env, v)?);
            }
            EntryExpr::Expr(e) => {
                let v = labels.eval(e, env)?;
                // Cypher map projections omit missing properties as null.
                rec.insert(
                    entry.alias.clone(),
                    if v.is_missing() { Value::Null } else { v },
                );
            }
        }
    }
    Ok(Value::Obj(rec))
}

/// Grouped aggregation for `WITH {keys..., aggs...} AS v`.
fn aggregate_map(
    labels: &Labels,
    rows: EnvIter<'_>,
    entries: &[crate::cypher::parser::Entry],
    alias: &str,
) -> Result<Vec<Env>> {
    #[derive(Clone)]
    struct Acc {
        agg: CAgg,
        count: i64,
        sum: NumericSum,
        sumsq: f64,
        min: Option<Value>,
        max: Option<Value>,
    }
    impl Acc {
        fn update(&mut self, v: &Value) {
            if v.is_unknown() {
                return;
            }
            match self.agg {
                CAgg::Count => self.count += 1,
                CAgg::Min => {
                    if self
                        .min
                        .as_ref()
                        .is_none_or(|cur| cmp_total(v, cur) == Ordering::Less)
                    {
                        self.min = Some(v.clone());
                    }
                }
                CAgg::Max => {
                    if self
                        .max
                        .as_ref()
                        .is_none_or(|cur| cmp_total(v, cur) == Ordering::Greater)
                    {
                        self.max = Some(v.clone());
                    }
                }
                CAgg::Sum | CAgg::Avg | CAgg::StdDevP => {
                    if let Some(x) = v.as_f64() {
                        self.sum.add(v);
                        self.sumsq += x * x;
                        self.count += 1;
                    }
                }
            }
        }
        fn finalize(&self) -> Value {
            match self.agg {
                CAgg::Count => Value::Int(self.count),
                CAgg::Min => self.min.clone().unwrap_or(Value::Null),
                CAgg::Max => self.max.clone().unwrap_or(Value::Null),
                CAgg::Sum => self.sum.value(),
                CAgg::Avg => {
                    if self.count == 0 {
                        Value::Null
                    } else {
                        Value::Double(self.sum.as_f64() / self.count as f64)
                    }
                }
                CAgg::StdDevP => {
                    if self.count == 0 {
                        Value::Null
                    } else {
                        let n = self.count as f64;
                        let mean = self.sum.as_f64() / n;
                        Value::Double((self.sumsq / n - mean * mean).max(0.0).sqrt())
                    }
                }
            }
        }
    }

    // Classify entries: key or aggregate (only top-level aggregates are
    // supported, matching the rewrite rules' shapes).
    enum Slot {
        Key(CExpr),
        Agg(CAgg, CExpr),
        CountStar,
    }
    let slots: Vec<(String, Slot)> = entries
        .iter()
        .map(|e| {
            let slot = match &e.expr {
                EntryExpr::Expr(CExpr::Agg(agg, arg)) => Slot::Agg(*agg, (**arg).clone()),
                EntryExpr::Expr(CExpr::CountStar) => Slot::CountStar,
                EntryExpr::Expr(x) if x.has_aggregate() => {
                    return Err(GraphError::Semantic(
                        "aggregates must be top-level map entries".to_string(),
                    ))
                }
                EntryExpr::Expr(x) => Slot::Key(x.clone()),
                _ => {
                    return Err(GraphError::Semantic(
                        "`.*` is not allowed in aggregation maps".to_string(),
                    ))
                }
            };
            Ok((e.alias.clone(), slot))
        })
        .collect::<Result<Vec<_>>>()?;

    #[derive(PartialEq, Clone)]
    struct K(Vec<Value>);
    impl Eq for K {}
    impl PartialOrd for K {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for K {
        fn cmp(&self, other: &Self) -> Ordering {
            for (a, b) in self.0.iter().zip(other.0.iter()) {
                let o = cmp_total(a, b);
                if o != Ordering::Equal {
                    return o;
                }
            }
            self.0.len().cmp(&other.0.len())
        }
    }

    let fresh = || -> Vec<Acc> {
        slots
            .iter()
            .filter_map(|(_, s)| match s {
                Slot::Agg(agg, _) => Some(Acc {
                    agg: *agg,
                    count: 0,
                    sum: NumericSum::default(),
                    sumsq: 0.0,
                    min: None,
                    max: None,
                }),
                Slot::CountStar => Some(Acc {
                    agg: CAgg::Count,
                    count: 0,
                    sum: NumericSum::default(),
                    sumsq: 0.0,
                    min: None,
                    max: None,
                }),
                Slot::Key(_) => None,
            })
            .collect()
    };

    let has_keys = slots.iter().any(|(_, s)| matches!(s, Slot::Key(_)));
    let mut groups: BTreeMap<K, Vec<Acc>> = BTreeMap::new();
    for env in rows {
        let env = env?;
        let mut key = Vec::new();
        for (_, s) in &slots {
            if let Slot::Key(e) = s {
                key.push(labels.eval(e, &env)?);
            }
        }
        let accs = groups.entry(K(key)).or_insert_with(fresh);
        let mut ai = 0;
        for (_, s) in &slots {
            match s {
                Slot::Agg(_, arg) => {
                    let v = labels.eval(arg, &env)?;
                    accs[ai].update(&v);
                    ai += 1;
                }
                Slot::CountStar => {
                    accs[ai].count += 1;
                    ai += 1;
                }
                Slot::Key(_) => {}
            }
        }
    }
    // Scalar aggregation over empty input still produces one row (Cypher).
    if groups.is_empty() && !has_keys {
        groups.insert(K(vec![]), fresh());
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in &groups {
        let mut rec = Record::new();
        let (mut ki, mut ai) = (0usize, 0usize);
        for (name, s) in &slots {
            match s {
                Slot::Key(_) => {
                    let v = key.0[ki].clone();
                    rec.insert(name.clone(), if v.is_missing() { Value::Null } else { v });
                    ki += 1;
                }
                Slot::Agg(_, _) | Slot::CountStar => {
                    rec.insert(name.clone(), accs[ai].finalize());
                    ai += 1;
                }
            }
        }
        out.push(vec![(alias.to_string(), GVal::Val(Value::Obj(rec)))]);
    }
    Ok(out)
}

/// EXPLAIN-style description of the access path.
pub fn explain(q: &CypherQuery, labels: &Labels) -> Result<String> {
    let p = plan(q, labels)?;
    let access = match &p.access {
        Access::MetadataCount => format!("MetadataCount({})", p.label),
        Access::LabelScan => format!("NodeByLabelScan({})", p.label),
        Access::IndexSeek { prop, .. } => format!("NodeIndexSeek({}.{prop})", p.label),
        Access::IndexRange { prop, .. } => format!("NodeIndexRange({}.{prop})", p.label),
    };
    let join = if p.join.is_some() { " + Join" } else { "" };
    Ok(format!("{access}{join} + {} WITH clauses", q.withs.len()))
}
