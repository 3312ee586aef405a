//! Pipeline optimization: stage normalization and index-access selection.
//!
//! MongoDB's pipeline optimizer can only use indexes for stages at the very
//! head of a pipeline — which is exactly why the paper's PolyFrame-on-
//! MongoDB cannot benefit from the fast metadata count (the `$match{}`
//! prefix keeps the pipeline shape, and `$count` at the end of a pipeline
//! never consults collection metadata).

use crate::pipeline::expr::{CmpOp, MongoExpr};
use crate::pipeline::Stage;
use polyframe_datamodel::Value;
use polyframe_storage::KeyBound;

/// How the executor will produce the initial document stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Full collection scan.
    CollScan,
    /// Index equality probe.
    IndexEq {
        /// Indexed field.
        attr: String,
        /// Probe key.
        value: Value,
    },
    /// Index range scan.
    IndexRange {
        /// Indexed field.
        attr: String,
        /// Lower bound.
        lo: KeyBound,
        /// Upper bound.
        hi: KeyBound,
    },
    /// Index-ordered scan (forward or backward) with an early-exit limit.
    IndexOrdered {
        /// Indexed field.
        attr: String,
        /// Descending?
        desc: bool,
        /// Early-exit budget.
        limit: Option<u64>,
    },
}

/// An optimized pipeline: a source plus the remaining stages.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPipeline {
    /// Document source.
    pub source: Source,
    /// Stages applied on top of the source.
    pub stages: Vec<Stage>,
}

impl PhysicalPipeline {
    /// EXPLAIN-style description (used in tests and the harness).
    pub fn describe(&self) -> String {
        let src = match &self.source {
            Source::CollScan => "COLLSCAN".to_string(),
            Source::IndexEq { attr, .. } => format!("IXSCAN eq({attr})"),
            Source::IndexRange { attr, .. } => format!("IXSCAN range({attr})"),
            Source::IndexOrdered { attr, desc, limit } => format!(
                "IXSCAN ordered({attr}{}){}",
                if *desc { " desc" } else { "" },
                limit.map(|n| format!(" limit={n}")).unwrap_or_default()
            ),
        };
        format!("{src} + {} stages", self.stages.len())
    }
}

/// Information the optimizer needs about one index: whether it exists and
/// whether it covers every document (no skipped unknown keys).
pub type IndexProbe<'a> = &'a dyn Fn(&str) -> Option<bool>;

/// Optimize a parsed pipeline. `index_info(attr)` returns `Some(complete)`
/// when an index on `attr` exists.
pub fn optimize(stages: &[Stage], index_info: IndexProbe<'_>) -> PhysicalPipeline {
    let mut stages = normalize(stages);
    let mut source = Source::CollScan;

    // Index access from a leading $match.
    if let Some(Stage::Match(Some(pred))) = stages.first() {
        if let Some((src, residual)) = match_to_index(pred, index_info) {
            source = src;
            match residual {
                Some(pred) => stages[0] = Stage::Match(Some(pred)),
                None => {
                    stages.remove(0);
                }
            }
        }
    }
    // Index-ordered scan from a leading $sort with a downstream $limit.
    if source == Source::CollScan {
        if let Some(Stage::Sort(keys)) = stages.first() {
            if keys.len() == 1 {
                let (attr, desc) = (&keys[0].0, keys[0].1);
                if index_info(attr) == Some(true) {
                    if let Some(limit) = find_downstream_limit(&stages[1..]) {
                        source = Source::IndexOrdered {
                            attr: attr.clone(),
                            desc,
                            limit: Some(limit),
                        };
                        stages.remove(0);
                    }
                }
            }
        }
    }

    PhysicalPipeline { source, stages }
}

/// Drop `$match {}` stages and merge consecutive `$match` predicates.
fn normalize(stages: &[Stage]) -> Vec<Stage> {
    let mut out: Vec<Stage> = Vec::with_capacity(stages.len());
    for stage in stages {
        match stage {
            Stage::Match(None) => {}
            Stage::Match(Some(pred)) => match out.last_mut() {
                Some(Stage::Match(Some(prev))) => {
                    *prev = MongoExpr::And(vec![prev.clone(), pred.clone()]);
                }
                _ => out.push(stage.clone()),
            },
            other => out.push(other.clone()),
        }
    }
    out
}

/// A `$limit` reachable through row-count-preserving stages.
pub(crate) fn find_downstream_limit(stages: &[Stage]) -> Option<u64> {
    for stage in stages {
        match stage {
            Stage::Limit(n) => return Some(*n),
            Stage::Project(_) | Stage::AddFields(_) => continue,
            _ => return None,
        }
    }
    None
}

/// Try to turn a predicate into an index access. Returns the source and the
/// residual predicate (if any conjunct was not absorbed).
fn match_to_index(
    pred: &MongoExpr,
    index_info: IndexProbe<'_>,
) -> Option<(Source, Option<MongoExpr>)> {
    let mut conjuncts = Vec::new();
    flatten_and(pred, &mut conjuncts);

    // Equality first.
    if let Some(pos) = conjuncts.iter().position(|c| {
        eq_field_lit(c).is_some_and(|(f, v)| !v.is_unknown() && index_info(f).is_some())
    }) {
        let (f, v) = eq_field_lit(&conjuncts[pos]).unwrap();
        let source = Source::IndexEq {
            attr: f.to_string(),
            value: v.clone(),
        };
        conjuncts.remove(pos);
        return Some((source, rebuild_and(conjuncts)));
    }

    // Range bounds on a single indexed field.
    for i in 0..conjuncts.len() {
        let Some((f, _, _)) = range_field_lit(&conjuncts[i]) else {
            continue;
        };
        if index_info(f).is_none() {
            continue;
        }
        let field = f.to_string();
        let mut lo = KeyBound::Unbounded;
        let mut hi = KeyBound::Unbounded;
        let mut used = Vec::new();
        for (j, c) in conjuncts.iter().enumerate() {
            if let Some((f2, op, v)) = range_field_lit(c) {
                if f2 == field && !v.is_unknown() {
                    match op {
                        CmpOp::Ge => lo = KeyBound::Included(v.clone()),
                        CmpOp::Gt => lo = KeyBound::Excluded(v.clone()),
                        CmpOp::Le => hi = KeyBound::Included(v.clone()),
                        CmpOp::Lt => hi = KeyBound::Excluded(v.clone()),
                        _ => continue,
                    }
                    used.push(j);
                }
            }
        }
        if used.is_empty() {
            continue;
        }
        let residual: Vec<MongoExpr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(j, _)| !used.contains(j))
            .map(|(_, c)| c.clone())
            .collect();
        return Some((
            Source::IndexRange {
                attr: field,
                lo,
                hi,
            },
            rebuild_and(residual),
        ));
    }
    None
}

fn flatten_and(e: &MongoExpr, out: &mut Vec<MongoExpr>) {
    match e {
        MongoExpr::And(items) => {
            for item in items {
                flatten_and(item, out);
            }
        }
        other => out.push(other.clone()),
    }
}

fn rebuild_and(conjuncts: Vec<MongoExpr>) -> Option<MongoExpr> {
    match conjuncts.len() {
        0 => None,
        1 => Some(conjuncts.into_iter().next().unwrap()),
        _ => Some(MongoExpr::And(conjuncts)),
    }
}

fn eq_field_lit(e: &MongoExpr) -> Option<(&str, &Value)> {
    if let MongoExpr::Cmp(CmpOp::Eq, a, b) = e {
        match (a.as_ref(), b.as_ref()) {
            (MongoExpr::FieldRef(path), MongoExpr::Lit(v)) if path.len() == 1 => {
                Some((path[0].as_str(), v))
            }
            (MongoExpr::Lit(v), MongoExpr::FieldRef(path)) if path.len() == 1 => {
                Some((path[0].as_str(), v))
            }
            _ => None,
        }
    } else {
        None
    }
}

fn range_field_lit(e: &MongoExpr) -> Option<(&str, CmpOp, &Value)> {
    if let MongoExpr::Cmp(op @ (CmpOp::Ge | CmpOp::Gt | CmpOp::Le | CmpOp::Lt), a, b) = e {
        match (a.as_ref(), b.as_ref()) {
            (MongoExpr::FieldRef(path), MongoExpr::Lit(v)) if path.len() == 1 => {
                Some((path[0].as_str(), *op, v))
            }
            (MongoExpr::Lit(v), MongoExpr::FieldRef(path)) if path.len() == 1 => {
                // Flip the operator: `lit < field` is `field > lit`.
                let flipped = match op {
                    CmpOp::Ge => CmpOp::Le,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Lt => CmpOp::Gt,
                    _ => unreachable!(),
                };
                Some((path[0].as_str(), flipped, v))
            }
            _ => None,
        }
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::parse_pipeline;

    fn probe_all_complete(attr: &str) -> Option<bool> {
        matches!(attr, "ten" | "unique1" | "onePercent").then_some(true)
    }

    #[test]
    fn match_all_stages_vanish() {
        let stages = parse_pipeline(r#"[{"$match":{}},{"$match":{}},{"$limit":5}]"#).unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        assert_eq!(phys.source, Source::CollScan);
        assert_eq!(phys.stages, vec![Stage::Limit(5)]);
    }

    #[test]
    fn eq_match_becomes_index_probe() {
        let stages = parse_pipeline(
            r#"[{"$match":{}},{"$match":{"$expr":{"$eq":["$ten",3]}}},{"$limit":5}]"#,
        )
        .unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        assert_eq!(
            phys.source,
            Source::IndexEq {
                attr: "ten".into(),
                value: Value::Int(3)
            }
        );
        assert_eq!(phys.stages, vec![Stage::Limit(5)]);
    }

    #[test]
    fn residual_predicate_survives() {
        let stages = parse_pipeline(
            r#"[{"$match":{"$expr":{"$and":[{"$eq":["$ten",3]},{"$eq":["$two",1]}]}}}]"#,
        )
        .unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        assert!(matches!(phys.source, Source::IndexEq { .. }));
        assert_eq!(phys.stages.len(), 1);
        assert!(matches!(&phys.stages[0], Stage::Match(Some(_))));
    }

    #[test]
    fn range_pair_becomes_index_range() {
        let stages = parse_pipeline(
            r#"[{"$match":{"$expr":{"$and":[{"$gte":["$onePercent",10]},{"$lte":["$onePercent",20]}]}}},{"$count":"count"}]"#,
        )
        .unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        match &phys.source {
            Source::IndexRange { attr, lo, hi } => {
                assert_eq!(attr, "onePercent");
                assert_eq!(lo, &KeyBound::Included(Value::Int(10)));
                assert_eq!(hi, &KeyBound::Included(Value::Int(20)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(phys.stages, vec![Stage::Count("count".into())]);
    }

    #[test]
    fn sort_limit_uses_ordered_index() {
        let stages = parse_pipeline(
            r#"[{"$match":{}},{"$sort":{"unique1":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
        )
        .unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        assert_eq!(
            phys.source,
            Source::IndexOrdered {
                attr: "unique1".into(),
                desc: true,
                limit: Some(5)
            }
        );
        // Sort removed; project and limit remain.
        assert_eq!(phys.stages.len(), 2);
    }

    #[test]
    fn sort_without_limit_stays_blocking() {
        let stages = parse_pipeline(r#"[{"$sort":{"unique1":-1}}]"#).unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        assert_eq!(phys.source, Source::CollScan);
        assert_eq!(phys.stages.len(), 1);
    }

    #[test]
    fn unindexed_field_stays_collscan() {
        let stages =
            parse_pipeline(r#"[{"$match":{"$expr":{"$eq":["$stringu1","AAA"]}}}]"#).unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        assert_eq!(phys.source, Source::CollScan);
    }

    #[test]
    fn unknown_key_eq_is_not_indexable() {
        // SkipNulls indexes cannot answer equality with null.
        let stages = parse_pipeline(r#"[{"$match":{"$expr":{"$eq":["$ten",null]}}}]"#).unwrap();
        let phys = optimize(&stages, &probe_all_complete);
        assert_eq!(phys.source, Source::CollScan);
    }
}
