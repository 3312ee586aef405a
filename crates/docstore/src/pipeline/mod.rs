//! Aggregation-pipeline AST and JSON parsing.

pub mod exec;
pub mod expr;
pub mod optimizer;

use crate::error::{DocError, Result};
use expr::MongoExpr;
use polyframe_datamodel::{parse_json, Value};

/// `$group` `_id` specification.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupId {
    /// `"_id": {}` — one group for the whole input.
    Empty,
    /// `"_id": {"k": "$k", ...}` — grouped by key document.
    Keys(Vec<(String, MongoExpr)>),
}

/// `$group` accumulators.
#[derive(Debug, Clone, PartialEq)]
pub enum Accum {
    /// `{"$sum": 1}` or `{"$sum": "$f"}`
    Sum(MongoExpr),
    /// `{"$min": "$f"}`
    Min(MongoExpr),
    /// `{"$max": "$f"}`
    Max(MongoExpr),
    /// `{"$avg": "$f"}`
    Avg(MongoExpr),
    /// `{"$stdDevPop": "$f"}`
    StdDevPop(MongoExpr),
    /// `{"$count": "$f"}` — counts documents where the value is present.
    Count(MongoExpr),
}

impl Accum {
    /// The argument expression evaluated against each document.
    pub fn arg(&self) -> &MongoExpr {
        match self {
            Accum::Sum(e)
            | Accum::Min(e)
            | Accum::Max(e)
            | Accum::Avg(e)
            | Accum::StdDevPop(e)
            | Accum::Count(e) => e,
        }
    }
}

/// How a `$group` stage folds its input, mirroring the SQL engine's
/// aggregate modes: a sharded `$group` runs `Partial` on every shard and
/// `Final` on the coordinator, and the pair equals `Complete`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupMode {
    /// Group documents by `_id` and emit final values (a parsed stage).
    Complete,
    /// Group documents by `_id` and emit each accumulator's partial state.
    Partial,
    /// Key on each input document's `_id` value and fold the partial
    /// states under every accumulator's name into final values.
    Final,
}

/// One `$project` entry (order preserved).
#[derive(Debug, Clone, PartialEq)]
pub enum ProjectItem {
    /// `"f": 1`
    Include(String),
    /// `"f": 0` (only `_id` exclusion is meaningful in this subset)
    Exclude(String),
    /// `"alias": {expr}`
    Computed(String, MongoExpr),
}

/// A pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// `{"$match": {}}` (None) or a predicate.
    Match(Option<MongoExpr>),
    /// `{"$project": {...}}`
    Project(Vec<ProjectItem>),
    /// `{"$addFields": {...}}`
    AddFields(Vec<(String, MongoExpr)>),
    /// `{"$group": {"_id": ..., ...accs}}`
    Group {
        /// Group key specification.
        id: GroupId,
        /// Output accumulators `(name, accumulator)`.
        accs: Vec<(String, Accum)>,
        /// How the stage folds its input ([`GroupMode::Complete`] when
        /// parsed).
        mode: GroupMode,
    },
    /// `{"$sort": {"f": 1 | -1}}`
    Sort(Vec<(String, bool)>),
    /// `{"$limit": n}`
    Limit(u64),
    /// `{"$count": "name"}` — NB: emits zero documents on empty input,
    /// exactly like MongoDB.
    Count(String),
    /// `{"$lookup": {...}}` with `let` + sub-pipeline.
    Lookup {
        /// Source collection of the inner side.
        from: String,
        /// Output array field.
        as_field: String,
        /// `let` variable bindings (evaluated per outer document).
        let_vars: Vec<(String, MongoExpr)>,
        /// Inner pipeline (may reference `$$var`).
        pipeline: Vec<Stage>,
    },
    /// `{"$unwind": {"path": "$f", "preserveNullAndEmptyArrays": bool}}`
    Unwind {
        /// Array field path (without the `$`).
        path: String,
        /// Keep documents whose array is empty/missing.
        preserve_empty: bool,
    },
    /// `{"$out": "collection"}`
    Out(String),
}

/// Parse a JSON pipeline text (`[stage, stage, ...]`).
pub fn parse_pipeline(text: &str) -> Result<Vec<Stage>> {
    let v = parse_json(text).map_err(|e| DocError::Pipeline(e.to_string()))?;
    let arr = v
        .as_array()
        .ok_or_else(|| DocError::Pipeline("pipeline must be a JSON array".to_string()))?;
    arr.iter().map(parse_stage).collect()
}

/// Parse one stage document.
pub fn parse_stage(v: &Value) -> Result<Stage> {
    let obj = v
        .as_obj()
        .ok_or_else(|| DocError::Pipeline("stage must be an object".to_string()))?;
    if obj.len() != 1 {
        return Err(DocError::Pipeline(
            "stage must have exactly one operator".to_string(),
        ));
    }
    let (op, body) = obj.iter().next().unwrap();
    match op {
        "$match" => {
            let m = body
                .as_obj()
                .ok_or_else(|| DocError::Pipeline("$match takes an object".to_string()))?;
            if m.is_empty() {
                return Ok(Stage::Match(None));
            }
            // `$expr` or direct field equality; multiple fields AND together.
            let mut conjuncts = Vec::new();
            for (k, val) in m.iter() {
                if k == "$expr" {
                    conjuncts.push(expr::parse_expr(val)?);
                } else {
                    conjuncts.push(MongoExpr::Cmp(
                        expr::CmpOp::Eq,
                        Box::new(MongoExpr::FieldRef(split_path(k))),
                        Box::new(MongoExpr::Lit(val.clone())),
                    ));
                }
            }
            let pred = conjuncts
                .into_iter()
                .reduce(|a, b| MongoExpr::And(vec![a, b]))
                .unwrap();
            Ok(Stage::Match(Some(pred)))
        }
        "$project" => {
            let m = body
                .as_obj()
                .ok_or_else(|| DocError::Pipeline("$project takes an object".to_string()))?;
            let mut items = Vec::new();
            for (k, val) in m.iter() {
                match val {
                    Value::Int(1) | Value::Bool(true) => {
                        items.push(ProjectItem::Include(k.to_string()))
                    }
                    Value::Int(0) | Value::Bool(false) => {
                        items.push(ProjectItem::Exclude(k.to_string()))
                    }
                    other => items.push(ProjectItem::Computed(
                        k.to_string(),
                        expr::parse_expr(other)?,
                    )),
                }
            }
            Ok(Stage::Project(items))
        }
        "$addFields" | "$set" => {
            let m = body
                .as_obj()
                .ok_or_else(|| DocError::Pipeline("$addFields takes an object".to_string()))?;
            let mut fields = Vec::new();
            for (k, val) in m.iter() {
                fields.push((k.to_string(), expr::parse_expr(val)?));
            }
            Ok(Stage::AddFields(fields))
        }
        "$group" => {
            let m = body
                .as_obj()
                .ok_or_else(|| DocError::Pipeline("$group takes an object".to_string()))?;
            let id_val = m
                .get("_id")
                .ok_or_else(|| DocError::Pipeline("$group requires _id".to_string()))?;
            let id = match id_val {
                Value::Obj(keys) if keys.is_empty() => GroupId::Empty,
                Value::Null => GroupId::Empty,
                Value::Obj(keys) => {
                    let mut out = Vec::new();
                    for (k, v) in keys.iter() {
                        out.push((k.to_string(), expr::parse_expr(v)?));
                    }
                    GroupId::Keys(out)
                }
                other => {
                    return Err(DocError::Pipeline(format!(
                        "unsupported $group _id: {other}"
                    )))
                }
            };
            let mut accs = Vec::new();
            for (k, v) in m.iter() {
                if k == "_id" {
                    continue;
                }
                accs.push((k.to_string(), parse_accum(v)?));
            }
            Ok(Stage::Group {
                id,
                accs,
                mode: GroupMode::Complete,
            })
        }
        "$sort" => {
            let m = body
                .as_obj()
                .ok_or_else(|| DocError::Pipeline("$sort takes an object".to_string()))?;
            let mut keys = Vec::new();
            for (k, v) in m.iter() {
                match v.as_i64() {
                    Some(1) => keys.push((k.to_string(), false)),
                    Some(-1) => keys.push((k.to_string(), true)),
                    _ => {
                        return Err(DocError::Pipeline(
                            "$sort directions must be 1 or -1".to_string(),
                        ))
                    }
                }
            }
            Ok(Stage::Sort(keys))
        }
        "$limit" => match body.as_i64() {
            Some(n) if n >= 0 => Ok(Stage::Limit(n as u64)),
            _ => Err(DocError::Pipeline(
                "$limit takes a non-negative integer".to_string(),
            )),
        },
        "$count" => match body.as_str() {
            Some(name) => Ok(Stage::Count(name.to_string())),
            None => Err(DocError::Pipeline("$count takes a field name".to_string())),
        },
        "$lookup" => {
            let m = body
                .as_obj()
                .ok_or_else(|| DocError::Pipeline("$lookup takes an object".to_string()))?;
            let from = m
                .get("from")
                .and_then(Value::as_str)
                .ok_or_else(|| DocError::Pipeline("$lookup requires from".to_string()))?
                .to_string();
            let as_field = m
                .get("as")
                .and_then(Value::as_str)
                .ok_or_else(|| DocError::Pipeline("$lookup requires as".to_string()))?
                .to_string();
            let mut let_vars = Vec::new();
            if let Some(Value::Obj(lets)) = m.get("let") {
                for (k, v) in lets.iter() {
                    let_vars.push((k.to_string(), expr::parse_expr(v)?));
                }
            }
            let pipeline = match m.get("pipeline") {
                Some(Value::Array(stages)) => {
                    stages.iter().map(parse_stage).collect::<Result<Vec<_>>>()?
                }
                _ => Vec::new(),
            };
            Ok(Stage::Lookup {
                from,
                as_field,
                let_vars,
                pipeline,
            })
        }
        "$unwind" => match body {
            Value::Str(path) => Ok(Stage::Unwind {
                path: strip_dollar(path)?,
                preserve_empty: false,
            }),
            Value::Obj(m) => {
                let path = m
                    .get("path")
                    .and_then(Value::as_str)
                    .ok_or_else(|| DocError::Pipeline("$unwind requires path".to_string()))?;
                let preserve = m
                    .get("preserveNullAndEmptyArrays")
                    .and_then(Value::as_bool)
                    .unwrap_or(false);
                Ok(Stage::Unwind {
                    path: strip_dollar(path)?,
                    preserve_empty: preserve,
                })
            }
            _ => Err(DocError::Pipeline("bad $unwind".to_string())),
        },
        "$out" => match body.as_str() {
            Some(name) => Ok(Stage::Out(name.to_string())),
            None => Err(DocError::Pipeline(
                "$out takes a collection name".to_string(),
            )),
        },
        other => Err(DocError::Pipeline(format!("unsupported stage {other}"))),
    }
}

fn parse_accum(v: &Value) -> Result<Accum> {
    let obj = v
        .as_obj()
        .ok_or_else(|| DocError::Pipeline("accumulator must be an object".to_string()))?;
    if obj.len() != 1 {
        return Err(DocError::Pipeline(
            "accumulator must have one operator".to_string(),
        ));
    }
    let (op, body) = obj.iter().next().unwrap();
    let e = expr::parse_expr(body)?;
    match op {
        "$sum" => Ok(Accum::Sum(e)),
        "$min" => Ok(Accum::Min(e)),
        "$max" => Ok(Accum::Max(e)),
        "$avg" => Ok(Accum::Avg(e)),
        "$stdDevPop" => Ok(Accum::StdDevPop(e)),
        "$count" => Ok(Accum::Count(e)),
        other => Err(DocError::Pipeline(format!(
            "unsupported accumulator {other}"
        ))),
    }
}

pub(crate) fn split_path(s: &str) -> Vec<String> {
    s.split('.').map(str::to_string).collect()
}

fn strip_dollar(s: &str) -> Result<String> {
    s.strip_prefix('$')
        .map(str::to_string)
        .ok_or_else(|| DocError::Pipeline(format!("expected $-prefixed path, got {s}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use expr::CmpOp;

    #[test]
    fn parses_the_papers_figure4_pipeline() {
        let stages = parse_pipeline(
            r#"[
                {"$match":{}},
                {"$match":{"$expr":{"$eq":["$lang","en"]}}},
                {"$project":{"name": 1, "address": 1}},
                {"$project":{"_id": 0}},
                {"$limit":10}
            ]"#,
        )
        .unwrap();
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0], Stage::Match(None));
        assert!(matches!(
            &stages[1],
            Stage::Match(Some(MongoExpr::Cmp(CmpOp::Eq, _, _)))
        ));
        assert_eq!(
            stages[2],
            Stage::Project(vec![
                ProjectItem::Include("name".into()),
                ProjectItem::Include("address".into())
            ])
        );
        assert_eq!(
            stages[3],
            Stage::Project(vec![ProjectItem::Exclude("_id".into())])
        );
        assert_eq!(stages[4], Stage::Limit(10));
    }

    #[test]
    fn parses_group_with_keys() {
        let stages = parse_pipeline(
            r#"[
                {"$group": {"_id": {"twenty": "$twenty"}, "max": {"$max": "$four"}}},
                {"$addFields": {"twenty": "$_id.twenty"}},
                {"$project": {"_id": 0}}
            ]"#,
        )
        .unwrap();
        match &stages[0] {
            Stage::Group { id, accs, .. } => {
                assert!(matches!(id, GroupId::Keys(k) if k.len() == 1));
                assert!(matches!(&accs[0].1, Accum::Max(_)));
            }
            _ => panic!(),
        }
        match &stages[1] {
            Stage::AddFields(fields) => {
                assert_eq!(fields[0].0, "twenty");
                assert_eq!(
                    fields[0].1,
                    MongoExpr::FieldRef(vec!["_id".into(), "twenty".into()])
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_lookup_unwind_count() {
        let stages = parse_pipeline(
            r#"[
                {"$lookup":{"from":"collection2","as":"collection2",
                    "let":{"left":"$unique1"},
                    "pipeline": [{"$match":{}},
                        {"$match":{"$expr":{"$eq":["$unique1","$$left"]}}}]}},
                {"$unwind":{"path":"$collection2","preserveNullAndEmptyArrays":false}},
                {"$count":"count"}
            ]"#,
        )
        .unwrap();
        match &stages[0] {
            Stage::Lookup {
                from,
                as_field,
                let_vars,
                pipeline,
            } => {
                assert_eq!(from, "collection2");
                assert_eq!(as_field, "collection2");
                assert_eq!(let_vars[0].0, "left");
                assert_eq!(pipeline.len(), 2);
            }
            _ => panic!(),
        }
        assert_eq!(
            stages[1],
            Stage::Unwind {
                path: "collection2".into(),
                preserve_empty: false
            }
        );
        assert_eq!(stages[2], Stage::Count("count".into()));
    }

    #[test]
    fn sort_directions() {
        let stages = parse_pipeline(r#"[{"$sort": {"unique1": -1}}, {"$limit": 5}]"#).unwrap();
        assert_eq!(stages[0], Stage::Sort(vec![("unique1".into(), true)]));
    }

    #[test]
    fn errors() {
        assert!(parse_pipeline("{}").is_err());
        assert!(parse_pipeline(r#"[{"$bogus": 1}]"#).is_err());
        assert!(parse_pipeline(r#"[{"$sort": {"a": 2}}]"#).is_err());
        assert!(parse_pipeline(r#"[{"$group": {"x": {"$sum": 1}}}]"#).is_err());
        assert!(parse_pipeline(r#"[{"$limit": -1}]"#).is_err());
    }

    #[test]
    fn direct_equality_match() {
        let stages = parse_pipeline(r#"[{"$match": {"lang": "en"}}]"#).unwrap();
        assert!(matches!(
            &stages[0],
            Stage::Match(Some(MongoExpr::Cmp(CmpOp::Eq, _, _)))
        ));
    }
}
