//! Pipeline splitting for sharded ("mongos"-style) execution.
//!
//! Shards execute a prefix of the pipeline locally; the coordinator merges.
//! `$group` is decomposed into shard-side partial accumulation plus a
//! coordinator merge (the standard mongos merge protocol), `$sort`+`$limit`
//! becomes local top-k plus a merge sort, and `$count` sums per-shard
//! counts. `$lookup` is **rejected** on sharded collections — the MongoDB
//! restriction that kept the paper's expression 12 out of the multi-node
//! runs.

use crate::error::{DocError, Result};
use crate::pipeline::exec::{apply_stages, sort_docs, DocIter, GroupAcc, OrdKey};
use crate::pipeline::expr::{self, Vars};
use crate::pipeline::{Accum, GroupId, Stage};
use polyframe_datamodel::{Record, Value};
use polyframe_storage::Table;
use std::collections::{BTreeMap, HashMap};

/// A distributed execution strategy for one pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MongoDistributed {
    /// Run `shard_stages` everywhere, concatenate, optionally truncate.
    Concat {
        /// Stages executed on each shard.
        shard_stages: Vec<Stage>,
        /// Coordinator-side row cap.
        limit: Option<u64>,
    },
    /// Shards run the prefix + `$count`; the coordinator sums the counts
    /// (emitting nothing when the total is zero, like `$count` itself).
    SumCount {
        /// Stages executed on each shard (ending in `$count`).
        shard_stages: Vec<Stage>,
        /// Count field name.
        name: String,
        /// Stages applied to the merged result.
        post: Vec<Stage>,
    },
    /// Shards run the prefix and group locally into partial states; the
    /// coordinator merges groups and applies the remaining stages.
    Regroup {
        /// Stages executed on each shard (up to, excluding, the `$group`).
        shard_stages: Vec<Stage>,
        /// Group key specification.
        id: GroupId,
        /// Accumulators.
        accs: Vec<(String, Accum)>,
        /// Stages applied after the merged `$group` output.
        post: Vec<Stage>,
    },
    /// Shards run a bounded top-k locally; the coordinator re-runs it
    /// over their rows and applies the remaining stages.
    TopK {
        /// Stages executed on each shard (prefix + sort + limit).
        shard_stages: Vec<Stage>,
        /// Sort specification.
        sort: Vec<(String, bool)>,
        /// Row budget (None: plain merge sort).
        limit: Option<u64>,
        /// Stages applied after the merge.
        post: Vec<Stage>,
    },
}

/// Split a pipeline for sharded execution.
pub fn split(stages: &[Stage]) -> Result<MongoDistributed> {
    // $lookup anywhere: sharded joins are not supported (paper, IV.F).
    if stages.iter().any(|s| matches!(s, Stage::Lookup { .. })) {
        return Err(DocError::ShardedLookup(
            "pipeline contains $lookup".to_string(),
        ));
    }
    for (i, stage) in stages.iter().enumerate() {
        match stage {
            Stage::Group { id, accs } => {
                return Ok(MongoDistributed::Regroup {
                    shard_stages: stages[..i].to_vec(),
                    id: id.clone(),
                    accs: accs.clone(),
                    post: stages[i + 1..].to_vec(),
                });
            }
            Stage::Count(name) => {
                return Ok(MongoDistributed::SumCount {
                    shard_stages: stages[..=i].to_vec(),
                    name: name.clone(),
                    post: stages[i + 1..].to_vec(),
                });
            }
            Stage::Sort(keys) => {
                // Find a downstream limit through count-preserving stages.
                let mut limit = None;
                for s in &stages[i + 1..] {
                    match s {
                        Stage::Limit(n) => {
                            limit = Some(*n);
                            break;
                        }
                        Stage::Project(_) | Stage::AddFields(_) => continue,
                        _ => break,
                    }
                }
                let mut shard_stages = stages[..=i].to_vec();
                if let Some(n) = limit {
                    shard_stages.push(Stage::Limit(n));
                }
                return Ok(MongoDistributed::TopK {
                    shard_stages,
                    sort: keys.clone(),
                    limit,
                    post: stages[i + 1..].to_vec(),
                });
            }
            Stage::Out(_) => {
                return Err(DocError::Pipeline(
                    "$out is not supported on sharded pipelines".to_string(),
                ))
            }
            _ => {}
        }
    }
    // Pure streaming pipeline.
    let limit = stages
        .iter()
        .filter_map(|s| match s {
            Stage::Limit(n) => Some(*n),
            _ => None,
        })
        .min();
    Ok(MongoDistributed::Concat {
        shard_stages: stages.to_vec(),
        limit,
    })
}

/// Shard-side partial grouping: group `rows` and emit per-group partial
/// states (`{_id, <acc>: <partial doc>}`).
pub fn partial_group(
    rows: Vec<Value>,
    id: &GroupId,
    accs: &[(String, Accum)],
) -> Result<Vec<Value>> {
    let fresh = || -> Vec<GroupAcc> { accs.iter().map(|(_, a)| GroupAcc::new(a)).collect() };
    let vars = Vars::new();
    let mut groups: BTreeMap<OrdKey, Vec<GroupAcc>> = BTreeMap::new();
    for doc in rows {
        let key = group_key(&doc, id, &vars)?;
        let slot = groups.entry(key).or_insert_with(fresh);
        for ((_, spec), acc) in accs.iter().zip(slot.iter_mut()) {
            let arg = accum_arg(spec, &doc, &vars)?;
            acc.update(&arg);
        }
    }
    Ok(groups
        .iter()
        .map(|(key, slot)| {
            let mut rec = Record::new();
            rec.insert("_id", id_value(id, key));
            for ((name, _), acc) in accs.iter().zip(slot.iter()) {
                rec.insert(name.clone(), acc.to_partial());
            }
            Value::Obj(rec)
        })
        .collect())
}

/// Coordinator-side merge of shard partial groups into final `$group`
/// output documents.
pub fn merge_groups(parts: Vec<Vec<Value>>, accs: &[(String, Accum)]) -> Result<Vec<Value>> {
    let fresh = || -> Vec<GroupAcc> { accs.iter().map(|(_, a)| GroupAcc::new(a)).collect() };
    let mut groups: BTreeMap<OrdKey, (Value, Vec<GroupAcc>)> = BTreeMap::new();
    for doc in parts.into_iter().flatten() {
        let id_val = doc.get_path("_id");
        let key = OrdKey(vec![id_val.clone()]);
        let slot = groups.entry(key).or_insert_with(|| (id_val, fresh()));
        for ((name, _), acc) in accs.iter().zip(slot.1.iter_mut()) {
            acc.merge_partial(&doc.get_path(name));
        }
    }
    Ok(groups
        .values()
        .map(|(id_val, slot)| {
            let mut rec = Record::new();
            rec.insert("_id", id_val.clone());
            for ((name, _), acc) in accs.iter().zip(slot.iter()) {
                rec.insert(name.clone(), acc.finalize());
            }
            Value::Obj(rec)
        })
        .collect())
}

/// Coordinator-side merge for [`MongoDistributed::SumCount`].
pub fn merge_counts(parts: Vec<Vec<Value>>, name: &str) -> Vec<Value> {
    let total: i64 = parts
        .into_iter()
        .flatten()
        .map(|d| d.get_path(name).as_i64().unwrap_or(0))
        .sum();
    if total == 0 {
        Vec::new()
    } else {
        let mut rec = Record::new();
        rec.insert(name.to_string(), Value::Int(total));
        vec![Value::Obj(rec)]
    }
}

/// Coordinator-side merge for [`MongoDistributed::TopK`]: the shards'
/// rows through the top-k kernel, ties in shard order.
pub fn merge_topk(
    parts: Vec<Vec<Value>>,
    sort: &[(String, bool)],
    limit: Option<u64>,
) -> Vec<Value> {
    sort_docs(parts.into_iter().flatten(), sort, limit)
}

/// Apply post-merge stages to materialized rows on the coordinator.
pub fn apply_stages_to_rows(rows: Vec<Value>, stages: &[Stage]) -> Result<Vec<Value>> {
    let empty: HashMap<String, Table> = HashMap::new();
    let vars = Vars::new();
    let stream: DocIter<'_> = Box::new(rows.into_iter().map(Ok));
    let rows = apply_stages(&empty, stream, stages, &vars)?.collect();
    rows
}

/// Evaluate an accumulator's argument expression against a document.
fn accum_arg(spec: &Accum, doc: &Value, vars: &Vars) -> Result<Value> {
    match spec {
        Accum::Sum(e)
        | Accum::Min(e)
        | Accum::Max(e)
        | Accum::Avg(e)
        | Accum::StdDevPop(e)
        | Accum::Count(e) => expr::eval(e, doc, vars),
    }
}

fn group_key(doc: &Value, id: &GroupId, vars: &Vars) -> Result<OrdKey> {
    match id {
        GroupId::Empty => Ok(OrdKey(vec![])),
        GroupId::Keys(keys) => {
            let mut kv = Vec::with_capacity(keys.len());
            for (_, e) in keys {
                kv.push(expr::eval(e, doc, vars)?);
            }
            Ok(OrdKey(kv))
        }
    }
}

fn id_value(id: &GroupId, key: &OrdKey) -> Value {
    match id {
        GroupId::Empty => Value::Obj(Record::new()),
        GroupId::Keys(keys) => {
            let mut rec = Record::with_capacity(keys.len());
            for ((name, _), v) in keys.iter().zip(key.0.iter()) {
                rec.insert(name.clone(), v.clone());
            }
            Value::Obj(rec)
        }
    }
}

// `run_group` is re-exported for parity checks in tests.
pub use crate::pipeline::exec::run_group as run_group_local;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::parse_pipeline;
    use polyframe_datamodel::record;

    #[test]
    fn lookup_is_rejected() {
        let stages =
            parse_pipeline(r#"[{"$lookup":{"from":"x","as":"x","pipeline":[]}},{"$count":"c"}]"#)
                .unwrap();
        assert!(matches!(split(&stages), Err(DocError::ShardedLookup(_))));
    }

    #[test]
    fn count_splits() {
        let stages = parse_pipeline(r#"[{"$match":{}},{"$count":"count"}]"#).unwrap();
        match split(&stages).unwrap() {
            MongoDistributed::SumCount {
                shard_stages, name, ..
            } => {
                assert_eq!(shard_stages.len(), 2);
                assert_eq!(name, "count");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_splits_to_regroup() {
        let stages = parse_pipeline(
            r#"[{"$match":{}},{"$group":{"_id":{"k":"$k"},"m":{"$max":"$v"}}},{"$project":{"_id":0}}]"#,
        )
        .unwrap();
        match split(&stages).unwrap() {
            MongoDistributed::Regroup {
                shard_stages, post, ..
            } => {
                assert_eq!(shard_stages.len(), 1);
                assert_eq!(post.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sort_limit_splits_to_topk() {
        let stages = parse_pipeline(
            r#"[{"$match":{}},{"$sort":{"u":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
        )
        .unwrap();
        match split(&stages).unwrap() {
            MongoDistributed::TopK {
                shard_stages,
                limit,
                ..
            } => {
                assert_eq!(limit, Some(5));
                assert!(matches!(shard_stages.last(), Some(Stage::Limit(5))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partial_merge_matches_local_group() {
        let docs: Vec<Value> = (0..40i64)
            .map(|i| Value::Obj(record! {"k" => i % 4, "v" => i}))
            .collect();
        let stages =
            parse_pipeline(r#"[{"$group":{"_id":{"k":"$k"},"avg":{"$avg":"$v"},"n":{"$sum":1}}}]"#)
                .unwrap();
        let Stage::Group { id, accs } = &stages[0] else {
            panic!()
        };
        // Local reference result.
        let local = run_group_local(
            Box::new(docs.clone().into_iter().map(Ok)),
            id,
            accs,
            &Vars::new(),
        )
        .unwrap();
        // Distributed: two shards.
        let p1 = partial_group(docs[..15].to_vec(), id, accs).unwrap();
        let p2 = partial_group(docs[15..].to_vec(), id, accs).unwrap();
        let merged = merge_groups(vec![p1, p2], accs).unwrap();
        assert_eq!(local.len(), merged.len());
        for (a, b) in local.iter().zip(merged.iter()) {
            assert_eq!(a.get_path("_id"), b.get_path("_id"));
            assert_eq!(a.get_path("n"), b.get_path("n"));
            let (x, y) = (
                a.get_path("avg").as_f64().unwrap(),
                b.get_path("avg").as_f64().unwrap(),
            );
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_counts_zero_emits_nothing() {
        assert!(merge_counts(vec![vec![], vec![]], "c").is_empty());
        let parts = vec![
            vec![Value::Obj(record! {"c" => 3i64})],
            vec![Value::Obj(record! {"c" => 4i64})],
        ];
        let merged = merge_counts(parts, "c");
        assert_eq!(merged[0].get_path("c"), Value::Int(7));
    }

    #[test]
    fn merge_topk_resorts() {
        let parts = vec![
            vec![
                Value::Obj(record! {"u" => 9i64}),
                Value::Obj(record! {"u" => 3i64}),
            ],
            vec![
                Value::Obj(record! {"u" => 7i64}),
                Value::Obj(record! {"u" => 5i64}),
            ],
        ];
        let merged = merge_topk(parts, &[("u".to_string(), true)], Some(3));
        let us: Vec<i64> = merged
            .iter()
            .map(|d| d.get_path("u").as_i64().unwrap())
            .collect();
        assert_eq!(us, vec![9, 7, 5]);
    }

    #[test]
    fn post_stages_apply() {
        let rows = vec![Value::Obj(record! {"_id" => 1i64, "a" => 2i64})];
        let stages = parse_pipeline(r#"[{"$project":{"_id":0}}]"#).unwrap();
        let out = apply_stages_to_rows(rows, &stages).unwrap();
        assert!(out[0].get_path("_id").is_missing());
    }
}
