//! Pipeline splitting for sharded ("mongos"-style) execution.
//!
//! Like mongos, [`split`] cuts a pipeline into the stages every shard
//! runs and the stages the coordinator runs over the shards' concatenated
//! rows ([`apply_stages_to_rows`]):
//!
//! * a streaming pipeline runs whole on every shard and merges with
//!   `$limit k` (the smallest limit in it) or with nothing;
//! * `$count: n` runs on the shards and merges with
//!   `$group {_id: {}, n: {$sum: "$n"}}` + `$project {_id: 0}` (nothing
//!   at all when every shard counted zero, like `$count` itself);
//! * `$sort` runs on the shards (plus the downstream `$limit`, if any)
//!   and merges with the same `$sort` — a bounded top-k when a `$limit`
//!   follows, ties in shard order;
//! * `$group` runs on the shards in [`GroupMode::Partial`] and merges in
//!   [`GroupMode::Final`], keyed on `_id`.
//!
//! Everything after the split point runs on the coordinator. `$lookup` is
//! **rejected** on sharded collections — the MongoDB restriction that kept
//! the paper's expression 12 out of the multi-node runs — and so is
//! `$out`.

use crate::error::{DocError, Result};
use crate::pipeline::exec::{apply_stages, DocIter};
use crate::pipeline::expr::{MongoExpr, Vars};
use crate::pipeline::optimizer::find_downstream_limit;
use crate::pipeline::{split_path, Accum, GroupId, GroupMode, ProjectItem, Stage};
use crate::store::Collections;
use polyframe_datamodel::Value;

/// A pipeline split for sharded execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPipeline {
    /// Stages every shard runs over its own partition.
    pub shard_stages: Vec<Stage>,
    /// Stages the coordinator runs over the shards' rows, concatenated
    /// in shard order.
    pub merge_stages: Vec<Stage>,
}

/// Split a pipeline into its shard and merge stages.
pub fn split(stages: &[Stage]) -> Result<ShardedPipeline> {
    // $lookup anywhere: sharded joins are not supported (paper, IV.F).
    if stages.iter().any(|s| matches!(s, Stage::Lookup { .. })) {
        return Err(DocError::ShardedLookup(
            "pipeline contains $lookup".to_string(),
        ));
    }
    let pair = |shard_stages: Vec<Stage>, merge_stages: Vec<Stage>| {
        Ok(ShardedPipeline {
            shard_stages,
            merge_stages,
        })
    };
    for (i, stage) in stages.iter().enumerate() {
        let post = &stages[i + 1..];
        match stage {
            Stage::Group { id, accs, .. } => {
                let group = |mode| Stage::Group {
                    id: id.clone(),
                    accs: accs.clone(),
                    mode,
                };
                return pair(
                    [&stages[..i], &[group(GroupMode::Partial)]].concat(),
                    [&[group(GroupMode::Final)], post].concat(),
                );
            }
            Stage::Count(name) => {
                let sum = Stage::Group {
                    id: GroupId::Empty,
                    accs: vec![(
                        name.clone(),
                        Accum::Sum(MongoExpr::FieldRef(split_path(name))),
                    )],
                    mode: GroupMode::Complete,
                };
                let drop_id = Stage::Project(vec![ProjectItem::Exclude("_id".to_string())]);
                return pair(stages[..=i].to_vec(), [&[sum, drop_id], post].concat());
            }
            Stage::Sort(_) => {
                let mut shard_stages = stages[..=i].to_vec();
                shard_stages.extend(find_downstream_limit(post).map(Stage::Limit));
                return pair(shard_stages, stages[i..].to_vec());
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
    pair(
        stages.to_vec(),
        limit.map(Stage::Limit).into_iter().collect(),
    )
}

/// Run stages over materialized rows on the coordinator.
pub fn apply_stages_to_rows(rows: Vec<Value>, stages: &[Stage]) -> Result<Vec<Value>> {
    let empty = Collections::default();
    let vars = Vars::new();
    let stream: DocIter<'_> = Box::new(rows.into_iter().map(Ok));
    let rows = apply_stages(&empty, stream, stages, &vars)?.collect();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::exec::run_group;
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
        let split = split(&stages).unwrap();
        assert_eq!(split.shard_stages, stages);
        let merge = parse_pipeline(
            r#"[{"$group":{"_id":{},"count":{"$sum":"$count"}}},{"$project":{"_id":0}}]"#,
        )
        .unwrap();
        assert_eq!(split.merge_stages, merge);
    }

    #[test]
    fn group_splits_to_regroup() {
        let stages = parse_pipeline(
            r#"[{"$match":{}},{"$group":{"_id":{"k":"$k"},"m":{"$max":"$v"}}},{"$project":{"_id":0}}]"#,
        )
        .unwrap();
        let split = split(&stages).unwrap();
        let modes: Vec<GroupMode> = [&split.shard_stages[1], &split.merge_stages[0]]
            .into_iter()
            .map(|s| match s {
                Stage::Group { mode, .. } => *mode,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(modes, vec![GroupMode::Partial, GroupMode::Final]);
        assert_eq!(split.shard_stages.len(), 2);
        assert_eq!(split.merge_stages[1..], stages[2..]);
    }

    #[test]
    fn sort_limit_splits_to_topk() {
        let stages = parse_pipeline(
            r#"[{"$match":{}},{"$sort":{"u":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
        )
        .unwrap();
        let split = split(&stages).unwrap();
        assert_eq!(split.shard_stages[..2], stages[..2]);
        assert!(matches!(split.shard_stages.last(), Some(Stage::Limit(5))));
        assert_eq!(split.merge_stages, stages[1..]);
    }

    #[test]
    fn streaming_merges_with_the_smallest_limit() {
        let stages = parse_pipeline(r#"[{"$limit":9},{"$match":{"a":1}},{"$limit":4}]"#).unwrap();
        let split = split(&stages).unwrap();
        assert_eq!(split.shard_stages, stages);
        assert_eq!(split.merge_stages, vec![Stage::Limit(4)]);
        let plain = parse_pipeline(r#"[{"$match":{"a":1}}]"#).unwrap();
        assert!(super::split(&plain).unwrap().merge_stages.is_empty());
    }

    #[test]
    fn partial_merge_matches_local_group() {
        let docs: Vec<Value> = (0..40i64)
            .map(|i| Value::Obj(record! {"k" => i % 4, "v" => i}))
            .collect();
        let stages = parse_pipeline(
            r#"[{"$group":{"_id":{"k":"$k"},"avg":{"$avg":"$v"},"n":{"$sum":1},"sd":{"$stdDevPop":"$v"}}}]"#,
        )
        .unwrap();
        let Stage::Group { id, accs, .. } = &stages[0] else {
            panic!()
        };
        let group = |docs: Vec<Value>, mode| {
            run_group(
                Box::new(docs.into_iter().map(Ok)),
                id,
                accs,
                mode,
                &Vars::new(),
            )
            .unwrap()
        };
        // Local reference result.
        let local = group(docs.clone(), GroupMode::Complete);
        // Distributed: partial on two shards, final on the coordinator.
        let mut parts = group(docs[..15].to_vec(), GroupMode::Partial);
        parts.extend(group(docs[15..].to_vec(), GroupMode::Partial));
        let merged = group(parts, GroupMode::Final);
        assert_eq!(local.len(), merged.len());
        for (a, b) in local.iter().zip(merged.iter()) {
            assert_eq!(a.get_path("_id"), b.get_path("_id"));
            assert_eq!(a.get_path("n"), b.get_path("n"));
            for acc in ["avg", "sd"] {
                let (x, y) = (
                    a.get_path(acc).as_f64().unwrap(),
                    b.get_path(acc).as_f64().unwrap(),
                );
                assert!((x - y).abs() < 1e-9, "{acc}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn post_stages_apply() {
        let rows = vec![Value::Obj(record! {"_id" => 1i64, "a" => 2i64})];
        let stages = parse_pipeline(r#"[{"$project":{"_id":0}}]"#).unwrap();
        let out = apply_stages_to_rows(rows, &stages).unwrap();
        assert!(out[0].get_path("_id").is_missing());
    }
}
