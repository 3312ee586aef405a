//! Splitting a logical plan into a per-shard plan
//! ([`DistributedQuery::shard_plan`]) plus a coordinator merge step
//! ([`DistributedQuery::merge`]) — the scatter/gather protocol behind the
//! paper's multi-node experiments (Figs. 9 and 10).
//!
//! The decompositions are the classic ones:
//!
//! * scans / filters / projections / limits → run everywhere, concatenate
//!   (a limit is also applied shard-side so no shard ships more than `n`);
//! * scalar aggregates → shard-side partial states
//!   ([`crate::exec::aggregate::Accumulator::to_partial`]), coordinator
//!   merge + finalize;
//! * group-by aggregates → shard-side partial per group, coordinator
//!   re-groups on the key columns and merges;
//! * `ORDER BY ... LIMIT k` → shard-side top-k, coordinator merge-sort and
//!   truncate;
//! * equi-join + count → flagged as [`DistributedQuery::JoinCount`] so the
//!   cluster layer can run its cross-shard index join (or reject it, as
//!   sharded MongoDB does).

use crate::error::{EngineError, Result};
use crate::exec::{aggregate_rows, project_row};
use crate::plan::logical::{AggExpr, AggMode, LogicalPlan, ProjectSpec, Scalar};
use polyframe_datamodel::{Record, SortKey, TopK, Value};

/// A distributed execution strategy for one query.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributedQuery {
    /// Run `shard_plan` on every shard and concatenate the results,
    /// optionally truncating to `limit` rows.
    Concat {
        /// Plan executed on each shard.
        shard_plan: LogicalPlan,
        /// Coordinator-side row cap.
        limit: Option<u64>,
    },
    /// Shards emit partial aggregate states; the coordinator merges,
    /// finalizes and projects.
    ScalarAgg {
        /// Plan executed on each shard (emits partial-state rows).
        shard_plan: LogicalPlan,
        /// The aggregates being computed.
        aggs: Vec<AggExpr>,
        /// Final output shaping.
        project: ProjectSpec,
    },
    /// Group-by version of [`DistributedQuery::ScalarAgg`].
    GroupAgg {
        /// Plan executed on each shard.
        shard_plan: LogicalPlan,
        /// Group-key output names.
        group_names: Vec<String>,
        /// The aggregates being computed.
        aggs: Vec<AggExpr>,
        /// Final output shaping.
        project: ProjectSpec,
    },
    /// Shards return local top-k rows; the coordinator merge-sorts,
    /// truncates and applies any projection.
    TopK {
        /// Plan executed on each shard (already top-k limited).
        shard_plan: LogicalPlan,
        /// Sort keys (evaluated on shard output rows).
        keys: Vec<(Scalar, bool)>,
        /// Final row count.
        limit: u64,
        /// Projection applied after the merge (when the original plan
        /// projected above the sort).
        post_project: Option<ProjectSpec>,
    },
    /// `COUNT(*)` over an equi-join of two stored datasets: the cluster
    /// layer runs a cross-shard index join.
    JoinCount {
        /// Left `(namespace, dataset, attribute)`.
        left: (String, String, String),
        /// Right `(namespace, dataset, attribute)`.
        right: (String, String, String),
        /// Output field name of the count.
        output: String,
        /// Final output shaping.
        project: ProjectSpec,
    },
}

/// Split an optimized logical plan for distributed execution.
pub fn split(plan: &LogicalPlan) -> Result<DistributedQuery> {
    match plan {
        // Project(Aggregate(...)) — the shape the builder produces for all
        // aggregate queries.
        LogicalPlan::Project { input, spec } => match input.as_ref() {
            LogicalPlan::Aggregate {
                input: agg_input,
                group_by,
                aggs,
                mode: AggMode::Complete,
            } => {
                // Join + COUNT(*): delegate to the cluster's join path.
                if group_by.is_empty() && aggs.len() == 1 {
                    if let Some(jc) = join_count(agg_input, &aggs[0], spec) {
                        return Ok(jc);
                    }
                }
                let shard_plan = LogicalPlan::Aggregate {
                    input: agg_input.clone(),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    mode: AggMode::Partial,
                };
                if group_by.is_empty() {
                    Ok(DistributedQuery::ScalarAgg {
                        shard_plan,
                        aggs: aggs.clone(),
                        project: spec.clone(),
                    })
                } else {
                    Ok(DistributedQuery::GroupAgg {
                        shard_plan,
                        group_names: group_by.iter().map(|(n, _)| n.clone()).collect(),
                        aggs: aggs.clone(),
                        project: spec.clone(),
                    })
                }
            }
            // Projection over a streaming pipeline.
            _ => Ok(DistributedQuery::Concat {
                shard_plan: plan.clone(),
                limit: None,
            }),
        },
        LogicalPlan::Limit { input, n } => match input.as_ref() {
            LogicalPlan::Sort {
                input: sort_in,
                keys,
            } => Ok(DistributedQuery::TopK {
                shard_plan: LogicalPlan::Limit {
                    input: Box::new(LogicalPlan::Sort {
                        input: sort_in.clone(),
                        keys: keys.clone(),
                    }),
                    n: *n,
                },
                keys: keys.clone(),
                limit: *n,
                post_project: None,
            }),
            LogicalPlan::Project { input: p_in, spec } => match p_in.as_ref() {
                LogicalPlan::Sort {
                    input: sort_in,
                    keys,
                } => Ok(DistributedQuery::TopK {
                    shard_plan: LogicalPlan::Limit {
                        input: Box::new(LogicalPlan::Sort {
                            input: sort_in.clone(),
                            keys: keys.clone(),
                        }),
                        n: *n,
                    },
                    keys: keys.clone(),
                    limit: *n,
                    post_project: Some(spec.clone()),
                }),
                _ => Ok(DistributedQuery::Concat {
                    shard_plan: plan.clone(),
                    limit: Some(*n),
                }),
            },
            _ => Ok(DistributedQuery::Concat {
                shard_plan: plan.clone(),
                limit: Some(*n),
            }),
        },
        LogicalPlan::Aggregate { .. } | LogicalPlan::Sort { .. } | LogicalPlan::Distinct { .. } => {
            Err(EngineError::plan(
                "cannot distribute this plan shape (unprojected blocking operator)",
            ))
        }
        // Streaming shapes distribute trivially.
        _ => Ok(DistributedQuery::Concat {
            shard_plan: plan.clone(),
            limit: None,
        }),
    }
}

fn join_count(
    input: &LogicalPlan,
    agg: &AggExpr,
    project: &ProjectSpec,
) -> Option<DistributedQuery> {
    use crate::plan::logical::AggArg;
    if !(agg.func == crate::plan::logical::AggFunc::Count && agg.arg == AggArg::Star) {
        return None;
    }
    // Look through row-reshaping projections.
    let mut node = input;
    loop {
        match node {
            LogicalPlan::Project { input, .. } => node = input,
            LogicalPlan::Join {
                left,
                right,
                left_key: Scalar::Field(lk),
                right_key: Scalar::Field(rk),
                ..
            } => {
                if let (
                    LogicalPlan::Scan {
                        namespace: lns,
                        dataset: lds,
                    },
                    LogicalPlan::Scan {
                        namespace: rns,
                        dataset: rds,
                    },
                ) = (left.as_ref(), right.as_ref())
                {
                    return Some(DistributedQuery::JoinCount {
                        left: (lns.clone(), lds.clone(), lk.clone()),
                        right: (rns.clone(), rds.clone(), rk.clone()),
                        output: agg.name.clone(),
                        project: project.clone(),
                    });
                }
                return None;
            }
            _ => return None,
        }
    }
}

impl DistributedQuery {
    /// The plan every shard runs; `None` for
    /// [`DistributedQuery::JoinCount`], whose shard work is the cluster's
    /// repartition join.
    pub fn shard_plan(&self) -> Option<&LogicalPlan> {
        match self {
            DistributedQuery::Concat { shard_plan, .. }
            | DistributedQuery::ScalarAgg { shard_plan, .. }
            | DistributedQuery::GroupAgg { shard_plan, .. }
            | DistributedQuery::TopK { shard_plan, .. } => Some(shard_plan),
            DistributedQuery::JoinCount { .. } => None,
        }
    }

    /// The coordinator's merge of the shards' parts, in shard order:
    ///
    /// * `Concat` concatenates and truncates to the limit;
    /// * `ScalarAgg`/`GroupAgg` merge partial states (re-grouping on the
    ///   key columns), finalize and project;
    /// * `TopK` evaluates every row's keys in shard order (so key errors
    ///   fire as in a full sort) and keeps `limit` rows through the top-k
    ///   kernel, ties in shard order, then applies any projection;
    /// * `JoinCount` sums the partitions' `Int` counts and projects.
    pub fn merge(&self, parts: Vec<Vec<Value>>) -> Result<Vec<Value>> {
        let rows = parts.into_iter().flatten();
        match self {
            DistributedQuery::Concat { limit, .. } => Ok(rows
                .take(limit.map_or(usize::MAX, |n| n as usize))
                .collect()),
            DistributedQuery::ScalarAgg { aggs, project, .. } => {
                merge_aggregates(rows.collect(), &[], aggs, project)
            }
            DistributedQuery::GroupAgg {
                group_names,
                aggs,
                project,
                ..
            } => merge_aggregates(rows.collect(), group_names, aggs, project),
            DistributedQuery::TopK {
                keys,
                limit,
                post_project,
                ..
            } => {
                let mut sorted = TopK::new(Some(*limit as usize));
                for row in rows {
                    let mut kv = Vec::with_capacity(keys.len());
                    for (expr, desc) in keys {
                        kv.push(SortKey::new(crate::exec::eval::eval(expr, &row)?, *desc));
                    }
                    sorted.push(kv, row);
                }
                sorted
                    .into_sorted_items()
                    .into_iter()
                    .map(|row| match post_project {
                        Some(spec) => project_row(spec, &row),
                        None => Ok(row),
                    })
                    .collect()
            }
            DistributedQuery::JoinCount {
                output, project, ..
            } => {
                let count: i64 = rows.filter_map(|v| v.as_i64()).sum();
                let mut rec = Record::new();
                rec.insert(output.clone(), Value::Int(count));
                Ok(vec![project_row(project, &Value::Obj(rec))?])
            }
        }
    }
}

/// Merge partial-state rows re-grouped on `group_names`, finalize and
/// project.
fn merge_aggregates(
    rows: Vec<Value>,
    group_names: &[String],
    aggs: &[AggExpr],
    project: &ProjectSpec,
) -> Result<Vec<Value>> {
    let group_by: Vec<(String, Scalar)> = group_names
        .iter()
        .map(|n| (n.clone(), Scalar::Field(n.clone())))
        .collect();
    let merged = aggregate_rows(rows, &group_by, aggs, AggMode::Final)?;
    merged.iter().map(|row| project_row(project, row)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;
    use crate::parser::parse;
    use crate::plan::builder::build_logical;
    use crate::plan::optimizer::optimize;

    fn split_q(q: &str, dialect: Dialect) -> DistributedQuery {
        let stmt = parse(q, dialect).unwrap();
        let plan = optimize(build_logical(&stmt, "Default").unwrap(), 4);
        split(&plan).unwrap()
    }

    #[test]
    fn count_splits_to_scalar_agg() {
        let d = split_q("SELECT VALUE COUNT(*) FROM data", Dialect::SqlPlusPlus);
        match d {
            DistributedQuery::ScalarAgg { shard_plan, .. } => {
                assert!(shard_plan.display().contains("Aggregate[Partial]"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_splits_to_group_agg() {
        let d = split_q(
            "SELECT twenty, MAX(four) AS max_four FROM (SELECT * FROM data) t GROUP BY twenty",
            Dialect::Sql,
        );
        match d {
            DistributedQuery::GroupAgg { group_names, .. } => {
                assert_eq!(group_names, vec!["twenty".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sort_limit_splits_to_topk() {
        let d = split_q(
            "SELECT * FROM (SELECT * FROM data) t ORDER BY unique1 DESC LIMIT 5",
            Dialect::Sql,
        );
        match d {
            DistributedQuery::TopK { limit, keys, .. } => {
                assert_eq!(limit, 5);
                assert!(keys[0].1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipeline_splits_to_concat_with_limit() {
        let d = split_q(
            "SELECT two, four FROM (SELECT * FROM data) t LIMIT 5",
            Dialect::Sql,
        );
        match d {
            DistributedQuery::Concat { limit, .. } => assert_eq!(limit, Some(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn join_count_detected() {
        let d = split_q(
            "SELECT VALUE COUNT(*) FROM (SELECT l, r FROM leftData l JOIN rightData r ON l.unique1 = r.unique1) t",
            Dialect::SqlPlusPlus,
        );
        match d {
            DistributedQuery::JoinCount { left, right, .. } => {
                assert_eq!(left.1, "leftData");
                assert_eq!(right.2, "unique1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_concat_truncates() {
        let d = split_q(
            "SELECT two, four FROM (SELECT * FROM data) t LIMIT 2",
            Dialect::Sql,
        );
        let parts = vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]];
        assert_eq!(d.merge(parts).unwrap(), vec![Value::Int(1), Value::Int(2)]);
    }
}
