//! Splitting a logical plan into a per-shard plan plus a coordinator merge
//! step — the scatter/gather protocol behind the paper's multi-node
//! experiments (Figs. 9 and 10).
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
use polyframe_datamodel::{SortKey, TopK, Value};

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

/// Coordinator merge for [`DistributedQuery::ScalarAgg`] /
/// [`DistributedQuery::GroupAgg`].
pub fn merge_aggregate_parts(
    parts: Vec<Vec<Value>>,
    group_names: &[String],
    aggs: &[AggExpr],
    project: &ProjectSpec,
) -> Result<Vec<Value>> {
    let all: Vec<Value> = parts.into_iter().flatten().collect();
    let group_by: Vec<(String, Scalar)> = group_names
        .iter()
        .map(|n| (n.clone(), Scalar::Field(n.clone())))
        .collect();
    let merged = aggregate_rows(all, &group_by, aggs, AggMode::Final)?;
    merged.iter().map(|row| project_row(project, row)).collect()
}

/// Coordinator merge for [`DistributedQuery::TopK`]. Every shard row's
/// keys are evaluated (in shard order, so key errors fire as in a full
/// sort); the top-k kernel keeps `limit` rows, ties in shard order.
pub fn merge_topk(
    parts: Vec<Vec<Value>>,
    keys: &[(Scalar, bool)],
    limit: u64,
    post_project: Option<&ProjectSpec>,
) -> Result<Vec<Value>> {
    let mut sorted = TopK::new(Some(limit as usize));
    for row in parts.into_iter().flatten() {
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

/// Coordinator merge for [`DistributedQuery::Concat`].
pub fn merge_concat(parts: Vec<Vec<Value>>, limit: Option<u64>) -> Vec<Value> {
    let mut rows: Vec<Value> = parts.into_iter().flatten().collect();
    if let Some(n) = limit {
        rows.truncate(n as usize);
    }
    rows
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
        let parts = vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]];
        assert_eq!(merge_concat(parts, Some(2)).len(), 2);
    }
}
