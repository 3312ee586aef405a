//! Physical planning: logical plan + catalog + personality → executable plan.
//!
//! This is where the paper's per-system observations are decided:
//!
//! * expr 1 — `PrimaryIndexCount` (AsterixDB) vs seq-scan count (PostgreSQL),
//! * exprs 3/10/11 — `IndexScan` with residual filters,
//! * exprs 6/7 — `IndexMinMax` when `index_only_scans` is set (PostgreSQL 12),
//! * expr 9 — `IndexOrderedScan` when `backward_index_scans` is set,
//! * expr 13 — unknown-key index paths when `nulls_in_indexes` is set,
//! * expr 12 — `IndexOnlyJoinCount` when `index_only_join` is set (AsterixDB),
//!   otherwise `IndexNLJoin`/`HashJoin`.

use crate::ast::{BinOp, IsKind, JoinKind};
use crate::engine::Database;
use crate::error::Result;
use crate::personality::Personality;
use crate::plan::cost::{op_parts, CostModel, PlanDecision};
use crate::plan::logical::{AggArg, AggExpr, AggFunc, AggMode, LogicalPlan, ProjectSpec, Scalar};
use crate::plan::stats::StatsCatalog;
use polyframe_datamodel::Value;
use polyframe_observe::explain::PlanAlternative;
use polyframe_storage::{Direction, KeyBound, ScanRange};
use std::cell::RefCell;
use std::sync::Arc;

/// Options steering physical planning.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// The system personality (feature flags).
    pub personality: Personality,
    /// Statistics snapshot for cost-based choice among legal plans.
    /// `None` falls back to the deterministic shape rule. Statistics never
    /// make a plan legal — personality flags alone gate legality; stats
    /// only pick among the already-legal alternatives.
    pub stats: Option<Arc<StatsCatalog>>,
}

/// A dataset coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRef {
    /// Namespace.
    pub namespace: String,
    /// Dataset name.
    pub dataset: String,
}

impl std::fmt::Display for DatasetRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.namespace, self.dataset)
    }
}

/// The physical plan executed by [`crate::exec`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Full heap scan.
    SeqScan {
        /// Target dataset.
        dataset: DatasetRef,
    },
    /// B-tree range scan fetching heap records.
    IndexScan {
        /// Target dataset.
        dataset: DatasetRef,
        /// Indexed attribute.
        attr: String,
        /// Key range.
        range: ScanRange,
        /// Scan direction.
        direction: Direction,
    },
    /// Fetch records whose indexed attribute is `Null`/`Missing`
    /// (requires nulls-in-index).
    IndexUnknownScan {
        /// Target dataset.
        dataset: DatasetRef,
        /// Indexed attribute.
        attr: String,
    },
    /// Index-only `COUNT(*)` over a key range (or the unknown keys), never
    /// touching the heap.
    IndexOnlyCount {
        /// Target dataset.
        dataset: DatasetRef,
        /// Indexed attribute.
        attr: String,
        /// Key range (`None` counts unknown keys instead).
        range: Option<ScanRange>,
        /// Output column name.
        output: String,
    },
    /// `COUNT(*)` by walking the primary index (AsterixDB's expr-1 plan).
    PrimaryIndexCount {
        /// Target dataset.
        dataset: DatasetRef,
        /// Output column name.
        output: String,
    },
    /// Index-only MIN or MAX of an attribute.
    IndexMinMax {
        /// Target dataset.
        dataset: DatasetRef,
        /// Indexed attribute.
        attr: String,
        /// True for MIN, false for MAX.
        is_min: bool,
        /// Output column name.
        output: String,
    },
    /// Heap fetch in index order with an early-exit limit (expr 9).
    IndexOrderedScan {
        /// Target dataset.
        dataset: DatasetRef,
        /// Indexed attribute.
        attr: String,
        /// Scan direction.
        direction: Direction,
        /// Early-exit row budget.
        limit: Option<u64>,
    },
    /// AsterixDB-style index-only join count: walk both indexes, never touch
    /// either heap, emit a single count.
    IndexOnlyJoinCount {
        /// Left dataset and join attribute.
        left: (DatasetRef, String),
        /// Right dataset and join attribute.
        right: (DatasetRef, String),
        /// Output column name.
        output: String,
    },
    /// Index nested-loop join: outer rows probe the inner index.
    IndexNLJoin {
        /// Outer (probe-driving) input.
        outer: Box<PhysicalPlan>,
        /// Key expression over outer rows.
        outer_key: Scalar,
        /// Inner dataset and its indexed join attribute.
        inner: (DatasetRef, String),
        /// Binding name for outer rows in the output object.
        outer_binding: String,
        /// Binding name for inner rows in the output object.
        inner_binding: String,
    },
    /// Hash join.
    HashJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Key over left rows.
        left_key: Scalar,
        /// Key over right rows.
        right_key: Scalar,
        /// Left binding name.
        left_binding: String,
        /// Right binding name.
        right_binding: String,
        /// Join kind.
        kind: JoinKind,
    },
    /// Filter.
    Filter {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Predicate.
        predicate: Scalar,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Output shape.
        spec: ProjectSpec,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Group keys.
        group_by: Vec<(String, Scalar)>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
        /// Partial/final mode.
        mode: AggMode,
    },
    /// Sort (optionally top-k).
    Sort {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Keys.
        keys: Vec<(Scalar, bool)>,
        /// Keep only the first `k` rows (bounded-heap sort).
        topk: Option<u64>,
    },
    /// Limit.
    Limit {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Row budget.
        n: u64,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input.
        input: Box<PhysicalPlan>,
    },
    /// Literal rows.
    Values {
        /// The rows.
        rows: Vec<Value>,
    },
}

impl PhysicalPlan {
    /// Pretty tree rendering (used by `EXPLAIN` and plan-assertion tests).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_indent(&mut out, 0);
        out
    }

    fn fmt_indent(&self, out: &mut String, depth: usize) {
        use PhysicalPlan::*;
        let pad = "  ".repeat(depth);
        match self {
            SeqScan { dataset } => out.push_str(&format!("{pad}SeqScan {dataset}\n")),
            IndexScan {
                dataset,
                attr,
                direction,
                ..
            } => out.push_str(&format!("{pad}IndexScan {dataset}({attr}) {direction:?}\n")),
            IndexUnknownScan { dataset, attr } => {
                out.push_str(&format!("{pad}IndexUnknownScan {dataset}({attr})\n"))
            }
            IndexOnlyCount {
                dataset,
                attr,
                range,
                ..
            } => out.push_str(&format!(
                "{pad}IndexOnlyCount {dataset}({attr}){}\n",
                if range.is_none() {
                    " [unknown keys]"
                } else {
                    ""
                }
            )),
            PrimaryIndexCount { dataset, .. } => {
                out.push_str(&format!("{pad}PrimaryIndexCount {dataset}\n"))
            }
            IndexMinMax {
                dataset,
                attr,
                is_min,
                ..
            } => out.push_str(&format!(
                "{pad}IndexMinMax {dataset}({attr}) {}\n",
                if *is_min { "min" } else { "max" }
            )),
            IndexOrderedScan {
                dataset,
                attr,
                direction,
                limit,
            } => out.push_str(&format!(
                "{pad}IndexOrderedScan {dataset}({attr}) {direction:?} limit={limit:?}\n"
            )),
            IndexOnlyJoinCount { left, right, .. } => out.push_str(&format!(
                "{pad}IndexOnlyJoinCount {}({}) x {}({})\n",
                left.0, left.1, right.0, right.1
            )),
            IndexNLJoin { outer, inner, .. } => {
                out.push_str(&format!(
                    "{pad}IndexNLJoin inner={}({})\n",
                    inner.0, inner.1
                ));
                outer.fmt_indent(out, depth + 1);
            }
            HashJoin { left, right, .. } => {
                out.push_str(&format!("{pad}HashJoin\n"));
                left.fmt_indent(out, depth + 1);
                right.fmt_indent(out, depth + 1);
            }
            Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter\n"));
                input.fmt_indent(out, depth + 1);
            }
            Project { input, .. } => {
                out.push_str(&format!("{pad}Project\n"));
                input.fmt_indent(out, depth + 1);
            }
            Aggregate {
                input,
                group_by,
                mode,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Aggregate[{mode:?}] groups={}\n",
                    group_by.len()
                ));
                input.fmt_indent(out, depth + 1);
            }
            Sort { input, topk, .. } => {
                out.push_str(&format!("{pad}Sort topk={topk:?}\n"));
                input.fmt_indent(out, depth + 1);
            }
            Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.fmt_indent(out, depth + 1);
            }
            Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.fmt_indent(out, depth + 1);
            }
            Values { rows } => out.push_str(&format!("{pad}Values ({} rows)\n", rows.len())),
        }
    }
}

/// One conjunct extracted from a predicate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Conjunct {
    /// `attr = lit`
    Eq(String, Value),
    /// `attr >= lit` (closed) / `attr > lit` (open)
    Ge(String, Value, bool),
    /// `attr <= lit` / `attr < lit`
    Le(String, Value, bool),
    /// `attr IS NULL/MISSING/UNKNOWN`
    Unknown(String),
    /// Anything else (stays as a residual filter).
    Other(Scalar),
}

impl Conjunct {
    fn to_scalar(&self) -> Scalar {
        match self {
            Conjunct::Eq(a, v) => Scalar::Bin(
                BinOp::Eq,
                Box::new(Scalar::Field(a.clone())),
                Box::new(Scalar::Lit(v.clone())),
            ),
            Conjunct::Ge(a, v, closed) => Scalar::Bin(
                if *closed { BinOp::Ge } else { BinOp::Gt },
                Box::new(Scalar::Field(a.clone())),
                Box::new(Scalar::Lit(v.clone())),
            ),
            Conjunct::Le(a, v, closed) => Scalar::Bin(
                if *closed { BinOp::Le } else { BinOp::Lt },
                Box::new(Scalar::Field(a.clone())),
                Box::new(Scalar::Lit(v.clone())),
            ),
            Conjunct::Unknown(a) => {
                Scalar::Is(Box::new(Scalar::Field(a.clone())), IsKind::Unknown, false)
            }
            Conjunct::Other(s) => s.clone(),
        }
    }
}

pub(crate) fn split_conjuncts(pred: &Scalar, out: &mut Vec<Conjunct>) {
    match pred {
        Scalar::Bin(BinOp::And, a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        Scalar::Bin(op @ (BinOp::Eq | BinOp::Ge | BinOp::Gt | BinOp::Le | BinOp::Lt), a, b) => {
            let (field, lit, flipped) = match (a.as_ref(), b.as_ref()) {
                (Scalar::Field(f), Scalar::Lit(v)) => (Some(f), Some(v), false),
                (Scalar::Lit(v), Scalar::Field(f)) => (Some(f), Some(v), true),
                _ => (None, None, false),
            };
            match (field, lit) {
                (Some(f), Some(v)) => {
                    let c = match (op, flipped) {
                        (BinOp::Eq, _) => Conjunct::Eq(f.clone(), v.clone()),
                        (BinOp::Ge, false) | (BinOp::Le, true) => {
                            Conjunct::Ge(f.clone(), v.clone(), true)
                        }
                        (BinOp::Gt, false) | (BinOp::Lt, true) => {
                            Conjunct::Ge(f.clone(), v.clone(), false)
                        }
                        (BinOp::Le, false) | (BinOp::Ge, true) => {
                            Conjunct::Le(f.clone(), v.clone(), true)
                        }
                        (BinOp::Lt, false) | (BinOp::Gt, true) => {
                            Conjunct::Le(f.clone(), v.clone(), false)
                        }
                        _ => Conjunct::Other(pred.clone()),
                    };
                    out.push(c);
                }
                _ => out.push(Conjunct::Other(pred.clone())),
            }
        }
        Scalar::Is(inner, IsKind::Unknown | IsKind::Null, false) => {
            // In SQL dialect IS NULL is the unknown test (rows from JSON
            // loads may have absent fields); SQL++ uses IS UNKNOWN.
            if let Scalar::Field(f) = inner.as_ref() {
                out.push(Conjunct::Unknown(f.clone()));
            } else {
                out.push(Conjunct::Other(pred.clone()));
            }
        }
        other => out.push(Conjunct::Other(other.clone())),
    }
}

fn and_all(conjuncts: &[Conjunct]) -> Option<Scalar> {
    let mut iter = conjuncts.iter().map(Conjunct::to_scalar);
    let first = iter.next()?;
    Some(iter.fold(first, |acc, c| {
        Scalar::Bin(BinOp::And, Box::new(acc), Box::new(c))
    }))
}

/// Translate an optimized logical plan into a physical plan.
pub fn plan_physical(
    plan: &LogicalPlan,
    db: &Database,
    options: &PlannerOptions,
) -> Result<PhysicalPlan> {
    plan_physical_explained(plan, db, options).map(|(phys, _)| phys)
}

/// Translate a logical plan and also return the decision points the
/// planner weighed (chosen and rejected alternatives with costs), for
/// attachment to an [`polyframe_observe::ExplainReport`] tree.
pub fn plan_physical_explained(
    plan: &LogicalPlan,
    db: &Database,
    options: &PlannerOptions,
) -> Result<(PhysicalPlan, Vec<PlanDecision>)> {
    let planner = Planner {
        db,
        options,
        decisions: RefCell::new(Vec::new()),
    };
    let phys = planner.translate(plan)?;
    Ok((phys, planner.decisions.into_inner()))
}

struct Planner<'a> {
    db: &'a Database,
    options: &'a PlannerOptions,
    decisions: RefCell<Vec<PlanDecision>>,
}

/// One candidate access path for a conjunct list, before residual
/// wrapping.
struct AccessCandidate {
    scan: PhysicalPlan,
    label: String,
    /// Conjunct positions the scan consumes.
    used: (usize, usize),
    /// Deterministic no-stats preference: lower is better.
    /// 0 = equality on the primary key, 1 = equality on a secondary
    /// index, 2 = bounded range, 3 = half-open range, 4 = unknown-key
    /// scan; position breaks ties.
    shape_rank: (u8, usize),
}

impl<'a> Planner<'a> {
    fn personality(&self) -> &Personality {
        &self.options.personality
    }

    fn cost_model(&self) -> CostModel<'_> {
        CostModel {
            db: self.db,
            stats: self.options.stats.as_deref(),
        }
    }

    fn record_decision(&self, target: &str, alternatives: Vec<PlanAlternative>) {
        self.decisions.borrow_mut().push(PlanDecision {
            target: target.to_string(),
            alternatives,
        });
    }

    fn has_index(&self, ds: &DatasetRef, attr: &str) -> bool {
        self.db
            .dataset(&ds.namespace, &ds.dataset)
            .ok()
            .is_some_and(|t| t.index_on(attr).is_some())
    }

    fn index_has_nulls(&self, ds: &DatasetRef, attr: &str) -> bool {
        self.db
            .dataset(&ds.namespace, &ds.dataset)
            .ok()
            .and_then(|t| t.index_on(attr))
            .is_some_and(|ix| ix.indexes_unknown_keys())
    }

    fn translate(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        match plan {
            LogicalPlan::Scan { namespace, dataset } => Ok(PhysicalPlan::SeqScan {
                dataset: DatasetRef {
                    namespace: namespace.clone(),
                    dataset: dataset.clone(),
                },
            }),
            LogicalPlan::Values { rows } => Ok(PhysicalPlan::Values { rows: rows.clone() }),
            LogicalPlan::Filter { input, predicate } => self.translate_filter(input, predicate),
            LogicalPlan::Project { input, spec } => Ok(PhysicalPlan::Project {
                input: Box::new(self.translate(input)?),
                spec: spec.clone(),
            }),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                mode,
            } => self.translate_aggregate(input, group_by, aggs, *mode),
            LogicalPlan::Sort { input, keys } => Ok(PhysicalPlan::Sort {
                input: Box::new(self.translate(input)?),
                keys: keys.clone(),
                topk: None,
            }),
            LogicalPlan::Limit { input, n } => self.translate_limit(input, *n),
            LogicalPlan::Distinct { input } => Ok(PhysicalPlan::Distinct {
                input: Box::new(self.translate(input)?),
            }),
            LogicalPlan::Join { .. } => self.translate_join(plan),
        }
    }

    /// Filter: try to convert (part of) the predicate into an index access.
    fn translate_filter(&self, input: &LogicalPlan, predicate: &Scalar) -> Result<PhysicalPlan> {
        if let LogicalPlan::Scan { namespace, dataset } = input {
            let ds = DatasetRef {
                namespace: namespace.clone(),
                dataset: dataset.clone(),
            };
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            if let Some(phys) = self.index_access(&ds, &conjuncts) {
                return Ok(phys);
            }
        }
        Ok(PhysicalPlan::Filter {
            input: Box::new(self.translate(input)?),
            predicate: predicate.clone(),
        })
    }

    /// Choose an index access path for a conjunct list over a base scan.
    ///
    /// Enumerates every *legal* candidate (legality is personality- and
    /// catalog-gated), then chooses by estimated cost when a statistics
    /// snapshot is available — a sequential scan may win outright — or by
    /// predicate shape without one: equality on the primary key beats
    /// equality on a secondary index beats a bounded range beats a
    /// half-open range beats an unknown-key scan, with conjunct position
    /// breaking ties. The weighed alternatives are recorded for the
    /// explain report either way.
    fn index_access(&self, ds: &DatasetRef, conjuncts: &[Conjunct]) -> Option<PhysicalPlan> {
        let candidates = self.access_candidates(ds, conjuncts);
        if candidates.is_empty() {
            return None;
        }
        let model = self.cost_model();
        // Estimate each candidate's complete pipeline (scan + residual
        // filter) so candidates consuming different conjuncts compare
        // fairly; the sequential baseline is the same pipeline unindexed.
        let wrapped: Vec<PhysicalPlan> = candidates
            .iter()
            .map(|c| self.wrap_residual(c.scan.clone(), conjuncts, c.used.0, c.used.1))
            .collect();
        let seq = self.wrap_residual(
            PhysicalPlan::SeqScan {
                dataset: ds.clone(),
            },
            conjuncts,
            usize::MAX,
            usize::MAX,
        );
        let costs: Vec<_> = wrapped.iter().map(|p| model.estimate(p)).collect();
        let seq_cost = model.estimate(&seq);
        let use_cost = self.options.stats.is_some();
        let best = (0..candidates.len()).min_by(|&a, &b| {
            let by_shape = candidates[a].shape_rank.cmp(&candidates[b].shape_rank);
            if use_cost {
                costs[a].total.total_cmp(&costs[b].total).then(by_shape)
            } else {
                by_shape
            }
        })?;
        let seq_wins = use_cost && seq_cost.total < costs[best].total;
        let reason = if use_cost { "cost" } else { "rule:shape" };
        let mut alternatives: Vec<PlanAlternative> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| PlanAlternative {
                label: c.label.clone(),
                est_rows: costs[i].rows,
                est_cost: costs[i].total,
                chosen: !seq_wins && i == best,
                reason: reason.to_string(),
            })
            .collect();
        alternatives.push(PlanAlternative {
            label: "SeqScan".to_string(),
            est_rows: seq_cost.rows,
            est_cost: seq_cost.total,
            chosen: seq_wins,
            reason: if use_cost {
                "cost"
            } else {
                "rule:index-preferred"
            }
            .to_string(),
        });
        if seq_wins {
            self.record_decision("SeqScan", alternatives);
            return None;
        }
        let (operator, _) = op_parts(&candidates[best].scan);
        self.record_decision(&operator, alternatives);
        wrapped.into_iter().nth(best)
    }

    /// Every legal index access path for a conjunct list.
    fn access_candidates(&self, ds: &DatasetRef, conjuncts: &[Conjunct]) -> Vec<AccessCandidate> {
        let primary = self
            .db
            .dataset(&ds.namespace, &ds.dataset)
            .ok()
            .and_then(|t| t.primary_key())
            .map(str::to_string);
        let mut out = Vec::new();
        let mut range_attrs_seen: Vec<String> = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            match c {
                Conjunct::Eq(attr, v) if self.has_index(ds, attr) => {
                    let rank = if primary.as_deref() == Some(attr.as_str()) {
                        0
                    } else {
                        1
                    };
                    out.push(AccessCandidate {
                        scan: PhysicalPlan::IndexScan {
                            dataset: ds.clone(),
                            attr: attr.clone(),
                            range: ScanRange::eq(v.clone()),
                            direction: Direction::Forward,
                        },
                        label: format!("IndexScan({attr}=)"),
                        used: (i, usize::MAX),
                        shape_rank: (rank, i),
                    });
                }
                Conjunct::Ge(attr, _, _) | Conjunct::Le(attr, _, _) => {
                    if !self.has_index(ds, attr) || range_attrs_seen.contains(attr) {
                        continue;
                    }
                    range_attrs_seen.push(attr.clone());
                    // Pair the first lower and upper bounds on this attr.
                    let mut lo = KeyBound::Unbounded;
                    let mut hi = KeyBound::Unbounded;
                    let mut j = usize::MAX;
                    for (k, o) in conjuncts.iter().enumerate() {
                        match o {
                            Conjunct::Ge(a2, v2, c2)
                                if a2 == attr && matches!(lo, KeyBound::Unbounded) =>
                            {
                                lo = bound(v2, *c2);
                                if k != i {
                                    j = k;
                                }
                            }
                            Conjunct::Le(a2, v2, c2)
                                if a2 == attr && matches!(hi, KeyBound::Unbounded) =>
                            {
                                hi = bound(v2, *c2);
                                if k != i {
                                    j = k;
                                }
                            }
                            _ => {}
                        }
                    }
                    let bounded =
                        !matches!(lo, KeyBound::Unbounded) && !matches!(hi, KeyBound::Unbounded);
                    out.push(AccessCandidate {
                        scan: PhysicalPlan::IndexScan {
                            dataset: ds.clone(),
                            attr: attr.clone(),
                            range: ScanRange { lo, hi },
                            direction: Direction::Forward,
                        },
                        label: format!("IndexScan({attr} range)"),
                        used: (i, j),
                        shape_rank: (if bounded { 2 } else { 3 }, i),
                    });
                }
                Conjunct::Unknown(attr)
                    if self.has_index(ds, attr) && self.index_has_nulls(ds, attr) =>
                {
                    out.push(AccessCandidate {
                        scan: PhysicalPlan::IndexUnknownScan {
                            dataset: ds.clone(),
                            attr: attr.clone(),
                        },
                        label: format!("IndexUnknownScan({attr})"),
                        used: (i, usize::MAX),
                        shape_rank: (4, i),
                    });
                }
                _ => {}
            }
        }
        out
    }

    fn wrap_residual(
        &self,
        scan: PhysicalPlan,
        conjuncts: &[Conjunct],
        used_a: usize,
        used_b: usize,
    ) -> PhysicalPlan {
        let residual: Vec<Conjunct> = conjuncts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != used_a && *i != used_b)
            .map(|(_, c)| c.clone())
            .collect();
        match and_all(&residual) {
            Some(pred) => PhysicalPlan::Filter {
                input: Box::new(scan),
                predicate: pred,
            },
            None => scan,
        }
    }

    fn translate_aggregate(
        &self,
        input: &LogicalPlan,
        group_by: &[(String, Scalar)],
        aggs: &[AggExpr],
        mode: AggMode,
    ) -> Result<PhysicalPlan> {
        // Specialized index plans only apply to complete, ungrouped,
        // single-aggregate queries.
        if group_by.is_empty() && aggs.len() == 1 && mode == AggMode::Complete {
            let agg = &aggs[0];
            if let Some(phys) = self.scalar_agg_fastpath(input, agg) {
                return Ok(phys);
            }
        }
        Ok(PhysicalPlan::Aggregate {
            input: Box::new(self.translate(input)?),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            mode,
        })
    }

    /// Index fast paths for `COUNT(*)`, `MIN(attr)`, `MAX(attr)` over scans.
    fn scalar_agg_fastpath(&self, input: &LogicalPlan, agg: &AggExpr) -> Option<PhysicalPlan> {
        let p = self.personality().clone();
        match (&agg.func, &agg.arg) {
            (AggFunc::Count, AggArg::Star) => {
                match strip_reshape(input) {
                    // COUNT(*) over a bare scan.
                    Stripped::Scan(ds) => {
                        if p.count_via_primary_index {
                            let table = self.db.dataset(&ds.namespace, &ds.dataset).ok()?;
                            if table.primary_index().is_some() {
                                return Some(PhysicalPlan::PrimaryIndexCount {
                                    dataset: ds,
                                    output: agg.name.clone(),
                                });
                            }
                        }
                        None
                    }
                    // COUNT(*) over a filtered scan: index-only count when
                    // the whole predicate is a single indexable conjunct set.
                    Stripped::FilteredScan(ds, pred) => {
                        let mut conjuncts = Vec::new();
                        split_conjuncts(&pred, &mut conjuncts);
                        if conjuncts.len() == 1 && p.index_only_scans {
                            match &conjuncts[0] {
                                Conjunct::Eq(a, v) if self.has_index(&ds, a) => {
                                    return Some(PhysicalPlan::IndexOnlyCount {
                                        dataset: ds,
                                        attr: a.clone(),
                                        range: Some(ScanRange::eq(v.clone())),
                                        output: agg.name.clone(),
                                    })
                                }
                                Conjunct::Unknown(a)
                                    if self.has_index(&ds, a) && self.index_has_nulls(&ds, a) =>
                                {
                                    return Some(PhysicalPlan::IndexOnlyCount {
                                        dataset: ds,
                                        attr: a.clone(),
                                        range: None,
                                        output: agg.name.clone(),
                                    })
                                }
                                _ => {}
                            }
                        }
                        // Range pair (expr 11) → index-only count when allowed.
                        if p.index_only_scans && conjuncts.len() == 2 {
                            if let (Conjunct::Ge(a1, v1, c1), Conjunct::Le(a2, v2, c2)) =
                                (&conjuncts[0], &conjuncts[1])
                            {
                                if a1 == a2 && self.has_index(&ds, a1) {
                                    return Some(PhysicalPlan::IndexOnlyCount {
                                        dataset: ds,
                                        attr: a1.clone(),
                                        range: Some(ScanRange {
                                            lo: bound(v1, *c1),
                                            hi: bound(v2, *c2),
                                        }),
                                        output: agg.name.clone(),
                                    });
                                }
                            }
                        }
                        None
                    }
                    Stripped::Join { left, right } => {
                        // AsterixDB's index-only join (expr 12).
                        if p.index_only_join
                            && self.has_index(&left.0, &left.1)
                            && self.has_index(&right.0, &right.1)
                        {
                            return Some(PhysicalPlan::IndexOnlyJoinCount {
                                left,
                                right,
                                output: agg.name.clone(),
                            });
                        }
                        None
                    }
                    Stripped::Opaque => None,
                }
            }
            (AggFunc::Min | AggFunc::Max, AggArg::Expr(Scalar::Field(attr))) => {
                if !p.index_only_scans {
                    return None;
                }
                match strip_reshape(input) {
                    Stripped::Scan(ds) if self.has_index(&ds, attr) => {
                        Some(PhysicalPlan::IndexMinMax {
                            dataset: ds,
                            attr: attr.clone(),
                            is_min: agg.func == AggFunc::Min,
                            output: agg.name.clone(),
                        })
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn translate_limit(&self, input: &LogicalPlan, n: u64) -> Result<PhysicalPlan> {
        // Sort + Limit: try an index-ordered scan (expr 9), else top-k sort.
        if let LogicalPlan::Sort {
            input: sort_in,
            keys,
        } = input
        {
            if keys.len() == 1 {
                if let (Scalar::Field(attr), desc) = (&keys[0].0, keys[0].1) {
                    if let Stripped::Scan(ds) = strip_reshape(sort_in) {
                        if self.has_index(&ds, attr) && self.personality().backward_index_scans {
                            // Secondary indexes that skip nulls cannot serve
                            // an ORDER BY that must include unknown rows —
                            // unless the scan is limited and descending
                            // (unknowns sort last... in SQL they sort first
                            // ascending); the Wisconsin sort columns have no
                            // unknown values, and real planners consult the
                            // same statistics:
                            let complete = self
                                .db
                                .dataset(&ds.namespace, &ds.dataset)
                                .ok()
                                .and_then(|t| t.index_on(attr))
                                .is_some_and(|ix| ix.is_complete());
                            if complete {
                                return Ok(PhysicalPlan::IndexOrderedScan {
                                    dataset: ds,
                                    attr: attr.clone(),
                                    direction: if desc {
                                        Direction::Backward
                                    } else {
                                        Direction::Forward
                                    },
                                    limit: Some(n),
                                });
                            }
                        }
                    }
                }
            }
            // Fall back to a bounded (top-k) sort.
            return Ok(PhysicalPlan::Sort {
                input: Box::new(self.translate(sort_in)?),
                keys: keys.clone(),
                topk: Some(n),
            });
        }
        let input = match self.translate_projected_topk(input, n)? {
            Some(bounded) => bounded,
            None => self.translate(input)?,
        };
        Ok(PhysicalPlan::Limit {
            input: Box::new(input),
            n,
        })
    }

    /// Projections over a sort, under a limit: projections keep rows 1:1,
    /// so the sort needs only the first `n` rows (the limit stays on
    /// top). `None` when `plan` is not such a chain.
    fn translate_projected_topk(&self, plan: &LogicalPlan, n: u64) -> Result<Option<PhysicalPlan>> {
        match plan {
            LogicalPlan::Project { input, spec } => Ok(self
                .translate_projected_topk(input, n)?
                .map(|inner| PhysicalPlan::Project {
                    input: Box::new(inner),
                    spec: spec.clone(),
                })),
            LogicalPlan::Sort { input, keys } => Ok(Some(PhysicalPlan::Sort {
                input: Box::new(self.translate(input)?),
                keys: keys.clone(),
                topk: Some(n),
            })),
            _ => Ok(None),
        }
    }

    fn translate_join(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        let LogicalPlan::Join {
            left,
            right,
            kind,
            left_binding,
            right_binding,
            left_key,
            right_key,
        } = plan
        else {
            unreachable!()
        };
        let model = self.cost_model();
        // Index nested-loop join when the inner (right) side is a bare scan
        // with an index on its join key. Taken by rule when legal — the
        // paper's systems pick their index join whenever the index exists —
        // but the hash alternative's estimated cost is still surfaced.
        if *kind == JoinKind::Inner {
            if let (Stripped::Scan(rds), Scalar::Field(rattr)) = (strip_reshape(right), right_key) {
                if self.has_index(&rds, rattr) {
                    let phys = PhysicalPlan::IndexNLJoin {
                        outer: Box::new(self.translate(left)?),
                        outer_key: left_key.clone(),
                        inner: (rds, rattr.clone()),
                        outer_binding: left_binding.clone(),
                        inner_binding: right_binding.clone(),
                    };
                    let nl_cost = model.estimate(&phys);
                    let mut alternatives = vec![PlanAlternative {
                        label: format!("IndexNLJoin({rattr})"),
                        est_rows: nl_cost.rows,
                        est_cost: nl_cost.total,
                        chosen: true,
                        reason: "rule:index-nested-loop".to_string(),
                    }];
                    // Cost the hash alternative without keeping its
                    // subtree's decisions (it loses by rule).
                    let checkpoint = self.decisions.borrow().len();
                    if let (Ok(l), Ok(r)) = (self.translate(left), self.translate(right)) {
                        let hash = PhysicalPlan::HashJoin {
                            left: Box::new(l),
                            right: Box::new(r),
                            left_key: left_key.clone(),
                            right_key: right_key.clone(),
                            left_binding: left_binding.clone(),
                            right_binding: right_binding.clone(),
                            kind: *kind,
                        };
                        let hash_cost = model.estimate(&hash);
                        alternatives.push(PlanAlternative {
                            label: format!("HashJoin(build={right_binding})"),
                            est_rows: hash_cost.rows,
                            est_cost: hash_cost.total,
                            chosen: false,
                            reason: "rule:index-nested-loop".to_string(),
                        });
                    }
                    self.decisions.borrow_mut().truncate(checkpoint);
                    self.record_decision("IndexNLJoin", alternatives);
                    return Ok(phys);
                }
            }
        }
        let l = self.translate(left)?;
        let r = self.translate(right)?;
        let base = PhysicalPlan::HashJoin {
            left: Box::new(l.clone()),
            right: Box::new(r.clone()),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
            left_binding: left_binding.clone(),
            right_binding: right_binding.clone(),
            kind: *kind,
        };
        // Build-side choice: the executor builds the hash table on the
        // RIGHT input and probes with the LEFT. With statistics, build on
        // the smaller side (inner joins only — outer joins are
        // side-asymmetric).
        if *kind != JoinKind::Inner || self.options.stats.is_none() {
            // No statistics (or a side-asymmetric outer join): the rule
            // always builds the right input. Record the choice so explain
            // still shows which side the hash table lands on.
            let base_cost = model.estimate(&base);
            self.record_decision(
                "HashJoin",
                vec![PlanAlternative {
                    label: format!("HashJoin(build={right_binding})"),
                    est_rows: base_cost.rows,
                    est_cost: base_cost.total,
                    chosen: true,
                    reason: "rule:build-right".to_string(),
                }],
            );
            return Ok(base);
        }
        let swapped = PhysicalPlan::HashJoin {
            left: Box::new(r),
            right: Box::new(l),
            left_key: right_key.clone(),
            right_key: left_key.clone(),
            left_binding: right_binding.clone(),
            right_binding: left_binding.clone(),
            kind: *kind,
        };
        let base_cost = model.estimate(&base);
        let swap_cost = model.estimate(&swapped);
        let take_swap = swap_cost.total < base_cost.total;
        self.record_decision(
            "HashJoin",
            vec![
                PlanAlternative {
                    label: format!("HashJoin(build={right_binding})"),
                    est_rows: base_cost.rows,
                    est_cost: base_cost.total,
                    chosen: !take_swap,
                    reason: "cost".to_string(),
                },
                PlanAlternative {
                    label: format!("HashJoin(build={left_binding})"),
                    est_rows: swap_cost.rows,
                    est_cost: swap_cost.total,
                    chosen: take_swap,
                    reason: "cost".to_string(),
                },
            ],
        );
        if !take_swap {
            return Ok(base);
        }
        // The executor pairs the probe binding's fields first; restore the
        // query's original binding order on top so results are
        // byte-identical to the unswapped plan.
        Ok(PhysicalPlan::Project {
            input: Box::new(swapped),
            spec: ProjectSpec::Columns(vec![
                (
                    left_binding.clone(),
                    Scalar::BindingRef(left_binding.clone()),
                ),
                (
                    right_binding.clone(),
                    Scalar::BindingRef(right_binding.clone()),
                ),
            ]),
        })
    }
}

fn bound(v: &Value, closed: bool) -> KeyBound {
    if closed {
        KeyBound::Included(v.clone())
    } else {
        KeyBound::Excluded(v.clone())
    }
}

/// What remains of a plan after stripping row-reshaping operators
/// (projections that do not change cardinality).
enum Stripped {
    /// A bare scan.
    Scan(DatasetRef),
    /// Filter directly over a scan.
    FilteredScan(DatasetRef, Scalar),
    /// A join of two bare scans on simple field keys.
    Join {
        /// Left dataset and key attribute.
        left: (DatasetRef, String),
        /// Right dataset and key attribute.
        right: (DatasetRef, String),
    },
    /// Anything else.
    Opaque,
}

fn strip_reshape(plan: &LogicalPlan) -> Stripped {
    match plan {
        LogicalPlan::Scan { namespace, dataset } => Stripped::Scan(DatasetRef {
            namespace: namespace.clone(),
            dataset: dataset.clone(),
        }),
        LogicalPlan::Filter { input, predicate } => match strip_reshape(input) {
            Stripped::Scan(ds) => Stripped::FilteredScan(ds, predicate.clone()),
            _ => Stripped::Opaque,
        },
        // Column projections do not change row count; look through them for
        // aggregate fast paths (e.g. `SELECT unique1 FROM ...` under MAX).
        LogicalPlan::Project { input, spec } => match spec {
            ProjectSpec::Columns(cols)
                if cols.iter().all(|(_, s)| matches!(s, Scalar::Field(_))) =>
            {
                strip_reshape(input)
            }
            ProjectSpec::Value(Scalar::Field(_)) | ProjectSpec::MergeStars(_) => {
                strip_reshape(input)
            }
            ProjectSpec::Columns(cols)
                if cols
                    .iter()
                    .all(|(_, s)| matches!(s, Scalar::BindingRef(_) | Scalar::Field(_))) =>
            {
                strip_reshape(input)
            }
            _ => Stripped::Opaque,
        },
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            left_key: Scalar::Field(lk),
            right_key: Scalar::Field(rk),
            ..
        } => match (strip_reshape(left), strip_reshape(right)) {
            (Stripped::Scan(lds), Stripped::Scan(rds)) => Stripped::Join {
                left: (lds, lk.clone()),
                right: (rds, rk.clone()),
            },
            _ => Stripped::Opaque,
        },
        _ => Stripped::Opaque,
    }
}
