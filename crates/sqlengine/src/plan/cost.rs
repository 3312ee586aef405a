//! The cost model: estimated rows and abstract cost for physical plans.
//!
//! Sits between logical planning ([`crate::plan::builder`] /
//! [`crate::plan::optimizer`]) and physical planning
//! ([`crate::plan::physical`]): the planner enumerates the *legal*
//! access paths (personality flags gate legality), then uses these
//! estimates to pick among them — or a deterministic shape rule when
//! statistics are absent. The same estimates back the
//! [`ExplainReport`](polyframe_observe::ExplainReport) tree, so the
//! numbers a user sees in `explain()` are the numbers the planner used.
//!
//! Cost units are abstract "row visits": a sequential scan of `N` rows
//! costs `N`. Random heap fetches through an index cost
//! [`COST_INDEX_FETCH`] per row — the classic reason a low-selectivity
//! index loses to a sequential scan.

use crate::engine::Database;
use crate::plan::logical::Scalar;
use crate::plan::physical::{Conjunct, DatasetRef, PhysicalPlan};
use crate::plan::stats::{
    StatsCatalog, TableStatsView, DEFAULT_EQ_SELECTIVITY, DEFAULT_OTHER_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
};
use polyframe_observe::explain::{ExplainNode, PlanAlternative};
use polyframe_storage::{KeyBound, ScanRange};

/// Cost of visiting one row in a sequential scan.
pub const COST_SEQ_ROW: f64 = 1.0;
/// Cost of one random heap fetch through an index.
pub const COST_INDEX_FETCH: f64 = 4.0;
/// Cost of visiting one index entry without touching the heap.
pub const COST_INDEX_WALK: f64 = 0.5;
/// Cost of inserting one row into a hash-join build table.
pub const COST_HASH_BUILD: f64 = 2.0;
/// Cost of probing the build table with one row.
pub const COST_HASH_PROBE: f64 = 1.2;
/// Per-row overhead of a streaming operator (filter, project).
pub const COST_ROW: f64 = 0.1;

/// An estimate for one (sub)plan: output rows and cumulative cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost, inputs included.
    pub total: f64,
}

impl Cost {
    /// A zero-cost, zero-row estimate.
    pub fn zero() -> Cost {
        Cost {
            rows: 0.0,
            total: 0.0,
        }
    }
}

/// One decision point recorded during physical planning: the node label
/// the decision produced, and every alternative weighed there.
#[derive(Debug, Clone)]
pub struct PlanDecision {
    /// Operator name of the plan node the chosen alternative produced
    /// (matched against the explain tree, first unconsumed wins).
    pub target: String,
    /// All alternatives, the chosen one flagged.
    pub alternatives: Vec<PlanAlternative>,
}

/// The cost model: table statistics (when captured) plus the catalog for
/// row-count fallbacks.
pub struct CostModel<'a> {
    /// The catalog plans are made against.
    pub db: &'a Database,
    /// Statistics snapshot; `None` = rule-based planning, default
    /// selectivities in estimates.
    pub stats: Option<&'a StatsCatalog>,
}

fn log2(n: f64) -> f64 {
    (n + 2.0).log2()
}

impl<'a> CostModel<'a> {
    /// Statistics view of one table, when a snapshot was captured.
    pub fn view(&self, ds: &DatasetRef) -> Option<&TableStatsView> {
        self.stats?.table(&ds.namespace, &ds.dataset)
    }

    /// Live row count of a table (statistics snapshot first, catalog as
    /// fallback so estimates exist even without captured stats).
    pub fn table_rows(&self, ds: &DatasetRef) -> f64 {
        if let Some(view) = self.view(ds) {
            return view.row_count;
        }
        self.db
            .dataset(&ds.namespace, &ds.dataset)
            .map(|t| t.len() as f64)
            .unwrap_or(0.0)
    }

    /// Estimated selectivity of one conjunct against a table.
    pub(crate) fn conjunct_selectivity(&self, ds: &DatasetRef, c: &Conjunct) -> f64 {
        let view = self.view(ds);
        match c {
            Conjunct::Eq(attr, value) => match view {
                Some(v) => v.eq_selectivity(attr, value),
                None => DEFAULT_EQ_SELECTIVITY,
            },
            Conjunct::Ge(attr, value, _) => match (view, value.as_f64()) {
                (Some(v), lo) => v.range_selectivity(attr, lo, None),
                (None, _) => DEFAULT_RANGE_SELECTIVITY,
            },
            Conjunct::Le(attr, value, _) => match (view, value.as_f64()) {
                (Some(v), hi) => v.range_selectivity(attr, None, hi),
                (None, _) => DEFAULT_RANGE_SELECTIVITY,
            },
            Conjunct::Unknown(attr) => match view {
                Some(v) => v.unknown_selectivity(attr),
                None => DEFAULT_EQ_SELECTIVITY,
            },
            Conjunct::Other(_) => DEFAULT_OTHER_SELECTIVITY,
        }
    }

    /// Combined selectivity of a conjunct list (independence assumed).
    pub(crate) fn conjuncts_selectivity(&self, ds: &DatasetRef, conjuncts: &[Conjunct]) -> f64 {
        conjuncts
            .iter()
            .map(|c| self.conjunct_selectivity(ds, c))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Estimated selectivity of an index [`ScanRange`].
    pub fn range_selectivity(&self, ds: &DatasetRef, attr: &str, range: &ScanRange) -> f64 {
        // Point range = equality.
        if let (KeyBound::Included(lo), KeyBound::Included(hi)) = (&range.lo, &range.hi) {
            if lo == hi {
                return match self.view(ds) {
                    Some(v) => v.eq_selectivity(attr, lo),
                    None => DEFAULT_EQ_SELECTIVITY,
                };
            }
        }
        let side = |b: &KeyBound| -> Option<f64> {
            match b {
                KeyBound::Unbounded => None,
                KeyBound::Included(v) | KeyBound::Excluded(v) => v.as_f64(),
            }
        };
        match self.view(ds) {
            Some(v) => v.range_selectivity(attr, side(&range.lo), side(&range.hi)),
            None => DEFAULT_RANGE_SELECTIVITY,
        }
    }

    /// Per-outer-row match count of an equality join into `ds.attr`.
    pub fn join_matches(&self, ds: &DatasetRef, attr: &str) -> f64 {
        let rows = self.table_rows(ds);
        match self.view(ds).and_then(|v| v.column(attr)) {
            Some(col) => (rows / col.ndv.max(1.0)).max(1.0),
            None => (rows * DEFAULT_EQ_SELECTIVITY).max(1.0),
        }
    }

    /// NDV of a join key expressed over a plan's base table, when both
    /// the base table and its statistics are known.
    fn key_ndv(&self, plan: &PhysicalPlan, key: &Scalar) -> Option<f64> {
        let ds = base_dataset(plan)?;
        let Scalar::Field(attr) = key else {
            return None;
        };
        self.view(&ds).and_then(|v| v.column(attr)).map(|c| c.ndv)
    }

    /// Estimate output rows and cumulative cost for a physical plan.
    pub fn estimate(&self, plan: &PhysicalPlan) -> Cost {
        use PhysicalPlan::*;
        match plan {
            SeqScan { dataset } => {
                let rows = self.table_rows(dataset);
                Cost {
                    rows,
                    total: rows * COST_SEQ_ROW,
                }
            }
            IndexScan {
                dataset,
                attr,
                range,
                ..
            } => {
                let n = self.table_rows(dataset);
                let rows = n * self.range_selectivity(dataset, attr, range);
                Cost {
                    rows,
                    total: log2(n) + rows * COST_INDEX_FETCH,
                }
            }
            IndexUnknownScan { dataset, attr } => {
                let n = self.table_rows(dataset);
                let sel = match self.view(dataset) {
                    Some(v) => v.unknown_selectivity(attr),
                    None => DEFAULT_EQ_SELECTIVITY,
                };
                let rows = n * sel;
                Cost {
                    rows,
                    total: log2(n) + rows * COST_INDEX_FETCH,
                }
            }
            IndexOnlyCount {
                dataset,
                attr,
                range,
                ..
            } => {
                let n = self.table_rows(dataset);
                let sel = match range {
                    Some(r) => self.range_selectivity(dataset, attr, r),
                    None => match self.view(dataset) {
                        Some(v) => v.unknown_selectivity(attr),
                        None => DEFAULT_EQ_SELECTIVITY,
                    },
                };
                Cost {
                    rows: 1.0,
                    total: log2(n) + n * sel * COST_INDEX_WALK,
                }
            }
            PrimaryIndexCount { dataset, .. } => Cost {
                rows: 1.0,
                total: self.table_rows(dataset) * COST_INDEX_WALK,
            },
            IndexMinMax { dataset, .. } => Cost {
                rows: 1.0,
                total: log2(self.table_rows(dataset)),
            },
            IndexOrderedScan { dataset, limit, .. } => {
                let n = self.table_rows(dataset);
                let rows = limit.map_or(n, |k| (k as f64).min(n));
                Cost {
                    rows,
                    total: log2(n) + rows * COST_INDEX_FETCH,
                }
            }
            IndexOnlyJoinCount { left, right, .. } => Cost {
                rows: 1.0,
                total: (self.table_rows(&left.0) + self.table_rows(&right.0)) * COST_INDEX_WALK,
            },
            IndexNLJoin { outer, inner, .. } => {
                let o = self.estimate(outer);
                let inner_rows = self.table_rows(&inner.0);
                let matches = self.join_matches(&inner.0, &inner.1);
                Cost {
                    rows: o.rows * matches,
                    total: o.total + o.rows * (log2(inner_rows) + matches * COST_INDEX_FETCH),
                }
            }
            HashJoin {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                let l = self.estimate(left);
                let r = self.estimate(right);
                let ndv = self
                    .key_ndv(left, left_key)
                    .into_iter()
                    .chain(self.key_ndv(right, right_key))
                    .fold(f64::NAN, f64::max);
                let rows = if ndv.is_finite() && ndv >= 1.0 {
                    (l.rows * r.rows / ndv).max(1.0)
                } else {
                    l.rows.max(r.rows)
                };
                Cost {
                    rows,
                    total: l.total
                        + r.total
                        + r.rows * COST_HASH_BUILD
                        + l.rows * COST_HASH_PROBE
                        + rows * COST_ROW,
                }
            }
            Filter { input, predicate } => {
                let i = self.estimate(input);
                let sel = match base_dataset(input) {
                    Some(ds) => {
                        let mut conjuncts = Vec::new();
                        crate::plan::physical::split_conjuncts(predicate, &mut conjuncts);
                        self.conjuncts_selectivity(&ds, &conjuncts)
                    }
                    None => DEFAULT_OTHER_SELECTIVITY,
                };
                Cost {
                    rows: (i.rows * sel).max(1.0).min(i.rows),
                    total: i.total + i.rows * COST_ROW,
                }
            }
            Project { input, .. } => {
                let i = self.estimate(input);
                Cost {
                    rows: i.rows,
                    total: i.total + i.rows * COST_ROW,
                }
            }
            Aggregate {
                input, group_by, ..
            } => {
                let i = self.estimate(input);
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    self.group_count(input, group_by, i.rows)
                };
                Cost {
                    rows,
                    total: i.total + i.rows * 2.0 * COST_ROW,
                }
            }
            Sort { input, topk, .. } => {
                let i = self.estimate(input);
                let rows = topk.map_or(i.rows, |k| (k as f64).min(i.rows));
                Cost {
                    rows,
                    total: i.total + i.rows * log2(i.rows) * COST_ROW,
                }
            }
            Limit { input, n } => {
                let i = self.estimate(input);
                Cost {
                    rows: (*n as f64).min(i.rows),
                    total: i.total,
                }
            }
            Distinct { input } => {
                let i = self.estimate(input);
                Cost {
                    rows: (i.rows * 0.5).max(1.0).min(i.rows),
                    total: i.total + i.rows * COST_ROW,
                }
            }
            Values { rows } => Cost {
                rows: rows.len() as f64,
                total: rows.len() as f64 * COST_ROW,
            },
        }
    }

    fn group_count(
        &self,
        input: &PhysicalPlan,
        group_by: &[(String, Scalar)],
        input_rows: f64,
    ) -> f64 {
        let mut ndv = 1.0;
        let mut known = false;
        for (_, key) in group_by {
            if let Some(k) = self.key_ndv(input, key) {
                ndv *= k.max(1.0);
                known = true;
            }
        }
        if known {
            ndv.min(input_rows).max(1.0)
        } else {
            input_rows.sqrt().max(1.0)
        }
    }

    /// Build the [`ExplainNode`] tree for a chosen plan, attaching the
    /// recorded planner decisions (first unconsumed decision whose target
    /// matches the node's operator).
    pub fn explain_tree(
        &self,
        plan: &PhysicalPlan,
        decisions: &mut Vec<Option<PlanDecision>>,
    ) -> ExplainNode {
        let est = self.estimate(plan);
        let (operator, detail) = op_parts(plan);
        let mut node = ExplainNode::new(operator, detail);
        node.est_rows = est.rows;
        node.est_cost = est.total;
        node.flags = flags_consulted(plan);
        if let Some(slot) = decisions
            .iter_mut()
            .find(|d| d.as_ref().is_some_and(|d| d.target == node.operator))
        {
            if let Some(decision) = slot.take() {
                node.alternatives = decision.alternatives;
            }
        }
        for child in children(plan) {
            node.children.push(self.explain_tree(child, decisions));
        }
        node
    }
}

/// The base table a streaming (cardinality-preserving-or-reducing)
/// pipeline reads from, when one exists.
pub fn base_dataset(plan: &PhysicalPlan) -> Option<DatasetRef> {
    use PhysicalPlan::*;
    match plan {
        SeqScan { dataset }
        | IndexScan { dataset, .. }
        | IndexUnknownScan { dataset, .. }
        | IndexOrderedScan { dataset, .. } => Some(dataset.clone()),
        Filter { input, .. }
        | Project { input, .. }
        | Limit { input, .. }
        | Sort { input, .. }
        | Distinct { input } => base_dataset(input),
        _ => None,
    }
}

fn children(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    use PhysicalPlan::*;
    match plan {
        IndexNLJoin { outer, .. } => vec![outer],
        HashJoin { left, right, .. } => vec![left, right],
        Filter { input, .. }
        | Project { input, .. }
        | Aggregate { input, .. }
        | Sort { input, .. }
        | Limit { input, .. }
        | Distinct { input } => vec![input],
        _ => Vec::new(),
    }
}

/// Operator name and detail string for one node (mirrors
/// [`PhysicalPlan::display`]'s vocabulary so plan assertions carry over).
pub fn op_parts(plan: &PhysicalPlan) -> (String, String) {
    use PhysicalPlan::*;
    match plan {
        SeqScan { dataset } => ("SeqScan".to_string(), dataset.to_string()),
        IndexScan {
            dataset,
            attr,
            direction,
            ..
        } => (
            "IndexScan".to_string(),
            format!("{dataset}({attr}) {direction:?}"),
        ),
        IndexUnknownScan { dataset, attr } => {
            ("IndexUnknownScan".to_string(), format!("{dataset}({attr})"))
        }
        IndexOnlyCount {
            dataset,
            attr,
            range,
            ..
        } => (
            "IndexOnlyCount".to_string(),
            format!(
                "{dataset}({attr}){}",
                if range.is_none() {
                    " [unknown keys]"
                } else {
                    ""
                }
            ),
        ),
        PrimaryIndexCount { dataset, .. } => ("PrimaryIndexCount".to_string(), dataset.to_string()),
        IndexMinMax {
            dataset,
            attr,
            is_min,
            ..
        } => (
            "IndexMinMax".to_string(),
            format!("{dataset}({attr}) {}", if *is_min { "min" } else { "max" }),
        ),
        IndexOrderedScan {
            dataset,
            attr,
            direction,
            limit,
        } => (
            "IndexOrderedScan".to_string(),
            format!("{dataset}({attr}) {direction:?} limit={limit:?}"),
        ),
        IndexOnlyJoinCount { left, right, .. } => (
            "IndexOnlyJoinCount".to_string(),
            format!("{}({}) x {}({})", left.0, left.1, right.0, right.1),
        ),
        IndexNLJoin { inner, .. } => (
            "IndexNLJoin".to_string(),
            format!("inner={}({})", inner.0, inner.1),
        ),
        HashJoin {
            left_binding,
            right_binding,
            kind,
            ..
        } => (
            "HashJoin".to_string(),
            format!("{kind:?} probe={left_binding} build={right_binding}"),
        ),
        Filter { .. } => ("Filter".to_string(), String::new()),
        Project { .. } => ("Project".to_string(), String::new()),
        Aggregate { group_by, mode, .. } => (
            "Aggregate".to_string(),
            format!("[{mode:?}] groups={}", group_by.len()),
        ),
        Sort { topk, .. } => ("Sort".to_string(), format!("topk={topk:?}")),
        Limit { n, .. } => ("Limit".to_string(), n.to_string()),
        Distinct { .. } => ("Distinct".to_string(), String::new()),
        Values { rows } => ("Values".to_string(), format!("({} rows)", rows.len())),
    }
}

/// The personality flags consulted to admit an operator: the legality
/// gates of [`crate::plan::physical`], surfaced per node.
fn flags_consulted(plan: &PhysicalPlan) -> Vec<String> {
    use PhysicalPlan::*;
    let flags: &[&str] = match plan {
        PrimaryIndexCount { .. } => &["count_via_primary_index"],
        IndexMinMax { .. } => &["index_only_scans"],
        IndexOnlyCount { range: Some(_), .. } => &["index_only_scans"],
        IndexOnlyCount { range: None, .. } => &["index_only_scans", "nulls_in_indexes"],
        IndexOrderedScan { .. } => &["backward_index_scans"],
        IndexUnknownScan { .. } => &["nulls_in_indexes"],
        IndexOnlyJoinCount { .. } => &["index_only_join"],
        _ => &[],
    };
    flags.iter().map(|f| f.to_string()).collect()
}
