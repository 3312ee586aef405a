//! Ablations for the intra-node performance work: plan-cache cold vs warm
//! compile times per engine personality, and morsel-parallel scan scaling
//! across worker counts.
//!
//! The measurement cores live here so the `ablation_plan_cache` /
//! `ablation_parallel_scan` micro-benches and the harness's `ablations`
//! subcommand (text tables + `--json` report) share one setup and one
//! definition of each measurement.

use polyframe_observe::{ExplainNode, ExplainReport};
use polyframe_sqlengine::{Engine, EngineConfig, ExecOptions};
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::time::{Duration, Instant};

/// Namespace/dataset the ablation engines load.
pub const NS: &str = "Bench";
/// Dataset name.
pub const DS: &str = "wisconsin";

/// The full-scan aggregate the parallel-scan ablation times (expression-6
/// shape: every record is scanned, one scalar comes out, so the morsel
/// pipeline — scan + partial agg + merge — dominates end to end).
pub const SCAN_QUERY: &str = "SELECT SUM(\"unique1\") FROM (SELECT * FROM Bench.wisconsin) t";

/// The engine personalities the plan-cache ablation compares. AsterixDB
/// runs many more optimizer passes than the PostgreSQL personalities, so
/// its cold compile is the most expensive and its cache win the largest.
pub const PERSONALITIES: [&str; 3] = ["asterixdb", "postgres", "greenplum"];

fn config_for(personality: &str) -> EngineConfig {
    match personality {
        "asterixdb" => EngineConfig::asterixdb(),
        "postgres" => EngineConfig::postgres(),
        "greenplum" => EngineConfig::greenplum(),
        other => panic!("unknown personality {other}"),
    }
}

/// A compile-only engine for the plan-cache ablation: tiny dataset (the
/// planner only consults the catalog) with the benchmark's standard index
/// so index selection runs during planning.
pub fn plan_cache_engine(personality: &str) -> Engine {
    let engine = Engine::new(config_for(personality));
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(100)))
        .unwrap();
    engine.create_index(NS, DS, "ten").unwrap();
    engine
}

/// The `i`-th distinct query text of the paper's expression-10 selection
/// shape, in `personality`'s dialect. Each `i` is a distinct plan-cache
/// key, so compiling `query_text(p, 0..n)` measures pure cold compiles.
pub fn query_text(personality: &str, i: usize) -> String {
    match personality {
        "asterixdb" => {
            format!("SELECT VALUE t FROM (SELECT VALUE t FROM {NS}.{DS} t) t WHERE t.ten = {i}")
        }
        _ => format!("SELECT t.* FROM (SELECT * FROM {NS}.{DS}) t WHERE t.\"ten\" = {i}"),
    }
}

/// Cold vs warm compile medians for one engine personality.
#[derive(Debug, Clone)]
pub struct PlanCacheAblation {
    /// Personality name (see [`PERSONALITIES`]).
    pub personality: &'static str,
    /// Median first-compile time (cache miss: parse + optimize + plan).
    pub cold: Duration,
    /// Median re-compile time (cache hit: version probe + shared handle).
    pub warm: Duration,
    /// The engine's cache hit rate over the whole measurement.
    pub hit_rate: f64,
}

impl PlanCacheAblation {
    /// Warm compile as a fraction of cold (< 0.1 is the acceptance bar for
    /// the AsterixDB personality).
    pub fn warm_over_cold(&self) -> f64 {
        self.warm.as_secs_f64() / self.cold.as_secs_f64().max(1e-12)
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Measure cold vs warm compiles for every personality: `samples` distinct
/// query texts compiled twice each — first pass all misses, second pass
/// all hits.
pub fn plan_cache_ablation(samples: usize) -> Vec<PlanCacheAblation> {
    // Stay under the cache capacity so the second pass is all hits.
    let samples = samples.clamp(1, 64);
    PERSONALITIES
        .iter()
        .map(|&personality| {
            let engine = plan_cache_engine(personality);
            let texts: Vec<String> = (0..samples).map(|i| query_text(personality, i)).collect();
            let mut cold = Vec::with_capacity(samples);
            for q in &texts {
                let t0 = Instant::now();
                engine.compile_to_physical(q).unwrap();
                cold.push(t0.elapsed());
            }
            let mut warm = Vec::with_capacity(samples);
            for q in &texts {
                let t0 = Instant::now();
                engine.compile_to_physical(q).unwrap();
                warm.push(t0.elapsed());
            }
            PlanCacheAblation {
                personality,
                cold: median(cold),
                warm: median(warm),
                hit_rate: engine.plan_cache_stats().hit_rate(),
            }
        })
        .collect()
}

/// An engine loaded with `num_records` Wisconsin records whose executor
/// uses `workers` morsel workers (1 = the serial path).
pub fn scan_engine(num_records: usize, workers: usize) -> Engine {
    let engine = Engine::new(config_for("postgres").with_exec(ExecOptions::with_workers(workers)));
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(num_records)))
        .unwrap();
    engine
}

/// Median full-scan aggregate time at one worker count.
#[derive(Debug, Clone)]
pub struct ParallelScanAblation {
    /// Morsel workers (1 = serial execution).
    pub workers: usize,
    /// Median elapsed time of [`SCAN_QUERY`].
    pub elapsed: Duration,
    /// Speedup vs the 1-worker (serial) entry of the same run.
    pub speedup: f64,
}

/// Measure [`SCAN_QUERY`] over `num_records` records at each worker count.
/// `worker_counts` should include 1 — the serial baseline every speedup is
/// computed against. Samples interleave round-robin across the worker
/// counts, so slow drift on a shared/noisy host lands evenly on every
/// count instead of biasing whichever happened to be measured last.
pub fn parallel_scan_ablation(
    num_records: usize,
    worker_counts: &[usize],
    samples: usize,
) -> Vec<ParallelScanAblation> {
    let samples = samples.max(1);
    let engines: Vec<Engine> = worker_counts
        .iter()
        .map(|&w| scan_engine(num_records, w))
        .collect();
    // Warm-up: first touch of each fresh heap + plan-cache fill, so the
    // timed runs measure execution only.
    for engine in &engines {
        engine.query(SCAN_QUERY).unwrap();
    }
    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); engines.len()];
    for _ in 0..samples {
        for (engine, out) in engines.iter().zip(times.iter_mut()) {
            let t0 = Instant::now();
            engine.query(SCAN_QUERY).unwrap();
            out.push(t0.elapsed());
        }
    }
    let medians: Vec<Duration> = times.into_iter().map(median).collect();
    let base = worker_counts
        .iter()
        .position(|&w| w <= 1)
        .map(|i| medians[i]);
    worker_counts
        .iter()
        .zip(medians)
        .map(|(&workers, elapsed)| ParallelScanAblation {
            workers,
            elapsed,
            speedup: base.unwrap_or(elapsed).as_secs_f64() / elapsed.as_secs_f64().max(1e-12),
        })
        .collect()
}

/// The filter+project scan the vectorized-eval ablation times: a ~50%
/// selective integer predicate over every record, projecting an integer
/// pair plus the four-valued `string4` column (dictionary-encoded on the
/// batch path). Row-at-a-time execution clones each 16-field record and
/// walks the `Scalar` tree per row; the batch path reads only the four
/// referenced columns and runs compiled kernels over each selection
/// vector — the gap between the two is the per-tuple interpretation
/// overhead this ablation isolates.
pub const VEC_QUERY: &str = "SELECT t.\"unique1\", t.\"unique2\", t.\"string4\" \
     FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"onePercent\" < 50";

/// An engine loaded with `num_records` Wisconsin records, executing
/// single-threaded either row-at-a-time (`vectorized = false`) or on the
/// batch-kernel path (`vectorized = true`).
pub fn eval_engine(num_records: usize, vectorized: bool) -> Engine {
    let exec = if vectorized {
        ExecOptions::serial()
    } else {
        ExecOptions::rowwise()
    };
    let engine = Engine::new(config_for("postgres").with_exec(exec));
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(num_records)))
        .unwrap();
    engine
}

/// Median filter+project scan time for one evaluator mode.
#[derive(Debug, Clone)]
pub struct VectorizedEvalAblation {
    /// `"rowwise"` (the reference interpreter) or `"vectorized"`.
    pub mode: &'static str,
    /// Median elapsed time of [`VEC_QUERY`].
    pub elapsed: Duration,
    /// Speedup vs the rowwise entry of the same run.
    pub speedup: f64,
}

impl VectorizedEvalAblation {
    /// One harness `--json` record. `ablation` names the experiment the
    /// row belongs to (`"vectorized_eval"`, `"vectorized_join"`, or
    /// `"kernel_specialization"`); `records` is the table size.
    pub fn to_json(&self, ablation: &str, records: usize) -> String {
        format!(
            "{{\"ablation\":\"{ablation}\",\"records\":{records},\"evaluator\":\"{}\",\"elapsed_ns\":{},\"speedup\":{:.4}}}",
            self.mode,
            self.elapsed.as_nanos(),
            self.speedup
        )
    }
}

/// Measure [`VEC_QUERY`] over `num_records` records on the row-at-a-time
/// and vectorized single-core paths. Samples interleave round-robin
/// across the two modes (the same drift control as
/// [`parallel_scan_ablation`]), and both engines are checked to return
/// identical rows before any timing starts.
pub fn vectorized_eval_ablation(num_records: usize, samples: usize) -> Vec<VectorizedEvalAblation> {
    let samples = samples.max(1);
    let engines = [
        ("rowwise", eval_engine(num_records, false)),
        ("vectorized", eval_engine(num_records, true)),
    ];
    // Warm-up doubles as the byte-identity check: a vectorized evaluator
    // that diverges from the reference must never report a speedup.
    let reference: Vec<String> = engines
        .iter()
        .map(|(_, e)| format!("{:?}", e.query(VEC_QUERY).unwrap()))
        .collect();
    assert_eq!(
        reference[0], reference[1],
        "vectorized output diverged from the row path"
    );
    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); engines.len()];
    for _ in 0..samples {
        for ((_, engine), out) in engines.iter().zip(times.iter_mut()) {
            let t0 = Instant::now();
            engine.query(VEC_QUERY).unwrap();
            out.push(t0.elapsed());
        }
    }
    let medians: Vec<Duration> = times.into_iter().map(median).collect();
    let base = medians[0];
    engines
        .iter()
        .zip(medians)
        .map(|((mode, _), elapsed)| VectorizedEvalAblation {
            mode,
            elapsed,
            speedup: base.as_secs_f64() / elapsed.as_secs_f64().max(1e-12),
        })
        .collect()
}

/// The scan→filter→aggregate pipeline the kernel-specialization ablation
/// times: an AND-chained integer predicate (fused into one selection-
/// vector pass by the predicate-tree kernel) feeding four scalar
/// aggregates over bare scan columns (folded straight into typed
/// accumulators by the fused-aggregate kernel — no projected batch is
/// ever materialized). Both modes run the same vectorized pipeline; the
/// only difference is generic per-lane interpretation vs the specialized
/// null-fast kernels.
pub const KERNEL_QUERY: &str = "SELECT COUNT(*) AS c, SUM(t.\"unique1\") AS s, \
     MIN(t.\"unique2\") AS mn, MAX(t.\"unique1\") AS mx \
     FROM (SELECT * FROM Bench.wisconsin) t \
     WHERE t.\"onePercent\" < 50 AND t.\"two\" = 0";

/// A single-core vectorized engine with kernel specialization on or off.
pub fn kernel_engine(num_records: usize, specialize: bool) -> Engine {
    let exec = ExecOptions {
        workers: 1,
        specialize,
        ..ExecOptions::default()
    };
    let engine = Engine::new(config_for("postgres").with_exec(exec));
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(num_records)))
        .unwrap();
    engine
}

/// Measure [`KERNEL_QUERY`] on the generic vectorized interpreter vs the
/// specialized kernels — same query, same batches, same single core.
/// One warm-up run per engine fills its plan cache and doubles as the
/// byte-identity check across rowwise, generic, specialized and parallel
/// execution.
pub fn kernel_specialization_ablation(
    num_records: usize,
    samples: usize,
) -> Vec<VectorizedEvalAblation> {
    let samples = samples.max(1);
    let engines = [
        ("generic", kernel_engine(num_records, false)),
        ("specialized", kernel_engine(num_records, true)),
    ];
    let rowwise = eval_engine(num_records, false);
    let parallel = join_engine(num_records, true);
    let reference = format!("{:?}", rowwise.query(KERNEL_QUERY).unwrap());
    for (mode, engine) in engines.iter().chain([&("parallel", parallel)]) {
        let out = format!("{:?}", engine.query(KERNEL_QUERY).unwrap());
        assert_eq!(out, reference, "{mode} diverged from the row path");
    }
    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); engines.len()];
    for _ in 0..samples {
        for ((_, engine), out) in engines.iter().zip(times.iter_mut()) {
            let t0 = Instant::now();
            engine.query(KERNEL_QUERY).unwrap();
            out.push(t0.elapsed());
        }
    }
    let medians: Vec<Duration> = times.into_iter().map(median).collect();
    let base = medians[0];
    engines
        .iter()
        .zip(medians)
        .map(|((mode, _), elapsed)| VectorizedEvalAblation {
            mode,
            elapsed,
            speedup: base.as_secs_f64() / elapsed.as_secs_f64().max(1e-12),
        })
        .collect()
}

/// The blocking-operator pipeline the join ablation times: a self-join of
/// the Wisconsin table on its unique key (no index on `unique1`, so the
/// planner picks a hash join), a ~50% selective filter over the merged
/// rows, and a scalar `SUM` on top. Row-at-a-time execution materializes
/// a record per join event and walks the `Scalar` tree through all three
/// operators; the batch path probes the hash table per selection vector
/// (dictionary codes where possible) and folds partial aggregates per
/// morsel.
pub const JOIN_QUERY: &str = "SELECT SUM(t.\"unique2\") AS s FROM \
     (SELECT l.*, r.* FROM (SELECT * FROM Bench.wisconsin) l \
      INNER JOIN (SELECT * FROM Bench.wisconsin) r ON l.\"unique1\" = r.\"unique1\") t \
     WHERE t.\"onePercent\" < 50";

/// An engine loaded with `num_records` Wisconsin records executing either
/// row-at-a-time (`vectorized = false`) or with the full default
/// configuration — vectorized batches *and* morsel workers — so the
/// measured gap is the end-to-end win of the batch path on a multi-core
/// host, the configuration users actually run.
pub fn join_engine(num_records: usize, vectorized: bool) -> Engine {
    let exec = if vectorized {
        ExecOptions::default()
    } else {
        ExecOptions::rowwise()
    };
    let engine = Engine::new(config_for("postgres").with_exec(exec));
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(num_records)))
        .unwrap();
    engine
}

/// Measure [`JOIN_QUERY`] over `num_records` records row-at-a-time vs
/// vectorized+parallel. Samples interleave round-robin across the two
/// modes, and both engines are checked to return identical rows before
/// any timing starts.
pub fn join_vectorized_ablation(num_records: usize, samples: usize) -> Vec<VectorizedEvalAblation> {
    let samples = samples.max(1);
    let engines = [
        ("rowwise", join_engine(num_records, false)),
        ("vectorized", join_engine(num_records, true)),
    ];
    // Warm-up doubles as the byte-identity check.
    let reference: Vec<String> = engines
        .iter()
        .map(|(_, e)| format!("{:?}", e.query(JOIN_QUERY).unwrap()))
        .collect();
    assert_eq!(
        reference[0], reference[1],
        "vectorized join output diverged from the row path"
    );
    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); engines.len()];
    for _ in 0..samples {
        for ((_, engine), out) in engines.iter().zip(times.iter_mut()) {
            let t0 = Instant::now();
            engine.query(JOIN_QUERY).unwrap();
            out.push(t0.elapsed());
        }
    }
    let medians: Vec<Duration> = times.into_iter().map(median).collect();
    let base = medians[0];
    engines
        .iter()
        .zip(medians)
        .map(|((mode, _), elapsed)| VectorizedEvalAblation {
            mode,
            elapsed,
            speedup: base.as_secs_f64() / elapsed.as_secs_f64().max(1e-12),
        })
        .collect()
}

/// The index-selection scenario of the plan-quality ablation: two legal
/// secondary indexes cover the conjuncts, but `two = 0` matches half the
/// table while `onePercent = 5` matches 1%. The no-stats fallback ranks
/// both conjuncts identically (equality on a secondary index) and breaks
/// the tie by conjunct position — picking `two` — while the cost model
/// sees the NDV gap and picks `onePercent`.
pub const IDX_PLAN_QUERY: &str = "SELECT SUM(t.\"unique1\") AS s \
     FROM (SELECT * FROM Bench.wisconsin) t \
     WHERE t.\"two\" = 0 AND t.\"onePercent\" = 5";

/// The join-order scenario: a small table joins the big one on a
/// non-indexed unique key, so both sides are seqscans feeding a hash
/// join. The rule-based plan always builds the right (big) side; the
/// cost model sees the row-count gap and swaps the build side to the
/// small table.
pub const JOIN_PLAN_QUERY: &str = "SELECT SUM(t.\"unique2\") AS s FROM \
     (SELECT l.*, r.* FROM (SELECT * FROM Bench.small) l \
      INNER JOIN (SELECT * FROM Bench.wisconsin) r ON l.\"unique1\" = r.\"unique1\") t";

/// An engine for the plan-quality ablation: the big Wisconsin table with
/// secondary indexes on `two` and `onePercent`, plus a 1%-sized `small`
/// table for the join scenario. Row-at-a-time execution isolates plan
/// choice from the vectorized-execution wins measured elsewhere.
pub fn plan_quality_engine(num_records: usize, use_stats: bool) -> Engine {
    let engine = Engine::new(
        config_for("postgres")
            .with_exec(ExecOptions::rowwise())
            .with_stats(use_stats),
    );
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(num_records)))
        .unwrap();
    engine.create_index(NS, DS, "two").unwrap();
    engine.create_index(NS, DS, "onePercent").unwrap();
    engine.create_dataset(NS, "small", Some("unique2")).unwrap();
    engine
        .load(
            NS,
            "small",
            generate(&WisconsinConfig::new((num_records / 100).max(50))),
        )
        .unwrap();
    engine
}

/// Rule-based vs cost-based medians for one plan-quality scenario.
#[derive(Debug, Clone)]
pub struct PlanQualityAblation {
    /// `"index-selection"` or `"join-order"`.
    pub scenario: &'static str,
    /// Access path / build side the no-stats rule fallback chose.
    pub rule_plan: String,
    /// Access path / build side the cost model chose.
    pub cost_plan: String,
    /// The alternative the cost model rejected (the rule's choice when it
    /// appears among the alternatives, else the cheapest rejected one).
    pub rejected: String,
    /// Estimated cost of that rejected alternative.
    pub rejected_cost: f64,
    /// Median elapsed time under the rule-based plan.
    pub rule: Duration,
    /// Median elapsed time under the cost-based plan.
    pub cost: Duration,
    /// Rule-based median over cost-based median.
    pub speedup: f64,
    /// The cost-based engine's full [`ExplainReport`] as JSON, embedded
    /// verbatim in the harness's `--json` output.
    pub report_json: String,
}

/// The first decision point in the plan tree (the node carrying
/// alternatives), depth-first.
fn decision_node(report: &ExplainReport) -> Option<&ExplainNode> {
    let mut stack: Vec<&ExplainNode> = report.root.iter().collect();
    while let Some(node) = stack.pop() {
        if !node.alternatives.is_empty() {
            return Some(node);
        }
        stack.extend(node.children.iter());
    }
    None
}

/// The label the planner chose at `report`'s first decision point.
fn chosen_label(report: &ExplainReport) -> String {
    decision_node(report)
        .and_then(|n| n.alternatives.iter().find(|a| a.chosen))
        .map(|a| a.label.clone())
        .unwrap_or_else(|| "none".to_string())
}

/// Measure both plan-quality scenarios over `num_records` records with
/// statistics off (the deterministic rule fallback) and on (the cost
/// model). Samples interleave round-robin across the two engines, and
/// both are checked to return identical rows before any timing starts —
/// stats may only change the plan, never the answer.
pub fn plan_quality_ablation(num_records: usize, samples: usize) -> Vec<PlanQualityAblation> {
    let samples = samples.max(1);
    let rule_engine = plan_quality_engine(num_records, false);
    let cost_engine = plan_quality_engine(num_records, true);
    [
        ("index-selection", IDX_PLAN_QUERY),
        ("join-order", JOIN_PLAN_QUERY),
    ]
    .iter()
    .map(|&(scenario, query)| {
        // Warm-up doubles as the identity check.
        let rule_out = format!("{:?}", rule_engine.query(query).unwrap());
        let cost_out = format!("{:?}", cost_engine.query(query).unwrap());
        assert_eq!(
            rule_out, cost_out,
            "cost-based plan changed the {scenario} result"
        );
        let rule_report = rule_engine.explain_report(query).unwrap();
        let cost_report = cost_engine.explain_report(query).unwrap();
        let rule_plan = chosen_label(&rule_report);
        let cost_plan = chosen_label(&cost_report);
        let rejected_alt = decision_node(&cost_report)
            .map(|n| {
                n.rejected()
                    .find(|a| a.label == rule_plan)
                    .or_else(|| {
                        n.rejected()
                            .min_by(|a, b| a.est_cost.total_cmp(&b.est_cost))
                    })
                    .cloned()
            })
            .unwrap_or_default();
        let (rejected, rejected_cost) = rejected_alt
            .map(|a| (a.label, a.est_cost))
            .unwrap_or_else(|| ("none".to_string(), 0.0));
        let mut rule_times = Vec::with_capacity(samples);
        let mut cost_times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            rule_engine.query(query).unwrap();
            rule_times.push(t0.elapsed());
            let t0 = Instant::now();
            cost_engine.query(query).unwrap();
            cost_times.push(t0.elapsed());
        }
        let rule = median(rule_times);
        let cost = median(cost_times);
        PlanQualityAblation {
            scenario,
            rule_plan,
            cost_plan,
            rejected,
            rejected_cost,
            rule,
            cost,
            speedup: rule.as_secs_f64() / cost.as_secs_f64().max(1e-12),
            report_json: cost_report.to_json(),
        }
    })
    .collect()
}

/// A representative query suite for the fallback-cause breakdown: for
/// each, the exec trace reports `vectorized` as `true` or
/// `fallback:<cause>`, so tallying the notes shows which operators run on
/// the batch path and which still decline (and why).
const FALLBACK_SUITE: [(&str, &str); 7] = [
    ("filter+project", VEC_QUERY),
    ("scalar aggregate", SCAN_QUERY),
    ("fused filter+agg", KERNEL_QUERY),
    ("hash join+filter+agg", JOIN_QUERY),
    (
        "distinct",
        "SELECT DISTINCT \"ten\" FROM (SELECT * FROM Bench.wisconsin) t",
    ),
    (
        "limit",
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"two\" = 0 LIMIT 10",
    ),
    (
        // `stringu1` is unique per record, so its dictionary build
        // overflows `DICT_CAP` on every full batch and demotes to generic
        // value lanes — the `dict=demoted` trace note this row surfaces.
        "dict overflow",
        "SELECT t.\"stringu1\", t.\"string4\" FROM (SELECT * FROM Bench.wisconsin) t \
         WHERE t.\"two\" = 0",
    ),
];

/// One query's vectorization outcome in the fallback breakdown.
#[derive(Debug, Clone)]
pub struct FallbackBreakdown {
    /// Short label for the pipeline shape.
    pub shape: &'static str,
    /// The exec trace's `vectorized` note: `"true"`, or
    /// `"fallback:<cause>"` naming the operator that declined.
    pub mode: String,
    /// The exec trace's `kernel` note (`"specialized"` for pipelines with
    /// a specialized form, `"generic"` for shapes specialization
    /// declines, `"-"` off the batch path).
    pub kernel: String,
    /// Dictionary build health: `"hit-rate NN%"` (the fraction of string
    /// columns that stayed dictionary-encoded) with ` (demoted)` appended
    /// when any column overflowed `DICT_CAP`; `"-"` when the query built
    /// no dictionary columns.
    pub dict: String,
}

impl FallbackBreakdown {
    /// One harness `--json` coverage record.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ablation\":\"vectorized_coverage\",\"pipeline\":\"{}\",\"mode\":\"{}\",\"kernel\":\"{}\",\"dict\":\"{}\"}}",
            self.shape, self.mode, self.kernel, self.dict
        )
    }
}

/// Run the fallback suite on a default-configuration engine and report
/// each query's `vectorized` trace note plus its kernel tier and
/// dictionary health.
pub fn fallback_breakdown(num_records: usize) -> Vec<FallbackBreakdown> {
    let engine = join_engine(num_records, true);
    FALLBACK_SUITE
        .iter()
        .map(|(shape, sql)| {
            let (_, span) = engine.query_traced(sql).unwrap();
            let exec = span.find("exec");
            let mode = exec
                .and_then(|e| e.note("vectorized"))
                .unwrap_or("off")
                .to_string();
            let kernel = exec
                .and_then(|e| e.note("kernel"))
                .unwrap_or("-")
                .to_string();
            // `dict_columns` = per-batch columns that stayed
            // dictionary-encoded; `dict_demoted` = those that overflowed.
            // The hit rate is encoded over attempted.
            let dict_columns = exec.and_then(|e| e.metric("dict_columns")).unwrap_or(0);
            let demoted = exec.and_then(|e| e.metric("dict_demoted")).unwrap_or(0);
            let dict = if dict_columns + demoted > 0 {
                let rate = 100.0 * dict_columns as f64 / (dict_columns + demoted) as f64;
                if demoted > 0 {
                    format!("hit-rate {rate:.0}% (demoted)")
                } else {
                    format!("hit-rate {rate:.0}%")
                }
            } else {
                "-".to_string()
            };
            FallbackBreakdown {
                shape,
                mode,
                kernel,
                dict,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `harness ablations --records 5000 --samples 2`'s size: each test
    /// below runs it as one more input.
    const CI_RECORDS: usize = 5_000;

    #[test]
    fn query_texts_are_distinct_cache_keys() {
        for p in PERSONALITIES {
            let texts: std::collections::HashSet<String> =
                (0..64).map(|i| query_text(p, i)).collect();
            assert_eq!(texts.len(), 64, "{p}");
        }
    }

    #[test]
    fn plan_cache_ablation_reports_all_personalities() {
        let results = plan_cache_ablation(4);
        assert_eq!(results.len(), PERSONALITIES.len());
        for r in &results {
            // Two passes over distinct texts: half the lookups hit.
            assert!((r.hit_rate - 0.5).abs() < 1e-9, "{}", r.personality);
            assert!(r.warm_over_cold() < 1.0, "{}", r.personality);
        }
    }

    #[test]
    fn join_vectorized_ablation_is_anchored_at_rowwise() {
        for records in [2_000, CI_RECORDS] {
            let results = join_vectorized_ablation(records, 2);
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].mode, "rowwise");
            assert!((results[0].speedup - 1.0).abs() < 1e-9);
            assert_eq!(results[1].mode, "vectorized");
            assert!(results[1].speedup > 0.0);
        }
    }

    #[test]
    fn fallback_breakdown_runs_blocking_operators_on_the_batch_path() {
        for records in [500, CI_RECORDS] {
            let rows = fallback_breakdown(records);
            assert_eq!(rows.len(), FALLBACK_SUITE.len());
            for r in &rows {
                assert_eq!(r.mode, "true", "{} fell back", r.shape);
            }
            // Fusable shapes specialize on their first execution...
            let fused = rows.iter().find(|r| r.shape == "fused filter+agg").unwrap();
            assert_eq!(fused.kernel, "specialized");
            // ...and the unique-string projection must report its dictionary
            // demotion with a hit rate.
            let dict = rows.iter().find(|r| r.shape == "dict overflow").unwrap();
            assert!(
                dict.dict.contains("demoted"),
                "expected a demoted dictionary, got {:?}",
                dict.dict
            );
            assert!(dict.dict.contains("hit-rate"), "{:?}", dict.dict);
        }
    }

    #[test]
    fn kernel_specialization_ablation_is_anchored_at_generic() {
        for records in [2_000, CI_RECORDS] {
            let results = kernel_specialization_ablation(records, 2);
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].mode, "generic");
            assert!((results[0].speedup - 1.0).abs() < 1e-9);
            assert_eq!(results[1].mode, "specialized");
            assert!(results[1].speedup > 0.0);
        }
    }

    #[test]
    fn plan_quality_ablation_flips_both_plans() {
        for (records, samples) in [(4_000, 1), (CI_RECORDS, 2)] {
            let results = plan_quality_ablation(records, samples);
            assert_eq!(results.len(), 2);
            let idx = &results[0];
            assert_eq!(idx.scenario, "index-selection");
            assert_eq!(idx.rule_plan, "IndexScan(two=)");
            assert_eq!(idx.cost_plan, "IndexScan(onePercent=)");
            let join = &results[1];
            assert_eq!(join.scenario, "join-order");
            assert_ne!(join.rule_plan, join.cost_plan);
            assert!(join.cost_plan.contains("build=l"), "{}", join.cost_plan);
            for r in &results {
                // The rejected alternative (the rule's choice) and its cost
                // must survive into the structured report.
                assert_eq!(r.rejected, r.rule_plan, "{}", r.scenario);
                assert!(r.rejected_cost > 0.0, "{}", r.scenario);
                assert!(r.report_json.contains("\"chosen\":false"), "{}", r.scenario);
            }
        }
    }

    #[test]
    fn vectorized_eval_ablation_is_anchored_at_rowwise() {
        for records in [2_000, CI_RECORDS] {
            let results = vectorized_eval_ablation(records, 2);
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].mode, "rowwise");
            assert!((results[0].speedup - 1.0).abs() < 1e-9);
            assert_eq!(results[1].mode, "vectorized");
            assert!(results[1].speedup > 0.0);
        }
    }

    #[test]
    fn parallel_scan_ablation_is_anchored_at_serial() {
        for (records, workers) in [(2_000, &[1, 2][..]), (CI_RECORDS, &[1, 2, 4, 8][..])] {
            let results = parallel_scan_ablation(records, workers, 2);
            assert_eq!(results.len(), workers.len());
            assert_eq!(results[0].workers, 1);
            assert!((results[0].speedup - 1.0).abs() < 1e-9);
            assert!(results[1..].iter().all(|r| r.speedup > 0.0));
        }
    }
}
