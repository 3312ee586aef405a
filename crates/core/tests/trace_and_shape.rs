//! Regression tests for the action-shape bug (aggregated frames losing
//! their shape through sort/filter) and behaviour tests for the
//! query-lifecycle tracing layer (`explain()` / `last_trace()`).

use polyframe::prelude::*;
use polyframe::{DatabaseConnector, PolyFrameError};
use polyframe_datamodel::{record, Value};
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_observe::QueryTrace;
use polyframe_sqlengine::{Engine, EngineConfig};
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 500;
const NS: &str = "Test";
const DS: &str = "wisconsin";

fn frames() -> Vec<AFrame> {
    let records = generate(&WisconsinConfig::new(N));

    let asterix = Arc::new(Engine::new(EngineConfig::asterixdb()));
    asterix.create_dataset(NS, DS, Some("unique2")).unwrap();
    asterix.load(NS, DS, records.clone()).unwrap();
    asterix.create_index(NS, DS, "ten").unwrap();

    let postgres = Arc::new(Engine::new(EngineConfig::postgres()));
    postgres.create_dataset(NS, DS, Some("unique2")).unwrap();
    postgres.load(NS, DS, records.clone()).unwrap();
    postgres.create_index(NS, DS, "ten").unwrap();

    let mongo = Arc::new(DocStore::new());
    let coll = format!("{NS}.{DS}");
    mongo.create_collection(&coll).unwrap();
    mongo.insert_many(&coll, records.clone()).unwrap();
    mongo.create_index(&coll, "ten").unwrap();

    let neo = Arc::new(GraphStore::new());
    neo.insert_nodes(DS, records).unwrap();
    neo.create_index(DS, "ten").unwrap();

    vec![
        AFrame::new(NS, DS, Arc::new(AsterixConnector::new(asterix))).unwrap(),
        AFrame::new(NS, DS, Arc::new(PostgresConnector::new(postgres))).unwrap(),
        AFrame::new(NS, DS, Arc::new(MongoConnector::new(mongo))).unwrap(),
        AFrame::new(NS, DS, Arc::new(Neo4jConnector::new(neo))).unwrap(),
    ]
}

fn root_note<'t>(trace: &'t QueryTrace, key: &str) -> &'t str {
    trace.root().note(key).unwrap_or_else(|| {
        panic!("root span has no {key:?} note: {}", trace.render());
    })
}

/// The shape regression (all four languages): sorting an aggregated frame
/// must keep it aggregated, so `collect()` picks the `return_value`
/// wrapper, not `return_all`. Pre-fix, `derive` reset the shape to
/// `Records` and every backend collected group-by output through the
/// plain-records wrapper.
#[test]
fn aggregated_shape_survives_sort() {
    for af in frames() {
        let sorted = af
            .groupby("ten")
            .agg(AggFunc::Count)
            .unwrap()
            .sort_values("cnt", false)
            .unwrap();
        let rows = sorted.collect().unwrap();
        assert_eq!(rows.len(), 10, "{}", af.backend());
        let counts: Vec<i64> = rows
            .rows()
            .iter()
            .map(|r| r.get_path("cnt").as_i64().unwrap())
            .collect();
        assert_eq!(counts.iter().sum::<i64>(), N as i64, "{}", af.backend());
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "{}: {counts:?}",
            af.backend()
        );

        let trace = sorted.last_trace().expect("collect records a trace");
        assert_eq!(
            root_note(&trace, "wrapper"),
            "return_value",
            "{}: aggregated frame collected through the records wrapper",
            af.backend()
        );
    }
}

/// Same regression through a filter: filtering aggregated rows (pandas'
/// `df[df.cnt > x]` after a group-by) keeps the aggregated shape.
#[test]
fn aggregated_shape_survives_filter() {
    for af in frames() {
        let filtered = af
            .groupby("ten")
            .agg(AggFunc::Count)
            .unwrap()
            .mask(&col("cnt").ge(0))
            .unwrap();
        let rows = filtered.collect().unwrap();
        assert_eq!(rows.len(), 10, "{}", af.backend());
        let trace = filtered.last_trace().unwrap();
        assert_eq!(
            root_note(&trace, "wrapper"),
            "return_value",
            "{}",
            af.backend()
        );
    }
}

/// Mongo shows the bug in the query text itself: `return_all` appends a
/// row-shaping `$project` stage that must not be glued onto aggregated
/// pipelines.
#[test]
fn mongo_aggregated_wrapper_adds_no_cleanup_stage() {
    let af = frames().remove(2);
    assert_eq!(af.backend(), "AFrame-MongoDB");
    let sorted = af
        .groupby("ten")
        .agg(AggFunc::Count)
        .unwrap()
        .sort_values("cnt", false)
        .unwrap();
    sorted.collect().unwrap();
    let trace = sorted.last_trace().unwrap();
    // The executed pipeline is the preprocessed query; its length is
    // recorded on the preprocess span. Re-derive the expected final query
    // and check no extra stage was appended after the sort.
    let stages = sorted.query().matches("\"$").count();
    let final_len = trace
        .span("preprocess")
        .unwrap()
        .metric("query_len")
        .unwrap();
    // "[ " + query + " ]" exactly — nothing glued on.
    assert_eq!(
        final_len as usize,
        sorted.query().len() + 4,
        "stages={stages}"
    );
}

/// `explain()` renders a full lifecycle trace with nonzero durations and
/// correct stage attribution on every single-node backend.
#[test]
fn explain_reports_all_stages() {
    for af in frames() {
        let chained = af
            .mask(&col("ten").eq(3))
            .unwrap()
            .select(&["unique1", "ten"])
            .unwrap();
        let rendered = chained.explain().unwrap();
        let trace = chained.last_trace().unwrap();

        assert!(trace.duration() > Duration::ZERO, "{}", af.backend());
        for stage in ["rewrite", "preprocess", "execute", "postprocess"] {
            assert!(
                trace.span(stage).is_some(),
                "{}: missing {stage} in\n{rendered}",
                af.backend()
            );
        }
        // Backend internals: parse/plan/exec split with nonzero time.
        for stage in ["parse", "plan", "exec"] {
            assert!(
                trace.span(stage).is_some(),
                "{}: missing {stage} in\n{rendered}",
                af.backend()
            );
        }
        assert!(
            trace.stage_total("parse") + trace.stage_total("plan") + trace.stage_total("exec")
                > Duration::ZERO,
            "{}",
            af.backend()
        );
        // Two transformations were applied, so the rewrite stage carries
        // two child spans (filter, then project).
        let rewrite = trace.span("rewrite").unwrap();
        assert_eq!(rewrite.metric("passes"), Some(2), "{}", af.backend());
        let ops: Vec<&str> = rewrite.children().iter().map(|c| c.name()).collect();
        assert_eq!(ops, ["filter", "project"], "{}", af.backend());
        // The trace notes which action/backend produced it.
        assert_eq!(root_note(&trace, "action"), "collect", "{}", af.backend());
        assert_eq!(root_note(&trace, "backend"), af.backend());
    }
}

/// With an index on the filtered attribute, every backend's plan span
/// reports the index access path.
#[test]
fn plan_span_attributes_index_usage() {
    for af in frames() {
        // Indexed equality filter: should use the index everywhere.
        let indexed = af.mask(&col("ten").eq(3)).unwrap();
        indexed.collect().unwrap();
        let trace = indexed.last_trace().unwrap();
        let plan = trace.span("plan").unwrap();
        assert_eq!(
            plan.metric("index_used"),
            Some(1),
            "{}: {}",
            af.backend(),
            trace.render()
        );
        assert!(plan.note("access_path").is_some(), "{}", af.backend());

        // Unindexed filter: full scan.
        let scanned = af.mask(&col("two").eq(1)).unwrap();
        scanned.collect().unwrap();
        let trace = scanned.last_trace().unwrap();
        let plan = trace.span("plan").unwrap();
        assert_eq!(plan.metric("index_used"), Some(0), "{}", af.backend());
    }
}

/// Cluster connectors fold the coordinator's per-shard timings into the
/// execute span: one `shard[i]` child per shard plus a `merge` child.
#[test]
fn cluster_trace_reports_shards_and_merge() {
    let cluster = Arc::new(polyframe_cluster::SqlCluster::new(
        3,
        EngineConfig::postgres(),
        "unique2",
    ));
    cluster.create_dataset(NS, DS, Some("unique2")).unwrap();
    cluster
        .load(NS, DS, generate(&WisconsinConfig::new(N)))
        .unwrap();
    let af = AFrame::new(NS, DS, Arc::new(SqlClusterConnector::greenplum(cluster))).unwrap();
    assert_eq!(af.len().unwrap(), N);

    let trace = af.last_trace().unwrap();
    let execute = trace.span("execute").unwrap();
    assert_eq!(execute.metric("shards"), Some(3));
    for i in 0..3 {
        assert!(
            execute.find(&format!("shard[{i}]")).is_some(),
            "missing shard[{i}]: {}",
            trace.render()
        );
    }
    assert!(trace.span("merge").is_some());
    assert!(execute.metric("simulated_wall_ns").unwrap_or(0) > 0);
}

/// A backend returning a negative count must surface an error, not wrap
/// around to a huge `usize`.
#[test]
fn len_rejects_negative_counts() {
    struct BadCountConnector;
    impl DatabaseConnector for BadCountConnector {
        fn name(&self) -> &str {
            "bad-count"
        }
        fn rules(&self) -> polyframe::RuleSet {
            polyframe::RuleSet::builtin(polyframe::Language::Sql)
        }
        fn dispatch(
            &self,
            _req: &polyframe::QueryRequest,
        ) -> polyframe::Result<polyframe::QueryResponse> {
            Ok(polyframe::QueryResponse::new(
                vec![Value::Int(-1)],
                polyframe_observe::Span::new("execute"),
            ))
        }
    }
    let af = AFrame::new(NS, DS, Arc::new(BadCountConnector)).unwrap();
    let err = af.len().unwrap_err();
    assert!(
        matches!(err, PolyFrameError::Result(ref msg) if msg.contains("out of range")),
        "{err}"
    );
}

/// `get_dummies` aliases are identifiers: raw values with spaces, quotes
/// or decimal points must be sanitized (and deduplicated) before they are
/// spliced into the projection.
#[test]
fn get_dummies_sanitizes_aliases() {
    let engine = Arc::new(Engine::new(EngineConfig::asterixdb()));
    engine.create_dataset(NS, "messy", Some("id")).unwrap();
    engine
        .load(
            NS,
            "messy",
            vec![
                record! {"id" => 1, "v" => "a b"},
                record! {"id" => 2, "v" => "a_b"},
                record! {"id" => 3, "v" => "it's"},
            ],
        )
        .unwrap();
    let af = AFrame::new(NS, "messy", Arc::new(AsterixConnector::new(engine))).unwrap();
    let dummies = af.get_dummies("v").unwrap();
    // "a b" and "a_b" both sanitize to v_a_b; the collision gets a suffix.
    assert!(dummies.query().contains("v_a_b"), "{}", dummies.query());
    assert!(dummies.query().contains("v_a_b_2"), "{}", dummies.query());
    assert!(dummies.query().contains("v_it_s"), "{}", dummies.query());
    // No raw space/quote survives in an alias position, and the frame
    // still executes.
    let rows = dummies.head(3).unwrap();
    assert_eq!(rows.len(), 3);
    for row in rows.rows() {
        let hits: i64 = ["v_a_b", "v_a_b_2", "v_it_s"]
            .iter()
            .filter_map(|a| {
                let v = row.get_path(a);
                match v {
                    Value::Bool(b) => Some(b as i64),
                    other => other.as_i64(),
                }
            })
            .sum();
        assert_eq!(hits, 1, "{row:?}");
    }
}

/// Double values used as literals keep a decimal point in the generated
/// query, so indicator expressions compare as doubles on every backend.
#[test]
fn get_dummies_renders_double_literals() {
    let engine = Arc::new(Engine::new(EngineConfig::postgres()));
    engine.create_dataset(NS, "doubles", Some("id")).unwrap();
    engine
        .load(
            NS,
            "doubles",
            vec![
                record! {"id" => 1, "v" => 1.5},
                record! {"id" => 2, "v" => 2.0},
            ],
        )
        .unwrap();
    let af = AFrame::new(NS, "doubles", Arc::new(PostgresConnector::new(engine))).unwrap();
    let dummies = af.get_dummies("v").unwrap();
    assert!(dummies.query().contains("= 1.5"), "{}", dummies.query());
    // Whole-number double keeps its point (else the backend types it int).
    assert!(dummies.query().contains("= 2.0"), "{}", dummies.query());
    assert!(dummies.query().contains("v_1_5"), "{}", dummies.query());
    assert_eq!(dummies.head(2).unwrap().len(), 2);
}

/// Which executor tier serves each operation the benchmark issues, on
/// its *first* execution against a fresh engine: the 13 Table III
/// expressions and the point operations through `AFrame` on the three
/// SQL-engine personalities, 12 000 Wisconsin rows, the benchmark's four
/// indexes. Every op either runs the batch path (`vectorized=true`, with
/// the kernel tier its pipeline compiles to) or is an index-only operator
/// on the row interpreter; `value_counts` (a grouped aggregate under a
/// sort's projection) is the one sanctioned nested-blocking fallback. A
/// new fallback cause, or a shape that stops specializing, fails here.
#[test]
fn executor_tier_per_benchmark_operation() {
    const ROWS: usize = 12_000;
    const K: i64 = 4_321;
    const OPS: [&str; 16] = [
        "e01", "e02", "e03", "e04", "e05", "e06", "e07", "e08", "e09", "e10", "e11", "e12", "e13",
        "pt_eq", "pt_range", "pt_chain",
    ];
    // (personality, ops on specialized kernels, index-only ops); every
    // other op runs the generic batch interpreter.
    type ConfigFn = fn() -> EngineConfig;
    let expected: [(&str, ConfigFn, &[&str], &[&str]); 3] = [
        (
            "sqlpp",
            EngineConfig::asterixdb,
            &["e03", "e06", "e07", "e11", "e13", "pt_range"],
            &["e01", "e12"],
        ),
        (
            "sql",
            EngineConfig::postgres,
            &["e01", "e03"],
            &["e06", "e07", "e09", "e11", "e13", "pt_range"],
        ),
        (
            "greenplum",
            EngineConfig::greenplum,
            &["e01", "e03", "e06", "e07", "e11", "pt_range"],
            &["e13"],
        ),
    ];
    let records = generate(&WisconsinConfig::new(ROWS));
    for (name, config, specialized, index_only) in expected {
        let engine = Arc::new(Engine::new(config()));
        for ds in [DS, "wisconsin2"] {
            engine.create_dataset(NS, ds, Some("unique2")).unwrap();
            engine.load(NS, ds, records.clone()).unwrap();
            for attr in ["unique1", "ten", "onePercent", "tenPercent"] {
                engine.create_index(NS, ds, attr).unwrap();
            }
        }
        let connector: Arc<dyn DatabaseConnector> = if name == "sqlpp" {
            Arc::new(AsterixConnector::new(engine))
        } else {
            Arc::new(PostgresConnector::new(engine))
        };
        let df = AFrame::new(NS, DS, connector).unwrap();
        let df2 = df.sibling(NS, "wisconsin2").unwrap();
        let tier = |frame: &AFrame| -> (String, Option<String>) {
            let trace = frame.last_trace().expect("the action records a trace");
            let exec = trace.span("exec").expect("exec span");
            (
                exec.note("vectorized").unwrap_or("-").to_string(),
                exec.note("kernel").map(str::to_string),
            )
        };
        for op in OPS {
            let frame = match op {
                "e01" => df.clone(),
                "e02" => df.select(&["two", "four"]).unwrap(),
                "e03" => df
                    .mask(&(col("ten").eq(3) & col("twentyPercent").eq(3) & col("two").eq(1)))
                    .unwrap(),
                "e04" => df.groupby("oddOnePercent").agg(AggFunc::Count).unwrap(),
                "e05" => df.col("stringu1").unwrap().map(MapFunc::Upper).unwrap(),
                "e06" | "e07" => df.col("unique1").unwrap(),
                "e08" => df.groupby("twenty").agg_on("four", AggFunc::Max).unwrap(),
                "e09" => df.sort_values("unique1", false).unwrap(),
                "e10" => df.mask(&col("ten").eq(3)).unwrap(),
                "e11" => df
                    .mask(&(col("onePercent").ge(20) & col("onePercent").le(35)))
                    .unwrap(),
                "e12" => df.merge(&df2, "unique1").unwrap(),
                "e13" => df.mask(&col("tenPercent").is_na()).unwrap(),
                "pt_eq" => df.mask(&col("unique1").eq(K)).unwrap(),
                "pt_range" => df
                    .mask(&(col("unique1").ge(K) & col("unique1").lt(K + 50)))
                    .unwrap(),
                _ => df
                    .mask(&col("unique1").eq(K))
                    .unwrap()
                    .select(&["two", "four"])
                    .unwrap(),
            };
            match op {
                "e01" | "e03" | "e11" | "e12" | "e13" | "pt_range" => {
                    frame.len().unwrap();
                }
                "e04" | "e08" => {
                    frame.collect().unwrap();
                }
                "e06" => {
                    frame.max().unwrap();
                }
                "e07" => {
                    frame.min().unwrap();
                }
                "pt_chain" => {
                    frame.head(1).unwrap();
                }
                _ => {
                    frame.head(5).unwrap();
                }
            }
            let want = if index_only.contains(&op) {
                ("fallback:index_only".to_string(), None)
            } else if specialized.contains(&op) {
                ("true".to_string(), Some("specialized".to_string()))
            } else {
                ("true".to_string(), Some("generic".to_string()))
            };
            assert_eq!(tier(&frame), want, "{name} {op}: {}", frame.query());
            if op == "e09" && name != "sql" {
                // The bounded top-k builds only the rows its heaps admit:
                // a count, not a timing.
                let trace = frame.last_trace().expect("the action records a trace");
                let admitted = trace
                    .span("exec")
                    .and_then(|exec| exec.metric("topk_rows"))
                    .expect("a batch top-k reports topk_rows");
                assert!(
                    admitted as usize <= ROWS / 20,
                    "{name} e09 admitted {admitted} of {ROWS} rows into top-k heaps"
                );
            }
            if matches!(op, "e02" | "e05" | "e10") {
                // An early-exit `head(5)` builds only the rows that leave,
                // not a whole batch of them: a count, not a timing.
                let trace = frame.last_trace().expect("the action records a trace");
                let built = trace
                    .span("exec")
                    .and_then(|exec| exec.metric("rows_built"))
                    .expect("a batch pipeline reports rows_built");
                assert!(built <= 2 * 5, "{name} {op} built {built} rows for head(5)");
            }
        }
        let counts = df.value_counts("ten").unwrap();
        counts.collect().unwrap();
        assert_eq!(
            tier(&counts),
            ("fallback:aggregate".to_string(), None),
            "{name} value_counts: {}",
            counts.query()
        );
    }
}
