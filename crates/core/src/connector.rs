//! Database connectors: the request-based backend API.
//!
//! A connector is the paper's "abstract class that makes connections to
//! database engines": it supplies the default rule set for its language,
//! pre-processes the final query (e.g. wrapping a MongoDB stage list in
//! `[...]`), executes it, and post-processes results. Implementing this
//! trait (plus, usually, a configuration file) is all a new backend needs.
//!
//! The execution surface is request-based: callers build a
//! [`QueryRequest`] (query text, target dataset,
//! [`ExecPolicy`](crate::request::ExecPolicy)) and call
//! [`DatabaseConnector::execute`], which drives the single-attempt
//! [`DatabaseConnector::dispatch`] through the shared resilience driver
//! [`execute_request`] — retry with exponential backoff and deterministic
//! jitter, a per-action deadline budget, and always-on tracing. A
//! connector implementor only writes `dispatch` (one attempt, one span);
//! retries, deadlines and the `attempt`/`retry[i]` trace topology come
//! for free.

use crate::error::{PolyFrameError, Result};
use crate::request::{QueryRequest, QueryResponse};
use crate::rewrite::{Language, RuleSet};
use polyframe_cluster::{MongoCluster, QueryStats, ShardPolicy, SqlCluster};
use polyframe_datamodel::Value;
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_observe::{Deadline, ExplainNode, FaultPlan, Span, SpanTimer};
use polyframe_sqlengine::Engine;
use polyframe_storage::{DurableError, StoreError};
use std::sync::Arc;
use std::time::Instant;

/// A connection to one backend database system.
///
/// Implementors write [`dispatch`](Self::dispatch) — one attempt of one
/// request, returning rows plus the backend's execution span. Callers
/// use [`execute`](Self::execute), which layers the request's
/// [`ExecPolicy`](crate::request::ExecPolicy) (retry/backoff/deadline)
/// on top via [`execute_request`].
pub trait DatabaseConnector: Send + Sync {
    /// Human-readable backend name (used in benchmark output).
    fn name(&self) -> &str;

    /// The default rewrite rules for this backend's query language.
    fn rules(&self) -> RuleSet;

    /// Pre-process the final query before sending (default: identity).
    fn preprocess(&self, query: &str) -> String {
        query.to_string()
    }

    /// Run **one attempt** of the request against the backend. Returns
    /// the rows and the backend's `execute` span (tracing is always on).
    /// Implementations must not retry internally — whole-query retry is
    /// the driver's job — but cluster backends may fail over individual
    /// shards within the attempt.
    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse>;

    /// The fault plan governing this connector's backend, if any. The
    /// driver uses it to report the `faults_injected` metric.
    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        None
    }

    /// Execute a request under its policy: retry with backoff on
    /// transient errors, enforce the deadline budget, and record every
    /// attempt in the returned span. Provided — drives
    /// [`dispatch`](Self::dispatch) through [`execute_request`].
    fn execute(&self, req: &QueryRequest) -> Result<QueryResponse> {
        execute_request(self, req).map_err(|failure| failure.error)
    }

    /// Post-process result rows (default: identity).
    fn postprocess(&self, rows: Vec<Value>) -> Vec<Value> {
        rows
    }

    /// How another dataset is referenced from inside a query (joins).
    /// Defaults to the bare collection name; MongoDB targets are
    /// namespace-qualified.
    fn dataset_ref(&self, _namespace: &str, collection: &str) -> String {
        collection.to_string()
    }

    /// The backend's chosen plan for a (pre-processed) query, as a
    /// structured tree with cost evidence — or `None` for backends that
    /// expose no plan surface (default).
    fn explain_plan(&self, _query: &str) -> Option<ExplainNode> {
        None
    }
}

/// A failed execution: the error plus the driver span covering every
/// attempt that was made. [`DatabaseConnector::execute`] discards the
/// span; [`crate::AFrame`] keeps it so failed actions still appear in
/// [`crate::AFrame::last_trace`].
#[derive(Debug)]
pub struct ExecFailure {
    /// Why the request failed.
    pub error: PolyFrameError,
    /// The driver `execute` span with one child per attempt.
    pub span: Span,
}

impl From<ExecFailure> for PolyFrameError {
    fn from(failure: ExecFailure) -> PolyFrameError {
        failure.error
    }
}

/// The shared resilience driver behind [`DatabaseConnector::execute`].
///
/// Runs [`DatabaseConnector::dispatch`] up to `1 + retry.max_retries`
/// times, sleeping the policy's (deterministically jittered) backoff
/// between attempts and giving up early — with a fatal
/// [`PolyFrameError::DeadlineExceeded`] — once the deadline budget is
/// spent. The returned span is named `execute` and carries:
///
/// * one child per attempt (`attempt`, then `retry[1]`, `retry[2]`, ...);
///   the successful attempt's child is the backend's own span renamed,
///   so backend internals (`parse`/`plan`/`exec`, `shard[i]`) stay
///   visible; failed attempts carry an `error` note;
/// * the successful backend span's metrics and notes, copied up so
///   existing `execute`-level assertions (shard counts, cache metrics)
///   hold regardless of retry depth;
/// * `retries`, `faults_injected` (delta against the connector's fault
///   plan) and, when a deadline was set, `deadline_remaining_ns`.
// The Err variant intentionally carries the full driver span so failed
// actions keep their trace; both variants are the same order of size.
#[allow(clippy::result_large_err)]
pub fn execute_request(
    connector: &(impl DatabaseConnector + ?Sized),
    req: &QueryRequest,
) -> std::result::Result<QueryResponse, ExecFailure> {
    let policy = &req.policy;
    let deadline = policy.deadline.map(Deadline::start);
    let faults_before = connector
        .fault_plan()
        .map(|p| p.faults_injected())
        .unwrap_or(0);

    let mut driver = SpanTimer::start("execute");
    let mut retries: u32 = 0;
    let outcome = loop {
        let label = if retries == 0 {
            "attempt".to_string()
        } else {
            format!("retry[{retries}]")
        };
        if let Some(d) = &deadline {
            if d.expired() {
                break Err(PolyFrameError::deadline_exceeded(format!(
                    "budget of {:?} exhausted before {label} of query against {}",
                    d.budget(),
                    connector.name(),
                )));
            }
        }
        if retries > 0 {
            let mut pause = policy.retry.backoff(retries);
            if let Some(d) = &deadline {
                pause = pause.min(d.remaining());
            }
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
        let attempt_start = Instant::now();
        match connector.dispatch(req) {
            Ok(mut response) => {
                response.span.set_name(label);
                break Ok(response);
            }
            Err(error) => {
                let mut failed = Span::new(label).with_duration(attempt_start.elapsed());
                failed.set_note("error", error.to_string());
                driver.span_mut().push_child(failed);
                if error.is_retryable() && retries < policy.retry.max_retries {
                    retries += 1;
                    continue;
                }
                break Err(error);
            }
        }
    };

    let finalize = |driver: &mut SpanTimer| {
        driver.span_mut().set_metric("retries", retries as i64);
        let faults_after = connector
            .fault_plan()
            .map(|p| p.faults_injected())
            .unwrap_or(0);
        driver
            .span_mut()
            .set_metric("faults_injected", (faults_after - faults_before) as i64);
        if let Some(d) = &deadline {
            driver
                .span_mut()
                .set_metric("deadline_remaining_ns", d.remaining().as_nanos() as i64);
        }
    };

    match outcome {
        Ok(QueryResponse { rows, span }) => {
            // Copy the backend span's metrics and notes to the driver
            // span so `execute`-level assertions see them directly.
            for (key, value) in span.metrics() {
                driver.span_mut().set_metric(key.clone(), *value);
            }
            for (key, value) in span.notes() {
                driver.span_mut().set_note(key.clone(), value.clone());
            }
            driver.span_mut().set_metric("rows_out", rows.len() as i64);
            driver.span_mut().push_child(span);
            finalize(&mut driver);
            Ok(QueryResponse {
                rows,
                span: driver.finish(),
            })
        }
        Err(error) => {
            driver.span_mut().set_note("error", error.to_string());
            finalize(&mut driver);
            Err(ExecFailure {
                error,
                span: driver.finish(),
            })
        }
    }
}

/// Map a store error into the PolyFrame taxonomy.
fn store_err(e: impl StoreError) -> PolyFrameError {
    match e.durable() {
        Some(DurableError::Transient(_)) => PolyFrameError::transient(e),
        Some(DurableError::Corruption(_)) => PolyFrameError::Corruption(e.to_string()),
        _ => PolyFrameError::backend(e),
    }
}

/// Derive the cluster shard policy from a request: the request's retry
/// budget doubles as the per-shard failover budget, and
/// `allow_partial` / `prefer_replica` pass through.
fn shard_policy(req: &QueryRequest) -> ShardPolicy {
    ShardPolicy {
        failover_retries: req.policy.retry.max_retries,
        allow_partial: req.policy.allow_partial,
        prefer_replica: req.policy.prefer_replica,
    }
}

/// Fold a cluster query's outcome into its `execute` span: row/shard
/// counts, the simulated critical path, failover/partial metrics, and
/// one `shard[i]` child per shard (shared by both cluster connectors).
fn fold_cluster_stats(span: &mut Span, rows_out: usize, stats: &QueryStats) {
    span.set_metric("rows_out", rows_out as i64);
    span.set_metric("shards", stats.shard_times.len() as i64);
    span.set_metric(
        "simulated_wall_ns",
        stats.simulated_wall().as_nanos() as i64,
    );
    span.set_metric("failovers", stats.failovers as i64);
    span.set_metric("partial_shards", stats.dropped_shards.len() as i64);
    for child in stats.to_spans() {
        span.push_child(child);
    }
}

/// MongoDB query formation shared by the single-node and cluster
/// connectors: pipeline construction happens in the connector (paper,
/// section III.D) — the accumulated stage list is wrapped in `[...]` —
/// and query targets are namespace-qualified collection names.
mod mongo_rules {
    /// Wrap the accumulated stage list into a pipeline literal.
    pub(super) fn wrap_pipeline(query: &str) -> String {
        format!("[ {query} ]")
    }

    /// `namespace.collection`, the fully qualified aggregation target.
    pub(super) fn target(namespace: &str, collection: &str) -> String {
        format!("{namespace}.{collection}")
    }
}

/// Connector for the AsterixDB substrate (SQL++).
pub struct AsterixConnector {
    engine: Arc<Engine>,
}

impl AsterixConnector {
    /// Wrap an engine (should be configured with
    /// `EngineConfig::asterixdb()`).
    pub fn new(engine: Arc<Engine>) -> AsterixConnector {
        AsterixConnector { engine }
    }
}

impl DatabaseConnector for AsterixConnector {
    fn name(&self) -> &str {
        "AFrame-AsterixDB"
    }

    fn rules(&self) -> RuleSet {
        RuleSet::builtin(Language::SqlPlusPlus)
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let (rows, span) = self.engine.query_traced(&req.query).map_err(store_err)?;
        Ok(QueryResponse::new(rows, span))
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.engine.fault_plan()
    }

    fn explain_plan(&self, query: &str) -> Option<ExplainNode> {
        self.engine.explain_report(query).ok().and_then(|r| r.root)
    }
}

/// Connector for the PostgreSQL/Greenplum substrate (SQL).
pub struct PostgresConnector {
    engine: Arc<Engine>,
    name: String,
}

impl PostgresConnector {
    /// Wrap an engine configured with `EngineConfig::postgres()`.
    pub fn new(engine: Arc<Engine>) -> PostgresConnector {
        PostgresConnector {
            engine,
            name: "AFrame-PostgreSQL".to_string(),
        }
    }

    /// Wrap an engine configured with `EngineConfig::greenplum()` (used
    /// for the paper's single-node Greenplum comparison).
    pub fn greenplum(engine: Arc<Engine>) -> PostgresConnector {
        PostgresConnector {
            engine,
            name: "AFrame-Greenplum".to_string(),
        }
    }
}

impl DatabaseConnector for PostgresConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn rules(&self) -> RuleSet {
        RuleSet::builtin(Language::Sql)
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let (rows, span) = self.engine.query_traced(&req.query).map_err(store_err)?;
        Ok(QueryResponse::new(rows, span))
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.engine.fault_plan()
    }

    fn explain_plan(&self, query: &str) -> Option<ExplainNode> {
        self.engine.explain_report(query).ok().and_then(|r| r.root)
    }
}

/// Connector for the MongoDB substrate (aggregation pipelines).
pub struct MongoConnector {
    store: Arc<DocStore>,
}

impl MongoConnector {
    /// Wrap a document store.
    pub fn new(store: Arc<DocStore>) -> MongoConnector {
        MongoConnector { store }
    }
}

impl DatabaseConnector for MongoConnector {
    fn name(&self) -> &str {
        "AFrame-MongoDB"
    }

    fn rules(&self) -> RuleSet {
        RuleSet::builtin(Language::Mongo)
    }

    fn preprocess(&self, query: &str) -> String {
        mongo_rules::wrap_pipeline(query)
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let target = mongo_rules::target(&req.namespace, &req.collection);
        let (rows, span) = self
            .store
            .aggregate_traced(&target, &req.query)
            .map_err(store_err)?;
        Ok(QueryResponse::new(rows, span))
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.store.fault_plan()
    }

    fn dataset_ref(&self, namespace: &str, collection: &str) -> String {
        mongo_rules::target(namespace, collection)
    }
}

/// Connector for the Neo4j substrate (Cypher).
pub struct Neo4jConnector {
    store: Arc<GraphStore>,
}

impl Neo4jConnector {
    /// Wrap a graph store.
    pub fn new(store: Arc<GraphStore>) -> Neo4jConnector {
        Neo4jConnector { store }
    }
}

impl DatabaseConnector for Neo4jConnector {
    fn name(&self) -> &str {
        "AFrame-Neo4j"
    }

    fn rules(&self) -> RuleSet {
        RuleSet::builtin(Language::Cypher)
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let (rows, span) = self.store.query_traced(&req.query).map_err(store_err)?;
        Ok(QueryResponse::new(rows, span))
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.store.fault_plan()
    }
}

/// Connector for a sharded SQL cluster (AsterixDB cluster or Greenplum).
pub struct SqlClusterConnector {
    cluster: Arc<SqlCluster>,
    language: Language,
    name: String,
}

impl SqlClusterConnector {
    /// AsterixDB cluster (SQL++ rules).
    pub fn asterixdb(cluster: Arc<SqlCluster>) -> SqlClusterConnector {
        SqlClusterConnector {
            cluster,
            language: Language::SqlPlusPlus,
            name: "AFrame-AsterixDB-cluster".to_string(),
        }
    }

    /// Greenplum cluster (SQL rules over PostgreSQL 9.5 segments).
    pub fn greenplum(cluster: Arc<SqlCluster>) -> SqlClusterConnector {
        SqlClusterConnector {
            cluster,
            language: Language::Sql,
            name: "AFrame-Greenplum-cluster".to_string(),
        }
    }
}

impl DatabaseConnector for SqlClusterConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn rules(&self) -> RuleSet {
        RuleSet::builtin(self.language)
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let mut timer = SpanTimer::start("execute");
        let (rows, stats) = self
            .cluster
            .query_with_stats(&req.query, &shard_policy(req))
            .map_err(store_err)?;
        fold_cluster_stats(timer.span_mut(), rows.len(), &stats);
        Ok(QueryResponse::new(rows, timer.finish()))
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.cluster.fault_plan()
    }
}

/// Connector for a sharded MongoDB cluster.
pub struct MongoClusterConnector {
    cluster: Arc<MongoCluster>,
}

impl MongoClusterConnector {
    /// Wrap a cluster.
    pub fn new(cluster: Arc<MongoCluster>) -> MongoClusterConnector {
        MongoClusterConnector { cluster }
    }
}

impl DatabaseConnector for MongoClusterConnector {
    fn name(&self) -> &str {
        "AFrame-MongoDB-cluster"
    }

    fn rules(&self) -> RuleSet {
        RuleSet::builtin(Language::Mongo)
    }

    fn preprocess(&self, query: &str) -> String {
        mongo_rules::wrap_pipeline(query)
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let target = mongo_rules::target(&req.namespace, &req.collection);
        let mut timer = SpanTimer::start("execute");
        let (rows, stats) = self
            .cluster
            .aggregate_with_stats(&target, &req.query, &shard_policy(req))
            .map_err(store_err)?;
        fold_cluster_stats(timer.span_mut(), rows.len(), &stats);
        Ok(QueryResponse::new(rows, timer.finish()))
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.cluster.fault_plan()
    }

    fn dataset_ref(&self, namespace: &str, collection: &str) -> String {
        mongo_rules::target(namespace, collection)
    }
}
