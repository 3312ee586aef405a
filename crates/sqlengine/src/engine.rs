//! The engine facade: text in, rows out.

use crate::dialect::Dialect;
use crate::error::{EngineError, Result};
use crate::exec::{ExecOptions, Executor};
use crate::parser::parse;
use crate::personality::Personality;
use crate::plan::builder::build_logical;
use crate::plan::cache::{CacheOutcome, CachedPlan, PlanCache};
use crate::plan::cost::{CostModel, PlanDecision};
use crate::plan::logical::LogicalPlan;
use crate::plan::optimizer::optimize;
use crate::plan::physical::{plan_physical, plan_physical_explained, PhysicalPlan, PlannerOptions};
use crate::plan::stats::StatsCatalog;
use polyframe_datamodel::{Record, Value};
use polyframe_observe::{CacheStats, ExplainReport, Span, SpanTimer};
use polyframe_storage::{
    DurableError, DurableOp, DurableStore, Snapshot, StateMachine, Table, TableOptions, Tables,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Query language spoken by this engine.
    pub dialect: Dialect,
    /// Feature flags of the impersonated system.
    pub personality: Personality,
    /// Namespace used for single-part dataset names.
    pub default_namespace: String,
    /// Cost-based planning switch: when set, physical planning captures a
    /// statistics snapshot and chooses among legal plans by estimated
    /// cost; when clear, the deterministic shape rule decides (ablation
    /// benchmarks flip this off to measure plan quality).
    pub use_stats: bool,
    /// Execution tuning: morsel-parallel worker count and morsel size.
    pub exec: ExecOptions,
}

impl EngineConfig {
    /// AsterixDB: SQL++ with the AsterixDB personality.
    pub fn asterixdb() -> EngineConfig {
        EngineConfig {
            dialect: Dialect::SqlPlusPlus,
            personality: Personality::asterixdb(),
            default_namespace: "Default".to_string(),
            use_stats: true,
            exec: ExecOptions::default(),
        }
    }

    /// PostgreSQL 12: SQL with the modern PostgreSQL personality.
    pub fn postgres() -> EngineConfig {
        EngineConfig {
            dialect: Dialect::Sql,
            personality: Personality::postgres12(),
            default_namespace: "public".to_string(),
            use_stats: true,
            exec: ExecOptions::default(),
        }
    }

    /// Greenplum segment: SQL with the PostgreSQL 9.5 personality.
    pub fn greenplum() -> EngineConfig {
        EngineConfig {
            dialect: Dialect::Sql,
            personality: Personality::postgres95(),
            default_namespace: "public".to_string(),
            use_stats: true,
            exec: ExecOptions::default(),
        }
    }

    /// Same config with different execution options (builder-style).
    pub fn with_exec(mut self, exec: ExecOptions) -> EngineConfig {
        self.exec = exec;
        self
    }

    /// Same config with cost-based planning toggled (builder-style).
    pub fn with_stats(mut self, use_stats: bool) -> EngineConfig {
        self.use_stats = use_stats;
        self
    }
}

/// All data managed by one engine instance: the shared [`Tables`]
/// state (copy-on-write datasets keyed by namespace and name) whose
/// secondary indexes follow the personality's null policy.
#[derive(Debug, Clone, Default)]
pub struct Database(Tables);

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Look a dataset up.
    pub fn dataset(&self, namespace: &str, dataset: &str) -> Result<&Table> {
        Ok(self.0.get(namespace, dataset)?)
    }
}

impl std::ops::Deref for Database {
    type Target = Tables;
    fn deref(&self) -> &Tables {
        &self.0
    }
}

impl std::ops::DerefMut for Database {
    fn deref_mut(&mut self) -> &mut Tables {
        &mut self.0
    }
}

/// One database engine instance (an "AsterixDB cluster controller" or a
/// "postgres server", depending on its config): a [`DurableStore`] over
/// the [`Database`] catalog plus the SQL/SQL++ query front-end.
/// Dereferences to the shell for durability, recovery, fault injection
/// and snapshot introspection; reads pin the shell's committed snapshot
/// and never hold a lock across execution, so queries proceed
/// concurrently with loads and DDL.
pub struct Engine {
    config: EngineConfig,
    shell: DurableStore<Database>,
    plan_cache: PlanCache,
}

impl std::ops::Deref for Engine {
    type Target = DurableStore<Database>;
    fn deref(&self) -> &DurableStore<Database> {
        &self.shell
    }
}

/// A compiled query: the shared cache entry, whether it came from the
/// cache, and the timed `parse`/`plan` spans describing how.
struct Compiled {
    plan: Arc<CachedPlan>,
    outcome: CacheOutcome,
    parse_span: Span,
    plan_span: Span,
}

impl Engine {
    /// Create an empty engine.
    pub fn new(config: EngineConfig) -> Engine {
        let state = Database(Tables::new(TableOptions {
            primary_key: None,
            secondary_null_policy: config.personality.secondary_null_policy(),
        }));
        Engine {
            shell: DurableStore::new(format!("sqlengine/{:?}", config.dialect), state),
            config,
            plan_cache: PlanCache::new(),
        }
    }

    /// This engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Create a dataset.
    pub fn create_dataset(
        &self,
        namespace: &str,
        dataset: &str,
        primary_key: Option<&str>,
    ) -> Result<()> {
        self.commit(DurableOp::Create {
            namespace: namespace.to_string(),
            name: dataset.to_string(),
            key: primary_key.map(str::to_string),
        })
    }

    /// Bulk-load records into a dataset.
    pub fn load(
        &self,
        namespace: &str,
        dataset: &str,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<()> {
        self.commit(DurableOp::Ingest {
            namespace: namespace.to_string(),
            name: dataset.to_string(),
            records: records.into_iter().collect(),
        })
    }

    /// Create a secondary index.
    pub fn create_index(&self, namespace: &str, dataset: &str, attribute: &str) -> Result<String> {
        self.commit(DurableOp::Index {
            namespace: namespace.to_string(),
            name: dataset.to_string(),
            attribute: attribute.to_string(),
        })?;
        Ok(self
            .pin()?
            .dataset(namespace, dataset)?
            .index_on(attribute)
            .map(|ix| ix.name().to_string())
            .unwrap_or_default())
    }

    /// Number of records in a dataset.
    pub fn dataset_len(&self, namespace: &str, dataset: &str) -> Result<usize> {
        Ok(self.pin()?.dataset(namespace, dataset)?.len())
    }

    /// Planner options against `db`: when cost-based planning is on,
    /// capture a statistics snapshot of it. The plan cache keys on the
    /// version `db` was published at, so a cached stats-informed plan can
    /// never outlive the statistics that justified it.
    fn planner_options(&self, db: &Database) -> PlannerOptions {
        PlannerOptions {
            personality: self.config.personality.clone(),
            stats: self
                .config
                .use_stats
                .then(|| Arc::new(StatsCatalog::capture(db))),
        }
    }

    /// The one compile path: probe the plan cache at the pinned
    /// snapshot's catalog version; on a miss, parse + optimize + plan and
    /// insert. Every query-text entry point (`query`, `query_traced`,
    /// `explain`, `compile_to_logical`, `compile_to_physical`) routes
    /// through here so they can never drift apart. `db` is the caller's
    /// pin — the version probe and the physical planning see one catalog
    /// snapshot.
    fn compiled(&self, sql: &str, db: &Snapshot<Database>) -> Result<Compiled> {
        let version = db.version();
        let probe_started = Instant::now();
        if let Some(plan) = self.plan_cache.get(self.config.dialect, sql, version) {
            // Parse was skipped entirely; keep the span (zero time) so the
            // trace shape is stable for stage-attribution consumers.
            let mut parse_span = Span::new("parse").with_duration(Duration::ZERO);
            parse_span.set_metric("query_len", sql.len() as i64);
            return Ok(Compiled {
                plan,
                outcome: CacheOutcome::Hit,
                parse_span,
                plan_span: Span::new("plan").with_duration(probe_started.elapsed()),
            });
        }
        let mut parse_t = SpanTimer::start("parse");
        let stmt = parse(sql, self.config.dialect)?;
        let logical = build_logical(&stmt, &self.config.default_namespace)?;
        parse_t.span_mut().set_metric("query_len", sql.len() as i64);
        let parse_span = parse_t.finish();

        let plan_t = SpanTimer::start("plan");
        let logical = optimize(logical, self.config.personality.optimizer_passes);
        let options = self.planner_options(db);
        let (physical, decisions) = plan_physical_explained(&logical, db, &options)?;
        let model = CostModel {
            db,
            stats: options.stats.as_deref(),
        };
        let mut slots: Vec<Option<PlanDecision>> = decisions.into_iter().map(Some).collect();
        let explain = model.explain_tree(&physical, &mut slots);
        let plan = self.plan_cache.insert(
            self.config.dialect,
            sql,
            version,
            CachedPlan {
                logical,
                physical,
                explain,
            },
        );
        Ok(Compiled {
            plan,
            outcome: CacheOutcome::Miss,
            parse_span,
            plan_span: plan_t.finish(),
        })
    }

    /// Parse, plan, optimize and execute a query.
    ///
    /// Runs against the pinned committed snapshot — the master lock is
    /// never held across execution, so loads/DDL proceed concurrently.
    pub fn query(&self, sql: &str) -> Result<Vec<Value>> {
        let db = self.pin_query()?;
        let compiled = self.compiled(sql, &db)?;
        let (rows, _) = Executor::new(&db).run_with(&compiled.plan.physical, &self.config.exec)?;
        Ok(rows)
    }

    /// Like [`Engine::query`], but also reports where the time went as an
    /// `execute` span with `parse`/`plan`/`exec` children. The `plan` child
    /// carries the chosen access path, whether an index was used, and
    /// whether the plan came from the cache; the `exec` child carries the
    /// worker parallelism and one `morsel[i]` child per morsel.
    pub fn query_traced(&self, sql: &str) -> Result<(Vec<Value>, Span)> {
        let db = self.pin_query()?;
        let started = Instant::now();
        let Compiled {
            plan,
            outcome,
            parse_span,
            mut plan_span,
        } = self.compiled(sql, &db)?;

        let display = plan.physical.display();
        // Scan leaves render last in the plan tree; that line is the
        // access path.
        let access_path = display.lines().last().unwrap_or("").trim().to_string();
        let index_used = display.contains("IndexScan") || display.contains("PrimaryIndexCount");
        plan_span.set_metric(
            "optimizer_passes",
            self.config.personality.optimizer_passes as i64,
        );
        plan_span.set_metric("index_used", i64::from(index_used));
        plan_span.set_note("access_path", access_path);
        plan_span.set_note("cache", outcome.as_str());
        plan_span.set_metric("cache_hit", i64::from(outcome.is_hit()));
        plan_span.set_metric("cache_lookup", 1);

        let mut exec_t = SpanTimer::start("exec");
        let (rows, report) = Executor::new(&db).run_with(&plan.physical, &self.config.exec)?;
        exec_t.span_mut().set_metric("rows_out", rows.len() as i64);
        exec_t
            .span_mut()
            .set_metric("parallelism", report.parallelism as i64);
        if self.config.exec.vectorized {
            // `fallback:<cause>` = vectorization was on but this plan
            // shape (or its expressions) compiled to no batch program, so
            // the row path ran; the cause names the operator or feature
            // that declined.
            let note = if report.vectorized {
                "true".to_string()
            } else {
                match report.fallback {
                    Some(cause) => format!("fallback:{cause}"),
                    None => "fallback".to_string(),
                }
            };
            exec_t.span_mut().set_note("vectorized", note);
        }
        if report.vectorized {
            exec_t
                .span_mut()
                .set_metric("batches", report.batches as i64);
            exec_t
                .span_mut()
                .set_metric("batch_rows", report.batch_rows as i64);
            // Which kernel tier ran: `specialized` = fused predicate
            // trees / typed folds, `generic` = the per-lane tag-checked
            // interpreter (the pipeline has no specialized form, or
            // `specialize` is off).
            exec_t.span_mut().set_note(
                "kernel",
                if report.specialized {
                    "specialized"
                } else {
                    "generic"
                },
            );
            // Dictionary build health across this query's batches:
            // `dict_columns` counts per-batch columns that finished
            // dictionary-encoded, `dict_demoted` those that overflowed
            // `DICT_CAP` and fell back to generic value lanes.
            if report.dict_columns + report.dict_demoted > 0 {
                if report.dict_demoted > 0 {
                    exec_t.span_mut().set_note("dict", "demoted");
                }
                exec_t
                    .span_mut()
                    .set_metric("dict_columns", report.dict_columns as i64);
                exec_t
                    .span_mut()
                    .set_metric("dict_demoted", report.dict_demoted as i64);
            }
            // Rows the bounded `ORDER BY … LIMIT k` heaps admitted, summed
            // over morsels: how many rows the sort actually built.
            if let Some(n) = report.topk_rows {
                exec_t.span_mut().set_metric("topk_rows", n as i64);
            }
            // Result rows the batch terminal built, summed over morsels:
            // an early-exit `LIMIT k` builds at most k per morsel.
            exec_t
                .span_mut()
                .set_metric("rows_built", report.rows_built as i64);
            exec_t
                .span_mut()
                .push_child(Span::new("compile(expr)").with_duration(report.compile_time));
        }
        for (i, elapsed) in report.morsel_times.iter().enumerate() {
            exec_t
                .span_mut()
                .push_child(Span::new(format!("morsel[{i}]")).with_duration(*elapsed));
        }
        let exec_span = exec_t.finish();

        let span = Span::new("execute")
            .with_duration(started.elapsed())
            .with_note("dialect", format!("{:?}", self.config.dialect))
            .with_child(parse_span)
            .with_child(plan_span)
            .with_child(exec_span);
        Ok((rows, span))
    }

    /// Compile query text to an optimized logical plan (runs the full
    /// optimizer-pass count of this engine's personality — the paper's
    /// query-preparation overhead lives here — unless the plan cache
    /// already holds the compiled query).
    pub fn compile_to_logical(&self, sql: &str) -> Result<LogicalPlan> {
        let db = self.pin()?;
        Ok(self.compiled(sql, &db)?.plan.logical.clone())
    }

    /// Plan and execute a pre-built logical plan (used by the cluster layer).
    pub fn execute_logical(&self, logical: &LogicalPlan) -> Result<Vec<Value>> {
        let db = self.pin()?;
        let physical = plan_physical(logical, &db, &self.planner_options(&db))?;
        let (rows, _) = Executor::new(&db).run_with(&physical, &self.config.exec)?;
        Ok(rows)
    }

    /// Return the physical plan chosen for `sql`, as an EXPLAIN-style tree.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let db = self.pin()?;
        Ok(self.compiled(sql, &db)?.plan.physical.display())
    }

    /// Structured explain: the chosen plan as a tree of operators with
    /// estimated rows/cost, the personality flags consulted at each one,
    /// and the alternatives weighed (and rejected) at each planner
    /// decision point.
    pub fn explain_report(&self, sql: &str) -> Result<ExplainReport> {
        let db = self.pin()?;
        let compiled = self.compiled(sql, &db)?;
        let mut report = ExplainReport::for_plan(self.config.personality.name, sql);
        report.root = Some(compiled.plan.explain.clone());
        Ok(report)
    }

    /// Compile to a physical plan without executing (exposed for tests).
    pub fn compile_to_physical(&self, sql: &str) -> Result<PhysicalPlan> {
        let db = self.pin()?;
        Ok(self.compiled(sql, &db)?.plan.physical.clone())
    }

    /// Plan-cache hit/miss tallies since construction.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Index point-probe used by the cluster layer's cross-shard joins:
    /// records of `dataset` whose `attribute` equals `key`.
    pub fn probe_index(
        &self,
        namespace: &str,
        dataset: &str,
        attribute: &str,
        key: &Value,
    ) -> Result<Vec<Record>> {
        let db = self.pin()?;
        let table = db.dataset(namespace, dataset)?;
        match table.index_on(attribute) {
            Some(ix) => Ok(ix
                .lookup(key)
                .into_iter()
                .filter_map(|rid| table.get(rid).cloned())
                .collect()),
            None => Ok(table
                .heap()
                .scan()
                .filter(|(_, r)| {
                    polyframe_datamodel::sql_eq(&r.get_or_missing(attribute), key).is_true()
                })
                .map(|(_, r)| r.clone())
                .collect()),
        }
    }

    /// All (known) keys of an index in sorted order — the index-only key
    /// extraction the cluster layer's repartition join uses.
    pub fn index_keys(
        &self,
        namespace: &str,
        dataset: &str,
        attribute: &str,
    ) -> Result<Vec<Value>> {
        let db = self.pin()?;
        let table = db.dataset(namespace, dataset)?;
        match table.index_on(attribute) {
            Some(ix) => Ok(ix
                .scan(
                    &polyframe_storage::ScanRange::all(),
                    polyframe_storage::Direction::Forward,
                )
                .map(|(k, _)| k.clone())
                .filter(|k| !k.is_unknown())
                .collect()),
            None => {
                let mut keys: Vec<Value> = table
                    .heap()
                    .scan()
                    .map(|(_, r)| r.get_or_missing(attribute))
                    .filter(|k| !k.is_unknown())
                    .collect();
                keys.sort_by(polyframe_datamodel::cmp_total);
                Ok(keys)
            }
        }
    }

    /// Count of index entries matching `key` (index-only cross-shard probe).
    pub fn probe_index_count(
        &self,
        namespace: &str,
        dataset: &str,
        attribute: &str,
        key: &Value,
    ) -> Result<usize> {
        let db = self.pin()?;
        let table = db.dataset(namespace, dataset)?;
        match table.index_on(attribute) {
            Some(ix) => Ok(ix.lookup(key).len()),
            None => Ok(table
                .heap()
                .scan()
                .filter(|(_, r)| {
                    polyframe_datamodel::sql_eq(&r.get_or_missing(attribute), key).is_true()
                })
                .count()),
        }
    }
}

/// Everything but the checkpoint-time statistics rebuild is the shared
/// [`Tables`] state machine.
impl StateMachine for Database {
    type Error = EngineError;

    fn prepare(&self, op: DurableOp) -> Result<DurableOp> {
        self.0.check(&op)?;
        Ok(op)
    }

    fn apply(&mut self, op: DurableOp) -> std::result::Result<(), DurableError> {
        self.0.apply(op)
    }

    fn snapshot_ops(&self) -> Vec<DurableOp> {
        self.0.snapshot_ops()
    }

    fn empty(&self) -> Database {
        Database(self.0.empty())
    }

    /// Checkpoint = the maintenance point: replace the incrementally
    /// sketched statistics with exact ones rebuilt from the heaps.
    fn after_checkpoint(&mut self) {
        self.0.rebuild_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    fn users_engine(config: EngineConfig) -> Engine {
        let engine = Engine::new(config);
        engine.create_dataset("Test", "Users", Some("id")).unwrap();
        let langs = ["en", "fr", "en", "de", "en"];
        engine
            .load(
                "Test",
                "Users",
                (0..50i64).map(|i| {
                    record! {
                        "id" => i,
                        "name" => format!("user{i}"),
                        "address" => format!("{i} main st"),
                        "lang" => langs[(i % 5) as usize],
                        "age" => 20 + (i % 30),
                    }
                }),
            )
            .unwrap();
        engine
    }

    #[test]
    fn sqlpp_end_to_end() {
        let e = users_engine(EngineConfig::asterixdb());
        let rows = e.query("SELECT VALUE COUNT(*) FROM Test.Users").unwrap();
        assert_eq!(rows, vec![Value::Int(50)]);

        let rows = e
            .query(
                "SELECT t.name, t.address FROM (SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.lang = \"en\") t LIMIT 10;",
            )
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows[0].get_path("name").as_str().is_some());
        assert!(rows[0].get_path("lang").is_missing());
    }

    #[test]
    fn sql_end_to_end() {
        let e = users_engine(EngineConfig::postgres());
        let rows = e
            .query("SELECT COUNT(*) FROM (SELECT * FROM Test.Users) t")
            .unwrap();
        assert_eq!(rows[0].get_path("count"), Value::Int(50));

        let rows = e
            .query(
                "SELECT t.name FROM (SELECT * FROM (SELECT * FROM Test.Users t) t WHERE t.lang = 'en') t LIMIT 3",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn aggregates_and_group_by() {
        let e = users_engine(EngineConfig::postgres());
        let rows = e
            .query("SELECT MAX(\"age\") FROM (SELECT age FROM (SELECT * FROM Test.Users) t) t")
            .unwrap();
        assert_eq!(rows[0].get_path("max"), Value::Int(49));

        let rows = e
            .query("SELECT \"lang\", COUNT(\"lang\") AS cnt FROM (SELECT * FROM Test.Users) t GROUP BY \"lang\"")
            .unwrap();
        assert_eq!(rows.len(), 3);
        let en = rows
            .iter()
            .find(|r| r.get_path("lang") == Value::str("en"))
            .unwrap();
        assert_eq!(en.get_path("cnt"), Value::Int(30));
    }

    #[test]
    fn order_by_and_limit() {
        let e = users_engine(EngineConfig::postgres());
        let rows = e
            .query("SELECT * FROM (SELECT * FROM Test.Users) t ORDER BY id DESC LIMIT 5")
            .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].get_path("id"), Value::Int(49));
        assert_eq!(rows[4].get_path("id"), Value::Int(45));
    }

    #[test]
    fn join_count() {
        let e = users_engine(EngineConfig::asterixdb());
        let rows = e
            .query(
                "SELECT VALUE COUNT(*) FROM (SELECT l, r FROM Test.Users l JOIN Test.Users r ON l.id = r.id) t",
            )
            .unwrap();
        assert_eq!(rows, vec![Value::Int(50)]);
    }

    #[test]
    fn explain_shows_plan_choice() {
        let e = users_engine(EngineConfig::asterixdb());
        let plan = e.explain("SELECT VALUE COUNT(*) FROM Test.Users").unwrap();
        assert!(plan.contains("PrimaryIndexCount"), "plan: {plan}");

        let pg = users_engine(EngineConfig::postgres());
        let plan = pg
            .explain("SELECT COUNT(*) FROM (SELECT * FROM Test.Users) t")
            .unwrap();
        assert!(plan.contains("SeqScan"), "plan: {plan}");
    }

    #[test]
    fn probe_index() {
        let e = users_engine(EngineConfig::postgres());
        let recs = e
            .probe_index("Test", "Users", "id", &Value::Int(7))
            .unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            e.probe_index_count("Test", "Users", "lang", &Value::str("en"))
                .unwrap(),
            30
        );
    }

    #[test]
    fn unknown_dataset_error() {
        let e = Engine::new(EngineConfig::postgres());
        assert!(e.query("SELECT * FROM nothing").is_err());
    }
}
