//! The document store: collections, indexes, metadata counts and the
//! `aggregate` entry point.

use crate::error::{DocError, Result};
use crate::pipeline::exec::run_pipeline;
use crate::pipeline::expr::Vars;
use crate::pipeline::optimizer::{optimize, PhysicalPipeline};
use crate::pipeline::{parse_pipeline, Stage};
use polyframe_datamodel::{cmp_total, Record, Value};
use polyframe_observe::{CacheStats, Span, SpanTimer, VersionedCache};
use polyframe_storage::{
    DurableError, DurableOp, DurableStore, IndexKind, NullPolicy, Snapshot, StateMachine, Table,
    TableOptions,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Cached plans per store (`(collection, pipeline text)` keys).
const PLAN_CACHE_CAPACITY: usize = 128;

/// A compiled pipeline: the parsed stage list plus the physical pipeline
/// optimized for its body (everything before a trailing `$out`).
struct CachedPipeline {
    stages: Vec<Stage>,
    body: PhysicalPipeline,
}

/// A compiled pipeline plus how compilation went (cache hit or miss) and
/// the timed `parse`/`plan` spans describing it.
struct Compiled {
    plan: Arc<CachedPipeline>,
    hit: bool,
    parse_span: Span,
    plan_span: Span,
}

/// The document store's durable state: its collections and the `_id`
/// counter. The counter is part of the state — advanced only by applying
/// an `Ingest` — so the ids a history assigns do not depend on whether a
/// recovery happened in the middle of it.
#[derive(Clone)]
pub struct Collections {
    tables: HashMap<String, Table>,
    next_id: i64,
}

impl Default for Collections {
    fn default() -> Collections {
        Collections {
            tables: HashMap::new(),
            next_id: 1,
        }
    }
}

/// A MongoDB-like document store: a [`DurableStore`] over
/// [`Collections`] plus the aggregation-pipeline front-end. Dereferences
/// to the shell for durability, recovery, fault injection and snapshot
/// introspection; reads pin the shell's committed snapshot and never
/// hold a lock across pipeline execution.
pub struct DocStore {
    shell: DurableStore<Collections>,
    /// Ablation switch: disable index selection in the pipeline optimizer.
    use_indexes: bool,
    /// Compiled pipelines keyed by `(collection, pipeline text)`, at the
    /// catalog version of the snapshot they were compiled against.
    plan_cache: VersionedCache<(String, String), CachedPipeline>,
}

impl Default for DocStore {
    fn default() -> Self {
        DocStore::new()
    }
}

impl std::ops::Deref for DocStore {
    type Target = DurableStore<Collections>;
    fn deref(&self) -> &DurableStore<Collections> {
        &self.shell
    }
}

impl DocStore {
    /// Empty store.
    pub fn new() -> DocStore {
        DocStore {
            shell: DurableStore::new("docstore", Collections::default()),
            use_indexes: true,
            plan_cache: VersionedCache::new(PLAN_CACHE_CAPACITY),
        }
    }

    /// Empty store with index selection disabled (ablation benchmarks).
    pub fn without_indexes() -> DocStore {
        DocStore {
            use_indexes: false,
            ..DocStore::new()
        }
    }

    /// Create (or replace) a collection. Every collection has a unique-`_id`
    /// primary index, like MongoDB.
    pub fn create_collection(&self, name: &str) -> Result<()> {
        self.commit(DurableOp::Create {
            namespace: String::new(),
            name: name.to_string(),
            key: None,
        })
    }

    /// Insert documents, assigning `_id`s where absent. The durable log
    /// records the post-assignment documents, so replay reproduces the
    /// same `_id`s.
    pub fn insert_many(
        &self,
        collection: &str,
        docs: impl IntoIterator<Item = Record>,
    ) -> Result<usize> {
        let records: Vec<Record> = docs.into_iter().collect();
        let n = records.len();
        self.commit(DurableOp::Ingest {
            namespace: String::new(),
            name: collection.to_string(),
            records,
        })?;
        Ok(n)
    }

    /// Create a secondary index.
    pub fn create_index(&self, collection: &str, attribute: &str) -> Result<String> {
        self.commit(DurableOp::Index {
            namespace: String::new(),
            name: collection.to_string(),
            attribute: attribute.to_string(),
        })?;
        self.pin()?
            .tables
            .get(collection)
            .and_then(|t| t.index_on(attribute).map(|ix| ix.name().to_string()))
            .ok_or_else(|| DocError::UnknownCollection(collection.to_string()))
    }

    /// O(1) metadata count — the fast path `aggregate` pipelines CANNOT use
    /// (the paper's expression-1 observation).
    pub fn count_documents(&self, collection: &str) -> Result<usize> {
        let pin = self.pin()?;
        let table = pin
            .tables
            .get(collection)
            .ok_or_else(|| DocError::UnknownCollection(collection.to_string()))?;
        Ok(table.stats().record_count())
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.pin()
            .map(|pin| pin.tables.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// The one text-compile path: probe the plan cache at the pinned
    /// snapshot's catalog version; on a miss, parse the pipeline and
    /// optimize its body against that snapshot. Shared by `aggregate`,
    /// `aggregate_traced` and `explain`.
    fn compiled(
        &self,
        pin: &Snapshot<Collections>,
        collection: &str,
        pipeline_json: &str,
    ) -> Result<Compiled> {
        let map = &pin.tables;
        let version = pin.version();
        let key = (collection.to_string(), pipeline_json.to_string());
        let probe_started = std::time::Instant::now();
        if let Some(plan) = self.plan_cache.get(&key, version) {
            let mut parse_span = Span::new("parse").with_duration(Duration::ZERO);
            parse_span.set_metric("query_len", pipeline_json.len() as i64);
            parse_span.set_metric("stages", plan.stages.len() as i64);
            return Ok(Compiled {
                plan,
                hit: true,
                parse_span,
                plan_span: Span::new("plan").with_duration(probe_started.elapsed()),
            });
        }
        let mut parse_t = SpanTimer::start("parse");
        let stages = parse_pipeline(pipeline_json)?;
        parse_t
            .span_mut()
            .set_metric("query_len", pipeline_json.len() as i64);
        parse_t.span_mut().set_metric("stages", stages.len() as i64);
        let parse_span = parse_t.finish();

        let plan_t = SpanTimer::start("plan");
        let body = match stages.split_last() {
            Some((Stage::Out(_), rest)) => rest,
            _ => &stages[..],
        };
        let phys = self.optimize_for(map, collection, body)?;
        let plan = self
            .plan_cache
            .insert(key, version, CachedPipeline { stages, body: phys });
        Ok(Compiled {
            plan,
            hit: false,
            parse_span,
            plan_span: plan_t.finish(),
        })
    }

    /// Run an aggregation pipeline given as JSON text.
    pub fn aggregate(&self, collection: &str, pipeline_json: &str) -> Result<Vec<Value>> {
        let (results, out_target) = {
            let pin = self.pin_query()?;
            let compiled = self.compiled(&pin, collection, pipeline_json)?;
            let out_target = match compiled.plan.stages.last() {
                Some(Stage::Out(target)) => Some(target.clone()),
                _ => None,
            };
            let rows = run_pipeline(&pin.tables, collection, &compiled.plan.body, &Vars::new())?;
            (rows, out_target)
        };
        if let Some(target) = out_target {
            self.create_collection(&target)?;
            let docs = results
                .into_iter()
                .map(|v| v.into_obj().map_err(|e| DocError::Exec(e.to_string())))
                .collect::<Result<Vec<_>>>()?;
            self.insert_many(&target, docs)?;
            return Ok(Vec::new());
        }
        Ok(results)
    }

    /// Run a parsed aggregation pipeline.
    pub fn aggregate_stages(&self, collection: &str, stages: &[Stage]) -> Result<Vec<Value>> {
        // `$out` (if present) must be last; intercept it.
        let (stages, out_target) = match stages.split_last() {
            Some((Stage::Out(target), rest)) => (rest, Some(target.clone())),
            _ => (stages, None),
        };
        let results = {
            let pin = self.pin()?;
            let phys = self.optimize_for(&pin.tables, collection, stages)?;
            run_pipeline(&pin.tables, collection, &phys, &Vars::new())?
        };
        if let Some(target) = out_target {
            self.create_collection(&target)?;
            let docs = results
                .into_iter()
                .map(|v| v.into_obj().map_err(|e| DocError::Exec(e.to_string())))
                .collect::<Result<Vec<_>>>()?;
            self.insert_many(&target, docs)?;
            return Ok(Vec::new());
        }
        Ok(results)
    }

    /// Like [`DocStore::aggregate`], but also reports where the time went
    /// as an `execute` span with `parse`/`plan`/`exec` children. The `plan`
    /// child carries the chosen access path; `docs_scanned` is reported for
    /// collection scans (index access paths only touch matching entries).
    pub fn aggregate_traced(
        &self,
        collection: &str,
        pipeline_json: &str,
    ) -> Result<(Vec<Value>, Span)> {
        let pin = self.pin_query()?;
        let started = std::time::Instant::now();

        let (rows, out_target, parse_span, plan_span, exec_span) = {
            let map = &pin.tables;
            let Compiled {
                plan,
                hit,
                parse_span,
                mut plan_span,
            } = self.compiled(&pin, collection, pipeline_json)?;
            let access_path = plan.body.describe();
            let index_used = access_path.contains("IXSCAN");
            plan_span.set_metric("index_used", i64::from(index_used));
            plan_span.set_note("access_path", &access_path);
            plan_span.set_note("cache", if hit { "hit" } else { "miss" });
            plan_span.set_metric("cache_hit", i64::from(hit));
            plan_span.set_metric("cache_lookup", 1);

            let mut exec_t = SpanTimer::start("exec");
            let rows = run_pipeline(map, collection, &plan.body, &Vars::new())?;
            if !index_used {
                if let Some(table) = map.get(collection) {
                    exec_t
                        .span_mut()
                        .set_metric("docs_scanned", table.stats().record_count() as i64);
                }
            }
            exec_t.span_mut().set_metric("docs_out", rows.len() as i64);
            let out_target = match plan.stages.last() {
                Some(Stage::Out(target)) => Some(target.clone()),
                _ => None,
            };
            (rows, out_target, parse_span, plan_span, exec_t.finish())
        };
        // `$out` (only reachable through the save-results rule) still
        // writes its target collection on the traced path.
        let rows = if let Some(target) = out_target {
            self.create_collection(&target)?;
            let docs = rows
                .into_iter()
                .map(|v| v.into_obj().map_err(|e| DocError::Exec(e.to_string())))
                .collect::<Result<Vec<_>>>()?;
            self.insert_many(&target, docs)?;
            Vec::new()
        } else {
            rows
        };

        let span = Span::new("execute")
            .with_duration(started.elapsed())
            .with_child(parse_span)
            .with_child(plan_span)
            .with_child(exec_span);
        Ok((rows, span))
    }

    /// EXPLAIN-style description of the access path chosen for a pipeline.
    pub fn explain(&self, collection: &str, pipeline_json: &str) -> Result<String> {
        let pin = self.pin()?;
        Ok(self
            .compiled(&pin, collection, pipeline_json)?
            .plan
            .body
            .describe())
    }

    /// Plan-cache hit/miss tallies since construction.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    fn optimize_for(
        &self,
        map: &HashMap<String, Table>,
        collection: &str,
        stages: &[Stage],
    ) -> Result<PhysicalPipeline> {
        let table = map
            .get(collection)
            .ok_or_else(|| DocError::UnknownCollection(collection.to_string()))?;
        Ok(optimize(
            stages,
            &|attr| table.index_on(attr).map(|ix| ix.is_complete()),
            self.use_indexes,
        ))
    }

    /// Index point-probe (used by the cluster layer). Returns matching
    /// documents.
    pub fn probe_index(
        &self,
        collection: &str,
        attribute: &str,
        key: &Value,
    ) -> Result<Vec<Record>> {
        let pin = self.pin()?;
        let table = pin
            .tables
            .get(collection)
            .ok_or_else(|| DocError::UnknownCollection(collection.to_string()))?;
        match table.index_on(attribute) {
            Some(ix) => Ok(ix
                .lookup(key)
                .into_iter()
                .filter_map(|rid| table.get(rid).cloned())
                .collect()),
            None => Ok(table
                .heap()
                .scan()
                .filter(|(_, d)| {
                    polyframe_datamodel::cmp_total(&d.get_or_missing(attribute), key)
                        == std::cmp::Ordering::Equal
                })
                .map(|(_, d)| d.clone())
                .collect()),
        }
    }
}

/// Give the id-less documents of one insert batch their `_id`s, each
/// rebuilt with `_id` leading (MongoDB's insertion rule). Assigned ids
/// count up from `next`, first moved past every integer `_id` in the
/// batch, so an assigned id never repeats an explicit one. Returns the
/// next free id.
pub fn assign_ids(docs: &mut [Record], next: i64) -> i64 {
    let mut next = docs
        .iter()
        .filter_map(|doc| match doc.get("_id") {
            Some(Value::Int(id)) => Some(id.saturating_add(1)),
            _ => None,
        })
        .fold(next, i64::max);
    for doc in docs.iter_mut().filter(|doc| !doc.contains("_id")) {
        let mut with_id = Record::with_capacity(doc.len() + 1);
        with_id.insert("_id", next);
        for (k, v) in doc.iter() {
            with_id.insert(k.to_string(), v.clone());
        }
        *doc = with_id;
        next += 1;
    }
    next
}

impl StateMachine for Collections {
    type Error = DocError;

    /// Check the target collection exists, reject explicit `_id`s that
    /// repeat within the batch or match a stored document, and give
    /// id-less ingested documents their `_id`s ([`assign_ids`] from the
    /// counter, which `apply` keeps past every integer id stored). Shipped
    /// and replayed documents go through `apply` and are not checked
    /// again.
    fn prepare(&self, mut op: DurableOp) -> Result<DurableOp> {
        if let DurableOp::Ingest { name, .. } | DurableOp::Index { name, .. } = &op {
            if !self.tables.contains_key(name) {
                return Err(DocError::UnknownCollection(name.clone()));
            }
        }
        if let DurableOp::Ingest { name, records, .. } = &mut op {
            let table = &self.tables[name.as_str()];
            let mut ids: Vec<&Value> = records.iter().filter_map(|doc| doc.get("_id")).collect();
            ids.sort_by(|a, b| cmp_total(a, b));
            let repeated = ids
                .windows(2)
                .find(|pair| cmp_total(pair[0], pair[1]) == Ordering::Equal)
                .map(|pair| pair[0]);
            if let Some(id) = repeated.or_else(|| {
                ids.iter()
                    .copied()
                    .find(|id| table.get_by_key(id).is_some())
            }) {
                return Err(DocError::DuplicateKey(format!(
                    "collection {name}, _id {id:?}"
                )));
            }
            assign_ids(records, self.next_id);
        }
        Ok(op)
    }

    fn apply(&mut self, op: DurableOp) -> std::result::Result<(), DurableError> {
        let unknown = |what: &str, name: &str| {
            DurableError::Corruption(format!("log {what} unknown collection {name}"))
        };
        match op {
            DurableOp::Create { name, .. } => {
                let options = TableOptions {
                    primary_key: Some("_id".to_string()),
                    // Paper (section IV.E): "missing values are not
                    // present in their indexes" for MongoDB.
                    secondary_null_policy: NullPolicy::SkipNulls,
                };
                self.tables.insert(name.clone(), Table::new(name, options));
            }
            DurableOp::Ingest { name, records, .. } => {
                let table = self
                    .tables
                    .get_mut(&name)
                    .ok_or_else(|| unknown("ingests into", &name))?;
                // The counter resumes past every integer `_id` seen,
                // assigned or explicit.
                for doc in &records {
                    if let Some(Value::Int(id)) = doc.get("_id") {
                        self.next_id = self.next_id.max(id.saturating_add(1));
                    }
                }
                table.insert_all(records);
            }
            DurableOp::Index {
                name, attribute, ..
            } => {
                self.tables
                    .get_mut(&name)
                    .ok_or_else(|| unknown("indexes", &name))?
                    .create_index(&attribute);
            }
        }
        Ok(())
    }

    /// Per collection (sorted by name) a `Create`, its secondary
    /// `Index`es, and one `Ingest` of the heap in scan order — so replay
    /// feeds every B+tree the same key sequence the original history did.
    fn snapshot_ops(&self) -> Vec<DurableOp> {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut ops = Vec::new();
        for name in names {
            let table = &self.tables[name];
            ops.push(DurableOp::Create {
                namespace: String::new(),
                name: name.clone(),
                key: None,
            });
            for ix in table
                .indexes()
                .iter()
                .filter(|ix| ix.kind() == IndexKind::Secondary)
            {
                ops.push(DurableOp::Index {
                    namespace: String::new(),
                    name: name.clone(),
                    attribute: ix.attribute().to_string(),
                });
            }
            ops.push(DurableOp::Ingest {
                namespace: String::new(),
                name: name.clone(),
                records: table.heap().scan().map(|(_, r)| r.clone()).collect(),
            });
        }
        ops
    }

    fn empty(&self) -> Collections {
        Collections::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    fn users_store() -> DocStore {
        let store = DocStore::new();
        store.create_collection("Test.Users").unwrap();
        let langs = ["en", "fr", "en", "de", "en"];
        store
            .insert_many(
                "Test.Users",
                (0..50i64).map(|i| {
                    record! {
                        "name" => format!("user{i}"),
                        "address" => format!("{i} main st"),
                        "lang" => langs[(i % 5) as usize],
                        "age" => 20 + (i % 30),
                    }
                }),
            )
            .unwrap();
        store
    }

    #[test]
    fn figure4_pipeline_end_to_end() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$match":{}},
                    {"$match":{"$expr":{"$eq":["$lang","en"]}}},
                    {"$project":{"name": 1, "address": 1}},
                    {"$project":{"_id": 0}},
                    {"$limit":10}
                ]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 10);
        assert!(out[0].get_path("name").as_str().is_some());
        assert!(out[0].get_path("_id").is_missing());
        assert!(out[0].get_path("lang").is_missing());
    }

    #[test]
    fn id_is_assigned_and_kept_by_inclusion_projection() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{}},{"$project":{"lang":1}},{"$limit":1}]"#,
            )
            .unwrap();
        assert!(!out[0].get_path("_id").is_missing());
        assert_eq!(store.count_documents("Test.Users").unwrap(), 50);
    }

    #[test]
    fn group_pipeline() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$match":{}},
                    {"$group":{"_id":{"lang":"$lang"},"cnt":{"$sum":1}}},
                    {"$addFields":{"lang":"$_id.lang"}},
                    {"$project":{"_id":0}}
                ]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        let en = out
            .iter()
            .find(|d| d.get_path("lang") == Value::str("en"))
            .unwrap();
        assert_eq!(en.get_path("cnt"), Value::Int(30));
    }

    #[test]
    fn scalar_group_min_max() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$match":{}},
                    {"$project":{"age":1}},
                    {"$group":{"_id":{},"max":{"$max":"$age"}}},
                    {"$project":{"_id":0}}
                ]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_path("max"), Value::Int(49));
    }

    #[test]
    fn count_on_empty_selection_emits_nothing() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{"$expr":{"$eq":["$lang","zz"]}}},{"$count":"count"}]"#,
            )
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn sort_limit_backward_scan() {
        let store = users_store();
        store.create_index("Test.Users", "age").unwrap();
        let explain = store
            .explain(
                "Test.Users",
                r#"[{"$match":{}},{"$sort":{"age":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
            )
            .unwrap();
        assert!(explain.contains("IXSCAN ordered(age desc)"), "{explain}");
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{}},{"$sort":{"age":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].get_path("age"), Value::Int(49));
    }

    #[test]
    fn lookup_unwind_count_join() {
        let store = users_store();
        store.create_collection("Test.Users2").unwrap();
        store
            .insert_many(
                "Test.Users2",
                (0..25i64).map(|i| record! {"name" => format!("user{i}"), "age" => 20 + (i % 30)}),
            )
            .unwrap();
        store.create_index("Test.Users2", "name").unwrap();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$lookup":{"from":"Test.Users2","as":"m",
                        "let":{"left":"$name"},
                        "pipeline":[{"$match":{}},{"$match":{"$expr":{"$eq":["$name","$$left"]}}}]}},
                    {"$unwind":{"path":"$m","preserveNullAndEmptyArrays":false}},
                    {"$count":"count"}
                ]"#,
            )
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(25));
    }

    #[test]
    fn missing_value_count_via_lt_null() {
        let store = DocStore::new();
        store.create_collection("c").unwrap();
        store
            .insert_many(
                "c",
                (0..20i64).map(|i| {
                    if i % 10 == 0 {
                        record! {"a" => i} // "tenPercent" missing
                    } else {
                        record! {"a" => i, "tenPercent" => i % 10}
                    }
                }),
            )
            .unwrap();
        let out = store
            .aggregate(
                "c",
                r#"[{"$match":{}},{"$match":{"$expr":{"$lt":["$tenPercent", null]}}},{"$count":"count"}]"#,
            )
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(2));
    }

    #[test]
    fn out_stage_writes_collection() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{"$expr":{"$eq":["$lang","en"]}}},{"$out":"Test.EnUsers"}]"#,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(store.count_documents("Test.EnUsers").unwrap(), 30);
    }

    #[test]
    fn index_eq_explain() {
        let store = users_store();
        store.create_index("Test.Users", "lang").unwrap();
        let explain = store
            .explain(
                "Test.Users",
                r#"[{"$match":{}},{"$match":{"$expr":{"$eq":["$lang","en"]}}},{"$count":"c"}]"#,
            )
            .unwrap();
        assert!(explain.contains("IXSCAN eq(lang)"), "{explain}");
    }

    /// A reader that pinned its snapshot before a write committed must
    /// cache the plan it compiles under *that snapshot's* version: the
    /// insert below makes the `k` index incomplete, so an ordered index
    /// scan — correct for the pinned state — would drop the new document
    /// if a later reader were served it.
    #[test]
    fn plan_compiled_against_an_old_pin_is_not_served_to_newer_snapshots() {
        let pipeline = r#"[{"$match":{}},{"$sort":{"k":1}},{"$limit":5}]"#;
        let load = |docs: Vec<Record>| {
            let store = DocStore::new();
            store.create_collection("c").unwrap();
            store.create_index("c", "k").unwrap();
            store.insert_many("c", docs).unwrap();
            store
        };
        let store = load(vec![record! {"k" => 1i64}, record! {"k" => 2i64}]);
        let old_pin = store.pin().unwrap();
        store.insert_many("c", vec![record! {"x" => 0i64}]).unwrap();

        let stale = store.compiled(&old_pin, "c", pipeline).unwrap();
        assert!(stale.plan.body.describe().contains("IXSCAN"));

        let misses = store.plan_cache_stats().misses;
        let fresh = load(vec![
            record! {"k" => 1i64},
            record! {"k" => 2i64},
            record! {"x" => 0i64},
        ]);
        assert_eq!(
            store.aggregate("c", pipeline).unwrap(),
            fresh.aggregate("c", pipeline).unwrap()
        );
        assert_eq!(store.plan_cache_stats().misses, misses + 1);
    }

    #[test]
    fn unknown_collection_errors() {
        let store = DocStore::new();
        assert!(store.aggregate("nope", r#"[{"$match":{}}]"#).is_err());
        assert!(store.count_documents("nope").is_err());
    }
}
