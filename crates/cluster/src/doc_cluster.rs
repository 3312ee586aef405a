//! Sharded MongoDB ("mongos") cluster.

use crate::coordinator::Coordinator;
use crate::partition::shard_for;
use crate::resilience::ShardPolicy;
use crate::stats::{ExecMode, QueryStats};
use crate::topology::ShardSet;
use polyframe_datamodel::{Record, Value};
use polyframe_docstore::distributed::{apply_stages_to_rows, split};
use polyframe_docstore::{assign_ids, DocStore, Result};
use polyframe_observe::sync::Mutex;
use std::ops::Deref;
use std::time::Instant;

/// A hash-partitioned cluster of document stores behind a mongos-style
/// router. Dereferences to its [`Coordinator`] for the shard, fault,
/// replication and stats calls every cluster shares.
pub struct MongoCluster {
    /// The coordinator over the shard primaries and their replica sets
    /// (fault sites `mongo-cluster/shard[i]...`). `_id` routing is fixed
    /// modulo-`n` (mongos-style), so unlike [`crate::SqlCluster`] there
    /// is no slot table and no online split — but crash promotion and
    /// replica reads work the same way.
    coordinator: Coordinator<DocStore, ()>,
    /// The next `_id` the router assigns (see [`assign_ids`]).
    next_id: Mutex<i64>,
}

impl Deref for MongoCluster {
    type Target = Coordinator<DocStore, ()>;

    fn deref(&self) -> &Coordinator<DocStore, ()> {
        &self.coordinator
    }
}

impl MongoCluster {
    /// Build a cluster of `n` shards (dispatch mode: [`ExecMode::auto`]).
    pub fn new(n: usize) -> MongoCluster {
        MongoCluster::with_mode(n, ExecMode::auto(n))
    }

    /// Build a cluster with an explicit dispatch mode.
    pub fn with_mode(n: usize, mode: ExecMode) -> MongoCluster {
        let shards = ShardSet::new("mongo-cluster", n, (), DocStore::new);
        MongoCluster {
            coordinator: Coordinator::new(shards, mode),
            next_id: Mutex::new(1),
        }
    }

    /// Create a collection on every shard.
    pub fn create_collection(&self, name: &str) -> Result<()> {
        for s in &self.shards.read().shards {
            s.create_collection(name)?;
        }
        Ok(())
    }

    /// Insert documents, assigning cluster-wide `_id`s (the single-node
    /// store's rule, [`assign_ids`], over the router's counter) and
    /// routing by `_id` hash, one thread per shard.
    pub fn insert_many(
        &self,
        collection: &str,
        docs: impl IntoIterator<Item = Record>,
    ) -> Result<usize> {
        let mut docs: Vec<Record> = docs.into_iter().collect();
        {
            let mut next_id = self.next_id.lock();
            *next_id = assign_ids(&mut docs, *next_id);
        }
        let total = docs.len();
        self.write(
            docs,
            |_, n, doc| shard_for(&doc.get_or_missing("_id"), n),
            |shard, bucket| shard.insert_many(collection, bucket).map(drop),
        )?;
        Ok(total)
    }

    /// Create a secondary index on every shard.
    pub fn create_index(&self, collection: &str, attribute: &str) -> Result<()> {
        for s in &self.shards.read().shards {
            s.create_index(collection, attribute)?;
        }
        Ok(())
    }

    /// Total documents across shards (metadata, O(shards)).
    pub fn count_documents(&self, collection: &str) -> Result<usize> {
        let mut total = 0;
        for s in &self.shards.read().shards {
            total += s.count_documents(collection)?;
        }
        Ok(total)
    }

    /// Run an aggregation pipeline across the cluster with the default
    /// (no-failover) shard policy. `$lookup` pipelines are rejected (the
    /// paper's expression-12 restriction).
    pub fn aggregate(&self, collection: &str, pipeline_json: &str) -> Result<Vec<Value>> {
        self.aggregate_with(collection, pipeline_json, &ShardPolicy::default())
    }

    /// Run an aggregation pipeline across the cluster under an explicit
    /// shard resilience policy (failover re-dispatch and, on opt-in,
    /// partial results from the surviving shards).
    pub fn aggregate_with(
        &self,
        collection: &str,
        pipeline_json: &str,
        policy: &ShardPolicy,
    ) -> Result<Vec<Value>> {
        Ok(self
            .aggregate_with_stats(collection, pipeline_json, policy)?
            .0)
    }

    /// [`MongoCluster::aggregate_with`], also returning this query's
    /// stats. Every shard runs the pipeline's shard stages; the
    /// coordinator runs its merge stages over their concatenated rows.
    pub fn aggregate_with_stats(
        &self,
        collection: &str,
        pipeline_json: &str,
        policy: &ShardPolicy,
    ) -> Result<(Vec<Value>, QueryStats)> {
        let compile_start = Instant::now();
        let stages = polyframe_docstore::parse_pipeline(pipeline_json)?;
        let split = split(&stages)?;
        let compile = compile_start.elapsed();
        self.gather(
            compile,
            policy,
            |shard| shard.aggregate_stages(collection, &split.shard_stages),
            |parts| {
                apply_stages_to_rows(parts.into_iter().flatten().collect(), &split.merge_stages)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;
    use polyframe_docstore::DocError;
    use polyframe_observe::FaultPlan;
    use polyframe_storage::CheckpointPolicy;
    use std::sync::Arc;

    fn cluster(n: usize) -> MongoCluster {
        cluster_with(n, ExecMode::auto(n))
    }

    fn cluster_with(n: usize, mode: ExecMode) -> MongoCluster {
        let c = MongoCluster::with_mode(n, mode);
        c.create_collection("d").unwrap();
        c.insert_many(
            "d",
            (0..100i64).map(|i| record! {"grp" => i % 4, "val" => i}),
        )
        .unwrap();
        c.create_index("d", "val").unwrap();
        c
    }

    #[test]
    fn partitioned_and_counted() {
        let c = cluster(4);
        assert_eq!(c.count_documents("d").unwrap(), 100);
        for i in 0..4 {
            let n = c.shard(i).count_documents("d").unwrap();
            assert!(n > 0 && n < 100, "shard {i}: {n}");
        }
    }

    #[test]
    fn pipeline_count_sums() {
        let c = cluster(3);
        let out = c
            .aggregate("d", r#"[{"$match":{}},{"$count":"count"}]"#)
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(100));
    }

    #[test]
    fn empty_count_emits_nothing() {
        let c = cluster(3);
        let out = c
            .aggregate(
                "d",
                r#"[{"$match":{"$expr":{"$eq":["$grp",99]}}},{"$count":"count"}]"#,
            )
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn group_regroups() {
        let c = cluster(4);
        let out = c
            .aggregate(
                "d",
                r#"[{"$match":{}},{"$group":{"_id":{"grp":"$grp"},"mx":{"$max":"$val"},"cnt":{"$sum":1}}},{"$addFields":{"grp":"$_id.grp"}},{"$project":{"_id":0}}]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 4);
        for row in &out {
            assert_eq!(row.get_path("cnt"), Value::Int(25));
        }
        let g3 = out
            .iter()
            .find(|r| r.get_path("grp") == Value::Int(3))
            .unwrap();
        assert_eq!(g3.get_path("mx"), Value::Int(99));
    }

    #[test]
    fn topk_across_shards() {
        let c = cluster(4);
        let out = c
            .aggregate(
                "d",
                r#"[{"$match":{}},{"$sort":{"val":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
            )
            .unwrap();
        let vals: Vec<i64> = out
            .iter()
            .map(|r| r.get_path("val").as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![99, 98, 97, 96, 95]);
        assert!(out[0].get_path("_id").is_missing());
    }

    #[test]
    fn lookup_rejected_on_sharded_collections() {
        let c = cluster(2);
        let err = c
            .aggregate(
                "d",
                r#"[{"$lookup":{"from":"d","as":"m","let":{"left":"$val"},
                    "pipeline":[{"$match":{"$expr":{"$eq":["$val","$$left"]}}}]}},
                   {"$unwind":{"path":"$m","preserveNullAndEmptyArrays":false}},
                   {"$count":"count"}]"#,
            )
            .unwrap_err();
        assert!(matches!(err, DocError::ShardedLookup(_)));
    }

    #[test]
    fn failover_and_partial_degradation() {
        // Failover: the first two dispatches fail, re-dispatch recovers
        // the full result.
        let c = cluster(3);
        let plan = Arc::new(FaultPlan::new(8).with_error_rate(1.0).with_max_faults(2));
        c.set_fault_plan(Some(Arc::clone(&plan)));
        let out = c
            .aggregate_with(
                "d",
                r#"[{"$match":{}},{"$count":"count"}]"#,
                &ShardPolicy::failover(3),
            )
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(100));
        assert_eq!(plan.faults_injected(), 2);
        assert!(c.last_stats().unwrap().failovers > 0);

        // Partial: a permanently dead shard fails the query unless the
        // caller opts into partial results.
        let c = cluster(3);
        c.set_fault_plan(Some(Arc::new(
            FaultPlan::new(1).with_error_rate(1.0).for_sites("shard[0]"),
        )));
        let q = r#"[{"$match":{}},{"$count":"count"}]"#;
        assert!(c.aggregate_with("d", q, &ShardPolicy::default()).is_err());
        let out = c
            .aggregate_with("d", q, &ShardPolicy::default().with_allow_partial(true))
            .unwrap();
        let lost = c.shard(0).count_documents("d").unwrap() as i64;
        assert_eq!(out[0].get_path("count"), Value::Int(100 - lost));
        assert_eq!(c.last_stats().unwrap().dropped_shards, vec![0]);
    }

    #[test]
    fn crashed_shard_rebuilds_from_its_log() {
        let c = MongoCluster::new(3);
        c.enable_durability(CheckpointPolicy::never()).unwrap();
        c.create_collection("d").unwrap();
        c.insert_many(
            "d",
            (0..100i64).map(|i| record! {"grp" => i % 4, "val" => i}),
        )
        .unwrap();
        c.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(
            9,
            "mongo-cluster/shard[1]",
            0,
        ))));
        let out = c
            .aggregate_with(
                "d",
                r#"[{"$match":{}},{"$count":"count"}]"#,
                &ShardPolicy::failover(2),
            )
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(100));
        let stats = c.last_stats().unwrap();
        assert_eq!(stats.recovered_shards, 1);
        assert!(stats.replayed_records > 0);
        assert!(stats.to_spans().iter().any(|s| s.name() == "recovery"));
    }

    #[test]
    fn crashed_shard_promotes_a_secondary() {
        let c = MongoCluster::new(3);
        c.enable_durability(CheckpointPolicy::never()).unwrap();
        c.create_collection("d").unwrap();
        c.insert_many(
            "d",
            (0..100i64).map(|i| record! {"grp" => i % 4, "val" => i}),
        )
        .unwrap();
        c.enable_replication(1).unwrap();
        assert!(c
            .replication_status()
            .iter()
            .flatten()
            .all(|s| s.fresh && s.lag == 0));
        c.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(
            9,
            "mongo-cluster/shard[1]",
            0,
        ))));
        let out = c
            .aggregate_with(
                "d",
                r#"[{"$match":{}},{"$count":"count"}]"#,
                &ShardPolicy::failover(2),
            )
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(100));
        let stats = c.last_stats().unwrap();
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.recovered_shards, 0);
        // Demoted ex-primary rejoined stale; healing rebuilds it.
        assert_eq!(c.heal_replicas(), 1);
        // Replica reads answer identically after the promotion.
        let replica_read = c
            .aggregate_with(
                "d",
                r#"[{"$match":{}},{"$count":"count"}]"#,
                &ShardPolicy::default().with_prefer_replica(true),
            )
            .unwrap();
        assert_eq!(replica_read[0].get_path("count"), Value::Int(100));
    }

    #[test]
    fn agrees_with_single_shard() {
        // `val = 7` holds on one document, so on one shard: the others
        // send empty partials.
        let ordered = [
            r#"[{"$match":{}},{"$count":"count"}]"#,
            r#"[{"$match":{}},{"$group":{"_id":{},"avg":{"$avg":"$val"}}},{"$project":{"_id":0}}]"#,
            r#"[{"$match":{"$expr":{"$eq":["$val",7]}}},{"$count":"count"}]"#,
            r#"[{"$match":{"$expr":{"$eq":["$val",7]}}},{"$group":{"_id":{},"avg":{"$avg":"$val"},"min":{"$min":"$val"},"sd":{"$stdDevPop":"$val"}}}]"#,
            // `$sort` + `$limit` with ties across shards.
            r#"[{"$sort":{"grp":-1}},{"$project":{"grp":1,"_id":0}},{"$limit":9}]"#,
            // `$sort` with no `$limit`.
            r#"[{"$match":{}},{"$sort":{"val":-1}},{"$project":{"_id":0}}]"#,
        ];
        // A `$limit` larger than the collection: concatenation order is
        // shard order, so compare the document sets.
        let unordered = [r#"[{"$match":{}},{"$limit":1000}]"#];
        for mode in [ExecMode::Threads, ExecMode::Sequential] {
            let single = cluster_with(1, mode);
            let multi = cluster_with(4, mode);
            for q in ordered {
                assert_eq!(
                    single.aggregate("d", q).unwrap(),
                    multi.aggregate("d", q).unwrap(),
                    "{mode:?} {q}"
                );
            }
            for q in unordered {
                let mut a = single.aggregate("d", q).unwrap();
                let mut b = multi.aggregate("d", q).unwrap();
                a.sort_by(polyframe_datamodel::cmp_total);
                b.sort_by(polyframe_datamodel::cmp_total);
                assert_eq!(a.len(), 100, "{q}");
                assert_eq!(a, b, "{mode:?} {q}");
            }
        }
    }

    #[test]
    fn assigned_ids_skip_explicit_ones() {
        let c = MongoCluster::new(3);
        c.create_collection("c").unwrap();
        c.insert_many(
            "c",
            [record! {"_id" => 1i64, "a" => 1i64}, record! {"a" => 2i64}],
        )
        .unwrap();
        c.insert_many("c", [record! {"_id" => 5i64}]).unwrap();
        c.insert_many("c", [record! {"a" => 3i64}]).unwrap();
        let mut ids: Vec<Value> = c
            .aggregate("c", r#"[{"$match":{}},{"$project":{"_id":1}}]"#)
            .unwrap()
            .iter()
            .map(|d| d.get_path("_id"))
            .collect();
        ids.sort_by(polyframe_datamodel::cmp_total);
        assert_eq!(ids, [1i64, 2, 5, 6].map(Value::Int));
    }
}
