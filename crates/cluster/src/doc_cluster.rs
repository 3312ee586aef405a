//! Sharded MongoDB ("mongos") cluster.

use crate::partition::shard_for;
use crate::replicate::ReplicaStatus;
use crate::resilience::{run_resilient, ShardOutcome, ShardPolicy};
use crate::stats::{ExecMode, QueryStats, RecoveryCounters, StatsRecorder};
use crate::topology::ShardSet;
use polyframe_datamodel::{Record, Value};
use polyframe_docstore::distributed::{
    apply_stages_to_rows, merge_counts, merge_groups, merge_topk, partial_group, split,
    MongoDistributed,
};
use polyframe_docstore::{DocError, DocStore, Result};
use polyframe_observe::FaultPlan;
use polyframe_storage::{CheckpointPolicy, RecoveryReport};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A hash-partitioned cluster of document stores behind a mongos-style
/// router.
pub struct MongoCluster {
    /// Shard primaries and their replica sets (fault sites
    /// `mongo-cluster/shard[i]...`). `_id` routing is fixed modulo-`n`
    /// (mongos-style), so unlike [`crate::SqlCluster`] there is no slot
    /// table and no online split — but crash promotion and replica reads
    /// work the same way.
    shards: ShardSet<DocStore, ()>,
    next_id: AtomicI64,
    mode: ExecMode,
    stats: StatsRecorder,
}

impl MongoCluster {
    /// Build a cluster of `n` shards (dispatch mode: [`ExecMode::auto`]).
    pub fn new(n: usize) -> MongoCluster {
        MongoCluster::with_mode(n, ExecMode::auto(n))
    }

    /// Build a cluster with an explicit dispatch mode.
    pub fn with_mode(n: usize, mode: ExecMode) -> MongoCluster {
        MongoCluster {
            shards: ShardSet::new("mongo-cluster", n, (), DocStore::new),
            next_id: AtomicI64::new(1),
            mode,
            stats: StatsRecorder::new(),
        }
    }

    /// Install (or clear) a fault-injection plan consulted before every
    /// shard dispatch (sites `mongo-cluster/shard[i]`) and at the WAL
    /// shipping / replica apply sites.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.shards.set_fault_plan(plan);
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.shards.fault_plan()
    }

    /// Drain the accumulated simulated-parallel elapsed time
    /// (`compile + max(shard) + merge` per query; see `crate::stats`).
    pub fn take_simulated_elapsed(&self) -> Duration {
        self.stats.take_simulated_elapsed()
    }

    /// Drain the raw per-query stats.
    pub fn take_stats(&self) -> Vec<QueryStats> {
        self.stats.take()
    }

    /// Peek at the stats of the most recent query without draining.
    pub fn last_stats(&self) -> Option<QueryStats> {
        self.stats.last()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.num_shards()
    }

    /// The current primary store of shard `i`. The handle outlives
    /// promotions — re-fetch to see the new primary.
    pub fn shard(&self, i: usize) -> Arc<DocStore> {
        self.shards.shard(i)
    }

    /// Create a collection on every shard.
    pub fn create_collection(&self, name: &str) -> Result<()> {
        for s in &self.shards.read().shards {
            s.create_collection(name)?;
        }
        Ok(())
    }

    /// Give every shard its own write-ahead log (fresh media per shard,
    /// as each node of a real cluster owns its own disk) and recover
    /// whatever committed state each log holds. A shard that crashes
    /// mid-query afterwards rebuilds from its own log before rejoining.
    pub fn enable_durability(&self, policy: CheckpointPolicy) -> Result<Vec<RecoveryReport>> {
        self.shards.enable_durability(policy)
    }

    /// Give every shard `n` secondary replicas maintained by WAL
    /// shipping (the mongos replica-set analogue): committed frames
    /// ship in order, a crash promotes the freshest secondary replaying
    /// only the committed-but-unshipped tail, and caught-up secondaries
    /// can serve reads (see [`ShardPolicy::prefer_replica`]). Requires
    /// durability.
    pub fn enable_replication(&self, replicas_per_shard: usize) -> Result<()> {
        self.shards.enable_replication(replicas_per_shard)
    }

    /// Per-shard replica status (cursor, lag, freshness), outer index =
    /// shard. Shards without replication report an empty list.
    pub fn replication_status(&self) -> Vec<Vec<ReplicaStatus>> {
        self.shards.replication_status()
    }

    /// Off-critical-path repair: rebuild stale secondaries from their
    /// own logs and drain lagging fresh ones from their primary's
    /// committed log. Returns how many stale secondaries were rebuilt.
    pub fn heal_replicas(&self) -> usize {
        self.shards.heal_replicas()
    }

    /// Insert documents, assigning cluster-wide `_id`s and routing by
    /// `_id` hash.
    pub fn insert_many(
        &self,
        collection: &str,
        docs: impl IntoIterator<Item = Record>,
    ) -> Result<usize> {
        // Held for reading across the whole insert so a promotion
        // cannot swap a primary out from under an in-flight write.
        let topo = self.shards.read();
        let n = topo.shards.len();
        let mut buckets: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
        let mut total = 0;
        for mut doc in docs {
            if !doc.contains("_id") {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let mut with_id = Record::with_capacity(doc.len() + 1);
                with_id.insert("_id", id);
                for (k, v) in doc.iter() {
                    with_id.insert(k.to_string(), v.clone());
                }
                doc = with_id;
            }
            let key = doc.get_or_missing("_id");
            buckets[shard_for(&key, n)].push(doc);
            total += 1;
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (shard, bucket) in topo.shards.iter().zip(buckets) {
                let shard = Arc::clone(shard);
                let collection = collection.to_string();
                handles.push(scope.spawn(move || shard.insert_many(&collection, bucket)));
            }
            for h in handles {
                h.join().expect("shard insert thread panicked")?;
            }
            Ok::<(), DocError>(())
        })?;
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
        let compile_start = Instant::now();
        let stages = polyframe_docstore::parse_pipeline(pipeline_json)?;
        let strategy = split(&stages)?;
        let compile = compile_start.elapsed();

        match strategy {
            MongoDistributed::Concat {
                shard_stages,
                limit,
            } => {
                let (mut scatter, recovery) =
                    self.run_shards(collection, policy, move |shard, coll| {
                        shard.aggregate_stages(coll, &shard_stages)
                    })?;
                let merge_start = Instant::now();
                let parts = std::mem::take(&mut scatter.parts);
                let mut rows: Vec<Value> = parts.into_iter().flatten().collect();
                if let Some(n) = limit {
                    rows.truncate(n as usize);
                }
                self.record(compile, merge_start.elapsed(), scatter, &recovery);
                Ok(rows)
            }
            MongoDistributed::SumCount {
                shard_stages,
                name,
                post,
            } => {
                let (mut scatter, recovery) =
                    self.run_shards(collection, policy, move |shard, coll| {
                        shard.aggregate_stages(coll, &shard_stages)
                    })?;
                let merge_start = Instant::now();
                let parts = std::mem::take(&mut scatter.parts);
                let merged = merge_counts(parts, &name);
                let out = apply_stages_to_rows(merged, &post);
                self.record(compile, merge_start.elapsed(), scatter, &recovery);
                out
            }
            MongoDistributed::Regroup {
                shard_stages,
                id,
                accs,
                post,
            } => {
                // Each shard runs the pre-group prefix AND the partial
                // grouping, so the reduction happens shard-side.
                let accs_for_merge = accs.clone();
                let (mut scatter, recovery) =
                    self.run_shards(collection, policy, move |shard, coll| {
                        let rows = shard.aggregate_stages(coll, &shard_stages)?;
                        partial_group(rows, &id, &accs)
                    })?;
                let merge_start = Instant::now();
                let parts = std::mem::take(&mut scatter.parts);
                let merged = merge_groups(parts, &accs_for_merge)?;
                let out = apply_stages_to_rows(merged, &post);
                self.record(compile, merge_start.elapsed(), scatter, &recovery);
                out
            }
            MongoDistributed::TopK {
                shard_stages,
                sort,
                limit,
                post,
            } => {
                let (mut scatter, recovery) =
                    self.run_shards(collection, policy, move |shard, coll| {
                        shard.aggregate_stages(coll, &shard_stages)
                    })?;
                let merge_start = Instant::now();
                let parts = std::mem::take(&mut scatter.parts);
                let merged = merge_topk(parts, &sort, limit);
                let out = apply_stages_to_rows(merged, &post);
                self.record(compile, merge_start.elapsed(), scatter, &recovery);
                out
            }
        }
    }

    fn record<T>(
        &self,
        compile: Duration,
        merge: Duration,
        scatter: ShardOutcome<T>,
        recovery: &RecoveryCounters,
    ) {
        let mut stats = QueryStats {
            compile,
            shard_times: scatter.shard_times,
            merge,
            failovers: scatter.failovers,
            dropped_shards: scatter.dropped_shards,
            ..QueryStats::default()
        };
        recovery.fold_into(&mut stats);
        self.stats.record(stats);
    }

    /// Run one unit of work per shard, timing each, with per-shard
    /// failover under `policy`.
    fn run_shards<F>(
        &self,
        collection: &str,
        policy: &ShardPolicy,
        work: F,
    ) -> Result<(ShardOutcome<Vec<Value>>, RecoveryCounters)>
    where
        F: Fn(&DocStore, &str) -> Result<Vec<Value>> + Sync,
    {
        let recovery = RecoveryCounters::new();
        let out = run_resilient(
            self.num_shards(),
            self.mode,
            policy,
            DocError::is_transient,
            |i| {
                let store = self.shards.dispatch(i, policy, &recovery)?;
                work(&store, collection)
            },
        )?;
        Ok((out, recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;
    use polyframe_docstore::DocError;

    fn cluster(n: usize) -> MongoCluster {
        let c = MongoCluster::new(n);
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
        let single = cluster(1);
        let multi = cluster(4);
        for q in [
            r#"[{"$match":{}},{"$count":"count"}]"#,
            r#"[{"$match":{}},{"$group":{"_id":{},"avg":{"$avg":"$val"}}},{"$project":{"_id":0}}]"#,
        ] {
            assert_eq!(
                single.aggregate("d", q).unwrap(),
                multi.aggregate("d", q).unwrap(),
                "{q}"
            );
        }
    }
}
