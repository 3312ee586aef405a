//! Sharded SQL/SQL++ cluster (AsterixDB cluster / Greenplum).

use crate::coordinator::Coordinator;
use crate::partition::{shard_for, ShardMap, SHARD_SLOTS};
use crate::resilience::ShardPolicy;
use crate::stats::{ExecMode, QueryStats};
use crate::topology::ShardSet;
use polyframe_datamodel::{cmp_total, Record, Value};
use polyframe_sqlengine::plan::distributed::{split, DistributedQuery};
use polyframe_sqlengine::{Engine, EngineConfig, EngineError, Result};
use polyframe_storage::wal::DurableOp;
use polyframe_storage::CheckpointPolicy;
use std::ops::Deref;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A hash-partitioned cluster of SQL engines. Dereferences to its
/// [`Coordinator`] for the shard, fault, replication and stats calls
/// every cluster shares.
pub struct SqlCluster {
    /// The coordinator over the shard leaders, their replica sets and
    /// the slot table routing keys to shards (fault sites
    /// `sql-cluster/shard[i]...`).
    coordinator: Coordinator<Engine, ShardMap>,
    /// Attribute used to place records on shards.
    partition_key: String,
}

impl Deref for SqlCluster {
    type Target = Coordinator<Engine, ShardMap>;

    fn deref(&self) -> &Coordinator<Engine, ShardMap> {
        &self.coordinator
    }
}

impl SqlCluster {
    /// Build a cluster of `n` shards sharing one engine configuration.
    /// Shard dispatch defaults to [`ExecMode::auto`].
    pub fn new(n: usize, config: EngineConfig, partition_key: impl Into<String>) -> SqlCluster {
        SqlCluster::with_mode(n, config, partition_key, ExecMode::auto(n))
    }

    /// Build a cluster with an explicit dispatch mode.
    pub fn with_mode(
        n: usize,
        mut config: EngineConfig,
        partition_key: impl Into<String>,
        mode: ExecMode,
    ) -> SqlCluster {
        // Budget cores jointly: shards × morsel workers ≤ available cores
        // (sequential dispatch hands each shard the full budget instead).
        // Follower replicas and split-off shards reuse the same config.
        config.exec.workers = mode.workers_per_shard(n);
        let shards = ShardSet::new("sql-cluster", n, ShardMap::new(n), move || {
            Engine::new(config.clone())
        });
        SqlCluster {
            coordinator: Coordinator::new(shards, mode),
            partition_key: partition_key.into(),
        }
    }

    /// Create a dataset on every shard.
    pub fn create_dataset(
        &self,
        namespace: &str,
        dataset: &str,
        primary_key: Option<&str>,
    ) -> Result<()> {
        for s in &self.shards.read().shards {
            s.create_dataset(namespace, dataset, primary_key)?;
        }
        Ok(())
    }

    /// Create a secondary index on every shard.
    pub fn create_index(&self, namespace: &str, dataset: &str, attribute: &str) -> Result<()> {
        for s in &self.shards.read().shards {
            s.create_index(namespace, dataset, attribute)?;
        }
        Ok(())
    }

    /// Hash-partition records across the shards and load them, one
    /// thread per shard.
    pub fn load(
        &self,
        namespace: &str,
        dataset: &str,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<()> {
        self.write(
            records,
            |routing, _, rec| routing.shard_of(&rec.get_or_missing(&self.partition_key)),
            |shard, bucket| shard.load(namespace, dataset, bucket),
        )
    }

    /// Total records across shards.
    pub fn dataset_len(&self, namespace: &str, dataset: &str) -> Result<usize> {
        let mut n = 0;
        for s in &self.shards.read().shards {
            n += s.dataset_len(namespace, dataset)?;
        }
        Ok(n)
    }

    /// Split hot shard `i` online: the upper half of its virtual slots
    /// moves to a new shard appended at index `num_shards()`, migrating
    /// under traffic and cutting over at a pinned LSN. Returns the new
    /// shard's index.
    ///
    /// Phase 1 runs under a **read** lock — loads and queries keep
    /// flowing (and a promotion of the source shard is excluded) while
    /// the leader's committed LSN is pinned and two fresh engines
    /// (retained and moved halves) are seeded from the pinned snapshot,
    /// records routed by slot. Phase 2 takes the **write** lock (no
    /// writer in flight), replays the committed tail past the pin to
    /// both halves, swaps the retained engine in, appends the moved
    /// one, and reassigns the slot table. Results are byte-identical
    /// across the cutover; if the pin was invalidated in the handoff
    /// window (promotion, checkpoint truncation), the split reseeds
    /// from scratch under the write lock instead of guessing.
    pub fn split_shard(&self, i: usize) -> Result<usize> {
        // Phase 1: seed both halves off the pinned snapshot, under
        // traffic.
        let (moved_slots, policy, leader, pin, retained, moved) = {
            let topo = self.shards.read();
            if i >= topo.shards.len() {
                return Err(EngineError::exec(format!("no shard {i} to split")));
            }
            let policy = topo.checkpoint_policy()?;
            let moved_slots = topo.routing.split_candidates(i);
            if moved_slots.is_empty() {
                return Err(EngineError::exec(format!(
                    "shard {i} owns too few slots to split"
                )));
            }
            let leader = Arc::clone(&topo.shards[i]);
            let (ops, pin) = leader.pinned_ops()?;
            let (retained, moved) = self.seed_split_engines(&ops, &moved_slots, policy)?;
            (moved_slots, policy, leader, pin, retained, moved)
        };

        // Phase 2: cut over at the pin under the write lock.
        let mut topo = self.shards.write();
        let tail = if Arc::ptr_eq(&topo.shards[i], &leader) {
            leader
                .wal_handle()
                .and_then(|w| w.committed_tail(pin).ok().flatten())
        } else {
            None
        };
        let (retained, moved) = match tail {
            Some(tail) => {
                let ops: Vec<DurableOp> = tail.into_iter().map(|(_, op)| op).collect();
                self.apply_split_ops(&ops, &moved_slots, &retained, &moved)?;
                (retained, moved)
            }
            None => {
                let leader = Arc::clone(&topo.shards[i]);
                let (ops, _) = leader.pinned_ops()?;
                self.seed_split_engines(&ops, &moved_slots, policy)?
            }
        };
        let new_shard = topo.shards.len();
        topo.shards[i] = Arc::clone(&retained);
        topo.shards.push(Arc::clone(&moved));
        topo.routing.reassign(&moved_slots, new_shard);
        // Both halves are new engines, so both need fresh replica sets;
        // the old set (tracking the pre-split leader) retires with it.
        if topo.replicas_per_shard > 0 {
            let n = topo.replicas_per_shard;
            topo.replicas[i] = Some(self.shards.replica_set_for(i, &retained, n, policy)?);
            let moved_set = self.shards.replica_set_for(new_shard, &moved, n, policy)?;
            topo.replicas.push(Some(moved_set));
        } else {
            topo.replicas.push(None);
        }
        Ok(new_shard)
    }

    /// Two fresh durable engines seeded from `ops`, records routed to
    /// the moved half when their partition key hashes into
    /// `moved_slots`.
    fn seed_split_engines(
        &self,
        ops: &[DurableOp],
        moved_slots: &[usize],
        policy: CheckpointPolicy,
    ) -> Result<(Arc<Engine>, Arc<Engine>)> {
        let retained = self.shards.spawn_durable(policy)?;
        let moved = self.shards.spawn_durable(policy)?;
        self.apply_split_ops(ops, moved_slots, &retained, &moved)?;
        Ok((retained, moved))
    }

    /// Apply `ops` to both split halves: DDL goes to both, ingested
    /// records go to exactly one side by slot.
    fn apply_split_ops(
        &self,
        ops: &[DurableOp],
        moved_slots: &[usize],
        retained: &Arc<Engine>,
        moved: &Arc<Engine>,
    ) -> Result<()> {
        let mut mask = [false; SHARD_SLOTS];
        for &s in moved_slots {
            mask[s] = true;
        }
        for op in ops {
            match op {
                DurableOp::Ingest {
                    namespace,
                    name,
                    records,
                } => {
                    let (mut keep, mut go) = (Vec::new(), Vec::new());
                    for rec in records {
                        let key = rec.get_or_missing(&self.partition_key);
                        if mask[ShardMap::slot_of(&key)] {
                            go.push(rec.clone());
                        } else {
                            keep.push(rec.clone());
                        }
                    }
                    if !keep.is_empty() {
                        retained.load(namespace, name, keep)?;
                    }
                    if !go.is_empty() {
                        moved.load(namespace, name, go)?;
                    }
                }
                other => {
                    retained.commit(other.clone())?;
                    moved.commit(other.clone())?;
                }
            }
        }
        Ok(())
    }

    /// Execute a query across the cluster with the default (no-failover)
    /// shard policy.
    pub fn query(&self, sql: &str) -> Result<Vec<Value>> {
        self.query_with(sql, &ShardPolicy::default())
    }

    /// Execute a query across the cluster under an explicit shard
    /// resilience policy (failover re-dispatch and, on opt-in, partial
    /// results from the surviving shards).
    pub fn query_with(&self, sql: &str, policy: &ShardPolicy) -> Result<Vec<Value>> {
        Ok(self.query_with_stats(sql, policy)?.0)
    }

    /// [`SqlCluster::query_with`], also returning this query's stats.
    pub fn query_with_stats(
        &self,
        sql: &str,
        policy: &ShardPolicy,
    ) -> Result<(Vec<Value>, QueryStats)> {
        let compile_start = Instant::now();
        // Compile once (the coordinator's plan; every shard shares the same
        // catalog shape).
        let logical = self.shard(0).compile_to_logical(sql)?;
        let query = split(&logical)?;
        let compile = compile_start.elapsed();

        match query.shard_plan() {
            Some(plan) => self.gather(
                compile,
                policy,
                |engine| engine.execute_logical(plan),
                |parts| query.merge(parts),
            ),
            None => self.repartition_join_count(compile, &query, policy),
        }
    }

    /// Parallel repartition join + count over two datasets' join-key
    /// indexes:
    ///
    /// 1. each shard extracts its sorted join keys (index-only) for both
    ///    sides and buckets them by hash — one unit of shard work, run
    ///    with per-shard failover under `policy`;
    /// 2. one task per partition merges its left/right keys and counts
    ///    pair products — the merge critical path is the slowest
    ///    partition — and `query` merges the partition counts.
    fn repartition_join_count(
        &self,
        compile: Duration,
        query: &DistributedQuery,
        policy: &ShardPolicy,
    ) -> Result<(Vec<Value>, QueryStats)> {
        let DistributedQuery::JoinCount { left, right, .. } = query else {
            return Err(EngineError::plan("a repartition join needs a join count"));
        };
        let n = self.num_shards();

        // Phase 1: per-shard key extraction + bucketing (both sides).
        let bucketize = |keys: Vec<Value>| {
            let mut buckets: Vec<Vec<Value>> = (0..n).map(|_| Vec::new()).collect();
            for k in keys {
                buckets[shard_for(&k, n)].push(k);
            }
            buckets
        };
        let (mut extract, recovery) = self.scatter(policy, |shard| {
            let l = bucketize(shard.index_keys(&left.0, &left.1, &left.2)?);
            let r = bucketize(shard.index_keys(&right.0, &right.1, &right.2)?);
            Ok((l, r))
        })?;
        let mut left_parts: Vec<Vec<Value>> = (0..n).map(|_| Vec::new()).collect();
        let mut right_parts: Vec<Vec<Value>> = (0..n).map(|_| Vec::new()).collect();
        for (lbuckets, rbuckets) in std::mem::take(&mut extract.parts) {
            for (i, b) in lbuckets.into_iter().enumerate() {
                left_parts[i].extend(b);
            }
            for (i, b) in rbuckets.into_iter().enumerate() {
                right_parts[i].extend(b);
            }
        }

        // Phase 2: per-partition merge counts; critical path = slowest.
        let partitions =
            self.mode
                .fan_out(left_parts.into_iter().zip(right_parts), |(mut l, mut r)| {
                    let start = Instant::now();
                    l.sort_by(cmp_total);
                    r.sort_by(cmp_total);
                    (merge_count(&l, &r), start.elapsed())
                });
        let merge = partitions.iter().map(|(_, t)| *t).max().unwrap_or_default();
        let counts = partitions
            .into_iter()
            .map(|(c, _)| vec![Value::Int(c as i64)])
            .collect();
        let rows = query.merge(counts);
        let stats = self.record(compile, merge, extract, &recovery);
        Ok((rows?, stats))
    }

    /// EXPLAIN helper: how the coordinator would distribute `sql`.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let logical = self.shard(0).compile_to_logical(sql)?;
        let d = split(&logical)?;
        Ok(match d {
            DistributedQuery::Concat { limit, .. } => format!("Concat(limit={limit:?})"),
            DistributedQuery::ScalarAgg { .. } => "ScalarAgg(partial->merge)".to_string(),
            DistributedQuery::GroupAgg { group_names, .. } => {
                format!("GroupAgg(regroup on {group_names:?})")
            }
            DistributedQuery::TopK { limit, .. } => format!("TopK(limit={limit})"),
            DistributedQuery::JoinCount { .. } => "RepartitionJoinCount".to_string(),
        })
    }
}

/// Count merge-join matches between two sorted key vectors.
fn merge_count(left: &[Value], right: &[Value]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < left.len() && j < right.len() {
        match cmp_total(&left[i], &right[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let key = &left[i];
                let mut li = 0;
                while i < left.len() && cmp_total(&left[i], key) == std::cmp::Ordering::Equal {
                    li += 1;
                    i += 1;
                }
                let mut rj = 0;
                while j < right.len() && cmp_total(&right[j], key) == std::cmp::Ordering::Equal {
                    rj += 1;
                    j += 1;
                }
                count += li * rj;
            }
        }
    }
    count
}

/// Convenience re-export of the engine error type.
pub type SqlClusterError = EngineError;

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;
    use polyframe_observe::FaultPlan;

    fn cluster(n: usize) -> SqlCluster {
        cluster_with(n, ExecMode::auto(n))
    }

    fn cluster_with(n: usize, mode: ExecMode) -> SqlCluster {
        let c = SqlCluster::with_mode(n, EngineConfig::asterixdb(), "id", mode);
        c.create_dataset("Test", "Users", Some("id")).unwrap();
        c.load(
            "Test",
            "Users",
            (0..100i64).map(|i| {
                record! {
                    "id" => i,
                    "grp" => i % 4,
                    "val" => i * 2,
                }
            }),
        )
        .unwrap();
        c.create_index("Test", "Users", "val").unwrap();
        c
    }

    #[test]
    fn data_is_partitioned() {
        let c = cluster(4);
        assert_eq!(c.dataset_len("Test", "Users").unwrap(), 100);
        // Each shard holds a strict subset.
        for i in 0..4 {
            let n = c.shard(i).dataset_len("Test", "Users").unwrap();
            assert!(n > 0 && n < 100, "shard {i} has {n}");
        }
    }

    #[test]
    fn count_matches_single_node() {
        let c = cluster(3);
        let rows = c.query("SELECT VALUE COUNT(*) FROM Test.Users").unwrap();
        assert_eq!(rows, vec![Value::Int(100)]);
    }

    #[test]
    fn filtered_count() {
        let c = cluster(3);
        let rows = c
            .query("SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.grp = 2) t")
            .unwrap();
        assert_eq!(rows, vec![Value::Int(25)]);
    }

    #[test]
    fn group_by_regroups() {
        let c = cluster(4);
        let rows = c
            .query("SELECT grp, COUNT(grp) AS cnt FROM (SELECT VALUE t FROM Test.Users t) t GROUP BY grp")
            .unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(row.get_path("cnt"), Value::Int(25));
        }
    }

    #[test]
    fn min_max_avg_across_shards() {
        let c = cluster(4);
        let rows = c
            .query("SELECT MAX(val) FROM (SELECT val FROM (SELECT VALUE t FROM Test.Users t) t) t")
            .unwrap();
        assert_eq!(rows[0].get_path("max"), Value::Int(198));
        let rows = c
            .query("SELECT AVG(id) FROM (SELECT id FROM (SELECT VALUE t FROM Test.Users t) t) t")
            .unwrap();
        assert_eq!(rows[0].get_path("avg"), Value::Double(49.5));
    }

    #[test]
    fn topk_merges_sorted() {
        let c = cluster(4);
        let rows = c
            .query("SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t ORDER BY t.id DESC LIMIT 5")
            .unwrap();
        let ids: Vec<i64> = rows
            .iter()
            .map(|r| r.get_path("id").as_i64().unwrap())
            .collect();
        assert_eq!(ids, vec![99, 98, 97, 96, 95]);
    }

    #[test]
    fn pipeline_limit() {
        let c = cluster(2);
        let rows = c
            .query("SELECT grp FROM (SELECT VALUE t FROM Test.Users t) t LIMIT 7")
            .unwrap();
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn join_count_repartitions() {
        let c = cluster(3);
        // Self-join on id: every record matches exactly once.
        let rows = c
            .query(
                "SELECT VALUE COUNT(*) FROM (SELECT l, r FROM Test.Users l JOIN Test.Users r ON l.id = r.id) t",
            )
            .unwrap();
        assert_eq!(rows, vec![Value::Int(100)]);
        assert_eq!(
            c.explain("SELECT VALUE COUNT(*) FROM (SELECT l, r FROM Test.Users l JOIN Test.Users r ON l.id = r.id) t")
                .unwrap(),
            "RepartitionJoinCount"
        );
    }

    #[test]
    fn results_agree_with_single_shard() {
        // A filter only one shard satisfies: the other shards send empty
        // partials.
        let one = "(SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.id = 7)";
        let ordered = [
            "SELECT VALUE COUNT(*) FROM Test.Users".to_string(),
            "SELECT MIN(val) FROM (SELECT val FROM (SELECT VALUE t FROM Test.Users t) t) t"
                .to_string(),
            "SELECT grp, COUNT(grp) AS cnt FROM (SELECT VALUE t FROM Test.Users t) t GROUP BY grp"
                .to_string(),
            format!("SELECT VALUE COUNT(*) FROM {one} t"),
            format!("SELECT AVG(val) FROM (SELECT val FROM {one} t) t"),
            format!("SELECT MIN(val) FROM (SELECT val FROM {one} t) t"),
            // ORDER BY ... LIMIT with ties across shards.
            "SELECT grp FROM (SELECT VALUE t FROM Test.Users t) t ORDER BY grp DESC LIMIT 9"
                .to_string(),
        ];
        // A LIMIT larger than the table: concatenation order is shard
        // order, so compare the row sets.
        let unordered =
            ["SELECT id, grp FROM (SELECT VALUE t FROM Test.Users t) t LIMIT 1000".to_string()];
        for mode in [ExecMode::Threads, ExecMode::Sequential] {
            let single = cluster_with(1, mode);
            let multi = cluster_with(4, mode);
            for q in &ordered {
                assert_eq!(
                    single.query(q).unwrap(),
                    multi.query(q).unwrap(),
                    "{mode:?} {q}"
                );
            }
            for q in &unordered {
                let (mut a, mut b) = (single.query(q).unwrap(), multi.query(q).unwrap());
                a.sort_by(cmp_total);
                b.sort_by(cmp_total);
                assert_eq!(a.len(), 100, "{q}");
                assert_eq!(a, b, "{mode:?} {q}");
            }
        }
    }

    #[test]
    fn failover_recovers_from_injected_faults() {
        let baseline = cluster(3)
            .query("SELECT VALUE COUNT(*) FROM Test.Users")
            .unwrap();
        let c = cluster(3);
        let plan = Arc::new(FaultPlan::new(5).with_error_rate(1.0).with_max_faults(2));
        c.set_fault_plan(Some(Arc::clone(&plan)));
        let rows = c
            .query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::failover(3),
            )
            .unwrap();
        assert_eq!(rows, baseline);
        assert_eq!(plan.faults_injected(), 2);
        let stats = c.last_stats().unwrap();
        assert!(stats.failovers > 0);
        assert!(stats.dropped_shards.is_empty());
    }

    #[test]
    fn partial_results_drop_failed_shard_on_opt_in() {
        let c = cluster(4);
        c.set_fault_plan(Some(Arc::new(
            FaultPlan::new(1).with_error_rate(1.0).for_sites("shard[2]"),
        )));
        // Without the explicit opt-in, a dead shard fails the query.
        assert!(c
            .query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::failover(1),
            )
            .is_err());
        // With it, the count covers the surviving shards and the gap is
        // recorded.
        let rows = c
            .query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::failover(1).with_allow_partial(true),
            )
            .unwrap();
        let lost = c.shard(2).dataset_len("Test", "Users").unwrap() as i64;
        assert_eq!(rows, vec![Value::Int(100 - lost)]);
        let stats = c.last_stats().unwrap();
        assert_eq!(stats.dropped_shards, vec![2]);
        assert_eq!(stats.shard_times.len(), 4);
    }

    #[test]
    fn crashed_shard_rebuilds_from_its_log() {
        let c = SqlCluster::new(3, EngineConfig::asterixdb(), "id");
        c.enable_durability(CheckpointPolicy::never()).unwrap();
        c.create_dataset("Test", "Users", Some("id")).unwrap();
        c.load(
            "Test",
            "Users",
            (0..100i64).map(|i| record! {"id" => i, "grp" => i % 4}),
        )
        .unwrap();
        // Kill shard 1 on its first dispatch: it must rebuild from its
        // own log and the failover re-dispatch then sees the full data.
        c.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(
            9,
            "sql-cluster/shard[1]",
            0,
        ))));
        let rows = c
            .query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::failover(2),
            )
            .unwrap();
        assert_eq!(rows, vec![Value::Int(100)]);
        let stats = c.last_stats().unwrap();
        assert_eq!(stats.recovered_shards, 1);
        assert!(
            stats.replayed_records > 0,
            "shard 1 should replay its create+load records"
        );
        let spans = stats.to_spans();
        let recovery = spans
            .iter()
            .find(|s| s.name() == "recovery")
            .expect("recovery span in the trace tree");
        assert_eq!(recovery.metric("recovered_shards"), Some(1));
        assert_eq!(
            recovery.metric("replayed_records"),
            Some(stats.replayed_records as i64)
        );
    }

    #[test]
    fn crash_without_durability_is_a_plain_transient() {
        let c = cluster(3);
        c.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(
            9,
            "sql-cluster/shard[1]",
            0,
        ))));
        // No log to rebuild from: the crash degrades to a transient
        // failure, failover still answers, nothing claims recovery.
        let rows = c
            .query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::failover(2),
            )
            .unwrap();
        assert_eq!(rows, vec![Value::Int(100)]);
        let stats = c.last_stats().unwrap();
        assert_eq!(stats.recovered_shards, 0);
        assert!(stats.to_spans().iter().all(|s| s.name() != "recovery"));
    }

    fn durable_cluster(n: usize, records: i64) -> SqlCluster {
        let c = SqlCluster::new(n, EngineConfig::asterixdb(), "id");
        c.enable_durability(CheckpointPolicy::never()).unwrap();
        c.create_dataset("Test", "Users", Some("id")).unwrap();
        c.load(
            "Test",
            "Users",
            (0..records).map(|i| record! {"id" => i, "grp" => i % 4}),
        )
        .unwrap();
        c
    }

    #[test]
    fn crashed_shard_promotes_a_follower_instead_of_rebuilding() {
        let c = durable_cluster(3, 100);
        c.enable_replication(2).unwrap();
        // Followers are fully caught up before the crash.
        for shard in c.replication_status() {
            assert_eq!(shard.len(), 2);
            assert!(shard.iter().all(|s| s.fresh && s.lag == 0), "{shard:?}");
        }
        c.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(
            9,
            "sql-cluster/shard[1]",
            0,
        ))));
        let rows = c
            .query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::failover(2),
            )
            .unwrap();
        assert_eq!(rows, vec![Value::Int(100)]);
        let stats = c.last_stats().unwrap();
        assert_eq!(stats.promotions, 1, "crash healed by promotion");
        assert_eq!(stats.recovered_shards, 0, "no full rebuild happened");
        // Everything was shipped before the crash, so the promotion
        // replayed nothing.
        assert_eq!(stats.replayed_records, 0);
        let spans = stats.to_spans();
        let recovery = spans
            .iter()
            .find(|s| s.name() == "recovery")
            .expect("promotion shows up in the recovery span");
        assert_eq!(recovery.metric("promotions"), Some(1));
        // The demoted ex-leader joined the set as a stale follower;
        // healing rebuilds it off the critical path.
        assert_eq!(c.heal_replicas(), 1);
        let status = c.replication_status();
        assert!(status[1].iter().all(|s| s.fresh && s.lag == 0));
    }

    #[test]
    fn replica_reads_serve_from_caught_up_followers() {
        let baseline = durable_cluster(2, 80);
        let c = durable_cluster(2, 80);
        c.enable_replication(1).unwrap();
        let policy = ShardPolicy::default().with_prefer_replica(true);
        let q = "SELECT VALUE COUNT(*) FROM Test.Users";
        assert_eq!(
            c.query_with(q, &policy).unwrap(),
            baseline.query(q).unwrap()
        );
        // A stalled (lagging) follower is never read: lose every shipped
        // frame on shard 0, write through it, and the query must fall
        // back to the leader and still see the new rows.
        c.set_fault_plan(Some(Arc::new(
            FaultPlan::new(3)
                .with_error_rate(1.0)
                .for_sites("shard[0]/wal/ship"),
        )));
        c.load(
            "Test",
            "Users",
            (80..160i64).map(|i| record! {"id" => i, "grp" => i % 4}),
        )
        .unwrap();
        c.set_fault_plan(None);
        assert_eq!(c.query_with(q, &policy).unwrap(), vec![Value::Int(160)]);
        let lagging: usize = c
            .replication_status()
            .iter()
            .flatten()
            .filter(|s| s.lag > 0)
            .count();
        assert!(lagging >= 1, "shard 0's follower should have stalled");
        // Healing drains the lag and replica reads resume.
        c.heal_replicas();
        assert!(c
            .replication_status()
            .iter()
            .flatten()
            .all(|s| s.fresh && s.lag == 0));
    }

    #[test]
    fn split_shard_preserves_results_and_moves_only_split_slots() {
        let c = durable_cluster(2, 200);
        c.create_index("Test", "Users", "grp").unwrap();
        let q =
            "SELECT grp, COUNT(grp) AS cnt FROM (SELECT VALUE t FROM Test.Users t) t GROUP BY grp";
        let before = c.query(q).unwrap();
        let count_before = c.shard(0).dataset_len("Test", "Users").unwrap();

        let new_shard = c.split_shard(0).unwrap();
        assert_eq!(new_shard, 2);
        assert_eq!(c.num_shards(), 3);
        // The split shard's records moved only between the two halves.
        let kept = c.shard(0).dataset_len("Test", "Users").unwrap();
        let moved = c.shard(2).dataset_len("Test", "Users").unwrap();
        assert_eq!(kept + moved, count_before);
        assert!(kept > 0 && moved > 0, "kept={kept} moved={moved}");
        assert_eq!(c.dataset_len("Test", "Users").unwrap(), 200);
        // Byte-identical results across the cutover.
        assert_eq!(c.query(q).unwrap(), before);
        // New writes route by the updated slot table.
        c.load(
            "Test",
            "Users",
            (200..260i64).map(|i| record! {"id" => i, "grp" => i % 4}),
        )
        .unwrap();
        assert_eq!(c.dataset_len("Test", "Users").unwrap(), 260);
        assert_eq!(
            c.query("SELECT VALUE COUNT(*) FROM Test.Users").unwrap(),
            vec![Value::Int(260)]
        );
    }

    #[test]
    fn split_shard_reseeds_replicas_for_both_halves() {
        let c = durable_cluster(2, 120);
        c.enable_replication(1).unwrap();
        let new_shard = c.split_shard(1).unwrap();
        let status = c.replication_status();
        assert_eq!(status.len(), 3);
        for (i, shard) in status.iter().enumerate() {
            assert_eq!(shard.len(), 1, "shard {i} keeps one replica");
            assert!(
                shard.iter().all(|s| s.fresh && s.lag == 0),
                "shard {i}: {shard:?}"
            );
        }
        // Replica reads still answer correctly on the split topology.
        assert_eq!(
            c.query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::default().with_prefer_replica(true),
            )
            .unwrap(),
            vec![Value::Int(120)]
        );
        // A crash on the new shard promotes its replica.
        c.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(
            11,
            format!("sql-cluster/shard[{new_shard}]"),
            0,
        ))));
        let rows = c
            .query_with(
                "SELECT VALUE COUNT(*) FROM Test.Users",
                &ShardPolicy::failover(2),
            )
            .unwrap();
        assert_eq!(rows, vec![Value::Int(120)]);
        assert_eq!(c.last_stats().unwrap().promotions, 1);
    }

    #[test]
    fn splitting_an_unsplittable_shard_fails_cleanly() {
        let c = durable_cluster(1, 10);
        // Shard 0 owns all 64 slots: split until a shard runs out.
        assert!(c.split_shard(0).is_ok());
        assert!(c.split_shard(5).is_err(), "no shard 5 yet");
        let undurable = SqlCluster::new(2, EngineConfig::asterixdb(), "id");
        assert!(undurable.split_shard(0).is_err(), "split needs durability");
    }

    #[test]
    fn both_modes_agree_and_record_stats() {
        for mode in [ExecMode::Threads, ExecMode::Sequential] {
            let c = SqlCluster::with_mode(3, EngineConfig::asterixdb(), "id", mode);
            c.create_dataset("Test", "Users", Some("id")).unwrap();
            c.load(
                "Test",
                "Users",
                (0..60i64).map(|i| record! {"id" => i, "grp" => i % 3}),
            )
            .unwrap();
            let rows = c.query("SELECT VALUE COUNT(*) FROM Test.Users").unwrap();
            assert_eq!(rows, vec![Value::Int(60)], "{mode:?}");
            let stats = c.take_stats();
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].shard_times.len(), 3);
            assert!(stats[0].simulated_wall() > Duration::ZERO);
            assert!(c.take_stats().is_empty());
        }
    }

    /// With the partition key equal to the primary key, every copy of a
    /// key routes to one shard, whose primary-key rule rejects it.
    #[test]
    fn repeated_primary_keys_are_rejected() {
        let c = cluster(3);
        let batches = [
            vec![record! {"id" => 500i64}, record! {"id" => 500i64}],
            vec![record! {"id" => 7i64, "grp" => 9i64}],
        ];
        for batch in batches {
            let err = c.load("Test", "Users", batch.clone()).unwrap_err();
            assert!(
                matches!(err, EngineError::DuplicateKey(_)),
                "{batch:?}: {err}"
            );
            assert_eq!(c.dataset_len("Test", "Users").unwrap(), 100, "{batch:?}");
        }
        let rows = c.query("SELECT VALUE COUNT(*) FROM Test.Users").unwrap();
        assert_eq!(rows, vec![Value::Int(100)]);
    }
}
