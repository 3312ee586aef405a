//! The coordinator shell both cluster front-ends share.
//!
//! A distributed query is a pair: the work every shard runs, and how the
//! coordinator merges the shards' parts. [`Coordinator`] owns what is the
//! same for every store — the shard set, the dispatch mode, the per-query
//! stats — and runs that pair through one `gather`: scatter the shard
//! work with failover, time the merge, record the [`QueryStats`]. The
//! front-ends ([`crate::SqlCluster`], [`crate::MongoCluster`]) keep only
//! what differs per store (routing, plan splitting and legality, the SQL
//! repartition join) and reach the shell by `Deref`.

use crate::replicate::{NodeError, ReplicaNode, ReplicaStatus};
use crate::resilience::{run_resilient, ShardOutcome, ShardPolicy};
use crate::stats::{ExecMode, QueryStats, RecoveryCounters, StatsRecorder};
use crate::topology::ShardSet;
use polyframe_datamodel::Value;
use polyframe_observe::FaultPlan;
use polyframe_storage::{CheckpointPolicy, DurableError, RecoveryReport, StoreError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cluster's shards behind one coordinator: shard topology, dispatch
/// mode and per-query stats, generic over the shard node `N` and the
/// key-routing state `R`.
pub struct Coordinator<N, R> {
    pub(crate) shards: ShardSet<N, R>,
    pub(crate) mode: ExecMode,
    stats: StatsRecorder,
}

impl<N: ReplicaNode, R: Send + Sync> Coordinator<N, R> {
    pub(crate) fn new(shards: ShardSet<N, R>, mode: ExecMode) -> Coordinator<N, R> {
        Coordinator {
            shards,
            mode,
            stats: StatsRecorder::new(),
        }
    }

    /// Install (or clear) a fault-injection plan consulted before every
    /// shard dispatch (sites `<cluster>/shard[i]`) and at the WAL
    /// shipping / replica apply sites.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.shards.set_fault_plan(plan);
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.shards.fault_plan()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.num_shards()
    }

    /// The current leader of shard `i` (tests, benches). The handle
    /// outlives promotions — re-fetch to see the new leader.
    pub fn shard(&self, i: usize) -> Arc<N> {
        self.shards.shard(i)
    }

    /// Drain the accumulated simulated-parallel elapsed time (see
    /// [`crate::stats`]): the sum over recorded queries of
    /// `compile + max(shard) + merge`.
    pub fn take_simulated_elapsed(&self) -> Duration {
        self.stats.take_simulated_elapsed()
    }

    /// Drain the raw per-query stats.
    pub fn take_stats(&self) -> Vec<QueryStats> {
        self.stats.take()
    }

    /// Peek at the stats of the most recently recorded query without
    /// draining. Under concurrent queries this may be another caller's
    /// query; the `*_with_stats` entry points return a query's own.
    pub fn last_stats(&self) -> Option<QueryStats> {
        self.stats.last()
    }

    /// Give every shard its own write-ahead log (fresh media per shard,
    /// as each node of a real cluster owns its own disk) and recover
    /// whatever committed state each log holds. A shard that crashes
    /// mid-query afterwards rebuilds from its own log before rejoining.
    pub fn enable_durability(
        &self,
        policy: CheckpointPolicy,
    ) -> Result<Vec<RecoveryReport>, NodeError<N>> {
        self.shards.enable_durability(policy)
    }

    /// Give every shard `n` follower replicas maintained by WAL
    /// shipping: each committed frame on a leader is shipped in order to
    /// its followers, a crash promotes the freshest follower (replaying
    /// only the committed-but-unshipped tail), and fully caught-up
    /// followers can serve snapshot reads (see
    /// [`ShardPolicy::prefer_replica`]). Requires durability.
    pub fn enable_replication(&self, replicas_per_shard: usize) -> Result<(), NodeError<N>> {
        self.shards.enable_replication(replicas_per_shard)
    }

    /// Per-shard replica status (cursor, lag, freshness), outer index =
    /// shard. Shards without replication report an empty list.
    pub fn replication_status(&self) -> Vec<Vec<ReplicaStatus>> {
        self.shards.replication_status()
    }

    /// Off-critical-path repair: rebuild stale followers (demoted
    /// ex-leaders, apply-faulted replicas) from their own logs and drain
    /// lagging fresh followers from their leader's committed log.
    /// Returns how many stale followers were rebuilt.
    pub fn heal_replicas(&self) -> usize {
        self.shards.heal_replicas()
    }

    /// Route `items` to shards with `route(routing, shards, item)` and
    /// write each shard's batch on its own thread. The topology is held
    /// for reading across the whole write so a promotion or split cannot
    /// swap a leader out from under it.
    pub(crate) fn write<T, E>(
        &self,
        items: impl IntoIterator<Item = T>,
        route: impl Fn(&R, usize, &T) -> usize,
        write: impl Fn(&N, Vec<T>) -> Result<(), E> + Sync,
    ) -> Result<(), E>
    where
        T: Send,
        E: Send,
    {
        let topo = self.shards.read();
        let n = topo.shards.len();
        let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        for item in items {
            buckets[route(&topo.routing, n, &item)].push(item);
        }
        ExecMode::Threads
            .fan_out(topo.shards.iter().zip(buckets), |(shard, bucket)| {
                write(shard, bucket)
            })
            .into_iter()
            .collect()
    }

    /// Run `work` on every shard (its current leader or, under
    /// [`ShardPolicy::prefer_replica`], a caught-up follower), timing
    /// each shard, with per-shard failover under `policy`.
    pub(crate) fn scatter<T: Send>(
        &self,
        policy: &ShardPolicy,
        work: impl Fn(&N) -> Result<T, NodeError<N>> + Sync,
    ) -> Result<(ShardOutcome<T>, RecoveryCounters), NodeError<N>> {
        let recovery = RecoveryCounters::new();
        let out = run_resilient(self.num_shards(), self.mode, policy, is_transient, |i| {
            let node = self.shards.dispatch(i, policy, &recovery)?;
            work(&node)
        })?;
        Ok((out, recovery))
    }

    /// Record one query's stats and return them.
    pub(crate) fn record<T>(
        &self,
        compile: Duration,
        merge: Duration,
        scatter: ShardOutcome<T>,
        recovery: &RecoveryCounters,
    ) -> QueryStats {
        let mut stats = QueryStats {
            compile,
            shard_times: scatter.shard_times,
            merge,
            failovers: scatter.failovers,
            dropped_shards: scatter.dropped_shards,
            ..QueryStats::default()
        };
        recovery.fold_into(&mut stats);
        self.stats.record(stats.clone());
        stats
    }

    /// One distributed query: scatter `shard_work`, merge the surviving
    /// shards' parts (in shard order) with `merge`, and record the
    /// query's stats — also when the merge fails. Returns the merged rows
    /// with this query's own stats.
    pub(crate) fn gather<T: Send>(
        &self,
        compile: Duration,
        policy: &ShardPolicy,
        shard_work: impl Fn(&N) -> Result<T, NodeError<N>> + Sync,
        merge: impl FnOnce(Vec<T>) -> Result<Vec<Value>, NodeError<N>>,
    ) -> Result<(Vec<Value>, QueryStats), NodeError<N>> {
        let (mut scatter, recovery) = self.scatter(policy, shard_work)?;
        let merge_start = Instant::now();
        let rows = merge(std::mem::take(&mut scatter.parts));
        let stats = self.record(compile, merge_start.elapsed(), scatter, &recovery);
        Ok((rows?, stats))
    }
}

/// Whether a shard error is worth re-dispatching: any store's transient
/// shell failure.
fn is_transient<E: StoreError>(e: &E) -> bool {
    matches!(e.durable(), Some(DurableError::Transient(_)))
}
