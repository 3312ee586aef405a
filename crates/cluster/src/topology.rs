//! The shard-topology block both clusters are built on: shard leaders,
//! their replica sets, durability/replication enablement, replica read
//! routing and crash healing, generic over the node type.

use crate::replicate::{NodeError, ReplicaNode, ReplicaSet, ReplicaStatus};
use crate::resilience::{shard_fault, ShardFault, ShardPolicy};
use crate::stats::RecoveryCounters;
use polyframe_observe::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use polyframe_observe::FaultPlan;
use polyframe_storage::wal::WalObserver;
use polyframe_storage::{CheckpointPolicy, DurableError, LogMedia, RecoveryReport};
use std::sync::Arc;
use std::time::Instant;

/// The mutable cluster shape: shard leaders, their replica sets, and the
/// cluster's key-routing state `R`. Guarded by one `RwLock` — writes hold
/// it for reading (they go to current leaders), queries snapshot handles
/// briefly, and topology changes (promotion, split) take it for writing
/// so no write can land on a stale leader.
pub(crate) struct Topology<N, R> {
    pub shards: Vec<Arc<N>>,
    pub replicas: Vec<Option<Arc<ReplicaSet<N>>>>,
    pub routing: R,
    pub replicas_per_shard: usize,
    wal_policy: Option<CheckpointPolicy>,
}

/// A cluster's shards: the [`Topology`], how to build an empty node, and
/// the fault plan consulted at the shard-dispatch boundary (sites
/// `<name>/shard[i]`) and the replication sites
/// (`<name>/shard[i]/wal/ship[j]`, `.../replica/apply[j]`).
pub(crate) struct ShardSet<N, R> {
    name: &'static str,
    spawn: Box<dyn Fn() -> N + Send + Sync>,
    topology: RwLock<Topology<N, R>>,
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl<N: ReplicaNode, R> Topology<N, R> {
    /// The checkpoint policy durability was enabled with.
    pub fn checkpoint_policy(&self) -> Result<CheckpointPolicy, NodeError<N>> {
        Ok(self.wal_policy.ok_or(DurableError::NotDurable)?)
    }
}

impl<N: ReplicaNode, R> ShardSet<N, R> {
    pub fn new(
        name: &'static str,
        n: usize,
        routing: R,
        spawn: impl Fn() -> N + Send + Sync + 'static,
    ) -> ShardSet<N, R> {
        assert!(n >= 1, "a cluster needs at least one shard");
        ShardSet {
            name,
            topology: RwLock::new(Topology {
                shards: (0..n).map(|_| Arc::new(spawn())).collect(),
                replicas: (0..n).map(|_| None).collect(),
                routing,
                replicas_per_shard: 0,
                wal_policy: None,
            }),
            spawn: Box::new(spawn),
            faults: Mutex::new(None),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, Topology<N, R>> {
        self.topology.read()
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, Topology<N, R>> {
        self.topology.write()
    }

    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock() = plan.clone();
        for set in self.read().replicas.iter().flatten() {
            set.set_faults(plan.clone());
        }
    }

    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    pub fn num_shards(&self) -> usize {
        self.read().shards.len()
    }

    /// The current leader of shard `i`. The handle outlives promotions —
    /// re-fetch to see the new leader.
    pub fn shard(&self, i: usize) -> Arc<N> {
        Arc::clone(&self.read().shards[i])
    }

    /// An empty node logging to its own fresh media.
    pub fn spawn_durable(&self, policy: CheckpointPolicy) -> Result<Arc<N>, NodeError<N>> {
        let node = (self.spawn)();
        node.shell().enable_durability(LogMedia::new(), policy)?;
        Ok(Arc::new(node))
    }

    /// Give every shard its own write-ahead log (a fresh [`LogMedia`]
    /// per shard, as each node of a real cluster owns its own disk) and
    /// recover whatever committed state each log holds.
    pub fn enable_durability(
        &self,
        policy: CheckpointPolicy,
    ) -> Result<Vec<RecoveryReport>, NodeError<N>> {
        let mut topo = self.write();
        topo.wal_policy = Some(policy);
        topo.shards
            .iter()
            .map(|s| s.shell().enable_durability(LogMedia::new(), policy))
            .collect()
    }

    /// Give every shard `n` follower replicas maintained by WAL shipping.
    /// Requires durability.
    pub fn enable_replication(&self, n: usize) -> Result<(), NodeError<N>> {
        let mut topo = self.write();
        let policy = topo.checkpoint_policy()?;
        topo.replicas_per_shard = n;
        for i in 0..topo.shards.len() {
            topo.replicas[i] = Some(self.replica_set_for(i, &topo.shards[i], n, policy)?);
        }
        Ok(())
    }

    /// Build a replica set of `n` empty followers for `leader`, seed
    /// them from its pinned snapshot, and install the set as the
    /// leader's WAL observer so every later commit ships synchronously.
    pub fn replica_set_for(
        &self,
        shard: usize,
        leader: &Arc<N>,
        n: usize,
        policy: CheckpointPolicy,
    ) -> Result<Arc<ReplicaSet<N>>, NodeError<N>> {
        let set = Arc::new(ReplicaSet::new(self.name, shard));
        set.set_faults(self.fault_plan());
        for _ in 0..n {
            set.add_follower(leader.as_ref(), self.spawn_durable(policy)?)?;
        }
        let wal = leader
            .shell()
            .wal_handle()
            .ok_or(DurableError::NotDurable)?;
        wal.set_observer(Some(Arc::clone(&set) as Arc<dyn WalObserver>));
        // Drain anything committed between the seed pin and the observer
        // install.
        set.catch_up(&wal);
        Ok(set)
    }

    /// Per-shard replica status (cursor, lag, freshness), outer index =
    /// shard. Shards without replication report an empty list.
    pub fn replication_status(&self) -> Vec<Vec<ReplicaStatus>> {
        let topo = self.read();
        topo.shards
            .iter()
            .zip(&topo.replicas)
            .map(|(leader, set)| match (set, leader.shell().wal_handle()) {
                (Some(set), Some(wal)) => set.status(wal.next_lsn()),
                _ => Vec::new(),
            })
            .collect()
    }

    /// Off-critical-path repair: rebuild stale followers (demoted
    /// ex-leaders, apply-faulted replicas) from their own logs and drain
    /// lagging fresh followers from their leader's committed log.
    /// Returns how many stale followers were rebuilt.
    pub fn heal_replicas(&self) -> usize {
        let topo = self.read();
        let mut healed = 0;
        for (leader, set) in topo.shards.iter().zip(&topo.replicas) {
            if let Some(set) = set {
                healed += set.heal_stale();
                if let Some(wal) = leader.shell().wal_handle() {
                    set.catch_up(&wal);
                }
            }
        }
        healed
    }

    /// The node one attempt at shard `i`'s work runs against, after
    /// consulting the fault plan at the shard boundary: an injected crash
    /// heals the shard and fails the attempt as transient. Otherwise a
    /// fully caught-up follower when replica reads are preferred and one
    /// exists (a lagging replica is never read), else the leader —
    /// re-fetched per attempt, so a failover after a promotion dispatches
    /// against the new leader.
    pub fn dispatch(
        &self,
        i: usize,
        policy: &ShardPolicy,
        recovery: &RecoveryCounters,
    ) -> Result<Arc<N>, NodeError<N>> {
        match shard_fault(self.fault_plan().as_deref(), self.name, i) {
            Some(ShardFault::Transient(msg)) => return Err(DurableError::Transient(msg).into()),
            Some(ShardFault::Crash(msg)) => return Err(self.recover_shard(i, msg, recovery)),
            None => {}
        }
        let topo = self.read();
        let leader = Arc::clone(&topo.shards[i]);
        if policy.prefer_replica {
            if let (Some(set), Some(wal)) = (&topo.replicas[i], leader.shell().wal_handle()) {
                if let Some(node) = set.read_replica(wal.next_lsn()) {
                    return Ok(node);
                }
            }
        }
        Ok(leader)
    }

    /// Handle an injected crash on shard `i`. Preference order:
    ///
    /// 1. **Promotion** — under the topology write lock (so no write can
    ///    land on the stale leader), promote the freshest follower,
    ///    replaying only the committed-but-unshipped WAL tail, hand the
    ///    replica set over to the new leader's WAL, and demote the
    ///    ex-leader to a stale follower.
    /// 2. **Full rebuild** — no promotable follower: replay the shard's
    ///    entire log (snapshot + tail) in place.
    /// 3. Without a log the crash degrades to a plain transient fault.
    ///
    /// All paths report a transient failure so the failover loop
    /// re-dispatches against the healed shard.
    fn recover_shard(&self, i: usize, msg: String, recovery: &RecoveryCounters) -> NodeError<N> {
        let start = Instant::now();
        let leader = {
            let mut topo = self.write();
            let leader = Arc::clone(&topo.shards[i]);
            if let (Some(set), Some(wal)) = (topo.replicas[i].clone(), leader.shell().wal_handle())
            {
                if let Some(p) = set.promote(&wal, Arc::clone(&leader)) {
                    wal.set_observer(None);
                    if let Some(new_wal) = p.node.shell().wal_handle() {
                        new_wal.set_observer(Some(Arc::clone(&set) as Arc<dyn WalObserver>));
                        set.catch_up(&new_wal);
                    }
                    topo.shards[i] = p.node;
                    recovery.record_promotion(p.replayed, start.elapsed());
                    return DurableError::Transient(format!(
                        "{msg}; promoted follower replica (replayed {} tail records)",
                        p.replayed
                    ))
                    .into();
                }
            }
            leader
        };
        if !leader.shell().durability_enabled() {
            return DurableError::Transient(msg).into();
        }
        match leader.shell().recover() {
            Ok(report) => {
                recovery.record(report.replayed_records, start.elapsed());
                DurableError::Transient(format!("{msg}; shard rebuilt from log")).into()
            }
            Err(e) => e,
        }
    }
}
