//! WAL-shipped follower replicas and deterministic crash promotion.
//!
//! The per-shard write-ahead log is already a serialized, CRC-framed op
//! stream; this module turns it into a replication log. A
//! [`ReplicaSet`] installs itself as the leader WAL's
//! [`WalObserver`]: every committed frame is *shipped* to each follower
//! in LSN order (the observer runs under the WAL's state lock, so
//! deliveries can never reorder or race) and applied through the
//! follower's own durable path. Followers dedupe by LSN — a follower
//! whose cursor does not match the shipped frame simply stalls and
//! tracks lag until [`ReplicaSet::catch_up`] replays the missing frames
//! straight off the leader's media.
//!
//! **Promotion.** When a shard leader crashes, the freshest follower is
//! promoted in place of today's full rebuild-from-log: only the
//! committed-but-unshipped tail (`Wal::committed_tail` from the
//! follower's cursor) is replayed, which is bounded by the replication
//! lag rather than by the shard's entire history. The ex-leader is
//! demoted to a *stale* follower — its media holds everything, so
//! [`ReplicaSet::heal_stale`] can rebuild it from its own log off the
//! critical path and re-enlist it.
//!
//! **LSN spaces.** Every cursor is kept in the *current leader's* LSN
//! space. A follower seeded from a compacted snapshot
//! ([`DurableStore::pinned_ops`]) has a shorter private history than the
//! leader, so on promotion the surviving cursors are rebased into the
//! new leader's clock; a follower so far behind that its position
//! cannot be expressed in the new space is dropped (the frames it needs
//! were compacted away on every surviving node).
//!
//! **Fault sites.** Shipping and follower apply each consult the
//! cluster's `FaultPlan` deterministically, at
//! `<cluster>/shard[i]/wal/ship[j]` and
//! `<cluster>/shard[i]/replica/apply[j]`. Any injected fault except
//! latency loses that frame for that follower (it stalls, exactly like
//! a dropped packet); latency delivers after the delay.

use polyframe_observe::sync::Mutex;
use polyframe_observe::{FaultKind, FaultPlan};
use polyframe_storage::wal::{DurableOp, Wal, WalObserver};
use polyframe_storage::{DurableStore, StateMachine};
use std::ops::Deref;
use std::sync::Arc;

/// A store that can serve as a shard leader or follower replica: any
/// store built on the durable-store shell. Shipped ops go through the
/// follower's own [`DurableStore::commit`] (shipped `Ingest` records are
/// fully formed, ids already assigned, so replay is deterministic), so a
/// follower is a fully durable, independently queryable node — promotion
/// is a pointer swap, not a rebuild.
pub trait ReplicaNode: Send + Sync + 'static {
    /// The node's durable state machine.
    type State: StateMachine;
    /// The node's durable-store shell.
    fn shell(&self) -> &DurableStore<Self::State>;
}

impl<S, N> ReplicaNode for N
where
    S: StateMachine,
    N: Deref<Target = DurableStore<S>> + Send + Sync + 'static,
{
    type State = S;
    fn shell(&self) -> &DurableStore<S> {
        self
    }
}

/// The error type of node `N`'s store.
pub type NodeError<N> = <<N as ReplicaNode>::State as StateMachine>::Error;

struct Follower<N> {
    node: Arc<N>,
    /// Next leader-LSN this follower expects.
    cursor: u64,
    /// `false` = stale (demoted ex-leader or failed apply): skipped by
    /// shipping, reads, and promotion until [`ReplicaSet::heal_stale`].
    fresh: bool,
}

/// One shard's replication state: the followers of the current leader.
///
/// Installed on the leader's WAL as its [`WalObserver`]; moved to the
/// successor's WAL on promotion.
pub struct ReplicaSet<N> {
    cluster: String,
    shard: usize,
    followers: Mutex<Vec<Follower<N>>>,
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

/// Per-replica health, reported by [`ReplicaSet::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Index of the replica within its set.
    pub replica: usize,
    /// Next leader-LSN the replica expects.
    pub cursor: u64,
    /// Committed frames the replica has not yet applied.
    pub lag: u64,
    /// Whether the replica is in rotation (not demoted/stale).
    pub fresh: bool,
}

/// A successful crash promotion.
pub struct Promotion<N> {
    /// The promoted follower — the shard's new leader.
    pub node: Arc<N>,
    /// Committed-but-unshipped tail records replayed to catch the
    /// follower up to the crashed leader's committed end. Bounded by
    /// replication lag, not by the shard's history — the whole point.
    pub replayed: u64,
}

impl<N: ReplicaNode> ReplicaSet<N> {
    /// An empty replica set for `cluster`'s shard `shard`.
    pub fn new(cluster: impl Into<String>, shard: usize) -> ReplicaSet<N> {
        ReplicaSet {
            cluster: cluster.into(),
            shard,
            followers: Mutex::new(Vec::new()),
            faults: Mutex::new(None),
        }
    }

    /// Install (or clear) the fault plan consulted at the shipping and
    /// apply sites.
    pub fn set_faults(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock() = plan;
    }

    /// Number of followers (fresh and stale).
    pub fn follower_count(&self) -> usize {
        self.followers.lock().len()
    }

    /// Seed `node` from `leader`'s pinned snapshot and enlist it. Frames
    /// committed between the pin and the enlistment are missed (the
    /// follower stalls at the pin); run [`ReplicaSet::catch_up`]
    /// afterwards to drain them off the leader's media.
    pub fn add_follower(&self, leader: &N, node: Arc<N>) -> Result<(), NodeError<N>> {
        let (ops, pin) = leader.shell().pinned_ops()?;
        for op in ops {
            node.shell().commit(op)?;
        }
        self.followers.lock().push(Follower {
            node,
            cursor: pin,
            fresh: true,
        });
        Ok(())
    }

    /// Replay committed frames a stalled follower missed (shipping
    /// faults, or the add-follower seeding window) straight off the
    /// leader's media. A follower whose missing range was compacted
    /// away by a checkpoint stays stalled — only a reseed can save it.
    pub fn catch_up(&self, leader_wal: &Wal) {
        let mut followers = self.followers.lock();
        for f in followers.iter_mut() {
            if !f.fresh {
                continue;
            }
            let Ok(Some(tail)) = leader_wal.committed_tail(f.cursor) else {
                continue;
            };
            for (lsn, op) in &tail {
                if f.node.shell().commit(op.clone()).is_err() {
                    f.fresh = false;
                    break;
                }
                f.cursor = lsn + 1;
            }
        }
    }

    /// Per-replica cursor, lag, and freshness against the leader clock.
    /// Read `leader_next_lsn` *before* calling (never while holding
    /// other replication locks).
    pub fn status(&self, leader_next_lsn: u64) -> Vec<ReplicaStatus> {
        self.followers
            .lock()
            .iter()
            .enumerate()
            .map(|(i, f)| ReplicaStatus {
                replica: i,
                cursor: f.cursor,
                lag: leader_next_lsn.saturating_sub(f.cursor),
                fresh: f.fresh,
            })
            .collect()
    }

    /// A fresh follower fully caught up with the leader clock, for
    /// routing snapshot reads off the leader. `None` when every replica
    /// lags (the read must go to the leader for correctness).
    pub fn read_replica(&self, leader_next_lsn: u64) -> Option<Arc<N>> {
        self.followers
            .lock()
            .iter()
            .find(|f| f.fresh && f.cursor == leader_next_lsn)
            .map(|f| Arc::clone(&f.node))
    }

    /// Promote the freshest follower after the leader crashed. Replays
    /// only the committed-but-unshipped tail from the crashed leader's
    /// media, removes the successor from the set, rebases the surviving
    /// cursors into the successor's LSN space, and demotes the
    /// ex-leader to a stale follower. Returns `None` when no follower
    /// can be caught up (no replicas, or every candidate's missing
    /// range was compacted away) — the caller falls back to a full
    /// rebuild.
    pub fn promote(&self, crashed_wal: &Wal, demoted: Arc<N>) -> Option<Promotion<N>> {
        let mut followers = self.followers.lock();
        loop {
            let idx = followers
                .iter()
                .enumerate()
                .filter(|(_, f)| f.fresh)
                .max_by_key(|(_, f)| f.cursor)
                .map(|(i, _)| i)?;
            let cursor = followers[idx].cursor;
            let tail = match crashed_wal.committed_tail(cursor) {
                Ok(Some(tail)) => tail,
                // Gap (compacted range) or unreadable media: this
                // candidate cannot be caught up frame-by-frame.
                Ok(None) | Err(_) => {
                    followers[idx].fresh = false;
                    continue;
                }
            };
            let mut replayed = 0u64;
            let caught_up = {
                let f = &mut followers[idx];
                tail.iter().all(|(lsn, op)| {
                    if f.node.shell().commit(op.clone()).is_err() {
                        f.fresh = false;
                        return false;
                    }
                    f.cursor = lsn + 1;
                    replayed += 1;
                    true
                })
            };
            if !caught_up {
                continue;
            }
            // The crashed leader's committed end, in its own LSN space,
            // and the successor's clock for the same state.
            let end = cursor + tail.len() as u64;
            let new_leader = followers.remove(idx);
            let successor_clock = match new_leader.node.shell().wal_handle() {
                Some(w) => w.next_lsn(),
                None => end,
            };
            followers.retain_mut(|g| match successor_clock.checked_sub(end - g.cursor) {
                Some(rebased) => {
                    g.cursor = rebased;
                    true
                }
                // Too far behind to express in the successor's
                // (compacted) history: unrecoverable, drop it.
                None => false,
            });
            followers.push(Follower {
                node: demoted,
                cursor: successor_clock,
                fresh: false,
            });
            return Some(Promotion {
                node: new_leader.node,
                replayed,
            });
        }
    }

    /// Rebuild stale followers from their own logs (off the query
    /// critical path) and re-enlist them. Returns how many healed.
    pub fn heal_stale(&self) -> usize {
        let mut followers = self.followers.lock();
        let mut healed = 0;
        for f in followers.iter_mut() {
            if !f.fresh && f.node.shell().recover().is_ok() {
                f.fresh = true;
                healed += 1;
            }
        }
        healed
    }

    /// Draw a fault for follower `j` at `<cluster>/shard[i]/<point>[j]`.
    /// Latency sleeps inline (the frame still delivers); anything else
    /// loses the frame for that follower.
    fn frame_lost(&self, plan: &Option<Arc<FaultPlan>>, point: &str, j: usize) -> bool {
        let Some(plan) = plan else { return false };
        let site = format!("{}/shard[{}]/{point}[{j}]", self.cluster, self.shard);
        match plan.next_fault(&site) {
            None => false,
            Some(FaultKind::Latency(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(_) => true,
        }
    }
}

impl<N: ReplicaNode> WalObserver for ReplicaSet<N> {
    fn frame_committed(&self, lsn: u64, op: &DurableOp) {
        let plan = self.faults.lock().clone();
        let mut followers = self.followers.lock();
        for (j, f) in followers.iter_mut().enumerate() {
            // LSN dedupe/ordering: a follower that already has this
            // frame, or is missing an earlier one, stalls untouched.
            if !f.fresh || f.cursor != lsn {
                continue;
            }
            if self.frame_lost(&plan, "wal/ship", j) {
                continue;
            }
            if self.frame_lost(&plan, "replica/apply", j) {
                continue;
            }
            if f.node.shell().commit(op.clone()).is_ok() {
                f.cursor = lsn + 1;
            } else {
                f.fresh = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;
    use polyframe_docstore::DocStore;
    use polyframe_sqlengine::{Engine, EngineConfig};
    use polyframe_storage::{CheckpointPolicy, LogMedia};

    fn durable_engine() -> Arc<Engine> {
        let e = Arc::new(Engine::new(EngineConfig::asterixdb()));
        e.enable_durability(LogMedia::new(), CheckpointPolicy::never())
            .expect("durability");
        e
    }

    fn wire(leader: &Arc<Engine>, set: &Arc<ReplicaSet<Engine>>) {
        leader
            .wal_handle()
            .expect("leader wal")
            .set_observer(Some(Arc::clone(set) as Arc<dyn WalObserver>));
    }

    fn seeded(n_followers: usize) -> (Arc<Engine>, Arc<ReplicaSet<Engine>>) {
        let leader = durable_engine();
        let set = Arc::new(ReplicaSet::new("test-cluster", 0));
        for _ in 0..n_followers {
            set.add_follower(leader.as_ref(), durable_engine())
                .expect("seed follower");
        }
        wire(&leader, &set);
        (leader, set)
    }

    fn load_users(e: &Engine, ids: std::ops::Range<i64>) {
        e.create_dataset("Test", "Users", Some("id")).expect("ddl");
        e.load(
            "Test",
            "Users",
            ids.map(|i| record! {"id" => i, "grp" => i % 3}),
        )
        .expect("load");
    }

    #[test]
    fn followers_mirror_the_leader_byte_for_byte() {
        let (leader, set) = seeded(2);
        load_users(&leader, 0..50);
        leader.create_index("Test", "Users", "grp").expect("index");
        let want = polyframe_storage::encode_ops(&leader.durable_snapshot());
        let lsn = leader.wal_handle().expect("wal").next_lsn();
        for s in set.status(lsn) {
            assert!(s.fresh);
            assert_eq!(s.lag, 0, "replica {} lags", s.replica);
        }
        let replica = set.read_replica(lsn).expect("caught-up replica");
        assert_eq!(
            polyframe_storage::encode_ops(&replica.durable_snapshot()),
            want
        );
    }

    #[test]
    fn late_follower_seeds_from_snapshot_and_catches_up() {
        let (leader, set) = seeded(0);
        load_users(&leader, 0..30);
        set.add_follower(leader.as_ref(), durable_engine())
            .expect("late follower");
        leader
            .load("Test", "Users", vec![record! {"id" => 99, "grp" => 0}])
            .expect("post-seed load");
        let lsn = leader.wal_handle().expect("wal").next_lsn();
        assert_eq!(set.status(lsn)[0].lag, 0);
        let replica = set.read_replica(lsn).expect("caught up");
        assert_eq!(replica.dataset_len("Test", "Users").expect("len"), 31);
    }

    #[test]
    fn ship_fault_stalls_the_follower_until_catch_up() {
        let (leader, set) = seeded(1);
        // Lose the second shipped frame for follower 0.
        set.set_faults(Some(Arc::new(FaultPlan::crash_at(
            5,
            "test-cluster/shard[0]/wal/ship[0]",
            1,
        ))));
        load_users(&leader, 0..10); // frame 0 = create, frame 1 = ingest (lost)
        let wal = leader.wal_handle().expect("wal");
        let status = set.status(wal.next_lsn());
        assert_eq!(status[0].lag, 1, "lost frame must show as lag");
        assert!(status[0].fresh);
        set.catch_up(&wal);
        assert_eq!(set.status(wal.next_lsn())[0].lag, 0);
        let replica = set.read_replica(wal.next_lsn()).expect("caught up");
        assert_eq!(replica.dataset_len("Test", "Users").expect("len"), 10);
    }

    #[test]
    fn promotion_replays_only_the_unshipped_tail() {
        let (leader, set) = seeded(2);
        load_users(&leader, 0..40);
        // Lose the final frame for both followers, then "crash" the
        // leader: the tail to replay is exactly that one frame.
        set.set_faults(Some(Arc::new(
            FaultPlan::new(3).with_error_rate(1.0).for_sites("wal/ship"),
        )));
        leader
            .load("Test", "Users", vec![record! {"id" => 777, "grp" => 1}])
            .expect("unshipped load");
        set.set_faults(None);
        let wal = leader.wal_handle().expect("wal");
        let promo = set
            .promote(&wal, Arc::clone(&leader))
            .expect("promotable follower");
        assert_eq!(promo.replayed, 1, "only the lost frame is replayed");
        assert_eq!(
            polyframe_storage::encode_ops(&promo.node.durable_snapshot()),
            polyframe_storage::encode_ops(&leader.durable_snapshot()),
        );
        // One live follower survives (rebased), plus the stale ex-leader.
        let new_wal = promo.node.wal_handle().expect("wal");
        let lsn = new_wal.next_lsn();
        let status = set.status(lsn);
        assert_eq!(status.len(), 2);
        assert_eq!(status.iter().filter(|s| s.fresh).count(), 1);
        // The survivor still lacks the lost frame; the new leader's own
        // log carries it, so a catch-up drains the lag.
        assert_eq!(status.iter().find(|s| s.fresh).expect("survivor").lag, 1);
        set.catch_up(&new_wal);
        assert!(set.status(lsn).iter().all(|s| s.lag == 0));
        assert_eq!(set.heal_stale(), 1);
        assert_eq!(set.status(lsn).iter().filter(|s| s.fresh).count(), 2);
    }

    #[test]
    fn promotion_without_followers_reports_none() {
        let (leader, set) = seeded(0);
        load_users(&leader, 0..5);
        let wal = leader.wal_handle().expect("wal");
        assert!(set.promote(&wal, Arc::clone(&leader)).is_none());
    }

    #[test]
    fn apply_fault_sites_are_deterministic() {
        let run = || {
            let (leader, set) = seeded(1);
            set.set_faults(Some(Arc::new(
                FaultPlan::new(11)
                    .with_error_rate(0.5)
                    .for_sites("replica/apply"),
            )));
            load_users(&leader, 0..20);
            let lsn = leader.wal_handle().expect("wal").next_lsn();
            set.status(lsn)[0].lag
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn doc_store_follower_replicates_inserts() {
        let leader = Arc::new(DocStore::new());
        leader
            .enable_durability(LogMedia::new(), CheckpointPolicy::never())
            .expect("durability");
        let set: Arc<ReplicaSet<DocStore>> = Arc::new(ReplicaSet::new("test-mongo", 0));
        let follower = Arc::new(DocStore::new());
        follower
            .enable_durability(LogMedia::new(), CheckpointPolicy::never())
            .expect("durability");
        set.add_follower(leader.as_ref(), follower).expect("seed");
        leader
            .wal_handle()
            .expect("wal")
            .set_observer(Some(Arc::clone(&set) as Arc<dyn WalObserver>));
        leader.create_collection("c").expect("ddl");
        leader
            .insert_many("c", (0..25i64).map(|i| record! {"x" => i}))
            .expect("insert");
        let lsn = leader.wal_handle().expect("wal").next_lsn();
        let replica = set.read_replica(lsn).expect("caught up");
        assert_eq!(replica.count_documents("c").expect("count"), 25);
        assert_eq!(
            polyframe_storage::encode_ops(&replica.durable_snapshot()),
            polyframe_storage::encode_ops(&leader.durable_snapshot()),
        );
    }
}
