//! The replication report behind `harness replicate`: what the elastic
//! tier buys when a shard leader dies or a hot shard splits.
//!
//! Two scenario families, both run under concurrent read traffic:
//!
//! * **Recovery under load** — the same seeded crash is healed twice:
//!   once on a replica-less cluster (full WAL rebuild) and once with
//!   follower replicas (promotion, replaying only the
//!   committed-but-unshipped tail). The report compares wall time spent
//!   in recovery and records replayed, and checks the post-crash answer
//!   is identical to the pre-crash one.
//! * **Rebalance under load** — reader threads keep querying while a
//!   shard is split online; the report shows read tail latency during
//!   the cutover and that results are byte-identical across it.

use polyframe_cluster::{ShardPolicy, SqlCluster};
use polyframe_datamodel::record;
use polyframe_observe::FaultPlan;
use polyframe_sqlengine::EngineConfig;
use polyframe_storage::CheckpointPolicy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NS: &str = "Test";
const DS: &str = "Users";

/// One crash-recovery cell: the same seeded leader crash healed by a
/// full rebuild (`replicas == 0`) or by follower promotion.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// `"rebuild"` or `"promotion"`.
    pub mode: &'static str,
    /// Shard count of the cluster.
    pub shards: usize,
    /// Followers per shard (0 on the rebuild cell).
    pub replicas: usize,
    /// Wall time spent inside shard recovery, from the query stats.
    pub recovery: Duration,
    /// Log records replayed to heal the crash (a promotion replays only
    /// the committed-but-unshipped tail).
    pub replayed: u64,
    /// Crashes healed by promoting a follower.
    pub promotions: usize,
    /// Crashes healed by a full WAL rebuild.
    pub rebuilds: usize,
    /// 99th-percentile read latency across the concurrent readers while
    /// the crash was being healed.
    pub p99_during: Duration,
    /// Whether the post-crash answer matched the pre-crash one.
    pub identical: bool,
}

impl RecoveryRun {
    /// The report line as a JSON record.
    pub fn to_json(&self, records: usize, seed: u64) -> String {
        format!(
            "{{\"scenario\":\"recovery\",\"mode\":\"{}\",\"shards\":{},\"replicas\":{},\
             \"records\":{records},\"seed\":{seed},\"recovery_ns\":{},\"replayed\":{},\
             \"promotions\":{},\"rebuilds\":{},\"p99_during_ns\":{},\"identical\":{}}}",
            self.mode,
            self.shards,
            self.replicas,
            self.recovery.as_nanos(),
            self.replayed,
            self.promotions,
            self.rebuilds,
            self.p99_during.as_nanos(),
            self.identical,
        )
    }
}

/// The online-split cell: read tail latency while a shard rebalances.
#[derive(Debug, Clone)]
pub struct RebalanceRun {
    /// Shards before the split.
    pub shards_before: usize,
    /// Shards after the split.
    pub shards_after: usize,
    /// Read operations completed by the concurrent readers.
    pub ops: usize,
    /// Wall time of the `split_shard` call itself.
    pub split: Duration,
    /// Median read latency across the whole run (before/during/after).
    pub p50: Duration,
    /// 99th-percentile read latency across the whole run.
    pub p99: Duration,
    /// Records retained by the split shard.
    pub kept: usize,
    /// Records migrated to the new shard.
    pub moved: usize,
    /// Whether results were byte-identical across the cutover.
    pub identical: bool,
}

impl RebalanceRun {
    /// The report line as a JSON record.
    pub fn to_json(&self, records: usize, seed: u64) -> String {
        format!(
            "{{\"scenario\":\"rebalance\",\"shards_before\":{},\"shards_after\":{},\
             \"records\":{records},\"seed\":{seed},\"ops\":{},\"split_ns\":{},\
             \"p50_ns\":{},\"p99_ns\":{},\"kept\":{},\"moved\":{},\"identical\":{}}}",
            self.shards_before,
            self.shards_after,
            self.ops,
            self.split.as_nanos(),
            self.p50.as_nanos(),
            self.p99.as_nanos(),
            self.kept,
            self.moved,
            self.identical,
        )
    }
}

/// The full `harness replicate` report.
#[derive(Debug, Clone)]
pub struct ReplicateReport {
    /// The rebuild-vs-promotion comparison (same crash, same seed).
    pub recovery: Vec<RecoveryRun>,
    /// The online-split cell.
    pub rebalance: RebalanceRun,
}

/// The representative read: a grouped aggregate that touches every
/// shard, so a crashed or splitting shard cannot hide.
const READ: &str =
    "SELECT grp, COUNT(grp) AS cnt FROM (SELECT VALUE t FROM Test.Users t) t GROUP BY grp";

fn durable_cluster(shards: usize, records: usize) -> Arc<SqlCluster> {
    let c = Arc::new(SqlCluster::new(shards, EngineConfig::asterixdb(), "id"));
    c.enable_durability(CheckpointPolicy::never())
        .expect("enable durability");
    c.create_dataset(NS, DS, Some("id"))
        .expect("create dataset");
    c.load(
        NS,
        DS,
        (0..records as i64).map(|i| record! {"id" => i, "grp" => i % 16}),
    )
    .expect("load dataset");
    c
}

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Spawn `readers` closed-loop reader threads against `cluster`; each
/// issues `READ` with failover enabled until `stop` is set, collecting
/// per-operation latencies.
fn spawn_readers(
    cluster: &Arc<SqlCluster>,
    readers: usize,
    stop: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<Vec<Duration>>> {
    (0..readers)
        .map(|_| {
            let cluster = Arc::clone(cluster);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let t0 = Instant::now();
                    cluster
                        .query_with(READ, &ShardPolicy::failover(3))
                        .expect("read under load");
                    latencies.push(t0.elapsed());
                }
                latencies
            })
        })
        .collect()
}

/// One recovery cell: crash shard 0's leader under concurrent readers
/// and report how the crash was healed.
fn recovery_cell(records: usize, shards: usize, seed: u64, replicas: usize) -> RecoveryRun {
    let cluster = durable_cluster(shards, records);
    if replicas > 0 {
        cluster
            .enable_replication(replicas)
            .expect("enable replication");
    }
    let before = cluster.query(READ).expect("baseline read");
    cluster.take_stats();

    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&cluster, 2, &stop);

    // The crash fires on shard 0's next dispatch — either the probe
    // below or one of the readers trips it; whoever does heals it
    // inside their failover loop.
    cluster.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(
        seed,
        "sql-cluster/shard[0]",
        0,
    ))));
    let after = cluster
        .query_with(READ, &ShardPolicy::failover(3))
        .expect("read across the crash");
    stop.store(true, Ordering::Release);
    let mut latencies: Vec<Duration> = Vec::new();
    for r in readers {
        latencies.extend(r.join().expect("reader"));
    }
    latencies.sort();
    cluster.set_fault_plan(None);

    // The crash was healed inside exactly one query's dispatch; fold
    // every query's stats so it is counted no matter who tripped it.
    let mut recovery = Duration::ZERO;
    let mut replayed = 0u64;
    let mut promotions = 0usize;
    let mut rebuilds = 0usize;
    for stats in cluster.take_stats() {
        recovery += stats.recovery_time;
        replayed += stats.replayed_records;
        promotions += stats.promotions;
        rebuilds += stats.recovered_shards;
    }
    RecoveryRun {
        mode: if replicas > 0 { "promotion" } else { "rebuild" },
        shards,
        replicas,
        recovery,
        replayed,
        promotions,
        rebuilds,
        p99_during: percentile(&latencies, 99.0),
        identical: before == after,
    }
}

/// The rebalance cell: split shard 0 online while readers keep querying.
fn rebalance_cell(records: usize, shards: usize) -> RebalanceRun {
    let cluster = durable_cluster(shards, records);
    let before = cluster.query(READ).expect("baseline read");

    let stop = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&cluster, 2, &stop);
    let t0 = Instant::now();
    cluster.split_shard(0).expect("online split");
    let split = t0.elapsed();
    // Let post-cutover reads land on the new topology before stopping.
    std::thread::sleep(Duration::from_millis(5));
    stop.store(true, Ordering::Release);
    let mut latencies: Vec<Duration> = Vec::new();
    for r in readers {
        latencies.extend(r.join().expect("reader"));
    }
    latencies.sort();

    let after = cluster.query(READ).expect("post-split read");
    let kept = cluster.shard(0).dataset_len(NS, DS).expect("kept rows");
    let moved = cluster
        .shard(shards)
        .dataset_len(NS, DS)
        .expect("moved rows");
    RebalanceRun {
        shards_before: shards,
        shards_after: cluster.num_shards(),
        ops: latencies.len(),
        split,
        p50: percentile(&latencies, 50.0),
        p99: percentile(&latencies, 99.0),
        kept,
        moved,
        identical: before == after,
    }
}

/// Run the full report: the rebuild and promotion recovery cells (same
/// seeded crash), then the online-split cell.
pub fn replicate_report(records: usize, shards: usize, seed: u64) -> ReplicateReport {
    ReplicateReport {
        recovery: vec![
            recovery_cell(records, shards, seed, 0),
            recovery_cell(records, shards, seed, 2),
        ],
        rebalance: rebalance_cell(records, shards),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_beats_rebuild_on_replay_volume() {
        // The second input is `harness replicate --records 2000 --seed 7`'s.
        for (records, seed) in [(400, 11), (2_000, 7)] {
            let report = replicate_report(records, 2, seed);
            let rebuild = &report.recovery[0];
            let promotion = &report.recovery[1];
            assert_eq!(rebuild.mode, "rebuild");
            assert_eq!(promotion.mode, "promotion");
            assert!(rebuild.identical && promotion.identical);
            assert_eq!(rebuild.rebuilds, 1);
            assert_eq!(rebuild.promotions, 0);
            assert_eq!(promotion.promotions, 1);
            assert_eq!(promotion.rebuilds, 0);
            // The rebuild replays the shard's whole log; the promotion only
            // the committed-but-unshipped tail (here: nothing).
            assert!(rebuild.replayed > 0, "rebuild replayed nothing");
            assert!(
                promotion.replayed < rebuild.replayed,
                "promotion replayed {} >= rebuild's {}",
                promotion.replayed,
                rebuild.replayed
            );
        }
    }

    #[test]
    fn rebalance_is_lossless_under_traffic() {
        // The second input is `harness replicate --records 2000`'s.
        for records in [400, 2_000] {
            let run = rebalance_cell(records, 2);
            assert!(run.identical, "split changed the answer");
            assert_eq!(run.shards_after, 3);
            assert!(run.kept > 0 && run.moved > 0, "split moved nothing");
            assert!(run.p50 <= run.p99);
        }
    }
}
