//! Per-query execution statistics and simulated-parallel timing.
//!
//! The paper's Figures 9/10 measure wall time on clusters of 1-4 real EC2
//! nodes. On a machine with fewer cores than shards, thread-per-shard wall
//! time cannot show speedup, so the clusters record the **critical path**
//! of every query instead: `compile + max(shard work) + merge`. On
//! sufficiently parallel hardware this equals the threaded wall time; on a
//! small machine it is the faithful simulation of one-node-per-shard
//! execution. [`ExecMode::auto`] picks sequential shard execution (with
//! per-shard timing) when the host lacks the cores to run shards honestly
//! in parallel.

use polyframe_observe::sync::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// How shard work is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One OS thread per shard (real parallel wall time).
    Threads,
    /// Shards run one after another; per-shard durations are recorded so
    /// the simulated parallel time (max + merge) can be reported.
    Sequential,
}

impl ExecMode {
    /// Threads when the host has at least `shards` cores, else sequential.
    /// The core budget honours the `POLYFRAME_THREADS` override (see
    /// [`polyframe_sqlengine::available_threads`]).
    pub fn auto(shards: usize) -> ExecMode {
        if polyframe_sqlengine::available_threads() >= shards {
            ExecMode::Threads
        } else {
            ExecMode::Sequential
        }
    }

    /// Morsel-worker budget for each shard engine, so concurrent shards
    /// and intra-shard morsel workers jointly stay within the core budget:
    /// `shards × workers ≤ cores` under [`ExecMode::Threads`] (shards run
    /// concurrently), while [`ExecMode::Sequential`] runs one shard at a
    /// time and hands each the full budget.
    pub fn workers_per_shard(self, shards: usize) -> usize {
        let cores = polyframe_sqlengine::available_threads();
        match self {
            ExecMode::Threads => (cores / shards.max(1)).max(1),
            ExecMode::Sequential => cores.max(1),
        }
    }

    /// Run `task` on every item and return the results in item order:
    /// one OS thread per item under [`ExecMode::Threads`] (the first
    /// item included — none runs on the calling thread), one after
    /// another under [`ExecMode::Sequential`]. A panicking task re-raises
    /// its panic on the caller.
    pub fn fan_out<I, O>(
        self,
        items: impl IntoIterator<Item = I>,
        task: impl Fn(I) -> O + Sync,
    ) -> Vec<O>
    where
        I: Send,
        O: Send,
    {
        match self {
            ExecMode::Threads => std::thread::scope(|scope| {
                let task = &task;
                let handles: Vec<_> = items
                    .into_iter()
                    .map(|item| scope.spawn(move || task(item)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            }),
            ExecMode::Sequential => items.into_iter().map(task).collect(),
        }
    }
}

/// Timing breakdown of one distributed query.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Coordinator-side compile/split time.
    pub compile: Duration,
    /// Per-shard execution times (every shard, including dropped ones).
    pub shard_times: Vec<Duration>,
    /// Coordinator-side merge time.
    pub merge: Duration,
    /// Shard-work re-dispatches after transient failures.
    pub failovers: usize,
    /// Shards dropped under partial-result degradation (the result
    /// covers only the remaining shards).
    pub dropped_shards: Vec<usize>,
    /// Shards that crashed during this query and rebuilt themselves from
    /// their own write-ahead logs before rejoining.
    pub recovered_shards: usize,
    /// Shards that crashed during this query and were healed by
    /// promoting a follower replica instead of a full rebuild — a
    /// re-dispatch that succeeds after a promotion is thereby
    /// distinguishable from a plain transient failover.
    pub promotions: usize,
    /// Total log records replayed across those shard recoveries and
    /// promotions (for a promotion, only the committed-but-unshipped
    /// tail).
    pub replayed_records: u64,
    /// Wall time spent in shard recovery across the query.
    pub recovery_time: Duration,
}

impl QueryStats {
    /// The simulated parallel wall time: compile + slowest shard + merge.
    pub fn simulated_wall(&self) -> Duration {
        self.compile
            + self
                .shard_times
                .iter()
                .max()
                .copied()
                .unwrap_or(Duration::ZERO)
            + self.merge
    }

    /// Fold this breakdown into trace spans using the workspace's
    /// canonical stage names (`polyframe_observe::trace`): the
    /// coordinator's compile/split work as `plan`, one `shard[i]` per
    /// shard (dropped shards carry a `status: dropped` note), and the
    /// coordinator-side `merge`.
    pub fn to_spans(&self) -> Vec<polyframe_observe::Span> {
        use polyframe_observe::Span;
        let mut spans = Vec::with_capacity(self.shard_times.len() + 2);
        spans.push(Span::new("plan").with_duration(self.compile));
        for (i, t) in self.shard_times.iter().enumerate() {
            let mut span = Span::new(format!("shard[{i}]")).with_duration(*t);
            if self.dropped_shards.contains(&i) {
                span.set_note("status", "dropped");
            }
            spans.push(span);
        }
        spans.push(Span::new("merge").with_duration(self.merge));
        if self.recovered_shards + self.promotions > 0 {
            let mut span = Span::new("recovery").with_duration(self.recovery_time);
            span.set_metric("recovered_shards", self.recovered_shards as i64);
            span.set_metric("promotions", self.promotions as i64);
            span.set_metric("replayed_records", self.replayed_records as i64);
            spans.push(span);
        }
        spans
    }
}

/// Thread-safe accumulator for shard-recovery work observed during one
/// query's dispatch (the failover loop may run shards on separate
/// threads, and a crashed shard rebuilds inside its dispatch closure).
#[derive(Debug, Default)]
pub struct RecoveryCounters {
    shards: AtomicUsize,
    promotions: AtomicUsize,
    records: AtomicU64,
    nanos: AtomicU64,
}

impl RecoveryCounters {
    /// Fresh (all-zero) counters for one query.
    pub fn new() -> RecoveryCounters {
        RecoveryCounters::default()
    }

    /// Record one full shard rebuild that replayed `replayed` log records.
    pub fn record(&self, replayed: u64, elapsed: Duration) {
        self.shards.fetch_add(1, Ordering::Relaxed);
        self.records.fetch_add(replayed, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record one crash healed by follower promotion, replaying only
    /// `replayed` committed-but-unshipped tail records.
    pub fn record_promotion(&self, replayed: u64, elapsed: Duration) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
        self.records.fetch_add(replayed, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Fold the accumulated counters into a query's stats.
    pub fn fold_into(&self, stats: &mut QueryStats) {
        stats.recovered_shards = self.shards.load(Ordering::Relaxed);
        stats.promotions = self.promotions.load(Ordering::Relaxed);
        stats.replayed_records = self.records.load(Ordering::Relaxed);
        stats.recovery_time = Duration::from_nanos(self.nanos.load(Ordering::Relaxed));
    }
}

/// Accumulates stats across the queries a benchmark expression issues.
#[derive(Debug, Default)]
pub struct StatsRecorder {
    queries: Mutex<Vec<QueryStats>>,
}

impl StatsRecorder {
    /// New, empty recorder.
    pub fn new() -> StatsRecorder {
        StatsRecorder::default()
    }

    /// Record one query's stats.
    pub fn record(&self, stats: QueryStats) {
        self.queries.lock().push(stats);
    }

    /// Drain all recorded queries.
    pub fn take(&self) -> Vec<QueryStats> {
        std::mem::take(&mut self.queries.lock())
    }

    /// Peek at the most recently recorded query without draining (the
    /// trace layer folds it into spans while benchmarks keep accumulating).
    pub fn last(&self) -> Option<QueryStats> {
        self.queries.lock().last().cloned()
    }

    /// Drain and sum the simulated wall times.
    pub fn take_simulated_elapsed(&self) -> Duration {
        self.take().iter().map(QueryStats::simulated_wall).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_wall_is_critical_path() {
        let q = QueryStats {
            compile: Duration::from_millis(1),
            shard_times: vec![
                Duration::from_millis(10),
                Duration::from_millis(40),
                Duration::from_millis(20),
            ],
            merge: Duration::from_millis(2),
            ..Default::default()
        };
        assert_eq!(q.simulated_wall(), Duration::from_millis(43));
    }

    #[test]
    fn recorder_accumulates_and_drains() {
        let r = StatsRecorder::new();
        r.record(QueryStats {
            shard_times: vec![Duration::from_millis(5)],
            ..Default::default()
        });
        r.record(QueryStats {
            shard_times: vec![Duration::from_millis(7)],
            ..Default::default()
        });
        assert_eq!(r.take_simulated_elapsed(), Duration::from_millis(12));
        assert!(r.take().is_empty());
    }

    #[test]
    fn auto_mode_is_consistent() {
        // On any machine, 1 shard can run threaded.
        assert_eq!(ExecMode::auto(1), ExecMode::Threads);
    }

    #[test]
    fn worker_budget_is_joint() {
        let cores = polyframe_sqlengine::available_threads();
        // Concurrent shards split the budget: shards × workers ≤ cores.
        for shards in 1..=8 {
            let w = ExecMode::Threads.workers_per_shard(shards);
            assert!(w >= 1);
            assert!(shards * w <= cores.max(shards), "shards={shards} w={w}");
        }
        // Sequential shards run alone and get the whole budget.
        assert_eq!(ExecMode::Sequential.workers_per_shard(4), cores.max(1));
    }
}
