//! Per-shard failover and partial-result degradation.
//!
//! The cluster tier treats shard failures the way a real coordinator
//! does: a transiently-failing shard has its work re-dispatched (up to
//! [`ShardPolicy::failover_retries`] times), and — only when the caller
//! explicitly opts in via [`ShardPolicy::allow_partial`] — a shard that
//! keeps failing transiently is dropped from the result with the gap
//! recorded in [`ShardOutcome::dropped_shards`], instead of failing the
//! whole query. Fatal (non-transient) errors always propagate.
//!
//! [`run_resilient`] is generic over the shard work and error type so
//! [`crate::SqlCluster`] and [`crate::MongoCluster`] share one failover
//! loop; [`shard_fault`] is the shared fault-injection boundary both
//! clusters consult before dispatching a shard's work.

use crate::stats::ExecMode;
use polyframe_observe::{FaultKind, FaultPlan};
use std::time::{Duration, Instant};

/// Per-query resilience policy for shard dispatch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPolicy {
    /// How many times a shard's work is re-dispatched after a transient
    /// failure before the shard is considered lost.
    pub failover_retries: u32,
    /// Degrade to partial results: drop shards that keep failing
    /// transiently instead of failing the query. Off by default —
    /// partial results are only ever returned on explicit opt-in, and
    /// the dropped shards are reported so callers can surface the gap.
    pub allow_partial: bool,
    /// Route this query's shard reads to a fully caught-up follower
    /// replica when one exists, leaving the leader free for writes —
    /// how the serving tier's QPS story scales past one node per
    /// shard. A lagging replica is never read (snapshot semantics hold
    /// either way); off by default.
    pub prefer_replica: bool,
}

impl ShardPolicy {
    /// Fail over up to `retries` times per shard.
    pub fn failover(retries: u32) -> ShardPolicy {
        ShardPolicy {
            failover_retries: retries,
            ..ShardPolicy::default()
        }
    }

    /// Builder: opt in (or out) of partial results.
    pub fn with_allow_partial(mut self, allow: bool) -> ShardPolicy {
        self.allow_partial = allow;
        self
    }

    /// Builder: opt in (or out) of replica reads.
    pub fn with_prefer_replica(mut self, prefer: bool) -> ShardPolicy {
        self.prefer_replica = prefer;
        self
    }
}

/// What resilient shard dispatch produced.
#[derive(Debug)]
pub struct ShardOutcome<T> {
    /// One result per *surviving* shard, in shard order.
    pub parts: Vec<T>,
    /// Time spent per shard (every shard, including dropped ones, so
    /// the simulated critical path still covers the work that failed).
    pub shard_times: Vec<Duration>,
    /// Total shard-work re-dispatches across the query.
    pub failovers: usize,
    /// Shards dropped under [`ShardPolicy::allow_partial`].
    pub dropped_shards: Vec<usize>,
}

/// An injected failure at a cluster shard boundary, classified by what
/// the coordinator must do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFault {
    /// Transient failure; re-dispatching the shard's work is enough.
    Transient(String),
    /// Simulated process crash: the shard's in-memory state is gone and
    /// it must rebuild from its own write-ahead log before rejoining.
    Crash(String),
}

/// Consult a fault plan at a cluster shard boundary (site
/// `"<cluster>/shard[<i>]"`). Returns the injected failure, if any;
/// latency faults sleep inline and return `None`.
pub fn shard_fault(plan: Option<&FaultPlan>, cluster: &str, shard: usize) -> Option<ShardFault> {
    let plan = plan?;
    let site = format!("{cluster}/shard[{shard}]");
    match plan.next_fault(&site) {
        None => None,
        Some(FaultKind::Error) => Some(ShardFault::Transient(format!("injected fault at {site}"))),
        Some(FaultKind::Latency(d)) => {
            std::thread::sleep(d);
            None
        }
        Some(FaultKind::Hang(d)) => {
            std::thread::sleep(d);
            Some(ShardFault::Transient(format!("injected hang at {site}")))
        }
        // A torn write at the shard boundary is a crash mid-write: the
        // shard dies either way, and the WAL layer (not the coordinator)
        // owns torn-frame semantics. A panic in a shard worker likewise
        // kills that shard's attempt from the coordinator's view.
        Some(FaultKind::Crash) | Some(FaultKind::TornWrite(_)) | Some(FaultKind::Panic) => {
            Some(ShardFault::Crash(format!("injected crash at {site}")))
        }
    }
}

/// Run one unit of work per shard with per-shard failover and optional
/// partial-result degradation.
///
/// `work(i)` executes shard `i`'s unit; `is_transient` classifies its
/// errors. A transient failure is re-dispatched immediately (backoff is
/// the connector driver's job, not the coordinator's) up to
/// `policy.failover_retries` times. A shard still failing transiently is
/// dropped when `policy.allow_partial` is set, otherwise its error fails
/// the query. Fatal errors fail the query regardless.
pub fn run_resilient<T, E, P, F>(
    shards: usize,
    mode: ExecMode,
    policy: &ShardPolicy,
    is_transient: P,
    work: F,
) -> Result<ShardOutcome<T>, E>
where
    T: Send,
    E: Send,
    P: Fn(&E) -> bool + Sync,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    struct ShardRun<T, E> {
        result: Result<T, E>,
        elapsed: Duration,
        failovers: usize,
    }
    let run_one = |i: usize| -> ShardRun<T, E> {
        let start = Instant::now();
        let mut failovers = 0usize;
        loop {
            match work(i) {
                Ok(v) => {
                    return ShardRun {
                        result: Ok(v),
                        elapsed: start.elapsed(),
                        failovers,
                    }
                }
                Err(e) => {
                    if is_transient(&e) && (failovers as u32) < policy.failover_retries {
                        failovers += 1;
                        continue;
                    }
                    return ShardRun {
                        result: Err(e),
                        elapsed: start.elapsed(),
                        failovers,
                    };
                }
            }
        }
    };

    let runs = mode.fan_out(0..shards, run_one);
    let mut out = ShardOutcome {
        parts: Vec::with_capacity(shards),
        shard_times: Vec::with_capacity(shards),
        failovers: 0,
        dropped_shards: Vec::new(),
    };
    for (i, run) in runs.into_iter().enumerate() {
        out.failovers += run.failovers;
        out.shard_times.push(run.elapsed);
        match run.result {
            Ok(v) => out.parts.push(v),
            Err(e) if policy.allow_partial && is_transient(&e) => out.dropped_shards.push(i),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, PartialEq)]
    enum TestErr {
        Transient,
        Fatal,
    }

    fn transient(e: &TestErr) -> bool {
        matches!(e, TestErr::Transient)
    }

    #[test]
    fn failover_retries_until_success() {
        for mode in [ExecMode::Threads, ExecMode::Sequential] {
            // Every shard fails its first two dispatches, then succeeds.
            let attempts: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            let out = run_resilient(
                3,
                mode,
                &ShardPolicy::failover(2),
                transient,
                |i| -> Result<usize, TestErr> {
                    if attempts[i].fetch_add(1, Ordering::SeqCst) < 2 {
                        Err(TestErr::Transient)
                    } else {
                        Ok(i * 10)
                    }
                },
            )
            .unwrap();
            assert_eq!(out.parts, vec![0, 10, 20], "{mode:?}");
            assert_eq!(out.failovers, 6);
            assert!(out.dropped_shards.is_empty());
            assert_eq!(out.shard_times.len(), 3);
        }
    }

    #[test]
    fn exhausted_failover_fails_without_partial() {
        let err = run_resilient(
            2,
            ExecMode::Sequential,
            &ShardPolicy::failover(1),
            transient,
            |i| -> Result<usize, TestErr> {
                if i == 1 {
                    Err(TestErr::Transient)
                } else {
                    Ok(0)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, TestErr::Transient);
    }

    #[test]
    fn allow_partial_drops_transient_shards() {
        let out = run_resilient(
            4,
            ExecMode::Threads,
            &ShardPolicy::failover(1).with_allow_partial(true),
            transient,
            |i| -> Result<usize, TestErr> {
                if i == 2 {
                    Err(TestErr::Transient)
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap();
        assert_eq!(out.parts, vec![0, 1, 3]);
        assert_eq!(out.dropped_shards, vec![2]);
        assert_eq!(out.failovers, 1); // shard 2 was re-dispatched once
        assert_eq!(out.shard_times.len(), 4); // dropped shard still timed
    }

    #[test]
    fn fatal_errors_propagate_even_with_partial() {
        let err = run_resilient(
            2,
            ExecMode::Sequential,
            &ShardPolicy::failover(3).with_allow_partial(true),
            transient,
            |i| -> Result<usize, TestErr> {
                if i == 0 {
                    Err(TestErr::Fatal)
                } else {
                    Ok(1)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, TestErr::Fatal);
    }

    #[test]
    fn shard_fault_names_sites_per_shard() {
        let plan = FaultPlan::new(11)
            .with_error_rate(1.0)
            .for_sites("shard[1]");
        assert_eq!(shard_fault(Some(&plan), "sql-cluster", 0), None);
        let fault = shard_fault(Some(&plan), "sql-cluster", 1).unwrap();
        match fault {
            ShardFault::Transient(msg) => {
                assert!(msg.contains("sql-cluster/shard[1]"), "{msg}")
            }
            other => panic!("expected transient fault, got {other:?}"),
        }
        assert_eq!(shard_fault(None, "sql-cluster", 1), None);
    }

    #[test]
    fn shard_fault_classifies_crashes() {
        let plan = FaultPlan::crash_at(7, "sql-cluster/shard[0]", 0);
        match shard_fault(Some(&plan), "sql-cluster", 0) {
            Some(ShardFault::Crash(msg)) => {
                assert!(msg.contains("sql-cluster/shard[0]"), "{msg}")
            }
            other => panic!("expected crash, got {other:?}"),
        }
    }
}
