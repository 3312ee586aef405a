//! The fault-recovery report behind `harness faults`: measure what
//! resilience costs.
//!
//! Every PolyFrame backend runs the same representative expression twice
//! — once fault-free, once under a seeded [`FaultPlan`] that fails the
//! first two operations — with whole-query retry enabled, and the report
//! compares the two runs: recovery overhead (faulted / baseline wall
//! time), retries and failovers spent, and whether the recovered result
//! is identical to the fault-free one (it must be). The cluster systems
//! additionally report a partial-results run with one shard permanently
//! down.

use crate::systems::{ClusterKind, MultiNodeSetup, SingleNodeSetup, SystemKind};
use polyframe::prelude::*;
use polyframe_observe::{FaultPlan, RetryPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many faults the recovery scenarios inject before letting the
/// query through.
pub const FAULT_BUDGET: u64 = 2;

/// One line of the recovery report.
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// System name (paper legend).
    pub system: String,
    /// Scenario label (`retry`, `failover`, `partial`).
    pub scenario: &'static str,
    /// Fault-free wall time of the expression.
    pub baseline: Duration,
    /// Wall time with faults injected and recovery enabled.
    pub faulted: Duration,
    /// Whole-query retries the driver spent.
    pub retries: i64,
    /// Shard re-dispatches the cluster spent (0 on single-node).
    pub failovers: i64,
    /// Faults the plan actually injected.
    pub faults_injected: i64,
    /// Shards dropped from the answer (partial scenario only).
    pub partial_shards: i64,
    /// Whether the recovered result matched the fault-free run.
    pub identical: bool,
}

impl FaultRun {
    /// Recovery overhead: faulted wall time over baseline.
    pub fn overhead(&self) -> f64 {
        self.faulted.as_secs_f64() / self.baseline.as_secs_f64().max(1e-9)
    }

    /// The report line as a JSON record.
    pub fn to_json(&self, records: usize, seed: u64) -> String {
        format!(
            "{{\"system\":\"{}\",\"scenario\":\"{}\",\"records\":{records},\"seed\":{seed},\
             \"baseline_ns\":{},\"faulted_ns\":{},\"overhead\":{:.4},\"retries\":{},\
             \"failovers\":{},\"faults_injected\":{},\"partial_shards\":{},\"identical\":{}}}",
            self.system,
            self.scenario,
            self.baseline.as_nanos(),
            self.faulted.as_nanos(),
            self.overhead(),
            self.retries,
            self.failovers,
            self.faults_injected,
            self.partial_shards,
            self.identical,
        )
    }
}

/// The representative expression: indexed filter, sort, head — touches
/// rewrite, the backend, and postprocessing on every language.
fn run_expression(frame: &AFrame) -> (String, Duration) {
    let t0 = Instant::now();
    let rows = frame
        .mask(&col("ten").eq(3))
        .expect("rewrite")
        .sort_values("unique1", true)
        .expect("rewrite")
        .head(20)
        .expect("faulted action did not recover");
    (format!("{:?}", rows.rows()), t0.elapsed())
}

/// Pull the recovery metrics out of the last trace's `execute` span.
fn trace_metrics(frame: &AFrame) -> (i64, i64, i64, i64) {
    let trace = frame.last_trace().expect("action records a trace");
    let execute = trace.span("execute").expect("trace has an execute span");
    (
        execute.metric("retries").unwrap_or(0),
        execute.metric("failovers").unwrap_or(0),
        execute.metric("faults_injected").unwrap_or(0),
        execute.metric("partial_shards").unwrap_or(0),
    )
}

/// The single-node scenarios: every backend recovers from
/// [`FAULT_BUDGET`] injected failures via whole-query retry.
pub fn single_node_runs(records: usize, seed: u64) -> Vec<FaultRun> {
    let setup = SingleNodeSetup::build(records, records);
    let systems = [
        SystemKind::Asterix,
        SystemKind::Postgres,
        SystemKind::Mongo,
        SystemKind::Neo4j,
    ];
    let mut runs = Vec::new();
    for kind in systems {
        let frame = setup.polyframe(kind);
        let (baseline_rows, baseline) = run_expression(&frame);

        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_error_rate(1.0)
                .with_max_faults(FAULT_BUDGET),
        );
        setup.set_fault_plan(kind, Some(Arc::clone(&plan)));
        let resilient = frame.with_retry(RetryPolicy::retries(3));
        let (recovered_rows, faulted) = run_expression(&resilient);
        setup.set_fault_plan(kind, None);

        let (retries, failovers, faults_injected, partial_shards) = trace_metrics(&resilient);
        runs.push(FaultRun {
            system: kind.name().to_string(),
            scenario: "retry",
            baseline,
            faulted,
            retries,
            failovers,
            faults_injected,
            partial_shards,
            identical: baseline_rows == recovered_rows,
        });
    }
    runs
}

/// The cluster scenarios: shard failover under the same fault budget,
/// plus a partial-results run with one shard permanently down.
pub fn cluster_runs(shards: usize, records: usize, seed: u64) -> Vec<FaultRun> {
    let setup = MultiNodeSetup::build(shards, records);
    let mut runs = Vec::new();
    for kind in ClusterKind::ALL {
        let frame = setup.polyframe(kind);
        let (baseline_rows, baseline) = run_expression(&frame);

        // Failover: transient shard failures, re-dispatched in place.
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_error_rate(1.0)
                .with_max_faults(FAULT_BUDGET),
        );
        setup.set_fault_plan(kind, Some(Arc::clone(&plan)));
        let resilient = frame.with_retry(RetryPolicy::retries(3));
        let (recovered_rows, faulted) = run_expression(&resilient);
        let (retries, failovers, faults_injected, partial_shards) = trace_metrics(&resilient);
        runs.push(FaultRun {
            system: kind.name().to_string(),
            scenario: "failover",
            baseline,
            faulted,
            retries,
            failovers,
            faults_injected,
            partial_shards,
            identical: baseline_rows == recovered_rows,
        });

        // Partial: the last shard never comes back; the healthy shards
        // answer (the result is intentionally not identical).
        setup.set_fault_plan(
            kind,
            Some(Arc::new(
                FaultPlan::new(seed)
                    .with_error_rate(1.0)
                    .for_sites(format!("shard[{}]", shards - 1)),
            )),
        );
        let partial = frame.allow_partial_results();
        let (partial_rows, faulted) = run_expression(&partial);
        setup.set_fault_plan(kind, None);
        let (retries, failovers, faults_injected, partial_shards) = trace_metrics(&partial);
        runs.push(FaultRun {
            system: kind.name().to_string(),
            scenario: "partial",
            baseline,
            faulted,
            retries,
            failovers,
            faults_injected,
            partial_shards,
            identical: baseline_rows == partial_rows,
        });
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_recovery_is_lossless() {
        // The second input is `harness faults --records 2000`'s.
        for records in [500, 2_000] {
            for run in single_node_runs(records, 42) {
                assert!(run.identical, "{}: recovery changed the result", run.system);
                assert_eq!(run.faults_injected, FAULT_BUDGET as i64, "{}", run.system);
                assert!(run.retries > 0, "{}", run.system);
            }
        }
    }

    #[test]
    fn cluster_partial_runs_drop_exactly_one_shard() {
        // The second input is `harness faults --records 2000`'s.
        for (shards, records, seed) in [(3, 600, 7), (4, 2_000, 42)] {
            for run in cluster_runs(shards, records, seed) {
                match run.scenario {
                    "failover" => {
                        assert!(run.identical, "{}", run.system);
                        assert!(run.failovers > 0, "{}", run.system);
                    }
                    "partial" => {
                        assert_eq!(run.partial_shards, 1, "{}", run.system);
                    }
                    other => panic!("unexpected scenario {other}"),
                }
            }
        }
    }
}
