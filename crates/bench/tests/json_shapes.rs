//! Schema tests for the harness `--json` reports: downstream plotting
//! scripts key on these field names, so every report line must stay
//! parseable JSON carrying its documented keys. Each test builds a run
//! struct with synthetic values and checks `to_json` round-trips
//! through the workspace JSON parser with the full key set.

use polyframe_bench::ablations::{FallbackBreakdown, VectorizedEvalAblation};
use polyframe_bench::faults::FaultRun;
use polyframe_bench::replicate::{RebalanceRun, RecoveryRun, ReplicateReport};
use polyframe_datamodel::{parse_json, Value};
use std::time::Duration;

/// Parse one report line and assert it carries exactly `keys`.
fn assert_keys(line: &str, keys: &[&str]) {
    let parsed = parse_json(line).expect("report line must be valid JSON");
    let Value::Obj(rec) = parsed else {
        panic!("report line must be a JSON object, got {parsed:?}");
    };
    for key in keys {
        assert!(
            rec.get(key).is_some(),
            "missing documented key {key:?} in {line}"
        );
    }
    assert_eq!(rec.len(), keys.len(), "undocumented keys crept into {line}");
}

#[test]
fn eval_ablation_report_keeps_documented_keys() {
    let row = VectorizedEvalAblation {
        mode: "specialized",
        elapsed: Duration::from_micros(800),
        speedup: 1.8,
    };
    // The same row type backs three experiments; each tags its records
    // with its own ablation name.
    for ablation in [
        "vectorized_eval",
        "vectorized_join",
        "kernel_specialization",
    ] {
        let line = row.to_json(ablation, 5_000);
        assert_keys(
            &line,
            &["ablation", "records", "evaluator", "elapsed_ns", "speedup"],
        );
        let Value::Obj(rec) = parse_json(&line).expect("ablation line parses") else {
            panic!("not an object");
        };
        assert_eq!(rec.get("ablation"), Some(&Value::from(ablation)));
    }
}

#[test]
fn coverage_report_keeps_documented_keys() {
    let row = FallbackBreakdown {
        shape: "fused filter+agg",
        mode: "true".to_string(),
        kernel: "specialized".to_string(),
        dict: "hit-rate 50% (demoted)".to_string(),
    };
    assert_keys(
        &row.to_json(),
        &["ablation", "pipeline", "mode", "kernel", "dict"],
    );
}

#[test]
fn faults_report_keeps_documented_keys() {
    let run = FaultRun {
        system: "AsterixDB".to_string(),
        scenario: "failover",
        baseline: Duration::from_millis(2),
        faulted: Duration::from_millis(5),
        retries: 1,
        failovers: 2,
        faults_injected: 2,
        partial_shards: 0,
        identical: true,
    };
    assert_keys(
        &run.to_json(5_000, 42),
        &[
            "system",
            "scenario",
            "records",
            "seed",
            "baseline_ns",
            "faulted_ns",
            "overhead",
            "retries",
            "failovers",
            "faults_injected",
            "partial_shards",
            "identical",
        ],
    );
}

#[test]
fn replicate_recovery_report_keeps_documented_keys() {
    let run = RecoveryRun {
        mode: "promotion",
        shards: 2,
        replicas: 2,
        recovery: Duration::from_millis(1),
        replayed: 0,
        promotions: 1,
        rebuilds: 0,
        p99_during: Duration::from_millis(4),
        identical: true,
    };
    assert_keys(
        &run.to_json(5_000, 42),
        &[
            "scenario",
            "mode",
            "shards",
            "replicas",
            "records",
            "seed",
            "recovery_ns",
            "replayed",
            "promotions",
            "rebuilds",
            "p99_during_ns",
            "identical",
        ],
    );
}

#[test]
fn replicate_rebalance_report_keeps_documented_keys() {
    let run = RebalanceRun {
        shards_before: 2,
        shards_after: 3,
        ops: 19,
        split: Duration::from_millis(16),
        p50: Duration::from_micros(900),
        p99: Duration::from_millis(9),
        kept: 203,
        moved: 197,
        identical: true,
    };
    assert_keys(
        &run.to_json(5_000, 42),
        &[
            "scenario",
            "shards_before",
            "shards_after",
            "records",
            "seed",
            "ops",
            "split_ns",
            "p50_ns",
            "p99_ns",
            "kept",
            "moved",
            "identical",
        ],
    );
}

#[test]
fn replicate_report_lines_parse_end_to_end() {
    // A real (tiny) report: every line the harness would write must
    // parse, and the scenario discriminator must route each line.
    let report: ReplicateReport = polyframe_bench::replicate::replicate_report(200, 2, 5);
    for run in &report.recovery {
        let parsed = parse_json(&run.to_json(200, 5)).expect("recovery line parses");
        let Value::Obj(rec) = parsed else {
            panic!("not an object");
        };
        assert_eq!(rec.get("scenario"), Some(&Value::from("recovery")));
    }
    let parsed = parse_json(&report.rebalance.to_json(200, 5)).expect("rebalance line parses");
    let Value::Obj(rec) = parsed else {
        panic!("not an object");
    };
    assert_eq!(rec.get("scenario"), Some(&Value::from("rebalance")));
}
