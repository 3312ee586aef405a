//! The five workloads.

pub mod durable_ingest;
pub mod readloop;
pub mod serve_rw;

use crate::measure::{peak_rss_mib, put, Outcome, RunConfig};

/// Run the workload called `name`, or `None` if there is none.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    let mut out = match name {
        "wisc_scan" => readloop::run(cfg, readloop::Kind::WiscScan),
        "wisc_point" => readloop::run(cfg, readloop::Kind::WiscPoint),
        "cluster_scan" => readloop::run(cfg, readloop::Kind::ClusterScan),
        "serve_rw" => serve_rw::run(cfg),
        "durable_ingest" => durable_ingest::run(cfg),
        _ => return None,
    };
    put(&mut out.metrics, "run.peak_rss_mb", peak_rss_mib(), 0);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;
    use crate::spec;
    use polyframe_datamodel::{parse_json, Value};
    use std::collections::BTreeSet;

    /// Names `BENCHMARK.json` lists under `key`, each checked to be
    /// listed once.
    fn declared(key: &str) -> BTreeSet<String> {
        let doc = parse_json(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json");
        let listed: Vec<String> = doc
            .get_path(key)
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| m.get_path("name").as_str().expect("a name").to_string())
            .collect();
        let names: BTreeSet<String> = listed.iter().cloned().collect();
        assert_eq!(names.len(), listed.len(), "{key} lists a name twice");
        names
    }

    /// Every workload, at 500 rows and a fraction of a second, prints
    /// exactly the declared names — each once, each finite — and between
    /// them the workloads measure every declared per-layer metric.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let mut measured_somewhere = BTreeSet::new();
        for workload in &spec::WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    seed: 11,
                    seconds: 0.3,
                    trace,
                    rows: 500,
                    trace_out: None,
                };
                let out = run(workload.name, &cfg).expect("a declared workload runs");
                assert_eq!(
                    out.tally.failed, 0,
                    "{}: {:?}",
                    workload.name, out.tally.problems
                );
                assert!(out.tally.attempted > 0);
                let line = result_line(&cfg, &out)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name));
                let doc = parse_json(&line).expect("the result line is JSON");
                let keys: BTreeSet<&str> = doc.as_obj().expect("an object").keys().collect();
                assert_eq!(
                    keys,
                    BTreeSet::from(["attempted", "correct", "failed", "metrics"])
                );
                assert_eq!(doc.get_path("correct"), Value::Bool(true));
                let metrics = doc.get_path("metrics");
                let metrics = metrics.as_obj().expect("metrics");
                let printed: Vec<&str> = metrics.keys().collect();
                let names: BTreeSet<String> = printed.iter().map(|n| n.to_string()).collect();
                assert_eq!(names.len(), printed.len(), "a metric is printed twice");
                let tier = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(names, declared(tier), "{} trace={trace}", workload.name);
                for (name, entry) in metrics.iter() {
                    let value = entry.get_path("value").as_f64().expect("a number");
                    assert!(value.is_finite(), "{name} = {value}");
                    assert!(
                        trace || value > 0.0,
                        "{name} reads {value} on {}",
                        workload.name
                    );
                }
                measured_somewhere.extend(out.metrics.into_keys());
            }
        }
        let never: Vec<String> = declared("per_layer")
            .difference(&measured_somewhere)
            .cloned()
            .collect();
        assert!(
            never.is_empty(),
            "declared but measured by no workload: {never:?}"
        );
    }
}
