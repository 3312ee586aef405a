//! What the benchmark declares: its workloads, every metric with unit,
//! direction and regression bound, and `BENCHMARK.json` rendered from
//! the same tables (a test holds the committed file to them).

use crate::ops::{EXPRESSIONS, POINT_OPS};
use crate::report::json_str;
use crate::stores::Lang;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// A named workload and the one-line reason it exists.
pub struct WorkloadSpec {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// The five workloads; all closed loop.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "wisc_scan",
        why: "13 paper expressions x 4 single-node personalities, warm caches: executors do >95% \
              of the work, 13 query texts fit every plan cache",
    },
    WorkloadSpec {
        name: "wisc_point",
        why: "index-served point ops with never-repeated literals, a stream larger than every \
              plan cache: rewrite, parse, plan and trace assembly dominate, exec does little",
    },
    WorkloadSpec {
        name: "serve_rw",
        why: "the same reads through core::serve: admission queue, worker pool, nproc concurrent \
              sessions, a writer publishing snapshots beside them",
    },
    WorkloadSpec {
        name: "durable_ingest",
        why: "small durable batches with read-your-writes, then crash recovery: WAL, codec and \
              the three durable store shells do the work, reads almost none",
    },
    WorkloadSpec {
        name: "cluster_scan",
        why: "the 13 expressions through sharded clusters (shards = nproc): adds split, per-shard \
              dispatch and merge on top of the executors wisc_scan measures alone",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where `BENCHMARK.json` lists a metric, and so which run prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Defined on every workload; printed by the untraced run; bounded.
    EndToEnd,
    /// Printed by the traced run; 0 on a workload that does not
    /// exercise the layer.
    PerLayer,
}

/// One declared metric.
pub struct MetricSpec {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// Its tier.
    pub tier: Tier,
    /// Share of the baseline median by which it may worsen before
    /// `polybench compare` fails it; `None` is reported, never gated.
    pub bound: Option<f64>,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

fn spec(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    tier: Tier,
    bound: Option<f64>,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        tier,
        bound,
        moves,
    }
}

/// The name the failure ratio goes by in `compare` (it is the run's
/// `failed / attempted`, not a key of `metrics`).
pub const FAIL_RATIO: &str = "fail_ratio";

/// Every declared metric: the end-to-end ones first.
pub fn metrics() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    use Tier::{EndToEnd, PerLayer};
    let mut all = vec![spec(
        "setup_s",
        "s",
        Lower,
        EndToEnd,
        Some(0.25),
        "median wall time to build the workload's stores (load + index builds; per cycle on \
         durable_ingest)",
    )];
    for lang in Lang::ALL {
        all.push(spec(
            format!("round_ms.{}", lang.name()),
            "ms",
            Lower,
            EndToEnd,
            Some(0.20),
            "sum over the workload's operation list of the median expression-only wall time on \
             this personality",
        ));
    }
    all.push(spec(
        "actions_per_s",
        "1/s",
        Higher,
        EndToEnd,
        Some(0.20),
        "operations completed per second of the timed phase, all personalities",
    ));
    all.push(spec(
        "peak_rss_mb",
        "MiB",
        Lower,
        EndToEnd,
        Some(0.10),
        "VmHWM when set-up and warm-up are done: the loaded stores and what building them took",
    ));

    // End-to-end in kind but defined on one or two workloads only, so
    // listed per layer (every end-to-end metric must be measured by
    // every workload); `compare` still holds them to their bounds,
    // except the two that did not repeat within theirs.
    for (name, unit, better, bound, moves) in [
        (
            "read_p50_us",
            "us",
            Lower,
            Some(0.10),
            "serve_rw: served read latency; durable_ingest: read-your-writes len(df); mean over \
             personalities",
        ),
        (
            "read_p99_us",
            "us",
            Lower,
            // Demoted: 54 % spread across ten processes on serve_rw.
            None,
            "as read_p50_us; on serve_rw it sits in the 20% scans under the writer's stalls",
        ),
        (
            "write_p50_us",
            "us",
            Lower,
            // Demoted: 13 % spread across ten processes on serve_rw.
            None,
            "one batch commit: serve_rw's writer (64 rows), durable_ingest's durable batch",
        ),
        (
            "ingest_rows_per_s",
            "rows/s",
            Higher,
            Some(0.10),
            "durable_ingest: rows ingested per second of ingest, all four stores, durable",
        ),
        (
            "recover_ms",
            "ms",
            Lower,
            Some(0.10),
            "durable_ingest: sum of the four stores' median recover()",
        ),
        (
            "space_amp",
            "ratio",
            Lower,
            Some(0.0),
            "durable_ingest: (log + encoded snapshot bytes) / NDJSON bytes ingested; a count",
        ),
    ] {
        all.push(spec(name, unit, better, PerLayer, bound, moves));
    }

    for lang in Lang::ALL {
        for op in EXPRESSIONS {
            all.push(spec(
                format!("expr_us.{}.{}", lang.name(), op.label()),
                "us",
                Lower,
                PerLayer,
                None,
                "the term of round_ms on wisc_scan / cluster_scan that moved",
            ));
        }
    }
    for lang in Lang::ALL {
        for op in POINT_OPS {
            all.push(spec(
                format!("op_us.{}.{}", lang.name(), op.label()),
                "us",
                Lower,
                PerLayer,
                None,
                "the term of round_ms on wisc_point that moved",
            ));
        }
    }
    let per_lang: [(&str, &str, &str); 7] = [
        (
            "first_round_ms",
            "ms",
            "the first, cold round (cold plan caches, unpromoted kernels); one sample",
        ),
        (
            "setup.load_s",
            "s",
            "setup_s and peak_rss_mb, every workload",
        ),
        (
            "core.rewrite_us",
            "us",
            "round_ms and actions_per_s on wisc_point and serve_rw; <0.1% of wisc_scan",
        ),
        (
            "core.dispatch_us",
            "us",
            "time inside DatabaseConnector::dispatch: everything below core",
        ),
        (
            "core.self_us",
            "us",
            "action - rewrite - dispatch: moves round_ms on wisc_point and serve_rw",
        ),
        (
            "storage.recover_ms",
            "ms",
            "recover_ms and round_ms on durable_ingest",
        ),
        (
            "storage.batch_p99_us",
            "us",
            "checkpoint stalls a median hides: ingest_rows_per_s on durable_ingest",
        ),
    ];
    for (family, unit, moves) in per_lang {
        for lang in Lang::ALL {
            all.push(spec(
                format!("{family}.{}", lang.name()),
                unit,
                Lower,
                PerLayer,
                None,
                moves,
            ));
        }
    }
    for lang in [Lang::Sqlpp, Lang::Sql] {
        let l = lang.name();
        all.push(spec(
            format!("sqlengine.compile_us.{l}"),
            "us",
            Lower,
            PerLayer,
            None,
            "round_ms.sqlpp/.sql on wisc_point (lexer + parser + plan on a cache miss)",
        ));
        all.push(spec(
            format!("sqlengine.exec_us.{l}"),
            "us",
            Lower,
            PerLayer,
            None,
            "round_ms.sqlpp/.sql on wisc_scan, cluster_scan and serve_rw's scans",
        ));
        all.push(spec(
            format!("sqlengine.plan_cache_hit_ratio.{l}"),
            "ratio",
            Higher,
            PerLayer,
            None,
            "1.0 on wisc_scan, about 0.25 on wisc_point by construction",
        ));
    }
    all.push(spec(
        "docstore.aggregate_us",
        "us",
        Lower,
        PerLayer,
        None,
        "round_ms.mongo on wisc_scan and wisc_point",
    ));
    all.push(spec(
        "docstore.plan_cache_hit_ratio",
        "ratio",
        Higher,
        PerLayer,
        None,
        "as sqlengine.plan_cache_hit_ratio",
    ));
    all.push(spec(
        "graphstore.query_us",
        "us",
        Lower,
        PerLayer,
        None,
        "round_ms.cypher on wisc_scan and wisc_point",
    ));
    all.push(spec(
        "graphstore.plan_cache_hit_ratio",
        "ratio",
        Higher,
        PerLayer,
        None,
        "as sqlengine.plan_cache_hit_ratio",
    ));
    all.push(spec(
        "serve.queue_wait_us",
        "us",
        Lower,
        PerLayer,
        None,
        "served round - direct round: read_p50_us, read_p99_us, actions_per_s on serve_rw only",
    ));
    all.push(spec(
        "serve.worker_busy_ratio",
        "ratio",
        Lower,
        PerLayer,
        None,
        "direct service time / (workers x wall) on serve_rw",
    ));
    all.push(spec(
        "serve.rejected",
        "count",
        Lower,
        PerLayer,
        None,
        "admission rejections absorbed by client retry on serve_rw",
    ));
    for (name, unit, moves) in [
        (
            "storage.durability_overhead_ratio",
            "ratio",
            "durable ingest time / the same ingest with durability never enabled",
        ),
        (
            "storage.wal_appends",
            "count",
            "log appends of one cycle, four stores; exact",
        ),
        (
            "storage.checkpoints",
            "count",
            "checkpoints of one cycle, four stores; exact",
        ),
        (
            "storage.log_bytes_per_row",
            "bytes",
            "space_amp on durable_ingest",
        ),
        (
            "storage.snapshot_bytes_per_row",
            "bytes",
            "space_amp on durable_ingest",
        ),
    ] {
        all.push(spec(name, unit, Lower, PerLayer, None, moves));
    }
    for family in ["cluster.shard_max_ms", "cluster.merge_us"] {
        for lang in [Lang::Sqlpp, Lang::Sql, Lang::Mongo] {
            all.push(spec(
                format!("{family}.{}", lang.name()),
                if family.ends_with("_ms") { "ms" } else { "us" },
                Lower,
                PerLayer,
                None,
                "round_ms on cluster_scan; predicted no change on wisc_scan",
            ));
        }
    }
    all.push(spec(
        "run.peak_rss_mb",
        "MiB",
        Lower,
        PerLayer,
        None,
        "VmHWM when the run ends: adds what the timed phase allocates (snapshot copies on \
         serve_rw, where it spreads 13-26%)",
    ));
    all.push(spec(
        "bench.trace_overhead_ratio",
        "ratio",
        Lower,
        PerLayer,
        None,
        "traced round / untraced round: what the benchmark's own spans cost",
    ));
    all
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"polybench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"polybench\", \"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n");
    let all = metrics();
    let render = |tier: Tier| -> String {
        all.iter()
            .filter(|m| m.tier == tier)
            .map(|m| {
                let bound = match (tier, m.bound) {
                    (Tier::EndToEnd, Some(b)) => format!(", \"bound\": {b}"),
                    _ => String::new(),
                };
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    json_str(&m.name),
                    json_str(m.unit),
                    json_str(m.better.name())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    out.push_str("  \"end_to_end\": [\n");
    out.push_str(&render(Tier::EndToEnd));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&render(Tier::PerLayer));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_contract_limits_hold() {
        let all = metrics();
        let names: BTreeSet<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        let end_to_end = all.iter().filter(|m| m.tier == Tier::EndToEnd).count();
        let per_layer = all.len() - end_to_end;
        assert!((1..=16).contains(&end_to_end), "{end_to_end} end-to-end");
        assert!((1..=128).contains(&per_layer), "{per_layer} per-layer");
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for m in &all {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            if m.tier == Tier::EndToEnd {
                let bound = m.bound.expect("every end-to-end metric is bounded");
                assert!((0.0..=0.25).contains(&bound));
            }
        }
        let setup = all.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert_eq!(
            setup.bound,
            all.iter().filter_map(|m| m.bound).reduce(f64::max),
            "setup_s carries the largest bound"
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(name_ok(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_rendered_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `polybench list --json > BENCHMARK.json`"
        );
    }
}
