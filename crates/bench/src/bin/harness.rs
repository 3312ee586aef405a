//! The DataFrame-benchmark harness: regenerates the data behind every
//! figure of the PolyFrame paper as text tables.
//!
//! ```text
//! harness single-node [--size xs|s|m|l|xl|empty|all] [--scale N]
//!                      [--json PATH]                                Figs 5-8
//! harness speedup     [--shards N] [--records N]                   Fig 9
//! harness scaleup     [--shards N] [--records N]                   Fig 10
//! harness translate                                                Table I / Fig 2 / Fig 4
//! harness sizes       [--scale N]                                  Table IV
//! harness faults      [--records N] [--shards N] [--seed N]
//!                      [--json PATH]                                recovery overhead
//! harness replicate   [--records N] [--shards N] [--seed N]
//!                      [--json PATH]                                replication + rebalance
//! ```
//!
//! `--scale` sets the XS record count (default 20 000; the paper used
//! 500 000 ≈ 1 GB of JSON). All other sizes follow Table IV's proportions.

use polyframe::prelude::*;
use polyframe_bench::expressions::ALL_EXPRESSIONS;
use polyframe_bench::params::BenchParams;
use polyframe_bench::report::{fmt_duration, fmt_ratio, json_record, Table};
use polyframe_bench::systems::{ClusterKind, MultiNodeSetup, SingleNodeSetup, SystemKind};
use polyframe_bench::timing::{time_cluster_expression, time_expression};
use polyframe_wisconsin::SizePreset;
use std::time::Duration;

const DEFAULT_XS: usize = 20_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let get_flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let scale = get_flag("--scale", DEFAULT_XS);
    let get_str_flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    match cmd {
        "single-node" => {
            let size_arg = args
                .iter()
                .position(|a| a == "--size")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "xs".to_string());
            let sizes: Vec<SizePreset> = match size_arg.as_str() {
                "xs" => vec![SizePreset::Xs],
                "s" => vec![SizePreset::S],
                "m" => vec![SizePreset::M],
                "l" => vec![SizePreset::L],
                "xl" => vec![SizePreset::Xl],
                "empty" => vec![SizePreset::Empty],
                "all" => {
                    let mut v = vec![SizePreset::Empty];
                    v.extend(SizePreset::SCALED);
                    v
                }
                other => {
                    eprintln!("unknown size {other}");
                    std::process::exit(2);
                }
            };
            let mut records = Vec::new();
            for size in sizes {
                single_node(size, scale, &mut records);
            }
            if let Some(path) = get_str_flag("--json") {
                let body = format!("[\n{}\n]\n", records.join(",\n"));
                match std::fs::write(&path, body) {
                    Ok(()) => println!("\nwrote {} JSON records to {path}", records.len()),
                    Err(e) => {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "speedup" => {
            let shards = get_flag("--shards", 4);
            let records = get_flag("--records", SizePreset::Xl.records(scale));
            speedup(shards, records);
        }
        "scaleup" => {
            let shards = get_flag("--shards", 4);
            let records = get_flag("--records", SizePreset::Xl.records(scale));
            scaleup(shards, records);
        }
        "translate" => translate(),
        "sizes" => sizes(scale),
        "ablations" => {
            let records = get_flag("--records", 60_000);
            let samples = get_flag("--samples", 15);
            ablations(records, samples, get_str_flag("--json"));
        }
        "faults" => {
            let records = get_flag("--records", 5_000);
            let shards = get_flag("--shards", 4);
            let seed = get_flag("--seed", 42) as u64;
            faults(records, shards, seed, get_str_flag("--json"));
        }
        "replicate" => {
            let records = get_flag("--records", 5_000);
            let shards = get_flag("--shards", 2);
            let seed = get_flag("--seed", 42) as u64;
            replicate(records, shards, seed, get_str_flag("--json"));
        }
        _ => {
            eprintln!(
                "usage: harness <single-node|speedup|scaleup|translate|sizes|ablations|faults|replicate> [options]\n\
                 options: --size xs|s|m|l|xl|empty|all, --scale N, --shards N, --records N,\n\
                 --samples N (ablations), --seed N (faults/replicate),\n\
                 --json PATH (single-node/ablations/faults/replicate: JSON report)"
            );
        }
    }
}

/// Figures 5-8: one dataset size, all systems, all 13 expressions, both
/// timing points. Each run also appends a JSON record with the per-stage
/// trace breakdown to `json_out`.
fn single_node(size: SizePreset, scale: usize, json_out: &mut Vec<String>) {
    let n = size.records(scale);
    println!(
        "\n=== Single node, dataset {} ({n} records) ===",
        size.name()
    );
    let setup = SingleNodeSetup::build(n, scale);
    let params = BenchParams::default();

    let systems = SystemKind::PAPER_SET;
    let header: Vec<&str> = std::iter::once("expr")
        .chain(systems.iter().map(|s| s.name()))
        .collect();
    let mut total = Table::new(&header);
    let mut expr_only = Table::new(&header);

    for expr in ALL_EXPRESSIONS {
        let mut trow = vec![expr.0.to_string()];
        let mut erow = vec![expr.0.to_string()];
        for kind in systems {
            let t = time_expression(&setup, kind, expr, &params);
            json_out.push(json_record(size.name(), n, expr.0, kind.name(), &t));
            if t.failed() {
                trow.push("OOM".to_string());
                erow.push("OOM".to_string());
            } else {
                trow.push(fmt_duration(t.total()));
                erow.push(fmt_duration(t.expression));
            }
        }
        total.row(trow);
        expr_only.row(erow);
    }
    println!("\nTotal runtimes (creation + expression):");
    print!("{}", total.render());
    println!("\nExpression-only runtimes:");
    print!("{}", expr_only.render());
}

/// Figure 9: fixed dataset, growing cluster.
fn speedup(max_shards: usize, records: usize) {
    println!("\n=== Speedup: {records} records, 1..{max_shards} nodes ===");
    let params = BenchParams::default();
    let setups: Vec<MultiNodeSetup> = (1..=max_shards)
        .map(|s| MultiNodeSetup::build(s, records))
        .collect();
    cluster_tables(&setups, &params, true);
}

/// Figure 10: dataset grows with the cluster.
fn scaleup(max_shards: usize, base_records: usize) {
    println!("\n=== Scaleup: {base_records} records/node, 1..{max_shards} nodes ===");
    let params = BenchParams::default();
    let setups: Vec<MultiNodeSetup> = (1..=max_shards)
        .map(|s| MultiNodeSetup::build(s, base_records * s))
        .collect();
    cluster_tables(&setups, &params, false);
}

fn cluster_tables(setups: &[MultiNodeSetup], params: &BenchParams, is_speedup: bool) {
    let label = if is_speedup { "speedup" } else { "scaleup" };
    for kind in ClusterKind::ALL {
        let mut header: Vec<String> = vec!["expr".to_string()];
        for setup in setups {
            header.push(format!("{}n", setup.shards));
            if setup.shards > 1 {
                header.push(format!("{label}@{}", setup.shards));
            }
        }
        let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        for expr in ALL_EXPRESSIONS {
            let mut row = vec![expr.0.to_string()];
            let mut base: Option<Duration> = None;
            for setup in setups {
                let t = time_cluster_expression(setup, kind, expr, params);
                if t.failed() {
                    // Sharded MongoDB cannot run expression 12 ($lookup).
                    row.push("n/a".to_string());
                    if setup.shards > 1 {
                        row.push("-".to_string());
                    }
                    continue;
                }
                row.push(fmt_duration(t.expression));
                match base {
                    None => base = Some(t.expression),
                    Some(b) => row.push(fmt_ratio(
                        b.as_secs_f64() / t.expression.as_secs_f64().max(1e-9),
                    )),
                }
            }
            table.row(row);
        }
        println!("\n{}:", kind.name());
        print!("{}", table.render());
    }
}

/// The intra-node performance ablations: plan-cache cold vs warm compiles
/// per personality, and morsel-parallel scan scaling over worker counts.
fn ablations(records: usize, samples: usize, json_path: Option<String>) {
    use polyframe_bench::ablations::{
        fallback_breakdown, join_vectorized_ablation, kernel_specialization_ablation,
        parallel_scan_ablation, plan_cache_ablation, plan_quality_ablation,
        vectorized_eval_ablation,
    };

    println!("\n=== Ablation: plan cache (cold vs warm compile) ===");
    let cache = plan_cache_ablation(samples.min(64));
    let mut table = Table::new(&["personality", "cold", "warm", "warm/cold", "hit rate"]);
    for r in &cache {
        table.row(vec![
            r.personality.to_string(),
            fmt_duration(r.cold),
            fmt_duration(r.warm),
            format!("{:.1}%", r.warm_over_cold() * 100.0),
            format!("{:.0}%", r.hit_rate * 100.0),
        ]);
    }
    print!("{}", table.render());

    println!("\n=== Ablation: morsel-parallel scan ({records} records, SUM over full scan) ===");
    let scan = parallel_scan_ablation(records, &[1, 2, 4, 8], samples);
    let mut table = Table::new(&["workers", "median", "speedup"]);
    for r in &scan {
        table.row(vec![
            r.workers.to_string(),
            fmt_duration(r.elapsed),
            fmt_ratio(r.speedup),
        ]);
    }
    print!("{}", table.render());

    println!(
        "\n=== Ablation: vectorized evaluation ({records} records, filter+project scan, 1 core) ==="
    );
    let vec_eval = vectorized_eval_ablation(records, samples);
    let mut table = Table::new(&["evaluator", "median", "speedup"]);
    for r in &vec_eval {
        table.row(vec![
            r.mode.to_string(),
            fmt_duration(r.elapsed),
            fmt_ratio(r.speedup),
        ]);
    }
    print!("{}", table.render());

    println!(
        "\n=== Ablation: vectorized blocking operators ({records} records, \
         hash join + filter + SUM, all cores) ==="
    );
    let join_eval = join_vectorized_ablation(records, samples);
    let mut table = Table::new(&["evaluator", "median", "speedup"]);
    for r in &join_eval {
        table.row(vec![
            r.mode.to_string(),
            fmt_duration(r.elapsed),
            fmt_ratio(r.speedup),
        ]);
    }
    print!("{}", table.render());

    println!(
        "\n=== Ablation: kernel specialization ({records} records, \
         fused filter+aggregate, 1 core) ==="
    );
    let kernel_eval = kernel_specialization_ablation(records, samples);
    let mut table = Table::new(&["evaluator", "median", "speedup"]);
    for r in &kernel_eval {
        table.row(vec![
            r.mode.to_string(),
            fmt_duration(r.elapsed),
            fmt_ratio(r.speedup),
        ]);
    }
    print!("{}", table.render());

    println!(
        "\n=== Ablation: plan quality ({records} records, cost-based vs rule-based planning) ==="
    );
    let quality = plan_quality_ablation(records, samples);
    let mut table = Table::new(&[
        "scenario",
        "rule plan",
        "cost plan",
        "rule median",
        "cost median",
        "speedup",
    ]);
    for r in &quality {
        table.row(vec![
            r.scenario.to_string(),
            r.rule_plan.clone(),
            r.cost_plan.clone(),
            fmt_duration(r.rule),
            fmt_duration(r.cost),
            fmt_ratio(r.speedup),
        ]);
    }
    print!("{}", table.render());
    for r in &quality {
        println!(
            "{}: cost model rejected {} at cost={:.0}",
            r.scenario, r.rejected, r.rejected_cost
        );
    }

    println!("\n=== Vectorization coverage (per pipeline shape) ===");
    let coverage = fallback_breakdown(records.min(5_000));
    let mut table = Table::new(&["pipeline", "vectorized", "kernel", "dict"]);
    for r in &coverage {
        table.row(vec![
            r.shape.to_string(),
            r.mode.clone(),
            r.kernel.clone(),
            r.dict.clone(),
        ]);
    }
    print!("{}", table.render());

    if let Some(path) = json_path {
        let mut recs: Vec<String> = cache
            .iter()
            .map(|r| {
                format!(
                    "{{\"ablation\":\"plan_cache\",\"personality\":\"{}\",\"cold_ns\":{},\"warm_ns\":{},\"warm_over_cold\":{:.6},\"hit_rate\":{:.4}}}",
                    r.personality,
                    r.cold.as_nanos(),
                    r.warm.as_nanos(),
                    r.warm_over_cold(),
                    r.hit_rate
                )
            })
            .collect();
        recs.extend(scan.iter().map(|r| {
            format!(
                "{{\"ablation\":\"parallel_scan\",\"records\":{records},\"workers\":{},\"elapsed_ns\":{},\"speedup\":{:.4}}}",
                r.workers,
                r.elapsed.as_nanos(),
                r.speedup
            )
        }));
        recs.extend(
            vec_eval
                .iter()
                .map(|r| r.to_json("vectorized_eval", records)),
        );
        recs.extend(
            join_eval
                .iter()
                .map(|r| r.to_json("vectorized_join", records)),
        );
        recs.extend(
            kernel_eval
                .iter()
                .map(|r| r.to_json("kernel_specialization", records)),
        );
        recs.extend(quality.iter().map(|r| {
            // `report_json` is the cost-based engine's ExplainReport,
            // already JSON — embedded natively, not re-quoted.
            format!(
                "{{\"ablation\":\"plan_quality\",\"scenario\":\"{}\",\"records\":{records},\
                 \"rule_plan\":\"{}\",\"cost_plan\":\"{}\",\"rejected\":\"{}\",\
                 \"rejected_cost\":{:.2},\"rule_ns\":{},\"cost_ns\":{},\"speedup\":{:.4},\
                 \"explain\":{}}}",
                r.scenario,
                r.rule_plan,
                r.cost_plan,
                r.rejected,
                r.rejected_cost,
                r.rule.as_nanos(),
                r.cost.as_nanos(),
                r.speedup,
                r.report_json
            )
        }));
        recs.extend(coverage.iter().map(|r| r.to_json()));
        let body = format!("[\n{}\n]\n", recs.join(",\n"));
        match std::fs::write(&path, body) {
            Ok(()) => println!("\nwrote {} JSON records to {path}", recs.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Recovery overhead: every backend runs the same expression fault-free
/// and under a seeded fault plan with recovery enabled; the report shows
/// what the recovery cost and that the result survived intact.
fn faults(records: usize, shards: usize, seed: u64, json_path: Option<String>) {
    use polyframe_bench::faults::{cluster_runs, single_node_runs, FAULT_BUDGET};

    println!(
        "\n=== Fault recovery: {records} records, {shards} shards, seed {seed}, \
         {FAULT_BUDGET} injected faults per scenario ==="
    );
    let mut runs = single_node_runs(records, seed);
    runs.extend(cluster_runs(shards, records, seed));

    let mut table = Table::new(&[
        "system",
        "scenario",
        "baseline",
        "faulted",
        "overhead",
        "retries",
        "failovers",
        "injected",
        "dropped",
        "result",
    ]);
    for run in &runs {
        table.row(vec![
            run.system.clone(),
            run.scenario.to_string(),
            fmt_duration(run.baseline),
            fmt_duration(run.faulted),
            fmt_ratio(run.overhead()),
            run.retries.to_string(),
            run.failovers.to_string(),
            run.faults_injected.to_string(),
            run.partial_shards.to_string(),
            if run.identical {
                "identical"
            } else {
                "partial"
            }
            .to_string(),
        ]);
    }
    print!("{}", table.render());

    let losing = runs
        .iter()
        .filter(|r| r.scenario != "partial" && !r.identical)
        .count();
    if losing > 0 {
        eprintln!("\n{losing} recovery run(s) changed the result");
        std::process::exit(1);
    }
    println!("\nall retry/failover recoveries returned fault-free results");

    if let Some(path) = json_path {
        let recs: Vec<String> = runs.iter().map(|r| r.to_json(records, seed)).collect();
        let body = format!("[\n{}\n]\n", recs.join(",\n"));
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {} JSON records to {path}", recs.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Elastic tier: the same seeded leader crash healed by full WAL
/// rebuild vs follower promotion (recovery time under load), plus read
/// tail latency while a shard splits online. Fails when any scenario
/// changes query results.
fn replicate(records: usize, shards: usize, seed: u64, json_path: Option<String>) {
    use polyframe_bench::replicate::replicate_report;

    println!(
        "\n=== Replication and rebalance: {records} records, {shards} shards, seed {seed} ==="
    );
    let report = replicate_report(records, shards, seed);

    let mut table = Table::new(&[
        "mode",
        "replicas",
        "recovery",
        "replayed",
        "promotions",
        "rebuilds",
        "p99 during",
        "results",
    ]);
    for run in &report.recovery {
        table.row(vec![
            run.mode.to_string(),
            run.replicas.to_string(),
            fmt_duration(run.recovery),
            run.replayed.to_string(),
            run.promotions.to_string(),
            run.rebuilds.to_string(),
            fmt_duration(run.p99_during),
            if run.identical {
                "identical"
            } else {
                "DIVERGED"
            }
            .to_string(),
        ]);
    }
    print!("{}", table.render());

    let reb = &report.rebalance;
    println!(
        "\nonline split {} -> {} shards: cutover {}, kept {} / moved {} rows, \
         {} reads during ({} p50, {} p99), results {}",
        reb.shards_before,
        reb.shards_after,
        fmt_duration(reb.split),
        reb.kept,
        reb.moved,
        reb.ops,
        fmt_duration(reb.p50),
        fmt_duration(reb.p99),
        if reb.identical {
            "identical"
        } else {
            "DIVERGED"
        },
    );

    let diverged =
        report.recovery.iter().filter(|r| !r.identical).count() + usize::from(!reb.identical);
    if diverged > 0 {
        eprintln!("\n{diverged} replication run(s) changed query results");
        std::process::exit(1);
    }
    if let Some((rebuild, promotion)) = report
        .recovery
        .first()
        .zip(report.recovery.iter().find(|r| r.mode == "promotion"))
    {
        println!(
            "promotion replayed {} records vs {} for the full rebuild",
            promotion.replayed, rebuild.replayed
        );
    }

    if let Some(path) = json_path {
        let mut recs: Vec<String> = report
            .recovery
            .iter()
            .map(|r| r.to_json(records, seed))
            .collect();
        recs.push(reb.to_json(records, seed));
        let body = format!("[\n{}\n]\n", recs.join(",\n"));
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {} JSON records to {path}", recs.len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Table I / Figure 2 / Figure 4: the incremental query formation chain in
/// all four languages.
fn translate() {
    println!("=== Incremental query formation (paper Table I) ===");
    let ops = [
        "1: af = AFrame('Test', 'Users')",
        "2: af['lang']",
        "3: af['lang'] == 'en'",
        "4: af[af['lang'] == 'en']",
        "5: ...[['name', 'address']]",
        "6: ....head(10)",
    ];
    for lang in [
        Language::SqlPlusPlus,
        Language::Sql,
        Language::Mongo,
        Language::Cypher,
    ] {
        println!("\n--- {} ---", lang.name());
        let tr = polyframe::Translator::new(RuleSet::builtin(lang));
        let q1 = tr.records("Test", "Users").unwrap();
        let q2 = tr.project(&q1, &["lang"]).unwrap();
        let q3 = tr
            .project_computed(&q2, "is_eq", &col("lang").eq("en"))
            .unwrap();
        let q4 = tr.filter(&q1, &col("lang").eq("en")).unwrap();
        let q5 = tr.project(&q4, &["name", "address"]).unwrap();
        let q6 = tr.limit(&q5, 10).unwrap();
        for (op, q) in ops.iter().zip([&q1, &q2, &q3, &q4, &q5, &q6]) {
            println!("\n[{op}]\n{q}");
        }
    }
}

/// Table IV: the single-node dataset sizes at the current scale.
fn sizes(scale: usize) {
    println!("=== Dataset sizes (paper Table IV proportions) ===");
    let mut table = Table::new(&["name", "records", "paper records", "paper JSON size"]);
    let paper = [
        ("XS", "0.5 mil", "1 GB"),
        ("S", "1.25 mil", "2.5 GB"),
        ("M", "2.5 mil", "5 GB"),
        ("L", "3.75 mil", "7.5 GB"),
        ("XL", "5 mil", "10 GB"),
    ];
    for (preset, (name, prec, psize)) in SizePreset::SCALED.iter().zip(paper) {
        table.row(vec![
            name.to_string(),
            preset.records(scale).to_string(),
            prec.to_string(),
            psize.to_string(),
        ]);
    }
    print!("{}", table.render());
}
