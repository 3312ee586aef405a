//! `polybench compare A B`: hold a candidate run set to the bounds the
//! benchmark fixed, against a baseline run set of the same host shape.

use crate::spec::{self, Better, MetricSpec};
use crate::stats;
use polyframe_datamodel::{parse_json, Value};
use std::collections::{BTreeMap, BTreeSet};

/// What `compare` needs of one run document.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether it was the traced run.
    pub trace: bool,
    /// Host core count.
    pub nproc: u64,
    /// Rows per dataset.
    pub rows: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Pass,
    /// Worse than the bound allows.
    Fail,
    /// The run-to-run spread is wider than the bound, and the two sets
    /// overlap: neither a regression nor its absence is shown.
    Unresolved,
    /// An unbounded metric: both medians are shown, nothing is judged.
    Info,
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Baseline median.
    pub base: f64,
    /// Candidate median.
    pub cand: f64,
    /// Share of the baseline by which the candidate is worse (negative
    /// when it is better).
    pub worse_by: f64,
    /// The wider of the two sets' interquartile spreads.
    pub spread: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Parse a run-set file: an array of run documents, or an object with a
/// `runs` array. `select` names a member of a top-level object first
/// (`BENCH_11.json:set1`).
pub fn parse_runs(text: &str, select: Option<&str>) -> Result<Vec<Run>, String> {
    let mut doc = parse_json(text).map_err(|e| format!("not JSON: {e}"))?;
    if let Some(member) = select {
        doc = doc.get_path(member);
        if doc.is_missing() {
            return Err(format!("no member `{member}`"));
        }
    }
    if doc.as_obj().is_some() {
        doc = doc.get_path("runs");
    }
    let docs = doc
        .as_array()
        .ok_or("expected an array of run documents, or an object holding `runs`")?;
    docs.iter().map(parse_run).collect()
}

fn parse_run(doc: &Value) -> Result<Run, String> {
    let text = |v: Value, what: &str| {
        v.as_str()
            .map(str::to_string)
            .ok_or(format!("run document lacks `{what}`"))
    };
    let count = |v: Value, what: &str| {
        v.as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .ok_or(format!("run document lacks `{what}`"))
    };
    let host = doc.get_path("host");
    let mut metrics = BTreeMap::new();
    if let Some(listed) = doc.get_path("metrics").as_obj() {
        for (name, entry) in listed.iter() {
            if let Some(value) = entry.get_path("value").as_f64() {
                metrics.insert(name.to_string(), value);
            }
        }
    }
    Ok(Run {
        workload: text(doc.get_path("workload"), "workload")?,
        seed: count(doc.get_path("seed"), "seed")?,
        trace: doc.get_path("trace").as_bool().unwrap_or(false),
        nproc: count(host.get_path("nproc"), "host.nproc")?,
        rows: count(host.get_path("rows"), "host.rows")?,
        attempted: count(doc.get_path("attempted"), "attempted")?,
        failed: count(doc.get_path("failed"), "failed")?,
        metrics,
    })
}

/// How much worse `cand` is than `base`, as a share of `base`.
fn worse_by(better: Better, base: f64, cand: f64) -> f64 {
    let delta = match better {
        Better::Lower => cand - base,
        Better::Higher => base - cand,
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

fn spread_of(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::spread(values)
    }
}

/// Judge one bounded metric. `base` and `cand` are `(seed, value)`.
fn judge(
    m: &MetricSpec,
    bound: f64,
    base: &[(u64, f64)],
    cand: &[(u64, f64)],
) -> (f64, f64, Verdict) {
    let values = |runs: &[(u64, f64)]| runs.iter().map(|(_, v)| *v).collect::<Vec<f64>>();
    let (base_v, cand_v) = (values(base), values(cand));
    let worse = worse_by(m.better, stats::median(&base_v), stats::median(&cand_v));
    let spread = spread_of(&base_v).max(spread_of(&cand_v));
    if bound == 0.0 {
        // A count: it must repeat exactly, run for run of the same seed.
        let by_seed: BTreeMap<u64, f64> = base.iter().copied().collect();
        let mut verdict = Verdict::Pass;
        for (seed, value) in cand {
            match by_seed.get(seed) {
                Some(b) if worse_by(m.better, *b, *value) > 0.0 => {
                    return (worse, spread, Verdict::Fail)
                }
                Some(_) => {}
                None => verdict = Verdict::Unresolved,
            }
        }
        return (worse, spread, verdict);
    }
    let verdict = if spread > bound {
        let every_cand_better = cand_v
            .iter()
            .all(|c| base_v.iter().all(|b| worse_by(m.better, *b, *c) < 0.0));
        if every_cand_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    (worse, spread, verdict)
}

/// Compare a candidate set with a baseline set. `Err` is a refusal: the
/// two were not made on the same host shape, or share no workload.
pub fn compare(base: &[Run], cand: &[Run]) -> Result<Vec<Row>, String> {
    let shapes: BTreeSet<(u64, u64)> = base.iter().chain(cand).map(|r| (r.nproc, r.rows)).collect();
    if shapes.len() > 1 {
        return Err(format!(
            "refusing to compare runs of different (nproc, ROWS): {shapes:?}"
        ));
    }
    let workloads: BTreeSet<&str> = base
        .iter()
        .map(|r| r.workload.as_str())
        .filter(|w| cand.iter().any(|r| r.workload == *w))
        .collect();
    if workloads.is_empty() {
        return Err("the two run sets share no workload".to_string());
    }
    let declared = spec::metrics();
    let mut rows = Vec::new();
    for workload in workloads {
        let of = |runs: &[Run], name: &str, traced: bool| -> Vec<(u64, f64)> {
            runs.iter()
                .filter(|r| r.workload == workload && r.trace == traced)
                .filter_map(|r| r.metrics.get(name).map(|v| (r.seed, *v)))
                .collect()
        };
        for m in &declared {
            // Untraced runs when both sets have the metric there, else
            // traced ones; a bound is applied to untraced runs only
            // (tracing is never the source of an end-to-end number).
            let Some((b, c, traced)) = [false, true].into_iter().find_map(|traced| {
                let (b, c) = (of(base, &m.name, traced), of(cand, &m.name, traced));
                (!b.is_empty() && !c.is_empty()).then_some((b, c, traced))
            }) else {
                continue;
            };
            let median = |runs: &[(u64, f64)]| {
                stats::median(&runs.iter().map(|(_, v)| *v).collect::<Vec<f64>>())
            };
            let (worse, spread, verdict) = match m.bound {
                Some(bound) if !traced => judge(m, bound, &b, &c),
                _ => (
                    worse_by(m.better, median(&b), median(&c)),
                    0.0,
                    Verdict::Info,
                ),
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name.clone(),
                base: median(&b),
                cand: median(&c),
                worse_by: worse,
                spread,
                verdict,
            });
        }
        let ratio = |runs: &[Run]| {
            let (failed, attempted) = runs
                .iter()
                .filter(|r| r.workload == workload)
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
            failed as f64 / attempted.max(1) as f64
        };
        let (b, c) = (ratio(base), ratio(cand));
        rows.push(Row {
            workload: workload.to_string(),
            metric: spec::FAIL_RATIO.to_string(),
            base: b,
            cand: c,
            worse_by: worse_by(Better::Lower, b, c),
            spread: 0.0,
            // Any increase fails.
            verdict: if c > b { Verdict::Fail } else { Verdict::Pass },
        });
    }
    Ok(rows)
}

/// Print the comparison; the exit code is 0 when every bounded metric
/// passed, 1 when one failed, 3 when none failed but one is unresolved.
pub fn report(rows: &[Row]) -> i32 {
    let mut code = 0;
    for row in rows {
        let verdict = match row.verdict {
            Verdict::Pass => "pass",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        };
        println!(
            "{verdict:<10} {:<15} {:<36} base {:<14.6} cand {:<14.6} worse by {:+.2} % spread {:.2} %",
            row.workload,
            row.metric,
            row.base,
            row.cand,
            100.0 * row.worse_by,
            100.0 * row.spread
        );
        code = match (row.verdict, code) {
            (Verdict::Fail, _) => 1,
            (Verdict::Unresolved, 0) => 3,
            (_, code) => code,
        };
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, nproc: u64, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.to_string(),
            seed,
            trace: false,
            nproc,
            rows: 12_000,
            attempted: 1_000,
            failed: 0,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn set(metric: &str, values: &[f64]) -> Vec<Run> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| run("wisc_scan", i as u64, 2, &[(metric, *v)]))
            .collect()
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .unwrap_or_else(|| panic!("{metric} not compared"))
            .verdict
    }

    #[test]
    fn worse_beyond_the_bound_fails_and_within_it_passes() {
        let base = set("round_ms.sql", &[100.0, 101.0, 99.0, 100.5, 100.0]);
        let slower = set("round_ms.sql", &[130.0, 131.0, 129.0, 130.5, 130.0]);
        let rows = compare(&base, &slower).unwrap();
        assert_eq!(verdict_of(&rows, "round_ms.sql"), Verdict::Fail);
        assert_eq!(report(&rows), 1);
        let same = set("round_ms.sql", &[104.0, 105.0, 103.0, 104.5, 104.0]);
        let rows = compare(&base, &same).unwrap();
        assert_eq!(verdict_of(&rows, "round_ms.sql"), Verdict::Pass);
        assert_eq!(report(&rows), 0);
        // "Higher is better" flips the direction.
        let base = set("actions_per_s", &[1000.0, 1001.0, 999.0]);
        let fewer = set("actions_per_s", &[700.0, 701.0, 699.0]);
        let rows = compare(&base, &fewer).unwrap();
        assert_eq!(verdict_of(&rows, "actions_per_s"), Verdict::Fail);
        let rows = compare(&fewer, &base).unwrap();
        assert_eq!(verdict_of(&rows, "actions_per_s"), Verdict::Pass);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = set("round_ms.sql", &[60.0, 100.0, 140.0, 80.0, 120.0]);
        let also_noisy = set("round_ms.sql", &[65.0, 105.0, 145.0, 85.0, 125.0]);
        let rows = compare(&noisy, &also_noisy).unwrap();
        assert_eq!(verdict_of(&rows, "round_ms.sql"), Verdict::Unresolved);
        assert_eq!(report(&rows), 3);
        // Every candidate run beats every baseline run: resolved.
        let faster = set("round_ms.sql", &[30.0, 40.0, 50.0, 35.0, 45.0]);
        let rows = compare(&noisy, &faster).unwrap();
        assert_eq!(verdict_of(&rows, "round_ms.sql"), Verdict::Pass);
    }

    #[test]
    fn any_rise_of_the_fail_ratio_fails() {
        let base = set("round_ms.sql", &[100.0, 100.0]);
        let mut cand = base.clone();
        cand[1].failed = 1;
        let rows = compare(&base, &cand).unwrap();
        assert_eq!(verdict_of(&rows, spec::FAIL_RATIO), Verdict::Fail);
        assert_eq!(report(&rows), 1);
        let rows = compare(&base, &base).unwrap();
        assert_eq!(verdict_of(&rows, spec::FAIL_RATIO), Verdict::Pass);
    }

    #[test]
    fn runs_of_another_host_shape_are_refused() {
        let base = set("round_ms.sql", &[100.0, 100.0]);
        let mut cand = base.clone();
        cand[0].nproc = 8;
        assert!(compare(&base, &cand).unwrap_err().contains("nproc"));
        let mut cand = base.clone();
        cand[1].rows = 30_000;
        assert!(compare(&base, &cand).is_err());
    }

    #[test]
    fn a_count_must_repeat_exactly_seed_by_seed() {
        let base = set("space_amp", &[1.25, 1.30, 1.28]);
        let rows = compare(&base, &base).unwrap();
        assert_eq!(verdict_of(&rows, "space_amp"), Verdict::Pass);
        let mut cand = base.clone();
        cand[2].metrics.insert("space_amp".to_string(), 1.2801);
        let rows = compare(&base, &cand).unwrap();
        assert_eq!(verdict_of(&rows, "space_amp"), Verdict::Fail);
        // An unbounded metric is shown and never judged.
        let base = set("core.self_us.sql", &[10.0]);
        let cand = set("core.self_us.sql", &[30.0]);
        let rows = compare(&base, &cand).unwrap();
        assert_eq!(verdict_of(&rows, "core.self_us.sql"), Verdict::Info);
    }

    #[test]
    fn run_documents_round_trip_through_json() {
        let text = r#"{"set1": {"runs": [
            {"workload":"wisc_point","seed":3,"seconds":10,"trace":false,
             "host":{"nproc":2,"rustc":"rustc 1.80","commit":"abc","rows":12000},
             "correct":true,"attempted":42,"failed":0,
             "metrics":{"round_ms.sql":{"value":0.125,"unit":"ms","samples":900}}}]}}"#;
        let runs = parse_runs(text, Some("set1")).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "wisc_point");
        assert_eq!((runs[0].seed, runs[0].nproc, runs[0].rows), (3, 2, 12_000));
        assert_eq!(runs[0].metrics["round_ms.sql"], 0.125);
        assert!(parse_runs(text, Some("set2")).is_err());
        assert!(parse_runs("[]", None).unwrap().is_empty());
    }
}
