//! Determinism suite for morsel-driven parallel execution: every plan shape
//! the parallel path accepts must produce **byte-identical** results to
//! serial execution over seeded Wisconsin data — scans, filters,
//! projections, scalar and grouped aggregates, and sorts (including ties,
//! where first-morsel-wins must equal the serial stable order).

use polyframe_datamodel::{to_json_string, Value};
use polyframe_sqlengine::{Engine, EngineConfig, ExecOptions};
use polyframe_wisconsin::{generate, WisconsinConfig};

const N: usize = 3_000;
const NS: &str = "Bench";
const DS: &str = "wisconsin";

/// Small morsels so even this laptop-sized dataset splits into many
/// (`N / 256 ≈ 12` per scan), exercising the merge paths properly.
const MORSEL_ROWS: usize = 256;

fn load(engine: &Engine) {
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(N)))
        .unwrap();
}

/// The same data behind a row-at-a-time serial engine (the reference) and
/// a 4-worker parallel engine.
fn pair(config: fn() -> EngineConfig) -> (Engine, Engine) {
    let serial = Engine::new(config().with_exec(ExecOptions::rowwise()));
    let parallel = Engine::new(config().with_exec(ExecOptions {
        workers: 4,
        morsel_rows: MORSEL_ROWS,
        ..ExecOptions::default()
    }));
    load(&serial);
    load(&parallel);
    (serial, parallel)
}

/// Render rows as NDJSON so "identical" means byte-identical, not merely
/// structurally equal.
fn ndjson(rows: &[Value]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&to_json_string(r));
        out.push('\n');
    }
    out
}

fn assert_identical(serial: &Engine, parallel: &Engine, sql: &str) {
    let a = serial.query(sql).unwrap();
    let b = parallel.query(sql).unwrap();
    assert_eq!(
        ndjson(&a),
        ndjson(&b),
        "parallel diverged from serial: {sql}"
    );
}

#[test]
fn full_scan_is_deterministic() {
    let (s, p) = pair(EngineConfig::postgres);
    assert_identical(&s, &p, "SELECT * FROM Bench.wisconsin");
}

#[test]
fn filtered_scans_are_deterministic() {
    let (s, p) = pair(EngineConfig::postgres);
    for sql in [
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"onePercent\" < 7",
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"two\" = 1",
        // Empty result set.
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"unique1\" < 0",
    ] {
        assert_identical(&s, &p, sql);
    }
}

#[test]
fn projections_are_deterministic() {
    let (s, p) = pair(EngineConfig::postgres);
    assert_identical(
        &s,
        &p,
        "SELECT t.\"unique1\", t.\"stringu1\" FROM (SELECT * FROM Bench.wisconsin) t",
    );
}

#[test]
fn scalar_aggregates_are_deterministic() {
    let (s, p) = pair(EngineConfig::postgres);
    for sql in [
        "SELECT COUNT(*) FROM (SELECT * FROM Bench.wisconsin) t",
        "SELECT SUM(\"unique1\") FROM (SELECT * FROM Bench.wisconsin) t",
        "SELECT MIN(\"stringu1\") FROM (SELECT * FROM Bench.wisconsin) t",
        "SELECT MAX(\"unique1\") FROM (SELECT * FROM Bench.wisconsin) t",
        "SELECT AVG(\"ten\") FROM (SELECT * FROM Bench.wisconsin) t",
        // `tenPercent` is absent from every tenth record: COUNT(attr) must
        // skip missing values identically on both paths.
        "SELECT COUNT(\"tenPercent\") FROM (SELECT * FROM Bench.wisconsin) t",
        // Aggregate over an empty input: one row with a null aggregate.
        "SELECT SUM(\"unique1\") FROM (SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"unique1\" < 0) t",
    ] {
        assert_identical(&s, &p, sql);
    }
}

#[test]
fn grouped_aggregates_are_deterministic() {
    let (s, p) = pair(EngineConfig::postgres);
    for sql in [
        "SELECT \"ten\", SUM(\"unique1\") AS s FROM (SELECT * FROM Bench.wisconsin) t GROUP BY \"ten\"",
        "SELECT \"twenty\", COUNT(\"twenty\") AS cnt FROM (SELECT * FROM Bench.wisconsin) t GROUP BY \"twenty\"",
        "SELECT \"four\", MAX(\"unique1\") AS m FROM (SELECT * FROM Bench.wisconsin) t GROUP BY \"four\"",
        // A missing group key forms its own group on both paths.
        "SELECT \"tenPercent\", COUNT(\"tenPercent\") AS cnt FROM (SELECT * FROM Bench.wisconsin) t GROUP BY \"tenPercent\"",
    ] {
        assert_identical(&s, &p, sql);
    }
}

#[test]
fn sorts_are_deterministic() {
    let (s, p) = pair(EngineConfig::postgres);
    for sql in [
        // Unique sort key.
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t ORDER BY t.\"unique1\"",
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t ORDER BY t.\"stringu1\" DESC",
        // Massive ties: the k-way merge's chunk-order tiebreak must
        // reproduce the serial stable sort exactly.
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t ORDER BY t.\"ten\"",
        // Top-k through the sort+limit path.
        "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t ORDER BY t.\"unique1\" DESC LIMIT 25",
    ] {
        assert_identical(&s, &p, sql);
    }
}

#[test]
fn index_rid_chunks_are_deterministic() {
    let (s, p) = pair(EngineConfig::postgres);
    for e in [&s, &p] {
        e.create_index(NS, DS, "onePercent").unwrap();
    }
    // Selective enough (~5% of rows) that the cost-based planner keeps
    // the index over a sequential scan.
    let sql = "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"onePercent\" <= 4";
    // Both engines must actually take the rid-list path for this to test
    // IndexScan morsels.
    assert!(p.explain(sql).unwrap().contains("IndexScan"));
    assert_identical(&s, &p, sql);
}

#[test]
fn sqlpp_dialect_is_deterministic() {
    let (s, p) = pair(EngineConfig::asterixdb);
    for sql in [
        "SELECT VALUE t FROM (SELECT VALUE t FROM Bench.wisconsin t) t WHERE t.ten = 3",
        "SELECT SUM(unique1) FROM (SELECT VALUE t FROM Bench.wisconsin t) t",
        "SELECT VALUE t FROM (SELECT VALUE t FROM Bench.wisconsin t) t ORDER BY t.twenty",
    ] {
        assert_identical(&s, &p, sql);
    }
}

#[test]
fn parallel_execution_actually_engages() {
    let (s, p) = pair(EngineConfig::postgres);
    let sql = "SELECT SUM(\"unique1\") FROM (SELECT * FROM Bench.wisconsin) t";

    let (_, span) = p.query_traced(sql).unwrap();
    let exec = span.find("exec").unwrap();
    let workers = exec.metric("parallelism").unwrap();
    assert!(workers >= 2, "expected parallel execution, got {workers}");
    let morsels = exec
        .children()
        .iter()
        .filter(|c| c.name().starts_with("morsel["))
        .count();
    assert!(
        morsels >= N / MORSEL_ROWS,
        "expected ≥{} morsel spans, got {morsels}",
        N / MORSEL_ROWS
    );

    let (_, span) = s.query_traced(sql).unwrap();
    let exec = span.find("exec").unwrap();
    assert_eq!(exec.metric("parallelism"), Some(1));
    assert!(exec.children().is_empty());
}

#[test]
fn tiny_tables_stay_sequential_under_stats_budget() {
    // 300 rows split into two morsels of 256, but the statistics snapshot
    // reports the rows fill only one *whole* morsel — the worker budget
    // keeps the scan on the single-threaded path instead of paying
    // multi-worker setup for a table this small.
    let tiny = Engine::new(EngineConfig::postgres().with_exec(ExecOptions {
        workers: 4,
        morsel_rows: MORSEL_ROWS,
        ..ExecOptions::default()
    }));
    tiny.create_dataset(NS, DS, Some("unique2")).unwrap();
    tiny.load(NS, DS, generate(&WisconsinConfig::new(300)))
        .unwrap();

    let sql = "SELECT SUM(\"unique1\") FROM (SELECT * FROM Bench.wisconsin) t";
    let (rows, span) = tiny.query_traced(sql).unwrap();
    let exec = span.find("exec").unwrap();
    assert_eq!(
        exec.metric("parallelism"),
        Some(1),
        "300 rows must not engage the worker pool"
    );

    // The budget is a scheduling decision only: answers match a serial
    // reference byte for byte.
    let serial = Engine::new(EngineConfig::postgres().with_exec(ExecOptions::rowwise()));
    serial.create_dataset(NS, DS, Some("unique2")).unwrap();
    serial
        .load(NS, DS, generate(&WisconsinConfig::new(300)))
        .unwrap();
    assert_eq!(ndjson(&rows), ndjson(&serial.query(sql).unwrap()));
}

#[test]
fn index_domains_budget_workers_from_their_rid_count() {
    // An index range of one morsel plus one rid splits into a full morsel
    // and a 1-rid tail. The budget counts the range's rids, not the
    // table's rows, so the tail does not get a worker of its own; a range
    // of three full morsels still fans out.
    let (s, p) = pair(EngineConfig::postgres);
    for e in [&s, &p] {
        e.create_index(NS, DS, "unique1").unwrap();
    }
    for (rids, parallel) in [(MORSEL_ROWS + 1, false), (3 * MORSEL_ROWS, true)] {
        let sql = format!(
            "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"unique1\" < {rids}"
        );
        assert!(p.explain(&sql).unwrap().contains("IndexScan"), "{sql}");
        assert_identical(&s, &p, &sql);
        let (_, span) = p.query_traced(&sql).unwrap();
        let workers = span.find("exec").unwrap().metric("parallelism").unwrap();
        assert_eq!(workers >= 2, parallel, "{sql}: parallelism={workers}");
    }
}

/// `ORDER BY … LIMIT k` orderings per dialect: one tie-heavy key (`ten`
/// has 300-row tie groups at `N = 3 000`), its reverse, a two-key order,
/// the nullable `tenPercent`, and two projected (derived-column) shapes —
/// a projection under the sort and one over it.
fn topk_queries(config: fn() -> EngineConfig) -> Vec<String> {
    let sqlpp = config().dialect == polyframe_sqlengine::Dialect::SqlPlusPlus;
    let (rows, projected_in, projected_out, attr): (&str, &str, &str, fn(&str) -> String) = if sqlpp
    {
        (
            "SELECT VALUE t FROM (SELECT VALUE t FROM Bench.wisconsin t) t",
            "SELECT VALUE t FROM (SELECT t.ten, t.unique1 FROM Bench.wisconsin t) t",
            "SELECT t.ten, t.unique1 FROM (SELECT VALUE t FROM Bench.wisconsin t) t",
            |a| format!("t.{a}"),
        )
    } else {
        (
            "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t",
            "SELECT t.* FROM (SELECT t.\"ten\", t.\"unique1\" FROM Bench.wisconsin t) t",
            "SELECT t.\"ten\", t.\"unique1\" FROM (SELECT * FROM Bench.wisconsin) t",
            |a| format!("t.\"{a}\""),
        )
    };
    let (ten, unique1, ten_pct) = (attr("ten"), attr("unique1"), attr("tenPercent"));
    let mut out = Vec::new();
    for k in [0, 1, 299, 300, 301, N, N + 7] {
        for order in [
            ten.clone(),
            format!("{ten} DESC"),
            format!("{ten} DESC, {unique1}"),
            ten_pct.clone(),
            format!("{ten_pct} DESC"),
        ] {
            out.push(format!("{rows} ORDER BY {order} LIMIT {k}"));
        }
        out.push(format!("{projected_in} ORDER BY {ten} DESC LIMIT {k}"));
        out.push(format!("{projected_out} ORDER BY {ten} LIMIT {k}"));
    }
    out
}

#[test]
fn bounded_topk_matches_serial_and_full_sort() {
    for config in [EngineConfig::postgres, EngineConfig::asterixdb] {
        let (s, p) = pair(config);
        for sql in topk_queries(config) {
            assert_identical(&s, &p, &sql);
            // The bounded path equals the unbounded stable sort, truncated.
            let (head, k) = sql.rsplit_once(" LIMIT ").unwrap();
            let mut full = s.query(head).unwrap();
            full.truncate(k.parse().unwrap());
            assert_eq!(
                ndjson(&p.query(&sql).unwrap()),
                ndjson(&full),
                "top-k diverged from sort + truncate: {sql}"
            );
        }
    }
}

#[test]
fn topk_key_errors_fire_for_rows_outside_the_top_k() {
    // `v` is an integer except at two rows whose `k` keeps them far from
    // the top 5 by `k DESC`; the second sort key `v + 1` errors on both.
    // Lazy row building must not skip key evaluation: the first error in
    // scan order (the string) fires on every path.
    let rows: Vec<polyframe_datamodel::Record> = (0..N as i64)
        .map(|i| {
            let v = match i {
                1_500 => Value::str("x"),
                2_500 => Value::Bool(true),
                _ => Value::Int(i),
            };
            polyframe_datamodel::record! {"id" => i, "k" => i, "v" => v}
        })
        .collect();
    for config in [EngineConfig::postgres, EngineConfig::asterixdb] {
        let serial = Engine::new(config().with_exec(ExecOptions::rowwise()));
        let parallel = Engine::new(config().with_exec(ExecOptions {
            workers: 4,
            morsel_rows: MORSEL_ROWS,
            ..ExecOptions::default()
        }));
        let sequential = Engine::new(config().with_exec(ExecOptions::serial()));
        for e in [&serial, &parallel, &sequential] {
            e.create_dataset(NS, "keyed", Some("id")).unwrap();
            e.load(NS, "keyed", rows.clone()).unwrap();
        }
        let sql = if config().dialect == polyframe_sqlengine::Dialect::SqlPlusPlus {
            "SELECT VALUE t FROM (SELECT VALUE t FROM Bench.keyed t) t ORDER BY t.k DESC, t.v + 1 LIMIT 5"
        } else {
            "SELECT t.* FROM (SELECT * FROM Bench.keyed) t ORDER BY t.\"k\" DESC, t.\"v\" + 1 LIMIT 5"
        };
        let want = serial.query(sql).unwrap_err().to_string();
        assert!(want.contains("string"), "{want}");
        for e in [&parallel, &sequential] {
            assert_eq!(e.query(sql).unwrap_err().to_string(), want, "{sql}");
        }
    }
}
