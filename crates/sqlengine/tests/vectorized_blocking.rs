//! Acceptance suite for vectorized blocking operators: hash joins,
//! DISTINCT, early-exit LIMIT and final-aggregate merges must run on the
//! batch path (`vectorized=true` in the exec trace) and stay
//! **byte-identical** to the row-at-a-time reference, and LIMIT pipelines
//! must actually stop early (fewer batches than the scan domain holds).

use polyframe_datamodel::{to_json_string, Value};
use polyframe_sqlengine::{Engine, EngineConfig, ExecOptions};
use polyframe_wisconsin::{generate, WisconsinConfig};

const N: usize = 3_000;
const NS: &str = "Bench";
const DS: &str = "wisconsin";
const BATCH_ROWS: usize = 256;

fn load(engine: &Engine) {
    engine.create_dataset(NS, DS, Some("unique2")).unwrap();
    engine
        .load(NS, DS, generate(&WisconsinConfig::new(N)))
        .unwrap();
}

/// The row-at-a-time reference, a single-threaded vectorized engine, and a
/// multi-worker vectorized engine over the same seeded data.
fn trio() -> (Engine, Engine, Engine) {
    let rowwise = Engine::new(EngineConfig::postgres().with_exec(ExecOptions::rowwise()));
    let vectorized = Engine::new(EngineConfig::postgres().with_exec(ExecOptions {
        workers: 1,
        batch_rows: BATCH_ROWS,
        ..ExecOptions::default()
    }));
    let parallel = Engine::new(EngineConfig::postgres().with_exec(ExecOptions {
        workers: 4,
        morsel_rows: 512,
        batch_rows: BATCH_ROWS,
        ..ExecOptions::default()
    }));
    load(&rowwise);
    load(&vectorized);
    load(&parallel);
    (rowwise, vectorized, parallel)
}

fn ndjson(rows: &[Value]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&to_json_string(r));
        out.push('\n');
    }
    out
}

/// Assert byte-identity across all three configs and that both vectorized
/// engines actually ran the batch path.
fn assert_vectorized_identical(trio: &(Engine, Engine, Engine), sql: &str) {
    let (rowwise, vectorized, parallel) = trio;
    let reference = ndjson(&rowwise.query(sql).unwrap());
    for (name, engine) in [("vectorized", vectorized), ("parallel", parallel)] {
        let (rows, span) = engine.query_traced(sql).unwrap();
        assert_eq!(
            ndjson(&rows),
            reference,
            "{name} diverged from rowwise: {sql}"
        );
        let exec = span.find("exec").unwrap();
        assert_eq!(
            exec.note("vectorized"),
            Some("true"),
            "{name} fell back to the row path: {sql}"
        );
    }
}

const JOIN_AGG: &str = "SELECT SUM(t.\"unique2\") AS s FROM \
     (SELECT l.*, r.* FROM (SELECT * FROM Bench.wisconsin) l \
      INNER JOIN (SELECT * FROM Bench.wisconsin) r ON l.\"unique1\" = r.\"unique1\") t \
     WHERE t.\"onePercent\" < 50";

#[test]
fn hash_join_filter_aggregate_runs_vectorized() {
    let engines = trio();
    assert_vectorized_identical(&engines, JOIN_AGG);
}

#[test]
fn hash_join_collect_runs_vectorized() {
    let engines = trio();
    // Unfiltered join output: exercises the merged-star row emission.
    let sql = "SELECT t.* FROM \
         (SELECT l.*, r.* FROM (SELECT * FROM Bench.wisconsin) l \
          INNER JOIN (SELECT * FROM Bench.wisconsin) r ON l.\"ten\" = r.\"unique1\") t \
         WHERE t.\"two\" = 0";
    assert_vectorized_identical(&engines, sql);
}

#[test]
fn left_join_misses_run_vectorized() {
    let engines = trio();
    // `unique1` ranges over [0, N); joining `ten` (0..=9) against it never
    // misses, so join `ten` against `onePercent * unique1` shapes instead:
    // left rows with no match must survive with null build fields.
    let sql = "SELECT COUNT(*) AS c FROM \
         (SELECT l.*, r.* FROM (SELECT * FROM Bench.wisconsin) l \
          LEFT JOIN (SELECT r.* FROM (SELECT * FROM Bench.wisconsin) r WHERE r.\"unique1\" < 5) r \
          ON l.\"ten\" = r.\"unique1\") t";
    assert_vectorized_identical(&engines, sql);
}

#[test]
fn distinct_runs_vectorized() {
    let engines = trio();
    for sql in [
        "SELECT DISTINCT \"ten\" FROM (SELECT * FROM Bench.wisconsin) t",
        "SELECT DISTINCT \"two\", \"four\" FROM (SELECT * FROM Bench.wisconsin) t",
    ] {
        assert_vectorized_identical(&engines, sql);
    }
}

#[test]
fn group_by_over_join_runs_vectorized() {
    let engines = trio();
    let sql = "SELECT \"four\", COUNT(\"four\") AS c FROM \
         (SELECT l.*, r.* FROM (SELECT * FROM Bench.wisconsin) l \
          INNER JOIN (SELECT * FROM Bench.wisconsin) r ON l.\"unique1\" = r.\"unique2\") t \
         GROUP BY \"four\"";
    assert_vectorized_identical(&engines, sql);
}

#[test]
fn limit_stops_early_on_the_batch_path() {
    let engines = trio();
    let sql = "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"two\" = 0 LIMIT 10";
    assert_vectorized_identical(&engines, sql);

    // The single-worker vectorized engine reports how many batches it
    // actually processed; a 10-row limit over a 50%-selective filter
    // settles within the first batch or two, nowhere near the full scan.
    let (rows, span) = engines.1.query_traced(sql).unwrap();
    assert_eq!(rows.len(), 10);
    let exec = span.find("exec").unwrap();
    let batches = exec.metric("batches").unwrap();
    let full_domain = N.div_ceil(BATCH_ROWS) as i64;
    assert!(
        batches < full_domain,
        "limit did not stop early: {batches} of {full_domain} batches ran"
    );
}

#[test]
fn limit_over_join_stops_early() {
    let engines = trio();
    // Every probe row matches exactly once: 25 events need ~1 batch.
    let sql = "SELECT t.* FROM \
         (SELECT l.*, r.* FROM (SELECT * FROM Bench.wisconsin) l \
          INNER JOIN (SELECT * FROM Bench.wisconsin) r ON l.\"unique1\" = r.\"unique1\") t \
         LIMIT 25";
    assert_vectorized_identical(&engines, sql);
    let (rows, span) = engines.1.query_traced(sql).unwrap();
    assert_eq!(rows.len(), 25);
    let exec = span.find("exec").unwrap();
    let batches = exec.metric("batches").unwrap();
    let full_domain = N.div_ceil(BATCH_ROWS) as i64;
    assert!(
        batches < full_domain,
        "join limit did not stop early: {batches} of {full_domain} batches ran"
    );
}

#[test]
fn index_nl_join_runs_vectorized() {
    let engines = trio();
    // An index on the build side turns the join into index nested-loop.
    for e in [&engines.0, &engines.1, &engines.2] {
        e.create_index(NS, DS, "ten").unwrap();
    }
    let sql = "SELECT COUNT(*) AS c FROM \
         (SELECT l.*, r.* FROM (SELECT * FROM Bench.wisconsin) l \
          INNER JOIN (SELECT * FROM Bench.wisconsin) r ON l.\"two\" = r.\"ten\") t";
    assert_vectorized_identical(&engines, sql);
}

#[test]
fn fallback_note_names_the_cause() {
    let engines = trio();
    // `SELECT VALUE` pipelines are outside the batch compiler's
    // whitelist: the trace must name the cause, not just say "fallback".
    let e = Engine::new(EngineConfig::asterixdb().with_exec(ExecOptions {
        workers: 1,
        ..ExecOptions::default()
    }));
    load(&e);
    // A `SELECT VALUE` feeding an aggregate leaves the batch compiler's
    // whitelist (the aggregate's input rows are scalars, not records).
    let (_, span) = e
        .query_traced("SELECT SUM(t) AS s FROM (SELECT VALUE t.unique1 FROM (SELECT VALUE t FROM Bench.wisconsin t) t) t")
        .unwrap();
    let exec = span.find("exec").unwrap();
    let note = exec.note("vectorized").unwrap();
    assert!(
        note.starts_with("fallback:"),
        "expected a fallback cause, got {note:?}"
    );
    drop(engines);
}

/// Rows `{id: i, g: i % 10, v: i}` in heap order, except that row `bad`
/// (when given) holds a string `v`: negating it is a per-row error.
fn grouped(len: usize, bad: Option<usize>) -> Vec<polyframe_datamodel::Record> {
    (0..len)
        .map(|i| {
            let v = if Some(i) == bad {
                Value::str("bad")
            } else {
                Value::Int(i as i64)
            };
            polyframe_datamodel::record! {"id" => i as i64, "g" => (i % 10) as i64, "v" => v}
        })
        .collect()
}

/// The trio plus a single-worker engine cut into the parallel engine's
/// morsels, whose limited scans continue past morsel 0 on the calling
/// thread (streaming index rids instead of collecting them).
struct Quad {
    trio: (Engine, Engine, Engine),
    serial_morsels: Engine,
}

impl Quad {
    fn new() -> Quad {
        let serial_morsels = Engine::new(EngineConfig::postgres().with_exec(ExecOptions {
            workers: 1,
            morsel_rows: 512,
            batch_rows: BATCH_ROWS,
            ..ExecOptions::default()
        }));
        load(&serial_morsels);
        Quad {
            trio: trio(),
            serial_morsels,
        }
    }

    fn batch_engines(&self) -> [(&'static str, &Engine); 3] {
        [
            ("vectorized", &self.trio.1),
            ("parallel", &self.trio.2),
            ("serial_morsels", &self.serial_morsels),
        ]
    }

    /// Load `rows` as `Bench.<ds>` with an index on `g` into every engine.
    fn load_grouped(&self, ds: &str, rows: &[polyframe_datamodel::Record]) {
        let batch = self.batch_engines().map(|(_, e)| e);
        for e in std::iter::once(&self.trio.0).chain(batch) {
            e.create_dataset(NS, ds, Some("id")).unwrap();
            e.load(NS, ds, rows.to_vec()).unwrap();
            e.create_index(NS, ds, "g").unwrap();
        }
    }

    /// The outcome of `sql` on every engine, asserted identical to the
    /// rowwise reference: NDJSON rows, or the error text. Successful batch
    /// runs must have run vectorized; their exec spans are returned.
    fn same_outcome(&self, sql: &str) -> (Result<String, String>, Vec<polyframe_observe::Span>) {
        let want = self
            .trio
            .0
            .query(sql)
            .map(|rows| ndjson(&rows))
            .map_err(|e| e.to_string());
        let mut spans = Vec::new();
        for (name, engine) in self.batch_engines() {
            let got = match engine.query_traced(sql) {
                Ok((rows, span)) => {
                    let exec = span.find("exec").unwrap().clone();
                    assert_eq!(exec.note("vectorized"), Some("true"), "{name}: {sql}");
                    spans.push(exec);
                    Ok(ndjson(&rows))
                }
                Err(e) => Err(e.to_string()),
            };
            assert_eq!(got, want, "{name} diverged from rowwise: {sql}");
        }
        (want, spans)
    }
}

#[test]
fn limit_never_evaluates_rows_past_the_limit() {
    let engines = Quad::new();
    // (dataset, bad row): the bad row sits inside the first ramp batch,
    // or deep in a later morsel of both the heap and the `g = bad % 10`
    // index range (where it is row `bad / 10`).
    for (ds, bad) in [("poison_early", 21usize), ("poison_late", 13_007)] {
        engines.load_grouped(ds, &grouped(20_000, Some(bad)));
        let seq = format!("SELECT -t.\"v\" AS nv FROM (SELECT * FROM Bench.{ds}) t");
        let idx = format!("{seq} WHERE t.\"g\" = {}", bad % 10);
        assert!(
            engines.trio.1.explain(&idx).unwrap().contains("IndexScan"),
            "{idx}"
        );
        for (base, pos) in [(seq, bad), (idx, bad / 10)] {
            // The error sits just past the limit: it must not fire.
            let (out, _) = engines.same_outcome(&format!("{base} LIMIT {pos}"));
            let rows = out.unwrap_or_else(|e| panic!("{base} LIMIT {pos}: {e}"));
            assert_eq!(rows.lines().count(), pos, "{base} LIMIT {pos}");
            // One more row reaches it: the same error fires everywhere.
            let (out, _) = engines.same_outcome(&format!("{base} LIMIT {}", pos + 1));
            let err = out.expect_err("the bad row is inside the limit");
            assert!(err.contains("negate"), "{err}");
        }
    }
}

#[test]
fn selective_limit_settling_in_a_late_morsel_ramps_its_batches() {
    const K: usize = 5;
    let engines = Quad::new();
    engines.load_grouped("grouped", &grouped(20_000, None));
    let idx = "SELECT t.* FROM (SELECT * FROM Bench.grouped) t \
               WHERE t.\"g\" = 3 AND t.\"id\" + 0 >= 19000";
    assert!(
        engines.trio.1.explain(idx).unwrap().contains("IndexScan"),
        "{idx}"
    );
    // (query, scan domain): the first survivors sit in the last morsel of
    // the heap and of the 2 000-rid index range.
    let cases = [
        (
            "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t WHERE t.\"unique2\" + 0 >= 2900",
            N,
        ),
        (idx, 2_000),
    ];
    for (base, domain) in cases {
        let sql = format!("{base} LIMIT {K}");
        let (out, spans) = engines.same_outcome(&sql);
        assert_eq!(out.unwrap().lines().count(), K, "{sql}");
        // Batches ramp from K lanes and double to the cap, so the limit
        // pays at most ⌈log2(B/K)⌉ small batches on top of the full ones.
        let ramp = BATCH_ROWS.div_ceil(K).next_power_of_two().trailing_zeros() as usize;
        let bound = ramp + domain.div_ceil(BATCH_ROWS) + 1;
        for exec in spans {
            let batches = exec.metric("batches").unwrap() as usize;
            assert!(batches <= bound, "{sql}: {batches} batches > {bound}");
            let built = exec.metric("rows_built").unwrap() as usize;
            assert!(built <= K, "{sql}: built {built} rows for LIMIT {K}");
        }
    }
}
