//! Concurrency stress for the serving tier: several closed-loop reader
//! sessions count a dataset through a [`polyframe::Server`] — one per
//! query language — while a writer keeps committing fixed-size batches
//! and interleaving DDL. Snapshot isolation makes the correctness check
//! sharp: every observed count must be a *committed* count (a multiple
//! of the batch size inside the window the read overlapped), never a
//! torn mid-batch value. The suite also checks that writers really
//! publish (the snapshot epoch advances), that catalog bumps invalidate
//! cached plans, and that draining the server loses nothing
//! (`completed == submitted - rejected`). Last, the serving tier must
//! change scheduling, never results: sessions reading 2 000 Wisconsin
//! records through a server get exactly the direct backend path's rows,
//! with and without a concurrent writer.

use polyframe::prelude::*;
use polyframe::Server;
use polyframe_datamodel::{record, Record, Value};
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_sqlengine::{Engine, EngineConfig};
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BATCH: usize = 16;
const READERS: usize = 3;
const OPS: usize = 20;
const WRITER_BATCHES: usize = 12;
const INITIAL: usize = BATCH;

fn batch_rows(start: usize) -> Vec<Record> {
    (start..start + BATCH)
        .map(|id| record! {"id" => id as i64, "val" => (id * 3) as i64})
        .collect()
}

/// Pull the count out of a one-row response, whether the backend
/// returned it bare (`SELECT VALUE`) or as a `{"c": n}` record.
fn first_count(rows: &[Value]) -> usize {
    let v = rows.first().expect("count row");
    v.as_i64()
        .or_else(|| v.get_path("c").as_i64())
        .expect("count value") as usize
}

/// A retry budget generous enough that admission backpressure never
/// fails a reader.
fn client_policy() -> ExecPolicy {
    ExecPolicy::default()
        .with_retry(RetryPolicy::retries(64).with_base_backoff(Duration::from_micros(200)))
}

/// Drive `READERS` sessions against a server over `backend` while a
/// writer commits `WRITER_BATCHES` batches via `write_batch(i)` (which
/// must append exactly `BATCH` rows to the counted container, plus any
/// DDL it likes). Asserts snapshot-consistent reads and a lossless
/// drain; returns the total snapshot publications observed via `epoch`.
fn stress(
    backend: Arc<dyn DatabaseConnector>,
    query: &str,
    ns: &str,
    ds: &str,
    epoch: impl Fn() -> u64,
    write_batch: impl Fn(usize) + Send + 'static,
) {
    let server = Arc::new(Server::start(
        backend,
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(8),
    ));
    // Two fences around each commit: `started` rises before the write,
    // `committed` after it returns (i.e. after its snapshot published).
    // A read that overlapped the run must observe a count between the
    // `committed` floor it saw going in and the `started` ceiling on the
    // way out.
    let started = Arc::new(AtomicUsize::new(INITIAL));
    let committed = Arc::new(AtomicUsize::new(INITIAL));
    let epoch_before = epoch();

    let writer = {
        let started = Arc::clone(&started);
        let committed = Arc::clone(&committed);
        std::thread::spawn(move || {
            for i in 0..WRITER_BATCHES {
                started.fetch_add(BATCH, Ordering::AcqRel);
                write_batch(i);
                committed.fetch_add(BATCH, Ordering::AcqRel);
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let session = server.session();
            let committed = Arc::clone(&committed);
            let started = Arc::clone(&started);
            let query = query.to_string();
            let (ns, ds) = (ns.to_string(), ds.to_string());
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    let floor = committed.load(Ordering::Acquire);
                    let req = QueryRequest::new(&query, &ns, &ds).with_policy(client_policy());
                    let rows = session.execute(&req).expect("served read").rows;
                    let ceiling = started.load(Ordering::Acquire);
                    let observed = first_count(&rows);
                    assert!(
                        (floor..=ceiling).contains(&observed),
                        "read escaped its commit window: {observed} not in {floor}..={ceiling}"
                    );
                    assert_eq!(
                        observed % BATCH,
                        0,
                        "torn snapshot: {observed} is not a committed batch boundary"
                    );
                }
            })
        })
        .collect();

    for r in readers {
        r.join().expect("reader session");
    }
    writer.join().expect("writer");

    assert!(
        epoch() > epoch_before,
        "writer committed but never published a snapshot"
    );

    server.drain();
    let stats = server.stats();
    assert_eq!(
        stats.completed,
        stats.submitted - stats.rejected,
        "drain dropped admitted work"
    );
    assert!(stats.completed >= (READERS * OPS) as u64);
}

#[test]
fn sqlpp_sessions_read_committed_snapshots_under_writes() {
    let engine = Arc::new(Engine::new(EngineConfig::asterixdb()));
    engine
        .create_dataset("Test", "users", Some("id"))
        .expect("ddl");
    engine
        .load("Test", "users", batch_rows(0))
        .expect("seed rows");
    let misses_before = engine.plan_cache_stats().misses;
    // One read on each side of the stress pins the recompile check to the
    // catalog versions themselves rather than to how the scheduler
    // happened to interleave readers and writer: this one compiles the
    // query at the seed version (the first miss)...
    const COUNT_USERS: &str = "SELECT VALUE COUNT(*) FROM Test.users";
    engine.query(COUNT_USERS).expect("pre-stress read");

    let writer_engine = Arc::clone(&engine);
    let epoch_engine = Arc::clone(&engine);
    stress(
        Arc::new(AsterixConnector::new(Arc::clone(&engine))),
        COUNT_USERS,
        "Test",
        "users",
        move || epoch_engine.snapshot_epoch(),
        move |i| {
            if i % 4 == 0 {
                // DDL interleave: fresh scratch dataset plus an index.
                writer_engine
                    .create_dataset("Test", "scratch", Some("id"))
                    .expect("writer ddl");
                writer_engine
                    .create_index("Test", "scratch", "val")
                    .expect("writer index");
            }
            writer_engine
                .load("Test", "users", batch_rows(INITIAL + i * BATCH))
                .expect("writer load");
        },
    );

    // Every load/DDL bumped the catalog version, so the repeated read
    // query could not be answered from a stale cached plan: ...and
    // whichever read ran first at the writer's final version — a stress
    // read or this one — had to miss again.
    engine.query(COUNT_USERS).expect("post-stress read");
    assert!(
        engine.plan_cache_stats().misses > misses_before + 1,
        "catalog bumps never forced a plan recompile"
    );
}

#[test]
fn sql_sessions_read_committed_snapshots_under_writes() {
    let engine = Arc::new(Engine::new(EngineConfig::postgres()));
    engine
        .create_dataset("public", "users", Some("id"))
        .expect("ddl");
    engine
        .load("public", "users", batch_rows(0))
        .expect("seed rows");

    let writer_engine = Arc::clone(&engine);
    let epoch_engine = Arc::clone(&engine);
    stress(
        Arc::new(PostgresConnector::new(Arc::clone(&engine))),
        "SELECT COUNT(*) AS c FROM users",
        "public",
        "users",
        move || epoch_engine.snapshot_epoch(),
        move |i| {
            if i % 4 == 0 {
                writer_engine
                    .create_dataset("public", "scratch", Some("id"))
                    .expect("writer ddl");
            }
            writer_engine
                .load("public", "users", batch_rows(INITIAL + i * BATCH))
                .expect("writer load");
        },
    );
}

#[test]
fn mongo_sessions_read_committed_snapshots_under_writes() {
    let store = Arc::new(DocStore::new());
    store.create_collection("Test.users").expect("ddl");
    store
        .insert_many("Test.users", batch_rows(0))
        .expect("seed rows");

    let writer_store = Arc::clone(&store);
    let epoch_store = Arc::clone(&store);
    stress(
        Arc::new(MongoConnector::new(Arc::clone(&store))),
        r#"[{"$count":"c"}]"#,
        "Test",
        "users",
        move || epoch_store.snapshot_epoch(),
        move |i| {
            if i % 4 == 0 {
                writer_store
                    .create_collection(&format!("Test.scratch{i}"))
                    .expect("writer ddl");
            }
            writer_store
                .insert_many("Test.users", batch_rows(INITIAL + i * BATCH))
                .expect("writer insert");
        },
    );
}

#[test]
fn cypher_sessions_read_committed_snapshots_under_writes() {
    let store = Arc::new(GraphStore::new());
    store
        .insert_nodes("users", batch_rows(0))
        .expect("seed rows");

    let writer_store = Arc::clone(&store);
    let epoch_store = Arc::clone(&store);
    stress(
        Arc::new(Neo4jConnector::new(Arc::clone(&store))),
        "MATCH(t: users)\n RETURN COUNT(*) AS c",
        "Test",
        "users",
        move || epoch_store.snapshot_epoch(),
        move |i| {
            if i % 4 == 0 {
                writer_store
                    .create_label(&format!("scratch{i}"))
                    .expect("writer ddl");
            }
            writer_store
                .insert_nodes("users", batch_rows(INITIAL + i * BATCH))
                .expect("writer insert");
        },
    );
}

const WISC_RECORDS: usize = 2_000;
const WISC_SESSIONS: usize = 4;
const WISC_OPS: usize = 24;
const WISC_WORKERS: usize = 4;
const WISC_SEED: u64 = 7;

/// The Wisconsin read mix: each session cycles through these, with the
/// equality keys varied by `(seed, op)` so the plan cache both hits and
/// misses without making results timing-dependent.
fn wisconsin_read(seed: u64, op: usize) -> QueryRequest {
    let query = match op % 4 {
        0 => "SELECT VALUE COUNT(*) FROM Test.wisconsin".to_string(),
        1 => {
            let key = (seed as usize).wrapping_add(op * 7) % 97;
            format!("SELECT VALUE COUNT(*) FROM Test.wisconsin t WHERE t.onePercent = {key} % 100")
        }
        2 => "SELECT VALUE MAX(t.unique1) FROM Test.wisconsin t".to_string(),
        _ => {
            let key = (seed as usize).wrapping_add(op * 13) % 10;
            format!("SELECT VALUE COUNT(*) FROM Test.wisconsin t WHERE t.tenPercent = {key}")
        }
    };
    QueryRequest::new(query, "Test", "wisconsin").with_policy(client_policy())
}

/// `WISC_SESSIONS` closed-loop sessions of `WISC_OPS` reads each over
/// `WISC_RECORDS` Wisconsin records, served by `WISC_WORKERS` workers,
/// optionally beside a writer that loads batches and issues DDL against a
/// scratch dataset the reads never touch. Asserts every served answer
/// equals the direct (unserved) backend path's; returns the reads that
/// completed and the batches the writer committed.
fn serve_wisconsin(with_writer: bool) -> (usize, usize) {
    let engine = Arc::new(Engine::new(EngineConfig::asterixdb()));
    engine
        .create_dataset("Test", "wisconsin", None)
        .expect("ddl");
    engine
        .load(
            "Test",
            "wisconsin",
            generate(&WisconsinConfig::new(WISC_RECORDS)),
        )
        .expect("load");
    let direct = AsterixConnector::new(Arc::clone(&engine));
    let expected: Vec<Vec<Vec<Value>>> = (0..WISC_SESSIONS as u64)
        .map(|s| {
            (0..WISC_OPS)
                .map(|op| {
                    direct
                        .dispatch(&wisconsin_read(WISC_SEED + s, op))
                        .expect("direct read")
                        .rows
                })
                .collect()
        })
        .collect();

    let server = Server::start(
        Arc::new(AsterixConnector::new(Arc::clone(&engine))),
        ServeConfig::default()
            .with_workers(WISC_WORKERS)
            .with_queue_capacity(8),
    );
    // The writer contends on the master write lock and publishes
    // snapshots, but never changes what the read mix observes.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = with_writer.then(|| {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut batches = 0usize;
            while !stop.load(Ordering::Acquire) {
                if batches.is_multiple_of(16) {
                    engine
                        .create_dataset("Test", "scratch", Some("id"))
                        .expect("writer ddl");
                    engine
                        .create_index("Test", "scratch", "val")
                        .expect("writer index");
                }
                engine
                    .load("Test", "scratch", batch_rows(batches * BATCH))
                    .expect("writer load");
                batches += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            batches
        })
    });

    let readers: Vec<_> = expected
        .into_iter()
        .zip(WISC_SEED..)
        .map(|(expected, seed)| {
            let session = server.session();
            std::thread::spawn(move || {
                for (op, want) in expected.iter().enumerate() {
                    let rows = session
                        .execute(&wisconsin_read(seed, op))
                        .expect("served read")
                        .rows;
                    assert_eq!(
                        &rows, want,
                        "session seed {seed}, op {op}: served rows diverged from the direct path"
                    );
                }
                expected.len()
            })
        })
        .collect();
    let completed = readers
        .into_iter()
        .map(|r| r.join().expect("reader session"))
        .sum();
    stop.store(true, Ordering::Release);
    let batches = writer.map_or(0, |w| w.join().expect("writer"));
    server.drain();
    (completed, batches)
}

#[test]
fn served_sessions_match_direct_path() {
    let (completed, _) = serve_wisconsin(false);
    assert_eq!(completed, WISC_SESSIONS * WISC_OPS);
}

#[test]
fn writer_contention_keeps_reads_flowing() {
    let (completed, batches) = serve_wisconsin(true);
    assert_eq!(completed, WISC_SESSIONS * WISC_OPS);
    assert!(batches > 0, "writer never committed a batch");
}
