//! Regression tests for the torn-state hazard: a panic injected between
//! the WAL append (the commit point) and the in-memory apply leaves the
//! master state missing an op the log already holds, with the master
//! lock poisoned. Every store must *heal on entry* — the next access
//! detects the poison, rebuilds from the log, and serves state
//! byte-identical to a fresh store recovered from the same media. With
//! no log attached there is nothing to rebuild from, so the store must
//! refuse to serve the torn state (a corruption error), never return
//! partial data.
//!
//! These tests fail on the pre-snapshot code: without heal-on-entry the
//! first post-panic access either deadlocks on the poisoned lock or
//! serves the torn map.

use polyframe_datamodel::{record, Record};
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_observe::FaultPlan;
use polyframe_sqlengine::{Engine, EngineConfig};
use polyframe_storage::{encode_ops, CheckpointPolicy, LogMedia};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const SEED: u64 = 0x9015;
const CHECKPOINT_EVERY: u64 = 4;

fn rows(ids: std::ops::Range<i64>) -> Vec<Record> {
    ids.map(|id| record! {"id" => id, "val" => id * 10})
        .collect()
}

/// Run `write` under an injected panic at `site` and assert the panic
/// actually escaped (the injection point is *inside* the store, between
/// commit and apply — the caller observes the unwind).
fn assert_panics<F: FnOnce() + std::panic::UnwindSafe>(write: F) {
    let torn = catch_unwind(write);
    assert!(
        torn.is_err(),
        "the injected panic must escape the apply path"
    );
}

// --- SQL engine ---------------------------------------------------------

#[test]
fn sql_engine_heals_a_mid_apply_panic_from_its_log() {
    let media = LogMedia::new();
    let e = Engine::new(EngineConfig::asterixdb());
    e.enable_durability(
        Arc::clone(&media),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
    )
    .expect("enable durability");
    e.create_dataset("Default", "T", Some("id")).expect("ddl");
    e.load("Default", "T", rows(1..4)).expect("first batch");

    // The panic fires after the WAL append: the batch is committed.
    e.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "sqlengine/SqlPlusPlus/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = e.load("Default", "T", rows(4..7));
    }));
    e.set_fault_plan(None);

    // Heal-on-entry: the next query rebuilds from the log and sees the
    // committed batch — same result as a store that never panicked.
    let clean = Engine::new(EngineConfig::asterixdb());
    clean
        .create_dataset("Default", "T", Some("id"))
        .expect("ddl");
    clean
        .load("Default", "T", rows(1..7))
        .expect("both batches");
    let probe = "SELECT VALUE COUNT(*) FROM T";
    assert_eq!(
        format!("{:?}", e.query(probe).expect("healed query")),
        format!("{:?}", clean.query(probe).expect("clean query")),
    );

    // Byte-identical to WAL replay on a fresh store.
    let replayed = Engine::new(EngineConfig::asterixdb());
    replayed
        .enable_durability(media, CheckpointPolicy::every(CHECKPOINT_EVERY))
        .expect("replay");
    assert_eq!(
        encode_ops(&e.durable_snapshot()),
        encode_ops(&replayed.durable_snapshot()),
        "healed state diverged from WAL replay"
    );
}

#[test]
fn sql_engine_without_a_log_refuses_to_serve_torn_state() {
    let e = Engine::new(EngineConfig::asterixdb());
    e.create_dataset("Default", "T", Some("id")).expect("ddl");
    e.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "sqlengine/SqlPlusPlus/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = e.load("Default", "T", rows(1..4));
    }));
    e.set_fault_plan(None);

    let err = e
        .query("SELECT VALUE COUNT(*) FROM T")
        .expect_err("torn state must not be served");
    assert!(err.is_corruption(), "expected corruption, got: {err}");
    assert!(err.to_string().contains("torn by a panic"), "got: {err}");
}

// --- Document store -----------------------------------------------------

#[test]
fn doc_store_heals_a_mid_apply_panic_from_its_log() {
    let media = LogMedia::new();
    let d = DocStore::new();
    d.enable_durability(
        Arc::clone(&media),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
    )
    .expect("enable durability");
    d.create_collection("users").expect("ddl");
    d.insert_many("users", rows(1..4)).expect("first batch");

    d.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "docstore/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = d.insert_many("users", rows(4..7));
    }));
    d.set_fault_plan(None);

    // The committed-but-unapplied batch is visible after healing.
    assert_eq!(d.count_documents("users").expect("healed count"), 6);

    let replayed = DocStore::new();
    replayed
        .enable_durability(media, CheckpointPolicy::every(CHECKPOINT_EVERY))
        .expect("replay");
    assert_eq!(
        encode_ops(&d.durable_snapshot()),
        encode_ops(&replayed.durable_snapshot()),
        "healed state diverged from WAL replay"
    );
}

#[test]
fn doc_store_without_a_log_refuses_to_serve_torn_state() {
    let d = DocStore::new();
    d.create_collection("users").expect("ddl");
    d.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "docstore/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = d.insert_many("users", rows(1..4));
    }));
    d.set_fault_plan(None);

    let err = d
        .count_documents("users")
        .expect_err("torn state must not be served");
    assert!(err.is_corruption(), "expected corruption, got: {err}");
    assert!(err.to_string().contains("torn by a panic"), "got: {err}");
}

// --- Graph store --------------------------------------------------------

#[test]
fn graph_store_heals_a_mid_apply_panic_from_its_log() {
    let media = LogMedia::new();
    let g = GraphStore::new();
    g.enable_durability(
        Arc::clone(&media),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
    )
    .expect("enable durability");
    g.create_label("Person").expect("ddl");
    g.insert_nodes("Person", rows(1..4)).expect("first batch");

    g.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "graphstore/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = g.insert_nodes("Person", rows(4..7));
    }));
    g.set_fault_plan(None);

    assert_eq!(g.count_nodes("Person").expect("healed count"), 6);

    let replayed = GraphStore::new();
    replayed
        .enable_durability(media, CheckpointPolicy::every(CHECKPOINT_EVERY))
        .expect("replay");
    assert_eq!(
        encode_ops(&g.durable_snapshot()),
        encode_ops(&replayed.durable_snapshot()),
        "healed state diverged from WAL replay"
    );
}

#[test]
fn graph_store_without_a_log_refuses_to_serve_torn_state() {
    let g = GraphStore::new();
    g.create_label("Person").expect("ddl");
    g.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "graphstore/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = g.insert_nodes("Person", rows(1..4));
    }));
    g.set_fault_plan(None);

    let err = g
        .count_nodes("Person")
        .expect_err("torn state must not be served");
    assert!(err.is_corruption(), "expected corruption, got: {err}");
    assert!(err.to_string().contains("torn by a panic"), "got: {err}");
}

// --- Healing races ------------------------------------------------------

/// Many sessions hitting a torn store concurrently: exactly one heals,
/// the rest wait on the master lock and then serve the healed state —
/// every post-panic read must already include the committed batch.
#[test]
fn concurrent_sessions_agree_after_healing() {
    let d = Arc::new(DocStore::new());
    d.enable_durability(LogMedia::new(), CheckpointPolicy::every(CHECKPOINT_EVERY))
        .expect("enable durability");
    d.create_collection("users").expect("ddl");
    d.insert_many("users", rows(1..4)).expect("first batch");
    d.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "docstore/apply",
        0,
    ))));
    {
        let d = Arc::clone(&d);
        assert_panics(AssertUnwindSafe(move || {
            let _ = d.insert_many("users", rows(4..7));
        }));
    }
    d.set_fault_plan(None);

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.count_documents("users").expect("healed count"))
        })
        .collect();
    for r in readers {
        assert_eq!(r.join().expect("reader"), 6);
    }
}

// --- One shell, one behaviour --------------------------------------------

/// Each store torn by an injected `<site>/apply` panic (the second batch
/// is on the log but not in memory), paired with the encoded state a
/// fresh store replays from the same media.
fn torn_engine() -> (Engine, Vec<u8>) {
    let policy = CheckpointPolicy::every(CHECKPOINT_EVERY);
    let media = LogMedia::new();
    let e = Engine::new(EngineConfig::asterixdb());
    e.enable_durability(Arc::clone(&media), policy)
        .expect("wal");
    e.create_dataset("Default", "T", Some("id")).expect("ddl");
    e.load("Default", "T", rows(1..4)).expect("first batch");
    e.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "sqlengine/SqlPlusPlus/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = e.load("Default", "T", rows(4..7));
    }));
    let replayed = Engine::new(EngineConfig::asterixdb());
    replayed.enable_durability(media, policy).expect("replay");
    (e, encode_ops(&replayed.durable_snapshot()))
}

fn torn_doc_store() -> (DocStore, Vec<u8>) {
    let policy = CheckpointPolicy::every(CHECKPOINT_EVERY);
    let media = LogMedia::new();
    let d = DocStore::new();
    d.enable_durability(Arc::clone(&media), policy)
        .expect("wal");
    d.create_collection("users").expect("ddl");
    d.insert_many("users", rows(1..4)).expect("first batch");
    d.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "docstore/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = d.insert_many("users", rows(4..7));
    }));
    let replayed = DocStore::new();
    replayed.enable_durability(media, policy).expect("replay");
    (d, encode_ops(&replayed.durable_snapshot()))
}

fn torn_graph_store() -> (GraphStore, Vec<u8>) {
    let policy = CheckpointPolicy::every(CHECKPOINT_EVERY);
    let media = LogMedia::new();
    let g = GraphStore::new();
    g.enable_durability(Arc::clone(&media), policy)
        .expect("wal");
    g.create_label("Person").expect("ddl");
    g.insert_nodes("Person", rows(1..4)).expect("first batch");
    g.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(
        SEED,
        "graphstore/apply",
        0,
    ))));
    assert_panics(AssertUnwindSafe(|| {
        let _ = g.insert_nodes("Person", rows(4..7));
    }));
    let replayed = GraphStore::new();
    replayed.enable_durability(media, policy).expect("replay");
    (g, encode_ops(&replayed.durable_snapshot()))
}

/// `durable_snapshot()` as the *first* call after the panic heals before
/// it reads: it must already hold the committed batch, on every store.
#[test]
fn durable_snapshot_heals_before_it_reads_on_every_store() {
    let (e, replayed) = torn_engine();
    assert_eq!(encode_ops(&e.durable_snapshot()), replayed, "sqlengine");
    let (d, replayed) = torn_doc_store();
    assert_eq!(encode_ops(&d.durable_snapshot()), replayed, "docstore");
    let (g, replayed) = torn_graph_store();
    assert_eq!(encode_ops(&g.durable_snapshot()), replayed, "graphstore");
}

/// A crash injected at the query site of a torn store: the first query
/// fails transient ("process restarted"), the store comes back whole —
/// poison cleared, committed batch present — and the retry is served,
/// identically on every store.
#[test]
fn query_site_crash_on_a_torn_store_recovers_on_every_store() {
    let crash_at = |site: &str| Some(Arc::new(FaultPlan::crash_at(SEED, site, 0)));

    let (e, replayed) = torn_engine();
    e.set_fault_plan(crash_at("sqlengine/SqlPlusPlus"));
    let probe = "SELECT VALUE t FROM T t";
    let err = e.query(probe).expect_err("injected crash");
    assert!(err.is_transient(), "sqlengine: {err}");
    assert_eq!(e.query(probe).expect("retry").len(), 6);
    assert_eq!(encode_ops(&e.durable_snapshot()), replayed, "sqlengine");

    let (d, replayed) = torn_doc_store();
    d.set_fault_plan(crash_at("docstore"));
    let probe = r#"[{"$match":{}}]"#;
    let err = d.aggregate("users", probe).expect_err("injected crash");
    assert!(err.is_transient(), "docstore: {err}");
    assert_eq!(d.aggregate("users", probe).expect("retry").len(), 6);
    assert_eq!(encode_ops(&d.durable_snapshot()), replayed, "docstore");

    let (g, replayed) = torn_graph_store();
    g.set_fault_plan(crash_at("graphstore"));
    let probe = "MATCH (p:Person) RETURN p";
    let err = g.query(probe).expect_err("injected crash");
    assert!(err.is_transient(), "graphstore: {err}");
    assert_eq!(g.query(probe).expect("retry").len(), 6);
    assert_eq!(encode_ops(&g.durable_snapshot()), replayed, "graphstore");
}
