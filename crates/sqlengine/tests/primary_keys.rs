//! A dataset's primary key is unique: a load whose keys repeat within the
//! batch, or match a stored row, fails before it reaches the log and
//! leaves the dataset as it was.

use polyframe_datamodel::{record, Record, Value};
use polyframe_sqlengine::{Engine, EngineConfig, EngineError};
use polyframe_storage::{CheckpointPolicy, LogMedia};

fn count(engine: &Engine, sql: &str) -> Value {
    let rows = engine.query(sql).expect("count");
    match &rows[0] {
        Value::Obj(r) => r.iter().next().map(|(_, v)| v.clone()).expect("column"),
        v => v.clone(),
    }
}

fn rejects_repeated_keys(config: EngineConfig, count_sql: &str) {
    let engine = Engine::new(config);
    engine
        .enable_durability(LogMedia::new(), CheckpointPolicy::never())
        .expect("wal");
    engine
        .create_dataset("public", "t", Some("id"))
        .expect("ddl");
    engine
        .load(
            "public",
            "t",
            vec![record! {"id" => 1i64}, record! {"id" => 2i64}],
        )
        .expect("distinct keys");
    let appends = engine.wal_stats().expect("durable").appends;

    let in_batch: Vec<Record> = vec![record! {"id" => 7i64}, record! {"id" => 7.0}];
    let stored: Vec<Record> = vec![record! {"id" => 8i64}, record! {"id" => 1i64}];
    for batch in [in_batch, stored] {
        let err = engine.load("public", "t", batch.clone()).unwrap_err();
        assert!(
            matches!(err, EngineError::DuplicateKey(_)),
            "{batch:?}: {err}"
        );
        assert_eq!(count(&engine, count_sql), Value::Int(2), "{batch:?}");
        assert_eq!(
            engine.wal_stats().expect("durable").appends,
            appends,
            "a rejected batch reached the log"
        );
    }

    // Rows without the key field and datasets without a primary key are
    // not checked.
    engine
        .load(
            "public",
            "t",
            vec![record! {"x" => 1i64}, record! {"x" => 1i64}],
        )
        .expect("keyless rows");
    engine.create_dataset("public", "u", None).expect("ddl");
    engine
        .load(
            "public",
            "u",
            vec![record! {"id" => 1i64}, record! {"id" => 1i64}],
        )
        .expect("no primary key");
}

#[test]
fn postgres_rejects_repeated_primary_keys() {
    rejects_repeated_keys(
        EngineConfig::postgres(),
        "SELECT COUNT(*) FROM (SELECT * FROM public.t) t",
    );
}

#[test]
fn asterixdb_rejects_repeated_primary_keys() {
    rejects_repeated_keys(
        EngineConfig {
            default_namespace: "public".to_string(),
            ..EngineConfig::asterixdb()
        },
        "SELECT VALUE COUNT(*) FROM public.t",
    );
}
