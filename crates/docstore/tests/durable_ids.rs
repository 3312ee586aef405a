//! `_id` assignment is part of the durable state: the ids a history
//! assigns must not depend on whether a recovery happened in the middle
//! of it.

use polyframe_datamodel::{record, Value};
use polyframe_docstore::DocStore;
use polyframe_storage::{encode_ops, CheckpointPolicy, LogMedia};

fn history(recover_midway: bool) -> DocStore {
    let store = DocStore::new();
    store
        .enable_durability(LogMedia::new(), CheckpointPolicy::never())
        .expect("wal");
    store.create_collection("c").expect("ddl");
    store
        .insert_many("c", vec![record! {"_id" => 3i64, "x" => 0i64}])
        .expect("explicit id");
    if recover_midway {
        store.recover().expect("recover");
    }
    store
        .insert_many("c", (1..=3i64).map(|x| record! {"x" => x}))
        .expect("auto ids");
    store
}

#[test]
fn assigned_ids_do_not_depend_on_crash_history() {
    let (plain, recovered) = (history(false), history(true));
    assert_eq!(
        encode_ops(&plain.durable_snapshot()),
        encode_ops(&recovered.durable_snapshot()),
        "the same op history assigned different _ids after a recovery"
    );

    let ids: Vec<Value> = plain
        .aggregate("c", r#"[{"$match":{}},{"$project":{"_id":1}}]"#)
        .expect("ids")
        .iter()
        .map(|d| d.get_path("_id"))
        .collect();
    let mut unique = ids.clone();
    unique.sort_by(polyframe_datamodel::cmp_total);
    unique.dedup();
    assert_eq!(unique.len(), 4, "an auto-assigned _id collided: {ids:?}");
}

/// An explicit `_id` that repeats within its batch, or matches a stored
/// document, fails the whole ingest before it reaches the log: the
/// collection and the WAL's LSN clock are left as they were.
#[test]
fn duplicate_explicit_ids_are_rejected_before_logging() {
    let store = DocStore::new();
    store
        .enable_durability(LogMedia::new(), CheckpointPolicy::never())
        .expect("wal");
    store.create_collection("c").expect("ddl");
    store
        .insert_many("c", vec![record! {"_id" => 3i64}, record! {"x" => 1i64}])
        .expect("distinct ids");
    let wal = store.wal_handle().expect("durability is on");
    let lsn = wal.next_lsn();

    let in_batch = vec![record! {"_id" => 7i64}, record! {"_id" => 7.0}];
    let stored = vec![record! {"_id" => 8i64}, record! {"_id" => 3i64}];
    for batch in [in_batch, stored] {
        assert!(
            store.insert_many("c", batch.clone()).is_err(),
            "{batch:?} was accepted"
        );
        assert_eq!(store.count_documents("c").expect("count"), 2);
        assert_eq!(wal.next_lsn(), lsn, "a rejected batch reached the log");
    }
}

/// Ids assigned to the id-less documents of a batch start past the
/// batch's own explicit integer ids, so they never repeat one.
#[test]
fn assigned_ids_skip_the_batchs_explicit_ids() {
    let store = DocStore::new();
    store.create_collection("c").expect("ddl");
    let inserted = store
        .insert_many(
            "c",
            vec![record! {"_id" => 1i64, "a" => 1i64}, record! {"a" => 2i64}],
        )
        .expect("distinct ids");
    assert_eq!(inserted, 2);
    let docs = store
        .aggregate("c", r#"[{"$match":{}},{"$project":{"_id":1,"a":1}}]"#)
        .expect("docs");
    let pairs: Vec<(Value, Value)> = docs
        .iter()
        .map(|d| (d.get_path("_id"), d.get_path("a")))
        .collect();
    assert_eq!(
        pairs,
        vec![
            (Value::Int(1), Value::Int(1)),
            (Value::Int(2), Value::Int(2))
        ]
    );
}
