//! A commit copies only the dataset it writes. Every store publishes a
//! snapshot after each commit; a dataset the commit did not touch must
//! stay the very allocation earlier snapshots hold, and the dataset it
//! wrote must be a fresh copy, so a reader pinning the old snapshot never
//! sees the write.

use polyframe_datamodel::{record, Record};
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_sqlengine::{Engine, EngineConfig};
use std::ptr;

fn rows(ids: std::ops::Range<i64>) -> Vec<Record> {
    ids.map(|id| record! {"id" => id, "val" => id * 10})
        .collect()
}

/// `(same A, same B)` across a commit to B: whether each dataset is the
/// same allocation in the pins taken before and after it.
fn shares<P>(
    pin: impl Fn() -> P,
    commit_to_b: impl FnOnce(),
    same: impl Fn(&P, &P, &str) -> bool,
) -> (bool, bool) {
    let before = pin();
    commit_to_b();
    let after = pin();
    (same(&before, &after, "a"), same(&before, &after, "b"))
}

#[test]
fn sql_commit_copies_only_the_written_dataset() {
    let e = Engine::new(EngineConfig::postgres());
    for ds in ["a", "b"] {
        e.create_dataset("public", ds, Some("id")).unwrap();
        e.load("public", ds, rows(0..100)).unwrap();
    }
    let shared = shares(
        || e.pin().unwrap(),
        || e.load("public", "b", rows(100..110)).unwrap(),
        |x, y, ds| {
            ptr::eq(
                x.dataset("public", ds).unwrap(),
                y.dataset("public", ds).unwrap(),
            )
        },
    );
    assert_eq!(shared, (true, false));
}

#[test]
fn document_commit_copies_only_the_written_collection() {
    let d = DocStore::new();
    for coll in ["a", "b"] {
        d.create_collection(coll).unwrap();
        d.insert_many(coll, rows(0..100)).unwrap();
    }
    let shared = shares(
        || d.pin().unwrap(),
        || {
            d.insert_many("b", rows(100..110)).unwrap();
        },
        |x, y, coll| ptr::eq(x.collection(coll).unwrap(), y.collection(coll).unwrap()),
    );
    assert_eq!(shared, (true, false));
}

#[test]
fn graph_commit_copies_only_the_written_label() {
    let g = GraphStore::new();
    for label in ["a", "b"] {
        g.insert_nodes(label, rows(0..100)).unwrap();
    }
    let shared = shares(
        || g.pin().unwrap(),
        || {
            g.insert_nodes("b", rows(100..110)).unwrap();
        },
        |x, y, label| ptr::eq(x.get(label).unwrap(), y.get(label).unwrap()),
    );
    assert_eq!(shared, (true, false));
}
