//! The durable-store shell against a toy state machine: the protocol
//! guarantees every store inherits, checked once where they live.

use polyframe_datamodel::record;
use polyframe_observe::{FaultPlan, VersionedCache};
use polyframe_storage::{
    encode_ops, CheckpointPolicy, DurableError, DurableOp, DurableStore, LogMedia, StateMachine,
    StoreError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Counts ingested records per name; rejects ingests into names that were
/// never created.
#[derive(Clone, Default)]
struct Tally {
    rows: Vec<(String, usize)>,
    checkpoints_seen: usize,
}

#[derive(Debug)]
enum TallyError {
    Unknown(String),
    Durable(DurableError),
}

impl std::fmt::Display for TallyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TallyError::Unknown(n) => write!(f, "unknown tally {n}"),
            TallyError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TallyError {}

impl From<DurableError> for TallyError {
    fn from(e: DurableError) -> TallyError {
        TallyError::Durable(e)
    }
}

impl StoreError for TallyError {
    fn durable(&self) -> Option<&DurableError> {
        match self {
            TallyError::Durable(e) => Some(e),
            TallyError::Unknown(_) => None,
        }
    }
}

impl StateMachine for Tally {
    type Error = TallyError;

    fn prepare(&self, op: DurableOp) -> Result<DurableOp, TallyError> {
        match &op {
            DurableOp::Ingest { name, .. } if !self.rows.iter().any(|(n, _)| n == name) => {
                Err(TallyError::Unknown(name.clone()))
            }
            _ => Ok(op),
        }
    }

    fn apply(&mut self, op: DurableOp) -> Result<(), DurableError> {
        match op {
            DurableOp::Create { name, .. } => self.rows.push((name, 0)),
            DurableOp::Ingest { name, records, .. } => {
                let slot = self
                    .rows
                    .iter_mut()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| DurableError::Corruption(format!("log ingests into {name}")))?;
                slot.1 += records.len();
            }
            DurableOp::Index { .. } => {}
        }
        Ok(())
    }

    fn snapshot_ops(&self) -> Vec<DurableOp> {
        let mut ops = Vec::new();
        for (name, n) in &self.rows {
            ops.push(create(name));
            ops.push(ingest(name, *n));
        }
        ops
    }

    fn empty(&self) -> Tally {
        Tally::default()
    }

    fn after_checkpoint(&mut self) {
        self.checkpoints_seen += 1;
    }
}

fn create(name: &str) -> DurableOp {
    DurableOp::Create {
        namespace: String::new(),
        name: name.to_string(),
        key: None,
    }
}

fn ingest(name: &str, n: usize) -> DurableOp {
    DurableOp::Ingest {
        namespace: String::new(),
        name: name.to_string(),
        records: (0..n as i64).map(|i| record! {"i" => i}).collect(),
    }
}

fn total(store: &DurableStore<Tally>) -> usize {
    store.pin().expect("pin").rows.iter().map(|(_, n)| n).sum()
}

/// The stale-version hazard, at the layer that removes it: a snapshot
/// pinned before a commit keeps the catalog version it was published
/// with, so a plan compiled against the old state is cached under the
/// old version and a reader of the new state misses.
#[test]
fn a_pin_carries_the_version_of_its_own_state() {
    let store = DurableStore::new("tally", Tally::default());
    store.commit(create("a")).expect("create");
    let old = store.pin().expect("pin");
    store.commit(ingest("a", 3)).expect("ingest");
    let new = store.pin().expect("pin");
    assert!(new.version() > old.version());
    assert_eq!(old.rows[0].1, 0, "the pin is immutable");

    let plans: VersionedCache<&str, usize> = VersionedCache::new(4);
    plans.insert("count a", old.version(), old.rows[0].1);
    assert!(
        plans.get(&"count a", new.version()).is_none(),
        "a plan compiled against the old pin must not serve the new state"
    );
}

#[test]
fn rejected_ops_never_reach_the_log() {
    let store = DurableStore::new("tally", Tally::default());
    store
        .enable_durability(LogMedia::new(), CheckpointPolicy::never())
        .expect("wal");
    let err = store.commit(ingest("ghost", 2)).expect_err("unknown name");
    assert!(matches!(err, TallyError::Unknown(_)), "{err}");
    assert_eq!(store.wal_stats().expect("stats").appends, 0);
}

#[test]
fn log_only_operations_need_a_log() {
    let store = DurableStore::new("tally", Tally::default());
    for err in [
        store.recover().expect_err("no log"),
        store.pinned_ops().map(|_| ()).expect_err("no log"),
    ] {
        assert_eq!(err.durable(), Some(&DurableError::NotDurable));
        assert_eq!(
            err.to_string(),
            "execution error: durability is not enabled"
        );
    }
}

#[test]
fn a_mid_apply_panic_heals_from_the_log_and_moves_the_version_on() {
    let media = LogMedia::new();
    let store = DurableStore::new("tally", Tally::default());
    store
        .enable_durability(Arc::clone(&media), CheckpointPolicy::every(2))
        .expect("wal");
    store.commit(create("a")).expect("create");
    store.commit(ingest("a", 2)).expect("ingest");
    assert_eq!(
        store.pin().expect("pin").checkpoints_seen,
        1,
        "the after-checkpoint hook runs once per checkpoint"
    );
    let before = store.pin().expect("pin").version();

    store.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(7, "tally/apply", 0))));
    let torn = catch_unwind(AssertUnwindSafe(|| {
        let _ = store.commit(ingest("a", 5));
    }));
    assert!(torn.is_err(), "the injected panic must escape");
    store.set_fault_plan(None);

    assert_eq!(
        total(&store),
        7,
        "the committed op is visible after healing"
    );
    assert!(store.pin().expect("pin").version() > before);
    let replayed = DurableStore::new("tally", Tally::default());
    replayed
        .enable_durability(media, CheckpointPolicy::every(2))
        .expect("replay");
    assert_eq!(
        encode_ops(&store.durable_snapshot()),
        encode_ops(&replayed.durable_snapshot())
    );
}

#[test]
fn a_torn_store_without_a_log_refuses_to_serve() {
    let store = DurableStore::new("tally", Tally::default());
    store.commit(create("a")).expect("create");
    store.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(7, "tally/apply", 0))));
    let torn = catch_unwind(AssertUnwindSafe(|| {
        let _ = store.commit(ingest("a", 1));
    }));
    assert!(torn.is_err());
    store.set_fault_plan(None);
    let err = store.pin().map(|_| ()).expect_err("torn state");
    assert!(
        matches!(err.durable(), Some(DurableError::Corruption(_))),
        "{err}"
    );
}
