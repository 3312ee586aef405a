#![warn(missing_docs)]

//! # polyframe-storage
//!
//! The shared storage substrate underneath every PolyFrame database engine:
//!
//! * [`batch`] — typed columnar batches ([`batch::ColumnBatch`]) built from
//!   heap/index scans, with per-lane presence tags and dictionary-encoded
//!   string columns: the unit of work of vectorized query execution.
//! * [`btree`] — an in-memory B+tree with duplicate keys, forward *and*
//!   backward range scans and first/last (min/max) navigation. This is the
//!   index structure behind the paper's analysis: index-only scans, backward
//!   index scans and nulls-in-index behaviour all live here.
//! * [`heap`] — an append-only table heap addressed by [`heap::RecordId`].
//! * [`index`] — named secondary/primary indexes over a heap, with a
//!   configurable [`index::NullPolicy`] (PostgreSQL stores `NULL` keys in
//!   B-trees; AsterixDB/MongoDB-style secondary indexes do not index missing
//!   values — the paper's expression 13 hinges on exactly this difference).
//! * [`table`] — heap + indexes + statistics glued together.
//! * [`catalog`] — the copy-on-write name → table map every store holds
//!   its state in, and [`catalog::Tables`], the state machine the SQL and
//!   document stores share (dataset lookup, `Create`/`Index`/`Ingest`
//!   apply, checkpoint ops, the one primary-key rule).
//! * [`stats`] — table statistics used by the query optimizers.
//! * [`codec`] — a lossless binary encoding of the data model, used by the
//!   write-ahead log (the JSON printer is lossy for `Missing` and
//!   non-finite doubles, so byte-identical recovery needs its own codec).
//! * [`wal`] — the durability layer: an append-only, CRC-checksummed,
//!   length-prefixed write-ahead log with snapshot checkpoints, torn-tail
//!   truncation, and deterministic crash/torn-write fault injection.
//! * [`durable`] — the durable-store shell: master state, published
//!   snapshot, catalog version, fault plan and WAL behind one
//!   heal → validate → append → apply → publish protocol that every
//!   store instantiates with its own [`durable::StateMachine`].

pub mod batch;
pub mod btree;
#[deny(clippy::unwrap_used)]
pub mod catalog;
#[deny(clippy::unwrap_used)]
pub mod codec;
#[deny(clippy::unwrap_used)]
pub mod durable;
pub mod heap;
pub mod index;
pub mod stats;
pub mod table;
#[deny(clippy::unwrap_used)]
pub mod wal;

pub use batch::{
    Column, ColumnBatch, ColumnSummary, Presence, DEFAULT_BATCH_ROWS, DICT_CAP, MAX_BATCH_ROWS,
};
pub use btree::{BPlusTree, Direction, KeyBound, ScanRange};
pub use catalog::{Catalog, TableError, Tables};
pub use durable::{DurableError, DurableStore, Snapshot, StateMachine, StoreError};
pub use heap::{RecordId, TableHeap};
pub use index::{Index, IndexKind, NullPolicy};
pub use stats::{AttributeStats, Histogram, NdvSketch, TableStats};
pub use table::{Table, TableOptions};
pub use wal::{
    encode_ops, CheckpointPolicy, DurableOp, LogMedia, RecoveryReport, Wal, WalError, WalObserver,
    WalStats,
};
