//! Document-store error type.

use polyframe_storage::{DurableError, StoreError, TableError};
use std::fmt;

/// Errors produced by the document store.
#[derive(Debug, Clone, PartialEq)]
pub enum DocError {
    /// Malformed pipeline JSON or unsupported stage/operator.
    Pipeline(String),
    /// Unknown collection.
    UnknownCollection(String),
    /// Runtime evaluation failure.
    Exec(String),
    /// An ingested document's explicit `_id` repeats within its batch or
    /// matches a stored document.
    DuplicateKey(String),
    /// `$lookup` against a sharded collection (paper: expression 12 cannot
    /// run on distributed MongoDB).
    ShardedLookup(String),
    /// A failure of the durable-store shell: a transient (retryable)
    /// condition — a dropped connection, a shard timeout, an injected
    /// fault — or non-retryable corruption of the log or snapshot.
    Durable(DurableError),
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Pipeline(m) => write!(f, "pipeline error: {m}"),
            DocError::UnknownCollection(c) => write!(f, "unknown collection: {c}"),
            DocError::Exec(m) => write!(f, "execution error: {m}"),
            DocError::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            DocError::ShardedLookup(c) => {
                write!(f, "$lookup from sharded collection {c} is not allowed")
            }
            DocError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DocError {}

impl From<DurableError> for DocError {
    fn from(e: DurableError) -> DocError {
        DocError::Durable(e)
    }
}

impl From<TableError> for DocError {
    fn from(e: TableError) -> DocError {
        match e {
            TableError::Unknown { name, .. } => DocError::UnknownCollection(name),
            TableError::DuplicateKey(m) => DocError::DuplicateKey(format!("collection {m}")),
        }
    }
}

impl StoreError for DocError {
    fn durable(&self) -> Option<&DurableError> {
        match self {
            DocError::Durable(e) => Some(e),
            _ => None,
        }
    }
}

impl DocError {
    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, DocError::Durable(DurableError::Transient(_)))
    }

    /// Whether this error reports damaged durable state.
    pub fn is_corruption(&self) -> bool {
        matches!(self, DocError::Durable(DurableError::Corruption(_)))
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, DocError>;
