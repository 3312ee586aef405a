//! Graph-store error type.

use polyframe_storage::{DurableError, StoreError};
use std::fmt;

/// Errors produced by the graph store.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Lexical/syntax error in a Cypher query.
    Syntax(String),
    /// Unknown label.
    UnknownLabel(String),
    /// Semantic error (unknown variable, bad aggregate placement, ...).
    Semantic(String),
    /// Runtime execution error.
    Exec(String),
    /// Property value not storable in a node record (nested structures).
    UnsupportedProperty(String),
    /// A failure of the durable-store shell: a transient (retryable)
    /// condition — a dropped connection, a shard timeout, an injected
    /// fault — or non-retryable corruption of the log or snapshot.
    Durable(DurableError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Syntax(m) => write!(f, "cypher syntax error: {m}"),
            GraphError::UnknownLabel(l) => write!(f, "unknown label: {l}"),
            GraphError::Semantic(m) => write!(f, "semantic error: {m}"),
            GraphError::Exec(m) => write!(f, "execution error: {m}"),
            GraphError::UnsupportedProperty(m) => {
                write!(f, "unsupported property value: {m}")
            }
            GraphError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<DurableError> for GraphError {
    fn from(e: DurableError) -> GraphError {
        GraphError::Durable(e)
    }
}

impl StoreError for GraphError {
    fn durable(&self) -> Option<&DurableError> {
        match self {
            GraphError::Durable(e) => Some(e),
            _ => None,
        }
    }
}

impl GraphError {
    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, GraphError::Durable(DurableError::Transient(_)))
    }

    /// Whether this error reports damaged durable state.
    pub fn is_corruption(&self) -> bool {
        matches!(self, GraphError::Durable(DurableError::Corruption(_)))
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
