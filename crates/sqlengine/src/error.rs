//! Engine error type.

use polyframe_storage::{DurableError, StoreError, TableError};
use std::fmt;

/// Errors surfaced by the SQL/SQL++ engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Lexical error (bad character, unterminated string, ...).
    Lex {
        /// Byte offset of the failure.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// Syntax error from the parser.
    Parse {
        /// Human-readable description.
        message: String,
    },
    /// Semantic error while building the logical plan (unknown dataset,
    /// unresolvable alias, misplaced aggregate, ...).
    Plan {
        /// Human-readable description.
        message: String,
    },
    /// Runtime error during execution.
    Exec {
        /// Human-readable description.
        message: String,
    },
    /// The referenced dataset does not exist.
    UnknownDataset {
        /// Namespace that was searched.
        namespace: String,
        /// The missing dataset's name.
        dataset: String,
    },
    /// A loaded record's primary key repeats within its batch or matches
    /// a stored record.
    DuplicateKey(String),
    /// A failure of the durable-store shell: a transient (retryable)
    /// condition — a dropped connection, a shard timeout, an injected
    /// fault — or non-retryable corruption of the log or snapshot.
    Durable(DurableError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Lex { offset, message } => {
                write!(f, "lexical error at byte {offset}: {message}")
            }
            EngineError::Parse { message } => write!(f, "syntax error: {message}"),
            EngineError::Plan { message } => write!(f, "planning error: {message}"),
            EngineError::Exec { message } => write!(f, "execution error: {message}"),
            EngineError::UnknownDataset { namespace, dataset } => {
                write!(f, "unknown dataset: {namespace}.{dataset}")
            }
            EngineError::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            EngineError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DurableError> for EngineError {
    fn from(e: DurableError) -> EngineError {
        EngineError::Durable(e)
    }
}

impl From<TableError> for EngineError {
    fn from(e: TableError) -> EngineError {
        match e {
            TableError::Unknown { namespace, name } => EngineError::UnknownDataset {
                namespace,
                dataset: name,
            },
            TableError::DuplicateKey(m) => EngineError::DuplicateKey(format!("dataset {m}")),
        }
    }
}

impl StoreError for EngineError {
    fn durable(&self) -> Option<&DurableError> {
        match self {
            EngineError::Durable(e) => Some(e),
            _ => None,
        }
    }
}

impl EngineError {
    /// Shorthand constructor for planning errors.
    pub fn plan(message: impl Into<String>) -> EngineError {
        EngineError::Plan {
            message: message.into(),
        }
    }

    /// Shorthand constructor for execution errors.
    pub fn exec(message: impl Into<String>) -> EngineError {
        EngineError::Exec {
            message: message.into(),
        }
    }

    /// Shorthand constructor for parse errors.
    pub fn parse(message: impl Into<String>) -> EngineError {
        EngineError::Parse {
            message: message.into(),
        }
    }

    /// Shorthand constructor for transient (retryable) errors.
    pub fn transient(message: impl Into<String>) -> EngineError {
        EngineError::Durable(DurableError::Transient(message.into()))
    }

    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Durable(DurableError::Transient(_)))
    }

    /// Whether this error reports damaged durable state.
    pub fn is_corruption(&self) -> bool {
        matches!(self, EngineError::Durable(DurableError::Corruption(_)))
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
