#![warn(missing_docs)]

//! # polyframe-sqlengine
//!
//! A from-scratch SQL / SQL++ query engine serving as the AsterixDB,
//! PostgreSQL 12 and Greenplum (PostgreSQL 9.5) substrates of the PolyFrame
//! reproduction.
//!
//! One lexer/parser/planner/executor handles both dialects; a
//! [`Personality`] carries the per-system feature flags whose presence or
//! absence explains every observation in the paper's evaluation section:
//!
//! | flag | AsterixDB | PostgreSQL 12 | PostgreSQL 9.5 (Greenplum) |
//! |---|---|---|---|
//! | `index_only_scans` (exprs 6/7/11) | no | yes | no |
//! | `backward_index_scans` (expr 9) | no | yes | no |
//! | `nulls_in_indexes` (expr 13) | no | yes | yes |
//! | `count_via_primary_index` (expr 1) | yes | no | no |
//! | `index_only_join` (expr 12) | yes | no | no |
//! | extra compile passes ("Empty" baseline) | many | few | few |
//!
//! The pipeline is classic: [`lexer`] → [`parser`] → [`plan::builder`] →
//! [`plan::optimizer`] → [`plan::physical`] → [`exec`]. Queries arrive as
//! text — exactly the strings PolyFrame's rewrite rules produce — and
//! results leave as [`polyframe_datamodel::Value`] rows.

pub mod ast;
pub mod dialect;
pub mod engine;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod personality;
pub mod plan;
pub mod token;

pub use dialect::Dialect;
pub use engine::{Database, Engine, EngineConfig};
pub use error::{EngineError, Result};
pub use exec::{available_threads, ExecOptions, ExecReport, DEFAULT_BATCH_ROWS, MAX_BATCH_ROWS};
pub use personality::Personality;
pub use plan::cache::PlanCache;
