#![warn(missing_docs)]

//! # polyframe-bench
//!
//! The DataFrame benchmark from the PolyFrame paper (section IV): 13
//! analytical expressions (Table III) over the scalable Wisconsin dataset,
//! timed with the paper's two timing points (total runtime including
//! DataFrame creation vs. expression-only runtime), across Pandas (the
//! eager baseline) and PolyFrame on AsterixDB, PostgreSQL, MongoDB and
//! Neo4j — plus the multi-node speedup/scaleup harness for Figures 9/10.
//!
//! The `harness` binary regenerates every figure's data as text tables
//! plus a JSON report with per-stage trace breakdowns. The [`ablations`]
//! module times the intra-node ablations (`harness ablations`), the
//! [`faults`] module measures what retry, failover and partial-result
//! degradation cost (`harness faults`), and the [`replicate`] module the
//! elastic tier (`harness replicate`): recovery time under load with and
//! without follower replicas (full rebuild vs promotion), and read tail
//! latency while a shard splits online. The ablations that compare
//! executor paths assert byte-identical results before they time them,
//! and `faults`/`replicate` exit 1 when recovery changes a result.
//!
//! Serving and crash-recovery timings live in polybench's `serve_rw` and
//! `durable_ingest` workloads; their correctness checks are tier-1 tests
//! (`tests/concurrent_serving.rs`, `tests/durability_recovery.rs`).

pub mod ablations;
pub mod expressions;
pub mod faults;
pub mod params;
pub mod replicate;
pub mod report;
pub mod systems;
pub mod timing;

pub use expressions::{BenchExpr, ALL_EXPRESSIONS};
pub use params::BenchParams;
pub use systems::{MultiNodeSetup, SingleNodeSetup, SystemKind};
pub use timing::{time_expression, Timing};
