#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! # polyframe-cluster
//!
//! Sharded, scatter/gather distributed execution over the PolyFrame
//! substrates — the multi-node tier of the paper's evaluation (Figs. 9/10):
//! an AsterixDB cluster, a Greenplum cluster (PostgreSQL 9.5 segments) and
//! a sharded MongoDB ("mongos").
//!
//! Each shard is a full engine instance owning a hash partition of the
//! data. Every distributed query is a pair: the part each shard runs and
//! the part the coordinator runs over the shards' concatenated results.
//! Both front-ends ([`SqlCluster`], [`MongoCluster`]) split a query into
//! that pair and hand it to one shared [`Coordinator`], which scatters the
//! shard part, merges, and records [`QueryStats`]. Shard work runs on one
//! OS thread per shard under [`ExecMode::Threads`] (the stand-in for one
//! EC2 node per shard); under [`ExecMode::Sequential`], which
//! [`ExecMode::auto`] picks when the host has fewer cores than shards,
//! the shards run one after another and the stats report the simulated
//! critical path instead. The merge step is serial. The splits:
//!
//! * streaming pipelines → run everywhere; merge = concatenate (+ limit);
//! * aggregates and `$group` → shard-side partial states (SQL
//!   `AggMode::Partial`, a partial-mode `$group`); merge = a final-mode
//!   aggregate over the partials, keyed on the group columns or `_id`;
//! * `$count` → shard-side counts; merge = a `$group` summing them;
//! * sort + limit → shard-side top-k; merge = the same sort + limit,
//!   ties in shard order;
//! * join + count → parallel **repartition join** over index keys
//!   (SQL engines), and a hard **error** for sharded MongoDB `$lookup`
//!   (the paper could not run expression 12 on distributed MongoDB).
//!
//! Shard dispatch is resilient ([`resilience`]): transiently-failing
//! shards fail over (re-dispatch), and with explicit opt-in a query
//! degrades to partial results from the healthy shards, with the gap
//! recorded in [`QueryStats::dropped_shards`].
//!
//! The elastic tier ([`replicate`]) gives each shard WAL-shipped
//! follower replicas: a crashed leader is healed by *promoting* its
//! freshest follower (replaying only the committed-but-unshipped tail)
//! instead of rebuilding from scratch, snapshot reads can be routed to
//! caught-up replicas ([`ShardPolicy::prefer_replica`]), and a hot SQL
//! shard can be split in two online, cutting over at a pinned LSN with
//! byte-identical results.

pub mod coordinator;
pub mod doc_cluster;
pub mod partition;
pub mod replicate;
pub mod resilience;
pub mod sql_cluster;
pub mod stats;
mod topology;

pub use coordinator::Coordinator;
pub use doc_cluster::MongoCluster;
pub use partition::{shard_for, ShardMap, SHARD_SLOTS};
pub use replicate::{NodeError, Promotion, ReplicaNode, ReplicaSet, ReplicaStatus};
pub use resilience::{run_resilient, shard_fault, ShardFault, ShardOutcome, ShardPolicy};
pub use sql_cluster::SqlCluster;
pub use stats::{ExecMode, QueryStats, RecoveryCounters};
