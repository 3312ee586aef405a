//! # polyframe-observe
//!
//! Zero-dependency observability layer for the PolyFrame workspace.
//!
//! The paper's evaluation (Table 1, Figs. 5-10) rests on attributing wall
//! time to the right stage — incremental query formation vs. compilation
//! vs. backend execution. This crate provides the plumbing every other
//! crate uses to make that attribution:
//!
//! * [`trace`] — a `QueryTrace` span tree covering the full query
//!   lifecycle (rewrite → preprocess → parse/plan → execute-per-shard →
//!   postprocess) with per-span durations and named metrics (query-string
//!   lengths, rewrite pass counts, rows scanned, index hits).
//! * [`explain`] — the structured `ExplainReport` plan tree every
//!   backend's `explain()` returns: operators with estimated rows/cost,
//!   personality flags consulted, and chosen-vs-rejected alternatives.
//! * [`cache`] — a versioned LRU used as the plan cache by every backend,
//!   with hit/miss stats the harness folds into its reports.
//! * [`sync`] — `Mutex`/`RwLock` wrappers over `std::sync` with
//!   guard-returning (non-`Result`) APIs, shared by all crates so lock
//!   idiom stays uniform without external dependencies.
//! * [`rng`] — a small deterministic PRNG (SplitMix64) for reproducible
//!   data generation and property-style tests in offline builds.
//! * [`fault`] — a seeded, deterministic fault-injection plan the
//!   engines and clusters consult so failure behaviour is reproducible.
//! * [`policy`] — retry/backoff (with deterministic jitter) and
//!   per-action deadline budgets shared by the resilient execution path.
//! * [`epoch`] — the copy-on-write snapshot cell every store publishes
//!   its committed state through, so readers pin an immutable epoch
//!   instead of holding the store's lock across execution.
//! * [`sched`] — the bounded, session-fair admission queue underneath
//!   the concurrent serving tier (round-robin across sessions,
//!   backpressure on overflow, graceful drain).
//!
//! The crate deliberately has **no dependencies** (not even workspace
//! ones) so it can sit underneath every other PolyFrame crate.

pub mod cache;
#[deny(clippy::unwrap_used)]
pub mod epoch;
pub mod explain;
pub mod fault;
pub mod policy;
pub mod rng;
#[deny(clippy::unwrap_used)]
pub mod sched;
pub mod sync;
pub mod trace;

pub use cache::{CacheStats, VersionedCache};
pub use epoch::SnapshotCell;
pub use explain::{ExplainNode, ExplainReport, PlanAlternative};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use policy::{Deadline, RetryPolicy};
pub use rng::Rng;
pub use sched::{FairQueue, QueueStats, SubmitError};
pub use trace::{QueryTrace, Span, SpanTimer, TraceCell};
