//! The engine's plan cache.
//!
//! PolyFrame's incremental query formation re-sends near-identical query
//! text on every dataframe action, so compilation cost (parse + the
//! personality's optimizer passes + physical planning) is paid over and
//! over for the same strings. The cache memoizes the compiled
//! logical/physical plan pair keyed by `(dialect, query text)` and guarded
//! by the catalog version: DDL and bulk loads bump
//! [`Snapshot::version`](polyframe_storage::Snapshot::version), silently
//! invalidating every plan compiled against the older catalog (a new index
//! — or new data arriving faster than index maintenance — changes which
//! physical plan is correct, not just which is fastest).

use crate::dialect::Dialect;
use crate::plan::logical::LogicalPlan;
use crate::plan::physical::PhysicalPlan;
use polyframe_observe::{CacheStats, ExplainNode, VersionedCache};
use std::sync::Arc;

/// Default number of cached plans per engine. Dataframe workloads touch a
/// handful of distinct query strings per expression chain; 128 covers the
/// harness's whole expression suite with room to spare.
pub const PLAN_CACHE_CAPACITY: usize = 128;

/// A fully compiled query: the optimized logical plan plus the physical
/// plan chosen against the catalog version the entry is tagged with.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// Optimized logical plan (what the cluster layer splits).
    pub logical: LogicalPlan,
    /// Physical plan (what the executor runs).
    pub physical: PhysicalPlan,
    /// Explain tree for the physical plan: per-operator row/cost
    /// estimates, personality flags consulted, and the chosen-vs-rejected
    /// alternatives recorded at each planner decision point.
    pub explain: ExplainNode,
}

/// Whether a compile was answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Plan served from the cache.
    Hit,
    /// Plan compiled and inserted.
    Miss,
}

impl CacheOutcome {
    /// `"hit"` / `"miss"`, as recorded on `plan` span notes.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }

    /// True on a hit.
    pub fn is_hit(self) -> bool {
        self == CacheOutcome::Hit
    }
}

/// Versioned LRU of compiled plans, keyed by `(dialect, query text)`.
pub struct PlanCache {
    inner: VersionedCache<(Dialect, String), CachedPlan>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl PlanCache {
    /// Cache with the default capacity.
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(PLAN_CACHE_CAPACITY)
    }

    /// Cache holding at most `capacity` plans.
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            inner: VersionedCache::new(capacity),
        }
    }

    /// Look a query up at catalog version `version`.
    pub fn get(&self, dialect: Dialect, sql: &str, version: u64) -> Option<Arc<CachedPlan>> {
        self.inner.get(&(dialect, sql.to_string()), version)
    }

    /// Insert a freshly compiled plan, returning the shared handle.
    pub fn insert(
        &self,
        dialect: Dialect,
        sql: &str,
        version: u64,
        plan: CachedPlan,
    ) -> Arc<CachedPlan> {
        self.inner.insert((dialect, sql.to_string()), version, plan)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Drop every cached plan (stats are kept).
    pub fn clear(&self) {
        self.inner.clear()
    }

    /// Hit/miss tallies since engine construction.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}
