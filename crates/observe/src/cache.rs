//! A small versioned LRU cache shared by every engine's plan cache.
//!
//! PolyFrame's incremental query formation re-issues near-identical query
//! text on every dataframe action, so each backend keeps an LRU of compiled
//! plans keyed by query text. Entries carry the **catalog version** current
//! when they were compiled; DDL (and bulk loads, which can change index
//! completeness) bump the version and silently invalidate every older
//! entry. Like everything in this crate, it is dependency-free: a
//! `HashMap` with a monotonic use-tick and O(capacity) eviction scans,
//! which is plenty for the double-digit capacities plan caches use.

use crate::sync::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Entry<V> {
    value: Arc<V>,
    version: u64,
    last_used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
}

/// Hit/miss tallies of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including version-stale entries).
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// An LRU cache whose entries are invalidated by a version counter.
pub struct VersionedCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V> VersionedCache<K, V> {
    /// Empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> VersionedCache<K, V> {
        VersionedCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look `key` up at catalog version `version`. A stale entry (older
    /// version) is evicted and reported as a miss.
    pub fn get(&self, key: &K, version: u64) -> Option<Arc<V>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) if entry.version == version => {
                entry.last_used = tick;
                let value = Arc::clone(&entry.value);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Some(_) => {
                inner.map.remove(key);
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) an entry, evicting the least recently used
    /// entry when at capacity. Returns the shared handle.
    pub fn insert(&self, key: K, version: u64, value: V) -> Arc<V> {
        let value = Arc::new(value);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            let oldest_tick = inner.map.values().map(|e| e.last_used).min();
            if let Some(min_tick) = oldest_tick {
                inner.map.retain(|_, e| e.last_used != min_tick);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value: Arc::clone(&value),
                version,
                last_used: tick,
            },
        );
        value
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (stats are kept).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Hit/miss tallies since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_stats() {
        let c: VersionedCache<String, i64> = VersionedCache::new(4);
        assert!(c.get(&"q".to_string(), 0).is_none());
        c.insert("q".to_string(), 0, 42);
        assert_eq!(c.get(&"q".to_string(), 0).as_deref(), Some(&42));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.lookups(), 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn version_bump_invalidates() {
        let c: VersionedCache<String, i64> = VersionedCache::new(4);
        c.insert("q".to_string(), 0, 1);
        assert!(c.get(&"q".to_string(), 1).is_none());
        // The stale entry was evicted, not just skipped.
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: VersionedCache<u32, u32> = VersionedCache::new(2);
        c.insert(1, 0, 10);
        c.insert(2, 0, 20);
        // Touch 1 so 2 becomes the eviction candidate.
        assert!(c.get(&1, 0).is_some());
        c.insert(3, 0, 30);
        assert_eq!(c.len(), 2);
        assert!(c.get(&1, 0).is_some());
        assert!(c.get(&2, 0).is_none());
        assert!(c.get(&3, 0).is_some());
    }

    #[test]
    fn reinsert_at_capacity_replaces_in_place() {
        let c: VersionedCache<u32, u32> = VersionedCache::new(1);
        c.insert(1, 0, 10);
        c.insert(1, 1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1, 1).as_deref(), Some(&11));
    }

    #[test]
    fn clear_keeps_stats() {
        let c: VersionedCache<u32, u32> = VersionedCache::new(2);
        c.insert(1, 0, 10);
        let _ = c.get(&1, 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
    }
}
