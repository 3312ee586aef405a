//! Named indexes over a table heap.

use crate::btree::{BPlusTree, Direction, ScanRange};
use crate::heap::{RecordId, TableHeap};
use polyframe_datamodel::{Record, Value};

/// How an index treats `Missing`/`Null` keys.
///
/// This single knob reproduces the paper's expression-13 analysis:
/// PostgreSQL B-trees index `NULL`s (so `IS NULL` counts are index-only),
/// while AsterixDB, MongoDB and Neo4j secondary indexes skip unknown keys
/// entirely, forcing a data scan for missing-value predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NullPolicy {
    /// Store `Null`/`Missing` keys in the index (PostgreSQL behaviour).
    IndexNulls,
    /// Skip unknown keys (AsterixDB / MongoDB / Neo4j behaviour).
    #[default]
    SkipNulls,
}

/// Whether this is the table's primary index or a secondary one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Primary-key index: unique, always present, counts all records.
    Primary,
    /// Secondary index: may skip unknown keys per [`NullPolicy`].
    Secondary,
}

/// A single-attribute index over a [`TableHeap`].
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    attribute: String,
    kind: IndexKind,
    null_policy: NullPolicy,
    tree: BPlusTree,
    /// Number of unknown-key records skipped (used by planners to answer
    /// "can this index produce an exact COUNT(*)"?).
    skipped_unknown: usize,
}

impl Index {
    /// Create an empty index on `attribute`.
    pub fn new(
        name: impl Into<String>,
        attribute: impl Into<String>,
        kind: IndexKind,
        null_policy: NullPolicy,
    ) -> Index {
        Index {
            name: name.into(),
            attribute: attribute.into(),
            kind,
            null_policy,
            tree: BPlusTree::new(),
            skipped_unknown: 0,
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute this index covers.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Primary or secondary.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Null policy in force.
    pub fn null_policy(&self) -> NullPolicy {
        self.null_policy
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// True when the index covers every record (no unknown keys skipped) and
    /// can therefore answer `COUNT(*)` exactly.
    pub fn is_complete(&self) -> bool {
        self.skipped_unknown == 0
    }

    /// Whether unknown (`Null`/`Missing`) keys are present in the index.
    pub fn indexes_unknown_keys(&self) -> bool {
        self.null_policy == NullPolicy::IndexNulls
    }

    /// Add a record's key to the index.
    pub fn insert_record(&mut self, rid: RecordId, record: &Record) {
        let key = record.get_or_missing(&self.attribute);
        if key.is_unknown() && self.null_policy == NullPolicy::SkipNulls {
            self.skipped_unknown += 1;
            return;
        }
        self.tree.insert(key, rid.0);
    }

    /// Remove a record's key from the index.
    pub fn remove_record(&mut self, rid: RecordId, record: &Record) {
        let key = record.get_or_missing(&self.attribute);
        if key.is_unknown() && self.null_policy == NullPolicy::SkipNulls {
            self.skipped_unknown = self.skipped_unknown.saturating_sub(1);
            return;
        }
        self.tree.remove(&key, rid.0);
    }

    /// Range scan yielding `(key, RecordId)` pairs.
    pub fn scan<'a>(
        &'a self,
        range: &ScanRange,
        direction: Direction,
    ) -> impl Iterator<Item = (&'a Value, RecordId)> + 'a {
        self.tree
            .scan(range, direction)
            .map(|(k, p)| (k, RecordId(p)))
    }

    /// All record ids whose key equals `key`.
    pub fn lookup(&self, key: &Value) -> Vec<RecordId> {
        self.scan(&ScanRange::eq(key.clone()), Direction::Forward)
            .map(|(_, rid)| rid)
            .collect()
    }

    /// Record ids whose key is `Null` or `Missing` (only meaningful for
    /// [`NullPolicy::IndexNulls`] indexes).
    pub fn scan_unknown(&self) -> Vec<RecordId> {
        let mut out: Vec<RecordId> = self
            .scan(&ScanRange::eq(Value::Missing), Direction::Forward)
            .map(|(_, rid)| rid)
            .collect();
        out.extend(
            self.scan(&ScanRange::eq(Value::Null), Direction::Forward)
                .map(|(_, rid)| rid),
        );
        out
    }

    /// Smallest non-unknown key (index-only MIN).
    pub fn min_key(&self) -> Option<Value> {
        self.tree
            .scan(&ScanRange::all(), Direction::Forward)
            .map(|(k, _)| k)
            .find(|k| !k.is_unknown())
            .cloned()
    }

    /// Largest non-unknown key (index-only MAX, a backward leaf walk).
    pub fn max_key(&self) -> Option<Value> {
        self.tree
            .scan(&ScanRange::all(), Direction::Backward)
            .map(|(k, _)| k)
            .find(|k| !k.is_unknown())
            .cloned()
    }

    /// Count entries in a key range without touching the heap.
    pub fn count_range(&self, range: &ScanRange) -> usize {
        self.tree.count_range(range)
    }

    /// Rebuild from scratch over a heap (bulk load).
    pub fn rebuild(&mut self, heap: &TableHeap) {
        self.tree = BPlusTree::new();
        self.skipped_unknown = 0;
        for (rid, record) in heap.scan() {
            self.insert_record(rid, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    fn heap_and_index(policy: NullPolicy) -> (TableHeap, Index) {
        let mut heap = TableHeap::new();
        let mut idx = Index::new("ix_a", "a", IndexKind::Secondary, policy);
        for i in 0..20i64 {
            let rec = if i % 5 == 0 {
                record! {"b" => i} // "a" missing
            } else {
                record! {"a" => i, "b" => i}
            };
            let rid = heap.insert(rec);
            idx.insert_record(rid, heap.get(rid).unwrap());
        }
        (heap, idx)
    }

    #[test]
    fn skip_nulls_policy_drops_unknown_keys() {
        let (_, idx) = heap_and_index(NullPolicy::SkipNulls);
        assert_eq!(idx.len(), 16);
        assert!(!idx.is_complete());
        assert!(idx.scan_unknown().is_empty());
    }

    #[test]
    fn index_nulls_policy_keeps_unknown_keys() {
        let (_, idx) = heap_and_index(NullPolicy::IndexNulls);
        assert_eq!(idx.len(), 20);
        assert!(idx.is_complete());
        assert_eq!(idx.scan_unknown().len(), 4);
    }

    #[test]
    fn lookup_and_min_max() {
        let (_, idx) = heap_and_index(NullPolicy::IndexNulls);
        assert_eq!(idx.lookup(&Value::Int(7)).len(), 1);
        assert_eq!(idx.lookup(&Value::Int(5)).len(), 0); // 5 % 5 == 0: missing
        assert_eq!(idx.min_key(), Some(Value::Int(1)));
        assert_eq!(idx.max_key(), Some(Value::Int(19)));
    }

    #[test]
    fn min_max_skip_unknown_even_when_indexed() {
        let mut idx = Index::new("ix", "a", IndexKind::Secondary, NullPolicy::IndexNulls);
        let mut heap = TableHeap::new();
        for rec in [record! {"b" => 1i64}, record! {"a" => 3i64}] {
            let rid = heap.insert(rec);
            idx.insert_record(rid, heap.get(rid).unwrap());
        }
        assert_eq!(idx.min_key(), Some(Value::Int(3)));
        assert_eq!(idx.max_key(), Some(Value::Int(3)));
    }

    #[test]
    fn remove_record_maintains_counts() {
        let (heap, mut idx) = heap_and_index(NullPolicy::SkipNulls);
        let (rid, rec) = heap.scan().nth(1).unwrap(); // has "a"
        idx.remove_record(rid, rec);
        assert_eq!(idx.len(), 15);
        let (rid0, rec0) = heap.scan().next().unwrap(); // missing "a"
        idx.remove_record(rid0, rec0);
        assert_eq!(idx.len(), 15);
    }

    #[test]
    fn rebuild_matches_incremental() {
        let (heap, idx) = heap_and_index(NullPolicy::IndexNulls);
        let mut rebuilt = Index::new("ix_a", "a", IndexKind::Secondary, NullPolicy::IndexNulls);
        rebuilt.rebuild(&heap);
        assert_eq!(rebuilt.len(), idx.len());
        assert_eq!(rebuilt.min_key(), idx.min_key());
    }
}
