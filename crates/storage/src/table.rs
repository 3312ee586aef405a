//! A table: heap + primary/secondary indexes + statistics.

use crate::heap::{RecordId, TableHeap};
use crate::index::{Index, IndexKind, NullPolicy};
use crate::stats::TableStats;
use polyframe_datamodel::{Record, Value};

/// Construction options for a [`Table`].
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Attribute acting as the primary key, if any (builds a primary index).
    pub primary_key: Option<String>,
    /// Null policy applied to *secondary* indexes created on this table.
    pub secondary_null_policy: NullPolicy,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            primary_key: None,
            secondary_null_policy: NullPolicy::SkipNulls,
        }
    }
}

/// A named table with its heap, indexes and statistics.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    heap: TableHeap,
    indexes: Vec<Index>,
    stats: TableStats,
    options: TableOptions,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, options: TableOptions) -> Table {
        let name = name.into();
        let mut indexes = Vec::new();
        if let Some(pk) = &options.primary_key {
            indexes.push(Index::new(
                format!("{name}_pkey"),
                pk.clone(),
                IndexKind::Primary,
                // Primary keys are never null; policy is irrelevant but
                // IndexNulls keeps the index complete by construction.
                NullPolicy::IndexNulls,
            ));
        }
        Table {
            name,
            heap: TableHeap::new(),
            indexes,
            stats: TableStats::new(),
            options,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when the table has no records.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The underlying heap (for sequential scans).
    pub fn heap(&self) -> &TableHeap {
        &self.heap
    }

    /// Table statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The primary-key attribute, if declared.
    pub fn primary_key(&self) -> Option<&str> {
        self.options.primary_key.as_deref()
    }

    /// Insert a record, maintaining all indexes and statistics.
    pub fn insert(&mut self, record: Record) -> RecordId {
        self.stats.observe(&record);
        let rid = self.heap.insert(record);
        // `heap` and `indexes` are disjoint fields, so the indexes read the
        // stored record in place.
        let record = self.heap.get(rid).expect("just inserted");
        for idx in &mut self.indexes {
            idx.insert_record(rid, record);
        }
        rid
    }

    /// Bulk insert. Refreshes histograms/NDV exactly when the table has
    /// grown enough since the last statistics rebuild (amortized O(n)).
    pub fn insert_all(&mut self, records: impl IntoIterator<Item = Record>) {
        for r in records {
            self.insert(r);
        }
        self.stats.maybe_rebuild(&self.heap);
    }

    /// Recompute all statistics exactly from the heap (checkpoint path).
    pub fn rebuild_stats(&mut self) {
        self.stats.rebuild(&self.heap);
    }

    /// Create a secondary index on `attribute` and backfill it. Returns the
    /// index name. No-op when an index on the attribute already exists.
    pub fn create_index(&mut self, attribute: &str) -> String {
        if let Some(existing) = self.index_on(attribute) {
            return existing.name().to_string();
        }
        let name = format!("{}_{}_idx", self.name, attribute);
        let mut idx = Index::new(
            name.clone(),
            attribute,
            IndexKind::Secondary,
            self.options.secondary_null_policy,
        );
        idx.rebuild(&self.heap);
        self.indexes.push(idx);
        name
    }

    /// Find an index covering `attribute`.
    pub fn index_on(&self, attribute: &str) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.attribute() == attribute)
    }

    /// The primary index, if the table declared a primary key.
    pub fn primary_index(&self) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| ix.kind() == IndexKind::Primary)
    }

    /// All indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Fetch a record by id.
    pub fn get(&self, rid: RecordId) -> Option<&Record> {
        self.heap.get(rid)
    }

    /// Point lookup through the primary index.
    pub fn get_by_key(&self, key: &Value) -> Option<&Record> {
        let pk = self.primary_index()?;
        let rid = pk.lookup(key).into_iter().next()?;
        self.heap.get(rid)
    }

    /// Approximate bytes held by the heap.
    pub fn approx_size(&self) -> usize {
        self.heap.approx_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    fn users_table() -> Table {
        let mut t = Table::new(
            "Users",
            TableOptions {
                primary_key: Some("id".to_string()),
                secondary_null_policy: NullPolicy::SkipNulls,
            },
        );
        for i in 0..50i64 {
            t.insert(record! {"id" => i, "age" => 20 + (i % 30), "lang" => if i % 2 == 0 {"en"} else {"fr"}});
        }
        t
    }

    #[test]
    fn primary_index_built_automatically() {
        let t = users_table();
        assert_eq!(t.len(), 50);
        let pk = t.primary_index().unwrap();
        assert_eq!(pk.attribute(), "id");
        assert_eq!(pk.len(), 50);
        assert_eq!(
            t.get_by_key(&Value::Int(7)).unwrap().get_or_missing("id"),
            Value::Int(7)
        );
        assert!(t.get_by_key(&Value::Int(500)).is_none());
    }

    #[test]
    fn secondary_index_backfills() {
        let mut t = users_table();
        let name = t.create_index("age");
        assert_eq!(name, "Users_age_idx");
        let ix = t.index_on("age").unwrap();
        assert_eq!(ix.len(), 50);
        // Creating again is a no-op.
        assert_eq!(t.create_index("age"), "Users_age_idx");
        assert_eq!(t.indexes().len(), 2);
    }

    #[test]
    fn indexes_maintained_on_insert() {
        let mut t = users_table();
        t.create_index("age");
        t.insert(record! {"id" => 100i64, "age" => 99i64, "lang" => "de"});
        assert_eq!(t.index_on("age").unwrap().max_key(), Some(Value::Int(99)));
        assert_eq!(t.stats().record_count(), 51);
    }

    #[test]
    fn stats_track_min_max() {
        let t = users_table();
        let a = t.stats().attribute("age").unwrap();
        assert_eq!(a.min, Some(Value::Int(20)));
        assert_eq!(a.max, Some(Value::Int(49)));
    }
}
