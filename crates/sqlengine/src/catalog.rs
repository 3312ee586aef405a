//! The engine's catalog: namespaces ("dataverses" in AsterixDB parlance,
//! "schemas" in PostgreSQL) containing tables.

use crate::error::{EngineError, Result};
use polyframe_storage::{NullPolicy, Table, TableOptions};
use std::collections::HashMap;
use std::sync::Arc;

/// All data managed by one engine instance.
///
/// Tables are held behind `Arc` so `Clone` — the copy-on-write snapshot
/// the engine publishes for concurrent readers after each committed
/// write — is a shallow map copy, and [`Database::dataset_mut`] deep-
/// copies only the one table being mutated (and only while an older
/// snapshot still shares it).
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: HashMap<(String, String), Arc<Table>>,
    /// Null policy of secondary indexes on datasets created by replaying
    /// a logged `Create` (the owning engine's personality).
    pub(crate) null_policy: NullPolicy,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Empty database whose logged datasets index nulls per `null_policy`.
    pub fn with_null_policy(null_policy: NullPolicy) -> Database {
        Database {
            tables: HashMap::new(),
            null_policy,
        }
    }

    /// Create a dataset. Replaces any existing dataset of the same name.
    pub fn create_dataset(
        &mut self,
        namespace: &str,
        dataset: &str,
        options: TableOptions,
    ) -> &mut Table {
        let key = (namespace.to_string(), dataset.to_string());
        self.tables.insert(
            key.clone(),
            Arc::new(Table::new(format!("{namespace}.{dataset}"), options)),
        );
        Arc::make_mut(self.tables.get_mut(&key).unwrap())
    }

    /// Look a dataset up.
    pub fn dataset(&self, namespace: &str, dataset: &str) -> Result<&Table> {
        self.tables
            .get(&(namespace.to_string(), dataset.to_string()))
            .map(Arc::as_ref)
            .ok_or_else(|| EngineError::UnknownDataset {
                namespace: namespace.to_string(),
                dataset: dataset.to_string(),
            })
    }

    /// Mutable dataset lookup. Copy-on-write: when a published snapshot
    /// still shares the table, this clones it first (`Arc::make_mut`) so
    /// readers pinning the snapshot are never disturbed.
    pub fn dataset_mut(&mut self, namespace: &str, dataset: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&(namespace.to_string(), dataset.to_string()))
            .map(Arc::make_mut)
            .ok_or_else(|| EngineError::UnknownDataset {
                namespace: namespace.to_string(),
                dataset: dataset.to_string(),
            })
    }

    /// True when the dataset exists.
    pub fn contains(&self, namespace: &str, dataset: &str) -> bool {
        self.tables
            .contains_key(&(namespace.to_string(), dataset.to_string()))
    }

    /// Rebuild every table's statistics exactly from its heap — the
    /// checkpoint path, where the write-ahead log is compacted and the
    /// incremental (sketched) statistics are replaced with exact ones.
    pub fn rebuild_stats(&mut self) {
        for table in self.tables.values_mut() {
            Arc::make_mut(table).rebuild_stats();
        }
    }

    /// Iterate `(namespace, dataset)` names.
    pub fn dataset_names(&self) -> impl Iterator<Item = (&str, &str)> {
        self.tables
            .keys()
            .map(|(ns, ds)| (ns.as_str(), ds.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_dataset("Test", "Users", TableOptions::default());
        assert!(db.contains("Test", "Users"));
        assert!(!db.contains("Test", "Ghosts"));
        db.dataset_mut("Test", "Users")
            .unwrap()
            .insert(record! {"id" => 1i64});
        assert_eq!(db.dataset("Test", "Users").unwrap().len(), 1);
        assert!(matches!(
            db.dataset("Nope", "Users"),
            Err(EngineError::UnknownDataset { .. })
        ));
    }
}
