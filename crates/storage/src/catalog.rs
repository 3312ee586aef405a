//! The table map every store keeps its state in, and the state machine
//! the two [`Table`] stores (SQL and documents) share.
//!
//! [`Catalog`] maps names to `Arc`-shared tables. Cloning it — what the
//! durable shell does to publish a snapshot after every commit — copies
//! only the map; [`Catalog::get_mut`] copies one table, and only while a
//! published snapshot still shares it. A commit therefore copies the
//! table it writes and never one it does not touch.

use crate::durable::DurableError;
use crate::index::IndexKind;
use crate::table::{Table, TableOptions};
use crate::wal::DurableOp;
use polyframe_datamodel::{cmp_total, Record, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A name → table map with copy-on-write tables (see the module docs).
#[derive(Debug, Clone)]
pub struct Catalog<K, T> {
    entries: HashMap<K, Arc<T>>,
}

impl<K, T> Default for Catalog<K, T> {
    fn default() -> Catalog<K, T> {
        Catalog {
            entries: HashMap::new(),
        }
    }
}

impl<K: Eq + Hash, T: Clone> Catalog<K, T> {
    /// Look a table up.
    pub fn get<Q>(&self, key: &Q) -> Option<&T>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.entries.get(key).map(Arc::as_ref)
    }

    /// Mutable lookup; copies the table first while a published snapshot
    /// shares it.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut T> {
        self.entries.get_mut(key).map(Arc::make_mut)
    }

    /// Insert `table` under `key`, replacing any table of that name.
    pub fn insert(&mut self, key: K, table: T) -> &mut T {
        let slot = self.entries.entry(key).insert_entry(Arc::new(table));
        Arc::make_mut(slot.into_mut())
    }

    /// Mutable lookup that inserts `make()` when `key` is absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> T) -> &mut T {
        Arc::make_mut(self.entries.entry(key).or_insert_with(|| Arc::new(make())))
    }

    /// Every table, mutably (each copied first while it is shared).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.values_mut().map(Arc::make_mut)
    }

    /// Every `(name, table)` pair, sorted by name (checkpoints need a
    /// deterministic order).
    pub fn sorted(&self) -> Vec<(&K, &T)>
    where
        K: Ord,
    {
        let mut pairs: Vec<(&K, &T)> = self.entries.iter().map(|(k, t)| (k, t.as_ref())).collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        pairs
    }
}

/// Why [`Tables::check`] refused an op.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// The op names a dataset that does not exist.
    Unknown {
        /// Namespace searched (empty for the document store).
        namespace: String,
        /// The missing dataset's name.
        name: String,
    },
    /// An ingested primary key repeats: `<table>, <attribute> <key>`.
    DuplicateKey(String),
}

/// The state the SQL and document stores share: datasets keyed by
/// `(namespace, name)` (the document store's namespace is empty), and
/// what both do with them — lookup, `Create`/`Index`/`Ingest` apply,
/// checkpoint ops and the primary-key rule.
#[derive(Debug, Clone, Default)]
pub struct Tables {
    catalog: Catalog<(String, String), Table>,
    /// Options of every table a `Create` makes. Its primary key applies
    /// when the `Create` names none (the document store's implicit
    /// `_id`), and its null policy governs secondary indexes.
    defaults: TableOptions,
}

impl Tables {
    /// No datasets; `Create`d tables take `defaults`.
    pub fn new(defaults: TableOptions) -> Tables {
        Tables {
            catalog: Catalog::default(),
            defaults,
        }
    }

    /// No datasets, configured like this one (recovery's start point).
    pub fn empty(&self) -> Tables {
        Tables::new(self.defaults.clone())
    }

    /// Look a dataset up.
    pub fn get(&self, namespace: &str, name: &str) -> Result<&Table, TableError> {
        self.catalog
            .get(&(namespace.to_string(), name.to_string()))
            .ok_or_else(|| TableError::Unknown {
                namespace: namespace.to_string(),
                name: name.to_string(),
            })
    }

    /// Every dataset as `(namespace, name, table)`, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &Table)> {
        self.catalog
            .sorted()
            .into_iter()
            .map(|((ns, name), table)| (ns.as_str(), name.as_str(), table))
    }

    /// Create a dataset, replacing any of the same name.
    pub fn create_dataset(
        &mut self,
        namespace: &str,
        name: &str,
        options: TableOptions,
    ) -> &mut Table {
        self.catalog.insert(
            (namespace.to_string(), name.to_string()),
            Table::new(qualified(namespace, name), options),
        )
    }

    /// Recompute every table's statistics exactly from its heap.
    pub fn rebuild_stats(&mut self) {
        for table in self.catalog.values_mut() {
            table.rebuild_stats();
        }
    }

    /// What an op must pass before it is logged, so a logged op can
    /// never fail to apply: an `Index` or `Ingest` names an existing
    /// dataset, and an `Ingest` repeats no primary key. A key repeats
    /// when two records of the batch carry equal keys ([`cmp_total`]) or
    /// one carries a stored record's key; the smallest such key is
    /// reported. A record without the key field is not checked.
    pub fn check(&self, op: &DurableOp) -> Result<(), TableError> {
        match op {
            DurableOp::Create { .. } => Ok(()),
            DurableOp::Index {
                namespace, name, ..
            } => self.get(namespace, name).map(|_| ()),
            DurableOp::Ingest {
                namespace,
                name,
                records,
            } => check_keys(self.get(namespace, name)?, records),
        }
    }

    /// Apply a logged op. A failure means the log references a dataset
    /// it never created.
    pub fn apply(&mut self, op: DurableOp) -> Result<(), DurableError> {
        let unknown = |what: &str, (namespace, name): &(String, String)| {
            DurableError::Corruption(format!(
                "log {what} unknown dataset {}",
                qualified(namespace, name)
            ))
        };
        match op {
            DurableOp::Create {
                namespace,
                name,
                key,
            } => {
                let options = TableOptions {
                    primary_key: key.or_else(|| self.defaults.primary_key.clone()),
                    ..self.defaults.clone()
                };
                self.create_dataset(&namespace, &name, options);
            }
            DurableOp::Ingest {
                namespace,
                name,
                records,
            } => {
                let key = (namespace, name);
                self.catalog
                    .get_mut(&key)
                    .ok_or_else(|| unknown("ingests into", &key))?
                    .insert_all(records);
            }
            DurableOp::Index {
                namespace,
                name,
                attribute,
            } => {
                let key = (namespace, name);
                self.catalog
                    .get_mut(&key)
                    .ok_or_else(|| unknown("indexes", &key))?
                    .create_index(&attribute);
            }
        }
        Ok(())
    }

    /// Per dataset (sorted by name) a `Create`, its secondary `Index`es,
    /// then one `Ingest` of the heap in scan order. Creating indexes
    /// before the ingest feeds every B+tree the same key sequence the
    /// original history did, so the rebuilt trees match. A primary key
    /// equal to the default is implicit and not logged.
    pub fn snapshot_ops(&self) -> Vec<DurableOp> {
        let mut ops = Vec::new();
        for (namespace, name, table) in self.iter() {
            let key = table
                .primary_key()
                .filter(|pk| Some(*pk) != self.defaults.primary_key.as_deref());
            ops.push(DurableOp::Create {
                namespace: namespace.to_string(),
                name: name.to_string(),
                key: key.map(str::to_string),
            });
            for ix in table
                .indexes()
                .iter()
                .filter(|ix| ix.kind() == IndexKind::Secondary)
            {
                ops.push(DurableOp::Index {
                    namespace: namespace.to_string(),
                    name: name.to_string(),
                    attribute: ix.attribute().to_string(),
                });
            }
            ops.push(DurableOp::Ingest {
                namespace: namespace.to_string(),
                name: name.to_string(),
                records: table.heap().scan().map(|(_, r)| r.clone()).collect(),
            });
        }
        ops
    }
}

/// `namespace.name`, or the bare name in the empty namespace.
fn qualified(namespace: &str, name: &str) -> String {
    if namespace.is_empty() {
        name.to_string()
    } else {
        format!("{namespace}.{name}")
    }
}

/// The primary-key rule of [`Tables::check`].
fn check_keys(table: &Table, records: &[Record]) -> Result<(), TableError> {
    let Some(pk) = table.primary_key() else {
        return Ok(());
    };
    let mut keys: Vec<&Value> = records.iter().filter_map(|r| r.get(pk)).collect();
    keys.sort_by(|a, b| cmp_total(a, b));
    let repeated = keys
        .windows(2)
        .find(|pair| cmp_total(pair[0], pair[1]) == Ordering::Equal)
        .map(|pair| pair[0]);
    let stored = || keys.iter().copied().find(|k| table.get_by_key(k).is_some());
    match repeated.or_else(stored) {
        Some(key) => Err(TableError::DuplicateKey(format!(
            "{}, {pk} {key:?}",
            table.name()
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    fn ingest(name: &str, records: Vec<Record>) -> DurableOp {
        DurableOp::Ingest {
            namespace: "Test".to_string(),
            name: name.to_string(),
            records,
        }
    }

    #[test]
    fn create_and_lookup() {
        let mut tables = Tables::default();
        tables.create_dataset("Test", "Users", TableOptions::default());
        assert!(tables.get("Test", "Users").is_ok());
        tables
            .apply(ingest("Users", vec![record! {"id" => 1i64}]))
            .unwrap();
        assert_eq!(tables.get("Test", "Users").unwrap().len(), 1);
        assert_eq!(tables.get("Test", "Users").unwrap().name(), "Test.Users");
        assert!(matches!(
            tables.get("Nope", "Users"),
            Err(TableError::Unknown { .. })
        ));
        assert!(tables.apply(ingest("Ghosts", Vec::new())).is_err());
    }

    /// A clone shares every table; a write through `get_mut` copies only
    /// the table written, and only the writer sees it.
    #[test]
    fn get_mut_copies_only_a_shared_table() {
        let mut catalog: Catalog<String, Vec<i64>> = Catalog::default();
        catalog.insert("a".to_string(), vec![1]);
        catalog.insert("b".to_string(), vec![2]);
        let published = catalog.clone();
        catalog.get_mut(&"b".to_string()).unwrap().push(3);

        assert!(std::ptr::eq(
            catalog.get("a").unwrap(),
            published.get("a").unwrap()
        ));
        assert!(!std::ptr::eq(
            catalog.get("b").unwrap(),
            published.get("b").unwrap()
        ));
        assert_eq!(published.get("b").unwrap(), &vec![2]);
        assert_eq!(catalog.get("b").unwrap(), &vec![2, 3]);

        // Unshared, the table is written in place.
        let before: *const Vec<i64> = catalog.get("b").unwrap();
        catalog.get_mut(&"b".to_string()).unwrap().push(4);
        assert!(std::ptr::eq(before, catalog.get("b").unwrap()));
    }

    #[test]
    fn primary_key_rule_rejects_repeats_before_apply() {
        let mut tables = Tables::default();
        tables
            .apply(DurableOp::Create {
                namespace: "Test".to_string(),
                name: "t".to_string(),
                key: Some("id".to_string()),
            })
            .unwrap();
        tables
            .apply(ingest(
                "t",
                vec![record! {"id" => 3i64}, record! {"x" => 1i64}],
            ))
            .unwrap();
        let in_batch = ingest("t", vec![record! {"id" => 7i64}, record! {"id" => 7.0}]);
        let stored = ingest("t", vec![record! {"id" => 9i64}, record! {"id" => 3i64}]);
        for (op, key) in [
            (in_batch, "Test.t, id Int(7)"),
            (stored, "Test.t, id Int(3)"),
        ] {
            assert_eq!(
                tables.check(&op),
                Err(TableError::DuplicateKey(key.to_string()))
            );
        }
        // Records without the key field are not checked.
        let keyless = ingest("t", vec![record! {"x" => 2i64}, record! {"x" => 3i64}]);
        assert_eq!(tables.check(&keyless), Ok(()));
    }

    #[test]
    fn implicit_key_is_not_logged() {
        let mut tables = Tables::new(TableOptions {
            primary_key: Some("_id".to_string()),
            ..TableOptions::default()
        });
        let create = DurableOp::Create {
            namespace: String::new(),
            name: "c".to_string(),
            key: None,
        };
        tables.apply(create.clone()).unwrap();
        assert_eq!(tables.get("", "c").unwrap().primary_key(), Some("_id"));
        assert_eq!(tables.get("", "c").unwrap().name(), "c");
        let ops = tables.snapshot_ops();
        assert_eq!(ops[0], create);
    }
}
