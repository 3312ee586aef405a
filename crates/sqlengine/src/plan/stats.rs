//! Planner-facing statistics: an immutable snapshot of the catalog's
//! per-table/per-column statistics, captured from one pinned snapshot.
//!
//! The storage layer maintains [`polyframe_storage::TableStats`]
//! incrementally on every insert (the load/WAL-apply path) and rebuilds
//! them exactly at checkpoints. This module snapshots those statistics at
//! plan-compile time from the pinned catalog snapshot the plan is cached
//! under, and since every load/DDL publishes a snapshot at a new
//! version, any plan compiled against stale statistics falls out of the
//! plan cache on its own — stats-informed plans can never outlive the
//! statistics that justified them.
//!
//! Selectivity math lives here; cost formulas live in
//! [`crate::plan::cost`].

use crate::engine::Database;
use polyframe_datamodel::Value;
use polyframe_storage::Histogram;
use std::collections::HashMap;

/// Fallback selectivity of an equality predicate without usable stats.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Fallback selectivity of a (half-)range predicate without usable stats.
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Fallback selectivity of an opaque residual predicate.
pub const DEFAULT_OTHER_SELECTIVITY: f64 = 0.25;

/// Column statistics as the planner consumes them.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Estimated number of distinct known values.
    pub ndv: f64,
    /// Fraction of records where the column is `Null`/absent.
    pub unknown_fraction: f64,
    /// Numeric minimum, when the column is numeric.
    pub min: Option<f64>,
    /// Numeric maximum, when the column is numeric.
    pub max: Option<f64>,
    /// Equi-width histogram, when one was built.
    pub histogram: Option<Histogram>,
}

/// Statistics for one table at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct TableStatsView {
    /// Live record count.
    pub row_count: f64,
    columns: HashMap<String, ColumnStats>,
}

impl TableStatsView {
    /// Column statistics, if the column was ever observed.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Estimated selectivity of `column = value`.
    ///
    /// `(1 - unknown_fraction) / NDV`, zeroing out when a numeric literal
    /// falls outside the observed min/max range.
    pub fn eq_selectivity(&self, column: &str, value: &Value) -> f64 {
        let Some(col) = self.columns.get(column) else {
            // Column never observed: equality can only match unknowns,
            // which SQL equality never does.
            return 0.0;
        };
        if let (Some(v), Some(min), Some(max)) = (value.as_f64(), col.min, col.max) {
            if v < min || v > max {
                return 0.0;
            }
        }
        let known = (1.0 - col.unknown_fraction).max(0.0);
        (known / col.ndv.max(1.0)).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of a range predicate over `column`, with
    /// optional numeric bounds (`None` = unbounded on that side).
    pub fn range_selectivity(&self, column: &str, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let Some(col) = self.columns.get(column) else {
            return 0.0;
        };
        let known = (1.0 - col.unknown_fraction).max(0.0);
        if let Some(hist) = &col.histogram {
            if hist.total() > 0 {
                return (hist.range_fraction(lo, hi) * known).clamp(0.0, 1.0);
            }
        }
        // No histogram: interpolate uniformly between min and max.
        if let (Some(min), Some(max)) = (col.min, col.max) {
            if max > min {
                let a = lo.map_or(min, |v| v.clamp(min, max));
                let b = hi.map_or(max, |v| v.clamp(min, max));
                return (((b - a) / (max - min)).max(0.0) * known).clamp(0.0, 1.0);
            }
        }
        DEFAULT_RANGE_SELECTIVITY * known
    }

    /// Estimated selectivity of `column IS NULL/MISSING/UNKNOWN`.
    pub fn unknown_selectivity(&self, column: &str) -> f64 {
        match self.columns.get(column) {
            Some(col) => col.unknown_fraction.clamp(0.0, 1.0),
            // Never observed: unknown in every record.
            None => 1.0,
        }
    }
}

/// An immutable snapshot of every table's statistics.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    tables: HashMap<(String, String), TableStatsView>,
}

impl StatsCatalog {
    /// Capture the statistics of every table in `db`.
    pub fn capture(db: &Database) -> StatsCatalog {
        let mut tables = HashMap::new();
        for (ns, ds, table) in db.iter() {
            let stats = table.stats();
            let mut view = TableStatsView {
                row_count: stats.record_count() as f64,
                columns: HashMap::new(),
            };
            for (attr, a) in stats.attributes() {
                view.columns.insert(
                    attr.to_string(),
                    ColumnStats {
                        ndv: a.ndv_estimate(),
                        unknown_fraction: stats.unknown_fraction(attr),
                        min: a.min.as_ref().and_then(Value::as_f64),
                        max: a.max.as_ref().and_then(Value::as_f64),
                        histogram: a.histogram.clone(),
                    },
                );
            }
            tables.insert((ns.to_string(), ds.to_string()), view);
        }
        StatsCatalog { tables }
    }

    /// Statistics for one table, when it exists and holds data.
    pub fn table(&self, namespace: &str, dataset: &str) -> Option<&TableStatsView> {
        self.tables
            .get(&(namespace.to_string(), dataset.to_string()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;
    use polyframe_storage::TableOptions;

    fn db_with_data() -> Database {
        let mut db = Database::new();
        let t = db.create_dataset(
            "Test",
            "data",
            TableOptions {
                primary_key: Some("id".to_string()),
                ..TableOptions::default()
            },
        );
        t.insert_all((0..100i64).map(|i| {
            record! {"id" => i, "ten" => i % 10, "half" => if i % 2 == 0 { Value::Int(i) } else { Value::Null }}
        }));
        db
    }

    #[test]
    fn capture_sees_tables() {
        let db = db_with_data();
        let stats = StatsCatalog::capture(&db);
        let view = stats.table("Test", "data").unwrap();
        assert_eq!(view.row_count, 100.0);
        assert!(stats.table("Test", "nope").is_none());
    }

    #[test]
    fn eq_selectivity_uses_ndv() {
        let db = db_with_data();
        let stats = StatsCatalog::capture(&db);
        let view = stats.table("Test", "data").unwrap();
        let sel = view.eq_selectivity("ten", &Value::Int(4));
        assert!((sel - 0.1).abs() < 0.02, "sel={sel}");
        // Out-of-range literal: nothing can match.
        assert_eq!(view.eq_selectivity("ten", &Value::Int(50)), 0.0);
        assert_eq!(view.eq_selectivity("ghost", &Value::Int(1)), 0.0);
    }

    #[test]
    fn range_and_unknown_selectivity() {
        let db = db_with_data();
        let stats = StatsCatalog::capture(&db);
        let view = stats.table("Test", "data").unwrap();
        let sel = view.range_selectivity("id", Some(0.0), Some(49.0));
        assert!((sel - 0.5).abs() < 0.06, "sel={sel}");
        let unknown = view.unknown_selectivity("half");
        assert!((unknown - 0.5).abs() < 0.01, "unknown={unknown}");
        assert_eq!(view.unknown_selectivity("ghost"), 1.0);
    }
}
