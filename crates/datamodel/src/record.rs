//! Ordered field maps ("open records" in ADM terminology).

use crate::value::Value;

/// An ordered collection of named fields.
///
/// Field order is preserved because query output must list attributes in the
/// order a projection named them (Pandas, SQL and MongoDB all preserve
/// projection order). Lookup is a linear scan — records in this workload have
/// a handful to a few dozen fields, where a scan beats hashing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// Create an empty record.
    pub fn new() -> Record {
        Record { fields: Vec::new() }
    }

    /// Create an empty record with pre-allocated capacity for `n` fields.
    pub fn with_capacity(n: usize) -> Record {
        Record {
            fields: Vec::with_capacity(n),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Insert or overwrite a field, preserving its original position when
    /// overwriting.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.fields.push((name, value));
        }
    }

    /// Look a field up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Field lookup with a position hint, for scans over records that share
    /// a layout (rows of one table): `hint` is checked first and updated to
    /// the found position, so after the first row each lookup is one slot
    /// probe instead of a linear scan. Behaves exactly like [`Record::get`]
    /// for any `hint` value.
    pub fn get_hinted(&self, name: &str, hint: &mut usize) -> Option<&Value> {
        if let Some((k, v)) = self.fields.get(*hint) {
            if k == name {
                return Some(v);
            }
        }
        let pos = self.fields.iter().position(|(k, _)| k == name)?;
        *hint = pos;
        Some(&self.fields[pos].1)
    }

    /// Field lookup that maps absence to [`Value::Missing`] (open-record
    /// semantics).
    pub fn get_or_missing(&self, name: &str) -> Value {
        self.get(name).cloned().unwrap_or(Value::Missing)
    }

    /// Remove a field by name, returning its value if present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(k, _)| k == name)?;
        Some(self.fields.remove(idx).1)
    }

    /// True when a field of this name exists (even if its value is `Null`).
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|(k, _)| k == name)
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Field names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// Field values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }

    /// Approximate heap footprint (see [`Value::approx_size`]).
    pub fn approx_size(&self) -> usize {
        self.fields
            .iter()
            .map(|(k, v)| k.capacity() + v.approx_size())
            .sum()
    }
}

impl FromIterator<(String, Value)> for Record {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Record {
        let mut r = Record::new();
        for (k, v) in iter {
            r.insert(k, v);
        }
        r
    }
}

impl IntoIterator for Record {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.fields.into_iter()
    }
}

/// Build a [`Record`] from `name => value` pairs.
///
/// ```
/// use polyframe_datamodel::{record, Value};
/// let r = record! { "a" => 1i64, "b" => "x" };
/// assert_eq!(r.get("a"), Some(&Value::Int(1)));
/// ```
#[macro_export]
macro_rules! record {
    ( $( $k:expr => $v:expr ),* $(,)? ) => {{
        let mut r = $crate::Record::new();
        $( r.insert($k, $v); )*
        r
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_preserves_order_and_overwrites_in_place() {
        let mut r = Record::new();
        r.insert("b", 1i64);
        r.insert("a", 2i64);
        r.insert("b", 3i64);
        let keys: Vec<&str> = r.keys().collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert_eq!(r.get("b"), Some(&Value::Int(3)));
    }

    #[test]
    fn get_or_missing() {
        let r = record! { "x" => Value::Null };
        assert_eq!(r.get_or_missing("x"), Value::Null);
        assert_eq!(r.get_or_missing("y"), Value::Missing);
        assert!(r.contains("x"));
        assert!(!r.contains("y"));
    }

    #[test]
    fn get_hinted_matches_get_for_any_hint() {
        let r = record! { "a" => 1i64, "b" => 2i64, "c" => 3i64 };
        for name in ["a", "b", "c", "zzz"] {
            for start in 0..5 {
                let mut hint = start;
                assert_eq!(r.get_hinted(name, &mut hint), r.get(name), "{name}/{start}");
            }
        }
        // The hint converges: a miss updates it to the found slot, so the
        // next same-layout lookup is a single probe.
        let mut hint = 0;
        r.get_hinted("c", &mut hint);
        assert_eq!(hint, 2);
        let r2 = record! { "a" => 9i64, "b" => 8i64, "c" => 7i64 };
        assert_eq!(r2.get_hinted("c", &mut hint), Some(&Value::Int(7)));
    }

    #[test]
    fn remove() {
        let mut r = record! { "x" => 1i64, "y" => 2i64 };
        assert_eq!(r.remove("x"), Some(Value::Int(1)));
        assert_eq!(r.remove("x"), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_iterator_dedupes() {
        let r: Record = vec![
            ("a".to_string(), Value::Int(1)),
            ("a".to_string(), Value::Int(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get("a"), Some(&Value::Int(2)));
    }
}
