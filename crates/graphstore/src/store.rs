//! Node storage: fixed-size property records, a separate string store,
//! label metadata counts and property indexes.

use crate::error::{GraphError, Result};
use polyframe_datamodel::{Record, Value};
use polyframe_storage::{Catalog, DurableError, DurableOp, DurableStore, StateMachine};
use std::collections::HashMap;

pub(crate) use polyframe_storage::{BPlusTree, Direction, ScanRange};

/// Inline property value in a node record. Strings are out-of-line pointers
/// into the label's string store (the Neo4j layout the paper credits for
/// its short-record scan advantage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InlineProp {
    /// Inline integer.
    Int(i64),
    /// Inline double.
    Double(f64),
    /// Inline boolean.
    Bool(bool),
    /// Pointer into the string store.
    StrRef(u32),
    /// Explicit null property.
    Null,
}

/// A node's property record: `(property-name id, inline value)` pairs.
pub type NodeRecord = Vec<(u16, InlineProp)>;

/// Per-label storage.
///
/// `Clone` deep-copies the records, string store and indexes — the unit
/// [`Labels`] copies on write, and only while a published snapshot
/// still shares it.
#[derive(Clone, Default)]
pub struct LabelStore {
    prop_names: Vec<String>,
    name_ids: HashMap<String, u16>,
    nodes: Vec<NodeRecord>,
    strings: Vec<String>,
    indexes: HashMap<String, BPlusTree>,
}

impl LabelStore {
    /// O(1) metadata node count.
    pub fn count(&self) -> usize {
        self.nodes.len()
    }

    fn prop_id(&mut self, name: &str) -> u16 {
        if let Some(id) = self.name_ids.get(name) {
            return *id;
        }
        let id = self.prop_names.len() as u16;
        self.prop_names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn insert(&mut self, record: Record) -> Result<usize> {
        let mut node: NodeRecord = Vec::with_capacity(record.len());
        for (name, value) in record.iter() {
            let inline = match value {
                Value::Int(i) => InlineProp::Int(*i),
                Value::Double(d) => InlineProp::Double(*d),
                Value::Bool(b) => InlineProp::Bool(*b),
                Value::Str(s) => {
                    let ptr = self.strings.len() as u32;
                    self.strings.push(s.clone());
                    InlineProp::StrRef(ptr)
                }
                Value::Null => InlineProp::Null,
                // Absent fields simply do not produce a property.
                Value::Missing => continue,
                other => {
                    return Err(GraphError::UnsupportedProperty(format!(
                        "{name}: {} (Neo4j properties are scalars)",
                        other.type_name()
                    )))
                }
            };
            let id = self.prop_id(name);
            node.push((id, inline));
        }
        let idx = self.nodes.len();
        // Maintain indexes.
        for (prop, tree) in self.indexes.iter_mut() {
            if let Some(id) = self.name_ids.get(prop) {
                if let Some((_, inline)) = node.iter().find(|(pid, _)| pid == id) {
                    let key = inline_to_value(*inline, &self.strings);
                    if !key.is_unknown() {
                        tree.insert(key, idx as u64);
                    }
                }
            }
        }
        self.nodes.push(node);
        Ok(idx)
    }

    fn create_index(&mut self, prop: &str) {
        if self.indexes.contains_key(prop) {
            return;
        }
        let mut tree = BPlusTree::new();
        if let Some(&id) = self.name_ids.get(prop) {
            for (idx, node) in self.nodes.iter().enumerate() {
                if let Some((_, inline)) = node.iter().find(|(pid, _)| *pid == id) {
                    let key = inline_to_value(*inline, &self.strings);
                    if !key.is_unknown() {
                        tree.insert(key, idx as u64);
                    }
                }
            }
        }
        self.indexes.insert(prop.to_string(), tree);
    }

    /// Whether an index exists on `prop`.
    pub fn has_index(&self, prop: &str) -> bool {
        self.indexes.contains_key(prop)
    }

    /// Indexed property names, sorted (checkpoint snapshots need a
    /// deterministic order).
    pub fn index_props(&self) -> Vec<String> {
        let mut props: Vec<String> = self.indexes.keys().cloned().collect();
        props.sort();
        props
    }

    /// Index lookup: node indices with `prop == key`.
    pub fn index_lookup(&self, prop: &str, key: &Value) -> Option<Vec<usize>> {
        let tree = self.indexes.get(prop)?;
        Some(
            tree.scan(&ScanRange::eq(key.clone()), Direction::Forward)
                .map(|(_, idx)| idx as usize)
                .collect(),
        )
    }

    /// Index range scan: node indices with `prop` in `range`.
    pub fn index_range(&self, prop: &str, range: &ScanRange) -> Option<Vec<usize>> {
        let tree = self.indexes.get(prop)?;
        Some(
            tree.scan(range, Direction::Forward)
                .map(|(_, idx)| idx as usize)
                .collect(),
        )
    }

    /// Read a single property of a node *without* materializing the rest of
    /// the record. Strings are fetched from the string store only when the
    /// property actually is a string.
    pub fn prop_value(&self, node: usize, prop: &str) -> Value {
        let Some(&id) = self.name_ids.get(prop) else {
            return Value::Missing;
        };
        match self.nodes[node].iter().find(|(pid, _)| *pid == id) {
            Some((_, inline)) => inline_to_value(*inline, &self.strings),
            None => Value::Missing,
        }
    }

    /// Materialize a whole node (touches the string store).
    pub fn materialize(&self, node: usize) -> Record {
        let mut rec = Record::with_capacity(self.nodes[node].len());
        for (pid, inline) in &self.nodes[node] {
            rec.insert(
                self.prop_names[*pid as usize].clone(),
                inline_to_value(*inline, &self.strings),
            );
        }
        rec
    }

    /// All node indices.
    pub fn node_indices(&self) -> std::ops::Range<usize> {
        0..self.nodes.len()
    }
}

fn inline_to_value(p: InlineProp, strings: &[String]) -> Value {
    match p {
        InlineProp::Int(i) => Value::Int(i),
        InlineProp::Double(d) => Value::Double(d),
        InlineProp::Bool(b) => Value::Bool(b),
        InlineProp::StrRef(ptr) => Value::Str(strings[ptr as usize].clone()),
        InlineProp::Null => Value::Null,
    }
}

/// Pre-append validation: every property must be a scalar (or absent),
/// mirroring the checks [`LabelStore::insert`] performs, so a logged
/// ingest can never fail when applied.
fn validate_node(record: &Record) -> Result<()> {
    for (name, value) in record.iter() {
        match value {
            Value::Int(_)
            | Value::Double(_)
            | Value::Bool(_)
            | Value::Str(_)
            | Value::Null
            | Value::Missing => {}
            other => {
                return Err(GraphError::UnsupportedProperty(format!(
                    "{name}: {} (Neo4j properties are scalars)",
                    other.type_name()
                )))
            }
        }
    }
    Ok(())
}

/// The graph store's durable state: labels with their node stores, in
/// a copy-on-write [`Catalog`].
#[derive(Clone, Default)]
pub struct Labels(Catalog<String, LabelStore>);

impl std::ops::Deref for Labels {
    type Target = Catalog<String, LabelStore>;
    fn deref(&self) -> &Catalog<String, LabelStore> {
        &self.0
    }
}

impl Labels {
    /// Look a label up.
    pub fn label(&self, name: &str) -> Result<&LabelStore> {
        self.get(name)
            .ok_or_else(|| GraphError::UnknownLabel(name.to_string()))
    }
}

impl StateMachine for Labels {
    type Error = GraphError;

    /// Mirrors the checks `LabelStore::insert` and `create_index`
    /// perform, so a logged op can never fail when applied.
    fn prepare(&self, op: DurableOp) -> Result<DurableOp> {
        match &op {
            DurableOp::Create { .. } => {}
            DurableOp::Ingest { records, .. } => records.iter().try_for_each(validate_node)?,
            DurableOp::Index { name, .. } => {
                self.label(name)?;
            }
        }
        Ok(op)
    }

    fn apply(&mut self, op: DurableOp) -> std::result::Result<(), DurableError> {
        match op {
            DurableOp::Create { name, .. } => {
                self.0.get_or_insert_with(name, LabelStore::default);
            }
            // Labels are created implicitly by their first ingest.
            DurableOp::Ingest { name, records, .. } => {
                let store = self.0.get_or_insert_with(name.clone(), LabelStore::default);
                for rec in records {
                    store.insert(rec).map_err(|e| {
                        DurableError::Corruption(format!("replaying {name} ingest: {e}"))
                    })?;
                }
            }
            DurableOp::Index {
                name, attribute, ..
            } => self
                .0
                .get_mut(&name)
                .ok_or_else(|| {
                    DurableError::Corruption(format!("log indexes unknown label {name}"))
                })?
                .create_index(&attribute),
        }
        Ok(())
    }

    /// Per label (sorted by name) a `Create`, its property `Index`es, and
    /// one `Ingest` of the nodes in insertion order. Replaying
    /// materialized nodes re-registers property names and re-fills the
    /// string store in the original encounter order, so the rebuilt
    /// layout is identical.
    fn snapshot_ops(&self) -> Vec<DurableOp> {
        let mut ops = Vec::new();
        for (name, store) in self.sorted() {
            ops.push(DurableOp::Create {
                namespace: String::new(),
                name: name.clone(),
                key: None,
            });
            for prop in store.index_props() {
                ops.push(DurableOp::Index {
                    namespace: String::new(),
                    name: name.clone(),
                    attribute: prop,
                });
            }
            ops.push(DurableOp::Ingest {
                namespace: String::new(),
                name: name.clone(),
                records: store
                    .node_indices()
                    .map(|idx| store.materialize(idx))
                    .collect(),
            });
        }
        ops
    }

    fn empty(&self) -> Labels {
        Labels::default()
    }
}

/// Cached parsed queries per store.
const PLAN_CACHE_CAPACITY: usize = 128;

/// The graph store: a [`DurableStore`] over [`Labels`] plus the Cypher
/// front-end. Dereferences to the shell for durability, recovery, fault
/// injection and snapshot introspection; reads pin the shell's committed
/// snapshot and never hold a lock across query execution.
pub struct GraphStore {
    shell: DurableStore<Labels>,
    /// Parsed queries keyed by Cypher text, at the catalog version of the
    /// snapshot they were parsed for (access paths are re-derived per
    /// execution, but the guard keeps the cache discipline uniform
    /// across backends).
    plan_cache: polyframe_observe::VersionedCache<String, crate::cypher::CypherQuery>,
}

impl Default for GraphStore {
    fn default() -> Self {
        GraphStore::new()
    }
}

impl std::ops::Deref for GraphStore {
    type Target = DurableStore<Labels>;
    fn deref(&self) -> &DurableStore<Labels> {
        &self.shell
    }
}

impl GraphStore {
    /// Empty store.
    pub fn new() -> GraphStore {
        GraphStore {
            shell: DurableStore::new("graphstore", Labels::default()),
            plan_cache: polyframe_observe::VersionedCache::new(PLAN_CACHE_CAPACITY),
        }
    }

    /// Cache-aware parse: probe the cache at `version` (the pinned
    /// snapshot's), parse and insert on a miss. Returns the shared AST
    /// and whether the lookup hit. Shared by `query`, `query_traced` and
    /// `explain`.
    fn parsed(
        &self,
        cypher: &str,
        version: u64,
    ) -> Result<(std::sync::Arc<crate::cypher::CypherQuery>, bool)> {
        if let Some(ast) = self.plan_cache.get(&cypher.to_string(), version) {
            return Ok((ast, true));
        }
        let ast = crate::cypher::parse(cypher)?;
        Ok((
            self.plan_cache.insert(cypher.to_string(), version, ast),
            false,
        ))
    }

    /// Plan-cache hit/miss tallies since construction.
    pub fn plan_cache_stats(&self) -> polyframe_observe::CacheStats {
        self.plan_cache.stats()
    }

    /// Create an (empty) label.
    pub fn create_label(&self, label: &str) -> Result<()> {
        self.commit(DurableOp::Create {
            namespace: String::new(),
            name: label.to_string(),
            key: None,
        })
    }

    /// Insert nodes under a label (created implicitly when absent).
    pub fn insert_nodes(
        &self,
        label: &str,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<usize> {
        let records: Vec<Record> = records.into_iter().collect();
        let n = records.len();
        self.commit(DurableOp::Ingest {
            namespace: String::new(),
            name: label.to_string(),
            records,
        })?;
        Ok(n)
    }

    /// Create a property index on a label.
    pub fn create_index(&self, label: &str, prop: &str) -> Result<()> {
        self.commit(DurableOp::Index {
            namespace: String::new(),
            name: label.to_string(),
            attribute: prop.to_string(),
        })
    }

    /// O(1) metadata count for a label.
    pub fn count_nodes(&self, label: &str) -> Result<usize> {
        Ok(self.pin()?.label(label)?.count())
    }

    /// Execute a Cypher query.
    pub fn query(&self, cypher: &str) -> Result<Vec<Value>> {
        let map = self.pin_query()?;
        let (ast, _) = self.parsed(cypher, map.version())?;
        crate::cypher::execute(&ast, &map)
    }

    /// Like [`GraphStore::query`], but also reports where the time went as
    /// an `execute` span with `parse`/`plan`/`exec` children. The `plan`
    /// child carries the chosen access path, whether an index was used,
    /// and whether the parsed query came from the cache.
    pub fn query_traced(&self, cypher: &str) -> Result<(Vec<Value>, polyframe_observe::Span)> {
        use polyframe_observe::{Span, SpanTimer};
        let map = self.pin_query()?;
        let started = std::time::Instant::now();

        let mut parse_t = SpanTimer::start("parse");
        let (ast, hit) = self.parsed(cypher, map.version())?;
        parse_t
            .span_mut()
            .set_metric("query_len", cypher.len() as i64);
        let parse_span = parse_t.finish();

        let mut plan_t = SpanTimer::start("plan");
        let access_path = crate::cypher::explain(&ast, &map)?;
        let index_used =
            access_path.contains("NodeIndexSeek") || access_path.contains("NodeIndexRange");
        plan_t
            .span_mut()
            .set_metric("index_used", i64::from(index_used));
        plan_t.span_mut().set_note("access_path", &access_path);
        plan_t
            .span_mut()
            .set_note("cache", if hit { "hit" } else { "miss" });
        plan_t.span_mut().set_metric("cache_hit", i64::from(hit));
        plan_t.span_mut().set_metric("cache_lookup", 1);
        let plan_span = plan_t.finish();

        let mut exec_t = SpanTimer::start("exec");
        let rows = crate::cypher::execute(&ast, &map)?;
        exec_t.span_mut().set_metric("rows_out", rows.len() as i64);
        let exec_span = exec_t.finish();

        let span = Span::new("execute")
            .with_duration(started.elapsed())
            .with_child(parse_span)
            .with_child(plan_span)
            .with_child(exec_span);
        Ok((rows, span))
    }

    /// EXPLAIN-style description of the chosen access path.
    pub fn explain(&self, cypher: &str) -> Result<String> {
        let map = self.pin()?;
        let (ast, _) = self.parsed(cypher, map.version())?;
        crate::cypher::explain(&ast, &map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    #[test]
    fn insert_and_materialize() {
        let g = GraphStore::new();
        g.insert_nodes(
            "Users",
            vec![
                record! {"id" => 1i64, "name" => "ann"},
                record! {"id" => 2i64, "flag" => true, "score" => 1.5},
            ],
        )
        .unwrap();
        assert_eq!(g.count_nodes("Users").unwrap(), 2);
        let map = g.pin().unwrap();
        let store = map.get("Users").unwrap();
        let rec = store.materialize(0);
        assert_eq!(rec.get_or_missing("name"), Value::str("ann"));
        assert_eq!(store.prop_value(1, "score"), Value::Double(1.5));
        assert_eq!(store.prop_value(1, "name"), Value::Missing);
    }

    #[test]
    fn strings_live_out_of_line() {
        let g = GraphStore::new();
        g.insert_nodes("L", vec![record! {"a" => 1i64, "s" => "hello"}])
            .unwrap();
        let map = g.pin().unwrap();
        let store = map.get("L").unwrap();
        assert_eq!(store.strings.len(), 1);
        assert!(matches!(
            store.nodes[0]
                .iter()
                .find(|(p, _)| *p == store.name_ids["s"]),
            Some((_, InlineProp::StrRef(0)))
        ));
    }

    #[test]
    fn nested_properties_rejected() {
        let g = GraphStore::new();
        let err = g
            .insert_nodes("L", vec![record! {"x" => Value::Array(vec![])}])
            .unwrap_err();
        assert!(matches!(err, GraphError::UnsupportedProperty(_)));
    }

    #[test]
    fn index_lookup_skips_unknown() {
        let g = GraphStore::new();
        g.insert_nodes(
            "L",
            (0..10i64).map(|i| {
                if i % 2 == 0 {
                    record! {"a" => i}
                } else {
                    record! {"b" => i}
                }
            }),
        )
        .unwrap();
        g.create_index("L", "a").unwrap();
        let map = g.pin().unwrap();
        let store = map.get("L").unwrap();
        assert_eq!(store.index_lookup("a", &Value::Int(4)).unwrap(), vec![4]);
        assert!(store.index_lookup("a", &Value::Int(5)).unwrap().is_empty());
        assert!(store.index_lookup("zzz", &Value::Int(1)).is_none());
    }

    #[test]
    fn unknown_label_errors() {
        let g = GraphStore::new();
        assert!(g.count_nodes("nope").is_err());
        assert!(g.create_index("nope", "a").is_err());
    }
}
