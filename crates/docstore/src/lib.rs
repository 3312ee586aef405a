#![warn(missing_docs)]

//! # polyframe-docstore
//!
//! A MongoDB-like document store executing **aggregation pipelines** — the
//! MongoDB substrate of the PolyFrame reproduction.
//!
//! Faithfulness notes (each backed by the paper's analysis):
//!
//! * Collections expose a metadata-backed [`DocStore::count_documents`]
//!   (O(1)), but an aggregation pipeline **cannot** use it — `$match{}` +
//!   `$count` runs a collection scan, which is why PolyFrame-on-MongoDB
//!   loses expression 1 despite MongoDB having the same metadata Neo4j has.
//! * `$sort` + `$limit` over an indexed field becomes a forward *or
//!   backward* index scan (expression 9).
//! * Secondary indexes skip missing/null keys (expression 13 cannot use an
//!   index), and `$expr` comparisons use the BSON *total* order, so the
//!   paper's `{"$lt": ["$tenPercent", null]}` idiom selects exactly the
//!   documents where the field is absent.
//! * `$lookup` joins are refused on sharded collections (the documented
//!   MongoDB restriction that excluded expression 12 from the paper's
//!   multi-node runs) — see `polyframe-cluster`.
//! * Documents receive an auto-generated `_id` on insert, and inclusion
//!   projections keep `_id` unless it is explicitly excluded, exactly like
//!   MongoDB (the rewrite rules rely on this: `{"$project": {"_id": 0}}` is
//!   appended last so earlier stages can still use `_id` indexes).

pub mod distributed;
pub mod error;
pub mod pipeline;
pub mod store;

pub use error::{DocError, Result};
pub use pipeline::{parse_pipeline, Stage};
pub use store::{assign_ids, DocStore};
