#![warn(missing_docs)]

//! # polyframe-datamodel
//!
//! The shared data model for every PolyFrame substrate. It deliberately
//! mirrors the AsterixDB Data Model (ADM): a superset of JSON where records
//! are *open* (may carry fields beyond any declared type) and where the
//! absence of a field (`Missing`) is distinct from an explicit `null`.
//!
//! The crate provides:
//!
//! * [`Value`] — the dynamically typed datum used everywhere,
//! * [`Record`] — an ordered field map (insertion order is preserved so that
//!   query output matches the order a projection listed its attributes),
//! * [`TriBool`] — SQL-style three-valued logic used by all query engines,
//! * a hand-written JSON parser ([`parse_json`], [`parse_json_stream`]) and
//!   printer so that `Missing`/`Null` round-tripping stays under our control,
//! * total ordering ([`cmp_total`]) and comparison semantics shared by index
//!   keys and `ORDER BY` implementations,
//! * the one sort kernel every store runs `ORDER BY` through ([`TopK`]: a
//!   bounded top-k heap, or a stable sort when no limit exists, plus
//!   [`merge_sorted`] for sorted parts),
//! * the one numeric `SUM` rule every store folds through ([`NumericSum`]).

pub mod compare;
pub mod error;
pub mod json;
pub mod record;
pub mod sum;
#[deny(clippy::unwrap_used)]
pub mod topk;
pub mod value;

pub use compare::{cmp_total, sql_compare, sql_eq, TriBool};
pub use error::{DataModelError, Result};
pub use json::{parse_json, parse_json_stream, to_json_pretty, to_json_string};
pub use record::Record;
pub use sum::NumericSum;
pub use topk::{merge_sorted, SortKey, TopK};
pub use value::Value;
