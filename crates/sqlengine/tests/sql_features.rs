//! Broader SQL/SQL++ engine coverage beyond the PolyFrame-generated query
//! shapes: DISTINCT, LEFT JOIN, arithmetic projections, string functions,
//! three-valued WHERE semantics, LIMIT interactions and error paths.

use polyframe_datamodel::{record, Value};
use polyframe_sqlengine::{Dialect, Engine, EngineConfig, EngineError};

fn engine() -> Engine {
    let e = Engine::new(EngineConfig::postgres());
    e.create_dataset("public", "t", Some("id")).unwrap();
    e.load(
        "public",
        "t",
        (0..20i64).map(|i| {
            let mut r = record! {
                "id" => i,
                "grp" => i % 3,
                "name" => format!("n{}", i % 4),
            };
            if i % 5 != 0 {
                r.insert("opt", i * 10);
            }
            r
        }),
    )
    .unwrap();
    e
}

#[test]
fn distinct_eliminates_duplicates() {
    let e = engine();
    let rows = e
        .query("SELECT DISTINCT grp FROM (SELECT * FROM t) x")
        .unwrap();
    assert_eq!(rows.len(), 3);
}

#[test]
fn left_join_keeps_unmatched_rows() {
    let e = engine();
    e.create_dataset("public", "small", Some("id")).unwrap();
    e.load(
        "public",
        "small",
        (0..5i64).map(|i| record! {"id" => i, "tag" => format!("tag{i}")}),
    )
    .unwrap();
    let rows = e
        .query("SELECT COUNT(*) FROM (SELECT l.*, r.* FROM (SELECT * FROM t) l LEFT JOIN (SELECT * FROM small) r ON l.id = r.id) x")
        .unwrap();
    assert_eq!(rows[0].get_path("count"), Value::Int(20));
}

#[test]
fn arithmetic_in_projection_and_where() {
    let e = engine();
    let rows = e
        .query("SELECT x.id * 2 + 1 AS odd FROM (SELECT * FROM t) x WHERE x.id < 3")
        .unwrap();
    let odds: Vec<i64> = rows
        .iter()
        .map(|r| r.get_path("odd").as_i64().unwrap())
        .collect();
    assert_eq!(odds, vec![1, 3, 5]);

    let rows = e
        .query("SELECT COUNT(*) FROM (SELECT t.* FROM (SELECT * FROM t) t WHERE t.id % 2 = 0) x")
        .unwrap();
    assert_eq!(rows[0].get_path("count"), Value::Int(10));
}

#[test]
fn string_functions() {
    let e = engine();
    let rows = e
        .query("SELECT UPPER(\"name\") AS u, LOWER(\"name\") AS l FROM (SELECT * FROM t) x LIMIT 1")
        .unwrap();
    assert_eq!(rows[0].get_path("u"), Value::str("N0"));
    assert_eq!(rows[0].get_path("l"), Value::str("n0"));
}

#[test]
fn where_three_valued_logic_drops_unknowns() {
    let e = engine();
    // `opt` is absent on multiples of 5: comparisons are unknown -> dropped.
    let rows = e
        .query("SELECT COUNT(*) FROM (SELECT t.* FROM (SELECT * FROM t) t WHERE t.\"opt\" >= 0) x")
        .unwrap();
    assert_eq!(rows[0].get_path("count"), Value::Int(16));
    // IS NULL picks up exactly the absent ones.
    let rows = e
        .query(
            "SELECT COUNT(*) FROM (SELECT t.* FROM (SELECT * FROM t) t WHERE t.\"opt\" IS NULL) x",
        )
        .unwrap();
    assert_eq!(rows[0].get_path("count"), Value::Int(4));
    // OR with one unknown side still passes when the other side is true.
    let rows = e
        .query("SELECT COUNT(*) FROM (SELECT t.* FROM (SELECT * FROM t) t WHERE t.\"opt\" >= 0 OR t.grp = 0) x")
        .unwrap();
    // 16 rows with known `opt`, plus the unknown-opt rows {0,5,10,15}
    // whose grp is 0 — that is ids 0 and 15 — for 18 total.
    assert_eq!(rows[0].get_path("count"), Value::Int(18));
}

#[test]
fn group_by_with_multiple_aggregates() {
    let e = engine();
    let rows = e
        .query(
            "SELECT grp, COUNT(grp) AS n, MAX(\"id\") AS mx, AVG(\"id\") AS avg FROM (SELECT * FROM t) x GROUP BY grp",
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    let g0 = rows
        .iter()
        .find(|r| r.get_path("grp") == Value::Int(0))
        .unwrap();
    assert_eq!(g0.get_path("n"), Value::Int(7));
    assert_eq!(g0.get_path("mx"), Value::Int(18));
}

#[test]
fn sum_and_stddev() {
    let e = engine();
    let rows = e
        .query("SELECT SUM(\"id\") AS s, STDDEV(\"id\") AS sd FROM (SELECT * FROM t) x")
        .unwrap();
    assert_eq!(rows[0].get_path("s"), Value::Int(190));
    let sd = rows[0].get_path("sd").as_f64().unwrap();
    // Population stddev of 0..19.
    let expected = ((0..20).map(|i| (i as f64 - 9.5).powi(2)).sum::<f64>() / 20.0).sqrt();
    assert!((sd - expected).abs() < 1e-9);
}

#[test]
fn limit_zero_and_overlarge() {
    let e = engine();
    assert!(e
        .query("SELECT * FROM (SELECT * FROM t) x LIMIT 0")
        .unwrap()
        .is_empty());
    assert_eq!(
        e.query("SELECT * FROM (SELECT * FROM t) x LIMIT 999")
            .unwrap()
            .len(),
        20
    );
}

#[test]
fn order_by_multiple_keys() {
    let e = engine();
    let rows = e
        .query("SELECT t.* FROM (SELECT * FROM t) t ORDER BY t.grp ASC, t.id DESC LIMIT 3")
        .unwrap();
    let pairs: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| {
            (
                r.get_path("grp").as_i64().unwrap(),
                r.get_path("id").as_i64().unwrap(),
            )
        })
        .collect();
    assert_eq!(pairs, vec![(0, 18), (0, 15), (0, 12)]);
}

#[test]
fn empty_dataset_aggregates() {
    let e = Engine::new(EngineConfig::postgres());
    e.create_dataset("public", "empty", None).unwrap();
    let rows = e
        .query("SELECT COUNT(*) FROM (SELECT * FROM empty) x")
        .unwrap();
    assert_eq!(rows[0].get_path("count"), Value::Int(0));
    let rows = e
        .query("SELECT MAX(\"id\") FROM (SELECT * FROM empty) x")
        .unwrap();
    assert_eq!(rows[0].get_path("max"), Value::Null);
}

#[test]
fn error_paths() {
    let e = engine();
    assert!(matches!(
        e.query("SELECT * FROM ghosts"),
        Err(EngineError::UnknownDataset { .. })
    ));
    assert!(matches!(
        e.query("SELECT FROM t"),
        Err(EngineError::Parse { .. })
    ));
    assert!(matches!(
        e.query("SELECT NOSUCHFN(x) FROM t"),
        Err(EngineError::Plan { .. })
    ));
    // SQL++-only syntax rejected in SQL dialect.
    assert!(e.query("SELECT VALUE t FROM t t").is_err());
}

#[test]
fn sqlpp_dialect_distinctions() {
    let e = Engine::new(EngineConfig::asterixdb());
    assert_eq!(e.config().dialect, Dialect::SqlPlusPlus);
    e.create_dataset("Default", "d", None).unwrap();
    e.load(
        "Default",
        "d",
        vec![
            record! {"a" => 1i64, "b" => Value::Null},
            record! {"a" => 2i64}, // b missing
        ],
    )
    .unwrap();
    // IS MISSING vs IS NULL vs IS UNKNOWN all differ in SQL++.
    let count = |q: &str| -> i64 { e.query(q).unwrap()[0].as_i64().unwrap() };
    assert_eq!(
        count("SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM d t WHERE t.b IS MISSING) t"),
        1
    );
    assert_eq!(
        count("SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM d t WHERE t.b IS UNKNOWN) t"),
        2
    );
    // Double quotes are strings in SQL++.
    assert_eq!(
        count("SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM d t WHERE \"x\" = \"x\") t"),
        2
    );
}

#[test]
fn nested_field_navigation() {
    let e = Engine::new(EngineConfig::postgres());
    e.create_dataset("public", "nested", None).unwrap();
    e.load(
        "public",
        "nested",
        vec![record! {
            "id" => 1i64,
            "address" => Value::Obj(record! {"city" => "Irvine"}),
        }],
    )
    .unwrap();
    let rows = e
        .query("SELECT t.* FROM (SELECT * FROM nested) t WHERE address.city = 'Irvine'")
        .unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn index_and_seqscan_agree() {
    // The planner's index path must return exactly what a forced scan
    // does; the reference dataset has no index to choose.
    let with_idx = engine();
    with_idx.create_index("public", "t", "grp").unwrap();
    let without = Engine::new(EngineConfig::postgres());
    without.create_dataset("public", "t", None).unwrap();
    without
        .load(
            "public",
            "t",
            (0..20i64).map(|i| {
                let mut r = record! {"id" => i, "grp" => i % 3, "name" => format!("n{}", i % 4)};
                if i % 5 != 0 {
                    r.insert("opt", i * 10);
                }
                r
            }),
        )
        .unwrap();
    for q in [
        "SELECT COUNT(*) FROM (SELECT t.* FROM (SELECT * FROM t) t WHERE t.grp = 1) x",
        "SELECT t.* FROM (SELECT * FROM t) t WHERE t.grp = 2 ORDER BY t.id ASC LIMIT 4",
    ] {
        assert_eq!(with_idx.query(q).unwrap(), without.query(q).unwrap(), "{q}");
    }
}
