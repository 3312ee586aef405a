//! End-to-end: the 13 DataFrame benchmark expressions (paper Table III)
//! executed through PolyFrame against all four substrates, asserting that
//! every backend returns the same answers.

use polyframe::prelude::*;
use polyframe_datamodel::Value;
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_sqlengine::{Engine, EngineConfig};
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::sync::Arc;

const N: usize = 2_000;
const NS: &str = "Test";
const DS: &str = "wisconsin";
const DS2: &str = "wisconsin2";

/// Indexes the paper's benchmark creates on every system.
const INDEXED: [&str; 5] = [
    "unique1",
    "ten",
    "onePercent",
    "tenPercent",
    "oddOnePercent",
];

fn frames() -> Vec<AFrame> {
    let records = generate(&WisconsinConfig::new(N));

    let asterix = Arc::new(Engine::new(EngineConfig::asterixdb()));
    asterix.create_dataset(NS, DS, Some("unique2")).unwrap();
    asterix.create_dataset(NS, DS2, Some("unique2")).unwrap();
    asterix.load(NS, DS, records.clone()).unwrap();
    asterix.load(NS, DS2, records.clone()).unwrap();
    for attr in INDEXED {
        asterix.create_index(NS, DS, attr).unwrap();
        asterix.create_index(NS, DS2, attr).unwrap();
    }

    let postgres = Arc::new(Engine::new(EngineConfig::postgres()));
    postgres.create_dataset(NS, DS, Some("unique2")).unwrap();
    postgres.create_dataset(NS, DS2, Some("unique2")).unwrap();
    postgres.load(NS, DS, records.clone()).unwrap();
    postgres.load(NS, DS2, records.clone()).unwrap();
    for attr in INDEXED {
        postgres.create_index(NS, DS, attr).unwrap();
        postgres.create_index(NS, DS2, attr).unwrap();
    }

    let mongo = Arc::new(DocStore::new());
    let coll = format!("{NS}.{DS}");
    let coll2 = format!("{NS}.{DS2}");
    mongo.create_collection(&coll).unwrap();
    mongo.create_collection(&coll2).unwrap();
    mongo.insert_many(&coll, records.clone()).unwrap();
    mongo.insert_many(&coll2, records.clone()).unwrap();
    for attr in INDEXED {
        mongo.create_index(&coll, attr).unwrap();
        mongo.create_index(&coll2, attr).unwrap();
    }

    let neo = Arc::new(GraphStore::new());
    neo.insert_nodes(DS, records.clone()).unwrap();
    neo.insert_nodes(DS2, records).unwrap();
    for attr in INDEXED {
        neo.create_index(DS, attr).unwrap();
        neo.create_index(DS2, attr).unwrap();
    }

    vec![
        AFrame::new(NS, DS, Arc::new(AsterixConnector::new(asterix))).unwrap(),
        AFrame::new(NS, DS, Arc::new(PostgresConnector::new(postgres))).unwrap(),
        AFrame::new(NS, DS, Arc::new(MongoConnector::new(mongo))).unwrap(),
        AFrame::new(NS, DS, Arc::new(Neo4jConnector::new(neo))).unwrap(),
    ]
}

fn second_frame(af: &AFrame) -> AFrame {
    // A frame over the copy dataset, sharing the same connector.
    af.sibling(NS, DS2).unwrap()
}

#[test]
fn expr1_total_count() {
    for af in frames() {
        assert_eq!(af.len().unwrap(), N, "{}", af.backend());
    }
}

#[test]
fn expr2_project_head() {
    for af in frames() {
        let res = af.select(&["two", "four"]).unwrap().head(5).unwrap();
        assert_eq!(res.len(), 5, "{}", af.backend());
        for row in res.rows() {
            assert!(row.get_path("two").as_i64().is_some(), "{}", af.backend());
            assert!(row.get_path("four").as_i64().is_some());
            assert!(row.get_path("unique1").is_missing(), "{}", af.backend());
        }
    }
}

#[test]
fn expr3_filter_count() {
    // unique1 % 10 == 3 && unique1 % 5 == 1 && unique1 % 2 == 1
    // => unique1 % 10 == 3 and unique1 % 5 == 1 -> impossible together?
    // 3 % 5 = 3, so pick consistent values: ten=3, twentyPercent=3, two=1.
    let expected = (0..N as i64)
        .filter(|u| u % 10 == 3 && u % 5 == 3 && u % 2 == 1)
        .count();
    for af in frames() {
        let masked = af
            .mask(&(col("ten").eq(3) & col("twentyPercent").eq(3) & col("two").eq(1)))
            .unwrap();
        assert_eq!(masked.len().unwrap(), expected, "{}", af.backend());
    }
}

#[test]
fn expr4_group_by_count() {
    for af in frames() {
        let grouped = af.groupby("oddOnePercent").agg(AggFunc::Count).unwrap();
        let rows = grouped.collect().unwrap();
        assert_eq!(rows.len(), 100, "{}", af.backend());
        let total: i64 = rows
            .rows()
            .iter()
            .map(|r| r.get_path("cnt").as_i64().unwrap())
            .sum();
        assert_eq!(total, N as i64, "{}", af.backend());
    }
}

#[test]
fn expr5_map_upper_head() {
    for af in frames() {
        let res = af
            .col("stringu1")
            .unwrap()
            .map(MapFunc::Upper)
            .unwrap()
            .head(5)
            .unwrap();
        assert_eq!(res.len(), 5, "{}", af.backend());
        for row in res.rows() {
            let s = match row {
                Value::Obj(rec) => rec.values().next().unwrap().as_str().unwrap().to_string(),
                bare => bare.as_str().unwrap().to_string(),
            };
            assert!(s.ends_with("XXX"), "{}: {s}", af.backend());
            assert_eq!(s.len(), 52);
        }
    }
}

#[test]
fn expr6_and_7_max_min() {
    for af in frames() {
        let series = af.col("unique1").unwrap();
        assert_eq!(
            series.max().unwrap(),
            Value::Int(N as i64 - 1),
            "{}",
            af.backend()
        );
        assert_eq!(series.min().unwrap(), Value::Int(0), "{}", af.backend());
    }
}

#[test]
fn expr8_group_by_max() {
    for af in frames() {
        let res = af
            .groupby("twenty")
            .agg_on("four", AggFunc::Max)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(res.len(), 20, "{}", af.backend());
        for row in res.rows() {
            let twenty = row.get_path("twenty").as_i64().unwrap();
            // four = unique1 % 4; twenty = unique1 % 20 fixes unique1 mod 4.
            assert_eq!(
                row.get_path("max_four").as_i64().unwrap(),
                twenty % 4,
                "{}",
                af.backend()
            );
        }
    }
}

#[test]
fn expr9_sort_desc_head() {
    for af in frames() {
        let res = af.sort_values("unique1", false).unwrap().head(5).unwrap();
        let got: Vec<i64> = res
            .rows()
            .iter()
            .map(|r| r.get_path("unique1").as_i64().unwrap())
            .collect();
        let n = N as i64;
        assert_eq!(
            got,
            vec![n - 1, n - 2, n - 3, n - 4, n - 5],
            "{}",
            af.backend()
        );
    }
}

#[test]
fn expr10_selection_head() {
    for af in frames() {
        let res = af.mask(&col("ten").eq(4)).unwrap().head(5).unwrap();
        assert_eq!(res.len(), 5, "{}", af.backend());
        for row in res.rows() {
            assert_eq!(row.get_path("ten"), Value::Int(4), "{}", af.backend());
        }
    }
}

#[test]
fn expr11_range_count() {
    let (x, y) = (10i64, 25i64);
    let expected = (0..N as i64)
        .filter(|u| {
            let p = u % 100;
            p >= x && p <= y
        })
        .count();
    for af in frames() {
        let masked = af
            .mask(&(col("onePercent").ge(x) & col("onePercent").le(y)))
            .unwrap();
        assert_eq!(masked.len().unwrap(), expected, "{}", af.backend());
    }
}

#[test]
fn expr12_join_count() {
    for af in frames() {
        let right = second_frame(&af);
        let joined = af.merge(&right, "unique1").unwrap();
        assert_eq!(joined.len().unwrap(), N, "{}", af.backend());
    }
}

#[test]
fn expr13_isna_count() {
    let expected = (0..N as i64).filter(|u| u % 10 == 0).count();
    for af in frames() {
        let masked = af.mask(&col("tenPercent").is_na()).unwrap();
        assert_eq!(masked.len().unwrap(), expected, "{}", af.backend());
    }
}

#[test]
fn describe_composes_generic_rule() {
    for af in frames() {
        let res = af.describe(&["unique1"]).unwrap();
        assert_eq!(res.len(), 1, "{}", af.backend());
        let row = &res.rows()[0];
        assert_eq!(row.get_path("count_unique1"), Value::Int(N as i64));
        assert_eq!(row.get_path("min_unique1"), Value::Int(0));
        assert_eq!(row.get_path("max_unique1"), Value::Int(N as i64 - 1));
        let avg = row.get_path("avg_unique1").as_f64().unwrap();
        assert!(
            (avg - (N as f64 - 1.0) / 2.0).abs() < 1e-6,
            "{}",
            af.backend()
        );
        assert!(row.get_path("std_unique1").as_f64().unwrap() > 0.0);
    }
}

#[test]
fn get_dummies_one_hot() {
    for af in frames() {
        let dummies = af.get_dummies("two").unwrap().head(4).unwrap();
        assert_eq!(dummies.len(), 4, "{}", af.backend());
        for row in dummies.rows() {
            let a = row.get_path("two_0");
            let b = row.get_path("two_1");
            let as_bool = |v: &Value| match v {
                Value::Bool(x) => *x,
                other => other.as_i64() == Some(1),
            };
            assert!(as_bool(&a) ^ as_bool(&b), "{}: {row:?}", af.backend());
        }
    }
}

#[test]
fn queries_are_lazy_until_action() {
    for af in frames() {
        // A deep chain of transformations touches no data...
        let chained = af
            .mask(&col("ten").eq(1))
            .unwrap()
            .select(&["unique1", "two"])
            .unwrap()
            .sort_values("unique1", true)
            .unwrap();
        // ...and only carries a query string.
        assert!(!chained.query().is_empty());
    }
}

/// PolyFrame's state is a query string, so an n-operation chain is an
/// n-level subquery onion. The backend's optimizer must flatten it: a
/// `mask` chain 64 deep compiles to one filter over one scan.
#[test]
fn deep_mask_chain_compiles_to_one_scan() {
    let tr = polyframe::Translator::new(RuleSet::builtin(Language::SqlPlusPlus));
    let mut query = tr.records(NS, DS).unwrap();
    for i in 0..64 {
        query = tr.filter(&query, &col("ten").ge(i % 10)).unwrap();
    }
    let engine = Engine::new(EngineConfig::asterixdb());
    engine.create_dataset(NS, DS, Some("ten")).unwrap();
    let plan = engine.compile_to_logical(&query).unwrap().display();
    let lines: Vec<&str> = plan.lines().collect();
    assert_eq!(lines.len(), 2, "plan was: {plan}");
    assert!(lines[0].starts_with("Filter"), "plan was: {plan}");
    assert_eq!(lines[1].trim(), "Scan Test.wisconsin", "plan was: {plan}");
}

#[test]
fn value_counts_generic_rule() {
    for af in frames() {
        let vc = af.value_counts("two").unwrap().collect().unwrap();
        assert_eq!(vc.len(), 2, "{}", af.backend());
        // Most frequent first; with N even the two counts tie at N/2, so
        // just check the counts are right and ordered non-increasingly.
        let counts: Vec<i64> = vc
            .rows()
            .iter()
            .map(|r| r.get_path("cnt").as_i64().unwrap())
            .collect();
        assert_eq!(counts.iter().sum::<i64>(), N as i64);
        assert!(counts[0] >= counts[1], "{}", af.backend());
        let head = af.value_counts("four").unwrap().head(2).unwrap();
        assert_eq!(head.len(), 2, "{}", af.backend());
    }
}

/// The four personalities over `records`, a dataset with primary key `id`.
fn frames_over(records: Vec<polyframe_datamodel::Record>) -> Vec<AFrame> {
    let sql = |config: EngineConfig| {
        let engine = Arc::new(Engine::new(config));
        engine.create_dataset(NS, DS, Some("id")).unwrap();
        engine.load(NS, DS, records.clone()).unwrap();
        engine
    };
    let mongo = Arc::new(DocStore::new());
    let coll = format!("{NS}.{DS}");
    mongo.create_collection(&coll).unwrap();
    mongo.insert_many(&coll, records.clone()).unwrap();
    let neo = Arc::new(GraphStore::new());
    neo.insert_nodes(DS, records.clone()).unwrap();
    vec![
        AFrame::new(
            NS,
            DS,
            Arc::new(AsterixConnector::new(sql(EngineConfig::asterixdb()))),
        )
        .unwrap(),
        AFrame::new(
            NS,
            DS,
            Arc::new(PostgresConnector::new(sql(EngineConfig::postgres()))),
        )
        .unwrap(),
        AFrame::new(NS, DS, Arc::new(MongoConnector::new(mongo))).unwrap(),
        AFrame::new(NS, DS, Arc::new(Neo4jConnector::new(neo))).unwrap(),
    ]
}

/// Rule substitution never rewrites a user literal: a string that spells
/// a rule variable (`$left`, `$subquery`, `$projection`) reaches the
/// backend verbatim, so `mask(eq)` finds exactly the record holding it.
#[test]
fn literals_spelling_rule_variables_stay_literal() {
    let texts = ["$left", "$right", "$subquery", "$projection", "plain"];
    let records = texts
        .iter()
        .enumerate()
        .map(|(i, s)| polyframe_datamodel::record! {"id" => i as i64, "s" => *s})
        .collect();
    for af in frames_over(records) {
        for (i, s) in texts.iter().enumerate() {
            let hit = af.mask(&col("s").eq(*s)).unwrap();
            let rows = hit.collect().unwrap();
            assert_eq!(rows.len(), 1, "{} {s}: {}", af.backend(), hit.query());
            assert_eq!(
                rows.rows()[0].get_path("id").as_i64(),
                Some(i as i64),
                "{} {s}",
                af.backend()
            );
        }
    }
}
