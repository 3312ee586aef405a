//! `ORDER BY … LIMIT k` through sharded clusters: shards run the bounded
//! top-k, the coordinator merges at most `k` rows per shard, and the
//! output is byte-identical to one node holding the same rows.
//!
//! Shards break ties in their own scan order and the coordinator in
//! shard order, so the single-node reference stores the rows in exactly
//! that order: grouped by owning shard, scan order within each shard.
//! With `ten`'s 300-row tie groups (`N = 3 000`), `k` lands on and
//! crosses group boundaries.

use polyframe_cluster::{shard_for, MongoCluster, ShardMap, SqlCluster};
use polyframe_datamodel::{to_json_string, Record, Value};
use polyframe_docstore::DocStore;
use polyframe_sqlengine::{Dialect, Engine, EngineConfig};
use polyframe_wisconsin::{generate, WisconsinConfig};

const N: usize = 3_000;
const NS: &str = "Bench";
const DS: &str = "wisconsin";
const KS: [usize; 7] = [0, 1, 299, 300, 301, N, N + 7];

fn ndjson(rows: &[Value]) -> String {
    rows.iter().map(|r| to_json_string(r) + "\n").collect()
}

/// `records`, stably grouped by the shard `owner` assigns them.
fn in_shard_order(records: &[Record], owner: impl Fn(&Record) -> usize) -> Vec<Record> {
    let mut keyed: Vec<(usize, &Record)> = records.iter().map(|r| (owner(r), r)).collect();
    keyed.sort_by_key(|(shard, _)| *shard);
    keyed.into_iter().map(|(_, r)| r.clone()).collect()
}

fn sql_queries(dialect: Dialect) -> Vec<String> {
    let (rows, projected, attr): (&str, &str, fn(&str) -> String) = match dialect {
        Dialect::SqlPlusPlus => (
            "SELECT VALUE t FROM (SELECT VALUE t FROM Bench.wisconsin t) t",
            "SELECT t.ten, t.unique1 FROM (SELECT VALUE t FROM Bench.wisconsin t) t",
            |a| format!("t.{a}"),
        ),
        Dialect::Sql => (
            "SELECT t.* FROM (SELECT * FROM Bench.wisconsin) t",
            "SELECT t.\"ten\", t.\"unique1\" FROM (SELECT * FROM Bench.wisconsin) t",
            |a| format!("t.\"{a}\""),
        ),
    };
    let (ten, unique1) = (attr("ten"), attr("unique1"));
    let mut out = Vec::new();
    for k in KS {
        for order in [
            ten.clone(),
            format!("{ten} DESC"),
            format!("{ten} DESC, {unique1}"),
            attr("tenPercent"),
        ] {
            out.push(format!("{rows} ORDER BY {order} LIMIT {k}"));
        }
        out.push(format!("{projected} ORDER BY {ten} DESC LIMIT {k}"));
    }
    out
}

#[test]
fn sql_cluster_topk_matches_single_node() {
    let records = generate(&WisconsinConfig::new(N));
    for config in [EngineConfig::asterixdb, EngineConfig::greenplum] {
        let queries = sql_queries(config().dialect);
        for shards in 1..=4 {
            let cluster = SqlCluster::new(shards, config(), "unique2");
            cluster.create_dataset(NS, DS, Some("unique2")).unwrap();
            cluster.load(NS, DS, records.clone()).unwrap();

            let routing = ShardMap::new(shards);
            let single = Engine::new(config());
            single.create_dataset(NS, DS, Some("unique2")).unwrap();
            let ordered =
                in_shard_order(&records, |r| routing.shard_of(&r.get_or_missing("unique2")));
            single.load(NS, DS, ordered).unwrap();

            for sql in &queries {
                assert_eq!(
                    ndjson(&cluster.query(sql).unwrap()),
                    ndjson(&single.query(sql).unwrap()),
                    "{shards} shards diverged from one node: {sql}"
                );
            }
        }
    }
}

#[test]
fn mongo_cluster_topk_matches_single_node() {
    // Explicit `_id`s, so the cluster routes by a known key and both
    // sides store identical documents.
    let records: Vec<Record> = generate(&WisconsinConfig::new(N))
        .into_iter()
        .enumerate()
        .map(|(i, rec)| {
            let mut doc = Record::with_capacity(rec.len() + 1);
            doc.insert("_id", i as i64);
            for (k, v) in rec.iter() {
                doc.insert(k.to_string(), v.clone());
            }
            doc
        })
        .collect();
    let coll = format!("{NS}.{DS}");
    for shards in 1..=4 {
        let cluster = MongoCluster::new(shards);
        cluster.create_collection(&coll).unwrap();
        cluster.insert_many(&coll, records.clone()).unwrap();

        let single = DocStore::new();
        single.create_collection(&coll).unwrap();
        let ordered = in_shard_order(&records, |r| shard_for(&r.get_or_missing("_id"), shards));
        single.insert_many(&coll, ordered).unwrap();

        for k in KS.into_iter().filter(|&k| k > 0) {
            for pipeline in [
                format!(r#"[{{"$sort":{{"ten":1}}}},{{"$limit":{k}}}]"#),
                format!(r#"[{{"$sort":{{"ten":-1,"unique1":1}}}},{{"$limit":{k}}}]"#),
                format!(
                    r#"[{{"$sort":{{"tenPercent":-1}}}},{{"$project":{{"_id":0,"ten":1,"tenPercent":1}}}},{{"$limit":{k}}}]"#
                ),
            ] {
                assert_eq!(
                    ndjson(&cluster.aggregate(&coll, &pipeline).unwrap()),
                    ndjson(&single.aggregate(&coll, &pipeline).unwrap()),
                    "{shards} shards diverged from one node: {pipeline}"
                );
            }
        }
    }
}
