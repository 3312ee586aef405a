//! `WITH … ORDER BY` followed by `RETURN … LIMIT n`: the bounded top-k
//! must return exactly what the full stable sort returns, truncated —
//! across tie groups, missing keys, and later clauses that keep rows
//! 1:1 (the bound applies) or filter them (it must not).

use polyframe_datamodel::{to_json_string, Value};
use polyframe_graphstore::GraphStore;
use polyframe_wisconsin::{generate, WisconsinConfig};

const N: usize = 3_000;

fn ndjson(rows: &[Value]) -> String {
    rows.iter().map(|r| to_json_string(r) + "\n").collect()
}

#[test]
fn bounded_order_by_matches_full_sort_truncated() {
    let g = GraphStore::new();
    g.insert_nodes("wisconsin", generate(&WisconsinConfig::new(N)))
        .unwrap();
    let queries = [
        // `ten` has 300-row tie groups; `tenPercent` is missing on every
        // tenth node.
        "MATCH(t: wisconsin)\n WITH t ORDER BY t.ten\n RETURN t",
        "MATCH(t: wisconsin)\n WITH t ORDER BY t.ten DESC\n RETURN t",
        "MATCH(t: wisconsin)\n WITH t ORDER BY t.tenPercent\n RETURN t",
        "MATCH(t: wisconsin)\n WITH t ORDER BY t.ten DESC\n WITH t{'ten': t.ten, 'unique1': t.unique1}\n RETURN t",
        "MATCH(t: wisconsin)\n WITH t ORDER BY t.ten\n RETURN t.unique1",
        "MATCH(t: wisconsin)\n WITH t ORDER BY t.ten\n WITH t WHERE t.two = 1\n RETURN t",
        "MATCH(t: wisconsin)\n WITH t ORDER BY t.unique1\n WITH t ORDER BY t.ten DESC\n RETURN t",
    ];
    for query in queries {
        let all = g.query(query).unwrap();
        for k in [0, 1, 299, 300, 301, N, N + 7] {
            let bounded = format!("{query}\n LIMIT {k}");
            assert_eq!(
                ndjson(&g.query(&bounded).unwrap()),
                ndjson(&all[..k.min(all.len())]),
                "{bounded}"
            );
        }
    }
}
