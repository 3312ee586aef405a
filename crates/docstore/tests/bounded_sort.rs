//! `$sort` followed by `$limit`: the bounded top-k must return exactly
//! what the full stable sort returns, truncated — across tie groups,
//! missing and null keys, and 1:1 stages between the two.

use polyframe_datamodel::{record, to_json_string, Value};
use polyframe_docstore::DocStore;

const N: i64 = 600;

fn store() -> DocStore {
    let s = DocStore::new();
    s.create_collection("c").unwrap();
    s.insert_many(
        "c",
        (0..N).map(|i| {
            // `grp` has 7 tie groups of ~86; `opt` is missing on every
            // fifth document and null on every eleventh.
            let mut r = record! {"v" => (i * 7919) % N, "grp" => i % 7};
            if i % 5 != 0 {
                r.insert(
                    "opt",
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 13)
                    },
                );
            }
            r
        }),
    )
    .unwrap();
    s
}

fn ndjson(rows: &[Value]) -> String {
    rows.iter().map(|r| to_json_string(r) + "\n").collect()
}

#[test]
fn bounded_sort_matches_full_sort_truncated() {
    let s = store();
    let sorts = [
        r#"{"$sort":{"grp":1}}"#,
        r#"{"$sort":{"grp":-1,"v":1}}"#,
        r#"{"$sort":{"opt":1}}"#,
        r#"{"$sort":{"opt":-1}}"#,
    ];
    // Stages between `$sort` and `$limit`: none, 1:1 ones (the bound
    // applies), and a `$match` (it must not).
    let middles = [
        "",
        r#",{"$project":{"_id":0,"grp":1,"opt":1}}"#,
        r#",{"$addFields":{"w":{"$add":["$v",1]}}},{"$project":{"_id":0}}"#,
        r#",{"$match":{"$expr":{"$gt":["$grp",2]}}}"#,
    ];
    for sort in sorts {
        for middle in middles {
            let full = format!("[{sort}{middle}]");
            let all = s.aggregate("c", &full).unwrap();
            for k in [1, 85, 86, 87, 171, N as usize, N as usize + 7] {
                let bounded = format!(r#"[{sort}{middle},{{"$limit":{k}}}]"#);
                let want = &all[..k.min(all.len())];
                assert_eq!(
                    ndjson(&s.aggregate("c", &bounded).unwrap()),
                    ndjson(want),
                    "{bounded}"
                );
            }
        }
    }
}
