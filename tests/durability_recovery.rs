//! Property-style crash-recovery sweep: a seeded random op sequence is
//! applied to every substrate personality (SQL, SQL++, MongoDB pipeline,
//! Cypher) with durability on, then re-run once per WAL injection site
//! with a deterministic `Crash` (and again with a `TornWrite`) targeted
//! at exactly that site. After every simulated crash the store must have
//! recovered to a state byte-identical to some committed prefix of the
//! op history; finishing the sequence must reach the exact no-fault
//! final state; and rerunning the identical case must produce an
//! identical transcript (fixed seed ⇒ byte-identical replay).
//!
//! Sites are discovered, not hard-coded: a zero-rate probe plan records
//! every `(site, draw)` the WAL consults, so new injection points are
//! swept automatically.
//!
//! A last test repeats the restart and torn-write checks at benchmark
//! scale: 2 000 Wisconsin records per personality.

use polyframe_datamodel::{record, Record};
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_observe::{FaultPlan, Rng};
use polyframe_sqlengine::{Engine, EngineConfig};
use polyframe_storage::{encode_ops, CheckpointPolicy, LogMedia, RecoveryReport};
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::sync::Arc;

const SEED: u64 = 0xD15C;
const STEPS: usize = 14;
/// Small enough that the random sequence crosses checkpoint boundaries.
const CHECKPOINT_EVERY: u64 = 4;

/// One store-agnostic operation of the random history.
#[derive(Debug, Clone)]
enum Step {
    Create(String),
    Ingest(String, Vec<Record>),
    Index(String, String),
}

/// Deterministic random op sequence: creates, batched ingests with
/// unique primary keys, and secondary indexes — only ever against
/// containers that already exist (validation happens before logging, so
/// a user error would never reach the WAL anyway).
fn gen_steps(seed: u64) -> Vec<Step> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut names: Vec<String> = Vec::new();
    let mut next_id = 0i64;
    let mut steps = Vec::new();
    for _ in 0..STEPS {
        let choice = if names.is_empty() {
            0
        } else {
            rng.gen_range_usize(5)
        };
        match choice {
            0 => {
                let name = format!("T{}", names.len());
                names.push(name.clone());
                steps.push(Step::Create(name));
            }
            1 => {
                let name = names[rng.gen_range_usize(names.len())].clone();
                let attr = if rng.gen_bool() { "val" } else { "s" };
                steps.push(Step::Index(name, attr.to_string()));
            }
            _ => {
                let name = names[rng.gen_range_usize(names.len())].clone();
                let rows = (0..1 + rng.gen_range_usize(4))
                    .map(|_| {
                        next_id += 1;
                        record! {
                            "id" => next_id,
                            "val" => rng.gen_range_i64(-50, 50),
                            "s" => format!("s{}", rng.gen_range_i64(0, 9)),
                        }
                    })
                    .collect();
                steps.push(Step::Ingest(name, rows));
            }
        }
    }
    steps
}

/// Names created by the sequence, for the query-equivalence check.
fn created_names(steps: &[Step]) -> Vec<String> {
    steps
        .iter()
        .filter_map(|s| match s {
            Step::Create(n) => Some(n.clone()),
            _ => None,
        })
        .collect()
}

/// One durable store under test, driven through its own query language.
enum Store {
    Sql(Engine, &'static str),
    Doc(DocStore),
    Graph(GraphStore),
}

impl Store {
    fn build(kind: &str, media: Arc<LogMedia>, plan: Option<Arc<FaultPlan>>) -> Store {
        let policy = CheckpointPolicy::every(CHECKPOINT_EVERY);
        match kind {
            "sql" => {
                let e = Engine::new(EngineConfig::postgres());
                e.set_fault_plan(plan);
                e.enable_durability(media, policy).unwrap();
                Store::Sql(e, "public")
            }
            "sql++" => {
                let e = Engine::new(EngineConfig::asterixdb());
                e.set_fault_plan(plan);
                e.enable_durability(media, policy).unwrap();
                Store::Sql(e, "Default")
            }
            "mongo" => {
                let d = DocStore::new();
                d.set_fault_plan(plan);
                d.enable_durability(media, policy).unwrap();
                Store::Doc(d)
            }
            "cypher" => {
                let g = GraphStore::new();
                g.set_fault_plan(plan);
                g.enable_durability(media, policy).unwrap();
                Store::Graph(g)
            }
            other => panic!("unknown store kind {other}"),
        }
    }

    /// Apply one step. `Err(msg)` is an injected crash (the store has
    /// already recovered itself); corruption fails the test outright.
    fn apply(&self, step: &Step) -> Result<(), String> {
        match self {
            Store::Sql(e, ns) => match step {
                Step::Create(n) => e.create_dataset(ns, n, Some("id")),
                Step::Ingest(n, rows) => e.load(ns, n, rows.clone()),
                Step::Index(n, attr) => e.create_index(ns, n, attr).map(|_| ()),
            }
            .map_err(|err| {
                assert!(!err.is_corruption(), "unexpected corruption: {err}");
                err.to_string()
            }),
            Store::Doc(d) => match step {
                Step::Create(n) => d.create_collection(n),
                Step::Ingest(n, rows) => d.insert_many(n, rows.clone()).map(|_| ()),
                Step::Index(n, attr) => d.create_index(n, attr).map(|_| ()),
            }
            .map_err(|err| {
                assert!(!err.is_corruption(), "unexpected corruption: {err}");
                err.to_string()
            }),
            Store::Graph(g) => match step {
                Step::Create(n) => g.create_label(n),
                Step::Ingest(n, rows) => g.insert_nodes(n, rows.clone()).map(|_| ()),
                Step::Index(n, attr) => g.create_index(n, attr),
            }
            .map_err(|err| {
                assert!(!err.is_corruption(), "unexpected corruption: {err}");
                err.to_string()
            }),
        }
    }

    /// The store's durable state as bytes (the checkpoint encoding).
    fn snapshot(&self) -> Vec<u8> {
        match self {
            Store::Sql(e, _) => encode_ops(&e.durable_snapshot()),
            Store::Doc(d) => encode_ops(&d.durable_snapshot()),
            Store::Graph(g) => encode_ops(&g.durable_snapshot()),
        }
    }

    /// Restart once more: wipe volatile state, rebuild from the log.
    fn restart(&self) -> RecoveryReport {
        match self {
            Store::Sql(e, _) => e.recover().unwrap(),
            Store::Doc(d) => d.recover().unwrap(),
            Store::Graph(g) => g.recover().unwrap(),
        }
    }

    /// Install (or clear) a fault plan on a running store.
    fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        match self {
            Store::Sql(e, _) => e.set_fault_plan(plan),
            Store::Doc(d) => d.set_fault_plan(plan),
            Store::Graph(g) => g.set_fault_plan(plan),
        }
    }

    /// The fault site every durable write appends through.
    fn wal_append_site(&self) -> String {
        let store = match self {
            Store::Sql(e, _) => format!("sqlengine/{:?}", e.config().dialect),
            Store::Doc(_) => "docstore".to_string(),
            Store::Graph(_) => "graphstore".to_string(),
        };
        format!("{store}/wal/append")
    }

    /// Run one count query per created container *through the store's
    /// own query language* and collect the results.
    fn query_all(&self, names: &[String]) -> String {
        let mut out = String::new();
        for name in names {
            let rows = match self {
                Store::Sql(e, _) => e
                    .query(&format!(
                        "SELECT COUNT(*) FROM (SELECT t.* FROM (SELECT * FROM {name}) t \
                         WHERE t.val >= 0) x"
                    ))
                    .unwrap(),
                Store::Doc(d) => d
                    .aggregate(
                        name,
                        r#"[{"$match":{"$expr":{"$gte":["$val",0]}}},{"$count":"c"}]"#,
                    )
                    .unwrap(),
                Store::Graph(g) => g
                    .query(&format!(
                        "MATCH(t: {name})\n WITH t WHERE t.val >= 0\n RETURN COUNT(*) AS c"
                    ))
                    .unwrap(),
            };
            out.push_str(&format!("{name}={rows:?};"));
        }
        out
    }
}

/// No-fault reference run: the committed-prefix states and the final
/// query answers every crash case must converge back to.
struct Reference {
    prefixes: Vec<Vec<u8>>,
    final_query: String,
}

fn reference(kind: &str, steps: &[Step], names: &[String]) -> Reference {
    let store = Store::build(kind, LogMedia::new(), None);
    let mut prefixes = vec![store.snapshot()];
    for s in steps {
        store.apply(s).unwrap();
        prefixes.push(store.snapshot());
    }
    Reference {
        prefixes,
        final_query: store.query_all(names),
    }
}

/// Run the op sequence with one targeted fault and return the case's
/// transcript: `(step the crash hit, snapshot right after recovery)`.
fn run_case(
    kind: &str,
    steps: &[Step],
    names: &[String],
    reference: &Reference,
    site: &str,
    draw: u64,
    torn: bool,
) -> (usize, Vec<u8>) {
    let plan = if torn {
        FaultPlan::torn_at(SEED, site, draw)
    } else {
        FaultPlan::crash_at(SEED, site, draw)
    };
    let store = Store::build(kind, LogMedia::new(), Some(Arc::new(plan)));
    let mut crash = None;
    let mut i = 0;
    while i < steps.len() {
        match store.apply(&steps[i]) {
            Ok(()) => i += 1,
            Err(msg) => {
                assert!(
                    crash.is_none(),
                    "{kind}: targeted fault at {site}#{draw} fired twice ({msg})"
                );
                let snap = store.snapshot();
                // The recovered store must hold exactly the committed
                // prefix: either the op was lost before its commit
                // point (crash/torn during append) or it had already
                // committed (crash at fsync/checkpoint/truncate).
                let committed = snap == reference.prefixes[i + 1];
                let lost = snap == reference.prefixes[i];
                assert!(
                    committed || lost,
                    "{kind}: state after crash at {site}#{draw} (step {i}) matches \
                     neither the pre-op nor the post-op committed prefix"
                );
                crash = Some((i, snap));
                if committed {
                    // Already durable: re-applying would double-apply.
                    i += 1;
                }
                // Otherwise retry the same op against the rebuilt store.
            }
        }
    }
    let (crash_step, snap) = crash.unwrap_or_else(|| {
        panic!("{kind}: targeted fault at {site}#{draw} never fired");
    });
    // Completing the sequence converges on the no-fault final state...
    assert_eq!(
        store.snapshot(),
        *reference.prefixes.last().unwrap(),
        "{kind}: final state diverged after crash at {site}#{draw}"
    );
    // ...a further clean restart is idempotent...
    store.restart();
    assert_eq!(
        store.snapshot(),
        *reference.prefixes.last().unwrap(),
        "{kind}: restart after crash at {site}#{draw} lost state"
    );
    // ...and the store's own query language agrees with the reference.
    assert_eq!(
        store.query_all(names),
        reference.final_query,
        "{kind}: query results diverged after crash at {site}#{draw}"
    );
    (crash_step, snap)
}

/// Discover every `(site, draw)` the WAL consults during a clean run.
fn wal_draws(kind: &str, steps: &[Step]) -> Vec<(String, u64)> {
    let probe = Arc::new(FaultPlan::new(SEED));
    let store = Store::build(kind, LogMedia::new(), Some(Arc::clone(&probe)));
    for s in steps {
        store.apply(s).unwrap();
    }
    let draws: Vec<(String, u64)> = probe
        .draw_counts()
        .into_iter()
        .filter(|(site, _)| site.contains("/wal/"))
        .flat_map(|(site, n)| (0..n).map(move |d| (site.clone(), d)))
        .collect();
    assert!(
        draws.iter().any(|(s, _)| s.ends_with("/wal/append")),
        "{kind}: no append sites discovered"
    );
    assert!(
        draws.iter().any(|(s, _)| s.ends_with("/wal/checkpoint")),
        "{kind}: sequence never checkpointed — shrink CHECKPOINT_EVERY"
    );
    draws
}

fn sweep(kind: &str) {
    let steps = gen_steps(SEED);
    let names = created_names(&steps);
    let reference = reference(kind, &steps, &names);
    for (site, draw) in wal_draws(kind, &steps) {
        for torn in [false, true] {
            let first = run_case(kind, &steps, &names, &reference, &site, draw, torn);
            let again = run_case(kind, &steps, &names, &reference, &site, draw, torn);
            assert_eq!(
                first, again,
                "{kind}: crash at {site}#{draw} (torn={torn}) did not replay identically"
            );
        }
    }
}

#[test]
fn crash_at_every_wal_site_recovers_sql() {
    sweep("sql");
}

#[test]
fn crash_at_every_wal_site_recovers_sqlpp() {
    sweep("sql++");
}

#[test]
fn crash_at_every_wal_site_recovers_mongo() {
    sweep("mongo");
}

#[test]
fn crash_at_every_wal_site_recovers_cypher() {
    sweep("cypher");
}

/// Restart and torn-write recovery at benchmark scale: on every
/// personality, 2 000 Wisconsin records load durably in eight batches and
/// get a secondary index. A restart must rebuild that state byte for byte
/// from a checkpoint plus the log tail, and a ninth batch torn mid-frame
/// must leave exactly the committed prefix behind, with the store still
/// writable.
#[test]
fn every_backend_recovers_byte_identical() {
    const RECORDS: usize = 2_000;
    const BATCH: usize = RECORDS / 8;
    let records: Vec<Record> = generate(&WisconsinConfig::new(RECORDS + BATCH))
        .into_iter()
        .map(|mut r| {
            let id = r.get_or_missing("unique2");
            r.insert("id", id);
            r
        })
        .collect();
    let (loaded, held_back) = records.split_at(RECORDS);
    let name = "wisconsin".to_string();
    let torn_batch = Step::Ingest(name.clone(), held_back.to_vec());
    for kind in ["sql", "sql++", "mongo", "cypher"] {
        let store = Store::build(kind, LogMedia::new(), None);
        store.apply(&Step::Create(name.clone())).unwrap();
        for chunk in loaded.chunks(BATCH) {
            store
                .apply(&Step::Ingest(name.clone(), chunk.to_vec()))
                .unwrap();
        }
        store
            .apply(&Step::Index(name.clone(), "unique1".to_string()))
            .unwrap();
        let before = store.snapshot();

        let report = store.restart();
        assert_eq!(
            store.snapshot(),
            before,
            "{kind}: recovery changed the state"
        );
        assert!(
            report.snapshot_ops > 0,
            "{kind}: recovery started from no checkpoint"
        );
        assert!(
            report.restored_rows >= RECORDS as u64,
            "{kind}: restored only {} rows",
            report.restored_rows
        );

        store.set_fault_plan(Some(Arc::new(FaultPlan::torn_at(
            7,
            store.wal_append_site(),
            0,
        ))));
        assert!(
            store.apply(&torn_batch).is_err(),
            "{kind}: the torn write reported success"
        );
        store.set_fault_plan(None);
        assert_eq!(store.snapshot(), before, "{kind}: a torn tail lost data");
        store.apply(&torn_batch).unwrap();
    }
}
