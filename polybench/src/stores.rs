//! The systems under test: four single-node stores and three clusters,
//! loaded with Wisconsin data through their public loading calls.

use polyframe::prelude::*;
use polyframe_cluster::{MongoCluster, SqlCluster};
use polyframe_datamodel::Record;
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_sqlengine::{Engine, EngineConfig};
use std::sync::Arc;
use std::time::Instant;

/// Namespace of every benchmark dataset.
pub const NS: &str = "Bench";
/// The main dataset.
pub const DS: &str = "wisconsin";
/// The join partner of expression 12.
pub const DS2: &str = "wisconsin2";
/// The benchmark's standard indexes (paper section IV).
pub const INDEXED: [&str; 4] = ["unique1", "ten", "onePercent", "tenPercent"];

/// A query personality, named after the language PolyFrame emits for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lang {
    /// AsterixDB.
    Sqlpp,
    /// PostgreSQL (Greenplum on the cluster).
    Sql,
    /// MongoDB.
    Mongo,
    /// Neo4j.
    Cypher,
}

impl Lang {
    /// Every personality, in reporting order.
    pub const ALL: [Lang; 4] = [Lang::Sqlpp, Lang::Sql, Lang::Mongo, Lang::Cypher];

    /// The suffix metric names carry.
    pub fn name(self) -> &'static str {
        match self {
            Lang::Sqlpp => "sqlpp",
            Lang::Sql => "sql",
            Lang::Mongo => "mongo",
            Lang::Cypher => "cypher",
        }
    }

    /// Position in [`Lang::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The store behind one personality, for the calls a connector does not
/// carry (direct replay, cache counters, writes).
#[derive(Clone)]
pub enum Backend {
    /// A SQL engine (either dialect).
    Sql(Arc<Engine>),
    /// The document store.
    Doc(Arc<DocStore>),
    /// The graph store.
    Graph(Arc<GraphStore>),
    /// A sharded SQL cluster.
    SqlCluster(Arc<SqlCluster>),
    /// A sharded document cluster.
    DocCluster(Arc<MongoCluster>),
}

/// One personality ready to query: its store and a connector over it.
#[derive(Clone)]
pub struct System {
    /// Which personality this is.
    pub lang: Lang,
    /// The store.
    pub backend: Backend,
    /// The stock connector over the store.
    pub connector: Arc<dyn DatabaseConnector>,
    /// Seconds its load and index builds took.
    pub load_s: f64,
}

impl System {
    /// `(df, df2)`: frames over the main dataset and the join partner,
    /// through `connector` (the stock one, or a wrapper around it).
    pub fn frames_over(connector: Arc<dyn DatabaseConnector>) -> (AFrame, AFrame) {
        let df = AFrame::new(NS, DS, connector).expect("frame over a loaded dataset");
        let df2 = df.sibling(NS, DS2).expect("sibling frame");
        (df, df2)
    }

    /// Frames through the stock connector.
    pub fn frames(&self) -> (AFrame, AFrame) {
        System::frames_over(Arc::clone(&self.connector))
    }
}

fn load_engine(config: EngineConfig, records: &[Record]) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(config));
    for ds in [DS, DS2] {
        engine
            .create_dataset(NS, ds, Some("unique2"))
            .expect("create dataset");
        engine.load(NS, ds, records.to_vec()).expect("load");
        for attr in INDEXED {
            engine.create_index(NS, ds, attr).expect("create index");
        }
    }
    engine
}

fn timed<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let built = build();
    (built, t0.elapsed().as_secs_f64())
}

/// Load the four single-node stores, in [`Lang::ALL`] order.
pub fn build_single_node(records: &[Record]) -> Vec<System> {
    let (asterix, asterix_s) = timed(|| load_engine(EngineConfig::asterixdb(), records));
    let (postgres, postgres_s) = timed(|| load_engine(EngineConfig::postgres(), records));
    let (mongo, mongo_s) = timed(|| {
        let store = Arc::new(DocStore::new());
        for ds in [DS, DS2] {
            let coll = format!("{NS}.{ds}");
            store.create_collection(&coll).expect("create collection");
            store.insert_many(&coll, records.to_vec()).expect("insert");
            for attr in INDEXED {
                store.create_index(&coll, attr).expect("create index");
            }
        }
        store
    });
    let (neo4j, neo4j_s) = timed(|| build_graph(records));
    vec![
        System {
            lang: Lang::Sqlpp,
            connector: Arc::new(AsterixConnector::new(Arc::clone(&asterix))),
            backend: Backend::Sql(asterix),
            load_s: asterix_s,
        },
        System {
            lang: Lang::Sql,
            connector: Arc::new(PostgresConnector::new(Arc::clone(&postgres))),
            backend: Backend::Sql(postgres),
            load_s: postgres_s,
        },
        System {
            lang: Lang::Mongo,
            connector: Arc::new(MongoConnector::new(Arc::clone(&mongo))),
            backend: Backend::Doc(mongo),
            load_s: mongo_s,
        },
        graph_system(neo4j, neo4j_s),
    ]
}

fn build_graph(records: &[Record]) -> Arc<GraphStore> {
    let store = Arc::new(GraphStore::new());
    for ds in [DS, DS2] {
        store.create_label(ds).expect("create label");
        store.insert_nodes(ds, records.to_vec()).expect("insert");
        for attr in INDEXED {
            store.create_index(ds, attr).expect("create index");
        }
    }
    store
}

fn graph_system(store: Arc<GraphStore>, load_s: f64) -> System {
    System {
        lang: Lang::Cypher,
        connector: Arc::new(Neo4jConnector::new(Arc::clone(&store))),
        backend: Backend::Graph(store),
        load_s,
    }
}

/// Load the three clusters with `shards` shards each — plus the
/// unsharded graph store, because Neo4j has no sharded mode (paper
/// section IV.F): on the cluster workload it is the in-process control
/// that a cluster-layer change must leave alone.
pub fn build_clusters(records: &[Record], shards: usize) -> Vec<System> {
    let sql_cluster = |config: EngineConfig| {
        let cluster = Arc::new(SqlCluster::new(shards, config, "unique2"));
        for ds in [DS, DS2] {
            cluster
                .create_dataset(NS, ds, Some("unique2"))
                .expect("create dataset");
            cluster.load(NS, ds, records.to_vec()).expect("load");
            for attr in INDEXED {
                cluster.create_index(NS, ds, attr).expect("create index");
            }
        }
        cluster
    };
    let (asterix, asterix_s) = timed(|| sql_cluster(EngineConfig::asterixdb()));
    let (greenplum, greenplum_s) = timed(|| sql_cluster(EngineConfig::greenplum()));
    let (mongo, mongo_s) = timed(|| {
        let cluster = Arc::new(MongoCluster::new(shards));
        for ds in [DS, DS2] {
            let coll = format!("{NS}.{ds}");
            cluster.create_collection(&coll).expect("create collection");
            cluster
                .insert_many(&coll, records.to_vec())
                .expect("insert");
            for attr in INDEXED {
                cluster.create_index(&coll, attr).expect("create index");
            }
        }
        cluster
    });
    let (neo4j, neo4j_s) = timed(|| build_graph(records));
    vec![
        System {
            lang: Lang::Sqlpp,
            connector: Arc::new(SqlClusterConnector::asterixdb(Arc::clone(&asterix))),
            backend: Backend::SqlCluster(asterix),
            load_s: asterix_s,
        },
        System {
            lang: Lang::Sql,
            connector: Arc::new(SqlClusterConnector::greenplum(Arc::clone(&greenplum))),
            backend: Backend::SqlCluster(greenplum),
            load_s: greenplum_s,
        },
        System {
            lang: Lang::Mongo,
            connector: Arc::new(MongoClusterConnector::new(Arc::clone(&mongo))),
            backend: Backend::DocCluster(mongo),
            load_s: mongo_s,
        },
        graph_system(neo4j, neo4j_s),
    ]
}
