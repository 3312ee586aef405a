//! `durable_ingest`: the only workload where the write-ahead log, its
//! codec and the three stores' durable shells do most of the work.
//!
//! A cycle, per store, on a fresh `LogMedia`: set up (enable durability
//! with an explicit checkpoint policy, create, index `unique1` and
//! `ten`, preload), then ingest small batches — each followed by a
//! `len(df)` that must see every committed row — then `recover()` as a
//! restarted process would and require a byte-identical state. Cycles
//! repeat on fresh stores until the time box closes.

use crate::layers::{put_core_layers, write_trace};
use crate::measure::{put, put_setup_rss, run_op, Metrics, Outcome, RunConfig, Tally};
use crate::ops::{Op, Params, Rng};
use crate::spans::{self, ActionLabel, Probe, ProbeMode, Recorder};
use crate::stats;
use crate::stores::{Lang, System, DS, NS};
use polyframe::prelude::*;
use polyframe_datamodel::{to_json_string, Record, Value};
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_sqlengine::{Engine, EngineConfig};
use polyframe_storage::{encode_ops, CheckpointPolicy, LogMedia};
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches ingested per cycle and store.
const BATCHES: usize = 40;
/// Checkpoint every this many log appends: stated, and the same on both
/// sides of any comparison. A cycle appends 4 + [`BATCHES`] operations,
/// so it crosses five checkpoints.
const CHECKPOINT_EVERY: u64 = 8;
/// Indexes every durable store carries.
const DURABLE_INDEXES: [&str; 2] = ["unique1", "ten"];
/// Fewest cycles, whatever the time box says.
const MIN_CYCLES: usize = 3;

/// Rows per batch: 100 at the standard size.
fn batch_rows(rows: usize) -> usize {
    (rows / 120).max(1)
}

/// Rows loaded during set-up, so that every timed batch lands on a
/// table that is already worth cloning: 2 000 at the standard size.
fn preload_rows(rows: usize) -> usize {
    rows / 6
}

/// One store under test, behind the calls the three share in spirit.
enum Store {
    Sql(Arc<Engine>),
    Doc(Arc<DocStore>),
    Graph(Arc<GraphStore>),
}

impl Store {
    fn new(lang: Lang) -> Store {
        match lang {
            Lang::Sqlpp => Store::Sql(Arc::new(Engine::new(EngineConfig::asterixdb()))),
            Lang::Sql => Store::Sql(Arc::new(Engine::new(EngineConfig::postgres()))),
            Lang::Mongo => Store::Doc(Arc::new(DocStore::new())),
            Lang::Cypher => Store::Graph(Arc::new(GraphStore::new())),
        }
    }

    fn connector(&self, lang: Lang) -> Arc<dyn DatabaseConnector> {
        match self {
            Store::Sql(e) if lang == Lang::Sqlpp => Arc::new(AsterixConnector::new(Arc::clone(e))),
            Store::Sql(e) => Arc::new(PostgresConnector::new(Arc::clone(e))),
            Store::Doc(d) => Arc::new(MongoConnector::new(Arc::clone(d))),
            Store::Graph(g) => Arc::new(Neo4jConnector::new(Arc::clone(g))),
        }
    }

    fn enable_durability(&self, media: Arc<LogMedia>) -> Result<(), String> {
        let policy = CheckpointPolicy::every(CHECKPOINT_EVERY);
        match self {
            Store::Sql(e) => e
                .enable_durability(media, policy)
                .map_err(|e| e.to_string()),
            Store::Doc(d) => d
                .enable_durability(media, policy)
                .map_err(|e| e.to_string()),
            Store::Graph(g) => g
                .enable_durability(media, policy)
                .map_err(|e| e.to_string()),
        }
        .map(|_| ())
    }

    fn create_indexed(&self) -> Result<(), String> {
        let coll = format!("{NS}.{DS}");
        match self {
            Store::Sql(e) => {
                e.create_dataset(NS, DS, Some("unique2"))
                    .map_err(|e| e.to_string())?;
                for attr in DURABLE_INDEXES {
                    e.create_index(NS, DS, attr).map_err(|e| e.to_string())?;
                }
            }
            Store::Doc(d) => {
                d.create_collection(&coll).map_err(|e| e.to_string())?;
                for attr in DURABLE_INDEXES {
                    d.create_index(&coll, attr).map_err(|e| e.to_string())?;
                }
            }
            Store::Graph(g) => {
                g.create_label(DS).map_err(|e| e.to_string())?;
                for attr in DURABLE_INDEXES {
                    g.create_index(DS, attr).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    fn ingest(&self, batch: Vec<Record>) -> Result<(), String> {
        match self {
            Store::Sql(e) => e.load(NS, DS, batch).map_err(|e| e.to_string()),
            Store::Doc(d) => d
                .insert_many(&format!("{NS}.{DS}"), batch)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Store::Graph(g) => g
                .insert_nodes(DS, batch)
                .map(|_| ())
                .map_err(|e| e.to_string()),
        }
    }

    fn recover(&self) -> Result<(), String> {
        match self {
            Store::Sql(e) => e.recover().map_err(|e| e.to_string()),
            Store::Doc(d) => d.recover().map_err(|e| e.to_string()),
            Store::Graph(g) => g.recover().map_err(|e| e.to_string()),
        }
        .map(|_| ())
    }

    /// The checkpoint encoding of the current state.
    fn snapshot_bytes(&self) -> Vec<u8> {
        match self {
            Store::Sql(e) => encode_ops(&e.durable_snapshot()),
            Store::Doc(d) => encode_ops(&d.durable_snapshot()),
            Store::Graph(g) => encode_ops(&g.durable_snapshot()),
        }
    }

    /// `(appends, checkpoints)` of the attached log.
    fn wal_counts(&self) -> Option<(u64, u64)> {
        match self {
            Store::Sql(e) => e.wal_stats(),
            Store::Doc(d) => d.wal_stats(),
            Store::Graph(g) => g.wal_stats(),
        }
        .map(|s| (s.appends, s.checkpoints))
    }
}

/// What one store's cycle measured.
#[derive(Default)]
struct StoreCycle {
    setup_s: f64,
    batch_ns: Vec<u64>,
    read_ns: Vec<u64>,
    recover_ns: Option<u64>,
    log_bytes: usize,
    snapshot_bytes: usize,
    wal_appends: u64,
    checkpoints: u64,
}

impl StoreCycle {
    fn ingest_ns(&self) -> u64 {
        self.batch_ns.iter().chain(&self.read_ns).sum()
    }
}

/// The seeded input of every cycle.
struct Input {
    preload: Vec<Record>,
    batches: Vec<Vec<Record>>,
    ndjson_bytes: usize,
}

impl Input {
    fn rows(&self) -> usize {
        self.preload.len() + self.batches.iter().map(Vec::len).sum::<usize>()
    }
}

fn make_input(cfg: &RunConfig) -> Input {
    let (preload_n, batch_n) = (preload_rows(cfg.rows), batch_rows(cfg.rows));
    let mut data = WisconsinConfig::new(preload_n + BATCHES * batch_n);
    data.seed = cfg.seed;
    let mut records = generate(&data);
    let ndjson_bytes = records
        .iter()
        .map(|r| to_json_string(&Value::Obj(r.clone())).len() + 1)
        .sum();
    let rest = records.split_off(preload_n);
    let mut batches: Vec<Vec<Record>> = rest.chunks(batch_n).map(<[Record]>::to_vec).collect();
    Rng::new(cfg.seed ^ 0x696e_6765).shuffle(&mut batches); // "inge"
    Input {
        preload: records,
        batches,
        ndjson_bytes,
    }
}

/// Time one call on a store; traced, it is an action of its own with
/// the call as its only span.
fn store_call<T>(
    recorder: Option<&Arc<Recorder>>,
    lang: Lang,
    label: &'static str,
    span: &'static str,
    call: impl FnOnce() -> T,
) -> (u64, T) {
    match recorder {
        None => {
            let t0 = Instant::now();
            let out = call();
            (t0.elapsed().as_nanos() as u64, out)
        }
        Some(rec) => {
            rec.begin_action(ActionLabel {
                lang,
                op: label,
                replayed: false,
            });
            let out = rec.span(span, call);
            (rec.end_action(), out)
        }
    }
}

/// One store's cycle. `durable` false never enables durability (and so
/// never recovers): the baseline of `storage.durability_overhead_ratio`.
fn store_cycle(
    lang: Lang,
    input: &Input,
    durable: bool,
    recorder: Option<&Arc<Recorder>>,
    tally: &mut Tally,
) -> StoreCycle {
    let mut cycle = StoreCycle::default();
    let fail = |what: &str, e: String| format!("{}/{what}: {e}", lang.name());

    let t0 = Instant::now();
    let store = Store::new(lang);
    let media = LogMedia::new();
    let mut setup = Ok(());
    if durable {
        setup = store.enable_durability(Arc::clone(&media));
    }
    let setup = setup
        .and_then(|()| store.create_indexed())
        .and_then(|()| store.ingest(input.preload.clone()));
    cycle.setup_s = t0.elapsed().as_secs_f64();
    tally.check(setup.is_ok(), || fail("setup", format!("{setup:?}")));

    let connector = store.connector(lang);
    let connector: Arc<dyn DatabaseConnector> = match recorder {
        Some(rec) => Arc::new(Probe::new(
            connector,
            Arc::clone(rec),
            ProbeMode::ClientSide,
        )),
        None => connector,
    };
    let frames = System::frames_over(connector);
    // `len(df)` needs no literals.
    let params = Params::seeded(0);
    let mut committed = input.preload.len();
    for batch in &input.batches {
        let rows = batch.clone();
        let (batch_ns, ingested) = store_call(recorder, lang, "batch", "storage.batch", || {
            store.ingest(rows)
        });
        cycle.batch_ns.push(batch_ns);
        tally.check(ingested.is_ok(), || fail("ingest", format!("{ingested:?}")));
        committed += batch.len();
        // Read your writes: the count must be every committed row.
        let (read_ns, _) = run_op(
            &frames,
            lang,
            Op::Expr(1),
            &params,
            0,
            committed,
            recorder.map(|r| &**r),
            tally,
        );
        cycle.read_ns.push(read_ns);
    }
    if !durable {
        return cycle;
    }

    let before = store.snapshot_bytes();
    cycle.log_bytes = media.log_len();
    cycle.snapshot_bytes = before.len();
    if let Some((appends, checkpoints)) = store.wal_counts() {
        cycle.wal_appends = appends;
        cycle.checkpoints = checkpoints;
    }
    let (recover_ns, recovered) = store_call(recorder, lang, "recover", "storage.recover", || {
        store.recover()
    });
    cycle.recover_ns = Some(recover_ns);
    tally.check(recovered.is_ok(), || {
        fail("recover", format!("{recovered:?}"))
    });
    tally.check(store.snapshot_bytes() == before, || {
        fail(
            "recover",
            "state is not byte-identical to pre-crash".to_string(),
        )
    });
    run_op(
        &frames,
        lang,
        Op::Expr(1),
        &params,
        0,
        committed,
        None,
        tally,
    );
    cycle
}

/// Cycles over all four stores until `budget` is spent.
fn cycles(
    input: &Input,
    budget: Duration,
    durable: bool,
    recorder: Option<&Arc<Recorder>>,
    tally: &mut Tally,
) -> Vec<Vec<StoreCycle>> {
    let started = Instant::now();
    let mut all = Vec::new();
    while all.len() < MIN_CYCLES || started.elapsed() < budget {
        // Alternate the store order, as the read workloads do.
        let mut order = Lang::ALL.to_vec();
        if all.len() % 2 == 1 {
            order.reverse();
        }
        let mut cycle: Vec<(Lang, StoreCycle)> = order
            .into_iter()
            .map(|lang| (lang, store_cycle(lang, input, durable, recorder, tally)))
            .collect();
        cycle.sort_by_key(|(lang, _)| *lang);
        all.push(cycle.into_iter().map(|(_, c)| c).collect());
    }
    all
}

fn ns_to_us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    ns.map(|ns| ns as f64 / 1e3).collect()
}

/// Run `durable_ingest`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let input = make_input(cfg);
    let shares: &[f64] = if cfg.trace { &[0.4, 0.3, 0.3] } else { &[1.0] };
    let tally = &mut out.tally;
    let metrics: &mut Metrics = &mut out.metrics;

    // One untimed cycle warms the allocator; every later cycle peaks
    // where this one did.
    for lang in Lang::ALL {
        store_cycle(lang, &input, true, None, tally);
    }
    put_setup_rss(metrics);

    let timed = Instant::now();
    let plain = cycles(&input, cfg.budget().mul_f64(shares[0]), true, None, tally);
    let timed = timed.elapsed();

    let n = plain.len();
    let ingested_rows = (input.rows() - input.preload.len()) as f64;
    let setups: Vec<f64> = plain
        .iter()
        .map(|cycle| cycle.iter().map(|c| c.setup_s).sum())
        .collect();
    put(metrics, "setup_s", stats::median(&setups), n);
    let mut actions = 0usize;
    let (mut read_p50s, mut read_p99s, mut write_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut recover_ms_total = 0.0;
    for lang in Lang::ALL {
        let of_lang = || plain.iter().map(move |cycle| &cycle[lang.index()]);
        let round_ms: Vec<f64> = of_lang()
            .map(|c| (c.ingest_ns() + c.recover_ns.unwrap_or(0)) as f64 / 1e6)
            .collect();
        put(
            metrics,
            format!("round_ms.{}", lang.name()),
            stats::median(&round_ms),
            n,
        );
        let recover_ms: Vec<f64> = of_lang()
            .filter_map(|c| c.recover_ns)
            .map(|ns| ns as f64 / 1e6)
            .collect();
        let recover = stats::median(&recover_ms);
        recover_ms_total += recover;
        put(
            metrics,
            format!("storage.recover_ms.{}", lang.name()),
            recover,
            n,
        );
        let mut batches = ns_to_us(of_lang().flat_map(|c| c.batch_ns.iter().copied()));
        batches.sort_by(f64::total_cmp);
        put(
            metrics,
            format!("storage.batch_p99_us.{}", lang.name()),
            stats::percentile(&batches, 99.0),
            batches.len(),
        );
        write_p50s.push(stats::percentile(&batches, 50.0));
        let mut reads = ns_to_us(of_lang().flat_map(|c| c.read_ns.iter().copied()));
        reads.sort_by(f64::total_cmp);
        read_p50s.push(stats::percentile(&reads, 50.0));
        read_p99s.push(stats::percentile(&reads, 99.0));
        actions += batches.len() + reads.len() + recover_ms.len();
    }
    put(
        metrics,
        "actions_per_s",
        actions as f64 / timed.as_secs_f64(),
        actions,
    );
    put(metrics, "read_p50_us", stats::mean(&read_p50s), actions);
    put(metrics, "read_p99_us", stats::mean(&read_p99s), actions);
    put(metrics, "write_p50_us", stats::mean(&write_p50s), actions);
    put(metrics, "recover_ms", recover_ms_total, n);
    let rates: Vec<f64> = plain
        .iter()
        .map(|cycle| {
            let ingest_s: f64 = cycle.iter().map(|c| c.ingest_ns() as f64 / 1e9).sum();
            cycle.len() as f64 * ingested_rows / ingest_s
        })
        .collect();
    put(metrics, "ingest_rows_per_s", stats::median(&rates), n);

    // Counts: the same input gives the same bytes in every cycle, and
    // the run says so when it does not.
    let counts = |cycle: &Vec<StoreCycle>| {
        (
            cycle.iter().map(|c| c.log_bytes).sum::<usize>(),
            cycle.iter().map(|c| c.snapshot_bytes).sum::<usize>(),
            cycle.iter().map(|c| c.wal_appends).sum::<u64>(),
            cycle.iter().map(|c| c.checkpoints).sum::<u64>(),
        )
    };
    let (log_bytes, snapshot_bytes, appends, checkpoints) = counts(&plain[0]);
    tally.check(plain.iter().all(|c| counts(c) == counts(&plain[0])), || {
        "log or snapshot bytes differ between cycles of one seed".to_string()
    });
    let stores = Lang::ALL.len() as f64;
    let all_rows = stores * input.rows() as f64;
    put(
        metrics,
        "space_amp",
        (log_bytes + snapshot_bytes) as f64 / (stores * input.ndjson_bytes as f64),
        0,
    );
    put(metrics, "storage.wal_appends", appends as f64, 0);
    put(metrics, "storage.checkpoints", checkpoints as f64, 0);
    put(
        metrics,
        "storage.log_bytes_per_row",
        log_bytes as f64 / all_rows,
        0,
    );
    put(
        metrics,
        "storage.snapshot_bytes_per_row",
        snapshot_bytes as f64 / all_rows,
        0,
    );
    for lang in Lang::ALL {
        let loads: Vec<f64> = plain.iter().map(|c| c[lang.index()].setup_s).collect();
        put(
            metrics,
            format!("setup.load_s.{}", lang.name()),
            stats::median(&loads),
            n,
        );
    }
    out.notes.push(format!(
        "{n} cycles of {BATCHES} batches x {} rows on {} preloaded rows per store, checkpoint \
         every {CHECKPOINT_EVERY} appends",
        batch_rows(cfg.rows),
        input.preload.len()
    ));
    if !cfg.trace {
        return out;
    }

    let timer_cost = spans::timer_cost_ns();
    let recorder = Arc::new(Recorder::new());
    cycles(
        &input,
        cfg.budget().mul_f64(shares[1]),
        true,
        Some(&recorder),
        tally,
    );
    let volatile = cycles(&input, cfg.budget().mul_f64(shares[2]), false, None, tally);
    let ingest_s = |cycles: &[Vec<StoreCycle>]| -> f64 {
        let per_cycle: Vec<f64> = cycles
            .iter()
            .map(|cycle| cycle.iter().map(|c| c.ingest_ns() as f64 / 1e9).sum())
            .collect();
        stats::median(&per_cycle)
    };
    put(
        metrics,
        "storage.durability_overhead_ratio",
        ingest_s(&plain) / ingest_s(&volatile),
        volatile.len(),
    );

    let (all_spans, actions) = recorder.snapshot();
    let by_label = spans::breakdowns(&all_spans, &actions);
    // Only the reads are `core` actions; batches and recoveries are
    // calls on the store.
    let reads: crate::layers::ByLabel = by_label
        .into_iter()
        .filter(|(label, _)| label.op == Op::Expr(1).label())
        .collect();
    let traced_read_us = put_core_layers(&reads, metrics, &mut out.notes);
    let plain_read_us: f64 = Lang::ALL
        .iter()
        .map(|lang| {
            let reads = ns_to_us(
                plain
                    .iter()
                    .flat_map(|c| c[lang.index()].read_ns.iter().copied()),
            );
            stats::median(&reads)
        })
        .sum();
    put(
        metrics,
        "bench.trace_overhead_ratio",
        traced_read_us / plain_read_us,
        0,
    );
    out.notes.push(format!(
        "timer cost: one Instant::now pair is {timer_cost:.1} ns; {} spans recorded",
        all_spans.len()
    ));
    if let Some(path) = &cfg.trace_out {
        write_trace(
            path,
            "durable_ingest",
            cfg.seed,
            timer_cost,
            &all_spans,
            &actions,
        );
    }
    out
}
