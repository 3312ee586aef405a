//! `serve_rw`: the read stack used through `core::serve` — an admission
//! queue, a worker pool, concurrent closed-loop sessions — with a writer
//! committing beside the reads, so that every commit publishes a
//! copy-on-write snapshot under the readers.
//!
//! One phase per personality, each a `Server` over that personality's
//! single-node store: `nproc` reader sessions (80 % `pt_eq` on
//! never-repeated keys, 20 % expression 3) and one writer thread.

use crate::layers::{put_core_layers, write_trace};
use crate::measure::{
    each_build, nproc, put, put_common, put_setup_rss, run_op, Outcome, RunConfig, Samples, Tally,
    SETUP_REPS,
};
use crate::ops::{Op, Params, Rng};
use crate::spans::{self, Probe, ProbeMode, Recorder};
use crate::stats;
use crate::stores::{build_single_node, Backend, Lang, System, NS};
use polyframe::prelude::*;
use polyframe_datamodel::Record;
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The read mix's operation classes.
const READ_OPS: [Op; 2] = [Op::PtEq, Op::Expr(3)];
/// One read in this many is a scan (expression 3).
const SCAN_ONE_IN: u64 = 5;
/// One read in this many is repeated on the direct path and compared.
const VERIFY_ONE_IN: u64 = 64;
/// Rows the writer commits at a time.
const WRITE_BATCH_ROWS: i64 = 64;
/// Batches between fresh scratch datasets (`create` + `create_index`).
const BATCHES_PER_SCRATCH: usize = 16;
/// The writer's pause between commits: paced, so that the phase
/// measures publication beside reads, not a core saturated by loads.
const WRITER_THINK: Duration = Duration::from_millis(2);

/// Admission pushback costs latency, not failure.
fn client_retry() -> RetryPolicy {
    RetryPolicy::retries(64).with_base_backoff(Duration::from_micros(200))
}

/// Commit batches to a scratch dataset until told to stop; returns each
/// commit's latency in nanoseconds.
fn writer(backend: &Backend, stop: &AtomicBool) -> Vec<u64> {
    let mut latencies = Vec::new();
    let mut next_id = 0i64;
    let mut batches = 0usize;
    while !stop.load(Ordering::Acquire) {
        let generation = batches / BATCHES_PER_SCRATCH;
        let fresh = batches.is_multiple_of(BATCHES_PER_SCRATCH);
        let batch: Vec<Record> = (next_id..next_id + WRITE_BATCH_ROWS)
            .map(|id| {
                let mut r = Record::with_capacity(2);
                r.insert("id", id);
                r.insert("payload", format!("row{id}"));
                r
            })
            .collect();
        next_id += WRITE_BATCH_ROWS;
        // `create` replaces an existing SQL dataset or collection; a
        // graph label is only ever created, so each generation gets its
        // own.
        let t0;
        match backend {
            Backend::Sql(engine) => {
                if fresh {
                    engine
                        .create_dataset(NS, "scratch", Some("id"))
                        .expect("writer create");
                    engine
                        .create_index(NS, "scratch", "payload")
                        .expect("writer index");
                }
                t0 = Instant::now();
                engine.load(NS, "scratch", batch).expect("writer commit");
            }
            Backend::Doc(store) => {
                let coll = format!("{NS}.scratch");
                if fresh {
                    store.create_collection(&coll).expect("writer create");
                    store.create_index(&coll, "id").expect("writer index");
                }
                t0 = Instant::now();
                store.insert_many(&coll, batch).expect("writer commit");
            }
            Backend::Graph(store) => {
                let label = format!("scratch{generation}");
                if fresh {
                    store.create_label(&label).expect("writer create");
                    store.create_index(&label, "id").expect("writer index");
                }
                t0 = Instant::now();
                store.insert_nodes(&label, batch).expect("writer commit");
            }
            Backend::SqlCluster(_) | Backend::DocCluster(_) => {
                unreachable!("serve_rw runs on single-node stores")
            }
        }
        latencies.push(t0.elapsed().as_nanos() as u64);
        batches += 1;
        std::thread::sleep(WRITER_THINK);
    }
    latencies
}

/// One closed-loop reader: the seeded mix over `frames` until
/// `deadline`, with a seeded sample of results repeated on `direct`.
#[allow(clippy::too_many_arguments)]
fn reader(
    frames: &(AFrame, AFrame),
    direct: &(AFrame, AFrame),
    lang: Lang,
    params: &Params,
    rows: usize,
    keys: &[i64],
    seed: u64,
    deadline: Instant,
    recorder: Option<&Recorder>,
) -> (Samples, Tally) {
    let mut samples = Samples::new(&READ_OPS);
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed);
    let mut issued = 0usize;
    while Instant::now() < deadline {
        let (op, k) = if rng.below(SCAN_ONE_IN) == 0 {
            (Op::Expr(3), 0)
        } else {
            issued += 1;
            (Op::PtEq, keys[issued % keys.len()])
        };
        let (ns, served) = run_op(frames, lang, op, params, k, rows, recorder, &mut tally);
        samples.push(lang, op, ns);
        if rng.below(VERIFY_ONE_IN) == 0 {
            let (_, expected) = run_op(direct, lang, op, params, k, rows, None, &mut tally);
            tally.check(served.is_some() && served == expected, || {
                format!(
                    "{}/{}: served result differs from the direct path",
                    lang.name(),
                    op.label()
                )
            });
        }
    }
    (samples, tally)
}

/// What one personality's phases measured.
struct Phase {
    samples: Samples,
    writes: Vec<u64>,
    wall: Duration,
    rejected: u64,
}

impl Phase {
    fn empty() -> Phase {
        Phase {
            samples: Samples::new(&READ_OPS),
            writes: Vec::new(),
            wall: Duration::ZERO,
            rejected: 0,
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.samples.absorb(other.samples);
        self.writes.extend(other.writes);
        self.wall += other.wall;
        self.rejected += other.rejected;
    }
}

/// Readers and the writer over one personality for `budget`. `serve`
/// puts a `Server` between them; without it a single reader uses the
/// stock connector on this thread (the direct-path baseline).
#[allow(clippy::too_many_arguments)]
fn phase(
    system: &System,
    cfg: &RunConfig,
    params: &Params,
    keys: &[i64],
    budget: Duration,
    serve: bool,
    recorder: Option<&Arc<Recorder>>,
    tally: &mut Tally,
) -> Phase {
    let workers = nproc();
    let readers = if serve { workers } else { 1 };
    let probe = |inner: Arc<dyn DatabaseConnector>, mode| -> Arc<dyn DatabaseConnector> {
        match recorder {
            Some(rec) => Arc::new(Probe::new(inner, Arc::clone(rec), mode)),
            None => inner,
        }
    };
    let server = serve.then(|| {
        Server::start(
            probe(Arc::clone(&system.connector), ProbeMode::ServerSide),
            ServeConfig::default()
                .with_workers(workers)
                .with_queue_capacity((2 * readers).max(8)),
        )
    });
    let direct = system.frames();
    let reader_frames: Vec<(AFrame, AFrame)> = (0..readers)
        .map(|_| {
            let connector: Arc<dyn DatabaseConnector> = match &server {
                Some(server) => Arc::new(server.session()),
                None => Arc::clone(&system.connector),
            };
            let (df, df2) = System::frames_over(probe(connector, ProbeMode::ClientSide));
            (df.with_retry(client_retry()), df2)
        })
        .collect();
    // Each reader walks its own stride of the key permutation, so no
    // two reads of the phase share a literal.
    let strides: Vec<Vec<i64>> = (0..readers)
        .map(|r| keys.iter().copied().skip(r).step_by(readers).collect())
        .collect();

    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let deadline = started + budget;
    let mut samples = Samples::new(&READ_OPS);
    let (writes, wall) = std::thread::scope(|scope| {
        let write = scope.spawn(|| writer(&system.backend, &stop));
        let reads: Vec<_> = reader_frames
            .iter()
            .zip(&strides)
            .enumerate()
            .map(|(r, (frames, stride))| {
                let direct = &direct;
                let seed = cfg.seed ^ ((system.lang.index() as u64) << 8) ^ r as u64;
                scope.spawn(move || {
                    reader(
                        frames,
                        direct,
                        system.lang,
                        params,
                        cfg.rows,
                        stride,
                        seed,
                        deadline,
                        recorder.map(|r| &**r),
                    )
                })
            })
            .collect();
        for read in reads {
            let (read_samples, read_tally) = read.join().expect("reader thread");
            samples.absorb(read_samples);
            tally.absorb(read_tally);
        }
        let wall = started.elapsed();
        stop.store(true, Ordering::Release);
        (write.join().expect("writer thread"), wall)
    });
    drop(reader_frames);
    let rejected = server.map_or(0, |server| {
        server.drain();
        server.stats().rejected
    });
    Phase {
        samples,
        writes,
        wall,
        rejected,
    }
}

/// One build's part of a pass: every personality gets a phase of an
/// equal part of `share` of the time box, folded into `so_far`.
#[allow(clippy::too_many_arguments)]
fn pass(
    so_far: &mut [Phase],
    systems: &[System],
    cfg: &RunConfig,
    params: &Params,
    keys: &[i64],
    share: f64,
    serve: bool,
    recorder: Option<&Arc<Recorder>>,
    tally: &mut Tally,
) {
    let budget = cfg
        .budget()
        .mul_f64(share / (systems.len() * SETUP_REPS) as f64);
    for (system, total) in systems.iter().zip(so_far) {
        total.absorb(phase(
            system, cfg, params, keys, budget, serve, recorder, tally,
        ));
    }
}

/// Run `serve_rw`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut data = WisconsinConfig::new(cfg.rows);
    data.seed = cfg.seed;
    let records = generate(&data);
    let params = Params::seeded(cfg.seed);
    let mut keys: Vec<i64> = (0..cfg.rows as i64).collect();
    Rng::new(cfg.seed ^ 0x7365_7276).shuffle(&mut keys); // "serv"

    // Per pass, one running total per personality. A traced run adds the
    // same pass under spans (client side of each session, and the backend
    // as the workers call it) and the direct-path baseline: the same mix
    // and the same writer, one reader on this thread, no server between.
    let shares: &[f64] = if cfg.trace { &[0.4, 0.3, 0.3] } else { &[1.0] };
    let per_lang = || Lang::ALL.map(|_| Phase::empty());
    let (mut served, mut traced, mut direct) = (per_lang(), per_lang(), per_lang());
    let recorder = cfg.trace.then(|| Arc::new(Recorder::new()));
    // Each build reads its own part of the key permutation.
    let mut key_parts = keys.chunks(keys.len().div_ceil(SETUP_REPS));
    let (setup_walls, loads) = each_build(
        || build_single_node(&records),
        |systems| {
            let keys = key_parts.next().expect("one part of the keys per build");
            let tally = &mut out.tally;
            put_setup_rss(&mut out.metrics);
            pass(
                &mut served,
                systems,
                cfg,
                &params,
                keys,
                shares[0],
                true,
                None,
                tally,
            );
            if let Some(recorder) = &recorder {
                pass(
                    &mut traced,
                    systems,
                    cfg,
                    &params,
                    keys,
                    shares[1],
                    true,
                    Some(recorder),
                    tally,
                );
                pass(
                    &mut direct,
                    systems,
                    cfg,
                    &params,
                    keys,
                    shares[2],
                    false,
                    None,
                    tally,
                );
            }
        },
    );

    let metrics = &mut out.metrics;
    let (mut p50s, mut p99s, mut write_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reads, mut wall, mut rejected) = (0usize, Duration::ZERO, 0u64);
    for (lang, ph) in Lang::ALL.into_iter().zip(&served) {
        if let Some((round_us, least)) = ph.samples.round_us(lang) {
            put(
                metrics,
                format!("round_ms.{}", lang.name()),
                round_us / 1e3,
                least,
            );
        }
        let mut all: Vec<f64> = READ_OPS
            .iter()
            .flat_map(|op| ph.samples.of(lang, *op))
            .map(|ns| *ns as f64 / 1e3)
            .collect();
        all.sort_by(f64::total_cmp);
        if !all.is_empty() {
            p50s.push(stats::percentile(&all, 50.0));
            p99s.push(stats::percentile(&all, 99.0));
            if let Some(pct) = stats::highest_supported_percentile(all.len()) {
                out.notes.push(format!(
                    "served reads, {}: {} samples, p{pct} = {:.1} us is the highest percentile \
                     with ten samples beyond it",
                    lang.name(),
                    all.len(),
                    stats::percentile(&all, pct)
                ));
            }
        }
        if !ph.writes.is_empty() {
            write_p50s.push(stats::median_ns(&ph.writes) / 1e3);
        }
        reads += all.len();
        wall += ph.wall;
        rejected += ph.rejected;
    }
    let writes: usize = served.iter().map(|ph| ph.writes.len()).sum();
    put(
        metrics,
        "actions_per_s",
        reads as f64 / wall.as_secs_f64(),
        reads,
    );
    put(metrics, "read_p50_us", stats::mean(&p50s), reads);
    put(metrics, "read_p99_us", stats::mean(&p99s), reads);
    put(metrics, "write_p50_us", stats::mean(&write_p50s), writes);
    put(metrics, "serve.rejected", rejected as f64, 0);
    put_common(metrics, &setup_walls, &loads);
    let Some(recorder) = recorder else {
        return out;
    };

    let mut queue_waits = Vec::new();
    let mut service_s = 0.0;
    for (lang, (served, direct)) in Lang::ALL.into_iter().zip(served.iter().zip(&direct)) {
        if let (Some((served_us, _)), Some((direct_us, _))) =
            (served.samples.round_us(lang), direct.samples.round_us(lang))
        {
            queue_waits.push(served_us - direct_us);
        }
        for op in READ_OPS {
            if let Some(direct_us) = direct.samples.median_us(lang, op) {
                service_s += served.samples.of(lang, op).len() as f64 * direct_us / 1e6;
            }
        }
    }
    if !queue_waits.is_empty() {
        put(metrics, "serve.queue_wait_us", stats::mean(&queue_waits), 0);
    }
    put(
        metrics,
        "serve.worker_busy_ratio",
        service_s / (nproc() as f64 * wall.as_secs_f64()),
        0,
    );

    let (all_spans, actions) = recorder.snapshot();
    let by_label = spans::breakdowns(&all_spans, &actions);
    let traced_round_us = put_core_layers(&by_label, metrics, &mut out.notes);
    let served_round_us: f64 = Lang::ALL
        .into_iter()
        .zip(&served)
        .filter_map(|(lang, ph)| ph.samples.round_us(lang))
        .map(|(us, _)| us)
        .sum();
    put(
        metrics,
        "bench.trace_overhead_ratio",
        traced_round_us / served_round_us,
        0,
    );
    let executes: Vec<f64> = all_spans
        .iter()
        .filter(|s| s.name == "serve.execute")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    if !executes.is_empty() {
        out.notes.push(format!(
            "serve.execute: {} spans, median {:.1} us (recorded on worker threads, so they carry \
             no action)",
            executes.len(),
            stats::median(&executes)
        ));
    }
    let timer_cost = spans::timer_cost_ns();
    out.notes.push(format!(
        "timer cost: one Instant::now pair is {timer_cost:.1} ns; {} spans recorded",
        all_spans.len()
    ));
    if let Some(path) = &cfg.trace_out {
        write_trace(path, "serve_rw", cfg.seed, timer_cost, &all_spans, &actions);
    }
    out
}
