//! The three read workloads — `wisc_scan`, `wisc_point`, `cluster_scan`
//! — are one loop over different systems and operation lists: rounds of
//! every operation on every personality, closed loop, one client thread.

use crate::layers::{child, layer_us, put_core_layers, write_trace};
use crate::measure::{
    each_build, nproc, put, put_common, put_setup_rss, read_round, refused_by_design, round_order,
    Outcome, RunConfig, Samples, Tally, SETUP_REPS, WARMUP_ROUNDS,
};
use crate::ops::{Op, Params, Rng, EXPRESSIONS, POINT_OPS, RANGE_WIDTH};
use crate::spans::{self, ActionLabel, Probe, ProbeMode, Recorder};
use crate::stats;
use crate::stores::{build_clusters, build_single_node, Backend, Lang, System};
use polyframe::prelude::*;
use polyframe_wisconsin::{generate, WisconsinConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which read workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 13 expressions on the four single-node stores.
    WiscScan,
    /// Four point operations with never-repeated literals, same stores.
    WiscPoint,
    /// The 13 expressions on three clusters (and the unsharded graph
    /// store as the in-process control).
    ClusterScan,
}

/// Keys of the hot set `pt_hot` walks round-robin. Every round also
/// inserts three never-seen texts into each 128-entry LRU plan cache, so
/// a hot text is reused after 16 rounds = 48 insertions and is still
/// cached: `pt_hot` always hits, the other three operations never do.
/// (A 64-key set, as first specified, is pushed out between uses.)
const HOT_KEYS: usize = 16;

/// Fewest rounds of a pass on one build, whatever the time box says.
const MIN_ROUNDS: usize = 2;

/// Rounds of the point workload before timing starts.
const POINT_WARMUP_ROUNDS: usize = 200;

/// Seeded key streams of the point operations. Each stream is a
/// permutation, so a literal comes back only after every other one has
/// been used: a reuse distance of `rows`, far beyond the 128 entries of
/// each store's plan cache.
struct Keys {
    eq: Vec<i64>,
    chain: Vec<i64>,
    range: Vec<i64>,
    hot: Vec<i64>,
}

impl Keys {
    fn new(seed: u64, rows: usize) -> Keys {
        let mut rng = Rng::new(seed ^ 0x706f_696e); // "poin"
        let mut permutation = |n: i64| {
            let mut keys: Vec<i64> = (0..n.max(1)).collect();
            rng.shuffle(&mut keys);
            keys
        };
        let eq = permutation(rows as i64);
        let chain = permutation(rows as i64);
        let range = permutation(rows as i64 - RANGE_WIDTH + 1);
        let hot = permutation(rows as i64)
            .into_iter()
            .take(HOT_KEYS)
            .collect();
        Keys {
            eq,
            chain,
            range,
            hot,
        }
    }

    /// The key each of `ops` uses in `round` (0 for an expression, whose
    /// literals are fixed by the seed).
    fn for_round(&self, ops: &[Op], round: usize) -> Vec<i64> {
        ops.iter()
            .map(|op| match op {
                Op::Expr(_) => 0,
                Op::PtEq => self.eq[round % self.eq.len()],
                Op::PtChain => self.chain[round % self.chain.len()],
                Op::PtRange => self.range[round % self.range.len()],
                Op::PtHot => self.hot[round % self.hot.len()],
            })
            .collect()
    }
}

/// What the passes on every build share.
struct Env<'a> {
    ops: &'a [Op],
    params: Params,
    rows: usize,
    keys: Keys,
    /// Rounds run so far, over all passes: keeps key streams moving
    /// forward and the personality order alternating.
    round: usize,
}

/// The samples of one pass of timed rounds.
struct Pass {
    samples: Samples,
    wall: Duration,
    rounds: usize,
}

impl Env<'_> {
    /// Rounds until `budget` is spent (and at least [`MIN_ROUNDS`]).
    fn timed_rounds(
        &mut self,
        systems: &[System],
        frames: &[(AFrame, AFrame)],
        budget: Duration,
        recorder: Option<&Recorder>,
        tally: &mut Tally,
        mut after_round: impl FnMut(&[Op]),
    ) -> Pass {
        let mut samples = Samples::new(self.ops);
        let mut wall = Duration::ZERO;
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || wall < budget {
            let keys = self.keys.for_round(self.ops, self.round);
            wall += read_round(
                systems,
                frames,
                self.ops,
                &keys,
                &self.params,
                self.rows,
                self.round,
                recorder,
                Some(&mut samples),
                tally,
            );
            after_round(self.ops);
            self.round += 1;
            rounds += 1;
        }
        Pass {
            samples,
            wall,
            rounds,
        }
    }
}

/// `(hits, misses)` of a store's plan cache; clusters expose none.
fn plan_cache_counts(backend: &Backend) -> Option<(u64, u64)> {
    let stats = match backend {
        Backend::Sql(engine) => engine.plan_cache_stats(),
        Backend::Doc(store) => store.plan_cache_stats(),
        Backend::Graph(store) => store.plan_cache_stats(),
        Backend::SqlCluster(_) | Backend::DocCluster(_) => return None,
    };
    Some((stats.hits, stats.misses))
}

/// `(slowest shard, merge)` of every query a cluster ran since the last
/// drain, in query order; empty for a single-node store.
fn drain_cluster_stats(backend: &Backend) -> Vec<(Duration, Duration)> {
    let stats = match backend {
        Backend::SqlCluster(cluster) => cluster.take_stats(),
        Backend::DocCluster(cluster) => cluster.take_stats(),
        _ => return Vec::new(),
    };
    stats
        .into_iter()
        .map(|q| {
            (
                q.shard_times.iter().max().copied().unwrap_or_default(),
                q.merge,
            )
        })
        .collect()
}

/// Ship `captured` straight to the store's public entry, under spans.
fn replay(
    backend: &Backend,
    captured: &spans::Captured,
    recorder: &Recorder,
) -> std::result::Result<usize, String> {
    let target = format!("{}.{}", captured.namespace, captured.collection);
    let text = &captured.query;
    let rows = match backend {
        Backend::Sql(engine) => {
            recorder
                .span("store.compile", || engine.compile_to_physical(text))
                .map_err(|e| e.to_string())?;
            recorder
                .span("store.query", || engine.query(text))
                .map_err(|e| e.to_string())?
        }
        Backend::Doc(store) => recorder
            .span("store.query", || store.aggregate(&target, text))
            .map_err(|e| e.to_string())?,
        Backend::Graph(store) => recorder
            .span("store.query", || store.query(text))
            .map_err(|e| e.to_string())?,
        Backend::SqlCluster(_) | Backend::DocCluster(_) => {
            return Err("a cluster has no single store entry to replay at".to_string())
        }
    };
    Ok(rows.len())
}

/// What the builds of one run add up to.
struct Pooled {
    /// Untraced timed rounds of every build.
    plain: Samples,
    plain_wall: Duration,
    plain_rounds: usize,
    /// Per personality, the cold first round of each build, in ms.
    first_round_ms: Vec<Vec<f64>>,
    /// Per personality, plan-cache `(hits, lookups)` over the untraced
    /// timed rounds.
    cache: Vec<(u64, u64)>,
    /// Per personality and operation: slowest shard and merge of each
    /// traced query, in seconds.
    shard_max: BTreeMap<(Lang, Op), Vec<f64>>,
    merge: BTreeMap<(Lang, Op), Vec<f64>>,
}

/// Cold round, warm-up and this build's share of every pass.
fn measure_build(
    kind: Kind,
    cfg: &RunConfig,
    env: &mut Env,
    systems: &[System],
    recorder: Option<&Arc<Recorder>>,
    pooled: &mut Pooled,
    out: &mut Outcome,
) {
    let ops = env.ops;
    let tally = &mut out.tally;
    let frames: Vec<(AFrame, AFrame)> = systems.iter().map(System::frames).collect();

    // Sharded MongoDB must refuse expression 12: if it ever stops, the
    // exclusion is stale and the run says so.
    for (system, pair) in systems.iter().zip(&frames) {
        if refused_by_design(system, Op::Expr(12)) {
            let attempt = Op::Expr(12)
                .build(&pair.0, &pair.1, &env.params, 0)
                .and_then(|f| Op::Expr(12).act(&f));
            let note = "note: sharded MongoDB ran expression 12; it is still excluded";
            if attempt.is_ok() && !out.notes.iter().any(|n| n == note) {
                out.notes.push(note.to_string());
            }
        }
    }

    // The first round runs cold: empty plan caches, unpromoted kernels.
    let mut cold = Samples::new(ops);
    let keys = env.keys.for_round(ops, env.round);
    read_round(
        systems,
        &frames,
        ops,
        &keys,
        &env.params,
        env.rows,
        env.round,
        None,
        Some(&mut cold),
        tally,
    );
    env.round += 1;
    for system in systems {
        let total_ns: u64 = ops.iter().flat_map(|op| cold.of(system.lang, *op)).sum();
        pooled.first_round_ms[system.lang.index()].push(total_ns as f64 / 1e6);
    }
    // Warm-up. The point workload also touches its whole hot set, so
    // that `pt_hot` finds a cached plan from the first timed round on.
    let warmup_rounds = match kind {
        Kind::WiscPoint => POINT_WARMUP_ROUNDS,
        Kind::WiscScan | Kind::ClusterScan => WARMUP_ROUNDS - 1,
    };
    for _ in 0..warmup_rounds {
        let keys = env.keys.for_round(ops, env.round);
        read_round(
            systems,
            &frames,
            ops,
            &keys,
            &env.params,
            env.rows,
            env.round,
            None,
            None,
            tally,
        );
        env.round += 1;
    }
    if kind == Kind::WiscPoint {
        for hot in env.keys.hot.clone() {
            read_round(
                systems,
                &frames,
                &[Op::PtHot],
                &[hot],
                &env.params,
                env.rows,
                0,
                None,
                None,
                tally,
            );
        }
    }
    for system in systems {
        drain_cluster_stats(&system.backend);
    }
    put_setup_rss(&mut out.metrics);

    // The untraced pass: the whole budget of an untraced run, the first
    // part of a traced one (its samples are the traced pass's baseline).
    let replayable = kind != Kind::ClusterScan;
    let shares: &[f64] = match (cfg.trace, replayable) {
        (false, _) => &[1.0],
        (true, true) => &[0.4, 0.3, 0.3],
        (true, false) => &[0.5, 0.5],
    };
    let budget = |share: f64| cfg.budget().mul_f64(share / SETUP_REPS as f64);
    let caches_before: Vec<_> = systems
        .iter()
        .map(|s| plan_cache_counts(&s.backend))
        .collect();
    let plain = env.timed_rounds(systems, &frames, budget(shares[0]), None, tally, |_| {
        for system in systems {
            drain_cluster_stats(&system.backend);
        }
    });
    for (system, before) in systems.iter().zip(caches_before) {
        if let (Some((h0, m0)), Some((h1, m1))) = (before, plan_cache_counts(&system.backend)) {
            let so_far = &mut pooled.cache[system.lang.index()];
            so_far.0 += h1 - h0;
            so_far.1 += (h1 - h0) + (m1 - m0);
        }
    }
    pooled.plain.absorb(plain.samples);
    pooled.plain_wall += plain.wall;
    pooled.plain_rounds += plain.rounds;
    let Some(recorder) = recorder else {
        return;
    };

    // The traced pass: the same rounds through a recording decorator.
    let probed: Vec<(AFrame, AFrame)> = systems
        .iter()
        .map(|s| {
            System::frames_over(Arc::new(Probe::new(
                Arc::clone(&s.connector),
                Arc::clone(recorder),
                ProbeMode::ClientSide,
            )))
        })
        .collect();
    env.timed_rounds(
        systems,
        &probed,
        budget(shares[1]),
        Some(recorder),
        tally,
        |ops| {
            for system in systems {
                let ran: Vec<Op> = ops
                    .iter()
                    .copied()
                    .filter(|op| !refused_by_design(system, *op))
                    .collect();
                let stats = drain_cluster_stats(&system.backend);
                // One query per action, in operation order.
                if stats.len() != ran.len() {
                    continue;
                }
                for (op, (slowest, merged)) in ran.into_iter().zip(stats) {
                    let key = (system.lang, op);
                    let slowest = slowest.as_secs_f64();
                    pooled.shard_max.entry(key).or_default().push(slowest);
                    pooled
                        .merge
                        .entry(key)
                        .or_default()
                        .push(merged.as_secs_f64());
                }
            }
        },
    );
    if !replayable {
        return;
    }

    // The replay pass: the final text of each operation, captured by a
    // decorator that refuses to run it, shipped to the store's own entry.
    let probes: Vec<Arc<Probe>> = systems
        .iter()
        .map(|s| {
            Arc::new(Probe::new(
                Arc::clone(&s.connector),
                Arc::clone(recorder),
                ProbeMode::CaptureOnly,
            ))
        })
        .collect();
    let capture_frames: Vec<(AFrame, AFrame)> = probes
        .iter()
        .map(|p| System::frames_over(Arc::clone(p) as Arc<dyn DatabaseConnector>))
        .collect();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed() < budget(shares[2]) {
        let keys = env.keys.for_round(ops, env.round);
        let order = round_order(systems.len(), env.round);
        for (op, k) in ops.iter().zip(&keys) {
            for &i in &order {
                let system = &systems[i];
                let (df, df2) = &capture_frames[i];
                // Fails by construction: the probe keeps the request.
                let _ = op.build(df, df2, &env.params, *k).and_then(|f| op.act(&f));
                let Some(captured) = probes[i].take_captured() else {
                    tally.check(false, || {
                        format!("{}/{}: nothing to replay", system.lang.name(), op.label())
                    });
                    continue;
                };
                recorder.begin_action(ActionLabel {
                    lang: system.lang,
                    op: op.label(),
                    replayed: true,
                });
                let replayed = replay(&system.backend, &captured, recorder);
                recorder.end_action();
                tally.check(replayed.is_ok(), || {
                    format!(
                        "{}/{}: replay failed: {replayed:?}",
                        system.lang.name(),
                        op.label()
                    )
                });
            }
        }
        env.round += 1;
        rounds += 1;
    }
}

/// Run one of the read workloads.
pub fn run(cfg: &RunConfig, kind: Kind) -> Outcome {
    let mut out = Outcome::default();
    let mut data = WisconsinConfig::new(cfg.rows);
    data.seed = cfg.seed;
    let records = generate(&data);
    let shards = nproc();
    let ops: &[Op] = match kind {
        Kind::WiscPoint => &POINT_OPS,
        Kind::WiscScan | Kind::ClusterScan => &EXPRESSIONS,
    };
    let per_op_prefix = match kind {
        Kind::WiscPoint => "op_us",
        Kind::WiscScan | Kind::ClusterScan => "expr_us",
    };
    let mut env = Env {
        ops,
        params: Params::seeded(cfg.seed),
        rows: cfg.rows,
        keys: Keys::new(cfg.seed, cfg.rows),
        round: 0,
    };
    let mut pooled = Pooled {
        plain: Samples::new(ops),
        plain_wall: Duration::ZERO,
        plain_rounds: 0,
        first_round_ms: vec![Vec::new(); Lang::ALL.len()],
        cache: vec![(0, 0); Lang::ALL.len()],
        shard_max: BTreeMap::new(),
        merge: BTreeMap::new(),
    };
    let recorder = cfg.trace.then(|| Arc::new(Recorder::new()));

    let (setup_walls, loads) = each_build(
        || match kind {
            Kind::ClusterScan => build_clusters(&records, shards),
            Kind::WiscScan | Kind::WiscPoint => build_single_node(&records),
        },
        |systems| {
            measure_build(
                kind,
                cfg,
                &mut env,
                systems,
                recorder.as_ref(),
                &mut pooled,
                &mut out,
            );
        },
    );

    let metrics = &mut out.metrics;
    put_common(metrics, &setup_walls, &loads);
    let mut plain_round_us = 0.0;
    for lang in Lang::ALL {
        let cold = &pooled.first_round_ms[lang.index()];
        if !cold.is_empty() {
            put(
                metrics,
                format!("first_round_ms.{}", lang.name()),
                stats::median(cold),
                cold.len(),
            );
        }
        let (hits, lookups) = pooled.cache[lang.index()];
        if lookups > 0 {
            let name = match lang {
                Lang::Sqlpp | Lang::Sql => {
                    format!("sqlengine.plan_cache_hit_ratio.{}", lang.name())
                }
                Lang::Mongo => "docstore.plan_cache_hit_ratio".to_string(),
                Lang::Cypher => "graphstore.plan_cache_hit_ratio".to_string(),
            };
            put(
                metrics,
                name,
                hits as f64 / lookups as f64,
                lookups as usize,
            );
        }
        if let Some((round_us, least)) = pooled.plain.round_us(lang) {
            put(
                metrics,
                format!("round_ms.{}", lang.name()),
                round_us / 1e3,
                least,
            );
            plain_round_us += round_us;
        }
        for op in ops {
            if let Some(us) = pooled.plain.median_us(lang, *op) {
                put(
                    metrics,
                    format!("{per_op_prefix}.{}.{}", lang.name(), op.label()),
                    us,
                    pooled.plain.of(lang, *op).len(),
                );
            }
        }
    }
    put(
        metrics,
        "actions_per_s",
        pooled.plain.len() as f64 / pooled.plain_wall.as_secs_f64(),
        pooled.plain.len(),
    );
    out.notes.push(format!(
        "untraced pass: {} rounds on {SETUP_REPS} builds, {} actions in {:.3} s",
        pooled.plain_rounds,
        pooled.plain.len(),
        pooled.plain_wall.as_secs_f64()
    ));
    let Some(recorder) = recorder else {
        return out;
    };

    for (name, scale, per_query) in [
        ("cluster.shard_max_ms", 1e3, &pooled.shard_max),
        ("cluster.merge_us", 1e6, &pooled.merge),
    ] {
        for lang in Lang::ALL {
            let medians: Vec<(f64, usize)> = per_query
                .iter()
                .filter(|((l, _), _)| *l == lang)
                .map(|(_, v)| (stats::median(v), v.len()))
                .collect();
            if let Some(least) = medians.iter().map(|(_, n)| *n).min() {
                let sum: f64 = medians.iter().map(|(m, _)| m).sum();
                put(
                    metrics,
                    format!("{name}.{}", lang.name()),
                    sum * scale,
                    least,
                );
            }
        }
    }
    let (all_spans, actions) = recorder.snapshot();
    let by_label = spans::breakdowns(&all_spans, &actions);
    let traced_round_us = put_core_layers(&by_label, metrics, &mut out.notes);
    for lang in Lang::ALL {
        if let Some((us, n)) = layer_us(&by_label, lang, true, child("store.compile")) {
            put(
                metrics,
                format!("sqlengine.compile_us.{}", lang.name()),
                us,
                n,
            );
        }
        let Some((store_us, n)) = layer_us(&by_label, lang, true, child("store.query")) else {
            continue;
        };
        let name = match lang {
            Lang::Sqlpp | Lang::Sql => format!("sqlengine.exec_us.{}", lang.name()),
            Lang::Mongo => "docstore.aggregate_us".to_string(),
            Lang::Cypher => "graphstore.query_us".to_string(),
        };
        put(metrics, name, store_us, n);
        if let Some((round_us, _)) = pooled.plain.round_us(lang) {
            out.notes.push(format!(
                "store share, {}: the store's own execution is {store_us:.2} us of a \
                 {round_us:.2} us round ({:.1} %)",
                lang.name(),
                100.0 * store_us / round_us
            ));
        }
    }
    if plain_round_us > 0.0 && traced_round_us > 0.0 {
        put(
            metrics,
            "bench.trace_overhead_ratio",
            traced_round_us / plain_round_us,
            0,
        );
    }
    let timer_cost = spans::timer_cost_ns();
    out.notes.push(format!(
        "timer cost: one Instant::now pair is {timer_cost:.1} ns; {} spans recorded",
        all_spans.len()
    ));
    if let Some(path) = &cfg.trace_out {
        let workload = match kind {
            Kind::WiscScan => "wisc_scan",
            Kind::WiscPoint => "wisc_point",
            Kind::ClusterScan => "cluster_scan",
        };
        write_trace(path, workload, cfg.seed, timer_cost, &all_spans, &actions);
    }
    out
}
