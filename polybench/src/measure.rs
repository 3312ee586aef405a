//! What every workload shares: the run configuration, the failure
//! tally, the sample store, the stopwatch around one operation, and the
//! scan-round loop of the two scan workloads.

use crate::ops::{Op, Output, Params};
use crate::spans::{ActionLabel, Recorder};
use crate::stats;
use crate::stores::{Backend, Lang, System};
use polyframe::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wisconsin rows per dataset. Two datasets per store, four indexes.
/// Sized so that setting up all four stores [`SETUP_REPS`] times, the
/// warm-up rounds and `run_seconds` of timed rounds fit in about 17 s on
/// two cores (the driver makes over a hundred runs), while a scan still
/// spans three executor morsels. Above about 20 000 rows the graph
/// store's join also drifts between a fast and a slow mode inside one
/// process.
pub const ROWS: usize = 12_000;

/// How often a workload builds its stores: `setup_s` is the median, and
/// every build is measured on (see [`each_build`]).
pub const SETUP_REPS: usize = 5;

/// Untimed rounds on every build before the timed ones (the first of
/// them is the cold round): after two executions plan caches are hot and
/// the SQL engine's kernel cache has promoted, so the third execution,
/// the first timed one, runs as every later one does.
pub const WARMUP_ROUNDS: usize = 2;

/// One process's instructions.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Drives the data permutation, the expression literals, every key
    /// stream, the hot set, the serve mix and the ingest batch order.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Rows per dataset ([`ROWS`] outside tests).
    pub rows: usize,
    /// Where the traced run writes its spans, if anywhere.
    pub trace_out: Option<std::path::PathBuf>,
}

impl RunConfig {
    /// The measured phase as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A reported number and how many stopwatch samples are behind it
/// (0 for counts and ratios that are not sample statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the metric's declared unit.
    pub value: f64,
    /// Samples behind a median or percentile.
    pub samples: usize,
}

/// Metric name → value.
pub type Metrics = BTreeMap<String, Measured>;

/// Insert one metric.
pub fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, samples: usize) {
    metrics.insert(name.into(), Measured { value, samples });
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric this run measured.
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Lines for the human reader (unattributed time, tail percentile,
    /// timer cost): printed, not parsed.
    pub notes: Vec<String>,
}

/// Operations attempted, and those that errored, were refused after
/// retries, or returned a wrong result.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those, the ones that failed any check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(describe());
            }
        }
    }

    /// Fold another tally (a reader thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }
}

/// Whether an operation is timed, checked and reported per operation
/// but kept out of every per-round sum (`round_ms.*` and the per-layer
/// sums that are shares of it).
///
/// One is: expression 12, the join, on the graph store. A loaded graph
/// store is in one of two modes — the same join takes 36 ms on one
/// build and 56 ms on the next, eight tight samples each, same process,
/// same data — and which mode comes up follows the machine's memory
/// state, not the code: four of ten processes can sit wholly in the slow
/// mode. Pooling five builds per process did not tame it, so, as issue
/// 11 prescribes, it leaves the sum rather than widen the bound
/// (`benchmark/README.md`, *Noise*).
pub fn left_out_of_rounds(lang: Lang, op_label: &str) -> bool {
    lang == Lang::Cypher && op_label == "e12"
}

/// Nanosecond samples per personality and operation.
#[derive(Debug, Clone)]
pub struct Samples {
    ops: Vec<Op>,
    ns: Vec<Vec<u64>>,
}

impl Samples {
    /// An empty store for `ops` on every personality.
    pub fn new(ops: &[Op]) -> Samples {
        Samples {
            ops: ops.to_vec(),
            ns: vec![Vec::new(); ops.len() * Lang::ALL.len()],
        }
    }

    fn slot(&self, lang: Lang, op: Op) -> usize {
        let at = self
            .ops
            .iter()
            .position(|o| *o == op)
            .expect("sampled op is one of the store's");
        lang.index() * self.ops.len() + at
    }

    /// Add one sample.
    pub fn push(&mut self, lang: Lang, op: Op, ns: u64) {
        let slot = self.slot(lang, op);
        self.ns[slot].push(ns);
    }

    /// The samples of one operation on one personality.
    pub fn of(&self, lang: Lang, op: Op) -> &[u64] {
        &self.ns[self.slot(lang, op)]
    }

    /// Median of one operation in microseconds, if it was sampled.
    pub fn median_us(&self, lang: Lang, op: Op) -> Option<f64> {
        let ns = self.of(lang, op);
        (!ns.is_empty()).then(|| stats::median_ns(ns) / 1e3)
    }

    /// Σ over the operations of their median, in microseconds, with the
    /// smallest per-operation sample count: one *round* on `lang`. An
    /// operation that is [`left_out_of_rounds`] is skipped.
    pub fn round_us(&self, lang: Lang) -> Option<(f64, usize)> {
        let mut sum = 0.0;
        let mut least = usize::MAX;
        let mut any = false;
        for op in &self.ops {
            let ns = self.of(lang, *op);
            if ns.is_empty() || left_out_of_rounds(lang, op.label()) {
                continue;
            }
            any = true;
            sum += stats::median_ns(ns) / 1e3;
            least = least.min(ns.len());
        }
        any.then_some((sum, least))
    }

    /// Fold another store over the same operations into this one.
    pub fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in self.ns.iter_mut().zip(other.ns) {
            mine.extend(theirs);
        }
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.ns.iter().map(Vec::len).sum()
    }
}

/// Run `op` once on `frames`, timed from the first transformation call
/// to the action's result (the paper's expression-only timing point),
/// and check the result outside the stopwatch. With a recorder the
/// transformation chain and the action become spans.
#[allow(clippy::too_many_arguments)]
pub fn run_op(
    frames: &(AFrame, AFrame),
    lang: Lang,
    op: Op,
    params: &Params,
    k: i64,
    rows: usize,
    recorder: Option<&Recorder>,
    tally: &mut Tally,
) -> (u64, Option<Output>) {
    let (df, df2) = frames;
    let (elapsed_ns, result) = match recorder {
        None => {
            let t0 = Instant::now();
            let result = op.build(df, df2, params, k).and_then(|f| op.act(&f));
            (t0.elapsed().as_nanos() as u64, result)
        }
        Some(rec) => {
            let start = rec.begin_action(ActionLabel {
                lang,
                op: op.label(),
                replayed: false,
            });
            let built = op.build(df, df2, params, k);
            rec.record("core.rewrite", start);
            let result = built.and_then(|f| op.act(&f));
            (rec.end_action(), result)
        }
    };
    match result {
        Ok(out) => {
            tally.check(op.is_correct(&out, rows, params, k), || {
                format!(
                    "{}/{}: wrong result {}",
                    lang.name(),
                    op.label(),
                    out.digest()
                )
            });
            (elapsed_ns, Some(out))
        }
        Err(e) => {
            tally.check(false, || format!("{}/{}: {e}", lang.name(), op.label()));
            (elapsed_ns, None)
        }
    }
}

/// Whether `op` is one a system refuses by design: sharded MongoDB
/// cannot `$lookup` across shards (paper section IV.F), so expression
/// 12 there is expected-unsupported and neither attempted nor timed.
pub fn refused_by_design(system: &System, op: Op) -> bool {
    matches!(system.backend, Backend::DocCluster(_)) && op == Op::Expr(12)
}

/// The order personalities take turns in during `round`: reversed on
/// odd rounds, so that neither drift nor a neighbour's cache footprint
/// favours one of them.
pub fn round_order(systems: usize, round: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..systems).collect();
    if round % 2 == 1 {
        order.reverse();
    }
    order
}

/// One round of `ops` (with their keys) over `systems`: personalities
/// interleaved inside the round in [`round_order`]. Returns the round's
/// wall time.
#[allow(clippy::too_many_arguments)]
pub fn read_round(
    systems: &[System],
    frames: &[(AFrame, AFrame)],
    ops: &[Op],
    keys: &[i64],
    params: &Params,
    rows: usize,
    round: usize,
    recorder: Option<&Recorder>,
    mut samples: Option<&mut Samples>,
    tally: &mut Tally,
) -> Duration {
    let order = round_order(systems.len(), round);
    let started = Instant::now();
    for (op, k) in ops.iter().zip(keys) {
        for &i in &order {
            let system = &systems[i];
            if refused_by_design(system, *op) {
                continue;
            }
            let (ns, _) = run_op(
                &frames[i],
                system.lang,
                *op,
                params,
                *k,
                rows,
                recorder,
                tally,
            );
            if let Some(samples) = samples.as_deref_mut() {
                samples.push(system.lang, *op, ns);
            }
        }
    }
    started.elapsed()
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host's core count: sizes reader sessions, workers and shards.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Build a workload's stores [`SETUP_REPS`] times and hand each build to
/// `measure`, which spends its share of the time box on it. Where the
/// allocator put a build's records moves a scan or a sort by up to 30 %
/// from one build (or process) to the next; timing a fifth of the rounds
/// on each of five builds and pooling the samples is the remedy for
/// that. Returns every build's wall time and per-store load times.
pub fn each_build(
    build: impl Fn() -> Vec<System>,
    mut measure: impl FnMut(&[System]),
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut walls = Vec::new();
    let mut loads: Vec<Vec<f64>> = vec![Vec::new(); Lang::ALL.len()];
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let systems = build();
        walls.push(t0.elapsed().as_secs_f64());
        for system in &systems {
            loads[system.lang.index()].push(system.load_s);
        }
        measure(&systems);
        // `systems` drops here: peak memory is one build's.
    }
    (walls, loads)
}

/// The metrics every workload reports the same way.
pub fn put_common(metrics: &mut Metrics, setup_walls: &[f64], loads: &[Vec<f64>]) {
    put(
        metrics,
        "setup_s",
        stats::median(setup_walls),
        setup_walls.len(),
    );
    for lang in Lang::ALL {
        let per_store = &loads[lang.index()];
        if !per_store.is_empty() {
            put(
                metrics,
                format!("setup.load_s.{}", lang.name()),
                stats::median(per_store),
                per_store.len(),
            );
        }
    }
}

/// Record `peak_rss_mb`, once: called when a build's set-up and warm-up
/// are done and its timed rounds are about to begin, the first call
/// counts. It is what the loaded stores and building them cost, and it
/// repeats to a fraction of a percent. (Read at the end of the run it
/// also holds however many snapshot copies `serve_rw` happened to keep
/// alive at once, and spreads by 13 to 26 %; that reading is
/// `run.peak_rss_mb`.)
pub fn put_setup_rss(metrics: &mut Metrics) {
    metrics
        .entry("peak_rss_mb".to_string())
        .or_insert(Measured {
            value: peak_rss_mib(),
            samples: 0,
        });
}
