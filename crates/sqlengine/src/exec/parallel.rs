//! Morsel-driven intra-query parallelism.
//!
//! HyPer-style morsel execution adapted to PolyFrame's single-node engines:
//! the scan leaf of a pipeline is split into fixed-size slot-range *morsels*
//! (heap slot ranges for `SeqScan`, chunks of a materialized rid list for
//! `IndexScan`), a small pool of `std::thread::scope` workers pulls morsel
//! indexes off a shared atomic counter, runs the compiled batch pipeline
//! (`super::vector`) over each morsel into a per-morsel partial of the
//! blocking terminal (partial aggregation, chunk sort), and the coordinator
//! merges partials **in morsel order** so parallel execution is
//! byte-identical to serial:
//!
//! * plain pipelines concatenate morsel outputs in morsel order — the same
//!   row order a serial scan produces;
//! * aggregates fold each morsel in the terminal's own mode and merge the
//!   accumulator states directly (`AggState::absorb`), the same ordered
//!   group output as the serial path;
//! * sorts stable-sort each chunk and k-way merge with the chunk index as
//!   the tiebreak, reproducing the serial stable sort's tie order;
//! * `LIMIT`-topped streaming pipelines run morsel 0 on the calling
//!   thread first, with batches ramping up from `k` lanes and index rids
//!   pulled from the B-tree only as batches need them; a prefix that
//!   settles the limit answers the query without spawning a thread or
//!   collecting the rest of an index range. Otherwise workers claim
//!   morsels 1.. under a cooperative stop flag and stop once the
//!   already-determined morsel prefix satisfies the limit (see
//!   `LimitGate`);
//! * joins build their hash table (or resolve their inner index) once on
//!   the coordinator and probe per-batch on the vectorized path.
//!
//! Plans that do not decompose this way (nested blocking operators, the
//! index-only fast paths, `VALUES`) and pipelines the batch compiler
//! declines run on the serial row interpreter unchanged, and
//! `TryRunOutcome::Fallback` carries *why* so the trace can report
//! `fallback:<cause>`.

use super::aggregate::{Accumulator, OrdValue};
use super::distinct::DistinctSet;
use super::eval::eval;
use super::join::ValueHashTable;
use super::vector;
use super::{project_row, AggState};
use crate::ast::JoinKind;
use crate::catalog::Database;
use crate::error::{EngineError, Result};
use crate::plan::logical::{AggExpr, AggMode, ProjectSpec, Scalar};
use crate::plan::physical::{DatasetRef, PhysicalPlan};
use polyframe_datamodel::{merge_sorted, Record, SortKey, TopK, Value};
use polyframe_observe::sync::Mutex;
use polyframe_storage::{Direction, RecordId, ScanRange};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Analysis result: `Err` carries the row-path fallback cause.
type AnalyzeResult<T> = std::result::Result<T, &'static str>;
use std::time::{Duration, Instant};

/// Default number of heap slots (or index rids) per morsel.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

pub use polyframe_storage::{DEFAULT_BATCH_ROWS, MAX_BATCH_ROWS};

/// Tuning knobs for query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads used for parallel-safe pipelines. `1` (or `0`)
    /// executes everything single-threaded.
    pub workers: usize,
    /// Heap slots (or index rids) per morsel.
    pub morsel_rows: usize,
    /// Use the vectorized batch path for whitelisted pipeline shapes
    /// (columnar batches + compiled expression programs). Pipelines the
    /// program compiler cannot express fall back to the row path either
    /// way; results are byte-identical.
    pub vectorized: bool,
    /// Rows per column batch on the vectorized path.
    pub batch_rows: usize,
    /// Specialize each compiled pipeline (fused predicate trees, typed
    /// aggregate folds) on the vectorized path.
    /// Off forces the generic per-lane interpreter everywhere — the
    /// ablation baseline and the sweeps' reference for the typed kernels.
    /// Results are byte-identical either way.
    pub specialize: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            workers: available_threads(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            vectorized: true,
            batch_rows: DEFAULT_BATCH_ROWS,
            specialize: true,
        }
    }
}

impl ExecOptions {
    /// Force single-threaded execution (vectorization stays on).
    pub fn serial() -> ExecOptions {
        ExecOptions::with_workers(1)
    }

    /// Single-threaded row-at-a-time execution: the reference path every
    /// other configuration must match byte-for-byte.
    pub fn rowwise() -> ExecOptions {
        ExecOptions {
            workers: 1,
            vectorized: false,
            ..ExecOptions::default()
        }
    }

    /// Parallel execution with exactly `workers` threads.
    pub fn with_workers(workers: usize) -> ExecOptions {
        ExecOptions {
            workers,
            ..ExecOptions::default()
        }
    }
}

/// Worker-thread budget: the `POLYFRAME_THREADS` environment variable when
/// set to a positive integer, otherwise the machine's available
/// parallelism.
///
/// Read **once** and cached for the process lifetime: `ExecOptions`
/// defaults sit on the per-query hot path, and re-reading the
/// environment there is both a needless syscall and racy against
/// `set_var` once multiple serving sessions run queries concurrently.
pub fn available_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        thread_override(std::env::var("POLYFRAME_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

/// Parse a `POLYFRAME_THREADS`-style override (split out of
/// [`available_threads`] so the parsing is testable without touching the
/// process environment).
pub fn thread_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|n| *n >= 1)
}

/// How one plan execution actually ran.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Worker threads used (`1` means a single-threaded path ran).
    pub parallelism: usize,
    /// Per-morsel wall time, indexed by morsel; empty on the serial path.
    pub morsel_times: Vec<Duration>,
    /// Whether the vectorized batch path ran (`false` = row-path
    /// fallback, or vectorization disabled).
    pub vectorized: bool,
    /// Column batches actually processed on the vectorized path (early-exit
    /// `LIMIT` pipelines process fewer than the domain holds).
    pub batches: usize,
    /// Rows per batch cap (0 when the row path ran). Early-exit `LIMIT k`
    /// scans start at `k` lanes and double up to it.
    pub batch_rows: usize,
    /// Time spent compiling expression programs (zero when vectorization
    /// was not attempted).
    pub compile_time: Duration,
    /// Why the vectorized path declined, when it did (`None` when it ran,
    /// or when vectorization was off).
    pub fallback: Option<&'static str>,
    /// Whether the compiled pipeline had a specialized form (fused
    /// predicate trees, typed aggregate fold) and `opts.specialize`
    /// allowed it.
    pub specialized: bool,
    /// Dictionary-encoded string columns built across processed batches.
    pub dict_columns: usize,
    /// Dictionary builds demoted to generic lanes (distinct-value count
    /// overflowed `DICT_CAP`) across processed batches.
    pub dict_demoted: usize,
    /// Rows admitted into bounded top-k heaps, summed over morsels
    /// (`None` unless the batch path ran an `ORDER BY … LIMIT k`).
    pub topk_rows: Option<usize>,
    /// Result rows the batch terminal built (records cloned, projections
    /// assembled, `SELECT VALUE` lanes evaluated), summed over morsels:
    /// an early-exit `LIMIT k` builds at most `k` per morsel, a bounded
    /// sort only the rows its heaps admit. `0` when the row path ran.
    pub rows_built: usize,
}

impl ExecReport {
    /// Report for a serial row-path execution.
    pub fn serial() -> ExecReport {
        ExecReport {
            parallelism: 1,
            ..ExecReport::default()
        }
    }
}

/// What [`try_run`] decided.
pub(super) enum TryRunOutcome {
    /// The batch path ran (successfully or not).
    Ran(Result<(Vec<Value>, ExecReport)>),
    /// The plan has no batch pipeline; the named operator or expression
    /// shape is why. Run the serial row path.
    Fallback(&'static str),
}

/// Row-local operators between the scan leaf and the terminal.
pub(super) enum MorselOp<'p> {
    Filter(&'p Scalar),
    Project(&'p ProjectSpec),
}

/// The scan leaf being partitioned.
enum Leaf<'p> {
    Seq(&'p DatasetRef),
    Index {
        dataset: &'p DatasetRef,
        attr: &'p str,
        range: &'p ScanRange,
        direction: Direction,
    },
}

/// The blocking operator (if any) topping the parallel pipeline.
pub(super) enum Terminal<'p> {
    /// No blocking terminal: concatenate morsel outputs in morsel order.
    Collect,
    /// Per-morsel aggregation in the terminal's own mode, accumulator
    /// states merged by the coordinator.
    Aggregate {
        group_by: &'p [(String, Scalar)],
        aggs: &'p [AggExpr],
        mode: AggMode,
    },
    /// Per-morsel top-k (or stable sort, without a limit), merged by
    /// the coordinator with a bounded k-way merge.
    Sort {
        keys: &'p [(Scalar, bool)],
        topk: Option<u64>,
    },
}

/// The join (if any) sitting between the scan leaf and the row-local ops:
/// the leaf side is probed morsel-by-morsel, the other side materializes
/// once on the coordinator (see [`build_join_runtime`]).
pub(super) struct JoinSpec<'p> {
    /// Key expression over probe rows.
    pub(super) probe_key: &'p Scalar,
    /// Binding name for probe rows in the join output object.
    pub(super) probe_binding: &'p str,
    /// Binding name for build rows in the join output object.
    pub(super) build_binding: &'p str,
    /// Filters under the join on the probe side (no projections: the probe
    /// row must stay the scanned record for the key and pair).
    pub(super) probe_ops: Vec<MorselOp<'p>>,
    pub(super) variant: JoinVariantSpec<'p>,
}

pub(super) enum JoinVariantSpec<'p> {
    /// `PhysicalPlan::HashJoin`: build the right side eagerly, probe the
    /// left.
    Hash {
        build: &'p PhysicalPlan,
        build_key: &'p Scalar,
        left: bool,
    },
    /// `PhysicalPlan::IndexNLJoin`: probe the inner index per outer row.
    IndexNl { inner: &'p (DatasetRef, String) },
}

/// A parallel-safe decomposition of a physical plan.
pub(super) struct ParallelPlan<'p> {
    /// Projections sitting *above* the blocking terminal, outermost first;
    /// applied per result row after the merge.
    post: Vec<&'p ProjectSpec>,
    pub(super) terminal: Terminal<'p>,
    /// Row-local ops between the join (or leaf) and the terminal, in
    /// application order.
    pub(super) ops: Vec<MorselOp<'p>>,
    pub(super) join: Option<JoinSpec<'p>>,
    leaf: Leaf<'p>,
    /// Peeled outermost `LIMIT`.
    limit: Option<usize>,
    /// Peeled `DISTINCT` (under the limit, above everything else).
    distinct: bool,
}

impl ParallelPlan<'_> {
    /// The limit, when satisfying it may stop the scan early: only a
    /// streaming (`Collect`) pipeline without `DISTINCT` reproduces the
    /// row path's `take(n)` — blocking terminals materialize their whole
    /// input first, so every row (and error) beyond the limit still
    /// matters there.
    pub(super) fn early_exit_limit(&self) -> Option<usize> {
        match (&self.terminal, self.distinct) {
            (Terminal::Collect, false) => self.limit,
            _ => None,
        }
    }

    /// Whether the terminal is a sort with a row budget.
    fn bounded_sort(&self) -> bool {
        matches!(self.terminal, Terminal::Sort { topk: Some(_), .. })
    }
}

/// What one worker hands back for one morsel.
pub(super) enum MorselOut {
    /// Result rows (plain pipelines).
    Rows(Vec<Value>),
    /// A sorted chunk of `(sort key, row)` pairs.
    Keyed(Vec<(Vec<SortKey>, Value)>),
    /// Rows collected under an early-exit limit, with the morsel's first
    /// error *after* those rows (the sink stops at whichever comes first).
    Limited {
        rows: Vec<Value>,
        err: Option<EngineError>,
    },
    /// One morsel's aggregate accumulator states.
    Agg(super::AggParts),
}

/// Decompose `plan` into a parallel-safe shape; `Err` carries the
/// fallback-cause label for the trace.
fn analyze(plan: &PhysicalPlan) -> AnalyzeResult<ParallelPlan<'_>> {
    // Peel the outermost LIMIT and a DISTINCT under it; both re-apply at
    // the coordinator (or, for streaming pipelines, the limit gates the
    // scan itself).
    let mut node = plan;
    let mut limit = None;
    if let PhysicalPlan::Limit { input, n } = node {
        limit = Some(*n as usize);
        node = input;
    }
    let mut distinct = false;
    if let PhysicalPlan::Distinct { input } = node {
        distinct = true;
        node = input;
    }
    let top = node;
    // Peel projections off the top; they re-apply per row after the merge.
    let mut post = Vec::new();
    while let PhysicalPlan::Project { input, spec } = node {
        post.push(spec);
        node = input;
    }
    match node {
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            mode,
        } => {
            let (ops, join, leaf) = pipeline(input)?;
            Ok(ParallelPlan {
                post,
                terminal: Terminal::Aggregate {
                    group_by,
                    aggs,
                    mode: *mode,
                },
                ops,
                join,
                leaf,
                limit,
                distinct,
            })
        }
        PhysicalPlan::Sort { input, keys, topk } => {
            let (ops, join, leaf) = pipeline(input)?;
            Ok(ParallelPlan {
                post,
                terminal: Terminal::Sort { keys, topk: *topk },
                ops,
                join,
                leaf,
                limit,
                distinct,
            })
        }
        _ => {
            // No blocking terminal: every operator (including the peeled
            // projections) is row-local, so re-walk from under the
            // limit/distinct peel.
            let (ops, join, leaf) = pipeline(top)?;
            Ok(ParallelPlan {
                post: Vec::new(),
                terminal: Terminal::Collect,
                ops,
                join,
                leaf,
                limit,
                distinct,
            })
        }
    }
}

/// Collect the row-local operator chain (and at most one join) down to a
/// partitionable scan leaf.
#[allow(clippy::type_complexity)]
fn pipeline(
    plan: &PhysicalPlan,
) -> AnalyzeResult<(Vec<MorselOp<'_>>, Option<JoinSpec<'_>>, Leaf<'_>)> {
    let mut ops = Vec::new();
    let mut node = plan;
    loop {
        match node {
            PhysicalPlan::Filter { input, predicate } => {
                ops.push(MorselOp::Filter(predicate));
                node = input;
            }
            PhysicalPlan::Project { input, spec } => {
                ops.push(MorselOp::Project(spec));
                node = input;
            }
            PhysicalPlan::SeqScan { dataset } => {
                ops.reverse();
                return Ok((ops, None, Leaf::Seq(dataset)));
            }
            PhysicalPlan::IndexScan {
                dataset,
                attr,
                range,
                direction,
            } => {
                ops.reverse();
                return Ok((
                    ops,
                    None,
                    Leaf::Index {
                        dataset,
                        attr,
                        range,
                        direction: *direction,
                    },
                ));
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_key,
                right_key,
                left_binding,
                right_binding,
                kind,
            } => {
                // Build on the right, probe (= partition) on the left.
                let (probe_ops, leaf) = probe_side(left, "hash_join")?;
                ops.reverse();
                return Ok((
                    ops,
                    Some(JoinSpec {
                        probe_key: left_key,
                        probe_binding: left_binding,
                        build_binding: right_binding,
                        probe_ops,
                        variant: JoinVariantSpec::Hash {
                            build: right,
                            build_key: right_key,
                            left: *kind == JoinKind::Left,
                        },
                    }),
                    leaf,
                ));
            }
            PhysicalPlan::IndexNLJoin {
                outer,
                outer_key,
                inner,
                outer_binding,
                inner_binding,
            } => {
                let (probe_ops, leaf) = probe_side(outer, "index_nl_join")?;
                ops.reverse();
                return Ok((
                    ops,
                    Some(JoinSpec {
                        probe_key: outer_key,
                        probe_binding: outer_binding,
                        build_binding: inner_binding,
                        probe_ops,
                        variant: JoinVariantSpec::IndexNl { inner },
                    }),
                    leaf,
                ));
            }
            // Nested blocking operators under a row-local chain.
            PhysicalPlan::Aggregate { .. } => return Err("aggregate"),
            PhysicalPlan::Sort { .. } => return Err("sort"),
            PhysicalPlan::Limit { .. } => return Err("limit"),
            PhysicalPlan::Distinct { .. } => return Err("distinct"),
            PhysicalPlan::Values { .. } => return Err("values"),
            // The index-only fast paths never touch the heap; there is
            // nothing to partition or batch.
            _ => return Err("index_only"),
        }
    }
}

/// The probe side of a join must be a filter chain over a scan leaf:
/// probe rows have to stay whole scanned records (the key expression and
/// the output pair both reference the record), and a second join would
/// need its own build. `cause` names the join that falls back otherwise.
fn probe_side<'p>(
    plan: &'p PhysicalPlan,
    cause: &'static str,
) -> AnalyzeResult<(Vec<MorselOp<'p>>, Leaf<'p>)> {
    let mut ops = Vec::new();
    let mut node = plan;
    loop {
        match node {
            PhysicalPlan::Filter { input, predicate } => {
                ops.push(MorselOp::Filter(predicate));
                node = input;
            }
            PhysicalPlan::SeqScan { dataset } => {
                ops.reverse();
                return Ok((ops, Leaf::Seq(dataset)));
            }
            PhysicalPlan::IndexScan {
                dataset,
                attr,
                range,
                direction,
            } => {
                ops.reverse();
                return Ok((
                    ops,
                    Leaf::Index {
                        dataset,
                        attr,
                        range,
                        direction: *direction,
                    },
                ));
            }
            _ => return Err(cause),
        }
    }
}

/// Materialize the non-partitioned side of the join: drain the build
/// stream into a [`ValueHashTable`] (hash join) or resolve the inner
/// table + index (index nested-loop). Runs *before* the probe table
/// resolves — the row path drains the build side during stream
/// construction, so build errors outrank probe-side resolution errors.
fn build_join_runtime<'q>(
    db: &'q Database,
    spec: &JoinSpec<'q>,
) -> Result<vector::JoinRuntime<'q>> {
    match &spec.variant {
        JoinVariantSpec::Hash {
            build, build_key, ..
        } => {
            let mut table = ValueHashTable::new();
            // Bare-scan build with a plain field key: keep heap references
            // instead of cloning every build record into the runtime (the
            // generic stream below materializes each row as a `Value`).
            if let PhysicalPlan::SeqScan { dataset } = build {
                if let Scalar::Field(f) | Scalar::BindingRef(f) = build_key {
                    let t = db.dataset(&dataset.namespace, &dataset.dataset)?;
                    let mut refs: Vec<&Record> = Vec::new();
                    let mut hint = 0usize;
                    for (_, rec) in t.heap().scan() {
                        // The row path skips unknown build keys.
                        match rec.get_hinted(f, &mut hint) {
                            Some(key) if !key.is_unknown() => {
                                table.insert(key.clone(), refs.len() as u32);
                                refs.push(rec);
                            }
                            _ => {}
                        }
                    }
                    return Ok(vector::JoinRuntime::Hash {
                        table,
                        rows: vector::BuildRows::Records(refs),
                    });
                }
            }
            let mut rows: Vec<Value> = Vec::new();
            for row in super::Executor::new(db).stream(build)? {
                let row = row?;
                let key = eval(build_key, &row)?;
                // The row path skips unknown build keys before the table.
                if key.is_unknown() {
                    continue;
                }
                table.insert(key, rows.len() as u32);
                rows.push(row);
            }
            Ok(vector::JoinRuntime::Hash {
                table,
                rows: vector::BuildRows::Owned(rows),
            })
        }
        JoinVariantSpec::IndexNl { inner } => {
            let table = db.dataset(&inner.0.namespace, &inner.0.dataset)?;
            let index = table.index_on(&inner.1).ok_or_else(|| {
                EngineError::exec(format!("no index on attribute {} (planner bug)", inner.1))
            })?;
            Ok(vector::JoinRuntime::IndexNl { table, index })
        }
    }
}

/// Cooperative early exit for `LIMIT` pipelines that fan out: morsel 0
/// ran on the calling thread without settling the limit and is recorded
/// first; workers then record each completed morsel's row count (or
/// `usize::MAX` for an error), and the gate latches `done` once the
/// *contiguous prefix* of recorded morsels determines the query outcome —
/// enough rows collected, or an error that fires before the limit fills.
/// Morsel claims come off a sequential counter, so claimed morsels always
/// form a prefix and the scan stops without evaluating (or erroring on)
/// rows the serial `take(n)` would never have pulled.
struct LimitGate {
    n: usize,
    done: AtomicBool,
    outcomes: Mutex<Vec<Option<usize>>>,
}

impl LimitGate {
    fn new(n: usize, morsels: usize) -> LimitGate {
        LimitGate {
            n,
            // LIMIT 0 needs no rows at all.
            done: AtomicBool::new(n == 0),
            outcomes: Mutex::new(vec![None; morsels]),
        }
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// Record morsel `i`'s outcome: surviving row count, or `usize::MAX`
    /// when the morsel hit an error before its own collection satisfied
    /// the limit.
    fn record(&self, i: usize, outcome: usize) {
        let mut outcomes = self.outcomes.lock();
        outcomes[i] = Some(outcome);
        let mut total = 0usize;
        for o in outcomes.iter() {
            match o {
                // An unfinished earlier morsel: outcome still open.
                None => return,
                // An error inside the determined prefix settles the query
                // either way (it fires, or enough rows precede it — the
                // merge walk decides which).
                Some(usize::MAX) => break,
                Some(rows) => {
                    total += rows;
                    if total >= self.n {
                        break;
                    }
                }
            }
        }
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Try to run `plan` on the vectorized batch path, morsel-parallel when
/// `opts` and the scan domain allow. The pipeline compiles — and, unless
/// `opts.specialize` is off, specializes — once per execution; both are
/// pure functions of the plan.
pub(super) fn try_run(db: &Database, plan: &PhysicalPlan, opts: &ExecOptions) -> TryRunOutcome {
    use TryRunOutcome::{Fallback, Ran};
    let pp = match analyze(plan) {
        Ok(pp) => pp,
        Err(cause) => return Fallback(cause),
    };
    // Compile the pipeline's scalar expressions into batch programs; an
    // unsupported shape names the fallback cause. `spec == None` simply
    // means generic kernels.
    let started = Instant::now();
    let vp = match vector::compile(&pp) {
        Ok(vp) => vp,
        Err(cause) => return Fallback(cause),
    };
    let spec = if opts.specialize {
        vector::specialize(&vp)
    } else {
        None
    };
    let compile_time = started.elapsed();

    // The join's build side materializes before the probe table resolves
    // (row-path error order: the build stream drains during stream
    // construction).
    let rt = match &pp.join {
        Some(spec) => match build_join_runtime(db, spec) {
            Ok(rt) => Some(rt),
            Err(e) => return Ran(Err(e)),
        },
        None => None,
    };

    let dataset = match pp.leaf {
        Leaf::Seq(ds) => ds,
        Leaf::Index { dataset, .. } => dataset,
    };
    let table = match db.dataset(&dataset.namespace, &dataset.dataset) {
        Ok(t) => t,
        // The serial path would fail identically; surface the error here.
        Err(e) => return Ran(Err(e)),
    };

    let step = opts.morsel_rows.max(1);
    let batch_rows = opts.batch_rows.clamp(1, MAX_BATCH_ROWS);
    let early = pp.early_exit_limit();
    let num_slots = table.heap().num_slots();
    let rt = rt.as_ref();
    let spec = spec.as_ref();
    let finish = |sink, stats| finish_serial(sink, stats, &pp, spec, batch_rows, compile_time);

    // The index leaf's rids, in index order: one B-tree walk, pulled
    // lazily so a limit the prefix settles never collects the range.
    let mut index_rids = match &pp.leaf {
        Leaf::Seq(_) => None,
        Leaf::Index {
            attr,
            range,
            direction,
            ..
        } => match table.index_on(attr) {
            Some(index) => Some(index.scan(range, *direction).map(|(_, rid)| rid)),
            None => {
                return Ran(Err(EngineError::exec(format!(
                    "no index on attribute {attr} (planner bug)"
                ))))
            }
        },
    };

    // Calling-thread prefix: under an early-exit limit, morsel 0 runs here
    // before any worker exists, its batches ramping up from `k` lanes. A
    // prefix that settles the limit (enough rows, or an error first)
    // answers the query without a thread or the rest of the rid list.
    let mut head = None;
    if let Some(n) = early {
        let started = Instant::now();
        let mut sink = MorselSink::new(&pp.terminal, early);
        let mut prefix_rids = index_rids.as_mut().map(|it| it.by_ref().take(step));
        let domain = match prefix_rids.as_mut() {
            Some(it) => vector::Domain::Rids(it),
            None => vector::Domain::Slots(0, step.min(num_slots)),
        };
        let stats =
            match vector::run_range(table, domain, &vp, rt, spec, batch_rows, n, &mut sink, None) {
                Ok(stats) => stats,
                Err(e) => return Ran(Err(e)),
            };
        if sink.satisfied() {
            return Ran(finish(sink, stats));
        }
        head = Some((sink, stats, started.elapsed()));
    }

    // The rest of the domain: heap slots past the prefix, or the index
    // rids the prefix left (the whole range without one). Those rids are
    // collected only when workers may fan out, because their exact count
    // budgets the workers; a single-worker engine streams them on.
    let rids: Option<Vec<RecordId>> = match index_rids.as_mut() {
        Some(it) if opts.workers > 1 => Some(it.collect()),
        _ => None,
    };
    let (lo, hi) = match (&rids, &index_rids, &head) {
        (Some(r), _, _) => (0, r.len()),
        // Streamed rids: one worker, so no ranges to hand out.
        (None, Some(_), _) => (0, 0),
        (None, None, Some(_)) => (step.min(num_slots), num_slots),
        (None, None, None) => (0, num_slots),
    };
    let ranges: Vec<(usize, usize)> = (lo..hi)
        .step_by(step)
        .map(|lo| (lo, (lo + step).min(hi)))
        .collect();
    // Worker budgeting: the live rows justify at most one worker per
    // *full* morsel they fill, so a domain whose tail range is mostly
    // padding stops paying thread setup for workers that would claim
    // almost no work. An index domain counts its rids exactly (the prefix
    // pulled a whole morsel when it did not settle); a heap domain takes
    // the statistics snapshot's live-row estimate, and when the stats
    // report nothing (counters not yet populated) the range count alone
    // decides.
    let live = match &rids {
        Some(r) => r.len() + if head.is_some() { step } else { 0 },
        None => table.stats().record_count(),
    };
    let worker_budget = if live > 0 {
        (live / step).max(1)
    } else {
        ranges.len().max(1)
    };
    if opts.workers <= 1 || ranges.len() < 2 || worker_budget <= 1 {
        // Not enough work (or threads) to parallelize: run vectorized,
        // single-threaded over the rest of the domain, continuing the
        // prefix's sink when there is one (with the limit stopping the
        // scan early).
        let (mut sink, mut stats) = match head {
            Some((sink, stats, _)) => (sink, stats),
            None => (
                MorselSink::new(&pp.terminal, early),
                vector::RangeStats::default(),
            ),
        };
        let mut listed = rids.iter().flatten().copied();
        let domain = match (&rids, index_rids.as_mut()) {
            (Some(_), _) => vector::Domain::Rids(&mut listed),
            (None, Some(streamed)) => vector::Domain::Rids(streamed),
            (None, None) => vector::Domain::Slots(lo, hi),
        };
        match vector::run_range(
            table, domain, &vp, rt, spec, batch_rows, batch_rows, &mut sink, None,
        ) {
            Ok(more) => stats.absorb(more),
            Err(e) => return Ran(Err(e)),
        }
        return Ran(finish(sink, stats));
    }

    // Fan out. The prefix, when it ran, is morsel 0 of the gate and of the
    // merge walk; workers claim the remaining ranges as morsels 1.. off a
    // sequential counter, so claimed morsels still form a prefix.
    let offset = usize::from(head.is_some());
    let gate = early.map(|n| LimitGate::new(n, offset + ranges.len()));
    let workers = opts.workers.min(ranges.len()).min(worker_budget);
    let next = AtomicUsize::new(0);
    type MorselResult = Result<(MorselOut, vector::RangeStats)>;
    let results: Mutex<Vec<(usize, Duration, MorselResult)>> =
        Mutex::new(Vec::with_capacity(offset + ranges.len()));
    if let Some((sink, stats, elapsed)) = head {
        let out = sink.finish();
        if let (Some(g), MorselOut::Limited { rows, .. }) = (&gate, &out) {
            // An unsettled prefix: no error, fewer than `n` rows.
            g.record(0, rows.len());
        }
        results.lock().push((0, elapsed, Ok((out, stats))));
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if gate.as_ref().is_some_and(LimitGate::is_done) {
                    break;
                }
                let claim = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(lo, hi)) = ranges.get(claim) else {
                    break;
                };
                let i = offset + claim;
                let started = Instant::now();
                let mut sink = MorselSink::new(&pp.terminal, early);
                let mut chunk = rids.iter().flat_map(|r| &r[lo..hi]).copied();
                let domain = match &rids {
                    Some(_) => vector::Domain::Rids(&mut chunk),
                    None => vector::Domain::Slots(lo, hi),
                };
                let out = vector::run_range(
                    table,
                    domain,
                    &vp,
                    rt,
                    spec,
                    batch_rows,
                    batch_rows,
                    &mut sink,
                    gate.as_ref().map(|g| &g.done),
                )
                .map(|stats| (sink.finish(), stats));
                if let Some(g) = &gate {
                    match &out {
                        Ok((MorselOut::Limited { rows, err }, _)) => g.record(
                            i,
                            if err.is_some() {
                                usize::MAX
                            } else {
                                rows.len()
                            },
                        ),
                        Ok(_) => {}
                        Err(_) => g.record(i, usize::MAX),
                    }
                }
                results.lock().push((i, started.elapsed(), out));
            });
        }
    });
    let mut per_morsel = std::mem::take(&mut *results.lock());
    // Claims come off a sequential counter, so the completed morsels are a
    // contiguous prefix of the domain (shorter than `ranges` when the
    // limit gate stopped the scan).
    per_morsel.sort_by_key(|(i, _, _)| *i);

    let mut morsel_times = Vec::with_capacity(per_morsel.len());
    let mut parts = Vec::with_capacity(per_morsel.len());
    let mut stats = vector::RangeStats::default();
    for (_, elapsed, out) in per_morsel {
        morsel_times.push(elapsed);
        match out {
            Ok((part, s)) => {
                parts.push(part);
                stats.absorb(s);
            }
            // First error in morsel order, so failures are deterministic.
            Err(e) => return Ran(Err(e)),
        }
    }

    Ran(merge(parts, &pp).map(|rows| {
        (
            rows,
            ExecReport {
                parallelism: workers,
                morsel_times,
                ..report(&stats, &pp, spec, batch_rows, compile_time)
            },
        )
    }))
}

/// The batch path's report for `stats`, single-threaded unless the caller
/// overrides the parallelism and morsel times.
fn report(
    stats: &vector::RangeStats,
    pp: &ParallelPlan<'_>,
    spec: Option<&vector::KernelPlan>,
    batch_rows: usize,
    compile_time: Duration,
) -> ExecReport {
    ExecReport {
        parallelism: 1,
        morsel_times: Vec::new(),
        vectorized: true,
        batches: stats.batches,
        batch_rows,
        compile_time,
        fallback: None,
        specialized: spec.is_some(),
        dict_columns: stats.dict_columns,
        dict_demoted: stats.dict_demoted,
        topk_rows: pp.bounded_sort().then_some(stats.topk_rows),
        rows_built: stats.rows_built,
    }
}

/// Finish a single-threaded run: one sink fed over the whole scan domain,
/// in the terminal's own aggregate mode, so the output is the serial
/// path's, batch-produced.
fn finish_serial(
    sink: MorselSink<'_>,
    stats: vector::RangeStats,
    pp: &ParallelPlan<'_>,
    spec: Option<&vector::KernelPlan>,
    batch_rows: usize,
    compile_time: Duration,
) -> Result<(Vec<Value>, ExecReport)> {
    let rows = match sink {
        MorselSink::Collect { rows, err, .. } => {
            // A recorded error implies the limit never filled (the sink
            // stops at whichever comes first), so it fires.
            if let Some(e) = err {
                return Err(e);
            }
            rows
        }
        MorselSink::Aggregate(state) => state.finish(),
        // One whole-domain "chunk": its top-k (or stable sort) *is* the
        // serial sort here.
        MorselSink::Sort(sorted) => sorted.into_sorted_items(),
    };
    let rows = finalize_rows(rows, pp)?;
    Ok((rows, report(&stats, pp, spec, batch_rows, compile_time)))
}

/// The per-morsel part of the terminal, fed by the batch pipeline: result
/// rows, pre-keyed sort rows, or pre-evaluated aggregate arguments.
pub(super) enum MorselSink<'p> {
    Collect {
        rows: Vec<Value>,
        /// Early-exit limit; `None` collects everything.
        limit: Option<usize>,
        /// First error under an early-exit limit (recorded, not raised:
        /// whether it fires depends on how many rows precede it
        /// globally).
        err: Option<EngineError>,
    },
    Aggregate(AggState<'p>),
    /// Keyed rows in the top-k kernel, bounded by the terminal's limit.
    Sort(TopK<Vec<SortKey>, Value>),
}

impl<'p> MorselSink<'p> {
    fn new(terminal: &Terminal<'p>, limit: Option<usize>) -> MorselSink<'p> {
        match terminal {
            Terminal::Collect => MorselSink::Collect {
                rows: Vec::new(),
                limit,
                err: None,
            },
            Terminal::Aggregate {
                group_by,
                aggs,
                mode,
            } => MorselSink::Aggregate(AggState::new(group_by, aggs, *mode)),
            Terminal::Sort { topk, .. } => MorselSink::Sort(TopK::new(topk.map(|k| k as usize))),
        }
    }

    /// Rows still wanted under an early-exit limit (`None` without one).
    pub(super) fn wanted(&self) -> Option<usize> {
        match self {
            MorselSink::Collect {
                rows,
                limit: Some(n),
                ..
            } => Some(n.saturating_sub(rows.len())),
            _ => None,
        }
    }

    /// True once an early-exit limit needs no further input: enough rows
    /// collected, or an error recorded (which settles this morsel's
    /// contribution either way).
    pub(super) fn satisfied(&self) -> bool {
        match self {
            MorselSink::Collect {
                rows,
                limit: Some(n),
                err,
            } => err.is_some() || rows.len() >= *n,
            _ => false,
        }
    }

    /// Record the first error under an early-exit limit.
    pub(super) fn record_err(&mut self, e: EngineError) {
        if let MorselSink::Collect { err, .. } = self {
            if err.is_none() {
                *err = Some(e);
            }
        }
    }

    /// The sort sink's top-k kernel (the vectorized path evaluates sort
    /// keys with batch programs, then builds a lane's row only when the
    /// kernel admits its key).
    pub(super) fn sorted(&mut self) -> &mut TopK<Vec<SortKey>, Value> {
        match self {
            MorselSink::Sort(sorted) => sorted,
            _ => unreachable!("top-k access on a non-sort sink"),
        }
    }

    /// Rows admitted into a bounded top-k heap (`0` for every other
    /// sink, unbounded sorts included).
    pub(super) fn topk_rows(&self) -> usize {
        match self {
            MorselSink::Sort(sorted) if sorted.is_bounded() => sorted.admitted(),
            _ => 0,
        }
    }

    /// Borrow the scalar accumulators for the fused typed aggregate fold
    /// (`None` unless this is a scalar-update aggregation sink — see
    /// [`super::AggState::typed_fold_accs`]). A `Some` return marks the
    /// aggregate state non-empty, so callers must have at least one
    /// surviving lane to fold.
    pub(super) fn fused_accs(&mut self) -> Option<&mut [Accumulator]> {
        match self {
            MorselSink::Aggregate(state) => state.typed_fold_accs(),
            _ => None,
        }
    }

    /// Fold pre-evaluated group key + aggregate arguments (the vectorized
    /// path evaluates both with batch programs). `args[i] == None` is
    /// `COUNT(*)`; a truncated slice updates only the leading
    /// accumulators (used to reproduce row-order error precedence).
    pub(super) fn push_agg(&mut self, key: Vec<OrdValue>, args: &[Option<&Value>]) -> Result<()> {
        match self {
            MorselSink::Aggregate(state) => state.push_values(key, args),
            _ => unreachable!("aggregate push on a non-aggregate sink"),
        }
    }

    /// Push one result row of a plain (`Collect`) pipeline.
    pub(super) fn push(&mut self, row: Value) {
        match self {
            MorselSink::Collect { rows, .. } => rows.push(row),
            _ => unreachable!("row push on a non-collect sink"),
        }
    }

    pub(super) fn finish(self) -> MorselOut {
        match self {
            MorselSink::Collect {
                rows,
                limit: Some(_),
                err,
            } => MorselOut::Limited { rows, err },
            MorselSink::Collect { rows, .. } => MorselOut::Rows(rows),
            MorselSink::Aggregate(state) => MorselOut::Agg(state.into_parts()),
            // Key order with ties in scan order, like the serial sort;
            // rows past the top-k of any chunk cannot reach the global
            // top-k, so a bounded chunk holds at most k rows.
            MorselSink::Sort(sorted) => MorselOut::Keyed(sorted.into_sorted()),
        }
    }
}

/// Merge per-morsel outputs (in morsel order) into the final row set.
fn merge(parts: Vec<MorselOut>, pp: &ParallelPlan<'_>) -> Result<Vec<Value>> {
    if let Some(n) = pp.early_exit_limit() {
        // Replay the serial `take(n)`: rows in morsel (= scan) order until
        // the limit fills; a morsel's recorded error fires only if it is
        // reached first. Morsels past the determining prefix may hold
        // partial (aborted) output, but the walk never reaches them.
        let mut out = Vec::new();
        for part in parts {
            let MorselOut::Limited { rows, err } = part else {
                continue;
            };
            for row in rows {
                if out.len() >= n {
                    return Ok(out);
                }
                out.push(row);
            }
            if out.len() >= n {
                break;
            }
            if let Some(e) = err {
                return Err(e);
            }
        }
        out.truncate(n);
        return Ok(out);
    }
    let rows = match &pp.terminal {
        Terminal::Collect => {
            let mut out = Vec::new();
            for part in parts {
                if let MorselOut::Rows(r) = part {
                    out.extend(r);
                }
            }
            out
        }
        Terminal::Aggregate {
            group_by,
            aggs,
            mode,
        } => {
            // Fold every morsel's accumulator states into one state in the
            // terminal's own mode — the columnar-side final-aggregate
            // merge (no partial-row round trip).
            let mut state = AggState::new(group_by, aggs, *mode);
            for part in parts {
                if let MorselOut::Agg(p) = part {
                    state.absorb(p);
                }
            }
            state.finish()
        }
        Terminal::Sort { topk, .. } => {
            let chunks: Vec<Vec<(Vec<SortKey>, Value)>> = parts
                .into_iter()
                .map(|p| match p {
                    MorselOut::Keyed(c) => c,
                    _ => Vec::new(),
                })
                .collect();
            // Chunks arrive in morsel (= scan) order, so the merge's
            // chunk-index tiebreak is the serial stable order.
            merge_sorted(chunks, topk.map(|k| k as usize))
        }
    };
    finalize_rows(rows, pp)
}

/// Re-apply the peeled post-terminal operators: projections (innermost
/// first), DISTINCT, then the limit. A limit without DISTINCT truncates
/// *before* projecting — the row path's lazy `take(n)` never projects
/// (or errors on) rows past the limit, and projections are 1:1.
fn finalize_rows(mut rows: Vec<Value>, pp: &ParallelPlan<'_>) -> Result<Vec<Value>> {
    if !pp.distinct {
        if let Some(n) = pp.limit {
            rows.truncate(n);
        }
    }
    for spec in pp.post.iter().rev() {
        rows = rows
            .into_iter()
            .map(|r| project_row(spec, &r))
            .collect::<Result<Vec<Value>>>()?;
    }
    if pp.distinct {
        let mut set = DistinctSet::new();
        rows.retain(|r| set.insert(r));
        if let Some(n) = pp.limit {
            rows.truncate(n);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_parsing() {
        assert_eq!(thread_override(Some("4")), Some(4));
        assert_eq!(thread_override(Some(" 8 ")), Some(8));
        assert_eq!(thread_override(Some("0")), None);
        assert_eq!(thread_override(Some("lots")), None);
        assert_eq!(thread_override(None), None);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn env_tuning_is_read_once_and_cached() {
        // Regression: the thread budget used to re-read the environment
        // on every query, so a mid-run `set_var` silently changed
        // execution behaviour (and raced against concurrent sessions).
        // Prime the cache, then show later environment changes are
        // ignored.
        let threads = available_threads();
        std::env::set_var("POLYFRAME_THREADS", "1");
        assert_eq!(available_threads(), threads);
        std::env::remove_var("POLYFRAME_THREADS");
        let opts = ExecOptions::default();
        assert_eq!(opts.workers, threads);
        assert_eq!(opts.batch_rows, DEFAULT_BATCH_ROWS);
    }

    #[test]
    fn exec_option_presets() {
        let rowwise = ExecOptions::rowwise();
        assert_eq!(rowwise.workers, 1);
        assert!(!rowwise.vectorized);
        let serial = ExecOptions::serial();
        assert_eq!(serial.workers, 1);
        assert!(serial.vectorized);
    }

    #[test]
    fn sort_key_directions() {
        let a = SortKey::Asc(Value::Int(1));
        let b = SortKey::Asc(Value::Int(2));
        assert!(a < b);
        let a = SortKey::Desc(Value::Int(1));
        let b = SortKey::Desc(Value::Int(2));
        assert!(b < a);
    }

    #[test]
    fn kway_merge_is_stable_across_chunks() {
        let key = |k: i64| vec![SortKey::Asc(Value::Int(k))];
        let chunks = vec![
            vec![(key(1), Value::str("c0-k1")), (key(3), Value::str("c0-k3"))],
            vec![(key(1), Value::str("c1-k1")), (key(2), Value::str("c1-k2"))],
        ];
        let merged = merge_sorted(chunks, None);
        let names: Vec<&str> = merged
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.as_str(),
                _ => "?",
            })
            .collect();
        // Equal keys keep chunk order (chunk 0 before chunk 1).
        assert_eq!(names, ["c0-k1", "c1-k1", "c1-k2", "c0-k3"]);
    }

    #[test]
    fn limit_gate_waits_for_the_prefix() {
        let gate = LimitGate::new(5, 4);
        assert!(!gate.is_done());
        // Morsel 2 alone satisfies the count, but morsels 0/1 are still
        // open — an earlier error could change the outcome.
        gate.record(2, 7);
        assert!(!gate.is_done());
        gate.record(0, 1);
        assert!(!gate.is_done());
        // Prefix complete: 1 + 0 + 7 >= 5.
        gate.record(1, 0);
        assert!(gate.is_done());
    }

    #[test]
    fn limit_gate_errors_and_zero() {
        // An error inside the contiguous prefix settles the outcome.
        let gate = LimitGate::new(100, 3);
        gate.record(0, usize::MAX);
        assert!(gate.is_done());
        // LIMIT 0 needs nothing.
        assert!(LimitGate::new(0, 3).is_done());
    }
}
