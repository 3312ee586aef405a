//! Vectorized batch execution: compiled expression programs over columnar
//! morsels.
//!
//! The morsel scheduler in [`super::parallel`] decomposes a plan into a
//! scan leaf, at most one join, a chain of row-local operators and one
//! blocking terminal. This module adds a second way to run that
//! decomposition: instead of cloning every scanned record into a [`Value`]
//! and walking the `Scalar` tree per row, a morsel is cut into
//! [`ColumnBatch`]es (typed column vectors + per-lane presence tags,
//! dictionary-encoded strings), and each `Scalar` tree is flattened once
//! per query into an [`ExprProgram`] — a linear register program whose
//! instructions run over a whole selection vector at a time.
//!
//! A join splits the batch into two coordinate spaces. Before the join,
//! programs index *lanes* (positions in the scanned batch). The join
//! probes its build table per lane and emits join *events* — one per
//! (probe row, build row) match, in the row path's emission order — and
//! everything downstream (filters, projections, the terminal) runs in
//! event space, reading the join's materialized output columns.
//!
//! Byte-identity with the row path is the contract, enforced three ways:
//!
//! * Every instruction reuses the *same* semantic helpers as the row
//!   evaluator (`eval_binop` / `eval_unop` / `eval_func` / `eval_is`), so
//!   a batch kernel can never disagree with `eval()` on a value. The fast
//!   kernels (integer compare/arithmetic, dictionary-memoized string
//!   compare, presence-tag `IS NULL`/`IS MISSING`, predicate-tree masks,
//!   dictionary-code join probes) are only taken where they are provably
//!   equivalent.
//! * Errors are *poisoned per lane* (or per event) instead of raised
//!   mid-batch: each lane records the first error it hits in program
//!   order, poisoned lanes are skipped by later instructions, and the
//!   batch reports the error of the lowest poisoned lane — exactly the
//!   row the serial scan would have failed on. Under an early-exit
//!   `LIMIT k` the batch instead builds rows lazily, lane by lane in lane
//!   order and interleaved with the recorded errors, and stops at
//!   whichever settles the limit first: no row past the limit is cloned.
//!   Such a scan also starts with a `k`-lane batch that doubles up to the
//!   `batch_rows` cap (see [`run_range`]), so `head(5)` builds 5 rows, not
//!   a 1 024-lane batch of them.
//! * Anything the compiler cannot express makes [`compile`] return the
//!   fallback cause and the caller falls back to the row path — the same
//!   whitelist discipline `parallel::analyze` applies to plans.

use super::aggregate::OrdValue;
use super::eval::{eval_binop, eval_func, eval_is, eval_unop, make_record, truthy};
use super::join::ValueHashTable;
use super::parallel::{JoinVariantSpec, MorselOp, MorselSink, ParallelPlan, Terminal};
use crate::ast::{BinOp, IsKind, UnaryOp};
use crate::error::{EngineError, Result};
use crate::plan::logical::{AggArg, AggMode, ProjectSpec, Scalar, ScalarFunc};
use polyframe_datamodel::{Record, SortKey, Value};
use polyframe_storage::{Column, ColumnBatch, Index, Presence, RecordId, Table};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Compile-time result: `Err` is the fallback cause reported in the trace.
type CompileResult<T> = std::result::Result<T, &'static str>;

/// Where an instruction operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// A scan column (`scan_fields[i]`) or, after a projection stage or a
    /// join, a derived column of the current environment.
    Col(usize),
    /// A literal from the program's literal pool.
    Lit(usize),
    /// The output of instruction `i`.
    Reg(usize),
}

/// One instruction of a flattened expression; instruction `i` writes
/// register `i`.
#[derive(Debug, Clone)]
enum Instr {
    Un(UnaryOp, Src),
    Bin(BinOp, Src, Src),
    /// All arguments are evaluated (for their errors), the first is used —
    /// the row evaluator's convention.
    Call(ScalarFunc, Vec<Src>),
    Is(Src, IsKind, bool),
    /// `operand.get_path(field)` — field navigation into a row-valued
    /// column (join output rows). Never errors.
    Path(Src, String),
}

/// A `Scalar` tree flattened into a linear register program.
#[derive(Debug, Clone)]
struct ExprProgram {
    instrs: Vec<Instr>,
    lits: Vec<Value>,
    result: Src,
}

/// One row-local stage of a vectorized pipeline.
enum VecStage {
    Filter(ExprProgram),
    /// Output column names live in the compiler environment (and, for the
    /// final projection, in [`RowEmit::Derived`]); the stage itself only
    /// needs the programs.
    Project(Vec<ExprProgram>),
}

/// How surviving lanes turn back into result rows.
enum RowEmit {
    /// No projection ran: the row is the scanned record.
    Scanned,
    /// The last projection's derived columns, zipped with their names.
    Derived(Vec<String>),
    /// The row *is* derived column `i` (join pair / merged-star output).
    Col(usize),
    /// `SELECT VALUE expr`: the row *is* the program's result.
    Value(ExprProgram),
}

/// The compiled form of the pipeline's blocking terminal.
enum VecTerminal {
    Collect(RowEmit),
    Sort {
        emit: RowEmit,
        keys: Vec<(ExprProgram, bool)>,
    },
    /// `args[i] == None` is `COUNT(*)`. In `Final` aggregate mode every
    /// argument program fetches the serialized partial state
    /// (`Field(agg.name)`) instead of the original argument expression.
    Agg {
        keys: Vec<ExprProgram>,
        args: Vec<Option<ExprProgram>>,
    },
}

/// One output column the join materializes per emitted event.
#[derive(Debug, Clone, PartialEq)]
enum JoinCol {
    /// A field of the probe record, read straight from scan column `i`.
    ProbeField(usize),
    /// The whole probe record as a row value.
    ProbeRow,
    /// The matched build row (or `Null` on a left-join miss).
    BuildRow,
    /// A field of the build row.
    BuildField(String),
    /// `MergeStars([probe, build])`: probe fields overlaid with build
    /// fields, exactly like `project_row`.
    Merged,
    /// One field of the merged record, resolved lazily: the build row's
    /// value when it has the field, the probe's scan column otherwise —
    /// the overlay semantics of `Merged` without materializing the full
    /// record per event.
    MergedField { field: String, probe_col: usize },
    /// The join pair record `{probe_binding: probe, build_binding: build}`
    /// — the row the row-path join emits.
    Pair,
}

/// The compiled join step: key program over probe lanes, plus the output
/// columns downstream programs read.
struct VecJoin {
    key: ExprProgram,
    cols: Vec<JoinCol>,
    /// Left outer join: a probe lane with no match emits one event with a
    /// `Null` build row.
    left: bool,
    /// The pipeline passed through `MergeStars`: every event must have a
    /// mergeable build side (record or unknown), even when no program
    /// materializes the merged record itself.
    merged: bool,
    probe_binding: String,
    build_binding: String,
}

/// The materialized non-probe side of a join, built once per query by the
/// coordinator (`parallel::build_join_runtime`).
pub(super) enum JoinRuntime<'q> {
    /// Hash join: build rows keyed by the build key expression, in the row
    /// path's per-key insertion order.
    Hash {
        table: ValueHashTable,
        rows: BuildRows<'q>,
    },
    /// Index nested-loop join: the inner table and the index probed per
    /// outer row.
    IndexNl { table: &'q Table, index: &'q Index },
}

/// Hash-join build rows: owned values when the build side runs an
/// arbitrary pipeline, zero-copy heap references when it is a bare scan
/// (the dominant case — a whole-table build otherwise clones every
/// record just to park it in the join table).
pub(super) enum BuildRows<'q> {
    Owned(Vec<Value>),
    Records(Vec<&'q Record>),
}

impl BuildRows<'_> {
    fn get(&self, i: u32) -> BuildRef<'_> {
        match self {
            BuildRows::Owned(v) => BuildRef::Val(&v[i as usize]),
            BuildRows::Records(r) => BuildRef::Rec(r[i as usize]),
        }
    }
}

/// One build row as seen by event emission: a value, or a record still
/// living in the dataset heap.
#[derive(Clone, Copy)]
enum BuildRef<'a> {
    Val(&'a Value),
    Rec(&'a Record),
}

impl<'a> BuildRef<'a> {
    /// The build binding's value for the output pair / whole-binding
    /// reads. The record arm materializes here — and only here.
    fn to_value(self) -> Value {
        match self {
            BuildRef::Val(v) => v.clone(),
            BuildRef::Rec(r) => Value::Obj(r.clone()),
        }
    }

    /// `build.get_path(f)` (single-segment field lookup, `Missing` when
    /// absent or non-record), with a layout hint for same-table rows.
    fn field(self, f: &str, hint: &mut usize) -> Option<&'a Value> {
        match self {
            BuildRef::Val(Value::Obj(r)) => r.get_hinted(f, hint),
            BuildRef::Val(_) => None,
            BuildRef::Rec(r) => r.get_hinted(f, hint),
        }
    }

    /// True when `MergeStars` would reject this build side (any value
    /// that is neither a record nor `Null`/`Missing`).
    fn unmergeable(self) -> bool {
        match self {
            BuildRef::Val(v) => !matches!(v, Value::Obj(_) | Value::Null | Value::Missing),
            BuildRef::Rec(_) => false,
        }
    }

    fn type_name(self) -> &'static str {
        match self {
            BuildRef::Val(v) => v.type_name(),
            BuildRef::Rec(_) => "object",
        }
    }
}

/// A fully compiled vectorized pipeline: which scan fields to transpose
/// into columns, probe-side filters, the join, the post-join stages and
/// the terminal.
pub(super) struct VecPipeline {
    scan_fields: Vec<String>,
    /// Probe-side filters (lane space, before the join).
    pre_stages: Vec<VecStage>,
    join: Option<VecJoin>,
    stages: Vec<VecStage>,
    terminal: VecTerminal,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// The column environment a program compiles against.
enum Env {
    /// Physical scan columns (`scan_fields`).
    Scan,
    /// The output columns of the last projection stage.
    Derived(Vec<String>),
    /// Join output: references resolve against the two bindings and
    /// materialize as join output columns.
    Join { probe: String, build: String },
    /// After `MergeStars`: the row is the merged probe+build record, but
    /// field references resolve lazily through [`JoinCol::MergedField`]
    /// so the record itself only materializes when something needs it
    /// whole.
    Merged,
}

struct Compiler {
    scan_fields: Vec<String>,
    env: Env,
    join_cols: Vec<JoinCol>,
}

impl Compiler {
    fn scan() -> Compiler {
        Compiler {
            scan_fields: Vec::new(),
            env: Env::Scan,
            join_cols: Vec::new(),
        }
    }

    /// Index of scan column `field`, registering it on first use.
    fn scan_col(&mut self, field: &str) -> usize {
        match self.scan_fields.iter().position(|n| n == field) {
            Some(i) => i,
            None => {
                self.scan_fields.push(field.to_string());
                self.scan_fields.len() - 1
            }
        }
    }

    /// Index of join output column `col`, registering it on first use.
    fn join_col(&mut self, col: JoinCol) -> usize {
        match self.join_cols.iter().position(|c| *c == col) {
            Some(i) => i,
            None => {
                self.join_cols.push(col);
                self.join_cols.len() - 1
            }
        }
    }

    /// Which join side `name` references (`true` = probe); only meaningful
    /// in the join environment.
    fn join_side(&self, name: &str) -> Option<bool> {
        match &self.env {
            Env::Join { probe, build } => {
                if name == probe.as_str() {
                    Some(true)
                } else if name == build.as_str() {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// `Field(f)` / `BindingRef(f)` — both evaluate as `row.get_path(f)`.
    fn field_src(&mut self, f: &str, lits: &mut Vec<Value>) -> CompileResult<Src> {
        match &self.env {
            Env::Scan => {}
            // Duplicate output names resolve to the *last* occurrence —
            // record insertion overwrites, so that is the value a field
            // lookup on the projected row would see.
            Env::Derived(names) => {
                return Ok(match names.iter().rposition(|n| n == f) {
                    Some(i) => Src::Col(i),
                    None => push_lit(lits, Value::Missing),
                })
            }
            // A field of the merged record is the build row's value when
            // the build has it, the probe's otherwise — resolved per
            // event without materializing the whole record.
            Env::Merged => {
                let probe_col = self.scan_col(f);
                return Ok(Src::Col(self.join_col(JoinCol::MergedField {
                    field: f.to_string(),
                    probe_col,
                })));
            }
            // A join row is `{probe: .., build: ..}`: a field lookup hits
            // one of the two bindings or Missing.
            Env::Join { .. } => {
                return Ok(match self.join_side(f) {
                    Some(true) => Src::Col(self.join_col(JoinCol::ProbeRow)),
                    Some(false) => Src::Col(self.join_col(JoinCol::BuildRow)),
                    None => push_lit(lits, Value::Missing),
                })
            }
        }
        Ok(Src::Col(self.scan_col(f)))
    }

    /// `FieldOf(b, f)` — `row.get_path(b).get_path(f)`.
    fn field_of_src(
        &mut self,
        b: &str,
        f: &str,
        instrs: &mut Vec<Instr>,
        lits: &mut Vec<Value>,
    ) -> CompileResult<Src> {
        if matches!(self.env, Env::Merged) {
            // `merged.get_path(b).get_path(f)`: the binding lookup is a
            // lazy merged field, the inner navigation a Path instruction.
            let base = self.field_src(b, lits)?;
            instrs.push(Instr::Path(base, f.to_string()));
            return Ok(Src::Reg(instrs.len() - 1));
        }
        if matches!(self.env, Env::Join { .. }) {
            return Ok(match self.join_side(b) {
                // Probe rows are scanned records, so a probe field *is* a
                // scan column — no record materialization at all.
                Some(true) => {
                    let ci = self.scan_col(f);
                    Src::Col(self.join_col(JoinCol::ProbeField(ci)))
                }
                Some(false) => Src::Col(self.join_col(JoinCol::BuildField(f.to_string()))),
                None => push_lit(lits, Value::Missing),
            });
        }
        Err("expr")
    }

    /// `Input` — the whole current row.
    fn input_src(&mut self) -> CompileResult<Src> {
        match self.env {
            Env::Join { .. } => Ok(Src::Col(self.join_col(JoinCol::Pair))),
            Env::Merged => Ok(Src::Col(self.join_col(JoinCol::Merged))),
            _ => Err("expr"),
        }
    }

    fn compile_expr(&mut self, scalar: &Scalar) -> CompileResult<ExprProgram> {
        let mut instrs = Vec::new();
        let mut lits = Vec::new();
        let result = self.compile_into(scalar, &mut instrs, &mut lits)?;
        Ok(ExprProgram {
            instrs,
            lits,
            result,
        })
    }

    /// Postorder flattening: operands compile before their operator, which
    /// reproduces the row evaluator's evaluation (and therefore error)
    /// order — `eval_binop` never short-circuits, so a linear program is
    /// exact.
    fn compile_into(
        &mut self,
        scalar: &Scalar,
        instrs: &mut Vec<Instr>,
        lits: &mut Vec<Value>,
    ) -> CompileResult<Src> {
        Ok(match scalar {
            // `BindingRef(b)` evaluates exactly like `Field(b)` (both are
            // `row.get_path`), so they share one resolution.
            Scalar::Field(f) | Scalar::BindingRef(f) => self.field_src(f, lits)?,
            Scalar::FieldOf(b, f) => self.field_of_src(b, f, instrs, lits)?,
            Scalar::Input => self.input_src()?,
            Scalar::Lit(v) => push_lit(lits, v.clone()),
            Scalar::Un(op, a) => {
                let a = self.compile_into(a, instrs, lits)?;
                instrs.push(Instr::Un(*op, a));
                Src::Reg(instrs.len() - 1)
            }
            Scalar::Bin(op, a, b) => {
                let a = self.compile_into(a, instrs, lits)?;
                let b = self.compile_into(b, instrs, lits)?;
                instrs.push(Instr::Bin(*op, a, b));
                Src::Reg(instrs.len() - 1)
            }
            Scalar::Call(func, args) => {
                let srcs = args
                    .iter()
                    .map(|a| self.compile_into(a, instrs, lits))
                    .collect::<CompileResult<Vec<Src>>>()?;
                instrs.push(Instr::Call(*func, srcs));
                Src::Reg(instrs.len() - 1)
            }
            Scalar::Is(a, kind, negated) => {
                let a = self.compile_into(a, instrs, lits)?;
                instrs.push(Instr::Is(a, *kind, *negated));
                Src::Reg(instrs.len() - 1)
            }
        })
    }
}

fn push_lit(lits: &mut Vec<Value>, v: Value) -> Src {
    lits.push(v);
    Src::Lit(lits.len() - 1)
}

/// How the pipeline's surviving rows materialize, given the final
/// environment.
fn row_emit(c: &mut Compiler, value_emit: Option<ExprProgram>) -> RowEmit {
    if let Some(prog) = value_emit {
        return RowEmit::Value(prog);
    }
    match c.env {
        Env::Join { .. } => {
            let pi = c.join_col(JoinCol::Pair);
            return RowEmit::Col(pi);
        }
        // Emitting the merged record itself is the one consumer that
        // genuinely needs it materialized.
        Env::Merged => {
            let mi = c.join_col(JoinCol::Merged);
            return RowEmit::Col(mi);
        }
        _ => {}
    }
    match &c.env {
        Env::Scan => RowEmit::Scanned,
        Env::Derived(names) => RowEmit::Derived(names.clone()),
        Env::Join { .. } | Env::Merged => unreachable!("handled above"),
    }
}

/// Compile a parallel-safe plan decomposition into a vectorized pipeline;
/// `Err` carries the fallback cause for the trace.
pub(super) fn compile(pp: &ParallelPlan<'_>) -> CompileResult<VecPipeline> {
    let mut c = Compiler::scan();
    let mut pre_stages = Vec::new();
    let mut key_prog = None;
    if let Some(spec) = &pp.join {
        // Probe-side filters run in lane space, before the join; the key
        // program compiles against the scan columns too.
        for op in &spec.probe_ops {
            match op {
                MorselOp::Filter(pred) => pre_stages.push(VecStage::Filter(c.compile_expr(pred)?)),
                // `probe_side` only admits filters; defensive.
                MorselOp::Project(_) => return Err("join_probe"),
            }
        }
        key_prog = Some(c.compile_expr(spec.probe_key)?);
        c.env = Env::Join {
            probe: spec.probe_binding.to_string(),
            build: spec.build_binding.to_string(),
        };
    }

    let mut stages = Vec::new();
    let mut value_emit: Option<ExprProgram> = None;
    // Latched when the pipeline passes through `MergeStars`: the row path
    // errors there on any non-record build side, so every join event must
    // check mergeability even if a later projection replaces the env.
    let mut merged = false;
    for op in &pp.ops {
        if value_emit.is_some() {
            // Operators above a `SELECT VALUE` see scalar rows, not
            // records; the row path handles those.
            return Err("select_value");
        }
        match op {
            MorselOp::Filter(pred) => stages.push(VecStage::Filter(c.compile_expr(pred)?)),
            MorselOp::Project(ProjectSpec::Columns(cols)) => {
                let mut names = Vec::with_capacity(cols.len());
                let mut progs = Vec::with_capacity(cols.len());
                for (name, expr) in cols {
                    progs.push(c.compile_expr(expr)?);
                    names.push(name.clone());
                }
                stages.push(VecStage::Project(progs));
                c.env = Env::Derived(names);
            }
            MorselOp::Project(ProjectSpec::Value(expr)) => value_emit = Some(c.compile_expr(expr)?),
            MorselOp::Project(ProjectSpec::MergeStars(bindings)) => {
                // Supported exactly at the join: `SELECT l.*, r.*` over
                // the pair. Field references downstream resolve lazily;
                // the merged record only materializes if emitted whole.
                let ok = match &c.env {
                    Env::Join { probe, build } => {
                        bindings.len() == 2 && bindings[0] == *probe && bindings[1] == *build
                    }
                    _ => false,
                };
                if !ok {
                    return Err("merge_stars");
                }
                merged = true;
                c.env = Env::Merged;
            }
        }
    }

    let terminal = match &pp.terminal {
        Terminal::Collect => VecTerminal::Collect(row_emit(&mut c, value_emit)),
        Terminal::Sort { keys, .. } => {
            if value_emit.is_some() {
                return Err("select_value");
            }
            let emit = row_emit(&mut c, None);
            let keys = keys
                .iter()
                .map(|(expr, desc)| c.compile_expr(expr).map(|p| (p, *desc)))
                .collect::<CompileResult<Vec<_>>>()?;
            VecTerminal::Sort { emit, keys }
        }
        Terminal::Aggregate {
            group_by,
            aggs,
            mode,
        } => {
            if value_emit.is_some() {
                return Err("select_value");
            }
            let keys = group_by
                .iter()
                .map(|(_, expr)| c.compile_expr(expr))
                .collect::<CompileResult<Vec<_>>>()?;
            let mut args = Vec::with_capacity(aggs.len());
            for agg in aggs.iter() {
                args.push(match (*mode, &agg.arg) {
                    // Final mode folds serialized partial states, fetched
                    // by output name — even for `COUNT(*)`.
                    (AggMode::Final, _) => {
                        let partial = Scalar::Field(agg.name.clone());
                        Some(c.compile_expr(&partial)?)
                    }
                    (_, AggArg::Star) => None,
                    (_, AggArg::Expr(expr)) => Some(c.compile_expr(expr)?),
                });
            }
            VecTerminal::Agg { keys, args }
        }
    };

    let join = match (&pp.join, key_prog) {
        (Some(spec), Some(key)) => Some(VecJoin {
            key,
            cols: std::mem::take(&mut c.join_cols),
            left: matches!(spec.variant, JoinVariantSpec::Hash { left: true, .. }),
            merged,
            probe_binding: spec.probe_binding.to_string(),
            build_binding: spec.build_binding.to_string(),
        }),
        _ => None,
    };
    Ok(VecPipeline {
        scan_fields: c.scan_fields,
        pre_stages,
        join,
        stages,
        terminal,
    })
}

// ---------------------------------------------------------------------------
// Error poisoning
// ---------------------------------------------------------------------------

/// Per-lane error state of one batch. A lane keeps the first error it hits
/// (programs run in stage order, instructions in program order, so
/// `or_insert` preserves "first in serial evaluation order"), and the
/// batch fails with the error of the *lowest* poisoned lane — the row the
/// serial scan would have failed on. After a join the tracker is swapped
/// into event space (see [`run_join`]).
#[derive(Default)]
struct ErrTracker {
    /// lane -> (terminal stage index, error).
    errs: BTreeMap<u32, (u32, EngineError)>,
}

impl ErrTracker {
    fn poison(&mut self, lane: u32, stage: u32, err: EngineError) {
        self.errs.entry(lane).or_insert((stage, err));
    }

    fn poisoned(&self, lane: u32) -> bool {
        !self.errs.is_empty() && self.errs.contains_key(&lane)
    }

    fn is_empty(&self) -> bool {
        self.errs.is_empty()
    }

    /// The error of the lowest poisoned lane.
    fn first_err(&self) -> Option<EngineError> {
        self.errs.values().next().map(|(_, e)| e.clone())
    }

    /// Lowest poisoned lane with its terminal stage.
    fn first(&self) -> Option<(u32, u32, &EngineError)> {
        self.errs.iter().next().map(|(l, (s, e))| (*l, *s, e))
    }

    fn get(&self, lane: u32) -> Option<(u32, &EngineError)> {
        self.errs.get(&lane).map(|(s, e)| (*s, e))
    }
}

// ---------------------------------------------------------------------------
// Program execution
// ---------------------------------------------------------------------------

fn operand<'a>(
    src: Src,
    k: usize,
    lane: u32,
    batch: &'a ColumnBatch,
    derived: Option<&'a [Vec<Value>]>,
    lits: &'a [Value],
    regs: &'a [Vec<Value>],
) -> Cow<'a, Value> {
    match src {
        Src::Col(c) => match derived {
            Some(cols) => Cow::Borrowed(&cols[c][k]),
            None => batch.column(c).value_at(lane as usize),
        },
        Src::Lit(l) => Cow::Borrowed(&lits[l]),
        Src::Reg(r) => Cow::Borrowed(&regs[r][k]),
    }
}

/// Run one program over the selected lanes; the result vector is aligned
/// with `sel`. Lanes that error are poisoned (placeholder `Null` in the
/// output) rather than aborting the batch.
fn run_program(
    prog: &ExprProgram,
    batch: &ColumnBatch,
    sel: &[u32],
    derived: Option<&[Vec<Value>]>,
    stage: u32,
    tracker: &mut ErrTracker,
) -> Vec<Value> {
    let mut regs: Vec<Vec<Value>> = Vec::with_capacity(prog.instrs.len());
    for instr in &prog.instrs {
        let out = match kernel(instr, batch, sel, derived, &prog.lits) {
            Some(v) => v,
            None => generic_instr(
                instr, batch, sel, derived, &prog.lits, &regs, stage, tracker,
            ),
        };
        regs.push(out);
    }
    match prog.result {
        Src::Reg(r) => {
            // Postorder flattening makes the root the last instruction.
            debug_assert_eq!(r + 1, regs.len());
            regs.pop().unwrap_or_default()
        }
        Src::Col(c) => sel
            .iter()
            .enumerate()
            .map(|(k, &lane)| {
                operand(Src::Col(c), k, lane, batch, derived, &prog.lits, &regs).into_owned()
            })
            .collect(),
        Src::Lit(l) => vec![prog.lits[l].clone(); sel.len()],
    }
}

/// Generic per-lane execution: exact row semantics via the shared `eval_*`
/// helpers, skipping already-poisoned lanes.
#[allow(clippy::too_many_arguments)]
fn generic_instr(
    instr: &Instr,
    batch: &ColumnBatch,
    sel: &[u32],
    derived: Option<&[Vec<Value>]>,
    lits: &[Value],
    regs: &[Vec<Value>],
    stage: u32,
    tracker: &mut ErrTracker,
) -> Vec<Value> {
    let mut out = Vec::with_capacity(sel.len());
    for (k, &lane) in sel.iter().enumerate() {
        if tracker.poisoned(lane) {
            out.push(Value::Null);
            continue;
        }
        let r = match instr {
            Instr::Un(op, a) => {
                let v = operand(*a, k, lane, batch, derived, lits, regs);
                eval_unop(*op, &v)
            }
            Instr::Bin(op, a, b) => {
                let av = operand(*a, k, lane, batch, derived, lits, regs);
                let bv = operand(*b, k, lane, batch, derived, lits, regs);
                eval_binop(*op, &av, &bv)
            }
            Instr::Call(func, args) => {
                let first = args
                    .first()
                    .map(|s| operand(*s, k, lane, batch, derived, lits, regs));
                eval_func(*func, first.as_deref())
            }
            Instr::Is(a, kind, negated) => {
                let v = operand(*a, k, lane, batch, derived, lits, regs);
                Ok(eval_is(&v, *kind, *negated))
            }
            Instr::Path(a, f) => {
                let v = operand(*a, k, lane, batch, derived, lits, regs);
                Ok(v.get_path(f))
            }
        };
        match r {
            Ok(v) => out.push(v),
            Err(e) => {
                tracker.poison(lane, stage, e);
                out.push(Value::Null);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Batch kernels
// ---------------------------------------------------------------------------

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

fn int_cmp(op: BinOp, a: i64, b: i64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("comparison operators only"),
    }
}

/// The `is_true` *mask* of a float comparison. Plain IEEE operators are
/// exactly `eval_binop`'s truth set here: `sql_compare` on mixed numerics
/// is `as_f64().partial_cmp`, a NaN operand yields `None` → `Eq` false /
/// `Ne` true / orderings Unknown — and IEEE gives false/true/false for
/// those same cases.
fn f64_cmp_mask(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("comparison operators only"),
    }
}

/// The *value* of a float comparison: unlike the mask, an incomparable
/// pair (NaN) is `Null` for the ordering operators, decidable for
/// equality — `sql_compare`'s `None` arm exactly.
fn f64_cmp_value(op: BinOp, a: f64, b: f64) -> Value {
    use std::cmp::Ordering;
    match a.partial_cmp(&b) {
        Some(o) => Value::Bool(match op {
            BinOp::Eq => o == Ordering::Equal,
            BinOp::Ne => o != Ordering::Equal,
            BinOp::Lt => o == Ordering::Less,
            BinOp::Le => o != Ordering::Greater,
            BinOp::Gt => o == Ordering::Greater,
            BinOp::Ge => o != Ordering::Less,
            _ => unreachable!("comparison operators only"),
        }),
        None => match op {
            BinOp::Eq => Value::Bool(false),
            BinOp::Ne => Value::Bool(true),
            _ => Value::Null,
        },
    }
}

/// A numeric literal as `f64`, for the float-promoted kernels (the same
/// promotion `arith`/`sql_compare` apply to mixed numeric operands).
fn lit_f64(lit: &Value) -> Option<f64> {
    match lit {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

/// Column-vs-literal fast paths, taken only where they are provably
/// equivalent to `eval_binop`/`eval_is` (and can never error, so they need
/// no tracker). `None` falls back to the generic per-lane loop.
fn kernel(
    instr: &Instr,
    batch: &ColumnBatch,
    sel: &[u32],
    derived: Option<&[Vec<Value>]>,
    lits: &[Value],
) -> Option<Vec<Value>> {
    if derived.is_some() {
        return None;
    }
    match *instr {
        Instr::Bin(op, Src::Col(c), Src::Lit(l)) => bin_col_lit(
            op,
            batch.column(c),
            &lits[l],
            sel,
            false,
            batch.all_valid(c),
        ),
        Instr::Bin(op, Src::Lit(l), Src::Col(c)) => {
            bin_col_lit(op, batch.column(c), &lits[l], sel, true, batch.all_valid(c))
        }
        // Column-vs-column typed loops, only when *both* sides are
        // all-valid (so unknown-propagation never applies and the loop
        // body is pure arithmetic).
        Instr::Bin(op, Src::Col(a), Src::Col(b)) if batch.all_valid(a) && batch.all_valid(b) => {
            bin_col_col(op, batch.column(a), batch.column(b), sel)
        }
        Instr::Is(Src::Col(c), kind, negated) => {
            let col = batch.column(c);
            Some(
                sel.iter()
                    .map(|&lane| {
                        let hit = match (kind, col.presence_at(lane as usize)) {
                            (IsKind::Missing, p) => p == Presence::Missing,
                            (IsKind::Null | IsKind::Unknown, p) => p != Presence::Present,
                        };
                        Value::Bool(hit != negated)
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

/// Wrap one per-lane closure in the presence dispatch: the `all_valid`
/// fast path runs it branch-free over every selected lane (no tag loads
/// at all), the mixed path falls back lane-wise on the presence tags.
fn presence_map(
    sel: &[u32],
    tags: &[Presence],
    all_valid: bool,
    mut f: impl FnMut(usize) -> Value,
) -> Vec<Value> {
    if all_valid {
        sel.iter().map(|&lane| f(lane as usize)).collect()
    } else {
        sel.iter()
            .map(|&lane| {
                let i = lane as usize;
                match tags[i] {
                    Presence::Present => f(i),
                    Presence::Null => Value::Null,
                    Presence::Missing => Value::Missing,
                }
            })
            .collect()
    }
}

fn bin_col_lit(
    op: BinOp,
    col: &Column,
    lit: &Value,
    sel: &[u32],
    lit_is_lhs: bool,
    all_valid: bool,
) -> Option<Vec<Value>> {
    match (col, lit) {
        (Column::Int { data, tags }, Value::Int(x)) if is_cmp(op) => {
            Some(presence_map(sel, tags, all_valid, |i| {
                Value::Bool(if lit_is_lhs {
                    int_cmp(op, *x, data[i])
                } else {
                    int_cmp(op, data[i], *x)
                })
            }))
        }
        (Column::Int { data, tags }, Value::Int(x))
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
        {
            Some(presence_map(sel, tags, all_valid, |i| {
                let (a, b) = if lit_is_lhs {
                    (*x, data[i])
                } else {
                    (data[i], *x)
                };
                Value::Int(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    _ => a.wrapping_mul(b),
                })
            }))
        }
        // Float comparisons: a double column against any numeric literal,
        // or an int column against a double literal — the mixed-numeric
        // promotion `sql_compare` applies, lane by lane.
        (Column::Double { data, tags }, _) if is_cmp(op) && lit_f64(lit).is_some() => {
            let x = lit_f64(lit)?;
            Some(presence_map(sel, tags, all_valid, |i| {
                if lit_is_lhs {
                    f64_cmp_value(op, x, data[i])
                } else {
                    f64_cmp_value(op, data[i], x)
                }
            }))
        }
        (Column::Int { data, tags }, Value::Double(x)) if is_cmp(op) => {
            Some(presence_map(sel, tags, all_valid, |i| {
                if lit_is_lhs {
                    f64_cmp_value(op, *x, data[i] as f64)
                } else {
                    f64_cmp_value(op, data[i] as f64, *x)
                }
            }))
        }
        // Float arithmetic (`arith`'s mixed-numeric arm): always `Double`,
        // never errors. Div/Mod stay on the generic path (zero divisors
        // produce `Null`, a per-lane decision the typed loop would buy
        // nothing on).
        (Column::Double { data, tags }, _)
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) && lit_f64(lit).is_some() =>
        {
            let x = lit_f64(lit)?;
            Some(presence_map(sel, tags, all_valid, |i| {
                let (a, b) = if lit_is_lhs {
                    (x, data[i])
                } else {
                    (data[i], x)
                };
                Value::Double(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    _ => a * b,
                })
            }))
        }
        (Column::Int { data, tags }, Value::Double(x))
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
        {
            Some(presence_map(sel, tags, all_valid, |i| {
                let (a, b) = if lit_is_lhs {
                    (*x, data[i] as f64)
                } else {
                    (data[i] as f64, *x)
                };
                Value::Double(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    _ => a * b,
                })
            }))
        }
        // Dictionary-encoded strings: evaluate the comparison once per
        // distinct value instead of once per row. Comparisons never error.
        (Column::Str { codes, dict, tags }, lit) if is_cmp(op) => {
            let side = |d: &Value| {
                if lit_is_lhs {
                    eval_binop(op, lit, d)
                } else {
                    eval_binop(op, d, lit)
                }
            };
            let memo: Vec<Value> = dict.iter().map(&side).collect::<Result<_>>().ok()?;
            let null_v = side(&Value::Null).ok()?;
            let miss_v = side(&Value::Missing).ok()?;
            Some(
                sel.iter()
                    .map(|&lane| {
                        let i = lane as usize;
                        match tags[i] {
                            Presence::Present => memo[codes[i] as usize].clone(),
                            Presence::Null => null_v.clone(),
                            Presence::Missing => miss_v.clone(),
                        }
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

/// Column-vs-column typed loops. Callers guarantee both columns are
/// all-valid, so no presence dispatch (or unknown propagation) is needed
/// and the loops are branch-free over the raw vectors.
fn bin_col_col(op: BinOp, a: &Column, b: &Column, sel: &[u32]) -> Option<Vec<Value>> {
    match (a, b) {
        (Column::Int { data: da, .. }, Column::Int { data: db, .. }) if is_cmp(op) => Some(
            sel.iter()
                .map(|&lane| {
                    let i = lane as usize;
                    Value::Bool(int_cmp(op, da[i], db[i]))
                })
                .collect(),
        ),
        (Column::Int { data: da, .. }, Column::Int { data: db, .. })
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
        {
            Some(
                sel.iter()
                    .map(|&lane| {
                        let i = lane as usize;
                        Value::Int(match op {
                            BinOp::Add => da[i].wrapping_add(db[i]),
                            BinOp::Sub => da[i].wrapping_sub(db[i]),
                            _ => da[i].wrapping_mul(db[i]),
                        })
                    })
                    .collect(),
            )
        }
        (Column::Double { data: da, .. }, Column::Double { data: db, .. }) if is_cmp(op) => Some(
            sel.iter()
                .map(|&lane| {
                    let i = lane as usize;
                    f64_cmp_value(op, da[i], db[i])
                })
                .collect(),
        ),
        (Column::Double { data: da, .. }, Column::Double { data: db, .. })
            if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
        {
            Some(
                sel.iter()
                    .map(|&lane| {
                        let i = lane as usize;
                        Value::Double(match op {
                            BinOp::Add => da[i] + db[i],
                            BinOp::Sub => da[i] - db[i],
                            _ => da[i] * db[i],
                        })
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Kernel specialization
// ---------------------------------------------------------------------------

/// A filter program statically recognized as a tree of column/literal
/// comparisons and `IS` checks combined with `AND`/`OR` — the shape the
/// specializer fuses into single selection-mask passes. Soundness: every
/// leaf is error-free (comparisons and `IS` never fail), Kleene `AND` is
/// `True` iff both operands are `True` and `OR` iff either is, and a
/// filter keeps a lane only on definite `True` — so bitwise and/or on the
/// per-leaf `is_true` masks is exact, and `Unknown` never needs to be
/// represented.
#[derive(Clone)]
pub(super) enum PredTree {
    Cmp {
        op: BinOp,
        col: usize,
        lit: Value,
        lit_is_lhs: bool,
    },
    Is {
        col: usize,
        kind: IsKind,
        negated: bool,
    },
    And(Box<PredTree>, Box<PredTree>),
    Or(Box<PredTree>, Box<PredTree>),
}

/// Recognize a filter program as a [`PredTree`]; `None` when any node
/// falls outside the fusable shapes (function calls, arithmetic,
/// derived-column or column-column comparisons, `NOT`).
fn pred_tree(prog: &ExprProgram) -> Option<PredTree> {
    let Src::Reg(root) = prog.result else {
        return None;
    };
    pred_node(prog, root)
}

fn pred_node(prog: &ExprProgram, r: usize) -> Option<PredTree> {
    match &prog.instrs[r] {
        Instr::Bin(op, a, b) if is_cmp(*op) => {
            let (col, lit, lit_is_lhs) = match (*a, *b) {
                (Src::Col(c), Src::Lit(l)) => (c, prog.lits[l].clone(), false),
                (Src::Lit(l), Src::Col(c)) => (c, prog.lits[l].clone(), true),
                _ => return None,
            };
            Some(PredTree::Cmp {
                op: *op,
                col,
                lit,
                lit_is_lhs,
            })
        }
        Instr::Bin(op @ (BinOp::And | BinOp::Or), Src::Reg(a), Src::Reg(b)) => {
            let left = Box::new(pred_node(prog, *a)?);
            let right = Box::new(pred_node(prog, *b)?);
            Some(match op {
                BinOp::And => PredTree::And(left, right),
                _ => PredTree::Or(left, right),
            })
        }
        Instr::Is(Src::Col(c), kind, negated) => Some(PredTree::Is {
            col: *c,
            kind: *kind,
            negated: *negated,
        }),
        _ => None,
    }
}

/// Evaluate one predicate tree to an `is_true` mask aligned with `sel`.
/// `None` means a leaf had no typed path for *this batch*'s column
/// layout (e.g. a dictionary overflow demoted the column to generic
/// values) — the caller falls back to the generic stage, which is always
/// correct.
fn pred_mask(tree: &PredTree, batch: &ColumnBatch, sel: &[u32]) -> Option<Vec<bool>> {
    match tree {
        PredTree::Cmp {
            op,
            col,
            lit,
            lit_is_lhs,
        } => cmp_mask(
            *op,
            batch.column(*col),
            lit,
            sel,
            *lit_is_lhs,
            batch.all_valid(*col),
        ),
        PredTree::Is { col, kind, negated } => {
            let c = batch.column(*col);
            Some(
                sel.iter()
                    .map(|&lane| {
                        let hit = match (kind, c.presence_at(lane as usize)) {
                            (IsKind::Missing, p) => p == Presence::Missing,
                            (IsKind::Null | IsKind::Unknown, p) => p != Presence::Present,
                        };
                        hit != *negated
                    })
                    .collect(),
            )
        }
        PredTree::And(a, b) => {
            let mut m = pred_mask(a, batch, sel)?;
            let mb = pred_mask(b, batch, sel)?;
            for (x, y) in m.iter_mut().zip(mb) {
                *x &= y;
            }
            Some(m)
        }
        PredTree::Or(a, b) => {
            let mut m = pred_mask(a, batch, sel)?;
            let mb = pred_mask(b, batch, sel)?;
            for (x, y) in m.iter_mut().zip(mb) {
                *x |= y;
            }
            Some(m)
        }
    }
}

/// The `is_true` mask of `col <op> lit` over the selection. An unknown
/// literal fails every lane (`eval_binop` propagates Null/Missing, never
/// `True`); otherwise the typed loops mirror [`bin_col_lit`]'s — masks
/// only, so the float path can use plain IEEE operators.
fn cmp_mask(
    op: BinOp,
    col: &Column,
    lit: &Value,
    sel: &[u32],
    lit_is_lhs: bool,
    all_valid: bool,
) -> Option<Vec<bool>> {
    if lit.is_unknown() {
        return Some(vec![false; sel.len()]);
    }
    let present = |tags: &[Presence], i: usize| all_valid || tags[i] == Presence::Present;
    match (col, lit) {
        (Column::Int { data, tags }, Value::Int(x)) => Some(
            sel.iter()
                .map(|&lane| {
                    let i = lane as usize;
                    present(tags, i)
                        & if lit_is_lhs {
                            int_cmp(op, *x, data[i])
                        } else {
                            int_cmp(op, data[i], *x)
                        }
                })
                .collect(),
        ),
        (Column::Int { data, tags }, Value::Double(x)) => Some(
            sel.iter()
                .map(|&lane| {
                    let i = lane as usize;
                    present(tags, i)
                        & if lit_is_lhs {
                            f64_cmp_mask(op, *x, data[i] as f64)
                        } else {
                            f64_cmp_mask(op, data[i] as f64, *x)
                        }
                })
                .collect(),
        ),
        (Column::Double { data, tags }, _) if lit_f64(lit).is_some() => {
            let x = lit_f64(lit)?;
            Some(
                sel.iter()
                    .map(|&lane| {
                        let i = lane as usize;
                        present(tags, i)
                            & if lit_is_lhs {
                                f64_cmp_mask(op, x, data[i])
                            } else {
                                f64_cmp_mask(op, data[i], x)
                            }
                    })
                    .collect(),
            )
        }
        (Column::Str { codes, dict, tags }, lit) => {
            let pass: Vec<bool> = dict
                .iter()
                .map(|d| {
                    let r = if lit_is_lhs {
                        eval_binop(op, lit, d)
                    } else {
                        eval_binop(op, d, lit)
                    };
                    matches!(r, Ok(ref v) if truthy(v).is_true())
                })
                .collect();
            Some(
                sel.iter()
                    .map(|&lane| {
                        let i = lane as usize;
                        present(tags, i) && pass[codes[i] as usize]
                    })
                    .collect(),
            )
        }
        _ => None,
    }
}

/// The fused scan→filter→partial-aggregate shape: each aggregate argument
/// is `None` (`COUNT(*)`) or a bare scan column, folded straight off the
/// typed column vectors over the surviving selection — no projected batch,
/// no per-lane `Value` materialization.
pub(super) struct FusedAgg {
    cols: Vec<Option<usize>>,
}

/// The specialized form of one compiled pipeline: fused predicate trees
/// aligned with the pre-join and post-join stages (`None` = run that
/// stage generically), plus the fused aggregate fold when the terminal
/// qualifies. Built once per execution by [`specialize`] and shared
/// read-only across morsel workers.
pub(super) struct KernelPlan {
    pre_preds: Vec<Option<PredTree>>,
    stage_preds: Vec<Option<PredTree>>,
    agg: Option<FusedAgg>,
}

/// Compile the specialized form of a pipeline; `None` when no stage or
/// terminal has a fusable shape (running generic costs nothing extra).
pub(super) fn specialize(vp: &VecPipeline) -> Option<KernelPlan> {
    let preds = |stages: &[VecStage]| -> Vec<Option<PredTree>> {
        stages
            .iter()
            .map(|s| match s {
                VecStage::Filter(p) => pred_tree(p),
                _ => None,
            })
            .collect()
    };
    let pre_preds = preds(&vp.pre_stages);
    let stage_preds = preds(&vp.stages);
    let agg = fused_agg_shape(vp);
    if pre_preds.iter().all(Option::is_none)
        && stage_preds.iter().all(Option::is_none)
        && agg.is_none()
    {
        return None;
    }
    Some(KernelPlan {
        pre_preds,
        stage_preds,
        agg,
    })
}

/// The terminal qualifies for the fused aggregate fold when it is a
/// scalar (no GROUP BY) aggregation over bare scan columns with no join
/// in between (join events read derived columns, not scan lanes). `Final`
/// mode is excluded at runtime by the sink (its fold is `merge_partial`,
/// not `update`).
fn fused_agg_shape(vp: &VecPipeline) -> Option<FusedAgg> {
    if vp.join.is_some() {
        return None;
    }
    let VecTerminal::Agg { keys, args } = &vp.terminal else {
        return None;
    };
    if !keys.is_empty() {
        return None;
    }
    let mut cols = Vec::with_capacity(args.len());
    for arg in args {
        match arg {
            None => cols.push(None),
            Some(p) if p.instrs.is_empty() => match p.result {
                Src::Col(c) => cols.push(Some(c)),
                _ => return None,
            },
            Some(_) => return None,
        }
    }
    Some(FusedAgg { cols })
}

/// Fold the surviving selection straight into the sink's accumulators
/// with typed per-column loops — the fused scan→filter→aggregate kernel.
/// Returns `false` (without touching the sink) when this batch cannot
/// take the typed path: a fused column is not Int/Double here, or the
/// sink is grouped/Final. Callers guarantee `sel` is non-empty, the
/// tracker is clean, and no derived columns are in play, so the fold is
/// error-free and byte-identical to the generic per-lane updates.
fn fold_fused(
    fused: &FusedAgg,
    batch: &ColumnBatch,
    sel: &[u32],
    sink: &mut MorselSink<'_>,
) -> bool {
    for c in fused.cols.iter().flatten() {
        if !matches!(batch.column(*c), Column::Int { .. } | Column::Double { .. }) {
            return false;
        }
    }
    // `fused_accs` marks the aggregate state non-empty, so the type check
    // above must run first (a `false` return must leave the sink as-is).
    let Some(accs) = sink.fused_accs() else {
        return false;
    };
    debug_assert_eq!(accs.len(), fused.cols.len());
    for (acc, col) in accs.iter_mut().zip(&fused.cols) {
        match col {
            // COUNT(*) counts every surviving lane, unknown or not.
            None => acc.add_count(sel.len() as i64),
            Some(c) => match batch.column(*c) {
                Column::Int { data, tags } => {
                    if batch.all_valid(*c) {
                        for &lane in sel {
                            acc.update_int(data[lane as usize]);
                        }
                    } else {
                        for &lane in sel {
                            let i = lane as usize;
                            if tags[i] == Presence::Present {
                                acc.update_int(data[i]);
                            }
                        }
                    }
                }
                Column::Double { data, tags } => {
                    if batch.all_valid(*c) {
                        for &lane in sel {
                            acc.update_double(data[lane as usize]);
                        }
                    } else {
                        for &lane in sel {
                            let i = lane as usize;
                            if tags[i] == Presence::Present {
                                acc.update_double(data[i]);
                            }
                        }
                    }
                }
                _ => unreachable!("column types checked above"),
            },
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Pipeline driver
// ---------------------------------------------------------------------------

fn retain_mask<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut i = 0;
    v.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

/// Drop poisoned lanes from the selection (and the aligned derived
/// columns); their errors stay in the tracker for end-of-batch reporting.
fn compact_poisoned(
    sel: &mut Vec<u32>,
    derived: &mut Option<Vec<Vec<Value>>>,
    tracker: &ErrTracker,
) {
    if tracker.is_empty() {
        return;
    }
    let keep: Vec<bool> = sel.iter().map(|&lane| !tracker.poisoned(lane)).collect();
    retain_mask(sel, &keep);
    if let Some(cols) = derived {
        for col in cols.iter_mut() {
            retain_mask(col, &keep);
        }
    }
}

fn apply_filter(
    prog: &ExprProgram,
    batch: &ColumnBatch,
    sel: &mut Vec<u32>,
    derived: &mut Option<Vec<Vec<Value>>>,
    tracker: &mut ErrTracker,
) {
    let vals = run_program(prog, batch, sel, derived.as_deref(), 0, tracker);
    let keep: Vec<bool> = sel
        .iter()
        .zip(&vals)
        .map(|(&lane, v)| !tracker.poisoned(lane) && truthy(v).is_true())
        .collect();
    retain_mask(sel, &keep);
    if let Some(cols) = derived {
        for col in cols.iter_mut() {
            retain_mask(col, &keep);
        }
    }
}

// ---------------------------------------------------------------------------
// Join probing
// ---------------------------------------------------------------------------

/// Probe the join per surviving lane and switch the batch into event
/// space: `sel` becomes the surviving event ids, `derived` the join's
/// output columns, and the tracker an event-space tracker. Event order is
/// the row path's emission order — probe lanes in scan order; per lane,
/// hash matches in build insertion order, index matches in the pending
/// stack's pop order; a left-join miss emits one `Null`-build event.
fn run_join(
    join: &VecJoin,
    rt: &JoinRuntime<'_>,
    batch: &ColumnBatch,
    records: &[&Record],
    sel: &mut Vec<u32>,
    derived: &mut Option<Vec<Vec<Value>>>,
    tracker: &mut ErrTracker,
) {
    // A bare-column key needs no gathered key vector: each lane's key
    // reads straight from the typed column (zero-copy for strings, a
    // stack `Value` for ints/doubles).
    let trivial_key = match (join.key.instrs.is_empty(), join.key.result) {
        (true, Src::Col(c)) => Some(c),
        _ => None,
    };
    // Dictionary-code probing: a bare string column key looks up each
    // distinct dictionary value at most once per batch. Dictionary values
    // are strings (always hash-safe), so the memo agrees with per-row
    // lookups exactly.
    let dict_probe = match (trivial_key, rt) {
        (Some(c), JoinRuntime::Hash { .. }) => match batch.column(c) {
            Column::Str { codes, dict, tags } => Some((codes, dict, tags)),
            _ => None,
        },
        _ => None,
    };
    let key_vals = if trivial_key.is_some() {
        Vec::new()
    } else {
        run_program(&join.key, batch, sel, None, 0, tracker)
    };
    // The key of lane `lane` (selection position `k`), for the non-dict
    // paths.
    let key_at = |lane: u32, k: usize| -> Cow<'_, Value> {
        match trivial_key {
            Some(c) => batch.column(c).value_at(lane as usize),
            None => Cow::Borrowed(&key_vals[k]),
        }
    };

    // The event walk visits surviving lanes *and* poisoned lanes in lane
    // order: a lane that errored earlier (probe filter or key program)
    // becomes one poisoned event, exactly the one `Err` the row stream
    // yields for that row. With no poisoned lanes (the common case) the
    // selection vector itself is the visit order — no side table needed.
    let mut visits: Vec<(u32, usize)> = Vec::new();
    if !tracker.is_empty() {
        visits.extend(sel.iter().enumerate().map(|(k, &l)| (l, k)));
        for &lane in tracker.errs.keys() {
            if sel.binary_search(&lane).is_err() {
                visits.push((lane, usize::MAX));
            }
        }
        visits.sort_unstable();
    }

    let mut memo: Vec<Option<Option<&[u32]>>> = match &dict_probe {
        Some((_, dict, _)) => vec![None; dict.len()],
        None => Vec::new(),
    };
    let mut ev: u32 = 0;
    let mut sel_out: Vec<u32> = Vec::with_capacity(sel.len());
    let mut cols: Vec<Vec<Value>> = (0..join.cols.len())
        .map(|_| Vec::with_capacity(sel.len()))
        .collect();
    // Build rows of one table share a field layout: position hints turn
    // the per-event record lookups into single slot probes.
    let mut hints: Vec<usize> = vec![0; join.cols.len()];
    let mut ev_tracker = ErrTracker::default();

    let nvisits = if visits.is_empty() {
        sel.len()
    } else {
        visits.len()
    };
    for idx in 0..nvisits {
        let (lane, k) = if visits.is_empty() {
            (sel[idx], idx)
        } else {
            visits[idx]
        };
        if let Some((_, e)) = tracker.get(lane) {
            ev_tracker.poison(ev, 0, e.clone());
            ev += 1;
            continue;
        }
        match rt {
            JoinRuntime::Hash { table, rows } => {
                let matches: Option<&[u32]> = match &dict_probe {
                    Some((codes, _, tags)) => {
                        if tags[lane as usize] == Presence::Present {
                            let code = codes[lane as usize] as usize;
                            let (_, dict, _) = dict_probe.as_ref().expect("dict probe");
                            *memo[code].get_or_insert_with(|| table.lookup(&dict[code]))
                        } else {
                            // Null/Missing keys never match (the row path
                            // skips unknown keys before the lookup).
                            None
                        }
                    }
                    None => {
                        let key = key_at(lane, k);
                        if key.is_unknown() {
                            None
                        } else {
                            table.lookup(&key)
                        }
                    }
                };
                match matches {
                    Some(idxs) => {
                        for &bi in idxs {
                            emit_join_event(
                                join,
                                batch,
                                records,
                                lane,
                                rows.get(bi),
                                &mut cols,
                                &mut hints,
                                &mut sel_out,
                                &mut ev,
                                &mut ev_tracker,
                            );
                        }
                    }
                    None if join.left => emit_join_event(
                        join,
                        batch,
                        records,
                        lane,
                        BuildRef::Val(&Value::Null),
                        &mut cols,
                        &mut hints,
                        &mut sel_out,
                        &mut ev,
                        &mut ev_tracker,
                    ),
                    None => {}
                }
            }
            JoinRuntime::IndexNl { table, index } => {
                let key = key_at(lane, k);
                if key.is_unknown() {
                    continue;
                }
                let mut fetched: Vec<&Record> = Vec::new();
                let mut dangling = false;
                for rid in index.lookup(&key) {
                    match table.get(rid) {
                        Some(rec) => fetched.push(rec),
                        None => {
                            dangling = true;
                            break;
                        }
                    }
                }
                if dangling {
                    // The row path returns this error before any of the
                    // lane's matches are observable (consumers stop at the
                    // first `Err`), so the whole lane is one poisoned
                    // event.
                    ev_tracker.poison(ev, 0, EngineError::exec("dangling index entry"));
                    ev += 1;
                    continue;
                }
                // The row path pushes matches onto a pending stack and
                // pops, so they emit in reverse lookup order.
                for rec in fetched.iter().rev() {
                    emit_join_event(
                        join,
                        batch,
                        records,
                        lane,
                        BuildRef::Rec(rec),
                        &mut cols,
                        &mut hints,
                        &mut sel_out,
                        &mut ev,
                        &mut ev_tracker,
                    );
                }
            }
        }
    }
    *sel = sel_out;
    *derived = Some(cols);
    *tracker = ev_tracker;
}

/// Materialize one join event's output columns. A `MergeStars` error
/// poisons the event instead of emitting it (the row path fails on that
/// row's projection).
#[allow(clippy::too_many_arguments)]
fn emit_join_event(
    join: &VecJoin,
    batch: &ColumnBatch,
    records: &[&Record],
    lane: u32,
    build: BuildRef<'_>,
    cols: &mut [Vec<Value>],
    hints: &mut [usize],
    sel_out: &mut Vec<u32>,
    ev: &mut u32,
    tracker: &mut ErrTracker,
) {
    // The row path's `MergeStars` projection errors on any non-record
    // build side whether or not a downstream expression reads it, so the
    // check runs per event, up front.
    if join.merged && build.unmergeable() {
        tracker.poison(
            *ev,
            0,
            EngineError::exec(format!(
                "cannot flatten non-record binding {} ({})",
                join.build_binding,
                build.type_name()
            )),
        );
        *ev += 1;
        return;
    }
    sel_out.push(*ev);
    for ((c, col), hint) in cols.iter_mut().zip(&join.cols).zip(hints.iter_mut()) {
        let v = match col {
            JoinCol::ProbeField(ci) => batch.column(*ci).value_at(lane as usize).into_owned(),
            JoinCol::ProbeRow => Value::Obj(records[lane as usize].clone()),
            JoinCol::BuildRow => build.to_value(),
            JoinCol::BuildField(f) => build.field(f, hint).cloned().unwrap_or(Value::Missing),
            // `Merged` columns only come from `Env::Merged` contexts,
            // which always latch `join.merged`, so the up-front check
            // above guarantees this flatten cannot fail.
            JoinCol::Merged => {
                match merge_stars_pair(records[lane as usize], build, &join.build_binding) {
                    Ok(v) => v,
                    Err(_) => unreachable!("build validated by the merged check"),
                }
            }
            // The merged record's field without the record: build's value
            // when the (validated) build row has it, the probe's scan
            // column otherwise — record insertion order makes the build
            // side win on shared names.
            JoinCol::MergedField { field, probe_col } => match build.field(field, hint) {
                Some(v) => v.clone(),
                None => batch
                    .column(*probe_col)
                    .value_at(lane as usize)
                    .into_owned(),
            },
            JoinCol::Pair => make_record([
                (
                    join.probe_binding.clone(),
                    Value::Obj(records[lane as usize].clone()),
                ),
                (join.build_binding.clone(), build.to_value()),
            ]),
        };
        c.push(v);
    }
    *ev += 1;
}

/// `SELECT l.*, r.*` over one join pair, byte-identical to
/// `project_row(MergeStars([probe, build]))` on the pair record: probe
/// fields first, build fields overlaid; an unknown build side contributes
/// nothing; any other non-record build value is the row path's flatten
/// error.
fn merge_stars_pair(probe: &Record, build: BuildRef<'_>, build_binding: &str) -> Result<Value> {
    // Scanned records never hold duplicate field names (`Record::insert`
    // overwrites), so cloning the probe wholesale matches inserting its
    // fields one by one — without the quadratic duplicate scan.
    let mut rec = probe.clone();
    match build {
        BuildRef::Rec(inner) => {
            for (k, v) in inner.iter() {
                rec.insert(k.to_string(), v.clone());
            }
        }
        BuildRef::Val(Value::Obj(inner)) => {
            for (k, v) in inner.iter() {
                rec.insert(k.to_string(), v.clone());
            }
        }
        BuildRef::Val(Value::Missing | Value::Null) => {}
        BuildRef::Val(other) => {
            return Err(EngineError::exec(format!(
                "cannot flatten non-record binding {build_binding} ({})",
                other.type_name()
            )))
        }
    }
    Ok(Value::Obj(rec))
}

// ---------------------------------------------------------------------------
// Batch driver
// ---------------------------------------------------------------------------

/// Turn surviving lanes back into result rows (aligned with `sel`).
fn emit_rows(
    emit: &RowEmit,
    batch: &ColumnBatch,
    records: &[&Record],
    sel: &[u32],
    derived: &mut Option<Vec<Vec<Value>>>,
    stage: u32,
    tracker: &mut ErrTracker,
) -> Vec<Value> {
    match emit {
        RowEmit::Value(prog) => run_program(prog, batch, sel, derived.as_deref(), stage, tracker),
        _ => (0..sel.len())
            .map(|k| emit_lane(emit, records, sel, derived, k))
            .collect(),
    }
}

/// Build the result row of the `k`-th surviving lane, moving its derived
/// columns out. `SELECT VALUE` rows come from a batch program instead
/// (see [`emit_rows`]).
fn emit_lane(
    emit: &RowEmit,
    records: &[&Record],
    sel: &[u32],
    derived: &mut Option<Vec<Vec<Value>>>,
    k: usize,
) -> Value {
    match emit {
        RowEmit::Scanned => Value::Obj(records[sel[k] as usize].clone()),
        RowEmit::Derived(names) => {
            let Some(cols) = derived else {
                unreachable!("derived emit without a projection stage");
            };
            let mut rec = Record::with_capacity(names.len());
            for (ci, name) in names.iter().enumerate() {
                rec.insert(
                    name.clone(),
                    std::mem::replace(&mut cols[ci][k], Value::Null),
                );
            }
            Value::Obj(rec)
        }
        RowEmit::Col(c) => {
            let Some(cols) = derived else {
                unreachable!("column emit without derived columns");
            };
            std::mem::replace(&mut cols[*c][k], Value::Null)
        }
        RowEmit::Value(_) => unreachable!("SELECT VALUE rows are emitted per batch"),
    }
}

/// Run one row-local stage over the current selection.
fn run_stage(
    vs: &VecStage,
    batch: &ColumnBatch,
    sel: &mut Vec<u32>,
    derived: &mut Option<Vec<Vec<Value>>>,
    tracker: &mut ErrTracker,
) {
    match vs {
        VecStage::Filter(prog) => apply_filter(prog, batch, sel, derived, tracker),
        VecStage::Project(progs) => {
            let cols: Vec<Vec<Value>> = progs
                .iter()
                .map(|p| run_program(p, batch, sel, derived.as_deref(), 0, tracker))
                .collect();
            *derived = Some(cols);
            compact_poisoned(sel, derived, tracker);
        }
    }
}

/// Run one stage chain with its aligned predicate trees: a stage
/// whose tree applies (and whose batch state is clean) collapses to one
/// fused selection-mask pass; everything else runs the generic stage.
/// Returns `false` when the batch is exhausted (empty selection, no
/// pending errors).
fn run_stages(
    stages: &[VecStage],
    preds: Option<&[Option<PredTree>]>,
    batch: &ColumnBatch,
    sel: &mut Vec<u32>,
    derived: &mut Option<Vec<Vec<Value>>>,
    tracker: &mut ErrTracker,
) -> bool {
    for (si, vs) in stages.iter().enumerate() {
        let tree = preds.and_then(|p| p.get(si)).and_then(Option::as_ref);
        let fused = match tree {
            // Predicate trees read physical scan columns and never error,
            // so they only engage on a clean, un-projected batch.
            Some(tree) if derived.is_none() && tracker.is_empty() => pred_mask(tree, batch, sel),
            _ => None,
        };
        match fused {
            Some(mask) => {
                let mut w = 0usize;
                for i in 0..sel.len() {
                    let lane = sel[i];
                    sel[w] = lane;
                    w += mask[i] as usize;
                }
                sel.truncate(w);
            }
            None => run_stage(vs, batch, sel, derived, tracker),
        }
        if sel.is_empty() && tracker.is_empty() {
            return false;
        }
    }
    true
}

/// Run one batch of records through the pipeline into the morsel sink.
/// `spec` is the pipeline's specialized form, when it has one; `stats`
/// accumulates per-batch dictionary observability counters.
fn process_batch(
    vp: &VecPipeline,
    rt: Option<&JoinRuntime<'_>>,
    spec: Option<&KernelPlan>,
    records: &[&Record],
    sink: &mut MorselSink<'_>,
    stats: &mut RangeStats,
) -> Result<()> {
    let batch = ColumnBatch::from_records(records, &vp.scan_fields);
    stats.dict_columns += batch.dict_columns();
    stats.dict_demoted += batch.dict_demoted();
    let mut sel: Vec<u32> = (0..records.len() as u32).collect();
    let mut derived: Option<Vec<Vec<Value>>> = None;
    let mut tracker = ErrTracker::default();

    if !run_stages(
        &vp.pre_stages,
        spec.map(|s| s.pre_preds.as_slice()),
        &batch,
        &mut sel,
        &mut derived,
        &mut tracker,
    ) {
        return Ok(());
    }
    if let Some(join) = &vp.join {
        let Some(rt) = rt else {
            return Err(EngineError::exec("join runtime missing (executor bug)"));
        };
        run_join(
            join,
            rt,
            &batch,
            records,
            &mut sel,
            &mut derived,
            &mut tracker,
        );
        if sel.is_empty() && tracker.is_empty() {
            return Ok(());
        }
    }
    if !run_stages(
        &vp.stages,
        spec.map(|s| s.stage_preds.as_slice()),
        &batch,
        &mut sel,
        &mut derived,
        &mut tracker,
    ) {
        return Ok(());
    }

    match &vp.terminal {
        VecTerminal::Collect(emit) => match sink.wanted() {
            None => {
                let rows = emit_rows(emit, &batch, records, &sel, &mut derived, 0, &mut tracker);
                if let Some(e) = tracker.first_err() {
                    return Err(e);
                }
                stats.rows_built += rows.len();
                for row in rows {
                    sink.push(row);
                }
            }
            Some(want) => {
                // Early-exit limit: at most `want` more rows can leave, so
                // only the first `want` surviving lanes are built, one at a
                // time in lane order, interleaved with the recorded errors
                // — the serial `take(n)`'s event order. An error on a lane
                // before the next row settles the sink; so does the last
                // wanted row.
                sel.truncate(want);
                let mut values = match emit {
                    RowEmit::Value(prog) => {
                        let vals =
                            run_program(prog, &batch, &sel, derived.as_deref(), 0, &mut tracker);
                        stats.rows_built += vals.len();
                        Some(vals)
                    }
                    _ => None,
                };
                let first_err = tracker.first();
                for (k, &lane) in sel.iter().enumerate() {
                    if let Some((el, _, e)) = first_err {
                        if el <= lane {
                            sink.record_err(e.clone());
                            return Ok(());
                        }
                    }
                    let row = match &mut values {
                        Some(vals) => std::mem::replace(&mut vals[k], Value::Null),
                        None => {
                            stats.rows_built += 1;
                            emit_lane(emit, records, &sel, &mut derived, k)
                        }
                    };
                    sink.push(row);
                }
                // Fewer survivors than wanted: an error past the last one
                // is the next event.
                if let (false, Some((_, _, e))) = (sink.satisfied(), first_err) {
                    sink.record_err(e.clone());
                }
            }
        },
        VecTerminal::Sort { emit, keys } => {
            // Key programs run on every surviving lane, so key errors
            // fire exactly as in a full sort; rows are built only for
            // lanes the top-k admits. (Sort pipelines never emit
            // `SELECT VALUE` rows, so building a row cannot fail.)
            let mut key_vals: Vec<Vec<Value>> = keys
                .iter()
                .enumerate()
                .map(|(ki, (p, _))| {
                    run_program(p, &batch, &sel, derived.as_deref(), ki as u32, &mut tracker)
                })
                .collect();
            if let Some(e) = tracker.first_err() {
                return Err(e);
            }
            let sorted = sink.sorted();
            let mut key: Vec<SortKey> = Vec::with_capacity(keys.len());
            for k in 0..sel.len() {
                key.clear();
                key.extend(
                    keys.iter()
                        .zip(key_vals.iter_mut())
                        .map(|((_, desc), vals)| {
                            SortKey::new(std::mem::replace(&mut vals[k], Value::Null), *desc)
                        }),
                );
                if sorted.admits(&key) {
                    stats.rows_built += 1;
                    let row = emit_lane(emit, records, &sel, &mut derived, k);
                    let key = std::mem::replace(&mut key, Vec::with_capacity(keys.len()));
                    sorted.push(key, row);
                }
            }
        }
        VecTerminal::Agg { keys, args } => {
            // The fused scan→filter→aggregate kernel: no key/argument
            // program materialization at all. Only on a clean batch (the
            // fold is error-free and `saw_any` must reflect real lanes).
            if let Some(fused) = spec.and_then(|s| s.agg.as_ref()) {
                if derived.is_none()
                    && tracker.is_empty()
                    && !sel.is_empty()
                    && fold_fused(fused, &batch, &sel, sink)
                {
                    return Ok(());
                }
            }
            fold_aggregates(keys, args, &batch, &sel, &derived, &mut tracker, sink)?;
        }
    }
    Ok(())
}

/// Fold surviving lanes into the aggregate sink, reproducing the serial
/// per-row error order: for each lane in scan order, group-key errors come
/// before any accumulator update, and the update of aggregate `j` runs
/// before the argument error of aggregate `j+1`.
#[allow(clippy::too_many_arguments)]
fn fold_aggregates(
    keys: &[ExprProgram],
    args: &[Option<ExprProgram>],
    batch: &ColumnBatch,
    sel: &[u32],
    derived: &Option<Vec<Vec<Value>>>,
    tracker: &mut ErrTracker,
    sink: &mut MorselSink<'_>,
) -> Result<()> {
    let nkeys = keys.len() as u32;
    let mut key_vals: Vec<Vec<Value>> = keys
        .iter()
        .enumerate()
        .map(|(ki, p)| run_program(p, batch, sel, derived.as_deref(), ki as u32, tracker))
        .collect();
    let arg_vals: Vec<Option<Vec<Value>>> = args
        .iter()
        .enumerate()
        .map(|(ai, p)| {
            p.as_ref().map(|p| {
                run_program(
                    p,
                    batch,
                    sel,
                    derived.as_deref(),
                    nkeys + ai as u32,
                    tracker,
                )
            })
        })
        .collect();

    for (k, &lane) in sel.iter().enumerate() {
        // Errors on earlier (already filtered-out or join-poisoned) lanes
        // fire before this lane folds — the serial scan hit that row
        // first.
        if let Some((pl, _, e)) = tracker.first() {
            if pl < lane {
                return Err(e.clone());
            }
        }
        let lane_poison = tracker.get(lane).map(|(s, e)| (s, e.clone()));
        if let Some((s, e)) = &lane_poison {
            if *s < nkeys {
                return Err(e.clone());
            }
        }
        let key: Vec<OrdValue> = key_vals
            .iter_mut()
            .map(|vals| OrdValue(std::mem::replace(&mut vals[k], Value::Null)))
            .collect();
        // An argument-program error at stage `nkeys + j` lets updates
        // 0..j run first: an earlier aggregate's update error (e.g. SUM
        // over a string) outranks a later aggregate's evaluation error,
        // exactly as the row loop interleaves them.
        let upto = match &lane_poison {
            Some((s, _)) => (*s - nkeys) as usize,
            None => args.len(),
        };
        let lane_args: Vec<Option<&Value>> = arg_vals
            .iter()
            .map(|vals| vals.as_ref().map(|v| &v[k]))
            .collect();
        sink.push_agg(key, &lane_args[..upto])?;
        if let Some((_, e)) = lane_poison {
            return Err(e);
        }
    }
    if let Some(e) = tracker.first_err() {
        return Err(e);
    }
    Ok(())
}

/// Per-range execution counters: batches actually processed, the
/// dictionary observability totals (string columns built, and how many
/// overflowed `DICT_CAP` and demoted to generic value lanes), the rows
/// admitted into the range's top-k heap, and the result rows the terminal
/// built.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct RangeStats {
    pub(super) batches: usize,
    pub(super) dict_columns: usize,
    pub(super) dict_demoted: usize,
    pub(super) topk_rows: usize,
    pub(super) rows_built: usize,
}

impl RangeStats {
    /// Add another range's counters.
    pub(super) fn absorb(&mut self, other: RangeStats) {
        self.batches += other.batches;
        self.dict_columns += other.dict_columns;
        self.dict_demoted += other.dict_demoted;
        self.topk_rows += other.topk_rows;
        self.rows_built += other.rows_built;
    }
}

/// The part of the morsel domain one [`run_range`] call scans.
pub(super) enum Domain<'a> {
    /// Heap slots `[lo, hi)`.
    Slots(usize, usize),
    /// Record ids in index order, pulled only as batches need them (a
    /// chunk of the materialized rid list, or the B-tree walk itself).
    Rids(&'a mut dyn Iterator<Item = RecordId>),
}

/// Scan `domain` in batches, feeding each through the pipeline into
/// `sink`. The first batch holds `first_batch` lanes and each later one
/// doubles, up to the `batch_rows` cap: an early-exit `LIMIT k` prefix
/// starts at `k` so a limit the first rows satisfy never builds a full
/// batch, while the doubling keeps a selective limit from degrading into
/// many tiny batches. Returns the per-range counters: the loop stops as
/// soon as the sink is satisfied (its own early-exit limit) or the shared
/// `stop` flag latches (another worker's morsel settled the query).
#[allow(clippy::too_many_arguments)]
pub(super) fn run_range(
    table: &Table,
    domain: Domain<'_>,
    vp: &VecPipeline,
    rt: Option<&JoinRuntime<'_>>,
    spec: Option<&KernelPlan>,
    batch_rows: usize,
    first_batch: usize,
    sink: &mut MorselSink<'_>,
    stop: Option<&AtomicBool>,
) -> Result<RangeStats> {
    let cap = batch_rows.max(1);
    let mut size = first_batch.clamp(1, cap);
    let halted =
        |sink: &MorselSink<'_>| sink.satisfied() || stop.is_some_and(|s| s.load(Ordering::Relaxed));
    let mut stats = RangeStats::default();
    let mut refs: Vec<&Record> = Vec::with_capacity(size);
    match domain {
        Domain::Slots(lo, hi) => {
            let mut start = lo;
            while start < hi {
                if halted(sink) {
                    break;
                }
                let end = (start + size).min(hi);
                refs.clear();
                refs.extend(table.heap().scan_range(start, end).map(|(_, rec)| rec));
                process_batch(vp, rt, spec, &refs, sink, &mut stats)?;
                stats.batches += 1;
                start = end;
                size = (size * 2).min(cap);
            }
        }
        Domain::Rids(rids) => loop {
            if halted(sink) {
                break;
            }
            refs.clear();
            let mut dangling = None;
            for rid in (&mut *rids).take(size) {
                match table.get(rid) {
                    Some(rec) => refs.push(rec),
                    None => {
                        dangling = Some(EngineError::exec("dangling index entry"));
                        break;
                    }
                }
            }
            match dangling {
                None if refs.is_empty() => break,
                None => {
                    process_batch(vp, rt, spec, &refs, sink, &mut stats)?;
                    stats.batches += 1;
                    size = (size * 2).min(cap);
                }
                Some(e) => {
                    // Under an early-exit limit the rows before the
                    // dangling rid may still satisfy the query on their
                    // own; feed them, then record the error for the merge
                    // walk to place.
                    if sink.wanted().is_some() {
                        process_batch(vp, rt, spec, &refs, sink, &mut stats)?;
                        stats.batches += 1;
                        if !sink.satisfied() {
                            sink.record_err(e);
                        }
                        break;
                    }
                    return Err(e);
                }
            }
        },
    }
    stats.topk_rows = sink.topk_rows();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::eval::eval;
    use polyframe_datamodel::record;

    fn rows() -> Vec<Record> {
        vec![
            record! {"a" => 1i64, "s" => "x", "d" => 1.5},
            record! {"a" => 2i64, "s" => "y", "n" => Value::Null},
            record! {"a" => Value::Null, "s" => "x"},
            record! {"s" => "z", "d" => 4.0},
            record! {"a" => 5i64},
            record! {"a" => -3i64, "s" => "x", "d" => f64::NAN},
            record! {"a" => 7i64, "s" => "w", "d" => 2.0},
        ]
    }

    /// Compile `expr`, run it over a batch, and compare every lane to the
    /// row evaluator.
    fn assert_program_matches_eval(expr: &Scalar) {
        let recs = rows();
        let refs: Vec<&Record> = recs.iter().collect();
        let mut c = Compiler::scan();
        let prog = c.compile_expr(expr).expect("compilable");
        let batch = ColumnBatch::from_records(&refs, &c.scan_fields);
        let sel: Vec<u32> = (0..refs.len() as u32).collect();
        let mut tracker = ErrTracker::default();
        let got = run_program(&prog, &batch, &sel, None, 0, &mut tracker);
        for (k, rec) in recs.iter().enumerate() {
            let row = Value::Obj(rec.clone());
            match eval(expr, &row) {
                Ok(v) => {
                    assert!(!tracker.poisoned(k as u32), "lane {k} wrongly poisoned");
                    // Debug-compare: Value's PartialEq is IEEE, so NaN
                    // never equals itself even when both paths agree.
                    assert_eq!(
                        format!("{:?}", got[k]),
                        format!("{v:?}"),
                        "lane {k} diverges for {expr:?}"
                    );
                }
                Err(e) => {
                    let (_, got_e) = tracker.get(k as u32).expect("lane poisoned");
                    assert_eq!(got_e.to_string(), e.to_string(), "lane {k} error");
                }
            }
        }
    }

    fn field(name: &str) -> Scalar {
        Scalar::Field(name.into())
    }

    fn lit(v: impl Into<Value>) -> Scalar {
        Scalar::Lit(v.into())
    }

    fn bin(op: BinOp, a: Scalar, b: Scalar) -> Scalar {
        Scalar::Bin(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn programs_match_row_eval() {
        for expr in [
            bin(BinOp::Lt, field("a"), lit(3i64)),
            bin(BinOp::Eq, field("s"), lit("x")),
            bin(BinOp::Ne, lit("x"), field("s")),
            bin(BinOp::Add, field("a"), lit(10i64)),
            bin(BinOp::Add, field("a"), field("d")),
            bin(BinOp::Div, field("a"), lit(0i64)),
            Scalar::Is(Box::new(field("n")), IsKind::Null, false),
            Scalar::Is(Box::new(field("a")), IsKind::Missing, true),
            Scalar::Un(
                UnaryOp::Not,
                Box::new(bin(BinOp::Gt, field("a"), lit(1i64))),
            ),
            Scalar::Call(ScalarFunc::Upper, vec![field("s")]),
            bin(
                BinOp::And,
                bin(BinOp::Ge, field("a"), lit(1i64)),
                bin(BinOp::Eq, field("s"), lit("x")),
            ),
            // Errors on some lanes only (string minus int).
            bin(BinOp::Sub, field("s"), lit(1i64)),
            // Float kernels: double column vs numeric literal (NaN lanes
            // included), int column vs double literal.
            bin(BinOp::Lt, field("d"), lit(2.0)),
            bin(BinOp::Ge, lit(2.0), field("d")),
            bin(BinOp::Eq, field("d"), lit(1.5)),
            bin(BinOp::Ne, field("d"), lit(4i64)),
            bin(BinOp::Add, field("d"), lit(0.5)),
            bin(BinOp::Mul, lit(3.0), field("d")),
            bin(BinOp::Lt, field("a"), lit(2.5)),
            bin(BinOp::Sub, field("a"), lit(0.5)),
        ] {
            assert_program_matches_eval(&expr);
        }
    }

    #[test]
    fn null_fast_col_col_kernels_match_row_eval() {
        // Fully-present records: every column is all-valid, so the
        // branch-free typed loops (including column-vs-column) engage.
        let recs: Vec<Record> = (0..8)
            .map(|i| {
                record! {
                    "a" => i as i64,
                    "b" => (7 - i) as i64,
                    "x" => i as f64 * 0.5,
                    "y" => if i == 3 { f64::NAN } else { 2.0 - i as f64 },
                    "s" => if i % 2 == 0 { "even" } else { "odd" }
                }
            })
            .collect();
        let refs: Vec<&Record> = recs.iter().collect();
        for expr in [
            bin(BinOp::Lt, field("a"), field("b")),
            bin(BinOp::Eq, field("a"), field("b")),
            bin(BinOp::Add, field("a"), field("b")),
            bin(BinOp::Mul, field("a"), field("b")),
            bin(BinOp::Le, field("x"), field("y")),
            bin(BinOp::Ne, field("x"), field("y")),
            bin(BinOp::Sub, field("x"), field("y")),
            bin(BinOp::Gt, field("a"), lit(3i64)),
            bin(BinOp::Lt, field("x"), lit(1.25)),
            bin(BinOp::Eq, field("s"), lit("even")),
        ] {
            let recs2 = recs.clone();
            let refs2: Vec<&Record> = recs2.iter().collect();
            let mut c = Compiler::scan();
            let prog = c.compile_expr(&expr).expect("compilable");
            let batch = ColumnBatch::from_records(&refs, &c.scan_fields);
            for (ci, _) in c.scan_fields.iter().enumerate() {
                assert!(batch.all_valid(ci), "expected all-valid batch");
            }
            let sel: Vec<u32> = (0..refs.len() as u32).collect();
            let mut tracker = ErrTracker::default();
            let got = run_program(&prog, &batch, &sel, None, 0, &mut tracker);
            assert!(tracker.is_empty());
            for (k, rec) in refs2.iter().enumerate() {
                let want = eval(&expr, &Value::Obj((*rec).clone())).expect("row eval");
                // Debug-compare so NaN lanes (NaN != NaN) still count as
                // byte-identical.
                assert_eq!(
                    format!("{:?}", got[k]),
                    format!("{want:?}"),
                    "lane {k} diverges for {expr:?}"
                );
            }
        }
    }

    #[test]
    fn pred_tree_masks_match_generic_filter() {
        let recs = rows();
        let refs: Vec<&Record> = recs.iter().collect();
        let and = |a, b| bin(BinOp::And, a, b);
        let or = |a, b| bin(BinOp::Or, a, b);
        for expr in [
            and(
                bin(BinOp::Lt, field("a"), lit(3i64)),
                bin(BinOp::Eq, field("s"), lit("x")),
            ),
            or(
                bin(BinOp::Ge, field("a"), lit(5i64)),
                bin(BinOp::Lt, field("d"), lit(2.0)),
            ),
            or(
                and(
                    bin(BinOp::Gt, field("a"), lit(0i64)),
                    bin(BinOp::Ne, field("s"), lit("y")),
                ),
                Scalar::Is(Box::new(field("d")), IsKind::Missing, false),
            ),
            and(
                Scalar::Is(Box::new(field("n")), IsKind::Null, false),
                bin(BinOp::Gt, field("a"), lit(0i64)),
            ),
            // Single leaves are valid (degenerate) trees too.
            bin(BinOp::Le, field("d"), lit(2.5)),
            Scalar::Is(Box::new(field("a")), IsKind::Null, true),
        ] {
            let mut c = Compiler::scan();
            let prog = c.compile_expr(&expr).expect("compilable");
            let tree = pred_tree(&prog).expect("fusable predicate");
            let batch = ColumnBatch::from_records(&refs, &c.scan_fields);
            let sel: Vec<u32> = (0..refs.len() as u32).collect();
            let mask = pred_mask(&tree, &batch, &sel).expect("typed mask");
            // Reference: generic truthiness over the program output.
            let mut tracker = ErrTracker::default();
            let vals = run_program(&prog, &batch, &sel, None, 0, &mut tracker);
            assert!(tracker.is_empty());
            let want: Vec<bool> = vals.iter().map(|v| truthy(v).is_true()).collect();
            assert_eq!(mask, want, "mask divergence for {expr:?}");
        }
        // Shapes outside the fusable grammar are rejected, not mis-fused.
        for expr in [
            bin(BinOp::Add, field("a"), lit(1i64)),
            Scalar::Un(
                UnaryOp::Not,
                Box::new(bin(BinOp::Lt, field("a"), lit(3i64))),
            ),
            bin(BinOp::Lt, field("a"), field("d")),
        ] {
            let mut c = Compiler::scan();
            let prog = c.compile_expr(&expr).expect("compilable");
            assert!(pred_tree(&prog).is_none(), "should not fuse {expr:?}");
        }
    }

    #[test]
    fn fused_agg_fold_matches_generic_updates() {
        use crate::plan::logical::{AggExpr, AggFunc};
        let aggs = vec![
            AggExpr {
                name: "c".into(),
                func: AggFunc::Count,
                arg: AggArg::Star,
            },
            AggExpr {
                name: "s".into(),
                func: AggFunc::Sum,
                arg: AggArg::Expr(field("a")),
            },
            AggExpr {
                name: "m".into(),
                func: AggFunc::Min,
                arg: AggArg::Expr(field("d")),
            },
            AggExpr {
                name: "x".into(),
                func: AggFunc::Max,
                arg: AggArg::Expr(field("a")),
            },
        ];
        let recs = rows();
        let refs: Vec<&Record> = recs.iter().collect();
        let fields = vec!["a".to_string(), "d".to_string()];
        let batch = ColumnBatch::from_records(&refs, &fields);
        let sel: Vec<u32> = (0..refs.len() as u32).collect();
        let fused = FusedAgg {
            cols: vec![None, Some(0), Some(1), Some(0)],
        };
        for mode in [AggMode::Complete, AggMode::Partial] {
            let group_by: Vec<(String, Scalar)> = Vec::new();
            let mut sink =
                MorselSink::Aggregate(super::super::AggState::new(&group_by, &aggs, mode));
            assert!(fold_fused(&fused, &batch, &sel, &mut sink));
            let MorselSink::Aggregate(state) = sink else {
                unreachable!("aggregate sink");
            };
            let got = state.finish();
            // Reference: the generic per-row fold.
            let mut want_state = super::super::AggState::new(&group_by, &aggs, mode);
            for rec in &recs {
                want_state.push(&Value::Obj(rec.clone())).expect("push");
            }
            let want = want_state.finish();
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "fused fold diverges in {mode:?} mode"
            );
        }
    }

    #[test]
    fn specialize_covers_filter_and_scalar_agg_shapes() {
        // A scan→filter→aggregate pipeline specializes both the predicate
        // and the fold; a grouped or expression-argument terminal only the
        // predicate.
        let mut c = Compiler::scan();
        let pred = c
            .compile_expr(&bin(BinOp::Lt, field("a"), lit(3i64)))
            .expect("pred");
        let arg = c.compile_expr(&field("d")).expect("arg");
        let vp = VecPipeline {
            scan_fields: c.scan_fields.clone(),
            pre_stages: Vec::new(),
            join: None,
            stages: vec![VecStage::Filter(pred)],
            terminal: VecTerminal::Agg {
                keys: Vec::new(),
                args: vec![None, Some(arg)],
            },
        };
        let plan = specialize(&vp).expect("specializable");
        assert!(plan.stage_preds[0].is_some());
        let agg = plan.agg.as_ref().expect("fused agg");
        assert_eq!(agg.cols, vec![None, Some(1)]);
        // An expression argument (instructions) blocks the fused fold.
        let mut c2 = Compiler::scan();
        let expr_arg = c2
            .compile_expr(&bin(BinOp::Add, field("a"), lit(1i64)))
            .expect("arg");
        let vp2 = VecPipeline {
            scan_fields: c2.scan_fields.clone(),
            pre_stages: Vec::new(),
            join: None,
            stages: Vec::new(),
            terminal: VecTerminal::Agg {
                keys: Vec::new(),
                args: vec![Some(expr_arg)],
            },
        };
        assert!(specialize(&vp2).is_none());
    }

    #[test]
    fn poisoned_lanes_report_lowest_lane_first() {
        let recs = rows();
        let refs: Vec<&Record> = recs.iter().collect();
        let mut c = Compiler::scan();
        // `s - 1` errors on every lane with a string.
        let prog = c
            .compile_expr(&bin(BinOp::Sub, field("s"), lit(1i64)))
            .unwrap();
        let batch = ColumnBatch::from_records(&refs, &c.scan_fields);
        let sel: Vec<u32> = (0..refs.len() as u32).collect();
        let mut tracker = ErrTracker::default();
        run_program(&prog, &batch, &sel, None, 0, &mut tracker);
        let (lane, _, _) = tracker.first().expect("errors recorded");
        assert_eq!(lane, 0, "lowest lane wins");
    }

    #[test]
    fn scan_env_rejects_row_scoped_references() {
        let mut c = Compiler::scan();
        assert!(c.compile_expr(&Scalar::Input).is_err());
        assert!(c
            .compile_expr(&Scalar::FieldOf("l".into(), "x".into()))
            .is_err());
        // BindingRef evaluates exactly like Field — it compiles as a scan
        // column.
        let prog = c.compile_expr(&Scalar::BindingRef("r".into())).unwrap();
        assert_eq!(prog.result, Src::Col(0));
        assert_eq!(c.scan_fields, vec!["r".to_string()]);
    }

    #[test]
    fn join_env_maps_references_to_join_columns() {
        let mut c = Compiler::scan();
        c.env = Env::Join {
            probe: "l".into(),
            build: "r".into(),
        };
        // A probe-side field reads its scan column through the join.
        let p = c
            .compile_expr(&Scalar::FieldOf("l".into(), "x".into()))
            .unwrap();
        assert_eq!(p.result, Src::Col(0));
        assert_eq!(c.join_cols[0], JoinCol::ProbeField(0));
        assert_eq!(c.scan_fields, vec!["x".to_string()]);
        // Whole-binding references.
        let p = c.compile_expr(&field("l")).unwrap();
        assert_eq!(p.result, Src::Col(1));
        assert_eq!(c.join_cols[1], JoinCol::ProbeRow);
        let p = c.compile_expr(&Scalar::BindingRef("r".into())).unwrap();
        assert_eq!(p.result, Src::Col(2));
        assert_eq!(c.join_cols[2], JoinCol::BuildRow);
        // Build-side field.
        let p = c
            .compile_expr(&Scalar::FieldOf("r".into(), "y".into()))
            .unwrap();
        assert_eq!(p.result, Src::Col(3));
        assert_eq!(c.join_cols[3], JoinCol::BuildField("y".into()));
        // The whole pair row.
        let p = c.compile_expr(&Scalar::Input).unwrap();
        assert_eq!(p.result, Src::Col(4));
        assert_eq!(c.join_cols[4], JoinCol::Pair);
        // A name that is neither binding is Missing on the pair record.
        let p = c.compile_expr(&field("z")).unwrap();
        assert_eq!(p.result, Src::Lit(0));
        assert_eq!(p.lits[0], Value::Missing);
        // Repeated references reuse the same join column.
        let p = c.compile_expr(&field("l")).unwrap();
        assert_eq!(p.result, Src::Col(1));
        assert_eq!(c.join_cols.len(), 5);
    }

    #[test]
    fn merge_stars_pair_overlays_build_fields() {
        let probe = record! {"a" => 1i64, "b" => "p"};
        // Build object overlays shared fields.
        let build = Value::Obj(record! {"b" => "q", "c" => 3i64});
        let merged = merge_stars_pair(&probe, BuildRef::Val(&build), "r").unwrap();
        assert_eq!(
            merged,
            Value::Obj(record! {"a" => 1i64, "b" => "q", "c" => 3i64})
        );
        // Unknown build side (left-join miss) contributes nothing.
        for miss in [Value::Null, Value::Missing] {
            let merged = merge_stars_pair(&probe, BuildRef::Val(&miss), "r").unwrap();
            assert_eq!(merged, Value::Obj(probe.clone()));
        }
        // Non-record build value is the row path's flatten error.
        let err = merge_stars_pair(&probe, BuildRef::Val(&Value::Int(9)), "r").unwrap_err();
        assert_eq!(
            err.to_string(),
            EngineError::exec("cannot flatten non-record binding r (int)").to_string()
        );
    }
}
