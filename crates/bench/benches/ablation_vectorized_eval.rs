//! Ablation: row-at-a-time vs vectorized batch evaluation on one core.
//!
//! Three groups, each switching exactly one evaluation knob:
//!
//! * `vectorized_eval` — the filter+project scan of
//!   `ablations::VEC_QUERY` (a ~50% selective integer predicate
//!   projecting two integers and the dictionary-encoded `string4`
//!   column) on the PostgreSQL personality with one worker: the
//!   recursive per-row `Scalar` interpreter vs compiled expression
//!   programs over columnar batches.
//! * `vectorized_join` — the join-heavy `ablations::JOIN_QUERY`
//!   (self-join on `unique1` plus filter and SUM, all cores): rowwise
//!   vs the batch hash-join path.
//! * `kernel_specialization` — the fused filter+aggregate
//!   `ablations::KERNEL_QUERY` on one worker: the generic vectorized
//!   interpreter vs specialized null-fast fused kernels. Each engine
//!   runs the query once before timing so its plan cache is warm when
//!   sampling starts.
//!
//! Output is byte-identical across every mode, so each gap is pure
//! evaluation overhead.

use polyframe_bench::ablations::{
    eval_engine, join_engine, kernel_engine, JOIN_QUERY, KERNEL_QUERY, VEC_QUERY,
};
use polyframe_bench::microbench::Runner;

const N: usize = 100_000;
const JOIN_N: usize = 20_000;

fn main() {
    let mut c = Runner::from_args();

    let mut g = c.benchmark_group("vectorized_eval");
    g.sample_size(15);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (mode, vectorized) in [("rowwise", false), ("vectorized", true)] {
        let engine = eval_engine(N, vectorized);
        g.bench_function(mode, |b| b.iter(|| engine.query(VEC_QUERY).unwrap()));
    }
    g.finish();

    let mut g = c.benchmark_group("vectorized_join");
    g.sample_size(15);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (mode, vectorized) in [("rowwise", false), ("vectorized", true)] {
        let engine = join_engine(JOIN_N, vectorized);
        g.bench_function(mode, |b| b.iter(|| engine.query(JOIN_QUERY).unwrap()));
    }
    g.finish();

    let mut g = c.benchmark_group("kernel_specialization");
    g.sample_size(15);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (mode, specialize) in [("generic", false), ("specialized", true)] {
        let engine = kernel_engine(N, specialize);
        engine.query(KERNEL_QUERY).unwrap();
        g.bench_function(mode, |b| b.iter(|| engine.query(KERNEL_QUERY).unwrap()));
    }
    g.finish();
}
