//! Aggregate accumulators with partial/merge support.
//!
//! The same accumulators serve single-node aggregation and the distributed
//! two-phase (partial → merge → finalize) protocol used by
//! `polyframe-cluster`: `COUNT` sums partial counts, `SUM` carries a
//! [`NumericSum`] (exact over Ints), `AVG` carries
//! `(sum, count)`, `STDDEV` carries `(sum, sum-of-squares, count)` — the
//! standard decompositions that make speedup experiments (paper Fig. 9)
//! possible on aggregation queries.

use crate::error::{EngineError, Result};
use crate::plan::logical::AggFunc;
use polyframe_datamodel::{cmp_total, record, NumericSum, Record, Value};
use std::cmp::Ordering;

/// Total-order wrapper making [`Value`] usable as a map/set key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_total(&self.0, &other.0)
    }
}

/// A running aggregate.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    state: State,
}

#[derive(Debug, Clone)]
enum State {
    Count(i64),
    Sum { sum: NumericSum, seen: bool },
    MinMax(Option<Value>),
    Avg { sum: f64, count: i64 },
    Std { sum: f64, sumsq: f64, count: i64 },
}

impl Accumulator {
    /// Fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Accumulator {
        let state = match func {
            AggFunc::Count => State::Count(0),
            AggFunc::Sum => State::Sum {
                sum: NumericSum::default(),
                seen: false,
            },
            AggFunc::Min | AggFunc::Max => State::MinMax(None),
            AggFunc::Avg => State::Avg { sum: 0.0, count: 0 },
            AggFunc::StdDev => State::Std {
                sum: 0.0,
                sumsq: 0.0,
                count: 0,
            },
        };
        Accumulator { func, state }
    }

    /// The aggregate function this accumulator computes.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Fold a row's value in. `COUNT(*)` callers pass `None` for "a row
    /// exists"; expression aggregates pass the evaluated argument (unknown
    /// values are skipped per SQL semantics).
    pub fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match (&mut self.state, value) {
            (State::Count(n), None) => *n += 1,
            (State::Count(n), Some(v)) => {
                if !v.is_unknown() {
                    *n += 1;
                }
            }
            (_, None) => {
                return Err(EngineError::exec("only COUNT accepts a bare row"));
            }
            (State::Sum { sum, seen }, Some(v)) => {
                if sum.add(v) {
                    *seen = true;
                } else if !v.is_unknown() {
                    return Err(non_numeric("SUM", v));
                }
            }
            (State::MinMax(slot), Some(v)) => {
                if !v.is_unknown() {
                    let better = match (&self.func, slot.as_ref()) {
                        (_, None) => true,
                        (AggFunc::Min, Some(cur)) => cmp_total(v, cur) == Ordering::Less,
                        (AggFunc::Max, Some(cur)) => cmp_total(v, cur) == Ordering::Greater,
                        _ => unreachable!(),
                    };
                    if better {
                        *slot = Some(v.clone());
                    }
                }
            }
            (State::Avg { sum, count }, Some(v)) => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *count += 1;
                } else if !v.is_unknown() {
                    return Err(non_numeric("AVG", v));
                }
            }
            (State::Std { sum, sumsq, count }, Some(v)) => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *sumsq += x * x;
                    *count += 1;
                } else if !v.is_unknown() {
                    return Err(non_numeric("STDDEV", v));
                }
            }
        }
        Ok(())
    }

    /// Typed fast fold: exactly `update(Some(&Value::Int(i)))`, minus the
    /// `Value` dispatch. Int lanes never error (always numeric, never
    /// unknown), so specialized kernels fold raw `i64` vectors through
    /// this in lane order and stay bit-identical to the generic path.
    pub(crate) fn update_int(&mut self, i: i64) {
        match &mut self.state {
            State::Count(n) => *n += 1,
            State::Sum { sum, seen } => {
                sum.add_int(i);
                *seen = true;
            }
            State::MinMax(slot) => {
                let v = Value::Int(i);
                let better = match (&self.func, slot.as_ref()) {
                    (_, None) => true,
                    (AggFunc::Min, Some(cur)) => cmp_total(&v, cur) == Ordering::Less,
                    (AggFunc::Max, Some(cur)) => cmp_total(&v, cur) == Ordering::Greater,
                    _ => unreachable!(),
                };
                if better {
                    *slot = Some(v);
                }
            }
            State::Avg { sum, count } => {
                *sum += i as f64;
                *count += 1;
            }
            State::Std { sum, sumsq, count } => {
                let x = i as f64;
                *sum += x;
                *sumsq += x * x;
                *count += 1;
            }
        }
    }

    /// Typed fast fold: exactly `update(Some(&Value::Double(d)))`. Double
    /// lanes (NaN included — `as_f64` passes NaN through) never error.
    pub(crate) fn update_double(&mut self, d: f64) {
        match &mut self.state {
            State::Count(n) => *n += 1,
            State::Sum { sum, seen } => {
                sum.add_double(d);
                *seen = true;
            }
            State::MinMax(slot) => {
                let v = Value::Double(d);
                let better = match (&self.func, slot.as_ref()) {
                    (_, None) => true,
                    (AggFunc::Min, Some(cur)) => cmp_total(&v, cur) == Ordering::Less,
                    (AggFunc::Max, Some(cur)) => cmp_total(&v, cur) == Ordering::Greater,
                    _ => unreachable!(),
                };
                if better {
                    *slot = Some(v);
                }
            }
            State::Avg { sum, count } => {
                *sum += d;
                *count += 1;
            }
            State::Std { sum, sumsq, count } => {
                *sum += d;
                *sumsq += d * d;
                *count += 1;
            }
        }
    }

    /// Batched `COUNT(*)`: exactly `n` calls of `update(None)` on a COUNT
    /// accumulator. Callers guarantee the function; other states never
    /// take this path.
    pub(crate) fn add_count(&mut self, n: i64) {
        match &mut self.state {
            State::Count(c) => *c += n,
            _ => unreachable!("add_count on non-COUNT accumulator"),
        }
    }

    /// Final value.
    pub fn finalize(&self) -> Value {
        match &self.state {
            State::Count(n) => Value::Int(*n),
            State::Sum { sum, seen } => {
                if *seen {
                    sum.value()
                } else {
                    Value::Null
                }
            }
            State::MinMax(v) => v.clone().unwrap_or(Value::Null),
            State::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *count as f64)
                }
            }
            State::Std { sum, sumsq, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    let n = *count as f64;
                    let mean = sum / n;
                    let var = (sumsq / n - mean * mean).max(0.0);
                    Value::Double(var.sqrt())
                }
            }
        }
    }

    /// Serialize the running state for shipping between shards.
    pub fn to_partial(&self) -> Value {
        match &self.state {
            State::Count(n) => Value::Obj(record! {"count" => *n}),
            State::Sum { sum, seen } => {
                let mut rec = Record::new();
                sum.write_partial(&mut rec);
                rec.insert("seen", *seen);
                Value::Obj(rec)
            }
            State::MinMax(v) => Value::Obj(record! {
                "value" => v.clone().unwrap_or(Value::Null),
                "present" => v.is_some(),
            }),
            State::Avg { sum, count } => Value::Obj(record! {
                "sum" => *sum,
                "count" => *count,
            }),
            State::Std { sum, sumsq, count } => Value::Obj(record! {
                "sum" => *sum,
                "sumsq" => *sumsq,
                "count" => *count,
            }),
        }
    }

    /// Merge another accumulator's state directly — bit-for-bit the same
    /// arithmetic as `merge_partial(&other.to_partial())`, minus the
    /// record round-trip. The vectorized final-aggregate merge folds
    /// per-morsel states with this instead of rematerializing partial
    /// rows.
    pub fn merge_state(&mut self, other: &Accumulator) {
        match (&mut self.state, &other.state) {
            (State::Count(n), State::Count(m)) => *n += m,
            (State::Sum { sum, seen }, State::Sum { sum: s2, seen: e2 }) => {
                sum.merge(s2);
                *seen |= e2;
            }
            (State::MinMax(slot), State::MinMax(Some(v))) => {
                let better = match (&self.func, slot.as_ref()) {
                    (_, None) => true,
                    (AggFunc::Min, Some(cur)) => cmp_total(v, cur) == Ordering::Less,
                    (AggFunc::Max, Some(cur)) => cmp_total(v, cur) == Ordering::Greater,
                    _ => unreachable!(),
                };
                if better {
                    *slot = Some(v.clone());
                }
            }
            (State::MinMax(_), State::MinMax(None)) => {}
            (State::Avg { sum, count }, State::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (
                State::Std { sum, sumsq, count },
                State::Std {
                    sum: s2,
                    sumsq: q2,
                    count: c2,
                },
            ) => {
                *sum += s2;
                *sumsq += q2;
                *count += c2;
            }
            // Accumulators merged across morsels always share a function.
            _ => unreachable!("merge_state across aggregate kinds"),
        }
    }

    /// Merge a serialized partial state (from [`Accumulator::to_partial`]).
    pub fn merge_partial(&mut self, partial: &Value) -> Result<()> {
        let get_f = |k: &str| partial.get_path(k).as_f64().unwrap_or(0.0);
        let get_i = |k: &str| partial.get_path(k).as_i64().unwrap_or(0);
        let get_b = |k: &str| partial.get_path(k).as_bool().unwrap_or(false);
        match &mut self.state {
            State::Count(n) => *n += get_i("count"),
            State::Sum { sum, seen } => {
                sum.merge(&NumericSum::from_partial(partial));
                *seen |= get_b("seen");
            }
            State::MinMax(slot) => {
                if get_b("present") {
                    let v = partial.get_path("value");
                    let better = match (&self.func, slot.as_ref()) {
                        (_, None) => true,
                        (AggFunc::Min, Some(cur)) => cmp_total(&v, cur) == Ordering::Less,
                        (AggFunc::Max, Some(cur)) => cmp_total(&v, cur) == Ordering::Greater,
                        _ => unreachable!(),
                    };
                    if better {
                        *slot = Some(v);
                    }
                }
            }
            State::Avg { sum, count } => {
                *sum += get_f("sum");
                *count += get_i("count");
            }
            State::Std { sum, sumsq, count } => {
                *sum += get_f("sum");
                *sumsq += get_f("sumsq");
                *count += get_i("count");
            }
        }
        Ok(())
    }
}

fn non_numeric(func: &str, v: &Value) -> EngineError {
    EngineError::exec(format!("{func} over non-numeric value ({})", v.type_name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = Accumulator::new(func);
        for v in vals {
            acc.update(Some(v)).unwrap();
        }
        acc.finalize()
    }

    #[test]
    fn count_skips_unknowns() {
        assert_eq!(
            run(
                AggFunc::Count,
                &[Value::Int(1), Value::Null, Value::Missing, Value::Int(2)]
            ),
            Value::Int(2)
        );
        let mut star = Accumulator::new(AggFunc::Count);
        for _ in 0..5 {
            star.update(None).unwrap();
        }
        assert_eq!(star.finalize(), Value::Int(5));
    }

    #[test]
    fn sum_int_preservation() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Int(2)]),
            Value::Int(3)
        );
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Double(0.5)]),
            Value::Double(1.5)
        );
        assert_eq!(run(AggFunc::Sum, &[Value::Null]), Value::Null);
    }

    #[test]
    fn min_max() {
        let vals = [Value::Int(5), Value::Null, Value::Int(2), Value::Int(9)];
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(2));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(9));
        assert_eq!(run(AggFunc::Min, &[]), Value::Null);
    }

    #[test]
    fn avg_and_std() {
        let vals: Vec<Value> = (1..=4).map(Value::Int).collect();
        assert_eq!(run(AggFunc::Avg, &vals), Value::Double(2.5));
        // Population stddev of 1..4 = sqrt(1.25).
        match run(AggFunc::StdDev, &vals) {
            Value::Double(d) => assert!((d - 1.25f64.sqrt()).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partial_merge_equals_direct() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            let all: Vec<Value> = (1..=10).map(Value::Int).collect();
            let direct = run(func, &all);

            let mut shard1 = Accumulator::new(func);
            let mut shard2 = Accumulator::new(func);
            for v in &all[..4] {
                shard1.update(Some(v)).unwrap();
            }
            for v in &all[4..] {
                shard2.update(Some(v)).unwrap();
            }
            let mut merged = Accumulator::new(func);
            merged.merge_partial(&shard1.to_partial()).unwrap();
            merged.merge_partial(&shard2.to_partial()).unwrap();
            let merged_val = merged.finalize();
            match (&direct, &merged_val) {
                (Value::Double(a), Value::Double(b)) => assert!((a - b).abs() < 1e-9),
                (a, b) => assert_eq!(a, b, "func {func:?}"),
            }
        }
    }

    #[test]
    fn merge_state_equals_partial_roundtrip() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            let vals: Vec<Value> = vec![
                Value::Int(3),
                Value::Double(1.5),
                Value::Null,
                Value::Int(-2),
            ];
            let mut a = Accumulator::new(func);
            let mut b = Accumulator::new(func);
            for v in &vals[..2] {
                a.update(Some(v)).unwrap();
            }
            for v in &vals[2..] {
                b.update(Some(v)).unwrap();
            }
            let mut via_partial = Accumulator::new(func);
            via_partial.merge_partial(&a.to_partial()).unwrap();
            via_partial.merge_partial(&b.to_partial()).unwrap();
            let mut via_state = Accumulator::new(func);
            via_state.merge_state(&a);
            via_state.merge_state(&b);
            // Bit-exact, not approximately equal: both run the same f64
            // additions in the same order.
            assert_eq!(
                format!("{:?}", via_state.finalize()),
                format!("{:?}", via_partial.finalize()),
                "func {func:?}"
            );
            assert_eq!(
                format!("{:?}", via_state.to_partial()),
                format!("{:?}", via_partial.to_partial()),
                "func {func:?} partial"
            );
        }
    }

    #[test]
    fn typed_folds_match_update() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            let mut generic = Accumulator::new(func);
            let mut typed = Accumulator::new(func);
            for &i in &[3i64, -7, 0, 9, i64::MAX] {
                generic.update(Some(&Value::Int(i))).unwrap();
                typed.update_int(i);
            }
            for &d in &[1.5, f64::NAN, -0.0, 2.0, f64::INFINITY] {
                generic.update(Some(&Value::Double(d))).unwrap();
                typed.update_double(d);
            }
            // Bit-exact: same f64 additions in the same order.
            assert_eq!(
                format!("{:?}", typed.finalize()),
                format!("{:?}", generic.finalize()),
                "func {func:?}"
            );
            assert_eq!(
                format!("{:?}", typed.to_partial()),
                format!("{:?}", generic.to_partial()),
                "func {func:?} partial"
            );
        }
        let mut generic = Accumulator::new(AggFunc::Count);
        let mut typed = Accumulator::new(AggFunc::Count);
        for _ in 0..7 {
            generic.update(None).unwrap();
        }
        typed.add_count(7);
        assert_eq!(typed.finalize(), generic.finalize());
    }

    #[test]
    fn errors_on_non_numeric() {
        let mut acc = Accumulator::new(AggFunc::Sum);
        assert!(acc.update(Some(&Value::str("x"))).is_err());
        let mut avg = Accumulator::new(AggFunc::Avg);
        assert!(avg.update(None).is_err());
    }

    #[test]
    fn ordvalue_total_order() {
        let mut v = [
            OrdValue(Value::str("b")),
            OrdValue(Value::Int(1)),
            OrdValue(Value::Null),
        ];
        v.sort();
        assert_eq!(v[0].0, Value::Null);
        assert_eq!(v[2].0, Value::str("b"));
    }
}
