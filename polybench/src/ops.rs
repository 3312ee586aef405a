//! What the workloads run: the paper's 13 expressions (Table III) and
//! four interactive point operations, each split into its lazy
//! transformation chain and its action so the two can be timed apart,
//! with the closed-form result every one of them must return.
//!
//! This is the benchmark's own copy: it may not change when the
//! repository's `polyframe-bench` library does.

use polyframe::prelude::*;
use polyframe_datamodel::Value;
use std::borrow::Cow;

/// SplitMix64: the benchmark's own generator, so that a seed names the
/// same parameters and key streams at every commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Equal seeds give equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The paper's `x`, `y`, `z`: literals "within an attribute's range".
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Expressions 3 and 10: the `ten` selector.
    pub ten: i64,
    /// Expression 3: `twentyPercent`, congruent with `ten` so that the
    /// conjunction selects rows.
    pub twenty_percent: i64,
    /// Expression 3: `two`, congruent likewise.
    pub two: i64,
    /// Expression 11: lower bound on `onePercent`.
    pub range_lo: i64,
    /// Expression 11: upper bound (`range_lo + 15`, 16 % of the rows).
    pub range_hi: i64,
}

impl Params {
    /// Draw the literals from `seed`.
    pub fn seeded(seed: u64) -> Params {
        let mut rng = Rng::new(seed);
        let ten = rng.below(10) as i64;
        let range_lo = rng.below(80) as i64;
        Params {
            ten,
            twenty_percent: ten % 5,
            two: ten % 2,
            range_lo,
            range_hi: range_lo + 15,
        }
    }
}

/// One operation a workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Expression 1 to 13 of Table III.
    Expr(u8),
    /// `df[df.unique1 == k].head(5)`, `k` never repeated.
    PtEq,
    /// [`Op::PtEq`] with `k` from a small hot set: always a cached plan.
    PtHot,
    /// `len(df[(unique1 >= k) & (unique1 < k + 50)])`.
    PtRange,
    /// `df[df.unique1 == k][['two', 'four']].head(1)`: three nested
    /// subqueries.
    PtChain,
}

/// Rows a range probe selects.
pub const RANGE_WIDTH: i64 = 50;

/// The 13 expressions, in order.
pub const EXPRESSIONS: [Op; 13] = [
    Op::Expr(1),
    Op::Expr(2),
    Op::Expr(3),
    Op::Expr(4),
    Op::Expr(5),
    Op::Expr(6),
    Op::Expr(7),
    Op::Expr(8),
    Op::Expr(9),
    Op::Expr(10),
    Op::Expr(11),
    Op::Expr(12),
    Op::Expr(13),
];

/// The point operations, in reporting order.
pub const POINT_OPS: [Op; 4] = [Op::PtEq, Op::PtHot, Op::PtRange, Op::PtChain];

/// What an action returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A row count (`len`).
    Count(usize),
    /// A scalar aggregate.
    Scalar(Value),
    /// Materialized rows.
    Rows(ResultSet),
}

impl Output {
    /// The output in brief, for a failure line: counts and scalars as
    /// they are, rows by their number.
    pub fn digest(&self) -> String {
        match self {
            Output::Count(n) => format!("count={n}"),
            Output::Scalar(v) => format!("scalar={v}"),
            Output::Rows(rows) => format!("rows={}", rows.len()),
        }
    }
}

impl Op {
    /// The label metric names carry (`e01` … `e13`, `pt_eq`, …).
    pub fn label(self) -> &'static str {
        const EXPR: [&str; 13] = [
            "e01", "e02", "e03", "e04", "e05", "e06", "e07", "e08", "e09", "e10", "e11", "e12",
            "e13",
        ];
        match self {
            Op::Expr(n) => EXPR[usize::from(n) - 1],
            Op::PtEq => "pt_eq",
            Op::PtHot => "pt_hot",
            Op::PtRange => "pt_range",
            Op::PtChain => "pt_chain",
        }
    }

    /// The lazy half: apply the transformations, touching no database.
    /// `k` is the key of a point operation and unused by expressions.
    pub fn build<'a>(
        self,
        df: &'a AFrame,
        df2: &AFrame,
        p: &Params,
        k: i64,
    ) -> polyframe::Result<Cow<'a, AFrame>> {
        let owned = match self {
            Op::Expr(1) => return Ok(Cow::Borrowed(df)),
            Op::Expr(2) => df.select(&["two", "four"])?,
            Op::Expr(3) => df.mask(
                &(col("ten").eq(p.ten)
                    & col("twentyPercent").eq(p.twenty_percent)
                    & col("two").eq(p.two)),
            )?,
            Op::Expr(4) => df.groupby("oddOnePercent").agg(AggFunc::Count)?,
            Op::Expr(5) => df.col("stringu1")?.map(MapFunc::Upper)?,
            Op::Expr(6) | Op::Expr(7) => df.col("unique1")?,
            Op::Expr(8) => df.groupby("twenty").agg_on("four", AggFunc::Max)?,
            Op::Expr(9) => df.sort_values("unique1", false)?,
            Op::Expr(10) => df.mask(&col("ten").eq(p.ten))?,
            Op::Expr(11) => {
                df.mask(&(col("onePercent").ge(p.range_lo) & col("onePercent").le(p.range_hi)))?
            }
            Op::Expr(12) => df.merge(df2, "unique1")?,
            Op::Expr(13) => df.mask(&col("tenPercent").is_na())?,
            Op::Expr(n) => unreachable!("Table III has no expression {n}"),
            Op::PtEq | Op::PtHot => df.mask(&col("unique1").eq(k))?,
            Op::PtRange => df.mask(&(col("unique1").ge(k) & col("unique1").lt(k + RANGE_WIDTH)))?,
            Op::PtChain => df.mask(&col("unique1").eq(k))?.select(&["two", "four"])?,
        };
        Ok(Cow::Owned(owned))
    }

    /// The eager half: the action that ships the query.
    pub fn act(self, frame: &AFrame) -> polyframe::Result<Output> {
        Ok(match self {
            Op::Expr(1 | 3 | 11 | 12 | 13) | Op::PtRange => Output::Count(frame.len()?),
            Op::Expr(2 | 5 | 9 | 10) | Op::PtEq | Op::PtHot => Output::Rows(frame.head(5)?),
            Op::Expr(4 | 8) => Output::Rows(frame.collect()?),
            Op::Expr(6) => Output::Scalar(frame.max()?),
            Op::Expr(7) => Output::Scalar(frame.min()?),
            Op::PtChain => Output::Rows(frame.head(1)?),
            Op::Expr(n) => unreachable!("Table III has no expression {n}"),
        })
    }

    /// Whether `out` is the closed-form answer for `n` generated rows
    /// (`unique1` is a permutation of `0..n` and every other attribute a
    /// function of it, so no answer depends on the data seed).
    pub fn is_correct(self, out: &Output, n: usize, p: &Params, k: i64) -> bool {
        let n_i = n as i64;
        // How many `unique1` values in `0..n` leave `rest` modulo `m`.
        let congruent = |m: i64, rest: i64| {
            if n_i > rest {
                ((n_i - rest - 1) / m + 1) as usize
            } else {
                0
            }
        };
        let rows = |want: usize| matches!(out, Output::Rows(r) if r.len() == want);
        let count = |want: usize| *out == Output::Count(want);
        match self {
            Op::Expr(1 | 12) => count(n),
            Op::Expr(2 | 5 | 9) => rows(n.min(5)),
            // `twentyPercent` and `two` are congruent with `ten` by
            // construction, so the conjunction selects `ten`'s rows.
            Op::Expr(3) => count(congruent(10, p.ten)),
            Op::Expr(4) => rows(n.min(100)),
            Op::Expr(6) => *out == Output::Scalar(Value::Int(n_i - 1)),
            Op::Expr(7) => *out == Output::Scalar(Value::Int(0)),
            Op::Expr(8) => rows(n.min(20)),
            Op::Expr(10) => rows(congruent(10, p.ten).min(5)),
            Op::Expr(11) => count((p.range_lo..=p.range_hi).map(|c| congruent(100, c)).sum()),
            Op::Expr(13) => count(congruent(10, 0)),
            Op::Expr(n) => unreachable!("Table III has no expression {n}"),
            Op::PtEq | Op::PtHot => match out {
                Output::Rows(r) => r.len() == 1 && r.rows()[0].get_path("unique1") == Value::Int(k),
                _ => false,
            },
            Op::PtRange => count(((k + RANGE_WIDTH).min(n_i) - k.max(0)).max(0) as usize),
            Op::PtChain => match out {
                Output::Rows(r) => {
                    r.len() == 1
                        && r.rows()[0].get_path("two") == Value::Int(k % 2)
                        && r.rows()[0].get_path("four") == Value::Int(k % 4)
                }
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_name_their_parameters() {
        let (a, b) = (Params::seeded(7), Params::seeded(7));
        assert_eq!((a.ten, a.range_lo), (b.ten, b.range_lo));
        assert_eq!(a.twenty_percent, a.ten % 5);
        assert_eq!(a.two, a.ten % 2);
        assert_eq!(a.range_hi - a.range_lo, 15);
        let mut keys: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut keys);
        let mut again: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut again);
        assert_eq!(keys, again);
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn labels_are_what_metric_names_carry() {
        assert_eq!(Op::Expr(3).label(), "e03");
        assert_eq!(Op::Expr(13).label(), "e13");
        assert_eq!(Op::PtChain.label(), "pt_chain");
    }
}
