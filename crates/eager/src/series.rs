//! Columns extracted from a frame, boolean masks, and eager column maps.

use crate::budget::{Allocation, EagerError, MemoryBudget, Result};
use polyframe_datamodel::{cmp_total, sql_compare, NumericSum, Value};
use std::cmp::Ordering;

/// A materialized column (an eager copy, like `df['col']` in Pandas).
pub struct Series {
    /// Column name.
    pub name: String,
    values: Vec<Value>,
    _alloc: Allocation,
}

fn values_size(values: &[Value]) -> usize {
    values.iter().map(Value::approx_size).sum()
}

impl Series {
    /// Build a series, charging the budget for the copy.
    pub fn new(
        name: impl Into<String>,
        values: Vec<Value>,
        budget: &MemoryBudget,
    ) -> Result<Series> {
        let alloc = budget.alloc(values_size(&values))?;
        Ok(Series {
            name: name.into(),
            values,
            _alloc: alloc,
        })
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// First `n` values (copied — Pandas `head` copies too).
    pub fn head(&self, n: usize, budget: &MemoryBudget) -> Result<Series> {
        Series::new(
            self.name.clone(),
            self.values.iter().take(n).cloned().collect(),
            budget,
        )
    }

    fn compare_mask(
        &self,
        rhs: &Value,
        budget: &MemoryBudget,
        f: impl Fn(Option<Ordering>) -> bool,
    ) -> Result<BoolMask> {
        let bits: Vec<bool> = self
            .values
            .iter()
            .map(|v| {
                if v.is_unknown() || rhs.is_unknown() {
                    false
                } else {
                    f(sql_compare(v, rhs))
                }
            })
            .collect();
        BoolMask::new(bits, budget)
    }

    /// `series == value`.
    pub fn eq(&self, rhs: &Value, budget: &MemoryBudget) -> Result<BoolMask> {
        self.compare_mask(rhs, budget, |o| o == Some(Ordering::Equal))
    }

    /// `series != value`.
    pub fn ne(&self, rhs: &Value, budget: &MemoryBudget) -> Result<BoolMask> {
        self.compare_mask(
            rhs,
            budget,
            |o| matches!(o, Some(x) if x != Ordering::Equal),
        )
    }

    /// `series > value`.
    pub fn gt(&self, rhs: &Value, budget: &MemoryBudget) -> Result<BoolMask> {
        self.compare_mask(rhs, budget, |o| o == Some(Ordering::Greater))
    }

    /// `series >= value`.
    pub fn ge(&self, rhs: &Value, budget: &MemoryBudget) -> Result<BoolMask> {
        self.compare_mask(rhs, budget, |o| {
            matches!(o, Some(Ordering::Greater | Ordering::Equal))
        })
    }

    /// `series < value`.
    pub fn lt(&self, rhs: &Value, budget: &MemoryBudget) -> Result<BoolMask> {
        self.compare_mask(rhs, budget, |o| o == Some(Ordering::Less))
    }

    /// `series <= value`.
    pub fn le(&self, rhs: &Value, budget: &MemoryBudget) -> Result<BoolMask> {
        self.compare_mask(rhs, budget, |o| {
            matches!(o, Some(Ordering::Less | Ordering::Equal))
        })
    }

    /// `series.isna()` — true for null or absent values.
    pub fn isna(&self, budget: &MemoryBudget) -> Result<BoolMask> {
        BoolMask::new(self.values.iter().map(Value::is_unknown).collect(), budget)
    }

    /// Eagerly apply `f` to every value (the expression-5 trap: the whole
    /// mapped column exists before any `head`).
    pub fn map(&self, budget: &MemoryBudget, f: impl Fn(&Value) -> Value) -> Result<Series> {
        Series::new(
            format!("{}_mapped", self.name),
            self.values.iter().map(f).collect(),
            budget,
        )
    }

    /// `str.upper` map.
    pub fn map_upper(&self, budget: &MemoryBudget) -> Result<Series> {
        self.map(budget, |v| match v {
            Value::Str(s) => Value::Str(s.to_uppercase()),
            other => other.clone(),
        })
    }

    /// Max over known values.
    pub fn max(&self) -> Value {
        self.values
            .iter()
            .filter(|v| !v.is_unknown())
            .max_by(|a, b| cmp_total(a, b))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Min over known values.
    pub fn min(&self) -> Value {
        self.values
            .iter()
            .filter(|v| !v.is_unknown())
            .min_by(|a, b| cmp_total(a, b))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Sum over numeric values.
    pub fn sum(&self) -> Value {
        let mut sum = NumericSum::default();
        let mut any = false;
        for v in &self.values {
            any |= sum.add(v);
        }
        if any {
            sum.value()
        } else {
            Value::Null
        }
    }

    /// Mean over numeric values.
    pub fn mean(&self) -> Value {
        let (mut sum, mut n) = (0.0, 0usize);
        for v in &self.values {
            if let Some(x) = v.as_f64() {
                sum += x;
                n += 1;
            }
        }
        if n == 0 {
            Value::Null
        } else {
            Value::Double(sum / n as f64)
        }
    }

    /// Population standard deviation over numeric values.
    pub fn std(&self) -> Value {
        let (mut sum, mut sumsq, mut n) = (0.0, 0.0, 0usize);
        for v in &self.values {
            if let Some(x) = v.as_f64() {
                sum += x;
                sumsq += x * x;
                n += 1;
            }
        }
        if n == 0 {
            Value::Null
        } else {
            let nf = n as f64;
            let mean = sum / nf;
            Value::Double((sumsq / nf - mean * mean).max(0.0).sqrt())
        }
    }

    /// Count of known values.
    pub fn count(&self) -> Value {
        Value::Int(self.values.iter().filter(|v| !v.is_unknown()).count() as i64)
    }
}

/// A materialized boolean mask (`df['a'] == x` in Pandas allocates one of
/// these for the full column).
pub struct BoolMask {
    bits: Vec<bool>,
    _alloc: Allocation,
}

impl BoolMask {
    /// Build a mask, charging the budget one byte per row.
    pub fn new(bits: Vec<bool>, budget: &MemoryBudget) -> Result<BoolMask> {
        let alloc = budget.alloc(bits.len())?;
        Ok(BoolMask {
            bits,
            _alloc: alloc,
        })
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Borrow the bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of `true` rows.
    pub fn count_true(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
    }

    /// Elementwise AND (allocates a new mask, eagerly).
    pub fn and(&self, other: &BoolMask, budget: &MemoryBudget) -> Result<BoolMask> {
        if self.len() != other.len() {
            return Err(EagerError::Data("mask length mismatch".to_string()));
        }
        BoolMask::new(
            self.bits
                .iter()
                .zip(other.bits.iter())
                .map(|(a, b)| *a && *b)
                .collect(),
            budget,
        )
    }

    /// Elementwise OR.
    pub fn or(&self, other: &BoolMask, budget: &MemoryBudget) -> Result<BoolMask> {
        if self.len() != other.len() {
            return Err(EagerError::Data("mask length mismatch".to_string()));
        }
        BoolMask::new(
            self.bits
                .iter()
                .zip(other.bits.iter())
                .map(|(a, b)| *a || *b)
                .collect(),
            budget,
        )
    }

    /// Elementwise NOT.
    pub fn not(&self, budget: &MemoryBudget) -> Result<BoolMask> {
        BoolMask::new(self.bits.iter().map(|b| !b).collect(), budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: Vec<Value>) -> (Series, MemoryBudget) {
        let b = MemoryBudget::unlimited();
        let s = Series::new("s", vals, &b).unwrap();
        (s, b)
    }

    #[test]
    fn comparisons() {
        let (s, b) = series(vec![Value::Int(1), Value::Int(5), Value::Null]);
        assert_eq!(s.eq(&Value::Int(5), &b).unwrap().count_true(), 1);
        assert_eq!(s.ge(&Value::Int(1), &b).unwrap().count_true(), 2);
        assert_eq!(s.lt(&Value::Int(5), &b).unwrap().count_true(), 1);
        assert_eq!(s.ne(&Value::Int(1), &b).unwrap().count_true(), 1);
    }

    #[test]
    fn isna() {
        let (s, b) = series(vec![Value::Int(1), Value::Null, Value::Missing]);
        assert_eq!(s.isna(&b).unwrap().count_true(), 2);
    }

    #[test]
    fn aggregates() {
        let (s, _b) = series(vec![Value::Int(1), Value::Int(4), Value::Null]);
        assert_eq!(s.max(), Value::Int(4));
        assert_eq!(s.min(), Value::Int(1));
        assert_eq!(s.sum(), Value::Int(5));
        assert_eq!(s.mean(), Value::Double(2.5));
        assert_eq!(s.count(), Value::Int(2));
    }

    #[test]
    fn map_upper() {
        let (s, b) = series(vec![Value::str("ab"), Value::Null]);
        let up = s.map_upper(&b).unwrap();
        assert_eq!(up.values()[0], Value::str("AB"));
        assert_eq!(up.values()[1], Value::Null);
    }

    #[test]
    fn mask_logic() {
        let b = MemoryBudget::unlimited();
        let m1 = BoolMask::new(vec![true, false, true], &b).unwrap();
        let m2 = BoolMask::new(vec![true, true, false], &b).unwrap();
        assert_eq!(m1.and(&m2, &b).unwrap().count_true(), 1);
        assert_eq!(m1.or(&m2, &b).unwrap().count_true(), 3);
        assert_eq!(m1.not(&b).unwrap().count_true(), 1);
        let short = BoolMask::new(vec![true], &b).unwrap();
        assert!(m1.and(&short, &b).is_err());
    }

    #[test]
    fn masks_charge_budget() {
        let b = MemoryBudget::with_limit(10);
        assert!(BoolMask::new(vec![false; 11], &b).is_err());
        assert!(BoolMask::new(vec![false; 10], &b).is_ok());
    }
}
