//! The numeric `SUM` rule every store shares.

use crate::{Record, Value};

/// A running numeric sum with one result rule for every store.
///
/// * An all-`Int` sum is exact, and stays `Int` while the total fits in
///   `i64`.
/// * Past that it widens to the `Double` nearest the exact total, like
///   MongoDB's `$sum`.
/// * Once a `Double` joins, the result is the `f64` sum of every value in
///   arrival order.
///
/// The exact part is kept to 128 bits, so an all-`Int` result does not
/// depend on how the values were split into partial sums: shards and
/// morsels merge to the single-node answer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NumericSum {
    /// The exact `Int` total is `carry * 2^64 + int`.
    int: i64,
    carry: i64,
    float: f64,
    has_double: bool,
}

impl NumericSum {
    /// Fold in an `Int`.
    pub fn add_int(&mut self, i: i64) {
        self.add_exact(i, 0);
        self.float += i as f64;
    }

    /// Add `carry * 2^64 + i` to the exact part.
    fn add_exact(&mut self, i: i64, carry: i64) {
        let (int, wrapped) = self.int.overflowing_add(i);
        self.int = int;
        self.carry += carry
            + match (wrapped, i < 0) {
                (false, _) => 0,
                (true, false) => 1,
                (true, true) => -1,
            };
    }

    /// Fold in a `Double`.
    pub fn add_double(&mut self, d: f64) {
        self.float += d;
        self.has_double = true;
    }

    /// Fold in `v` if it is numeric; returns whether it was.
    pub fn add(&mut self, v: &Value) -> bool {
        match v {
            Value::Int(i) => self.add_int(*i),
            Value::Double(d) => self.add_double(*d),
            _ => return false,
        }
        true
    }

    /// Fold in another partial sum.
    pub fn merge(&mut self, other: &NumericSum) {
        self.add_exact(other.int, other.carry);
        self.float += other.float;
        self.has_double |= other.has_double;
    }

    /// The `f64` sum of every value, in arrival order (what `AVG` and
    /// `STDDEV` divide).
    pub fn as_f64(&self) -> f64 {
        self.float
    }

    /// The `SUM` result (`Int(0)` when nothing was added).
    pub fn value(&self) -> Value {
        if self.has_double {
            Value::Double(self.float)
        } else if self.carry == 0 {
            Value::Int(self.int)
        } else {
            let exact = (i128::from(self.carry) << 64) + i128::from(self.int);
            Value::Double(exact as f64)
        }
    }

    /// Store the state in a partial-aggregate record, for shipping between
    /// shards; [`NumericSum::from_partial`] reads it back.
    pub fn write_partial(&self, rec: &mut Record) {
        rec.insert("sum", self.float);
        rec.insert("int", self.int);
        rec.insert("carry", self.carry);
        rec.insert("has_double", self.has_double);
    }

    /// Read a state written by [`NumericSum::write_partial`].
    pub fn from_partial(partial: &Value) -> NumericSum {
        let int = |k: &str| partial.get_path(k).as_i64().unwrap_or(0);
        NumericSum {
            int: int("int"),
            carry: int("carry"),
            float: partial.get_path("sum").as_f64().unwrap_or(0.0),
            has_double: partial.get_path("has_double").as_bool().unwrap_or(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(vals: &[Value]) -> NumericSum {
        let mut s = NumericSum::default();
        for v in vals {
            s.add(v);
        }
        s
    }

    #[test]
    fn int_sums_are_exact_then_widen() {
        let big = 1i64 << 53;
        assert_eq!(
            sum(&[Value::Int(big + 1), Value::Int(big + 2)]).value(),
            Value::Int((1 << 54) + 3)
        );
        let over = sum(&[Value::Int(1 << 62), Value::Int(1 << 62)]);
        assert_eq!(over.value(), Value::Double(2f64.powi(63)));
        // Back in range: the exact total decides, not the running one.
        let back = sum(&[Value::Int(i64::MAX), Value::Int(1), Value::Int(-2)]);
        assert_eq!(back.value(), Value::Int(i64::MAX - 1));
        assert_eq!(
            sum(&[Value::Int(1), Value::Double(0.5)]).value(),
            Value::Double(1.5)
        );
        assert_eq!(sum(&[Value::str("x")]).value(), Value::Int(0));
    }

    #[test]
    fn partials_round_trip_and_merge_to_the_whole() {
        let vals: Vec<Value> = [i64::MIN, -3, i64::MAX, i64::MAX, 7]
            .into_iter()
            .map(Value::Int)
            .collect();
        let mut merged = NumericSum::default();
        for part in vals.chunks(2) {
            let mut rec = Record::new();
            sum(part).write_partial(&mut rec);
            let shipped = NumericSum::from_partial(&Value::Obj(rec));
            assert_eq!(shipped, sum(part));
            merged.merge(&shipped);
        }
        assert_eq!(merged.value(), sum(&vals).value());
    }
}
