//! Aggregation expression parsing and evaluation.
//!
//! MongoDB expression semantics differ from SQL in two load-bearing ways:
//!
//! * comparisons use the **BSON total order** (missing < null < numbers <
//!   strings < ...), so `{"$lt": ["$f", null]}` is the canonical "field is
//!   missing" test the paper's expression 13 uses;
//! * `$and`/`$or` use truthiness (null/missing/0/false are falsy) rather
//!   than three-valued logic.

use crate::error::{DocError, Result};
use polyframe_datamodel::{cmp_total, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `$eq`
    Eq,
    /// `$ne`
    Ne,
    /// `$gt`
    Gt,
    /// `$gte`
    Ge,
    /// `$lt`
    Lt,
    /// `$lte`
    Le,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `$add`
    Add,
    /// `$subtract`
    Sub,
    /// `$multiply`
    Mul,
    /// `$divide`
    Div,
    /// `$mod`
    Mod,
}

/// A parsed aggregation expression.
#[derive(Debug, Clone, PartialEq)]
pub enum MongoExpr {
    /// Literal value.
    Lit(Value),
    /// `"$a.b"` — document field path.
    FieldRef(Vec<String>),
    /// `"$$var"` — pipeline variable (from `$lookup` `let`).
    VarRef(String),
    /// `{"$eq": [a, b]}` etc.
    Cmp(CmpOp, Box<MongoExpr>, Box<MongoExpr>),
    /// `{"$and": [...]}`
    And(Vec<MongoExpr>),
    /// `{"$or": [...]}`
    Or(Vec<MongoExpr>),
    /// `{"$not": [a]}`
    Not(Box<MongoExpr>),
    /// `{"$add": [a, b]}` etc.
    Arith(ArithOp, Box<MongoExpr>, Box<MongoExpr>),
    /// `{"$toUpper": a}`
    ToUpper(Box<MongoExpr>),
    /// `{"$toLower": a}`
    ToLower(Box<MongoExpr>),
    /// `{"$toInt": a}`
    ToInt(Box<MongoExpr>),
    /// `{"$toString": a}`
    ToString(Box<MongoExpr>),
    /// `{"$abs": a}`
    Abs(Box<MongoExpr>),
}

/// Parse an expression from its JSON representation.
pub fn parse_expr(v: &Value) -> Result<MongoExpr> {
    match v {
        Value::Str(s) if s.starts_with("$$") => Ok(MongoExpr::VarRef(s[2..].to_string())),
        Value::Str(s) if s.starts_with('$') => Ok(MongoExpr::FieldRef(super::split_path(&s[1..]))),
        Value::Obj(obj) if obj.len() == 1 => {
            let (op, body) = obj.iter().next().unwrap();
            match op {
                "$eq" => binary_cmp(CmpOp::Eq, body),
                "$ne" => binary_cmp(CmpOp::Ne, body),
                "$gt" => binary_cmp(CmpOp::Gt, body),
                "$gte" => binary_cmp(CmpOp::Ge, body),
                "$lt" => binary_cmp(CmpOp::Lt, body),
                "$lte" => binary_cmp(CmpOp::Le, body),
                "$and" => Ok(MongoExpr::And(parse_list(body)?)),
                "$or" => Ok(MongoExpr::Or(parse_list(body)?)),
                "$not" => {
                    let args = parse_list(body)?;
                    let inner = args
                        .into_iter()
                        .next()
                        .ok_or_else(|| DocError::Pipeline("$not needs an argument".to_string()))?;
                    Ok(MongoExpr::Not(Box::new(inner)))
                }
                "$add" => binary_arith(ArithOp::Add, body),
                "$subtract" => binary_arith(ArithOp::Sub, body),
                "$multiply" => binary_arith(ArithOp::Mul, body),
                "$divide" => binary_arith(ArithOp::Div, body),
                "$mod" => binary_arith(ArithOp::Mod, body),
                "$toUpper" => Ok(MongoExpr::ToUpper(Box::new(parse_expr(body)?))),
                "$toLower" => Ok(MongoExpr::ToLower(Box::new(parse_expr(body)?))),
                "$toInt" => Ok(MongoExpr::ToInt(Box::new(parse_expr(body)?))),
                "$toString" => Ok(MongoExpr::ToString(Box::new(parse_expr(body)?))),
                "$abs" => Ok(MongoExpr::Abs(Box::new(parse_expr(body)?))),
                "$literal" => Ok(MongoExpr::Lit(body.clone())),
                other => Err(DocError::Pipeline(format!("unsupported operator {other}"))),
            }
        }
        // Any other value (including multi-key objects treated as literals).
        other => Ok(MongoExpr::Lit(other.clone())),
    }
}

fn parse_list(v: &Value) -> Result<Vec<MongoExpr>> {
    match v {
        Value::Array(items) => items.iter().map(parse_expr).collect(),
        single => Ok(vec![parse_expr(single)?]),
    }
}

fn binary_cmp(op: CmpOp, body: &Value) -> Result<MongoExpr> {
    let args = parse_list(body)?;
    if args.len() != 2 {
        return Err(DocError::Pipeline(format!(
            "comparison takes two operands, got {}",
            args.len()
        )));
    }
    let mut it = args.into_iter();
    Ok(MongoExpr::Cmp(
        op,
        Box::new(it.next().unwrap()),
        Box::new(it.next().unwrap()),
    ))
}

fn binary_arith(op: ArithOp, body: &Value) -> Result<MongoExpr> {
    let args = parse_list(body)?;
    if args.len() != 2 {
        return Err(DocError::Pipeline(format!(
            "arithmetic takes two operands, got {}",
            args.len()
        )));
    }
    let mut it = args.into_iter();
    Ok(MongoExpr::Arith(
        op,
        Box::new(it.next().unwrap()),
        Box::new(it.next().unwrap()),
    ))
}

/// Variable bindings available during evaluation (`$lookup` `let`).
pub type Vars = HashMap<String, Value>;

/// Evaluate an expression against one document.
pub fn eval(expr: &MongoExpr, doc: &Value, vars: &Vars) -> Result<Value> {
    match expr {
        MongoExpr::Lit(v) => Ok(v.clone()),
        MongoExpr::FieldRef(path) => {
            let mut cur = doc.clone();
            for part in path {
                cur = cur.get_path(part);
            }
            Ok(cur)
        }
        MongoExpr::VarRef(name) => vars
            .get(name)
            .cloned()
            .ok_or_else(|| DocError::Exec(format!("undefined variable $${name}"))),
        MongoExpr::Cmp(op, a, b) => {
            let (x, y) = (eval(a, doc, vars)?, eval(b, doc, vars)?);
            let ord = cmp_total(&x, &y);
            let r = match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
            };
            Ok(Value::Bool(r))
        }
        MongoExpr::And(items) => {
            for item in items {
                if !truthy(&eval(item, doc, vars)?) {
                    return Ok(Value::Bool(false));
                }
            }
            Ok(Value::Bool(true))
        }
        MongoExpr::Or(items) => {
            for item in items {
                if truthy(&eval(item, doc, vars)?) {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
        MongoExpr::Not(inner) => Ok(Value::Bool(!truthy(&eval(inner, doc, vars)?))),
        MongoExpr::Arith(op, a, b) => {
            let (x, y) = (eval(a, doc, vars)?, eval(b, doc, vars)?);
            if x.is_unknown() || y.is_unknown() {
                return Ok(Value::Null);
            }
            let (Some(xf), Some(yf)) = (x.as_f64(), y.as_f64()) else {
                return Err(DocError::Exec(format!(
                    "arithmetic over non-numeric values ({}, {})",
                    x.type_name(),
                    y.type_name()
                )));
            };
            let both_int = matches!((&x, &y), (Value::Int(_), Value::Int(_)));
            let r = match op {
                ArithOp::Add => xf + yf,
                ArithOp::Sub => xf - yf,
                ArithOp::Mul => xf * yf,
                ArithOp::Div => {
                    if yf == 0.0 {
                        return Ok(Value::Null);
                    }
                    return Ok(Value::Double(xf / yf));
                }
                ArithOp::Mod => {
                    if yf == 0.0 {
                        return Ok(Value::Null);
                    }
                    xf % yf
                }
            };
            if both_int && r.fract() == 0.0 {
                Ok(Value::Int(r as i64))
            } else {
                Ok(Value::Double(r))
            }
        }
        MongoExpr::ToUpper(a) => {
            let v = eval(a, doc, vars)?;
            // MongoDB: $toUpper of null/missing is "".
            Ok(Value::Str(match v {
                Value::Str(s) => s.to_uppercase(),
                Value::Missing | Value::Null => String::new(),
                other => other.to_string().to_uppercase(),
            }))
        }
        MongoExpr::ToLower(a) => {
            let v = eval(a, doc, vars)?;
            Ok(Value::Str(match v {
                Value::Str(s) => s.to_lowercase(),
                Value::Missing | Value::Null => String::new(),
                other => other.to_string().to_lowercase(),
            }))
        }
        MongoExpr::ToInt(a) => {
            let v = eval(a, doc, vars)?;
            if v.is_unknown() {
                return Ok(Value::Null);
            }
            match v {
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Double(d) => Ok(Value::Int(d as i64)),
                Value::Bool(b) => Ok(Value::Int(i64::from(b))),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| DocError::Exec(format!("cannot convert {s:?} to int"))),
                other => Err(DocError::Exec(format!(
                    "cannot convert {} to int",
                    other.type_name()
                ))),
            }
        }
        MongoExpr::ToString(a) => {
            let v = eval(a, doc, vars)?;
            if v.is_unknown() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(match v {
                Value::Str(s) => s,
                other => other.to_string(),
            }))
        }
        MongoExpr::Abs(a) => {
            let v = eval(a, doc, vars)?;
            match v {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                Value::Missing | Value::Null => Ok(Value::Null),
                other => Err(DocError::Exec(format!("$abs over {}", other.type_name()))),
            }
        }
    }
}

/// MongoDB truthiness: false, 0, null and missing are falsy.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Missing | Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Double(d) => *d != 0.0,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::{parse_json, record};

    fn doc() -> Value {
        Value::Obj(
            record! {"a" => 5i64, "s" => "abc", "nested" => Value::Obj(record!{"x" => 1i64})},
        )
    }

    fn ev(json: &str) -> Value {
        let e = parse_expr(&parse_json(json).unwrap()).unwrap();
        eval(&e, &doc(), &Vars::new()).unwrap()
    }

    #[test]
    fn field_refs_and_paths() {
        assert_eq!(ev(r#""$a""#), Value::Int(5));
        assert_eq!(ev(r#""$nested.x""#), Value::Int(1));
        assert_eq!(ev(r#""$gone""#), Value::Missing);
    }

    #[test]
    fn total_order_comparisons() {
        assert_eq!(ev(r#"{"$eq": ["$a", 5]}"#), Value::Bool(true));
        // The paper's missing-value idiom: missing < null in BSON order.
        assert_eq!(ev(r#"{"$lt": ["$gone", null]}"#), Value::Bool(true));
        assert_eq!(ev(r#"{"$lt": ["$a", null]}"#), Value::Bool(false));
        assert_eq!(ev(r#"{"$gt": ["$s", 100]}"#), Value::Bool(true)); // strings > numbers
    }

    #[test]
    fn logic_truthiness() {
        assert_eq!(
            ev(r#"{"$and": [{"$eq": ["$a", 5]}, {"$gt": ["$a", 1]}]}"#),
            Value::Bool(true)
        );
        assert_eq!(
            ev(r#"{"$or": ["$gone", {"$eq": ["$a", 5]}]}"#),
            Value::Bool(true)
        );
        assert_eq!(ev(r#"{"$not": ["$gone"]}"#), Value::Bool(true));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev(r#"{"$add": ["$a", 2]}"#), Value::Int(7));
        assert_eq!(ev(r#"{"$divide": ["$a", 2]}"#), Value::Double(2.5));
        assert_eq!(ev(r#"{"$mod": ["$a", 2]}"#), Value::Int(1));
        assert_eq!(ev(r#"{"$divide": ["$a", 0]}"#), Value::Null);
        assert_eq!(ev(r#"{"$add": ["$gone", 2]}"#), Value::Null);
    }

    #[test]
    fn string_ops() {
        assert_eq!(ev(r#"{"$toUpper": "$s"}"#), Value::str("ABC"));
        assert_eq!(ev(r#"{"$toUpper": "$gone"}"#), Value::str(""));
        assert_eq!(ev(r#"{"$toString": "$a"}"#), Value::str("5"));
        assert_eq!(ev(r#"{"$toInt": "7"}"#), Value::Int(7));
        assert_eq!(ev(r#"{"$abs": -3}"#), Value::Int(3));
        // `$literal` keeps a `$`-leading string from reading as a path.
        assert_eq!(ev(r#"{"$literal": "$s"}"#), Value::str("$s"));
        assert_eq!(
            ev(r#"{"$eq": ["$s", {"$literal": "abc"}]}"#),
            Value::Bool(true)
        );
    }

    #[test]
    fn vars() {
        let e = parse_expr(&parse_json(r#"{"$eq": ["$a", "$$left"]}"#).unwrap()).unwrap();
        let mut vars = Vars::new();
        vars.insert("left".to_string(), Value::Int(5));
        assert_eq!(eval(&e, &doc(), &vars).unwrap(), Value::Bool(true));
        assert!(eval(&e, &doc(), &Vars::new()).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_expr(&parse_json(r#"{"$eq": [1]}"#).unwrap()).is_err());
        assert!(parse_expr(&parse_json(r#"{"$frob": [1, 2]}"#).unwrap()).is_err());
    }
}
