//! Runtime expression evaluation over rows.
//!
//! AST expressions are *compiled* against an input schema into
//! [`RExpr`]s with column references resolved to row indices, then
//! evaluated per row with SQL three-valued-logic semantics (comparisons
//! with NULL yield NULL; AND/OR use Kleene logic; WHERE keeps only rows
//! where the predicate is definitely true).

use crate::ast::{BinOp, Expr};
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Row;
use hdm_common::value::{coerce_pair, DataType, Value};

/// A compiled (column-resolved) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Input column by index.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<RExpr>,
        /// Right operand.
        right: Box<RExpr>,
    },
    /// Logical NOT.
    Not(Box<RExpr>),
    /// IS (NOT) NULL.
    IsNull {
        /// Operand.
        expr: Box<RExpr>,
        /// Negated flag.
        negated: bool,
    },
    /// (NOT) BETWEEN.
    Between {
        /// Operand.
        expr: Box<RExpr>,
        /// Lower bound.
        low: Box<RExpr>,
        /// Upper bound.
        high: Box<RExpr>,
        /// Negated flag.
        negated: bool,
    },
    /// (NOT) IN list.
    InList {
        /// Operand.
        expr: Box<RExpr>,
        /// Candidates.
        list: Vec<RExpr>,
        /// Negated flag.
        negated: bool,
    },
    /// (NOT) LIKE.
    Like {
        /// Operand.
        expr: Box<RExpr>,
        /// Pattern.
        pattern: String,
        /// Negated flag.
        negated: bool,
    },
    /// CASE expression.
    Case {
        /// Optional comparison operand.
        operand: Option<Box<RExpr>>,
        /// WHEN/THEN arms.
        whens: Vec<(RExpr, RExpr)>,
        /// ELSE arm.
        else_expr: Option<Box<RExpr>>,
    },
    /// Scalar function call.
    Func {
        /// Lower-cased name.
        name: String,
        /// Arguments.
        args: Vec<RExpr>,
    },
    /// CAST.
    Cast {
        /// Operand.
        expr: Box<RExpr>,
        /// Target type.
        to: DataType,
    },
}

/// Resolves `(qualifier, column)` to an input row index.
pub trait ColumnResolver {
    /// Index for the reference, or `None` if unknown.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<usize>;
}

impl<F: Fn(Option<&str>, &str) -> Option<usize>> ColumnResolver for F {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        self(qualifier, name)
    }
}

/// Compile an AST expression against a resolver.
///
/// # Errors
/// [`HdmError::Plan`] for unknown columns, aggregates in scalar context,
/// or unsupported functions.
pub fn compile_expr(e: &Expr, resolver: &dyn ColumnResolver) -> Result<RExpr> {
    Ok(match e {
        Expr::Column { qualifier, name } => {
            let idx =
                resolver
                    .resolve(qualifier.as_deref(), name)
                    .ok_or_else(|| match qualifier {
                        Some(q) => HdmError::Plan(format!("unknown column {q}.{name}")),
                        None => HdmError::Plan(format!("unknown column {name}")),
                    })?;
            RExpr::Column(idx)
        }
        Expr::Literal(v) => RExpr::Literal(v.clone()),
        Expr::Binary { op, left, right } => RExpr::Binary {
            op: *op,
            left: Box::new(compile_expr(left, resolver)?),
            right: Box::new(compile_expr(right, resolver)?),
        },
        Expr::Not(inner) => RExpr::Not(Box::new(compile_expr(inner, resolver)?)),
        Expr::IsNull { expr, negated } => RExpr::IsNull {
            expr: Box::new(compile_expr(expr, resolver)?),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => RExpr::Between {
            expr: Box::new(compile_expr(expr, resolver)?),
            low: Box::new(compile_expr(low, resolver)?),
            high: Box::new(compile_expr(high, resolver)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => RExpr::InList {
            expr: Box::new(compile_expr(expr, resolver)?),
            list: list
                .iter()
                .map(|e| compile_expr(e, resolver))
                .collect::<Result<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => RExpr::Like {
            expr: Box::new(compile_expr(expr, resolver)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Case {
            operand,
            whens,
            else_expr,
        } => RExpr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(compile_expr(o, resolver)?)),
                None => None,
            },
            whens: whens
                .iter()
                .map(|(w, t)| Ok((compile_expr(w, resolver)?, compile_expr(t, resolver)?)))
                .collect::<Result<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(compile_expr(e, resolver)?)),
                None => None,
            },
        },
        Expr::Func {
            name,
            args,
            distinct,
        } => {
            if crate::ast::is_aggregate_name(name) {
                return Err(HdmError::Plan(format!(
                    "aggregate {name} in scalar context (planner bug or misplaced aggregate)"
                )));
            }
            if *distinct {
                return Err(HdmError::Plan(format!(
                    "DISTINCT not valid for scalar {name}"
                )));
            }
            if !is_scalar_function(name) {
                return Err(HdmError::Plan(format!("unknown function {name}")));
            }
            RExpr::Func {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| compile_expr(a, resolver))
                    .collect::<Result<Vec<_>>>()?,
            }
        }
        Expr::Star => return Err(HdmError::Plan("* is only valid inside COUNT(*)".into())),
        Expr::Cast { expr, to } => RExpr::Cast {
            expr: Box::new(compile_expr(expr, resolver)?),
            to: *to,
        },
    })
}

/// Supported scalar functions.
pub fn is_scalar_function(name: &str) -> bool {
    matches!(
        name,
        "year"
            | "month"
            | "day"
            | "substr"
            | "substring"
            | "length"
            | "lower"
            | "upper"
            | "concat"
            | "round"
            | "abs"
            | "coalesce"
            | "if"
    )
}

impl RExpr {
    /// Evaluate against one row.
    ///
    /// # Errors
    /// [`HdmError::Eval`] on type errors that lenient coercion cannot
    /// absorb (out-of-range column index, bad function arity).
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            RExpr::Column(i) => row.values().get(*i).cloned().ok_or_else(|| {
                HdmError::Eval(format!(
                    "column index {i} out of range (row has {})",
                    row.len()
                ))
            }),
            RExpr::Literal(v) => Ok(v.clone()),
            RExpr::Binary { op, left, right } => {
                let l = left.eval(row)?;
                // Short-circuit Kleene AND/OR.
                match op {
                    BinOp::And => {
                        if l == Value::Boolean(false) {
                            return Ok(Value::Boolean(false));
                        }
                        let r = right.eval(row)?;
                        return Ok(kleene_and(&l, &r));
                    }
                    BinOp::Or => {
                        if l == Value::Boolean(true) {
                            return Ok(Value::Boolean(true));
                        }
                        let r = right.eval(row)?;
                        return Ok(kleene_or(&l, &r));
                    }
                    _ => {}
                }
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            RExpr::Not(inner) => Ok(match inner.eval(row)? {
                Value::Null => Value::Null,
                v => Value::Boolean(!v.as_bool().unwrap_or(false)),
            }),
            RExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Boolean(v.is_null() != *negated))
            }
            RExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                Ok(eval_between(&v, &lo, &hi, *negated))
            }
            RExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for cand in list {
                    if v.sql_cmp(&cand.eval(row)?) == Some(std::cmp::Ordering::Equal) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Boolean(found != *negated))
            }
            RExpr::Like {
                expr,
                pattern,
                negated,
            } => Ok(eval_like(&expr.eval(row)?, pattern, *negated)),
            RExpr::Case {
                operand,
                whens,
                else_expr,
            } => {
                match operand {
                    Some(op) => {
                        let target = op.eval(row)?;
                        for (w, t) in whens {
                            if target.sql_cmp(&w.eval(row)?) == Some(std::cmp::Ordering::Equal) {
                                return t.eval(row);
                            }
                        }
                    }
                    None => {
                        for (w, t) in whens {
                            if w.eval(row)? == Value::Boolean(true) {
                                return t.eval(row);
                            }
                        }
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
            RExpr::Func { name, args } => eval_function(name, args, row),
            RExpr::Cast { expr, to } => Ok(expr.eval(row)?.cast_to(*to)),
        }
    }

    /// Evaluate as a WHERE predicate: true only if definitely true.
    ///
    /// # Errors
    /// Propagates evaluation failures.
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        Ok(self.eval(row)? == Value::Boolean(true))
    }

    /// Collect the column indices this expression reads.
    pub fn input_columns(&self, out: &mut Vec<usize>) {
        match self {
            RExpr::Column(i) => out.push(*i),
            RExpr::Literal(_) => {}
            RExpr::Binary { left, right, .. } => {
                left.input_columns(out);
                right.input_columns(out);
            }
            RExpr::Not(e) => e.input_columns(out),
            RExpr::IsNull { expr, .. } => expr.input_columns(out),
            RExpr::Between {
                expr, low, high, ..
            } => {
                expr.input_columns(out);
                low.input_columns(out);
                high.input_columns(out);
            }
            RExpr::InList { expr, list, .. } => {
                expr.input_columns(out);
                for e in list {
                    e.input_columns(out);
                }
            }
            RExpr::Like { expr, .. } => expr.input_columns(out),
            RExpr::Case {
                operand,
                whens,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.input_columns(out);
                }
                for (w, t) in whens {
                    w.input_columns(out);
                    t.input_columns(out);
                }
                if let Some(e) = else_expr {
                    e.input_columns(out);
                }
            }
            RExpr::Func { args, .. } => {
                for a in args {
                    a.input_columns(out);
                }
            }
            RExpr::Cast { expr, .. } => expr.input_columns(out),
        }
    }

    /// Rewrite column indices through a mapping (for column pruning).
    pub fn remap_columns(&mut self, map: &dyn Fn(usize) -> usize) {
        match self {
            RExpr::Column(i) => *i = map(*i),
            RExpr::Literal(_) => {}
            RExpr::Binary { left, right, .. } => {
                left.remap_columns(map);
                right.remap_columns(map);
            }
            RExpr::Not(e) => e.remap_columns(map),
            RExpr::IsNull { expr, .. } => expr.remap_columns(map),
            RExpr::Between {
                expr, low, high, ..
            } => {
                expr.remap_columns(map);
                low.remap_columns(map);
                high.remap_columns(map);
            }
            RExpr::InList { expr, list, .. } => {
                expr.remap_columns(map);
                for e in list {
                    e.remap_columns(map);
                }
            }
            RExpr::Like { expr, .. } => expr.remap_columns(map),
            RExpr::Case {
                operand,
                whens,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.remap_columns(map);
                }
                for (w, t) in whens {
                    w.remap_columns(map);
                    t.remap_columns(map);
                }
                if let Some(e) = else_expr {
                    e.remap_columns(map);
                }
            }
            RExpr::Func { args, .. } => {
                for a in args {
                    a.remap_columns(map);
                }
            }
            RExpr::Cast { expr, .. } => expr.remap_columns(map),
        }
    }
}

pub(crate) fn kleene_and(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(false), _) | (_, Some(false)) => Value::Boolean(false),
        (Some(true), Some(true)) => Value::Boolean(true),
        _ => Value::Null,
    }
}

pub(crate) fn kleene_or(l: &Value, r: &Value) -> Value {
    match (l.as_bool(), r.as_bool()) {
        (Some(true), _) | (_, Some(true)) => Value::Boolean(true),
        (Some(false), Some(false)) => Value::Boolean(false),
        _ => Value::Null,
    }
}

/// `v [NOT] BETWEEN lo AND hi` over already-evaluated operands. Unlike a
/// comparison, a bound string that does not coerce to a date orders as
/// NULL (lowest) instead of making the result unknown.
pub(crate) fn eval_between(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    if v.is_null() || lo.is_null() || hi.is_null() {
        return Value::Null;
    }
    let (v2, lo2) = coerce_pair(v, lo);
    let (v3, hi2) = coerce_pair(v, hi);
    let inside = v2.total_cmp(&lo2) != std::cmp::Ordering::Less
        && v3.total_cmp(&hi2) != std::cmp::Ordering::Greater;
    Value::Boolean(inside != negated)
}

pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if op.is_comparison() {
        let Some(ord) = l.sql_cmp(r) else {
            return Ok(Value::Null);
        };
        use std::cmp::Ordering::*;
        let v = match op {
            BinOp::Eq => ord == Equal,
            BinOp::NotEq => ord != Equal,
            BinOp::Lt => ord == Less,
            BinOp::Le => ord != Greater,
            BinOp::Gt => ord == Greater,
            BinOp::Ge => ord != Less,
            _ => unreachable!(),
        };
        return Ok(Value::Boolean(v));
    }
    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both sides are integers (except division).
    if let (Value::Long(a), Value::Long(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Long(a.wrapping_add(*b)),
            BinOp::Sub => Value::Long(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Long(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Double(*a as f64 / *b as f64)
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Long(a % b)
                }
            }
            _ => unreachable!(),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(HdmError::Eval(format!(
                "cannot apply {op:?} to {l} and {r}"
            )))
        }
    };
    Ok(match op {
        BinOp::Add => Value::Double(a + b),
        BinOp::Sub => Value::Double(a - b),
        BinOp::Mul => Value::Double(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Double(a / b)
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Double(a % b)
            }
        }
        _ => unreachable!(),
    })
}

fn eval_function(name: &str, args: &[RExpr], row: &Row) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(HdmError::Eval(format!(
                "{name} expects {n} arguments, got {}",
                args.len()
            )))
        }
    };
    match name {
        "year" | "month" | "day" => {
            arity(1)?;
            let v = args[0].eval(row)?;
            Ok(match v.date_ymd() {
                Some((y, m, d)) => Value::Long(match name {
                    "year" => y,
                    "month" => m,
                    _ => d,
                }),
                None => Value::Null,
            })
        }
        "substr" | "substring" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(HdmError::Eval(format!("{name} expects 2 or 3 arguments")));
            }
            let s = match args[0].eval(row)? {
                Value::Null => return Ok(Value::Null),
                v => v.to_string(),
            };
            let start = args[1].eval(row)?.as_i64().unwrap_or(1).max(1) as usize;
            let chars: Vec<char> = s.chars().collect();
            let from = (start - 1).min(chars.len());
            let taken: String = match args.get(2) {
                Some(len_e) => {
                    let len = len_e.eval(row)?.as_i64().unwrap_or(0).max(0) as usize;
                    chars[from..].iter().take(len).collect()
                }
                None => chars[from..].iter().collect(),
            };
            Ok(Value::Str(taken))
        }
        "length" => {
            arity(1)?;
            Ok(match args[0].eval(row)? {
                Value::Null => Value::Null,
                v => Value::Long(v.to_string().chars().count() as i64),
            })
        }
        "lower" | "upper" => {
            arity(1)?;
            Ok(match args[0].eval(row)? {
                Value::Null => Value::Null,
                v => {
                    let s = v.to_string();
                    Value::Str(if name == "lower" {
                        s.to_lowercase()
                    } else {
                        s.to_uppercase()
                    })
                }
            })
        }
        "concat" => {
            let mut out = String::new();
            for a in args {
                match a.eval(row)? {
                    Value::Null => return Ok(Value::Null),
                    v => out.push_str(&v.to_string()),
                }
            }
            Ok(Value::Str(out))
        }
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(HdmError::Eval("round expects 1 or 2 arguments".into()));
            }
            let v = args[0].eval(row)?;
            let digits = match args.get(1) {
                Some(d) => d.eval(row)?.as_i64().unwrap_or(0),
                None => 0,
            };
            Ok(match v.as_f64() {
                Some(x) => {
                    let f = 10f64.powi(digits as i32);
                    Value::Double((x * f).round() / f)
                }
                None => Value::Null,
            })
        }
        "abs" => {
            arity(1)?;
            Ok(match args[0].eval(row)? {
                Value::Long(v) => Value::Long(v.abs()),
                Value::Double(v) => Value::Double(v.abs()),
                _ => Value::Null,
            })
        }
        "coalesce" => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "if" => {
            arity(3)?;
            if args[0].eval(row)? == Value::Boolean(true) {
                args[1].eval(row)
            } else {
                args[2].eval(row)
            }
        }
        other => Err(HdmError::Eval(format!("unknown function {other}"))),
    }
}

/// SQL `LIKE`, case-sensitive: `%` matches any run of characters (none
/// included), `_` exactly one character, anything else itself.
///
/// Iterative and allocation-free: the pattern is walked once, and on a
/// mismatch the last `%` seen takes one more character of `s` and the
/// walk resumes behind it. Only the last `%` needs revisiting — whatever
/// an earlier one could match, the later one can too — so the cost is
/// O(|s|·|pattern|) characters, not exponential in the number of `%`s.
pub fn like_match(s: &str, pattern: &str) -> bool {
    // Byte offsets, always on character boundaries.
    let (mut si, mut pi) = (0usize, 0usize);
    // `(pattern offset behind the last %, where in s its match ends)`.
    let mut star: Option<(usize, usize)> = None;
    loop {
        let p = pattern.get(pi..).and_then(|rest| rest.chars().next());
        let c = s.get(si..).and_then(|rest| rest.chars().next());
        match (p, c) {
            (None, None) => return true,
            (Some('%'), _) => {
                pi += 1;
                star = Some((pi, si));
                continue;
            }
            (Some('_'), Some(c)) => {
                (pi, si) = (pi + 1, si + c.len_utf8());
                continue;
            }
            (Some(p), Some(c)) if p == c => {
                (pi, si) = (pi + p.len_utf8(), si + c.len_utf8());
                continue;
            }
            _ => {}
        }
        // Mismatch: the last % takes one more character, if there is one.
        let Some((after, end)) = star else {
            return false;
        };
        let Some(c) = s.get(end..).and_then(|rest| rest.chars().next()) else {
            return false;
        };
        star = Some((after, end + c.len_utf8()));
        (pi, si) = (after, end + c.len_utf8());
    }
}

/// `v LIKE pattern` (`NOT LIKE` when `negated`): NULL stays NULL, a
/// string is matched as it is, anything else as its display form.
pub fn eval_like(v: &Value, pattern: &str, negated: bool) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Str(s) => Value::Boolean(like_match(s, pattern) != negated),
        other => Value::Boolean(like_match(&other.to_string(), pattern) != negated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn compile(sql_expr: &str, cols: &[&str]) -> RExpr {
        let stmt = parse_statement(&format!("SELECT {sql_expr} FROM t")).unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let e = q.items.unwrap().remove(0).expr;
        let cols: Vec<String> = cols.iter().map(|s| s.to_string()).collect();
        compile_expr(&e, &move |_q: Option<&str>, n: &str| {
            cols.iter().position(|c| c == n)
        })
        .unwrap()
    }

    fn row(vals: Vec<Value>) -> Row {
        Row::from(vals)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let e = compile("a + b * 2", &["a", "b"]);
        let v = e.eval(&row(vec![Value::Long(1), Value::Long(3)])).unwrap();
        assert_eq!(v, Value::Long(7));
    }

    #[test]
    fn division_always_double_and_null_on_zero() {
        let e = compile("a / b", &["a", "b"]);
        assert_eq!(
            e.eval(&row(vec![Value::Long(7), Value::Long(2)])).unwrap(),
            Value::Double(3.5)
        );
        assert_eq!(
            e.eval(&row(vec![Value::Long(7), Value::Long(0)])).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn null_propagation_three_valued() {
        let e = compile("a > 5", &["a"]);
        assert_eq!(e.eval(&row(vec![Value::Null])).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&row(vec![Value::Null])).unwrap());
        let and = compile("a > 5 AND b < 3", &["a", "b"]);
        // false AND null = false
        assert_eq!(
            and.eval(&row(vec![Value::Long(1), Value::Null])).unwrap(),
            Value::Boolean(false)
        );
        let or = compile("a > 5 OR b < 3", &["a", "b"]);
        // true OR null = true
        assert_eq!(
            or.eval(&row(vec![Value::Long(9), Value::Null])).unwrap(),
            Value::Boolean(true)
        );
    }

    #[test]
    fn between_in_like() {
        let e = compile("a BETWEEN 2 AND 4", &["a"]);
        assert_eq!(
            e.eval(&row(vec![Value::Long(3)])).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            e.eval(&row(vec![Value::Long(5)])).unwrap(),
            Value::Boolean(false)
        );
        let e = compile("s IN ('a', 'b')", &["s"]);
        assert_eq!(
            e.eval(&row(vec![Value::Str("b".into())])).unwrap(),
            Value::Boolean(true)
        );
        let e = compile("s NOT LIKE '%green%'", &["s"]);
        assert_eq!(
            e.eval(&row(vec![Value::Str("forest green socks".into())]))
                .unwrap(),
            Value::Boolean(false)
        );
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("PROMO BRUSHED", "PROMO%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("special%char", "special%char"));
        assert!(like_match("ünïcødé", "_n%d_"));
        assert!(!like_match("ünïcødé", "_n%d__"));
        assert!(like_match("%", "%%"));
        assert!(!like_match("ab", "a"));
        assert!(!like_match("a", "ab"));
    }

    /// Backtracking on every `%` made this pattern take 29 s over 80
    /// characters (and cancellation could not interrupt it).
    #[test]
    fn many_percents_over_a_long_string_take_no_time() {
        let s = "a".repeat(80);
        let start = std::time::Instant::now();
        assert!(!like_match(&s, "%a%a%a%a%a%a%b"));
        assert!(like_match(&s, "%a%a%a%a%a%a%"));
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_millis(50), "{took:?}");
    }

    /// The recursive matcher `like_match` replaced, kept as the oracle.
    fn like_oracle(s: &str, pattern: &str) -> bool {
        fn rec(s: &[char], p: &[char]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some('%') => (0..=s.len()).any(|skip| rec(&s[skip..], &p[1..])),
                Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
                Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
            }
        }
        let sc: Vec<char> = s.chars().collect();
        let pc: Vec<char> = pattern.chars().collect();
        rec(&sc, &pc)
    }

    /// Up to 12 characters of a small alphabet with the wildcards and
    /// multibyte characters in it.
    fn like_text() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::strategy::Strategy;
        const ALPHABET: [char; 6] = ['a', 'b', 'é', '☃', '%', '_'];
        let ch = (0usize..ALPHABET.len()).prop_map(|i| ALPHABET[i]);
        proptest::collection::vec(ch, 0..13).prop_map(|cs| cs.into_iter().collect())
    }

    proptest::proptest! {
        #[test]
        fn like_match_agrees_with_the_recursive_oracle(s in like_text(), p in like_text()) {
            proptest::prop_assert_eq!(like_match(&s, &p), like_oracle(&s, &p), "{:?} LIKE {:?}", s, p);
        }
    }

    #[test]
    fn case_both_forms() {
        let searched = compile("CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END", &["a"]);
        assert_eq!(
            searched.eval(&row(vec![Value::Long(5)])).unwrap(),
            Value::Str("pos".into())
        );
        let simple = compile("CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", &["a"]);
        assert_eq!(
            simple.eval(&row(vec![Value::Long(2)])).unwrap(),
            Value::Str("two".into())
        );
        assert_eq!(
            simple.eval(&row(vec![Value::Long(9)])).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn date_functions_and_string_coercion() {
        let y = compile("year(d)", &["d"]);
        assert_eq!(
            y.eval(&row(vec![Value::date_from_ymd(1995, 6, 17)]))
                .unwrap(),
            Value::Long(1995)
        );
        let cmp = compile("d >= '1995-01-01'", &["d"]);
        assert_eq!(
            cmp.eval(&row(vec![Value::date_from_ymd(1995, 6, 17)]))
                .unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            cmp.eval(&row(vec![Value::date_from_ymd(1994, 6, 17)]))
                .unwrap(),
            Value::Boolean(false)
        );
    }

    #[test]
    fn string_functions() {
        let e = compile("substr(s, 1, 2)", &["s"]);
        assert_eq!(
            e.eval(&row(vec![Value::Str("13-phone".into())])).unwrap(),
            Value::Str("13".into())
        );
        let e = compile("concat(upper(s), '!')", &["s"]);
        assert_eq!(
            e.eval(&row(vec![Value::Str("hi".into())])).unwrap(),
            Value::Str("HI!".into())
        );
        let e = compile("coalesce(s, 'dflt')", &["s"]);
        assert_eq!(
            e.eval(&row(vec![Value::Null])).unwrap(),
            Value::Str("dflt".into())
        );
    }

    #[test]
    fn unknown_column_is_plan_error() {
        let stmt = parse_statement("SELECT missing FROM t").unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let e = q.items.unwrap().remove(0).expr;
        let err = compile_expr(&e, &|_: Option<&str>, _: &str| None).unwrap_err();
        assert_eq!(err.subsystem(), "plan");
    }

    #[test]
    fn input_columns_and_remap() {
        let mut e = compile("a + c", &["a", "b", "c"]);
        let mut cols = Vec::new();
        e.input_columns(&mut cols);
        assert_eq!(cols, vec![0, 2]);
        e.remap_columns(&|i| i * 10);
        let mut cols2 = Vec::new();
        e.input_columns(&mut cols2);
        assert_eq!(cols2, vec![0, 20]);
    }

    #[test]
    fn cast_eval() {
        let e = compile("CAST(s AS BIGINT) + 1", &["s"]);
        assert_eq!(
            e.eval(&row(vec![Value::Str("41".into())])).unwrap(),
            Value::Long(42)
        );
    }
}
