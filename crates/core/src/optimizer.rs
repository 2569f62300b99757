//! Query optimizations.
//!
//! Two of Hive's load-bearing optimizations are *structural* and live in
//! the planner itself (`physical.rs`): **column pruning** (scans carry a
//! `read_projection`, so ORC reads fetch only referenced column chunks)
//! and **predicate pushdown** (filter conjuncts of the `col ⟨op⟩ literal`
//! shape become ORC stripe predicates). This module adds the
//! expression-level pass both engines run before executing a pipeline:
//! **constant folding**, which collapses literal subtrees so per-row
//! evaluation does less work.

use crate::ast::BinOp;
use crate::expr::RExpr;
use hdm_common::row::Row;
use hdm_common::value::Value;

/// Fold constant subtrees of a compiled expression.
///
/// Any subtree with no column references is evaluated once against an
/// empty row and replaced by its literal result; failures leave the
/// subtree unchanged (runtime will surface the error with row context).
pub fn fold_constants(e: &RExpr) -> RExpr {
    let folded = rebuild(e);
    if let RExpr::Literal(_) = folded {
        return folded;
    }
    let mut cols = Vec::new();
    folded.input_columns(&mut cols);
    if cols.is_empty() {
        if let Ok(v) = folded.eval(&Row::new()) {
            return RExpr::Literal(v);
        }
    }
    folded
}

fn rebuild(e: &RExpr) -> RExpr {
    match e {
        RExpr::Column(_) | RExpr::Literal(_) => e.clone(),
        RExpr::Binary { op, left, right } => {
            let l = fold_constants(left);
            let r = fold_constants(right);
            // Boolean identities: TRUE AND x → x, FALSE OR x → x.
            match (op, &l, &r) {
                (BinOp::And, RExpr::Literal(Value::Boolean(true)), x)
                | (BinOp::And, x, RExpr::Literal(Value::Boolean(true)))
                | (BinOp::Or, RExpr::Literal(Value::Boolean(false)), x)
                | (BinOp::Or, x, RExpr::Literal(Value::Boolean(false))) => x.clone(),
                (BinOp::And, RExpr::Literal(Value::Boolean(false)), _)
                | (BinOp::And, _, RExpr::Literal(Value::Boolean(false))) => {
                    RExpr::Literal(Value::Boolean(false))
                }
                (BinOp::Or, RExpr::Literal(Value::Boolean(true)), _)
                | (BinOp::Or, _, RExpr::Literal(Value::Boolean(true))) => {
                    RExpr::Literal(Value::Boolean(true))
                }
                _ => RExpr::Binary {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                },
            }
        }
        RExpr::Not(x) => RExpr::Not(Box::new(fold_constants(x))),
        RExpr::IsNull { expr, negated } => RExpr::IsNull {
            expr: Box::new(fold_constants(expr)),
            negated: *negated,
        },
        RExpr::Between {
            expr,
            low,
            high,
            negated,
        } => RExpr::Between {
            expr: Box::new(fold_constants(expr)),
            low: Box::new(fold_constants(low)),
            high: Box::new(fold_constants(high)),
            negated: *negated,
        },
        RExpr::InList {
            expr,
            list,
            negated,
        } => RExpr::InList {
            expr: Box::new(fold_constants(expr)),
            list: list.iter().map(fold_constants).collect(),
            negated: *negated,
        },
        RExpr::Like {
            expr,
            pattern,
            negated,
        } => RExpr::Like {
            expr: Box::new(fold_constants(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        RExpr::Case {
            operand,
            whens,
            else_expr,
        } => RExpr::Case {
            operand: operand.as_ref().map(|o| Box::new(fold_constants(o))),
            whens: whens
                .iter()
                .map(|(w, t)| (fold_constants(w), fold_constants(t)))
                .collect(),
            else_expr: else_expr.as_ref().map(|x| Box::new(fold_constants(x))),
        },
        RExpr::Func { name, args } => RExpr::Func {
            name: name.clone(),
            args: args.iter().map(fold_constants).collect(),
        },
        RExpr::Cast { expr, to } => RExpr::Cast {
            expr: Box::new(fold_constants(expr)),
            to: *to,
        },
    }
}

/// Fold every expression of a map input in place.
pub fn optimize_map_input(input: &mut crate::physical::MapInput) {
    if let Some(f) = &input.filter {
        input.filter = Some(fold_constants(f));
    }
    for step in &mut input.map_joins {
        optimize_map_input(&mut step.build);
        if let Some(r) = &step.residual {
            step.residual = Some(fold_constants(r));
        }
        for e in step.probe_keys.iter_mut().chain(&mut step.project) {
            *e = fold_constants(e);
        }
    }
    for e in &mut input.key_exprs {
        *e = fold_constants(e);
    }
    for e in &mut input.value_exprs {
        *e = fold_constants(e);
    }
}

/// Fold every expression of a stage in place.
pub fn optimize_stage(stage: &mut crate::physical::StagePlan) {
    for input in &mut stage.inputs {
        optimize_map_input(input);
    }
    match &mut stage.kind {
        crate::physical::StageKind::Join {
            residual, project, ..
        } => {
            if let Some(r) = residual {
                *r = fold_constants(r);
            }
            for e in project {
                *e = fold_constants(e);
            }
        }
        crate::physical::StageKind::Aggregate {
            having, project, ..
        } => {
            if let Some(h) = having {
                *h = fold_constants(h);
            }
            for e in project {
                *e = fold_constants(e);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> RExpr {
        RExpr::Literal(Value::Long(v))
    }

    #[test]
    fn arithmetic_folds() {
        let e = RExpr::Binary {
            op: BinOp::Mul,
            left: Box::new(RExpr::Binary {
                op: BinOp::Add,
                left: Box::new(lit(2)),
                right: Box::new(lit(3)),
            }),
            right: Box::new(lit(4)),
        };
        assert_eq!(fold_constants(&e), RExpr::Literal(Value::Long(20)));
    }

    #[test]
    fn column_subtrees_survive() {
        let e = RExpr::Binary {
            op: BinOp::Add,
            left: Box::new(RExpr::Column(0)),
            right: Box::new(RExpr::Binary {
                op: BinOp::Add,
                left: Box::new(lit(1)),
                right: Box::new(lit(2)),
            }),
        };
        match fold_constants(&e) {
            RExpr::Binary { right, .. } => assert_eq!(*right, RExpr::Literal(Value::Long(3))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn boolean_identities() {
        let t = RExpr::Literal(Value::Boolean(true));
        let f = RExpr::Literal(Value::Boolean(false));
        let col = RExpr::Column(0);
        let and_true = RExpr::Binary {
            op: BinOp::And,
            left: Box::new(t.clone()),
            right: Box::new(col.clone()),
        };
        assert_eq!(fold_constants(&and_true), col);
        let and_false = RExpr::Binary {
            op: BinOp::And,
            left: Box::new(col.clone()),
            right: Box::new(f.clone()),
        };
        assert_eq!(fold_constants(&and_false), f);
        let or_true = RExpr::Binary {
            op: BinOp::Or,
            left: Box::new(col),
            right: Box::new(t.clone()),
        };
        assert_eq!(fold_constants(&or_true), t);
    }

    #[test]
    fn constant_function_folds() {
        let e = RExpr::Func {
            name: "concat".into(),
            args: vec![
                RExpr::Literal(Value::Str("a".into())),
                RExpr::Literal(Value::Str("b".into())),
            ],
        };
        assert_eq!(fold_constants(&e), RExpr::Literal(Value::Str("ab".into())));
    }
}
