//! Semantic analysis: from a parsed `SELECT` block to a validated,
//! name-resolved query description the physical planner consumes.
//!
//! This is the analogue of Hive's semantic analyzer + logical plan
//! generator (paper Figure 3): it resolves table references against the
//! Metastore, classifies WHERE conjuncts (per-source filters vs join
//! conditions vs residuals), extracts equi-join keys, and rewrites the
//! projection for aggregation.

use crate::ast::{BinOp, Expr, JoinKind, SelectStmt};
use crate::catalog::{Metastore, StoredSize};
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Schema;

/// One FROM source after resolution.
#[derive(Debug, Clone)]
pub struct Source {
    /// Alias used in the query.
    pub alias: String,
    /// Underlying table name.
    pub table: String,
    /// The table's full schema.
    pub schema: Schema,
    /// The table's recorded size, if a write has been recorded.
    pub stored: Option<StoredSize>,
}

/// A join step against the next source.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// Join kind.
    pub kind: JoinKind,
    /// Equi-key pairs: `(left_expr, right_expr)` where the left side
    /// references sources `0..=k-1` and the right side source `k`.
    pub keys: Vec<(Expr, Expr)>,
    /// Non-equi ON conjuncts, evaluated after the match.
    pub residual: Vec<Expr>,
}

/// One resolved aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Function.
    pub func: AggFunc,
    /// Input expression (`None` for `COUNT(*)`).
    pub input: Option<Expr>,
    /// DISTINCT flag (only `COUNT(DISTINCT x)` is supported).
    pub distinct: bool,
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT / COUNT(*).
    Count,
    /// SUM.
    Sum,
    /// AVG.
    Avg,
    /// MIN.
    Min,
    /// MAX.
    Max,
}

/// The validated query block.
#[derive(Debug, Clone)]
pub struct QueryBlock {
    /// Sources in FROM order (base first).
    pub sources: Vec<Source>,
    /// Join steps: `joins[k]` joins sources `0..=k` with source `k+1`.
    pub joins: Vec<JoinStep>,
    /// Per-source filter conjuncts (pushed to the scans).
    pub source_filters: Vec<Vec<Expr>>,
    /// Residual WHERE conjuncts needing multiple sources; each tagged
    /// with the highest source index it references (apply after that
    /// join completes).
    pub residual_filters: Vec<(usize, Expr)>,
    /// GROUP BY expressions (empty = no grouping; may still aggregate
    /// globally if `aggregates` is non-empty).
    pub group_by: Vec<Expr>,
    /// Distinct aggregate calls, in first-appearance order.
    pub aggregates: Vec<AggCall>,
    /// Output item expressions, rewritten: in an aggregated query,
    /// aggregate calls become `Column` refs into the virtual layout
    /// `[group_keys…, agg_results…]` (qualifier `"#agg"`).
    pub output: Vec<(Expr, String)>,
    /// HAVING, rewritten the same way.
    pub having: Option<Expr>,
    /// ORDER BY over the *output* columns: `(output_index, ascending)`.
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
}

/// Marker qualifier for rewritten aggregate/key slot references.
pub const AGG_QUALIFIER: &str = "#agg";

impl QueryBlock {
    /// True if this block aggregates (GROUP BY or aggregate functions).
    pub fn is_aggregated(&self) -> bool {
        !self.group_by.is_empty() || !self.aggregates.is_empty()
    }
}

/// Run semantic analysis on a SELECT block.
///
/// # Errors
/// [`HdmError::Plan`] on unknown tables/columns, ambiguous references,
/// unsupported shapes (e.g. non-equi join with no key), or ORDER BY
/// items that are not output columns.
pub fn analyze(stmt: &SelectStmt, metastore: &Metastore) -> Result<QueryBlock> {
    // ---- resolve sources --------------------------------------------------
    let mut sources = Vec::new();
    let push_source = |r: &crate::ast::TableRef| -> Result<Source> {
        let meta = metastore.table(&r.name)?;
        Ok(Source {
            alias: r.alias.clone(),
            table: meta.name.clone(),
            schema: meta.schema.clone(),
            stored: meta.stored,
        })
    };
    sources.push(push_source(&stmt.from.base)?);
    for j in &stmt.from.joins {
        sources.push(push_source(&j.table)?);
    }
    {
        let mut aliases: Vec<&str> = sources.iter().map(|s| s.alias.as_str()).collect();
        aliases.sort_unstable();
        aliases.dedup();
        if aliases.len() != sources.len() {
            return Err(HdmError::Plan("duplicate table alias in FROM".into()));
        }
    }

    // Which single source does an expression reference? None if several
    // or zero.
    let source_of = |e: &Expr| -> Result<Option<usize>> {
        let mut cols = Vec::new();
        e.columns(&mut cols);
        let mut owner: Option<usize> = None;
        if cols.is_empty() {
            return Ok(None);
        }
        for (q, n) in &cols {
            let idx = resolve_source(&sources, q.as_deref(), n)?;
            match owner {
                None => owner = Some(idx),
                Some(o) if o == idx => {}
                Some(_) => return Ok(None),
            }
        }
        Ok(owner)
    };
    // Highest source index referenced (for residual placement).
    let max_source = |e: &Expr| -> Result<usize> {
        let mut cols = Vec::new();
        e.columns(&mut cols);
        let mut hi = 0;
        for (q, n) in &cols {
            hi = hi.max(resolve_source(&sources, q.as_deref(), n)?);
        }
        Ok(hi)
    };

    // ---- classify WHERE ----------------------------------------------------
    let mut source_filters: Vec<Vec<Expr>> = vec![Vec::new(); sources.len()];
    let mut residual_filters: Vec<(usize, Expr)> = Vec::new();
    let mut promoted_join_keys: Vec<(usize, Expr, Expr)> = Vec::new(); // (right source, left, right)
    if let Some(w) = &stmt.where_clause {
        for c in w.conjuncts() {
            if let Some((hi, le, re)) = as_equi_pair(c, &sources)? {
                // A cross-source equi conjunct joins source `hi` with an
                // earlier one — promote it to a join key (comma joins).
                promoted_join_keys.push((hi, le, re));
                continue;
            }
            match source_of(c)? {
                Some(s) => source_filters[s].push(c.clone()),
                None => residual_filters.push((max_source(c)?, c.clone())),
            }
        }
    }

    // ---- join steps ----------------------------------------------------------
    let mut joins = Vec::new();
    for (k, j) in stmt.from.joins.iter().enumerate() {
        let right_idx = k + 1;
        let mut keys = Vec::new();
        let mut residual = Vec::new();
        for c in j.on.conjuncts() {
            if matches!(c, Expr::Literal(v) if v == &hdm_common::value::Value::Boolean(true)) {
                continue; // comma-join placeholder
            }
            match as_equi_pair(c, &sources)? {
                Some((hi, le, re)) if hi == right_idx => keys.push((le, re)),
                _ => match source_of(c)? {
                    // Single-source ON conjunct: treat as a filter on
                    // that source (inner joins only; for outer joins it
                    // stays a residual to preserve semantics).
                    Some(s) if j.kind == JoinKind::Inner => source_filters[s].push(c.clone()),
                    _ => residual.push(c.clone()),
                },
            }
        }
        // Adopt promoted WHERE keys whose right side is this join's table.
        for (hi, le, re) in &promoted_join_keys {
            if *hi == right_idx {
                keys.push((le.clone(), re.clone()));
            }
        }
        if keys.is_empty() {
            return Err(HdmError::Plan(format!(
                "join with {} has no equi-join key (cross joins unsupported)",
                sources[right_idx].alias
            )));
        }
        joins.push(JoinStep {
            kind: j.kind,
            keys,
            residual,
        });
    }
    // WHERE filters on the nullable (right) side of an outer join would
    // need post-join evaluation; this dialect rejects them — rewrite
    // with LEFT ANTI JOIN instead (see DESIGN.md).
    for (k, j) in joins.iter().enumerate() {
        if j.kind == JoinKind::LeftOuter && !source_filters[k + 1].is_empty() {
            return Err(HdmError::Plan(format!(
                "WHERE filter on the nullable side of an outer join ({}); \
                 move it into the ON clause or use LEFT ANTI JOIN",
                sources[k + 1].alias
            )));
        }
    }

    // Promoted keys must all have found a home.
    for (hi, le, re) in &promoted_join_keys {
        if *hi == 0 || *hi > joins.len() {
            return Err(HdmError::Plan(format!(
                "WHERE equi-join condition references unjoinable source: {le:?} = {re:?} (source {hi})"
            )));
        }
    }

    // ---- projection / aggregation -------------------------------------------
    let items: Vec<(Expr, String)> = match &stmt.items {
        None => {
            // SELECT *: every column of every source, in order.
            let mut out = Vec::new();
            for s in &sources {
                for f in s.schema.fields() {
                    out.push((
                        Expr::Column {
                            qualifier: Some(s.alias.clone()),
                            name: f.name.clone(),
                        },
                        f.name.clone(),
                    ));
                }
            }
            out
        }
        Some(list) => list
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let name = item.alias.clone().unwrap_or_else(|| match &item.expr {
                    Expr::Column { name, .. } => name.clone(),
                    _ => format!("_c{i}"),
                });
                (item.expr.clone(), name)
            })
            .collect(),
    };

    // Eagerly validate every column reference in the projection, GROUP
    // BY, and HAVING (classification already validated WHERE/ON).
    {
        let check = |e: &Expr| -> Result<()> {
            let mut cols = Vec::new();
            e.columns(&mut cols);
            for (q, n) in cols {
                if q.as_deref() == Some(AGG_QUALIFIER) {
                    continue;
                }
                resolve_source(&sources, q.as_deref(), n.as_str())?;
            }
            Ok(())
        };
        for (e, _) in &items {
            check(e)?;
        }
        for g in &stmt.group_by {
            check(g)?;
        }
        if let Some(h) = &stmt.having {
            check(h)?;
        }
    }

    let has_aggs = items.iter().any(|(e, _)| e.contains_aggregate())
        || stmt
            .having
            .as_ref()
            .map(Expr::contains_aggregate)
            .unwrap_or(false);
    let mut aggregates: Vec<AggCall> = Vec::new();
    let (output, having) = if has_aggs || !stmt.group_by.is_empty() {
        let mut out = Vec::new();
        for (e, name) in &items {
            let rewritten = rewrite_agg(e, &stmt.group_by, &mut aggregates)?;
            out.push((rewritten, name.clone()));
        }
        let having = match &stmt.having {
            Some(h) => Some(rewrite_agg(h, &stmt.group_by, &mut aggregates)?),
            None => None,
        };
        (out, having)
    } else {
        if stmt.having.is_some() {
            return Err(HdmError::Plan("HAVING without aggregation".into()));
        }
        (items, None)
    };

    // ---- ORDER BY: must name output columns ---------------------------------
    let mut order_by = Vec::new();
    for (e, asc) in &stmt.order_by {
        let idx = match e {
            Expr::Column {
                qualifier: None,
                name,
            } => output.iter().position(|(_, n)| n == name),
            Expr::Literal(hdm_common::value::Value::Long(k)) if *k >= 1 => Some(*k as usize - 1),
            _ => output.iter().position(|(oe, _)| {
                oe == e || {
                    // Allow ordering by the same expression text as an item.
                    false
                }
            }),
        };
        // Also allow matching the un-rewritten item expression.
        let idx = idx.or_else(|| items_position(&items_backup(stmt, &sources), e));
        let idx = idx.ok_or_else(|| {
            HdmError::Plan(format!("ORDER BY item must be an output column: {e:?}"))
        })?;
        if idx >= output.len() {
            return Err(HdmError::Plan(format!(
                "ORDER BY position {} out of range",
                idx + 1
            )));
        }
        order_by.push((idx, *asc));
    }

    Ok(QueryBlock {
        sources,
        joins,
        source_filters,
        residual_filters,
        group_by: stmt.group_by.clone(),
        aggregates,
        output,
        having,
        order_by,
        limit: stmt.limit,
    })
}

// ORDER BY matching helpers: compare against the original items.
fn items_backup(stmt: &SelectStmt, sources: &[Source]) -> Vec<Expr> {
    match &stmt.items {
        Some(list) => list.iter().map(|i| i.expr.clone()).collect(),
        None => sources
            .iter()
            .flat_map(|s| {
                s.schema.fields().iter().map(move |f| Expr::Column {
                    qualifier: Some(s.alias.clone()),
                    name: f.name.clone(),
                })
            })
            .collect(),
    }
}

fn items_position(items: &[Expr], e: &Expr) -> Option<usize> {
    items.iter().position(|it| it == e)
}

/// Resolve a column reference to its source index.
///
/// # Errors
/// Unknown or ambiguous references.
pub fn resolve_source(sources: &[Source], qualifier: Option<&str>, name: &str) -> Result<usize> {
    match qualifier {
        Some(q) => {
            let idx = sources
                .iter()
                .position(|s| s.alias == q)
                .ok_or_else(|| HdmError::Plan(format!("unknown table alias {q}")))?;
            if sources[idx].schema.index_of(name).is_none() {
                return Err(HdmError::Plan(format!("unknown column {q}.{name}")));
            }
            Ok(idx)
        }
        None => {
            let hits: Vec<usize> = sources
                .iter()
                .enumerate()
                .filter(|(_, s)| s.schema.index_of(name).is_some())
                .map(|(i, _)| i)
                .collect();
            match hits.len() {
                0 => Err(HdmError::Plan(format!("unknown column {name}"))),
                1 => Ok(hits[0]),
                _ => Err(HdmError::Plan(format!("ambiguous column {name}"))),
            }
        }
    }
}

/// If `e` is `colA = colB` with the two sides on different sources,
/// return `(max_source, lower_side_expr, higher_side_expr)`.
fn as_equi_pair(e: &Expr, sources: &[Source]) -> Result<Option<(usize, Expr, Expr)>> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    else {
        return Ok(None);
    };
    let side = |x: &Expr| -> Result<Option<usize>> {
        let mut cols = Vec::new();
        x.columns(&mut cols);
        if cols.is_empty() {
            return Ok(None);
        }
        let mut owner = None;
        for (q, n) in &cols {
            let i = resolve_source(sources, q.as_deref(), n)?;
            match owner {
                None => owner = Some(i),
                Some(o) if o == i => {}
                _ => return Ok(None),
            }
        }
        Ok(owner)
    };
    match (side(left)?, side(right)?) {
        (Some(a), Some(b)) if a != b => {
            if a < b {
                Ok(Some((b, (**left).clone(), (**right).clone())))
            } else {
                Ok(Some((a, (**right).clone(), (**left).clone())))
            }
        }
        _ => Ok(None),
    }
}

/// Rewrite an expression in an aggregated query: aggregate calls become
/// slot references `#agg.aN`; group-key expressions become `#agg.kN`.
fn rewrite_agg(e: &Expr, group_by: &[Expr], aggs: &mut Vec<AggCall>) -> Result<Expr> {
    // A group key match takes priority (e.g. ordering by a key).
    if let Some(k) = group_by.iter().position(|g| g == e) {
        return Ok(Expr::Column {
            qualifier: Some(AGG_QUALIFIER.into()),
            name: format!("k{k}"),
        });
    }
    // Plain column equal to a group-by column reference.
    if let Expr::Column { name, .. } = e {
        if let Some(k) = group_by
            .iter()
            .position(|g| matches!(g, Expr::Column { name: gn, .. } if gn == name))
        {
            return Ok(Expr::Column {
                qualifier: Some(AGG_QUALIFIER.into()),
                name: format!("k{k}"),
            });
        }
    }
    match e {
        Expr::Func {
            name,
            args,
            distinct,
        } if crate::ast::is_aggregate_name(name) => {
            let func = match name.as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "avg" => AggFunc::Avg,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                other => return Err(HdmError::Plan(format!("unsupported aggregate {other}"))),
            };
            if *distinct && func != AggFunc::Count {
                return Err(HdmError::Plan(format!(
                    "DISTINCT only supported for COUNT, not {name}"
                )));
            }
            let input = match args.first() {
                None | Some(Expr::Star) => None,
                Some(a) => {
                    if a.contains_aggregate() {
                        return Err(HdmError::Plan("nested aggregates are not allowed".into()));
                    }
                    Some(a.clone())
                }
            };
            if input.is_none() && func != AggFunc::Count {
                return Err(HdmError::Plan(format!("{name} requires an argument")));
            }
            let call = AggCall {
                func,
                input,
                distinct: *distinct,
            };
            let idx = match aggs.iter().position(|a| a == &call) {
                Some(i) => i,
                None => {
                    aggs.push(call);
                    aggs.len() - 1
                }
            };
            Ok(Expr::Column {
                qualifier: Some(AGG_QUALIFIER.into()),
                name: format!("a{idx}"),
            })
        }
        Expr::Column { qualifier, name } => Err(HdmError::Plan(format!(
            "column {}{name} must appear in GROUP BY or inside an aggregate",
            qualifier
                .as_deref()
                .map(|q| format!("{q}."))
                .unwrap_or_default()
        ))),
        Expr::Literal(v) => Ok(Expr::Literal(v.clone())),
        Expr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(rewrite_agg(left, group_by, aggs)?),
            right: Box::new(rewrite_agg(right, group_by, aggs)?),
        }),
        Expr::Not(x) => Ok(Expr::Not(Box::new(rewrite_agg(x, group_by, aggs)?))),
        Expr::IsNull { expr, negated } => Ok(Expr::IsNull {
            expr: Box::new(rewrite_agg(expr, group_by, aggs)?),
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(Expr::Between {
            expr: Box::new(rewrite_agg(expr, group_by, aggs)?),
            low: Box::new(rewrite_agg(low, group_by, aggs)?),
            high: Box::new(rewrite_agg(high, group_by, aggs)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(Expr::InList {
            expr: Box::new(rewrite_agg(expr, group_by, aggs)?),
            list: list
                .iter()
                .map(|x| rewrite_agg(x, group_by, aggs))
                .collect::<Result<Vec<_>>>()?,
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(Expr::Like {
            expr: Box::new(rewrite_agg(expr, group_by, aggs)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        Expr::Case {
            operand,
            whens,
            else_expr,
        } => Ok(Expr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(rewrite_agg(o, group_by, aggs)?)),
                None => None,
            },
            whens: whens
                .iter()
                .map(|(w, t)| {
                    Ok((
                        rewrite_agg(w, group_by, aggs)?,
                        rewrite_agg(t, group_by, aggs)?,
                    ))
                })
                .collect::<Result<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(x) => Some(Box::new(rewrite_agg(x, group_by, aggs)?)),
                None => None,
            },
        }),
        Expr::Func {
            name,
            args,
            distinct,
        } => Ok(Expr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_agg(a, group_by, aggs))
                .collect::<Result<Vec<_>>>()?,
            distinct: *distinct,
        }),
        Expr::Cast { expr, to } => Ok(Expr::Cast {
            expr: Box::new(rewrite_agg(expr, group_by, aggs)?),
            to: *to,
        }),
        Expr::Star => Err(HdmError::Plan("* outside COUNT(*)".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use hdm_common::value::DataType;
    use hdm_storage::FormatKind;

    fn metastore() -> Metastore {
        let ms = Metastore::new();
        ms.create_table(
            "orders",
            vec![
                ("o_orderkey".into(), DataType::Long),
                ("o_custkey".into(), DataType::Long),
                ("o_orderdate".into(), DataType::Date),
                ("o_totalprice".into(), DataType::Double),
            ],
            FormatKind::Text,
            false,
        )
        .unwrap();
        ms.create_table(
            "customer",
            vec![
                ("c_custkey".into(), DataType::Long),
                ("c_name".into(), DataType::String),
                ("c_mktsegment".into(), DataType::String),
            ],
            FormatKind::Text,
            false,
        )
        .unwrap();
        ms
    }

    fn analyze_sql(sql: &str) -> Result<QueryBlock> {
        let stmt = parse_statement(sql).unwrap();
        match stmt {
            crate::ast::Statement::Select(q) => analyze(&q, &metastore()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn filters_classified_per_source() {
        let qb = analyze_sql(
            "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey \
             WHERE c.c_mktsegment = 'BUILDING' AND o.o_totalprice > 100",
        )
        .unwrap();
        assert_eq!(qb.sources.len(), 2);
        assert_eq!(qb.source_filters[0].len(), 1); // orders filter
        assert_eq!(qb.source_filters[1].len(), 1); // customer filter
        assert_eq!(qb.joins.len(), 1);
        assert_eq!(qb.joins[0].keys.len(), 1);
        assert!(qb.residual_filters.is_empty());
    }

    #[test]
    fn comma_join_promotes_where_equi() {
        let qb = analyze_sql(
            "SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey AND c_name = 'x'",
        )
        .unwrap();
        assert_eq!(qb.joins.len(), 1);
        assert_eq!(qb.joins[0].keys.len(), 1);
        assert_eq!(qb.source_filters[1].len(), 1);
    }

    #[test]
    fn aggregation_rewrites_output() {
        let qb = analyze_sql(
            "SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) + 1 AS s \
             FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey \
             GROUP BY c_mktsegment HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 3",
        )
        .unwrap();
        assert!(qb.is_aggregated());
        assert_eq!(qb.aggregates.len(), 2); // count(*), sum — count reused in HAVING
        assert_eq!(qb.order_by, vec![(1, false)]);
        assert_eq!(qb.limit, Some(3));
        // First output is the rewritten group key.
        match &qb.output[0].0 {
            Expr::Column { qualifier, name } => {
                assert_eq!(qualifier.as_deref(), Some(AGG_QUALIFIER));
                assert_eq!(name, "k0");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let err =
            analyze_sql("SELECT c_name, COUNT(*) FROM customer GROUP BY c_mktsegment").unwrap_err();
        assert!(err.message().contains("GROUP BY"));
    }

    #[test]
    fn cross_join_rejected() {
        let err = analyze_sql("SELECT o_orderkey FROM orders JOIN customer c ON o_totalprice > 5")
            .unwrap_err();
        assert!(err.message().contains("equi-join"));
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let ms = metastore();
        ms.create_table(
            "c2",
            vec![("c_custkey".into(), DataType::Long)],
            FormatKind::Text,
            false,
        )
        .unwrap();
        let stmt = parse_statement(
            "SELECT c_custkey FROM customer JOIN c2 ON customer.c_custkey = c2.c_custkey",
        )
        .unwrap();
        let err = match stmt {
            crate::ast::Statement::Select(q) => analyze(&q, &ms).unwrap_err(),
            _ => unreachable!(),
        };
        assert!(err.message().contains("ambiguous"));
        assert!(analyze_sql("SELECT nope FROM orders").is_err());
    }

    #[test]
    fn order_by_must_be_output() {
        let err = analyze_sql("SELECT o_orderkey FROM orders ORDER BY o_totalprice").unwrap_err();
        assert!(err.message().contains("ORDER BY"));
        // Ordering by a selected column works.
        let qb = analyze_sql("SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice")
            .unwrap();
        assert_eq!(qb.order_by, vec![(1, true)]);
    }

    #[test]
    fn select_star_expands() {
        let qb = analyze_sql("SELECT * FROM customer").unwrap();
        assert_eq!(qb.output.len(), 3);
        assert_eq!(qb.output[0].1, "c_custkey");
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let qb = analyze_sql("SELECT COUNT(*), AVG(o_totalprice) FROM orders").unwrap();
        assert!(qb.is_aggregated());
        assert!(qb.group_by.is_empty());
        assert_eq!(qb.aggregates.len(), 2);
    }
}
