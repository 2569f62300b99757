//! The physical planner: from a validated [`QueryBlock`] to a DAG of
//! MapReduce stages.
//!
//! Stage shapes follow Hive 0.13's common plans:
//!
//! * each **equi-join** is one MR stage (reduce-side "common join" with
//!   tagged inputs),
//! * **aggregation** is one MR stage (map-side partial aggregation +
//!   reduce-side final merge),
//! * a global **ORDER BY** is a single-reducer final stage,
//! * a query with none of the above is a **map-only** stage.
//!
//! So the HiBench JOIN query (join + group-by + order-by) compiles to
//! three jobs, exactly as the paper reports.
//!
//! Both engines execute the same [`StagePlan`]s; the planner performs
//! column pruning (scans read only referenced columns) and pushes
//! eligible filters down to the ORC reader as stripe predicates.

use crate::ast::{Expr, JoinKind};
use crate::expr::{compile_expr, RExpr};
use crate::logical::{resolve_source, AggFunc, QueryBlock, Source, AGG_QUALIFIER};
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Schema;
use hdm_common::value::{DataType, Value};
use hdm_storage::{CmpOp, FormatKind, Predicate};
use std::collections::BTreeSet;

/// Where a map input's rows come from.
#[derive(Debug, Clone, PartialEq)]
pub enum InputSource {
    /// A warehouse table.
    Table(String),
    /// The intermediate output of an earlier stage.
    Stage(usize),
}

/// One tagged map-side input of a stage.
#[derive(Debug, Clone)]
pub struct MapInput {
    /// Row source.
    pub source: InputSource,
    /// Input tag (0 = left / only, 1 = right of a join).
    pub tag: u8,
    /// Columns to fetch from a table (None = all / intermediate).
    pub read_projection: Option<Vec<usize>>,
    /// Schema of the fetched row.
    pub read_schema: Schema,
    /// Predicates pushed down to the ORC reader (table-schema indices).
    pub pushdown: Vec<Predicate>,
    /// Residual filter over the fetched row.
    pub filter: Option<RExpr>,
    /// Shuffle key expressions (empty for map-only stages).
    pub key_exprs: Vec<RExpr>,
    /// Value expressions: the row shipped to the reducer (or written
    /// directly for map-only stages).
    pub value_exprs: Vec<RExpr>,
}

impl MapInput {
    /// The predicates a reader of this input is handed: the pushed-down
    /// ones, or none with `hive.orc.pushdown` off.
    pub(crate) fn pushed_down(&self, enabled: bool) -> &[Predicate] {
        if enabled {
            &self.pushdown
        } else {
            &[]
        }
    }
}

/// One aggregate in an Aggregate stage; its input is value-row cell `i`
/// for the `i`-th aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// COUNT(DISTINCT …).
    pub distinct: bool,
}

/// What the reduce side of a stage does.
#[derive(Debug, Clone)]
pub enum StageKind {
    /// No reduce side: map output is the stage output.
    MapOnly,
    /// Reduce-side join of the two tagged inputs.
    Join {
        /// Join kind.
        kind: JoinKind,
        /// Width of the left value row.
        left_width: usize,
        /// Width of the right value row.
        right_width: usize,
        /// Post-match filter over the concatenated row.
        residual: Option<RExpr>,
        /// Output expressions over the concatenated row.
        project: Vec<RExpr>,
    },
    /// Grouped aggregation; keys are the shuffle key row.
    Aggregate {
        /// Number of group-key columns.
        num_keys: usize,
        /// Aggregates (inputs = value-row cells, in order).
        aggs: Vec<AggSpec>,
        /// HAVING over the `[keys…, results…]` row.
        having: Option<RExpr>,
        /// Output expressions over the `[keys…, results…]` row.
        project: Vec<RExpr>,
    },
    /// Single-reducer global sort (keys = sort columns).
    Sort {
        /// Per-key ascending flags.
        ascending: Vec<bool>,
        /// LIMIT.
        limit: Option<u64>,
    },
}

impl StageKind {
    /// Short lowercase name (trace/span labels).
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::MapOnly => "map-only",
            StageKind::Join { .. } => "join",
            StageKind::Aggregate { .. } => "aggregate",
            StageKind::Sort { .. } => "sort",
        }
    }
}

/// Where a stage's output goes.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutput {
    /// Sequence files feeding a later stage.
    Intermediate,
    /// A warehouse table.
    Table {
        /// Table name.
        name: String,
        /// Storage format.
        format: FormatKind,
    },
    /// The final result set returned to the client.
    Collect,
}

/// One MapReduce stage.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Stage index within the query (execution order).
    pub id: usize,
    /// Tagged map inputs.
    pub inputs: Vec<MapInput>,
    /// Reduce-side behaviour.
    pub kind: StageKind,
    /// Output destination.
    pub output: StageOutput,
    /// Output column names (for CTAS/driver display).
    pub out_names: Vec<String>,
    /// Statically inferred output column types (sink schemas).
    pub out_types: Vec<DataType>,
    /// Whether this is the query's final stage (the enhanced
    /// parallelism policy runs final stages with one A task).
    pub is_last: bool,
}

impl StagePlan {
    /// Per-operator eligibility for the vectorized scan pipeline.
    /// Exotic operators stay on the row path: DISTINCT aggregates must
    /// ship raw inputs to the reducer, and join residuals re-evaluate
    /// arbitrary expressions over concatenated rows the map side never
    /// sees, so neither gains from (nor is covered by) the batch
    /// kernels' equivalence argument.
    pub fn vectorizable(&self) -> bool {
        match &self.kind {
            StageKind::Aggregate { aggs, .. } => !aggs.iter().any(|a| a.distinct),
            StageKind::Join { residual, .. } => residual.is_none(),
            StageKind::MapOnly | StageKind::Sort { .. } => true,
        }
    }
}

/// A fully planned query: stages in execution order.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Stages; later stages may read earlier stages' intermediates.
    pub stages: Vec<StagePlan>,
}

impl QueryPlan {
    /// Inter-stage dependency edges, derived from each stage's inputs:
    /// `dag()[i]` lists the stage ids whose intermediates stage `i`
    /// reads (sorted, deduplicated). Base-table scans contribute no
    /// edge, so stages whose inputs are all tables are DAG roots and
    /// may run as soon as the scheduler has a free worker.
    pub fn dag(&self) -> Vec<Vec<usize>> {
        self.stages
            .iter()
            .map(|stage| {
                let deps: BTreeSet<usize> = stage
                    .inputs
                    .iter()
                    .filter_map(|input| match input.source {
                        InputSource::Stage(id) => Some(id),
                        InputSource::Table(_) => None,
                    })
                    .collect();
                deps.into_iter().collect()
            })
            .collect()
    }

    /// The dual of [`Self::dag`]: `consumers()[i]` lists the stage ids
    /// that read stage `i`'s intermediate (sorted, deduplicated). The
    /// pipelined driver streams a producer's output only when it has
    /// exactly one consumer — this is where that fan-out is decided.
    pub fn consumers(&self) -> Vec<Vec<usize>> {
        let mut consumers: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.stages.len()];
        for (stage_idx, deps) in self.dag().into_iter().enumerate() {
            for dep in deps {
                if let Some(c) = consumers.get_mut(dep) {
                    c.insert(stage_idx);
                }
            }
        }
        consumers
            .into_iter()
            .map(|c| c.into_iter().collect())
            .collect()
    }
}

/// Column layout of an intermediate relation: which original
/// `(source, column)` each position holds.
type Layout = Vec<(usize, usize)>;

/// Compile an expression against a layout of original columns.
fn compile_on_layout(e: &Expr, sources: &[Source], layout: &Layout) -> Result<RExpr> {
    let resolver = |q: Option<&str>, n: &str| -> Option<usize> {
        let s = resolve_source(sources, q, n).ok()?;
        let c = sources[s].schema.index_of(n)?;
        layout.iter().position(|&(ls, lc)| ls == s && lc == c)
    };
    compile_expr(e, &resolver)
}

/// Collect `(source, column)` pairs used by an expression.
fn uses(e: &Expr, sources: &[Source]) -> Result<Vec<(usize, usize)>> {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    let mut out = Vec::new();
    for (q, n) in cols {
        if q.as_deref() == Some(AGG_QUALIFIER) {
            continue; // virtual agg slot
        }
        let s = resolve_source(sources, q.as_deref(), &n)?;
        let c = sources[s]
            .schema
            .index_of(&n)
            .ok_or_else(|| HdmError::Plan(format!("unknown column {n}")))?;
        out.push((s, c));
    }
    Ok(out)
}

/// Extract ORC pushdown predicates from filter conjuncts over a source.
fn extract_pushdown(filters: &[Expr], source: &Source) -> Vec<Predicate> {
    let mut out = Vec::new();
    for f in filters {
        for c in f.conjuncts() {
            if let Expr::Binary { op, left, right } = c {
                let cmp = match op {
                    crate::ast::BinOp::Eq => Some(CmpOp::Eq),
                    crate::ast::BinOp::Lt => Some(CmpOp::Lt),
                    crate::ast::BinOp::Le => Some(CmpOp::Le),
                    crate::ast::BinOp::Gt => Some(CmpOp::Gt),
                    crate::ast::BinOp::Ge => Some(CmpOp::Ge),
                    _ => None,
                };
                let Some(cmp) = cmp else { continue };
                // col <op> literal or literal <op> col
                match (&**left, &**right) {
                    (Expr::Column { name, .. }, Expr::Literal(v)) => {
                        if let Some(col) = source.schema.index_of(name) {
                            out.push(Predicate {
                                col,
                                op: cmp,
                                value: coerce_literal(v, source.schema.field(col).data_type),
                            });
                        }
                    }
                    (Expr::Literal(v), Expr::Column { name, .. }) => {
                        if let Some(col) = source.schema.index_of(name) {
                            let flipped = match cmp {
                                CmpOp::Lt => CmpOp::Gt,
                                CmpOp::Le => CmpOp::Ge,
                                CmpOp::Gt => CmpOp::Lt,
                                CmpOp::Ge => CmpOp::Le,
                                CmpOp::Eq => CmpOp::Eq,
                            };
                            out.push(Predicate {
                                col,
                                op: flipped,
                                value: coerce_literal(v, source.schema.field(col).data_type),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

fn coerce_literal(v: &Value, ty: DataType) -> Value {
    match (v, ty) {
        (Value::Str(_), DataType::Date) => v.cast_to(DataType::Date),
        _ => v.clone(),
    }
}

/// Plan one SELECT block into stages. `sink` decides the final stage's
/// output destination.
///
/// # Errors
/// [`HdmError::Plan`] for shapes the planner cannot express.
pub fn plan_select(qb: &QueryBlock, sink: StageOutput) -> Result<QueryPlan> {
    let sources = &qb.sources;
    let n_joins = qb.joins.len();
    // The "consumption stage" of the aggregation / final projection.
    let post_stage = n_joins;

    // ---- usage analysis (for pruning) -------------------------------------
    // For every (source, col), the latest stage that consumes it.
    let mut use_at: Vec<(usize, usize, usize)> = Vec::new(); // (stage, source, col)
    let add_uses = |stage: usize, e: &Expr, acc: &mut Vec<(usize, usize, usize)>| -> Result<()> {
        for (s, c) in uses(e, sources)? {
            acc.push((stage, s, c));
        }
        Ok(())
    };
    for (s, filters) in qb.source_filters.iter().enumerate() {
        // Filters run at the scan; the scan of source s happens in stage
        // max(s-1, 0) for joined sources, stage 0 otherwise.
        let scan_stage = s.saturating_sub(1).min(n_joins.saturating_sub(1));
        for f in filters {
            add_uses(scan_stage, f, &mut use_at)?;
        }
    }
    for (j, step) in qb.joins.iter().enumerate() {
        for (l, r) in &step.keys {
            add_uses(j, l, &mut use_at)?;
            add_uses(j, r, &mut use_at)?;
        }
        for res in &step.residual {
            add_uses(j, res, &mut use_at)?;
        }
    }
    for (hi, f) in &qb.residual_filters {
        add_uses(
            hi.saturating_sub(1).min(n_joins.saturating_sub(1)),
            f,
            &mut use_at,
        )?;
    }
    for g in &qb.group_by {
        add_uses(post_stage, g, &mut use_at)?;
    }
    for a in &qb.aggregates {
        if let Some(input) = &a.input {
            add_uses(post_stage, input, &mut use_at)?;
        }
    }
    for (e, _) in &qb.output {
        add_uses(post_stage, e, &mut use_at)?;
    }
    if let Some(h) = &qb.having {
        add_uses(post_stage, h, &mut use_at)?;
    }

    // Needed columns of a source (all uses).
    let needed = |s: usize| -> Vec<usize> {
        let set: BTreeSet<usize> = use_at
            .iter()
            .filter(|&&(_, us, _)| us == s)
            .map(|&(_, _, c)| c)
            .collect();
        set.into_iter().collect()
    };
    // Columns needed strictly after stage `j`.
    let needed_after = |j: usize| -> BTreeSet<(usize, usize)> {
        use_at
            .iter()
            .filter(|&&(stage, _, _)| stage > j)
            .map(|&(_, s, c)| (s, c))
            .collect()
    };

    // ---- scan construction --------------------------------------------------
    let scan_input = |s: usize, tag: u8, key_src: &[Expr]| -> Result<(MapInput, Layout)> {
        let cols = needed(s);
        let layout: Layout = cols.iter().map(|&c| (s, c)).collect();
        let read_schema = sources[s].schema.project(&cols);
        let filters = &qb.source_filters[s];
        let filter = match Expr::conjoin(filters.clone()) {
            Some(f) => Some(compile_on_layout(&f, sources, &layout)?),
            None => None,
        };
        let key_exprs = key_src
            .iter()
            .map(|k| compile_on_layout(k, sources, &layout))
            .collect::<Result<Vec<_>>>()?;
        Ok((
            MapInput {
                source: InputSource::Table(sources[s].table.clone()),
                tag,
                read_projection: Some(cols),
                read_schema,
                pushdown: extract_pushdown(filters, &sources[s]),
                filter,
                key_exprs,
                value_exprs: Vec::new(), // filled by caller
            },
            layout,
        ))
    };

    let mut stages: Vec<StagePlan> = Vec::new();
    // Current relation: None = base source 0 not yet materialized.
    let mut current_layout: Layout = needed(0).into_iter().map(|c| (0, c)).collect();
    let mut current_stage: Option<usize> = None;

    // ---- join stages ----------------------------------------------------------
    for (j, step) in qb.joins.iter().enumerate() {
        let right = j + 1;
        let left_keys: Vec<Expr> = step.keys.iter().map(|(l, _)| l.clone()).collect();
        let right_keys: Vec<Expr> = step.keys.iter().map(|(_, r)| r.clone()).collect();

        // Left input.
        let mut left_input = match current_stage {
            None => {
                let (mut input, layout) = scan_input(0, 0, &left_keys)?;
                input.value_exprs = layout
                    .iter()
                    .enumerate()
                    .map(|(i, _)| RExpr::Column(i))
                    .collect();
                current_layout = layout;
                input
            }
            Some(prev) => {
                let key_exprs = left_keys
                    .iter()
                    .map(|k| compile_on_layout(k, sources, &current_layout))
                    .collect::<Result<Vec<_>>>()?;
                MapInput {
                    source: InputSource::Stage(prev),
                    tag: 0,
                    read_projection: None,
                    read_schema: layout_schema(&current_layout, sources),
                    pushdown: Vec::new(),
                    filter: None,
                    key_exprs,
                    value_exprs: (0..current_layout.len()).map(RExpr::Column).collect(),
                }
            }
        };

        // Right input (always a base scan).
        let (mut right_input, right_layout) = scan_input(right, 1, &right_keys)?;
        right_input.value_exprs = (0..right_layout.len()).map(RExpr::Column).collect();

        // Decide the output of this join.
        let later: BTreeSet<(usize, usize)> = needed_after(j);
        let concat_layout: Layout = match step.kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => current_layout.clone(),
            _ => {
                let mut l = current_layout.clone();
                l.extend(right_layout.iter().copied());
                l
            }
        };
        // Residual over the concatenated row (semi joins still see the
        // right side for residual evaluation via an extended layout).
        let residual_layout: Layout = {
            let mut l = current_layout.clone();
            l.extend(right_layout.iter().copied());
            l
        };
        let mut residual_exprs = step.residual.clone();
        for (hi, f) in &qb.residual_filters {
            if hi.saturating_sub(1).min(n_joins.saturating_sub(1)) == j && *hi == right {
                residual_exprs.push(f.clone());
            }
        }
        let residual = match Expr::conjoin(residual_exprs) {
            Some(r) => Some(compile_on_layout(&r, sources, &residual_layout)?),
            None => None,
        };

        let is_final_join = j + 1 == n_joins && !qb.is_aggregated();
        let (project, out_layout, out_names, out_types): (
            Vec<RExpr>,
            Layout,
            Vec<String>,
            Vec<DataType>,
        ) = if is_final_join {
            // Final projection folded into the last join's reducer.
            let project = qb
                .output
                .iter()
                .map(|(e, _)| compile_on_layout(e, sources, &concat_layout))
                .collect::<Result<Vec<_>>>()?;
            let names = qb.output.iter().map(|(_, n)| n.clone()).collect();
            (project, Vec::new(), names, infer_output_types(qb))
        } else {
            // Pruned identity: keep only columns needed later.
            let kept: Layout = concat_layout
                .iter()
                .copied()
                .filter(|sc| later.contains(sc))
                .collect();
            let project = kept
                .iter()
                .map(|sc| {
                    RExpr::Column(
                        concat_layout
                            .iter()
                            .position(|x| x == sc)
                            .expect("kept col present in concat layout"),
                    )
                })
                .collect();
            let names = kept
                .iter()
                .map(|&(s, c)| sources[s].schema.field(c).name.clone())
                .collect();
            let types = kept
                .iter()
                .map(|&(s, c)| sources[s].schema.field(c).data_type)
                .collect();
            (project, kept, names, types)
        };

        let stage_id = stages.len();
        let output = if is_final_join && qb.order_by.is_empty() {
            sink.clone()
        } else {
            StageOutput::Intermediate
        };
        stages.push(StagePlan {
            id: stage_id,
            inputs: vec![left_input.clone(), right_input],
            kind: StageKind::Join {
                kind: step.kind,
                left_width: left_input.value_exprs.len(),
                right_width: right_layout.len(),
                residual,
                project,
            },
            output,
            out_names,
            out_types,
            is_last: false,
        });
        let _ = &mut left_input;
        current_layout = out_layout;
        current_stage = Some(stage_id);
    }

    // ---- aggregation stage -------------------------------------------------
    let mut projected = false; // has the final projection happened?
    if qb.is_aggregated() {
        let input = match current_stage {
            None => {
                let (mut input, layout) = scan_input(0, 0, &qb.group_by.clone())?;
                current_layout = layout;
                // Values = aggregate inputs.
                input.value_exprs = agg_value_exprs(qb, sources, &current_layout)?;
                input
            }
            Some(prev) => MapInput {
                source: InputSource::Stage(prev),
                tag: 0,
                read_projection: None,
                read_schema: layout_schema(&current_layout, sources),
                pushdown: Vec::new(),
                filter: None,
                key_exprs: qb
                    .group_by
                    .iter()
                    .map(|g| compile_on_layout(g, sources, &current_layout))
                    .collect::<Result<Vec<_>>>()?,
                value_exprs: agg_value_exprs(qb, sources, &current_layout)?,
            },
        };
        // Output exprs over the [keys…, results…] virtual layout.
        let num_keys = qb.group_by.len();
        let agg_resolver = |q: Option<&str>, n: &str| -> Option<usize> {
            if q != Some(AGG_QUALIFIER) {
                return None;
            }
            let (kind, idx) = n.split_at(1);
            let idx: usize = idx.parse().ok()?;
            match kind {
                "k" => Some(idx),
                "a" => Some(num_keys + idx),
                _ => None,
            }
        };
        let project = qb
            .output
            .iter()
            .map(|(e, _)| compile_expr(e, &agg_resolver))
            .collect::<Result<Vec<_>>>()?;
        let having = match &qb.having {
            Some(h) => Some(compile_expr(h, &agg_resolver)?),
            None => None,
        };
        let stage_id = stages.len();
        stages.push(StagePlan {
            id: stage_id,
            inputs: vec![input],
            kind: StageKind::Aggregate {
                num_keys,
                aggs: qb
                    .aggregates
                    .iter()
                    .map(|a| AggSpec {
                        func: a.func,
                        distinct: a.distinct,
                    })
                    .collect(),
                having,
                project,
            },
            output: if qb.order_by.is_empty() {
                sink.clone()
            } else {
                StageOutput::Intermediate
            },
            out_names: qb.output.iter().map(|(_, n)| n.clone()).collect(),
            out_types: infer_output_types(qb),
            is_last: false,
        });
        current_stage = Some(stage_id);
        projected = true;
    } else if n_joins > 0 {
        projected = true; // folded into the last join
    }

    // ---- map-only final projection (no joins, no aggregation) -----------------
    if !projected && qb.order_by.is_empty() {
        let (mut input, layout) = scan_input(0, 0, &[])?;
        input.value_exprs = qb
            .output
            .iter()
            .map(|(e, _)| compile_on_layout(e, sources, &layout))
            .collect::<Result<Vec<_>>>()?;
        let stage_id = stages.len();
        stages.push(StagePlan {
            id: stage_id,
            inputs: vec![input],
            kind: StageKind::MapOnly,
            output: sink.clone(),
            out_names: qb.output.iter().map(|(_, n)| n.clone()).collect(),
            out_types: infer_output_types(qb),
            is_last: false,
        });
        current_stage = Some(stage_id);
        projected = true;
    }

    // ---- sort stage -----------------------------------------------------------
    if !qb.order_by.is_empty() {
        let out_width = qb.output.len();
        let input = match (current_stage, projected) {
            (Some(prev), true) => MapInput {
                source: InputSource::Stage(prev),
                tag: 0,
                read_projection: None,
                read_schema: output_schema(qb),
                pushdown: Vec::new(),
                filter: None,
                key_exprs: qb.order_by.iter().map(|&(i, _)| RExpr::Column(i)).collect(),
                value_exprs: (0..out_width).map(RExpr::Column).collect(),
            },
            _ => {
                // No prior stage: scan + project + sort in one job.
                let (mut input, layout) = scan_input(0, 0, &[])?;
                input.value_exprs = qb
                    .output
                    .iter()
                    .map(|(e, _)| compile_on_layout(e, sources, &layout))
                    .collect::<Result<Vec<_>>>()?;
                // Sort keys over the *projected* value row.
                input.key_exprs = qb
                    .order_by
                    .iter()
                    .map(|&(i, _)| input.value_exprs[i].clone())
                    .collect();
                input
            }
        };
        let stage_id = stages.len();
        stages.push(StagePlan {
            id: stage_id,
            inputs: vec![input],
            kind: StageKind::Sort {
                ascending: qb.order_by.iter().map(|&(_, asc)| asc).collect(),
                limit: qb.limit,
            },
            output: sink.clone(),
            out_names: qb.output.iter().map(|(_, n)| n.clone()).collect(),
            out_types: infer_output_types(qb),
            is_last: false,
        });
    } else if qb.limit.is_some() {
        // LIMIT without ORDER BY: honoured by the driver when collecting.
    }

    if stages.is_empty() {
        return Err(HdmError::Plan("query produced no stages".into()));
    }
    let last = stages.len() - 1;
    stages[last].is_last = true;
    Ok(QueryPlan { stages })
}

/// Static type inference over AST expressions.
fn ast_type(e: &Expr, resolver: &dyn Fn(Option<&str>, &str) -> Option<DataType>) -> DataType {
    use crate::ast::BinOp;
    match e {
        Expr::Column { qualifier, name } => {
            resolver(qualifier.as_deref(), name).unwrap_or(DataType::String)
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::String),
        Expr::Binary { op, left, right } => {
            if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                DataType::Boolean
            } else if matches!(op, BinOp::Div) {
                DataType::Double
            } else {
                let (l, r) = (ast_type(left, resolver), ast_type(right, resolver));
                if l == DataType::Long && r == DataType::Long {
                    DataType::Long
                } else {
                    DataType::Double
                }
            }
        }
        Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::Like { .. } => DataType::Boolean,
        Expr::Case {
            whens, else_expr, ..
        } => whens
            .first()
            .map(|(_, t)| ast_type(t, resolver))
            .or_else(|| else_expr.as_deref().map(|x| ast_type(x, resolver)))
            .unwrap_or(DataType::String),
        Expr::Func { name, args, .. } => match name.as_str() {
            "year" | "month" | "day" | "length" => DataType::Long,
            "substr" | "substring" | "concat" | "lower" | "upper" => DataType::String,
            "round" => DataType::Double,
            "abs" | "coalesce" => args
                .first()
                .map(|a| ast_type(a, resolver))
                .unwrap_or(DataType::Double),
            "if" => args
                .get(1)
                .map(|a| ast_type(a, resolver))
                .unwrap_or(DataType::String),
            _ => DataType::String,
        },
        Expr::Cast { to, .. } => *to,
        Expr::Star => DataType::Long,
    }
}

/// Type of an expression over the original sources.
fn ast_type_src(e: &Expr, sources: &[Source]) -> DataType {
    ast_type(e, &|q, n| {
        let s = resolve_source(sources, q, n).ok()?;
        let c = sources[s].schema.index_of(n)?;
        Some(sources[s].schema.field(c).data_type)
    })
}

/// Inferred types of the query's output items (agg slots resolved).
fn infer_output_types(qb: &QueryBlock) -> Vec<DataType> {
    let key_types: Vec<DataType> = qb
        .group_by
        .iter()
        .map(|g| ast_type_src(g, &qb.sources))
        .collect();
    let agg_types: Vec<DataType> = qb
        .aggregates
        .iter()
        .map(|a| match a.func {
            AggFunc::Count => DataType::Long,
            AggFunc::Avg => DataType::Double,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => a
                .input
                .as_ref()
                .map(|e| ast_type_src(e, &qb.sources))
                .unwrap_or(DataType::Double),
        })
        .collect();
    qb.output
        .iter()
        .map(|(e, _)| {
            ast_type(e, &|q, n| {
                if q == Some(AGG_QUALIFIER) {
                    let (kind, idx) = n.split_at(1);
                    let idx: usize = idx.parse().ok()?;
                    match kind {
                        "k" => key_types.get(idx).copied(),
                        "a" => agg_types.get(idx).copied(),
                        _ => None,
                    }
                } else {
                    let s = resolve_source(&qb.sources, q, n).ok()?;
                    let c = qb.sources[s].schema.index_of(n)?;
                    Some(qb.sources[s].schema.field(c).data_type)
                }
            })
        })
        .collect()
}

/// Value expressions for an aggregation map input: one cell per
/// aggregate (COUNT(*) counts via a constant 1).
fn agg_value_exprs(qb: &QueryBlock, sources: &[Source], layout: &Layout) -> Result<Vec<RExpr>> {
    qb.aggregates
        .iter()
        .map(|a| match &a.input {
            Some(e) => compile_on_layout(e, sources, layout),
            None => Ok(RExpr::Literal(Value::Long(1))),
        })
        .collect()
}

/// Schema of an intermediate layout (names from the original tables).
fn layout_schema(layout: &Layout, sources: &[Source]) -> Schema {
    Schema::new(
        layout
            .iter()
            .map(|&(s, c)| {
                let f = sources[s].schema.field(c);
                (f.name.clone(), f.data_type)
            })
            .collect::<Vec<_>>(),
    )
}

/// Schema of the final output (types are dynamic; String placeholder).
fn output_schema(qb: &QueryBlock) -> Schema {
    Schema::new(
        qb.output
            .iter()
            .map(|(_, n)| (n.clone(), DataType::String))
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Metastore;
    use crate::logical::analyze;
    use crate::parser::parse_statement;

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
            FormatKind::Orc,
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
        ms.create_table(
            "lineitem",
            vec![
                ("l_orderkey".into(), DataType::Long),
                ("l_quantity".into(), DataType::Double),
                ("l_shipdate".into(), DataType::Date),
            ],
            FormatKind::Orc,
            false,
        )
        .unwrap();
        ms
    }

    fn plan(sql: &str) -> QueryPlan {
        let stmt = parse_statement(sql).unwrap();
        let q = match stmt {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        };
        let qb = analyze(&q, &metastore()).unwrap();
        plan_select(&qb, StageOutput::Collect).unwrap()
    }

    #[test]
    fn map_only_plan() {
        let p = plan("SELECT o_orderkey FROM orders WHERE o_totalprice > 100");
        assert_eq!(p.stages.len(), 1);
        assert!(matches!(p.stages[0].kind, StageKind::MapOnly));
        assert!(p.stages[0].is_last);
        // Column pruning: only o_orderkey and o_totalprice read.
        assert_eq!(p.stages[0].inputs[0].read_projection, Some(vec![0, 3]));
        // Pushdown on the ORC table.
        assert_eq!(p.stages[0].inputs[0].pushdown.len(), 1);
        assert_eq!(p.stages[0].inputs[0].pushdown[0].col, 3);
    }

    #[test]
    fn dag_edges_follow_stage_inputs() {
        // Linear chain: join → aggregate → sort.
        let p = plan(
            "SELECT c_mktsegment, SUM(o_totalprice) AS rev FROM customer c \
             JOIN orders o ON c.c_custkey = o.o_custkey \
             GROUP BY c_mktsegment ORDER BY rev DESC LIMIT 10",
        );
        assert_eq!(p.dag(), vec![vec![], vec![0], vec![1]]);

        // Single map-only stage: one root, no edges.
        let p = plan("SELECT o_orderkey FROM orders");
        assert_eq!(p.dag(), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn dag_dedups_and_sorts_multi_input_edges() {
        // A hand-built diamond: stages 0 and 1 scan tables, stage 2
        // joins both intermediates (and lists the dependency edges in
        // descending, duplicated form to exercise normalization).
        let p = plan("SELECT o_orderkey FROM orders");
        let base = p.stages.into_iter().next().unwrap();
        let mk = |id: usize, sources: Vec<InputSource>, is_last: bool| {
            let mut s = base.clone();
            s.id = id;
            s.is_last = is_last;
            s.output = if is_last {
                StageOutput::Collect
            } else {
                StageOutput::Intermediate
            };
            s.inputs = sources
                .into_iter()
                .map(|src| MapInput {
                    source: src,
                    ..base.inputs[0].clone()
                })
                .collect();
            s
        };
        let diamond = QueryPlan {
            stages: vec![
                mk(0, vec![InputSource::Table("orders".into())], false),
                mk(1, vec![InputSource::Table("customer".into())], false),
                mk(
                    2,
                    vec![
                        InputSource::Stage(1),
                        InputSource::Stage(0),
                        InputSource::Stage(1),
                    ],
                    true,
                ),
            ],
        };
        assert_eq!(diamond.dag(), vec![vec![], vec![], vec![0, 1]]);
    }

    #[test]
    fn hibench_join_query_is_three_jobs() {
        let p = plan(
            "SELECT c_mktsegment, SUM(o_totalprice) AS rev FROM customer c \
             JOIN orders o ON c.c_custkey = o.o_custkey \
             GROUP BY c_mktsegment ORDER BY rev DESC LIMIT 10",
        );
        assert_eq!(p.stages.len(), 3);
        assert!(matches!(p.stages[0].kind, StageKind::Join { .. }));
        assert!(matches!(p.stages[1].kind, StageKind::Aggregate { .. }));
        assert!(matches!(p.stages[2].kind, StageKind::Sort { .. }));
        assert_eq!(p.stages[0].output, StageOutput::Intermediate);
        assert_eq!(p.stages[2].output, StageOutput::Collect);
        assert!(p.stages[2].is_last);
        // The sort stage reads stage 1's intermediate.
        assert_eq!(p.stages[2].inputs[0].source, InputSource::Stage(1));
    }

    #[test]
    fn two_joins_cascade() {
        let p = plan(
            "SELECT c_name FROM customer c \
             JOIN orders o ON c.c_custkey = o.o_custkey \
             JOIN lineitem l ON o.o_orderkey = l.l_orderkey",
        );
        assert_eq!(p.stages.len(), 2);
        match &p.stages[1].kind {
            StageKind::Join { project, .. } => {
                // Final projection folded into the last join.
                assert_eq!(project.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.stages[1].inputs[0].source, InputSource::Stage(0));
        assert_eq!(
            p.stages[1].inputs[1].source,
            InputSource::Table("lineitem".into())
        );
    }

    #[test]
    fn aggregate_only_plan_single_stage() {
        let p = plan("SELECT COUNT(*), MAX(o_totalprice) FROM orders");
        assert_eq!(p.stages.len(), 1);
        match &p.stages[0].kind {
            StageKind::Aggregate { num_keys, aggs, .. } => {
                assert_eq!(*num_keys, 0);
                assert_eq!(aggs.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sort_without_joins_is_one_stage() {
        let p =
            plan("SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 5");
        assert_eq!(p.stages.len(), 1);
        match &p.stages[0].kind {
            StageKind::Sort { ascending, limit } => {
                assert_eq!(ascending, &vec![false]);
                assert_eq!(*limit, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_prunes_intermediate_columns() {
        let p = plan(
            "SELECT SUM(l_quantity) AS q FROM customer c \
             JOIN orders o ON c.c_custkey = o.o_custkey \
             JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
             GROUP BY c_mktsegment",
        );
        // Stage 0 joins customer+orders; only c_mktsegment and
        // o_orderkey survive to stage 1.
        match &p.stages[0].kind {
            StageKind::Join { project, .. } => assert_eq!(project.len(), 2),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.stages[0].out_names, vec!["c_mktsegment", "o_orderkey"]);
    }

    #[test]
    fn semi_join_keeps_left_only() {
        let p = plan(
            "SELECT o_orderkey FROM orders o LEFT SEMI JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        assert_eq!(p.stages.len(), 1);
        match &p.stages[0].kind {
            StageKind::Join { kind, project, .. } => {
                assert_eq!(*kind, JoinKind::LeftSemi);
                assert_eq!(project.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }
}
