//! The physical planner: from a validated [`QueryBlock`] to a DAG of
//! MapReduce stages.
//!
//! Stage shapes follow Hive 0.13's common plans:
//!
//! * each **equi-join** is one MR stage (reduce-side "common join" with
//!   tagged inputs) — unless one of its tables is recorded as no larger
//!   than one DFS block, in which case it is a [`MapJoin`] step inside
//!   the map pipeline of whichever stage reads the joined rows next
//!   (Hive's `hive.auto.convert.join`; DESIGN.md §23),
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
    /// Map-side joins the filtered rows pass through, in order, before
    /// `key_exprs` / `value_exprs` see them.
    pub map_joins: Vec<MapJoin>,
    /// Shuffle key expressions (empty for map-only stages).
    pub key_exprs: Vec<RExpr>,
    /// Value expressions: the row shipped to the reducer (or written
    /// directly for map-only stages).
    pub value_exprs: Vec<RExpr>,
}

/// One map-side hash join: a join whose small table is hashed in memory
/// by the stage that would otherwise only have read the other side, so
/// it costs no stage and no shuffle of its own.
#[derive(Debug, Clone)]
pub struct MapJoin {
    /// Join kind.
    pub kind: JoinKind,
    /// The small table, read whole: `filter`, `pushdown` and the
    /// projection apply as for any scan, `key_exprs` is its join key and
    /// `value_exprs` the row that gets joined.
    pub build: MapInput,
    /// The join key over a probe row (the input's rows as they reach
    /// this step).
    pub probe_keys: Vec<RExpr>,
    /// The build table is the join's *left* table (an inner join whose
    /// first table is the small one): joined rows are `build ++ probe`.
    /// Otherwise they are `probe ++ build`.
    pub build_is_left: bool,
    /// Post-match filter over the joined row.
    pub residual: Option<RExpr>,
    /// Output expressions over the joined row: the rows the next step
    /// (or the input's `key_exprs` / `value_exprs`) sees.
    pub project: Vec<RExpr>,
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
    // A final sort stage runs for ORDER BY, and carries a LIMIT into a
    // table (keyless, on one reducer): the driver truncates only what it
    // collects.
    let sorted = !qb.order_by.is_empty() || (qb.limit.is_some() && sink != StageOutput::Collect);

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
    // A scan of source `s`, its `key_exprs` / `value_exprs` left for the
    // consumer to fill in against the returned layout.
    let scan = |s: usize, tag: u8| -> Result<(MapInput, Layout)> {
        let cols = needed(s);
        let layout: Layout = cols.iter().map(|&c| (s, c)).collect();
        let read_schema = sources[s].schema.project(&cols);
        let filters = &qb.source_filters[s];
        let filter = match Expr::conjoin(filters.clone()) {
            Some(f) => Some(compile_on_layout(&f, sources, &layout)?),
            None => None,
        };
        Ok((
            MapInput {
                source: InputSource::Table(sources[s].table.clone()),
                tag,
                read_projection: Some(cols),
                read_schema,
                pushdown: extract_pushdown(filters, &sources[s]),
                filter,
                map_joins: Vec::new(),
                key_exprs: Vec::new(),
                value_exprs: Vec::new(),
            },
            layout,
        ))
    };
    // The rows an earlier stage wrote.
    let stage_output = |stage: usize, read_schema: Schema| MapInput {
        source: InputSource::Stage(stage),
        tag: 0,
        read_projection: None,
        read_schema,
        pushdown: Vec::new(),
        filter: None,
        map_joins: Vec::new(),
        key_exprs: Vec::new(),
        value_exprs: Vec::new(),
    };
    let compile_all = |exprs: &[Expr], layout: &Layout| -> Result<Vec<RExpr>> {
        exprs
            .iter()
            .map(|e| compile_on_layout(e, sources, layout))
            .collect()
    };
    let identity = |width: usize| -> Vec<RExpr> { (0..width).map(RExpr::Column).collect() };
    // The one-block rule: a table recorded as no larger than one DFS
    // block is hashed in memory instead of shuffled. Replicating it into
    // every task of the other side then costs each task no more than
    // its own split. No recorded size, no conversion.
    let fits_one_block = |s: usize| sources[s].stored.is_some_and(|size| size.fits_one_block());
    let output_exprs: Vec<Expr> = qb.output.iter().map(|(e, _)| e.clone()).collect();
    let out_names = || -> Vec<String> { qb.output.iter().map(|(_, n)| n.clone()).collect() };

    let mut stages: Vec<StagePlan> = Vec::new();
    // The running relation of the left-deep chain: `running` reads it —
    // a scan or an earlier stage's output, then the map-side joins
    // accumulated since — and `layout` is what its rows hold afterwards.
    let (mut running, mut layout) = scan(0, 0)?;
    // Has the final projection happened (rows are output rows)?
    let mut projected = false;

    // ---- joins ----------------------------------------------------------------
    for (j, step) in qb.joins.iter().enumerate() {
        let right = j + 1;
        let left_keys: Vec<Expr> = step.keys.iter().map(|(l, _)| l.clone()).collect();
        let right_keys: Vec<Expr> = step.keys.iter().map(|(_, r)| r.clone()).collect();

        // Right input (always a base scan).
        let (mut right_input, right_layout) = scan(right, 1)?;
        right_input.key_exprs = compile_all(&right_keys, &right_layout)?;
        right_input.value_exprs = identity(right_layout.len());

        // Hash the right table when it is the small one; the left one
        // only where swapping sides is free: an inner join whose left
        // side is still the bare scan of source 0.
        let build_right = fits_one_block(right);
        let build_left =
            !build_right && j == 0 && step.kind == JoinKind::Inner && fits_one_block(0);
        let map_side = build_right || build_left;

        // Decide the output of this join.
        let later: BTreeSet<(usize, usize)> = needed_after(j);
        let mut residual_exprs = step.residual.clone();
        for (hi, f) in &qb.residual_filters {
            if hi.saturating_sub(1).min(n_joins.saturating_sub(1)) == j && *hi == right {
                residual_exprs.push(f.clone());
            }
        }
        // The two sides as they enter the joined row. A shuffled side
        // ships its whole layout; a hashed side keeps, per build row,
        // only the columns the residual or a later operator reads.
        let mut carried = later.clone();
        for e in &residual_exprs {
            carried.extend(uses(e, sources)?);
        }
        let carried_of = |side: &Layout| -> Layout {
            let cols = side.iter().copied();
            cols.filter(|sc| carried.contains(sc)).collect()
        };
        let positions_in = |cols: &Layout, side: &Layout| -> Vec<RExpr> {
            let position = |sc| side.iter().position(|x| x == sc);
            cols.iter()
                .filter_map(position)
                .map(RExpr::Column)
                .collect()
        };
        let (left_cols, right_cols) = match (build_left, build_right) {
            (true, _) => (carried_of(&layout), right_layout.clone()),
            (_, true) => (layout.clone(), carried_of(&right_layout)),
            _ => (layout.clone(), right_layout.clone()),
        };
        // Residual over the concatenated row (semi joins still see the
        // right side for residual evaluation via an extended layout).
        let residual_layout: Layout = left_cols.iter().chain(&right_cols).copied().collect();
        let concat_layout: Layout = match step.kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => left_cols.clone(),
            _ => residual_layout.clone(),
        };
        let residual = match Expr::conjoin(residual_exprs) {
            Some(r) => Some(compile_on_layout(&r, sources, &residual_layout)?),
            None => None,
        };

        // A shuffle join that ends an unaggregated query folds the final
        // projection into its reducer; a map-side one leaves it to the
        // stage its rows end up in.
        let is_final_join = j + 1 == n_joins && !qb.is_aggregated() && !map_side;
        let (project, out_layout, out_names, out_types): (
            Vec<RExpr>,
            Layout,
            Vec<String>,
            Vec<DataType>,
        ) = if is_final_join {
            let project = compile_all(&output_exprs, &concat_layout)?;
            (project, Vec::new(), out_names(), infer_output_types(qb))
        } else {
            // Pruned identity: keep only columns needed later.
            let kept: Layout = concat_layout
                .iter()
                .copied()
                .filter(|sc| later.contains(sc))
                .collect();
            let project = positions_in(&kept, &concat_layout);
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

        if map_side {
            let (build, probe_keys) = if build_left {
                // Source 0's scan becomes the build side and source 1's
                // the rows that probe it.
                let probe_keys = std::mem::take(&mut right_input.key_exprs);
                right_input.value_exprs = Vec::new();
                right_input.tag = 0;
                let mut build = std::mem::replace(&mut running, right_input);
                build.key_exprs = compile_all(&left_keys, &layout)?;
                build.value_exprs = positions_in(&left_cols, &layout);
                (build, probe_keys)
            } else {
                right_input.value_exprs = positions_in(&right_cols, &right_layout);
                (right_input, compile_all(&left_keys, &layout)?)
            };
            running.map_joins.push(MapJoin {
                kind: step.kind,
                build,
                probe_keys,
                build_is_left: build_left,
                residual,
                project,
            });
            layout = out_layout;
            continue;
        }

        let mut left_input = running;
        left_input.key_exprs = compile_all(&left_keys, &layout)?;
        left_input.value_exprs = identity(layout.len());
        let stage_id = stages.len();
        let output = if is_final_join && !sorted {
            sink.clone()
        } else {
            StageOutput::Intermediate
        };
        stages.push(StagePlan {
            id: stage_id,
            kind: StageKind::Join {
                kind: step.kind,
                left_width: layout.len(),
                right_width: right_layout.len(),
                residual,
                project,
            },
            inputs: vec![left_input, right_input],
            output,
            out_names,
            out_types,
            is_last: false,
        });
        projected = is_final_join;
        running = stage_output(
            stage_id,
            if projected {
                output_schema(qb)
            } else {
                layout_schema(&out_layout, sources)
            },
        );
        layout = out_layout;
    }

    // ---- aggregation stage -------------------------------------------------
    if qb.is_aggregated() {
        let mut input = running;
        input.key_exprs = compile_all(&qb.group_by, &layout)?;
        // Values = aggregate inputs.
        input.value_exprs = agg_value_exprs(qb, sources, &layout)?;
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
            output: if !sorted {
                sink.clone()
            } else {
                StageOutput::Intermediate
            },
            out_names: out_names(),
            out_types: infer_output_types(qb),
            is_last: false,
        });
        projected = true;
        running = stage_output(stage_id, output_schema(qb));
    }

    // ---- map-only final projection (nothing above projected) ------------------
    if !projected && !sorted {
        let mut input = running.clone();
        input.value_exprs = compile_all(&output_exprs, &layout)?;
        stages.push(StagePlan {
            id: stages.len(),
            inputs: vec![input],
            kind: StageKind::MapOnly,
            output: sink.clone(),
            out_names: out_names(),
            out_types: infer_output_types(qb),
            is_last: false,
        });
    }

    // ---- sort stage -----------------------------------------------------------
    if sorted {
        let mut input = running;
        if projected {
            input.key_exprs = qb.order_by.iter().map(|&(i, _)| RExpr::Column(i)).collect();
            input.value_exprs = identity(qb.output.len());
        } else {
            // Nothing projected yet: project + sort in one job, the sort
            // keys over the *projected* value row.
            input.value_exprs = compile_all(&output_exprs, &layout)?;
            input.key_exprs = qb
                .order_by
                .iter()
                .map(|&(i, _)| input.value_exprs[i].clone())
                .collect();
        }
        stages.push(StagePlan {
            id: stages.len(),
            inputs: vec![input],
            kind: StageKind::Sort {
                ascending: qb.order_by.iter().map(|&(_, asc)| asc).collect(),
                limit: qb.limit,
            },
            output: sink.clone(),
            out_names: out_names(),
            out_types: infer_output_types(qb),
            is_last: false,
        });
    }
    // A collected LIMIT without ORDER BY is honoured by the driver.

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
