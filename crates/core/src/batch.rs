//! Vectorized columnar execution kernels (DESIGN.md §18).
//!
//! The row pipeline interprets one [`Row`] at a time: every operator
//! re-dispatches on the expression tree per row and every scanned row is
//! materialized even when a filter rejects it. The batch pipeline keeps
//! ORC stripes column-wise, filters them into a *selection vector*, and
//! evaluates projections column-at-a-time — rows are materialized only
//! for the cells that survive.
//!
//! Correctness contract: for every kernel here, the produced values (and
//! their order) are exactly what the row path would produce for the
//! transposed batch. The guarantees rest on two rules:
//!
//! * **Only eager expressions are columnarized.** Kleene `AND`/`OR`,
//!   `IN` lists, `CASE`, and scalar functions may *skip* operand
//!   evaluation per row; evaluating them eagerly over a column could
//!   surface an error the row path never hits. Those nodes fall back to
//!   per-row evaluation over a gathered scratch row (identical to the
//!   row the transpose would have built).
//! * **The filter fast path only handles infallible conjuncts.** When
//!   every top-level conjunct is *infallible* (comparisons, BETWEEN,
//!   IS NULL, LIKE, CAST, Kleene AND/OR over in-bounds columns and
//!   literals — nothing that can return an evaluation error), the
//!   short-circuit the row path performs is unobservable, Kleene AND is
//!   associative, and the filter degenerates to "every conjunct
//!   truthy". Each conjunct then runs column-at-a-time over a shrinking
//!   selection vector. One fallible or arity-breaking conjunct forces
//!   the whole filter onto the per-row path, preserving short-circuit
//!   error semantics exactly.

use crate::ast::BinOp;
use crate::expr::{self, RExpr};
use crate::operators::{AggState, Aggregator};
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Row;
use hdm_common::value::Value;

/// A columnar view over one slice of scanned rows: `columns[c][r]` is
/// row `r` of column `c`. Borrowed from decoded ORC stripe columns, so
/// batching never copies the scan output.
#[derive(Debug)]
pub struct RowBatch<'a> {
    columns: Vec<&'a [Value]>,
    rows: usize,
}

impl<'a> RowBatch<'a> {
    /// Wrap column slices as a batch of `rows` rows.
    ///
    /// # Errors
    /// [`HdmError::Eval`] if any column's length differs from `rows`
    /// (the explicit count exists for zero-width projections).
    pub fn new(columns: Vec<&'a [Value]>, rows: usize) -> Result<RowBatch<'a>> {
        if let Some(c) = columns.iter().position(|c| c.len() != rows) {
            return Err(HdmError::Eval(format!(
                "batch column {c} has {} rows, expected {rows}",
                columns.get(c).map(|v| v.len()).unwrap_or(0)
            )));
        }
        Ok(RowBatch { columns, rows })
    }

    /// Number of rows in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The column slices.
    pub fn columns(&self) -> &[&'a [Value]] {
        &self.columns
    }

    /// Materialize row `r` — exactly the row the scan transpose would
    /// have produced. Out-of-range cells (never produced by a valid
    /// batch) read as NULL to keep this panic-free.
    pub fn gather_row(&self, r: usize) -> Row {
        Row::from(
            self.columns
                .iter()
                .map(|col| col.get(r).cloned().unwrap_or(Value::Null))
                .collect::<Vec<_>>(),
        )
    }
}

/// One filter conjunct the fast path can evaluate without materializing
/// rows: `column <cmp> literal` (either operand order). These are
/// infallible, so eager evaluation is indistinguishable from the row
/// path's short-circuit.
enum FastConjunct<'e> {
    /// `Column(col) <op> literal`.
    ColCmpLit(usize, BinOp, &'e Value),
    /// `literal <op> Column(col)`.
    LitCmpCol(&'e Value, BinOp, usize),
}

impl FastConjunct<'_> {
    /// Does row `r` of the batch definitely satisfy this conjunct?
    fn matches(&self, batch: &RowBatch<'_>, r: usize) -> bool {
        let (l, op, rv) = match self {
            FastConjunct::ColCmpLit(col, op, lit) => {
                let Some(cell) = batch.columns.get(*col).and_then(|c| c.get(r)) else {
                    return false;
                };
                (cell, *op, *lit)
            }
            FastConjunct::LitCmpCol(lit, op, col) => {
                let Some(cell) = batch.columns.get(*col).and_then(|c| c.get(r)) else {
                    return false;
                };
                (*lit, *op, cell)
            }
        };
        let Some(ord) = l.sql_cmp(rv) else {
            return false;
        };
        use std::cmp::Ordering::{Equal, Greater, Less};
        match op {
            BinOp::Eq => ord == Equal,
            BinOp::NotEq => ord != Equal,
            BinOp::Lt => ord == Less,
            BinOp::Le => ord != Greater,
            BinOp::Gt => ord == Greater,
            BinOp::Ge => ord != Less,
            _ => false,
        }
    }
}

/// Flatten a tree of top-level `AND`s into conjuncts.
fn conjuncts<'e>(e: &'e RExpr, out: &mut Vec<&'e RExpr>) {
    match e {
        RExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            conjuncts(left, out);
            conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// Try to compile a conjunct into a [`FastConjunct`]. Columns must be
/// in bounds: an out-of-range column would error in the row path, so it
/// must take the fallback.
fn fast_conjunct<'e>(e: &'e RExpr, width: usize) -> Option<FastConjunct<'e>> {
    let RExpr::Binary { op, left, right } = e else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    match (&**left, &**right) {
        (RExpr::Column(c), RExpr::Literal(v)) if *c < width => {
            Some(FastConjunct::ColCmpLit(*c, *op, v))
        }
        (RExpr::Literal(v), RExpr::Column(c)) if *c < width => {
            Some(FastConjunct::LitCmpCol(v, *op, *c))
        }
        _ => None,
    }
}

/// Can evaluating this expression ever return an error? Only
/// comparisons, Kleene AND/OR, BETWEEN, IS NULL, LIKE, IN, CASE, and
/// CAST over in-bounds columns and literals are error-free; arithmetic
/// (type mismatch), scalar functions, and out-of-range columns are not.
/// For an infallible expression the row path's short-circuiting is
/// unobservable, so eager evaluation is exact.
fn is_infallible(e: &RExpr, width: usize) -> bool {
    match e {
        RExpr::Column(i) => *i < width,
        RExpr::Literal(_) => true,
        RExpr::Binary { op, left, right } => {
            (op.is_comparison() || matches!(op, BinOp::And | BinOp::Or))
                && is_infallible(left, width)
                && is_infallible(right, width)
        }
        RExpr::Not(inner) => is_infallible(inner, width),
        RExpr::IsNull { expr, .. } => is_infallible(expr, width),
        RExpr::Between {
            expr, low, high, ..
        } => is_infallible(expr, width) && is_infallible(low, width) && is_infallible(high, width),
        RExpr::Like { expr, .. } => is_infallible(expr, width),
        RExpr::Cast { expr, .. } => is_infallible(expr, width),
        RExpr::InList { expr, list, .. } => {
            is_infallible(expr, width) && list.iter().all(|e| is_infallible(e, width))
        }
        RExpr::Case {
            operand,
            whens,
            else_expr,
        } => {
            operand.iter().all(|o| is_infallible(o, width))
                && whens
                    .iter()
                    .all(|(w, t)| is_infallible(w, width) && is_infallible(t, width))
                && else_expr.iter().all(|x| is_infallible(x, width))
        }
        RExpr::Func { .. } => false,
    }
}

/// Vectorized filter: the indices of batch rows the predicate keeps, in
/// row order — exactly the rows `eval_predicate` would keep.
///
/// # Errors
/// Propagates evaluation failures from the row-at-a-time fallback (the
/// fast path is infallible).
pub fn filter_batch(filter: Option<&RExpr>, batch: &RowBatch<'_>) -> Result<Vec<usize>> {
    let Some(f) = filter else {
        return Ok((0..batch.rows).collect());
    };
    let width = batch.columns.len();
    let mut parts = Vec::new();
    conjuncts(f, &mut parts);
    if parts.iter().all(|c| is_infallible(c, width)) {
        // All conjuncts are error-free, so the row path's short-circuit
        // is unobservable and Kleene AND is an associative fold: a row
        // survives iff every conjunct is truthy. Apply conjuncts one at
        // a time over a shrinking selection vector. A single conjunct
        // is the whole predicate and must equal Boolean(true) exactly
        // (`eval_predicate` does not coerce — `WHERE some_long` is
        // false); inside a conjunction each term folds through
        // `as_bool`, matching `kleene_and`.
        let single = parts.len() == 1;
        let keep = |v: &Value| {
            if single {
                *v == Value::Boolean(true)
            } else {
                v.as_bool() == Some(true)
            }
        };
        let mut sel: Vec<usize> = (0..batch.rows).collect();
        for part in parts {
            if sel.is_empty() {
                break;
            }
            if let Some(fc) = fast_conjunct(part, width) {
                // `column <cmp> literal`: compare in place, no column
                // materialization.
                sel.retain(|&r| fc.matches(batch, r));
            } else {
                let vals = eval_columnar(part, batch, &sel)?;
                let mut kept = Vec::with_capacity(sel.len());
                for (v, r) in vals.iter().zip(sel) {
                    if keep(v) {
                        kept.push(r);
                    }
                }
                sel = kept;
            }
        }
        return Ok(sel);
    }
    // Some conjunct is fallible: evaluate the whole predicate per row
    // to preserve short-circuit error semantics.
    let mut sel = Vec::new();
    for r in 0..batch.rows {
        if f.eval_predicate(&batch.gather_row(r))? {
            sel.push(r);
        }
    }
    Ok(sel)
}

/// Can this expression be evaluated column-at-a-time? True only for
/// nodes that evaluate all operands unconditionally (see module docs).
fn is_eager(e: &RExpr) -> bool {
    match e {
        RExpr::Column(_) | RExpr::Literal(_) => true,
        RExpr::Binary { op, left, right } => {
            !matches!(op, BinOp::And | BinOp::Or) && is_eager(left) && is_eager(right)
        }
        RExpr::Not(inner) => is_eager(inner),
        RExpr::IsNull { expr, .. } => is_eager(expr),
        RExpr::Between {
            expr, low, high, ..
        } => is_eager(expr) && is_eager(low) && is_eager(high),
        RExpr::Like { expr, .. } => is_eager(expr),
        RExpr::Cast { expr, .. } => is_eager(expr),
        // Lazy: may skip operand evaluation per row.
        RExpr::InList { .. } | RExpr::Case { .. } | RExpr::Func { .. } => false,
    }
}

/// Row `i` of a column of cells; a row past the end reads as NULL.
/// Implemented by owned columns and by [`ProjectedColumn`] views, so
/// the grouping kernels take either.
pub trait CellColumn {
    /// The cell of row `i`.
    fn cell(&self, i: usize) -> &Value;
}

impl CellColumn for Vec<Value> {
    fn cell(&self, i: usize) -> &Value {
        self.get(i).unwrap_or(&Value::Null)
    }
}

/// One projected column over a batch's selected rows: a bare column
/// reference is read where it lies, through the selection vector, and
/// only a computed expression materializes its cells.
#[derive(Debug)]
pub(crate) enum ProjectedColumn<'v> {
    /// Column `col` of the batch, at the selected rows `sel`.
    Borrowed {
        /// The batch column.
        col: &'v [Value],
        /// The selected rows, one output cell each.
        sel: &'v [usize],
    },
    /// Computed cells, one per selected row.
    Owned(Vec<Value>),
}

impl ProjectedColumn<'_> {
    /// The cells as an owned column (a borrowed column is cloned here,
    /// once).
    fn into_owned(self) -> Vec<Value> {
        match self {
            ProjectedColumn::Borrowed { col, sel } => sel
                .iter()
                .map(|&r| col.get(r).cloned().unwrap_or(Value::Null))
                .collect(),
            ProjectedColumn::Owned(cells) => cells,
        }
    }
}

impl CellColumn for ProjectedColumn<'_> {
    fn cell(&self, i: usize) -> &Value {
        let cell = match self {
            ProjectedColumn::Borrowed { col, sel } => sel.get(i).and_then(|&r| col.get(r)),
            ProjectedColumn::Owned(cells) => cells.get(i),
        };
        cell.unwrap_or(&Value::Null)
    }
}

/// Evaluate an eager expression over the selected rows, one output value
/// per selection entry.
fn eval_columnar(e: &RExpr, batch: &RowBatch<'_>, sel: &[usize]) -> Result<Vec<Value>> {
    match e {
        RExpr::Column(i) => {
            let col = batch.columns.get(*i).ok_or_else(|| {
                HdmError::Eval(format!(
                    "column index {i} out of range (row has {})",
                    batch.columns.len()
                ))
            })?;
            Ok(sel
                .iter()
                .map(|&r| col.get(r).cloned().unwrap_or(Value::Null))
                .collect())
        }
        RExpr::Literal(v) => Ok(vec![v.clone(); sel.len()]),
        RExpr::Binary { op, left, right } => {
            // Kleene AND/OR evaluated eagerly: with no errors possible
            // (callers gate on `is_eager`/`is_infallible`), the
            // short-circuit is unobservable and the fold is exact.
            if matches!(op, BinOp::And | BinOp::Or) {
                let l = eval_columnar(left, batch, sel)?;
                let rhs = eval_columnar(right, batch, sel)?;
                let fold = if *op == BinOp::And {
                    expr::kleene_and
                } else {
                    expr::kleene_or
                };
                return Ok(l.iter().zip(rhs.iter()).map(|(a, b)| fold(a, b)).collect());
            }
            // A literal operand is broadcast as a scalar instead of
            // being splatted into a constant column.
            if let RExpr::Literal(rv) = &**right {
                let l = eval_columnar(left, batch, sel)?;
                return l.iter().map(|a| expr::eval_binary(*op, a, rv)).collect();
            }
            if let RExpr::Literal(lv) = &**left {
                let rhs = eval_columnar(right, batch, sel)?;
                return rhs.iter().map(|b| expr::eval_binary(*op, lv, b)).collect();
            }
            let l = eval_columnar(left, batch, sel)?;
            let rhs = eval_columnar(right, batch, sel)?;
            l.iter()
                .zip(rhs.iter())
                .map(|(a, b)| expr::eval_binary(*op, a, b))
                .collect()
        }
        RExpr::Not(inner) => Ok(eval_columnar(inner, batch, sel)?
            .into_iter()
            .map(|v| match v {
                Value::Null => Value::Null,
                other => Value::Boolean(!other.as_bool().unwrap_or(false)),
            })
            .collect()),
        RExpr::IsNull { expr, negated } => Ok(eval_columnar(expr, batch, sel)?
            .into_iter()
            .map(|v| Value::Boolean(v.is_null() != *negated))
            .collect()),
        RExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let vs = eval_columnar(expr, batch, sel)?;
            let los = eval_columnar(low, batch, sel)?;
            let his = eval_columnar(high, batch, sel)?;
            Ok(vs
                .iter()
                .zip(los.iter().zip(his.iter()))
                .map(|(v, (lo, hi))| expr::eval_between(v, lo, hi, *negated))
                .collect())
        }
        RExpr::Like {
            expr: inner,
            pattern,
            negated,
        } => {
            let like = |v: &Value| expr::eval_like(v, pattern, *negated);
            // A column is matched where it lies: no cell is cloned.
            if let RExpr::Column(i) = &**inner {
                if let Some(col) = batch.columns.get(*i) {
                    let cell = |r: usize| col.get(r).map_or(Value::Null, like);
                    return Ok(sel.iter().map(|&r| cell(r)).collect());
                }
            }
            Ok(eval_columnar(inner, batch, sel)?.iter().map(like).collect())
        }
        RExpr::Cast { expr: inner, to } => Ok(eval_columnar(inner, batch, sel)?
            .into_iter()
            .map(|v| v.cast_into(*to))
            .collect()),
        // Lazy nodes never reach here (`is_eager` gates callers); fall
        // back to the row evaluator to stay correct regardless.
        other => sel
            .iter()
            .map(|&r| other.eval(&batch.gather_row(r)))
            .collect(),
    }
}

/// Vectorized projection as views: one column per expression, each of
/// `sel.len()` cells. Bare column references borrow the batch's column;
/// eager expressions run column-at-a-time; lazy ones share a single
/// gathered scratch row per selected row.
///
/// # Errors
/// Propagates expression evaluation failures.
pub(crate) fn project_view<'v>(
    exprs: &[RExpr],
    batch: &RowBatch<'v>,
    sel: &'v [usize],
) -> Result<Vec<ProjectedColumn<'v>>> {
    let mut scratch: Option<Vec<Row>> = None;
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        let column = match e {
            RExpr::Column(i) => batch.columns.get(*i),
            _ => None,
        };
        if let Some(&col) = column {
            out.push(ProjectedColumn::Borrowed { col, sel });
        } else if is_eager(e) {
            out.push(ProjectedColumn::Owned(eval_columnar(e, batch, sel)?));
        } else {
            let rows =
                scratch.get_or_insert_with(|| sel.iter().map(|&r| batch.gather_row(r)).collect());
            let cells = rows.iter().map(|row| e.eval(row)).collect::<Result<_>>()?;
            out.push(ProjectedColumn::Owned(cells));
        }
    }
    Ok(out)
}

/// Vectorized projection into owned columns: [`project_view`] with
/// every column materialized.
///
/// # Errors
/// Propagates expression evaluation failures.
pub fn project_batch(
    exprs: &[RExpr],
    batch: &RowBatch<'_>,
    sel: &[usize],
) -> Result<Vec<Vec<Value>>> {
    let view = project_view(exprs, batch, sel)?;
    Ok(view.into_iter().map(ProjectedColumn::into_owned).collect())
}

/// Materialize output row `i` from projected columns (the emit-side dual
/// of [`project_batch`]).
pub fn gather_projected<C: CellColumn>(cols: &[C], i: usize) -> Row {
    cols.iter().map(|c| c.cell(i).clone()).collect()
}

/// Vectorized GroupBy update: feed row `i` of the projected value
/// columns into a group's accumulators. Equivalent to
/// [`Aggregator::update_raw`] over the gathered value row.
pub fn update_group<C: CellColumn>(
    agg: &Aggregator,
    states: &mut [AggState],
    cols: &[C],
    i: usize,
) {
    for c in 0..states.len() {
        let v = cols.get(c).map_or(&Value::Null, |col| col.cell(i));
        agg.update_value(states, c, v);
    }
}

/// Group count up to which [`GroupTable`] resolves keys by linear scan
/// over the stored group keys instead of hashing the key cells.
const GROUP_PROBE_MAX: usize = 16;

/// FxHash's multiply-rotate step, for [`GroupTable`]'s index. The table
/// hashes key rows of one task's own input, so std's seeded SipHash
/// buys nothing there but cost.
#[derive(Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

const FX_K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.add(tail.iter().fold(0, |w, b| w << 8 | u64::from(*b)));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// One more fold: a multiply only carries a word's low bits upwards,
    /// and a `Long` key hashes as its `f64` bits, whose low bits are all
    /// zero — without it every such key would land in one bucket.
    fn finish(&self) -> u64 {
        let h = (self.hash ^ (self.hash >> 32)).wrapping_mul(FX_K);
        h ^ (h >> 29)
    }
}

/// The hash of a key's cells: the byte stream `Row`'s derived `Hash`
/// feeds a hasher (length, then each cell), so cells hash the same
/// wherever they lie — in a stored key, a batch's columns, or a row.
fn hash_cells<'k>(key: impl ExactSizeIterator<Item = &'k Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    h.write_usize(key.len());
    for cell in key {
        cell.hash(&mut h);
    }
    h.finish()
}

/// "No further slot" in [`GroupTable`]'s hash chains.
const CHAIN_END: usize = usize::MAX;

/// Map-side partial-aggregation table for both map pipelines.
///
/// Semantically identical to `HashMap<Row, Vec<AggState>>` keyed by the
/// projected key row (group membership is `Row` equality either way),
/// but no key row is built to look a group up — the key cells are
/// compared and hashed where they lie:
///
/// * the **last-group memo** reuses the previous row's slot when the
///   key cells repeat;
/// * tables of at most [`GROUP_PROBE_MAX`] groups resolve misses by
///   comparing key cells directly against the stored group keys;
/// * larger ones hash the cells ([`hash_cells`]) and walk the chain of
///   slots that share the hash.
///
/// Each key is stored once, when its group appears, and every group's
/// states live in one buffer. Groups drain in first-seen order.
pub struct GroupTable {
    /// Per slot, in first-seen order: the group's key.
    keys: Vec<Row>,
    /// Per slot, `width` states: slot `s` owns `states[s * width..][..width]`.
    states: Vec<AggState>,
    width: usize,
    /// Per hash, the newest slot with it.
    heads: std::collections::HashMap<u64, usize, std::hash::BuildHasherDefault<FxHasher>>,
    /// Per slot, the next older slot with its key's hash.
    chain: Vec<usize>,
    memo: usize,
}

/// Do these key cells equal this stored group key? Cell-by-cell `Value`
/// equality — exactly `Row` equality, without building a key row.
fn key_matches<'k>(key: &Row, cells: impl ExactSizeIterator<Item = &'k Value>) -> bool {
    key.len() == cells.len() && key.values().iter().zip(cells).all(|(k, c)| c == k)
}

impl GroupTable {
    /// An empty table.
    pub fn new() -> GroupTable {
        GroupTable {
            keys: Vec::new(),
            states: Vec::new(),
            width: 0,
            heads: std::collections::HashMap::default(),
            chain: Vec::new(),
            memo: usize::MAX,
        }
    }

    /// True if no group has been created yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The states of the group in `slot`.
    fn states_mut(&mut self, slot: usize) -> Option<&mut [AggState]> {
        let at = slot * self.width;
        self.states.get_mut(at..at + self.width)
    }

    /// The slot of the group whose key equals `key`, or the hash a new
    /// group for it is filed under.
    fn find<'k, K>(&mut self, key: K) -> std::result::Result<usize, u64>
    where
        K: ExactSizeIterator<Item = &'k Value> + Clone,
    {
        if let Some(stored) = self.keys.get(self.memo) {
            if key_matches(stored, key.clone()) {
                return Ok(self.memo);
            }
        }
        if self.keys.len() <= GROUP_PROBE_MAX {
            if let Some(slot) = self.keys.iter().position(|k| key_matches(k, key.clone())) {
                self.memo = slot;
                return Ok(slot);
            }
            return Err(hash_cells(key));
        }
        let hash = hash_cells(key.clone());
        let mut slot = self.heads.get(&hash).copied().unwrap_or(CHAIN_END);
        while let Some((stored, &next)) = self.keys.get(slot).zip(self.chain.get(slot)) {
            if key_matches(stored, key.clone()) {
                self.memo = slot;
                return Ok(slot);
            }
            slot = next;
        }
        Err(hash)
    }

    /// File a new group under `hash`.
    fn insert(&mut self, agg: &Aggregator, key: Row, hash: u64) -> usize {
        let slot = self.keys.len();
        let older = self.heads.insert(hash, slot).unwrap_or(CHAIN_END);
        self.chain.push(older);
        self.keys.push(key);
        let at = self.states.len();
        agg.push_states(&mut self.states);
        self.width = self.states.len() - at;
        self.memo = slot;
        slot
    }

    /// The slot of `key`'s group, created (its key cloned, once) if new.
    fn slot_for<'k, K>(&mut self, agg: &Aggregator, key: K) -> usize
    where
        K: ExactSizeIterator<Item = &'k Value> + Clone,
    {
        match self.find(key.clone()) {
            Ok(slot) => slot,
            Err(hash) => self.insert(agg, key.cloned().collect(), hash),
        }
    }

    /// Fold `rows` rows of projected key/value columns into the table —
    /// the batched equivalent of one `entry(key).or_insert` +
    /// [`Aggregator::update_raw`] per row.
    pub fn update_batch<C: CellColumn>(
        &mut self,
        agg: &Aggregator,
        key_cols: &[C],
        value_cols: &[C],
        rows: usize,
    ) {
        for i in 0..rows {
            let slot = self.slot_for(agg, key_cols.iter().map(|c| c.cell(i)));
            if let Some(states) = self.states_mut(slot) {
                update_group(agg, states, value_cols, i);
            }
        }
    }

    /// Fold one row's cells in, read where they lie: `key` and `value`
    /// are the projected key and value cells (the row path's entry
    /// point, so a stage with both columnar and row inputs shares one
    /// table).
    pub(crate) fn update_cells<'k, K>(
        &mut self,
        agg: &Aggregator,
        key: K,
        value: impl Iterator<Item = &'k Value>,
    ) where
        K: ExactSizeIterator<Item = &'k Value> + Clone,
    {
        let slot = self.slot_for(agg, key);
        if let Some(states) = self.states_mut(slot) {
            // As `update_raw`: aggregate `c` reads cell `c`, NULL past
            // the last.
            let mut value = value;
            for c in 0..states.len() {
                agg.update_value(states, c, value.next().unwrap_or(&Value::Null));
            }
        }
    }

    /// Fold one already-projected row in.
    pub fn update_row(&mut self, agg: &Aggregator, key: Row, value: &Row) {
        let slot = match self.find(key.values().iter()) {
            Ok(slot) => slot,
            Err(hash) => self.insert(agg, key, hash),
        };
        if let Some(states) = self.states_mut(slot) {
            agg.update_raw(states, value);
        }
    }

    /// Drain the table in first-seen group order.
    pub fn into_groups(self) -> Vec<(Row, Vec<AggState>)> {
        let mut states = self.states.into_iter();
        let group = |key| (key, states.by_ref().take(self.width).collect());
        self.keys.into_iter().map(group).collect()
    }

    /// Drain the table in first-seen group order into `f`, each group's
    /// states lent from the one buffer.
    ///
    /// # Errors
    /// The first error `f` returns.
    pub(crate) fn drain_into(
        self,
        mut f: impl FnMut(Row, &[AggState]) -> Result<()>,
    ) -> Result<()> {
        // No aggregates: no states, and every group lends an empty slice.
        let mut states = self.states.chunks(self.width.max(1));
        for key in self.keys {
            f(key, states.next().unwrap_or_default())?;
        }
        Ok(())
    }
}

impl Default for GroupTable {
    fn default() -> GroupTable {
        GroupTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::AggFunc;
    use crate::physical::AggSpec;

    fn cols() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Long(1),
                Value::Long(2),
                Value::Null,
                Value::Long(4),
                Value::Long(5),
            ],
            vec![
                Value::Double(1.5),
                Value::Double(f64::NAN),
                Value::Double(-0.0),
                Value::Null,
                Value::Double(9.0),
            ],
            vec![
                Value::Str("a".into()),
                Value::Str("bb".into()),
                Value::Str("a%c".into()),
                Value::Null,
                Value::Str("e".into()),
            ],
        ]
    }

    fn batch(cols: &[Vec<Value>]) -> RowBatch<'_> {
        RowBatch::new(cols.iter().map(|c| c.as_slice()).collect(), 5).unwrap()
    }

    fn lit(v: Value) -> Box<RExpr> {
        Box::new(RExpr::Literal(v))
    }

    fn col(i: usize) -> Box<RExpr> {
        Box::new(RExpr::Column(i))
    }

    fn cmp(op: BinOp, l: Box<RExpr>, r: Box<RExpr>) -> RExpr {
        RExpr::Binary {
            op,
            left: l,
            right: r,
        }
    }

    fn assert_matches_row_path(filter: &RExpr, data: &[Vec<Value>]) {
        let b = batch(data);
        let sel = filter_batch(Some(filter), &b).unwrap();
        let expected: Vec<usize> = (0..b.rows())
            .filter(|&r| filter.eval_predicate(&b.gather_row(r)).unwrap())
            .collect();
        assert_eq!(sel, expected, "filter {filter:?}");
    }

    #[test]
    fn mismatched_column_length_is_rejected() {
        let a = [Value::Long(1)];
        let b = [Value::Long(1), Value::Long(2)];
        assert!(RowBatch::new(vec![&a[..], &b[..]], 1).is_err());
    }

    #[test]
    fn empty_projection_batch_keeps_row_count() {
        let b = RowBatch::new(Vec::new(), 3).unwrap();
        assert_eq!(b.rows(), 3);
        assert_eq!(filter_batch(None, &b).unwrap(), vec![0, 1, 2]);
        assert_eq!(b.gather_row(0), Row::from(Vec::new()));
    }

    #[test]
    fn fast_path_filter_matches_row_path() {
        let data = cols();
        // col0 >= 2 AND col1 < 5.0  — pure fast path.
        let f = cmp(
            BinOp::And,
            Box::new(cmp(BinOp::Ge, col(0), lit(Value::Long(2)))),
            Box::new(cmp(BinOp::Lt, col(1), lit(Value::Double(5.0)))),
        );
        assert_matches_row_path(&f, &data);
        // Literal on the left.
        let f = cmp(BinOp::Gt, lit(Value::Long(3)), col(0));
        assert_matches_row_path(&f, &data);
        // NotEq with NaN on the column side exercises total_cmp.
        let f = cmp(BinOp::NotEq, col(1), lit(Value::Double(1.5)));
        assert_matches_row_path(&f, &data);
    }

    #[test]
    fn lazy_filter_falls_back_to_row_eval() {
        let data = cols();
        // OR is lazy: must produce identical selection via fallback.
        let f = cmp(
            BinOp::Or,
            Box::new(cmp(BinOp::Eq, col(0), lit(Value::Long(1)))),
            Box::new(cmp(BinOp::Eq, col(2), lit(Value::Str("e".into())))),
        );
        assert_matches_row_path(&f, &data);
        // A non-fast conjunct (LIKE) inside an AND also forces fallback.
        let f = cmp(
            BinOp::And,
            Box::new(cmp(BinOp::Ge, col(0), lit(Value::Long(0)))),
            Box::new(RExpr::Like {
                expr: col(2),
                pattern: "a%".into(),
                negated: false,
            }),
        );
        assert_matches_row_path(&f, &data);
    }

    #[test]
    fn out_of_range_column_conjunct_errors_like_row_path() {
        let data = cols();
        let b = batch(&data);
        let f = cmp(BinOp::Eq, col(9), lit(Value::Long(1)));
        assert!(filter_batch(Some(&f), &b).is_err());
    }

    #[test]
    fn projection_matches_row_path_per_expression() {
        let data = cols();
        let b = batch(&data);
        let exprs = vec![
            RExpr::Column(2),
            cmp(BinOp::Mul, col(1), lit(Value::Double(2.0))),
            RExpr::Between {
                expr: col(0),
                low: lit(Value::Long(2)),
                high: lit(Value::Long(4)),
                negated: false,
            },
            RExpr::IsNull {
                expr: col(1),
                negated: true,
            },
            RExpr::Cast {
                expr: col(0),
                to: hdm_common::value::DataType::Double,
            },
            // Lazy: CASE goes through the scratch-row fallback.
            RExpr::Case {
                operand: None,
                whens: vec![(
                    cmp(BinOp::Gt, col(0), lit(Value::Long(3))),
                    RExpr::Literal(Value::Str("big".into())),
                )],
                else_expr: Some(Box::new(RExpr::Literal(Value::Str("small".into())))),
            },
        ];
        let sel = vec![0usize, 2, 4];
        let out = project_batch(&exprs, &b, &sel).unwrap();
        assert_eq!(out.len(), exprs.len());
        for (i, &r) in sel.iter().enumerate() {
            let row = b.gather_row(r);
            for (e, outcol) in exprs.iter().zip(out.iter()) {
                let expected = e.eval(&row).unwrap();
                assert_eq!(
                    outcol[i].total_cmp(&expected),
                    std::cmp::Ordering::Equal,
                    "expr {e:?} row {r}"
                );
            }
        }
        let gathered = gather_projected(&out, 1);
        assert_eq!(gathered.len(), exprs.len());
    }

    #[test]
    fn group_update_matches_update_raw() {
        let data = cols();
        let b = batch(&data);
        let agg = Aggregator::new(vec![
            AggSpec {
                func: AggFunc::Count,
                distinct: false,
            },
            AggSpec {
                func: AggFunc::Sum,
                distinct: false,
            },
            AggSpec {
                func: AggFunc::Min,
                distinct: false,
            },
        ]);
        let exprs = vec![
            RExpr::Literal(Value::Long(1)),
            RExpr::Column(1),
            RExpr::Column(0),
        ];
        let sel: Vec<usize> = (0..b.rows()).collect();
        let cols = project_batch(&exprs, &b, &sel).unwrap();
        let mut vec_states = agg.new_states();
        for i in 0..sel.len() {
            update_group(&agg, &mut vec_states, &cols, i);
        }
        let mut row_states = agg.new_states();
        for r in 0..b.rows() {
            let row = b.gather_row(r);
            let value = crate::operators::project_row(&exprs, &row).unwrap();
            agg.update_raw(&mut row_states, &value);
        }
        let a = agg.states_to_row(&vec_states);
        let e = agg.states_to_row(&row_states);
        assert_eq!(a.len(), e.len());
        for (x, y) in a.values().iter().zip(e.values().iter()) {
            assert_eq!(x.total_cmp(y), std::cmp::Ordering::Equal);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_cell() -> BoxedStrategy<Value> {
        prop_oneof![
            3 => (-20i64..20).prop_map(Value::Long),
            2 => (-4.0f64..4.0).prop_map(Value::Double),
            1 => Just(Value::Double(f64::NAN)),
            2 => "[ab]{0,2}".prop_map(Value::Str),
            2 => Just(Value::Null),
        ]
        .boxed()
    }

    /// One random filter term: a fast conjunct, BETWEEN, IS NULL, or an
    /// IN list.
    fn arb_term() -> BoxedStrategy<RExpr> {
        let leaf = (0usize..3, 0u8..6, arb_cell()).prop_map(|(c, opi, v)| {
            let op = match opi {
                0 => BinOp::Eq,
                1 => BinOp::NotEq,
                2 => BinOp::Lt,
                3 => BinOp::Le,
                4 => BinOp::Gt,
                _ => BinOp::Ge,
            };
            RExpr::Binary {
                op,
                left: Box::new(RExpr::Column(c)),
                right: Box::new(RExpr::Literal(v)),
            }
        });
        let special = prop_oneof![
            (0usize..3, arb_cell(), arb_cell(), any::<bool>()).prop_map(|(c, lo, hi, neg)| {
                RExpr::Between {
                    expr: Box::new(RExpr::Column(c)),
                    low: Box::new(RExpr::Literal(lo)),
                    high: Box::new(RExpr::Literal(hi)),
                    negated: neg,
                }
            }),
            (0usize..3, any::<bool>()).prop_map(|(c, neg)| RExpr::IsNull {
                expr: Box::new(RExpr::Column(c)),
                negated: neg,
            }),
            (
                0usize..3,
                proptest::collection::vec(arb_cell(), 0..3),
                any::<bool>()
            )
                .prop_map(|(c, list, neg)| RExpr::InList {
                    expr: Box::new(RExpr::Column(c)),
                    list: list.into_iter().map(RExpr::Literal).collect(),
                    negated: neg,
                }),
        ];
        prop_oneof![3 => leaf, 1 => special].boxed()
    }

    /// Random filters over 3 columns: mixes fast conjunctions, lazy
    /// ORs, BETWEEN, IS NULL, and IN lists.
    fn arb_filter() -> BoxedStrategy<RExpr> {
        (
            arb_term(),
            arb_term(),
            arb_term(),
            0u8..3, // 0: single, 1: AND, 2: OR
        )
            .prop_map(|(a, b, c, shape)| match shape {
                0 => a,
                1 => RExpr::Binary {
                    op: BinOp::And,
                    left: Box::new(a),
                    right: Box::new(RExpr::Binary {
                        op: BinOp::And,
                        left: Box::new(b),
                        right: Box::new(c),
                    }),
                },
                _ => RExpr::Binary {
                    op: BinOp::Or,
                    left: Box::new(a),
                    right: Box::new(b),
                },
            })
            .boxed()
    }

    /// Key cells that make group identity subtle: NULLs, `Long(n)`
    /// beside the equal `Double(n.0)`, NaNs, `0.0` beside `-0.0`, and
    /// strings; with two key columns, tables pass the 16-group probe
    /// window into the hashed index.
    fn arb_key_cell() -> BoxedStrategy<Value> {
        let float = |bits: f64| Just(Value::Double(bits));
        prop_oneof![
            1 => Just(Value::Null),
            3 => (0i64..12).prop_map(Value::Long),
            2 => (0i64..12).prop_map(|v| Value::Double(v as f64)),
            2 => "[ab]{0,2}".prop_map(Value::Str),
            2 => (12i64..40).prop_map(Value::Long),
            1 => (12i64..40).prop_map(|v| Value::Double(v as f64)),
            1 => prop_oneof![float(f64::NAN), float(-f64::NAN), float(0.0), float(-0.0)],
        ]
        .boxed()
    }

    proptest! {
        // Cases from `PROPTEST_CASES`.
        #[test]
        fn group_table_matches_a_hash_map_in_first_seen_order(
            // Per row: two key cells, and whether the row goes through
            // `update_row` (else it joins a batch with its neighbours).
            rows in proptest::collection::vec((arb_key_cell(), arb_key_cell(), any::<bool>()), 0..160),
            width in 1usize..3,
        ) {
            use crate::logical::AggFunc;
            use crate::physical::AggSpec;
            use std::collections::HashMap;
            let spec = |func| AggSpec { func, distinct: false };
            let agg = Aggregator::new(vec![spec(AggFunc::Count), spec(AggFunc::Sum), spec(AggFunc::Min)]);
            let key_of = |(a, b, _): &(Value, Value, bool)| -> Row {
                [a, b].into_iter().take(width).cloned().collect()
            };
            let value_of = |i: usize| -> Row {
                Row::from(vec![Value::Long(1), Value::Long(i as i64), Value::Long(i as i64)])
            };
            let mut index: HashMap<Row, usize> = HashMap::new();
            let mut want: Vec<(Row, Vec<AggState>)> = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                let key = key_of(row);
                let slot = *index.entry(key.clone()).or_insert_with(|| {
                    want.push((key, agg.new_states()));
                    want.len() - 1
                });
                agg.update_raw(&mut want[slot].1, &value_of(i));
            }
            let mut table = GroupTable::new();
            let mut start = 0;
            while start < rows.len() {
                if rows[start].2 {
                    table.update_row(&agg, key_of(&rows[start]), &value_of(start));
                    start += 1;
                    continue;
                }
                let end = (start..rows.len()).find(|&j| rows[j].2).unwrap_or(rows.len());
                let keys: Vec<Row> = rows[start..end].iter().map(key_of).collect();
                let key_cols: Vec<Vec<Value>> = (0..width)
                    .map(|c| keys.iter().map(|k| k.get(c).clone()).collect())
                    .collect();
                let values: Vec<Row> = (start..end).map(value_of).collect();
                let value_cols: Vec<Vec<Value>> = (0..3)
                    .map(|c| values.iter().map(|v| v.get(c).clone()).collect())
                    .collect();
                table.update_batch(&agg, &key_cols, &value_cols, end - start);
                start = end;
            }
            let finish = |groups: Vec<(Row, Vec<AggState>)>| -> Vec<(Row, Vec<Value>)> {
                groups.into_iter().map(|(k, s)| (k, agg.finish(s))).collect()
            };
            prop_assert_eq!(finish(table.into_groups()), finish(want));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn batch_filter_equals_row_filter(
            cells in proptest::collection::vec((arb_cell(), arb_cell(), arb_cell()), 0..40),
            filter in arb_filter(),
        ) {
            let cols: Vec<Vec<Value>> = (0..3)
                .map(|c| {
                    cells
                        .iter()
                        .map(|(a, b, d)| match c {
                            0 => a.clone(),
                            1 => b.clone(),
                            _ => d.clone(),
                        })
                        .collect()
                })
                .collect();
            let batch =
                RowBatch::new(cols.iter().map(|c| c.as_slice()).collect(), cells.len()).unwrap();
            let sel = filter_batch(Some(&filter), &batch).unwrap();
            let expected: Vec<usize> = (0..batch.rows())
                .filter(|&r| filter.eval_predicate(&batch.gather_row(r)).unwrap())
                .collect();
            prop_assert_eq!(sel, expected);
        }

        #[test]
        fn batch_projection_equals_row_projection(
            cells in proptest::collection::vec((arb_cell(), arb_cell(), arb_cell()), 0..40),
            exprs in proptest::collection::vec(
                prop_oneof![
                    (0usize..3).prop_map(RExpr::Column),
                    arb_cell().prop_map(RExpr::Literal),
                    (0usize..3, arb_cell()).prop_map(|(c, v)| RExpr::Binary {
                        op: BinOp::Add,
                        left: Box::new(RExpr::Column(c)),
                        right: Box::new(RExpr::Literal(v)),
                    }),
                    (0usize..3).prop_map(|c| RExpr::IsNull {
                        expr: Box::new(RExpr::Column(c)),
                        negated: false,
                    }),
                ],
                1..4,
            ),
        ) {
            let cols: Vec<Vec<Value>> = (0..3)
                .map(|c| {
                    cells
                        .iter()
                        .map(|(a, b, d)| match c {
                            0 => a.clone(),
                            1 => b.clone(),
                            _ => d.clone(),
                        })
                        .collect()
                })
                .collect();
            let batch =
                RowBatch::new(cols.iter().map(|c| c.as_slice()).collect(), cells.len()).unwrap();
            let sel: Vec<usize> = (0..batch.rows()).step_by(2).collect();
            match project_batch(&exprs, &batch, &sel) {
                Err(_) => {
                    // Addition over strings errors; the row path must
                    // error on some selected row too.
                    let row_errs = sel.iter().any(|&r| {
                        exprs.iter().any(|e| e.eval(&batch.gather_row(r)).is_err())
                    });
                    prop_assert!(row_errs);
                }
                Ok(out) => {
                    for (i, &r) in sel.iter().enumerate() {
                        let row = batch.gather_row(r);
                        for (e, outcol) in exprs.iter().zip(out.iter()) {
                            let expected = e.eval(&row).unwrap();
                            prop_assert_eq!(
                                outcol[i].total_cmp(&expected),
                                std::cmp::Ordering::Equal
                            );
                        }
                    }
                }
            }
        }
    }
}
