//! Runtime operator machinery shared by both execution engines:
//! aggregate states, join group processing, and shuffle-row codecs.
//!
//! Keeping these engine-agnostic is the heart of the paper's plug-in
//! claim: the Hadoop `ExecMapper`/`ExecReducer` and the DataMPI
//! `DataMPIHiveApplication` both delegate here, so swapping the engine
//! swaps only data movement, never query semantics.

use crate::expr::RExpr;
use crate::logical::AggFunc;
use crate::physical::AggSpec;
use hdm_common::codec;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::{decode_value, encode_value, Row};
use hdm_common::value::Value;
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// One aggregate's accumulating state.
#[derive(Debug, Clone)]
pub enum AggState {
    /// COUNT (counts non-null inputs; COUNT(*) counts the constant 1).
    Count(i64),
    /// SUM (Long until a Double arrives, then Double).
    Sum(Option<Value>),
    /// AVG = (sum, count).
    Avg(f64, i64),
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
    /// COUNT(DISTINCT …) — never partially aggregated.
    CountDistinct(HashSet<Value>),
}

/// Drives a vector of [`AggState`]s according to the stage's specs.
#[derive(Debug, Clone)]
pub struct Aggregator {
    specs: Vec<AggSpec>,
}

impl Aggregator {
    /// Build for a stage's aggregate list.
    pub fn new(specs: Vec<AggSpec>) -> Aggregator {
        Aggregator { specs }
    }

    /// True if any aggregate is DISTINCT (disables partial aggregation:
    /// raw inputs must reach the reducer).
    pub fn has_distinct(&self) -> bool {
        self.specs.iter().any(|s| s.distinct)
    }

    /// Fresh states, one per aggregate.
    pub fn new_states(&self) -> Vec<AggState> {
        let mut states = Vec::new();
        self.push_states(&mut states);
        states
    }

    /// Append fresh states, one per aggregate, to `states`.
    pub(crate) fn push_states(&self, states: &mut Vec<AggState>) {
        states.extend(self.specs.iter().map(|s| match (s.func, s.distinct) {
            (AggFunc::Count, true) => AggState::CountDistinct(HashSet::new()),
            (AggFunc::Count, false) => AggState::Count(0),
            (AggFunc::Sum, _) => AggState::Sum(None),
            (AggFunc::Avg, _) => AggState::Avg(0.0, 0),
            (AggFunc::Min, _) => AggState::Min(None),
            (AggFunc::Max, _) => AggState::Max(None),
        }));
    }

    /// Update states from one *raw input row* (cell `i` = aggregate
    /// `i`'s input).
    pub fn update_raw(&self, states: &mut [AggState], row: &Row) {
        for (i, state) in states.iter_mut().enumerate() {
            update_one(state, row.values().get(i).unwrap_or(&Value::Null));
        }
    }

    /// Update the `idx`-th aggregate from a single input value. The
    /// vectorized path feeds projected *columns* instead of rows, one
    /// cell at a time; semantics match [`Self::update_raw`] cell `idx`.
    pub fn update_value(&self, states: &mut [AggState], idx: usize, v: &Value) {
        if let Some(state) = states.get_mut(idx) {
            update_one(state, v);
        }
    }

    /// Merge a serialized *partial state row* into states.
    ///
    /// # Errors
    /// [`HdmError::Eval`] if the row does not match the state layout.
    pub fn merge_state_row(&self, states: &mut [AggState], row: &Row) -> Result<()> {
        let mut pos = 0usize;
        for state in states.iter_mut() {
            let take = |k: usize| -> Result<&Value> {
                row.values()
                    .get(k)
                    .ok_or_else(|| HdmError::Eval("short partial-aggregate state row".into()))
            };
            match state {
                AggState::Count(n) => {
                    *n += take(pos)?.as_i64().unwrap_or(0);
                    pos += 1;
                }
                AggState::Sum(cur) => {
                    merge_sum(cur, take(pos)?);
                    pos += 1;
                }
                AggState::Avg(sum, count) => {
                    *sum += take(pos)?.as_f64().unwrap_or(0.0);
                    *count += take(pos + 1)?.as_i64().unwrap_or(0);
                    pos += 2;
                }
                AggState::Min(cur) => {
                    let v = take(pos)?;
                    if !v.is_null() {
                        merge_min(cur, v);
                    }
                    pos += 1;
                }
                AggState::Max(cur) => {
                    let v = take(pos)?;
                    if !v.is_null() {
                        merge_max(cur, v);
                    }
                    pos += 1;
                }
                AggState::CountDistinct(_) => {
                    return Err(HdmError::Eval(
                        "COUNT(DISTINCT) cannot merge partial states".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serialize states as a partial state row (for the shuffle).
    pub fn states_to_row(&self, states: &[AggState]) -> Row {
        let mut cells = Vec::new();
        self.push_state_cells(states, &mut cells);
        Row::from(cells)
    }

    /// Append the cells of [`Self::states_to_row`] to `cells`.
    pub(crate) fn push_state_cells(&self, states: &[AggState], cells: &mut Vec<Value>) {
        for state in states {
            match state {
                AggState::Count(n) => cells.push(Value::Long(*n)),
                AggState::Sum(v) => cells.push(v.clone().unwrap_or(Value::Null)),
                AggState::Avg(sum, count) => {
                    cells.push(Value::Double(*sum));
                    cells.push(Value::Long(*count));
                }
                AggState::Min(v) | AggState::Max(v) => cells.push(v.clone().unwrap_or(Value::Null)),
                AggState::CountDistinct(_) => {
                    unreachable!("distinct aggregates never produce partial rows")
                }
            }
        }
    }

    /// Final results, one value per aggregate.
    pub fn finish(&self, states: Vec<AggState>) -> Vec<Value> {
        states.into_iter().map(finish_one).collect()
    }

    /// Append the final results to `row`, leaving `states` empty (its
    /// buffer kept for the next [`Self::push_states`]).
    pub(crate) fn finish_into(&self, states: &mut Vec<AggState>, row: &mut Row) {
        row.extend(states.drain(..).map(finish_one));
    }
}

/// One aggregate's final result.
fn finish_one(state: AggState) -> Value {
    match state {
        AggState::Count(n) => Value::Long(n),
        AggState::Sum(v) => v.unwrap_or(Value::Null),
        AggState::Avg(sum, count) => {
            if count == 0 {
                Value::Null
            } else {
                Value::Double(sum / count as f64)
            }
        }
        AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        AggState::CountDistinct(set) => Value::Long(set.len() as i64),
    }
}

fn update_one(state: &mut AggState, v: &Value) {
    match state {
        AggState::Count(n) => {
            if !v.is_null() {
                *n += 1;
            }
        }
        AggState::Sum(cur) => {
            if !v.is_null() {
                merge_sum(cur, v);
            }
        }
        AggState::Avg(sum, count) => {
            if let Some(x) = v.as_f64() {
                *sum += x;
                *count += 1;
            }
        }
        AggState::Min(cur) => {
            if !v.is_null() {
                merge_min(cur, v);
            }
        }
        AggState::Max(cur) => {
            if !v.is_null() {
                merge_max(cur, v);
            }
        }
        AggState::CountDistinct(set) => {
            if !v.is_null() {
                set.insert(v.clone());
            }
        }
    }
}

fn merge_sum(cur: &mut Option<Value>, v: &Value) {
    if v.is_null() {
        return;
    }
    *cur = Some(match (cur.take(), v) {
        (None, x) => x.clone(),
        (Some(Value::Long(a)), Value::Long(b)) => Value::Long(a.wrapping_add(*b)),
        (Some(a), b) => Value::Double(a.as_f64().unwrap_or(0.0) + b.as_f64().unwrap_or(0.0)),
    });
}

fn merge_min(cur: &mut Option<Value>, v: &Value) {
    match cur {
        Some(c) if c.total_cmp(v) != std::cmp::Ordering::Greater => {}
        _ => *cur = Some(v.clone()),
    }
}

fn merge_max(cur: &mut Option<Value>, v: &Value) {
    match cur {
        Some(c) if c.total_cmp(v) != std::cmp::Ordering::Less => {}
        _ => *cur = Some(v.clone()),
    }
}

// ---------------------------------------------------------------------------
// Join group processing
// ---------------------------------------------------------------------------

/// Residual and projection over one candidate pair `l ++ r`. When every
/// output is a plain column — the planner's pruned identity, which is
/// every join but a query's last — the cells are picked from the two
/// sides and the concatenated row is built only for a residual to see.
struct PairOutput<'a> {
    residual: Option<&'a RExpr>,
    project: &'a [RExpr],
    columns_only: bool,
}

impl PairOutput<'_> {
    /// The output row of `l ++ r`, if the pair passes the residual.
    fn matched(&self, l: &Row, r: &Row) -> Result<Option<Row>> {
        let Some(residual) = self.residual else {
            return self.row(l, r).map(Some);
        };
        let joined = l.concat(r);
        if !residual.eval_predicate(&joined)? {
            return Ok(None);
        }
        project_row(self.project, &joined).map(Some)
    }

    /// The output row of `l ++ r`, no residual consulted.
    fn row(&self, l: &Row, r: &Row) -> Result<Row> {
        if !self.columns_only {
            return project_row(self.project, &l.concat(r));
        }
        let (left, right) = (l.values(), r.values());
        let cell = |e: &RExpr| -> Result<Value> {
            let RExpr::Column(i) = e else {
                return e.eval(&l.concat(r));
            };
            let cell = left
                .get(*i)
                .or_else(|| right.get(i.wrapping_sub(left.len())));
            cell.cloned().ok_or_else(|| {
                HdmError::Eval(format!(
                    "column index {i} out of range (row has {})",
                    left.len() + right.len()
                ))
            })
        };
        self.project.iter().map(cell).collect()
    }
}

/// Process one join key group: `lefts`/`rights` are the value rows of
/// each side; matched concatenations flow through `residual` then
/// `project` into `out`.
///
/// # Errors
/// Propagates expression-evaluation failures.
pub fn process_join_group(
    kind: crate::ast::JoinKind,
    right_width: usize,
    residual: Option<&RExpr>,
    project: &[RExpr],
    lefts: &[Row],
    rights: &[Row],
    out: &mut Vec<Row>,
) -> Result<()> {
    use crate::ast::JoinKind::*;
    let pair = PairOutput {
        residual,
        project,
        columns_only: project.iter().all(|e| matches!(e, RExpr::Column(_))),
    };
    // The right side of an unmatched (outer) or padded (semi/anti) row.
    let nulls = || Row::from(vec![Value::Null; right_width]);
    match kind {
        Inner => {
            for l in lefts {
                for r in rights {
                    out.extend(pair.matched(l, r)?);
                }
            }
        }
        LeftOuter => {
            let mut padding = None;
            for l in lefts {
                let before = out.len();
                for r in rights {
                    out.extend(pair.matched(l, r)?);
                }
                if out.len() == before {
                    out.push(pair.row(l, padding.get_or_insert_with(nulls))?);
                }
            }
        }
        LeftSemi | LeftAnti => {
            let want_match = kind == LeftSemi;
            let mut padding = None;
            for l in lefts {
                let matched = match residual {
                    // Any right row is a match: nothing to concatenate.
                    None => !rights.is_empty(),
                    Some(residual) => {
                        let mut matched = false;
                        for r in rights {
                            if residual.eval_predicate(&l.concat(r))? {
                                matched = true;
                                break;
                            }
                        }
                        matched
                    }
                };
                if matched == want_match {
                    // Projection sees the concat layout but only reads
                    // left columns; pad with nulls for safety.
                    out.push(pair.row(l, padding.get_or_insert_with(nulls))?);
                }
            }
        }
    }
    Ok(())
}

/// Apply a projection list to a row.
///
/// # Errors
/// Propagates expression-evaluation failures.
pub fn project_row(project: &[RExpr], row: &Row) -> Result<Row> {
    let mut out = Row::new();
    for e in project {
        out.push(e.eval(row)?);
    }
    Ok(out)
}

/// [`project_row`] over a row the caller gives up: an output that is a
/// bare column read by no other output takes that cell by move, not by
/// copy. The plan is fixed once per projection list.
#[derive(Debug, Clone)]
pub(crate) struct MoveProjection {
    /// Per output: the column it moves, if any.
    moves: Vec<Option<usize>>,
    /// Output `i` is column `i` for every `i`: a row of that width is
    /// its own output.
    identity: bool,
}

impl MoveProjection {
    /// Plan `project`: which outputs can move their column.
    pub(crate) fn new(project: &[RExpr]) -> MoveProjection {
        let mut reads = Vec::new();
        for e in project {
            e.input_columns(&mut reads);
        }
        let read_once = |i: usize| reads.iter().filter(|&&c| c == i).count() == 1;
        let moves = project.iter().map(|e| match e {
            RExpr::Column(i) if read_once(*i) => Some(*i),
            _ => None,
        });
        let moves: Vec<Option<usize>> = moves.collect();
        let identity = (moves.iter().enumerate()).all(|(i, mv)| *mv == Some(i));
        MoveProjection { moves, identity }
    }

    /// `project_row(project, &row)`, consuming `row`; `project` is the
    /// list the plan was made from. Fails exactly as `project_row` does.
    ///
    /// # Errors
    /// Propagates expression-evaluation failures.
    pub(crate) fn apply(&self, project: &[RExpr], row: Row) -> Result<Row> {
        if self.identity && row.len() == self.moves.len() && project.len() == row.len() {
            return Ok(row);
        }
        let out_of_range = self.moves.iter().flatten().any(|&i| i >= row.len());
        if out_of_range || self.moves.len() != project.len() {
            return project_row(project, &row);
        }
        // Computed outputs first, while every cell is still in place;
        // moved columns cannot fail.
        let mut out = Vec::with_capacity(project.len());
        for (e, mv) in project.iter().zip(&self.moves) {
            out.push(match mv {
                Some(_) => Value::Null,
                None => e.eval(&row)?,
            });
        }
        let mut cells = row.into_values();
        for (slot, mv) in out.iter_mut().zip(&self.moves) {
            if let Some(cell) = mv.and_then(|i| cells.get_mut(i)) {
                *slot = std::mem::replace(cell, Value::Null);
            }
        }
        Ok(Row::from(out))
    }
}

// ---------------------------------------------------------------------------
// Shuffle-row helpers
// ---------------------------------------------------------------------------

/// Write a join stage's shuffle value: the `n` cells behind the tag of
/// the input they came from, in the layout [`Row::encode`] gives the row
/// `[Long(tag), cells…]` — `[varint n+1][Long tag][cells…]` — without
/// building that row.
pub fn encode_tagged<'a>(
    buf: &mut Vec<u8>,
    tag: u8,
    cells: impl ExactSizeIterator<Item = &'a Value>,
) {
    codec::write_varint(buf, cells.len() as u64 + 1);
    encode_value(buf, &Value::Long(i64::from(tag)));
    for cell in cells {
        encode_value(buf, cell);
    }
}

/// Read a tagged value's head: its tag, and how many cells follow.
fn read_tag(buf: &mut &[u8]) -> Result<(u8, usize)> {
    let n = codec::read_varint(buf)? as usize;
    if n == 0 {
        return Err(HdmError::Codec("tagged row is empty".into()));
    }
    match decode_value(buf)? {
        Value::Long(tag) => u8::try_from(tag)
            .map(|tag| (tag, n - 1))
            .map_err(|_| HdmError::Codec(format!("join tag {tag} is not a u8"))),
        other => Err(HdmError::Codec(format!(
            "tagged row starts with {other:?}, not its tag"
        ))),
    }
}

/// The tag of a value written by [`encode_tagged`], its cells left
/// undecoded.
///
/// # Errors
/// [`HdmError::Codec`] if the value does not start with a tag.
pub fn peek_tag(mut value: &[u8]) -> Result<u8> {
    read_tag(&mut value).map(|(tag, _)| tag)
}

/// Decode a value written by [`encode_tagged`] into `(tag, row)`.
///
/// # Errors
/// [`HdmError::Codec`] on malformed input.
pub fn decode_tagged(value: &[u8]) -> Result<(u8, Row)> {
    let mut row = Row::new();
    let tag = decode_tagged_into(value, &mut row)?;
    Ok((tag, row))
}

/// Decode a value written by [`encode_tagged`] into `row`, reusing its
/// cells ([`Row::decode_into`]); returns the tag. Succeeds and fails
/// exactly as [`decode_tagged`] does.
///
/// # Errors
/// [`HdmError::Codec`] on malformed input.
pub fn decode_tagged_into(mut value: &[u8], row: &mut Row) -> Result<u8> {
    let (tag, n) = read_tag(&mut value)?;
    row.decode_cells_into(n, &mut value)?;
    Ok(tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, JoinKind};

    fn spec(func: AggFunc) -> AggSpec {
        AggSpec {
            func,
            distinct: false,
        }
    }

    #[test]
    fn aggregate_raw_and_finish() {
        let agg = Aggregator::new(vec![
            spec(AggFunc::Count),
            spec(AggFunc::Sum),
            spec(AggFunc::Avg),
            spec(AggFunc::Min),
            spec(AggFunc::Max),
        ]);
        let mut states = agg.new_states();
        for v in [1i64, 5, 3] {
            let row = Row::from(vec![
                Value::Long(1),
                Value::Long(v),
                Value::Long(v),
                Value::Long(v),
                Value::Long(v),
            ]);
            agg.update_raw(&mut states, &row);
        }
        let out = agg.finish(states);
        assert_eq!(out[0], Value::Long(3));
        assert_eq!(out[1], Value::Long(9));
        assert_eq!(out[2], Value::Double(3.0));
        assert_eq!(out[3], Value::Long(1));
        assert_eq!(out[4], Value::Long(5));
    }

    #[test]
    fn partial_state_round_trip_merges() {
        let agg = Aggregator::new(vec![
            spec(AggFunc::Count),
            spec(AggFunc::Avg),
            spec(AggFunc::Sum),
        ]);
        // Two "map tasks" build partial states; a reducer merges rows.
        let mut final_states = agg.new_states();
        for chunk in [vec![1i64, 2], vec![3, 4, 5]] {
            let mut partial = agg.new_states();
            for v in chunk {
                agg.update_raw(
                    &mut partial,
                    &Row::from(vec![Value::Long(1), Value::Long(v), Value::Long(v)]),
                );
            }
            let state_row = agg.states_to_row(&partial);
            agg.merge_state_row(&mut final_states, &state_row).unwrap();
        }
        let out = agg.finish(final_states);
        assert_eq!(out[0], Value::Long(5));
        assert_eq!(out[1], Value::Double(3.0));
        assert_eq!(out[2], Value::Long(15));
    }

    #[test]
    fn count_distinct() {
        let agg = Aggregator::new(vec![AggSpec {
            func: AggFunc::Count,
            distinct: true,
        }]);
        assert!(agg.has_distinct());
        let mut states = agg.new_states();
        for v in ["a", "b", "a", "c", "b"] {
            agg.update_raw(&mut states, &Row::from(vec![Value::Str(v.into())]));
        }
        assert_eq!(agg.finish(states), vec![Value::Long(3)]);
    }

    #[test]
    fn nulls_ignored_by_aggregates() {
        let agg = Aggregator::new(vec![
            spec(AggFunc::Count),
            spec(AggFunc::Sum),
            spec(AggFunc::Min),
        ]);
        let mut states = agg.new_states();
        agg.update_raw(
            &mut states,
            &Row::from(vec![Value::Null, Value::Null, Value::Null]),
        );
        agg.update_raw(
            &mut states,
            &Row::from(vec![Value::Long(1), Value::Long(7), Value::Long(7)]),
        );
        let out = agg.finish(states);
        assert_eq!(out, vec![Value::Long(1), Value::Long(7), Value::Long(7)]);
    }

    #[test]
    fn sum_promotes_to_double() {
        let agg = Aggregator::new(vec![spec(AggFunc::Sum)]);
        let mut states = agg.new_states();
        agg.update_raw(&mut states, &Row::from(vec![Value::Long(1)]));
        agg.update_raw(&mut states, &Row::from(vec![Value::Double(0.5)]));
        assert_eq!(agg.finish(states), vec![Value::Double(1.5)]);
    }

    fn identity(n: usize) -> Vec<RExpr> {
        (0..n).map(RExpr::Column).collect()
    }

    #[test]
    fn inner_join_cross_product() {
        let lefts = vec![
            Row::from(vec![Value::Long(1)]),
            Row::from(vec![Value::Long(2)]),
        ];
        let rights = vec![
            Row::from(vec![Value::Str("x".into())]),
            Row::from(vec![Value::Str("y".into())]),
        ];
        let mut out = Vec::new();
        process_join_group(
            JoinKind::Inner,
            1,
            None,
            &identity(2),
            &lefts,
            &rights,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn left_outer_pads_nulls() {
        let lefts = vec![Row::from(vec![Value::Long(1)])];
        let mut out = Vec::new();
        process_join_group(
            JoinKind::LeftOuter,
            2,
            None,
            &identity(3),
            &lefts,
            &[],
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].get(1).is_null() && out[0].get(2).is_null());
    }

    #[test]
    fn semi_join_emits_left_once() {
        let lefts = vec![Row::from(vec![Value::Long(1)])];
        let rights = vec![
            Row::from(vec![Value::Long(9)]),
            Row::from(vec![Value::Long(8)]),
        ];
        let mut out = Vec::new();
        process_join_group(
            JoinKind::LeftSemi,
            1,
            None,
            &identity(1),
            &lefts,
            &rights,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1); // not once per match
    }

    #[test]
    fn anti_join_emits_unmatched_left() {
        let lefts = vec![Row::from(vec![Value::Long(1)])];
        let rights = vec![Row::from(vec![Value::Long(9)])];
        let mut with_match = Vec::new();
        process_join_group(
            JoinKind::LeftAnti,
            1,
            None,
            &identity(1),
            &lefts,
            &rights,
            &mut with_match,
        )
        .unwrap();
        assert!(with_match.is_empty());
        let mut without = Vec::new();
        process_join_group(
            JoinKind::LeftAnti,
            1,
            None,
            &identity(1),
            &lefts,
            &[],
            &mut without,
        )
        .unwrap();
        assert_eq!(without.len(), 1);
    }

    #[test]
    fn residual_filters_matches() {
        // residual: left(col0) < right(col1)
        let residual = RExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(RExpr::Column(0)),
            right: Box::new(RExpr::Column(1)),
        };
        let lefts = vec![Row::from(vec![Value::Long(5)])];
        let rights = vec![
            Row::from(vec![Value::Long(3)]),
            Row::from(vec![Value::Long(10)]),
        ];
        let mut out = Vec::new();
        process_join_group(
            JoinKind::Inner,
            1,
            Some(&residual),
            &identity(2),
            &lefts,
            &rights,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(1), &Value::Long(10));
    }

    /// What the join stages put on the wire before the Row-free codec:
    /// the row `[Long(tag), cells…]`, encoded.
    fn tagged_row_bytes(tag: u8, row: &Row) -> Vec<u8> {
        let mut tagged = Row::from(vec![Value::Long(tag as i64)]);
        tagged.extend(row.values().iter().cloned());
        let mut buf = Vec::new();
        tagged.encode(&mut buf);
        buf
    }

    #[test]
    fn tagged_values_round_trip_and_match_the_row_layout() {
        let rows = [
            Row::new(),
            Row::from(vec![Value::Str("v".into()), Value::Long(3)]),
            Row::from(vec![
                Value::Null,
                Value::Double(f64::NAN),
                Value::Boolean(true),
                Value::date_from_ymd(1995, 3, 15),
                Value::Str("x".repeat(300)),
            ]),
        ];
        for row in &rows {
            for tag in [0u8, 1] {
                let mut buf = Vec::new();
                encode_tagged(&mut buf, tag, row.values().iter());
                // Golden: byte-identical to encoding the tagged row.
                assert_eq!(buf, tagged_row_bytes(tag, row));
                assert_eq!(peek_tag(&buf).unwrap(), tag);
                let (back_tag, back) = decode_tagged(&buf).unwrap();
                assert_eq!(back_tag, tag);
                assert_eq!(back.len(), row.len());
                for (a, b) in back.values().iter().zip(row.values()) {
                    assert_eq!(a.total_cmp(b), std::cmp::Ordering::Equal);
                }
            }
        }
    }

    #[test]
    fn malformed_tagged_values_are_codec_errors() {
        let codec = |r: Result<(u8, Row)>| match r {
            Err(e) => assert_eq!(e.subsystem(), "codec", "{e}"),
            Ok(v) => panic!("decoded {v:?}"),
        };
        // No cells at all, not even the tag.
        codec(decode_tagged(&[0]));
        assert!(peek_tag(&[0]).is_err());
        // A first cell that is not a Long.
        let mut buf = Vec::new();
        Row::from(vec![Value::Str("t".into())]).encode(&mut buf);
        codec(decode_tagged(&buf));
        assert!(peek_tag(&buf).is_err());
        // A good head with a truncated body: peeking succeeds, decoding
        // does not.
        let mut buf = Vec::new();
        encode_tagged(&mut buf, 1, [Value::Str("payload".into())].iter());
        buf.truncate(buf.len() - 3);
        assert_eq!(peek_tag(&buf).unwrap(), 1);
        codec(decode_tagged(&buf));
        // A cell count far beyond the bytes present.
        codec(decode_tagged(&[0xff, 0xff, 0xff, 0x7f, 3, 0]));
    }

    #[test]
    fn join_tags_outside_u8_are_codec_errors() {
        for tag in [256, -1, i64::MAX] {
            let mut buf = Vec::new();
            Row::from(vec![Value::Long(tag), Value::Long(7)]).encode(&mut buf);
            let err = peek_tag(&buf).expect_err("a tag past u8");
            assert_eq!(err.subsystem(), "codec", "{err}");
            assert!(decode_tagged(&buf).is_err());
        }
        let mut buf = Vec::new();
        Row::from(vec![Value::Long(255), Value::Long(7)]).encode(&mut buf);
        assert_eq!(peek_tag(&buf).unwrap(), 255);
    }

    #[test]
    fn picked_cells_equal_projection_of_the_concatenated_row() {
        let l = Row::from(vec![Value::Long(1), Value::Str("l".into())]);
        let r = Row::from(vec![Value::Double(2.5), Value::Null]);
        let joined = l.concat(&r);
        let reorder: Vec<RExpr> = [3, 0, 2, 1, 0].map(RExpr::Column).to_vec();
        let computed = vec![
            RExpr::Column(2),
            RExpr::Binary {
                op: BinOp::Add,
                left: Box::new(RExpr::Column(0)),
                right: Box::new(RExpr::Column(2)),
            },
        ];
        for project in [&reorder, &computed] {
            for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
                let mut out = Vec::new();
                let (lefts, rights) = (std::slice::from_ref(&l), std::slice::from_ref(&r));
                process_join_group(kind, 2, None, project, lefts, rights, &mut out).unwrap();
                assert_eq!(out, vec![project_row(project, &joined).unwrap()]);
            }
        }
        // Out of range is the same typed error on either route.
        let beyond = [RExpr::Column(4)];
        let mut out = Vec::new();
        let lefts = std::slice::from_ref(&l);
        let err = process_join_group(JoinKind::Inner, 2, None, &beyond, lefts, &[r], &mut out)
            .unwrap_err();
        let want = project_row(&beyond, &joined).unwrap_err();
        assert_eq!(err.to_string(), want.to_string());
    }

    /// The pre-hoisting group loop, kept as the oracle for
    /// [`process_join_group`]'s allocation-free paths.
    fn join_group_oracle(
        kind: JoinKind,
        right_width: usize,
        residual: Option<&RExpr>,
        lefts: &[Row],
        rights: &[Row],
    ) -> Vec<Row> {
        let mut out = Vec::new();
        let nulls = Row::from(vec![Value::Null; right_width]);
        for l in lefts {
            let mut matches = Vec::new();
            for r in rights {
                let joined = l.concat(r);
                if residual.is_none_or(|e| e.eval_predicate(&joined).unwrap()) {
                    matches.push(joined);
                }
            }
            match kind {
                JoinKind::Inner => out.extend(matches),
                JoinKind::LeftOuter if matches.is_empty() => out.push(l.concat(&nulls)),
                JoinKind::LeftOuter => out.extend(matches),
                JoinKind::LeftSemi if !matches.is_empty() => out.push(l.concat(&nulls)),
                JoinKind::LeftAnti if matches.is_empty() => out.push(l.concat(&nulls)),
                JoinKind::LeftSemi | JoinKind::LeftAnti => {}
            }
        }
        out
    }

    #[test]
    fn every_kind_matches_the_oracle_with_and_without_a_residual() {
        let residual = RExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(RExpr::Column(0)),
            right: Box::new(RExpr::Column(1)),
        };
        let long = |v: i64| Row::from(vec![Value::Long(v)]);
        let lefts = vec![long(5), long(1), long(20)];
        let right_sets = [vec![], vec![long(3)], vec![long(3), long(10), long(10)]];
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
        ] {
            for residual in [None, Some(&residual)] {
                for rights in &right_sets {
                    let mut got = Vec::new();
                    process_join_group(kind, 1, residual, &identity(2), &lefts, rights, &mut got)
                        .unwrap();
                    let want = join_group_oracle(kind, 1, residual, &lefts, rights);
                    assert_eq!(got, want, "{kind:?} residual={}", residual.is_some());
                }
            }
        }
    }
}
