//! The engine-agnostic reduce pipeline: turn one reduce partition's
//! merged groups into output rows and commit them. A reduce/A task that
//! runs several partitions runs this once per partition, in order.

use super::{EngineKind, StagePipeline};
use crate::ast::JoinKind;
use crate::operators::{
    decode_tagged_into, peek_tag, process_join_group, Aggregator, MoveProjection,
};
use crate::physical::StageKind;
use hdm_common::error::Result;
use hdm_common::kv::Values;
use hdm_common::row::Row;

/// Uniform view over both engines' group iterators.
pub(super) trait GroupSource {
    /// Next `(key, values)` group in comparator order, borrowed from the
    /// engine's received buffers.
    fn next_group(&mut self) -> Option<(&[u8], Values<'_>)>;

    /// Which recovery attempt of this reduce/A task is running (0 for
    /// the first).
    fn attempt(&self) -> u32;

    /// The messages the task took off the DataMPI wire, by kind.
    fn wire(&self) -> Option<hdm_datampi::WireCounts> {
        None
    }

    /// The partitions each reduce/A task of the job runs.
    fn ranges(&self) -> &[std::ops::Range<usize>] {
        &[]
    }
}

impl GroupSource for hdm_mapred::ReduceContext {
    fn next_group(&mut self) -> Option<(&[u8], Values<'_>)> {
        hdm_mapred::ReduceContext::next_group(self)
    }

    fn attempt(&self) -> u32 {
        hdm_mapred::ReduceContext::attempt(self)
    }

    fn ranges(&self) -> &[std::ops::Range<usize>] {
        hdm_mapred::ReduceContext::ranges(self)
    }
}

impl GroupSource for hdm_datampi::AContext {
    fn next_group(&mut self) -> Option<(&[u8], Values<'_>)> {
        hdm_datampi::AContext::next_group(self)
    }

    fn attempt(&self) -> u32 {
        hdm_datampi::AContext::attempt(self)
    }

    fn wire(&self) -> Option<hdm_datampi::WireCounts> {
        Some(hdm_datampi::AContext::wire(self))
    }

    fn ranges(&self) -> &[std::ops::Range<usize>] {
        hdm_datampi::AContext::ranges(self)
    }
}

/// Decoded rows reused from one group to the next: `rows[..used]` are
/// the current group's, and a slot keeps its cells' buffers for the
/// next value decoded into it.
#[derive(Default)]
struct RowPool {
    rows: Vec<Row>,
    used: usize,
}

/// Rows a [`RowPool`] keeps past a group: a skewed key's group is not
/// held for the rest of the partition.
const POOL_ROWS_KEPT: usize = 64;

impl RowPool {
    fn clear(&mut self) {
        self.used = 0;
        if self.rows.len() > POOL_ROWS_KEPT {
            self.rows.truncate(POOL_ROWS_KEPT);
            self.rows.shrink_to(POOL_ROWS_KEPT);
        }
    }

    /// Decode a tagged value into the next slot.
    fn push_tagged(&mut self, value: &[u8]) -> Result<()> {
        if self.used == self.rows.len() {
            self.rows.push(Row::new());
        }
        if let Some(row) = self.rows.get_mut(self.used) {
            decode_tagged_into(value, row)?;
        }
        self.used += 1;
        Ok(())
    }

    fn rows(&self) -> &[Row] {
        self.rows.get(..self.used).unwrap_or_default()
    }
}

impl StagePipeline {
    /// Run reduce partition `rank` over its groups.
    ///
    /// # Errors
    /// Decode/eval failures, a failed commit, or cancellation.
    pub(super) fn run_reduce(&self, rank: usize, groups: &mut dyn GroupSource) -> Result<()> {
        // The engine has fixed its tasks by now: a pipelined consumer
        // runs one task per range (only the first declaration counts).
        self.sink.declare_ranges(groups.ranges(), self.input_bytes);
        let track = match self.engine {
            EngineKind::Hadoop => "R",
            EngineKind::DataMpi => "A",
        };
        let track = format!("{track}{rank}");
        let _op_span = self.obs.span(&track, "operator", "reduce-pipeline");
        let mut rows_out: Vec<Row> = Vec::new();
        let (mut groups_skipped, mut rows_undecoded) = (0u64, 0u64);
        match &self.stage.kind {
            StageKind::MapOnly => {}
            StageKind::Join {
                kind,
                right_width,
                residual,
                project,
                ..
            } => {
                // A group with no left row produces nothing under any
                // kind, and one with no right row nothing under the
                // kinds that need a match. The tag is the head of each
                // value, so such groups are recognised, and dropped,
                // without decoding a cell.
                let needs_right = matches!(kind, JoinKind::Inner | JoinKind::LeftSemi);
                let (mut lefts, mut rights) = (RowPool::default(), RowPool::default());
                while let Some((_key, values)) = groups.next_group() {
                    // Per-group cancellation safe point (one relaxed
                    // load), mirroring the map pipeline's per-row poll.
                    self.cancel.bail_if_cancelled()?;
                    let mut n_left = 0usize;
                    for v in &values {
                        n_left += usize::from(peek_tag(v)? == 0);
                    }
                    if n_left == 0 || (needs_right && n_left == values.len()) {
                        groups_skipped += 1;
                        rows_undecoded += values.len() as u64;
                        continue;
                    }
                    lefts.clear();
                    rights.clear();
                    for v in &values {
                        let side = if peek_tag(v)? == 0 {
                            &mut lefts
                        } else {
                            &mut rights
                        };
                        side.push_tagged(v)?;
                    }
                    process_join_group(
                        *kind,
                        *right_width,
                        residual.as_ref(),
                        project,
                        lefts.rows(),
                        rights.rows(),
                        &mut rows_out,
                    )?;
                }
            }
            StageKind::Aggregate {
                aggs,
                having,
                project,
                ..
            } => {
                let agg = Aggregator::new(aggs.clone());
                let output = MoveProjection::new(project);
                // Values are raw inputs unless the map side pre-aggregated.
                let raw_mode = self.partial.is_none();
                // Every value is decoded into this one row, and every
                // group accumulates in this one state buffer.
                let (mut row, mut states) = (Row::new(), Vec::new());
                while let Some((key, values)) = groups.next_group() {
                    self.cancel.bail_if_cancelled()?;
                    let mut full = self.key_codec.decode_key(key)?;
                    agg.push_states(&mut states);
                    for mut v in values {
                        row.decode_into(&mut v)?;
                        if raw_mode {
                            agg.update_raw(&mut states, &row);
                        } else {
                            agg.merge_state_row(&mut states, &row)?;
                        }
                    }
                    agg.finish_into(&mut states, &mut full);
                    if let Some(h) = having {
                        if !h.eval_predicate(&full)? {
                            continue;
                        }
                    }
                    rows_out.push(output.apply(project, full)?);
                }
            }
            StageKind::Sort { limit, .. } => {
                let limit = limit.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
                while rows_out.len() < limit {
                    let Some((_key, values)) = groups.next_group() else {
                        break;
                    };
                    self.cancel.bail_if_cancelled()?;
                    for mut v in values.iter().take(limit - rows_out.len()) {
                        rows_out.push(Row::decode(&mut v)?);
                    }
                }
            }
        }
        let count = |name, n| self.obs.count(name, &self.stage_label, n);
        count("stage.reduce.rows", rows_out.len() as u64);
        count("join.reduce.groups.skipped", groups_skipped);
        count("join.reduce.rows.undecoded", rows_undecoded);
        self.sink.commit(rank, groups.attempt(), rows_out)?;
        // Counted once per A task (its first partition carries the
        // counts), by the attempt whose output committed.
        if let Some(wire) = groups.wire() {
            count("mpi.messages.data", wire.data);
            count("mpi.messages.commit", wire.commit);
            count("mpi.messages.done", wire.done);
            count("mpi.messages.abort", wire.abort);
        }
        Ok(())
    }
}

// The tests decode whole tagged values, as the loop above did before it
// reused its rows.
#[cfg(test)]
use crate::operators::decode_tagged;

#[cfg(test)]
mod tests {
    use super::super::tests::Fixture;
    use super::super::{plan, read_seq_outputs, EngineKind};
    use super::*;
    use crate::operators::encode_tagged;
    use crate::physical::StageOutput;
    use bytes::Bytes;
    use hdm_common::kv::{self, BytesComparator, KeyGroups, ReduceInput};
    use hdm_common::value::Value;

    /// Groups handed over as an engine would: in key order, values in
    /// arrival order.
    struct Groups(KeyGroups);

    impl Groups {
        /// `groups`, keys in memcmp order, as one received buffer.
        fn new(groups: Vec<(Bytes, Vec<Bytes>)>) -> Groups {
            let mut buf = Vec::new();
            for (key, values) in &groups {
                for v in values {
                    kv::encode(&mut buf, key, v);
                }
            }
            let mut input = ReduceInput::default();
            input
                .push(0, 0, Bytes::from(buf), &BytesComparator)
                .expect("well-formed buffer");
            Groups(input.into_groups(&BytesComparator))
        }
    }

    impl GroupSource for Groups {
        fn next_group(&mut self) -> Option<(&[u8], Values<'_>)> {
            self.0.next_group()
        }

        fn attempt(&self) -> u32 {
            0
        }
    }

    fn tagged(tag: u8, cells: &[Value]) -> Bytes {
        let mut buf = Vec::new();
        encode_tagged(&mut buf, tag, cells.iter());
        Bytes::from(buf)
    }

    /// Key groups with only lefts, only rights, both, and several of each.
    fn groups() -> Vec<(Bytes, Vec<Bytes>)> {
        let left = |k: i64, v: i64| tagged(0, &[Value::Long(k), Value::Long(v)]);
        let right = |k: i64, w: &str| tagged(1, &[Value::Long(k), Value::Str(w.into())]);
        let key = |k: i64| {
            Bytes::from(hdm_common::sortkey::encode_row(&Row::from(vec![
                Value::Long(k),
            ])))
        };
        vec![
            (key(1), vec![left(1, 10), left(1, 11)]),
            (key(2), vec![right(2, "only-right"), right(2, "again")]),
            (
                key(3),
                vec![right(3, "x"), left(3, 30), right(3, "y"), left(3, 31)],
            ),
            (key(4), vec![left(4, 40), right(4, "z")]),
            (key(5), vec![right(5, "tail")]),
        ]
    }

    /// Reduce `groups` through `run_reduce` for the join stage of `sql`.
    fn reduce(fx: &Fixture, sql: &str, groups: Vec<(Bytes, Vec<Bytes>)>) -> Result<Vec<Row>> {
        let plan = fx.plan(sql, StageOutput::Collect);
        let stage = &plan.stages[0];
        assert!(matches!(stage.kind, StageKind::Join { .. }), "{sql}");
        let ctx = fx.ctx(EngineKind::Hadoop);
        let pipeline = StagePipeline::new(stage, plan::plan_tasks(stage, &ctx)?, &ctx)?;
        pipeline.run_reduce(0, &mut Groups::new(groups))?;
        let written = pipeline.sink.finish();
        let paths: Vec<String> = written.into_values().map(|(p, _)| p).collect();
        let rows = read_seq_outputs(fx.d.dfs(), &paths);
        for path in &paths {
            fx.d.dfs().delete(path);
        }
        rows
    }

    /// The loop the lazy one replaced: decode every value of every group.
    fn decode_everything(fx: &Fixture, sql: &str, groups: &[(Bytes, Vec<Bytes>)]) -> Vec<Row> {
        let plan = fx.plan(sql, StageOutput::Collect);
        let StageKind::Join {
            kind,
            right_width,
            residual,
            project,
            ..
        } = &plan.stages[0].kind
        else {
            panic!("not a join: {sql}");
        };
        let mut out = Vec::new();
        for (_, values) in groups {
            let (mut lefts, mut rights) = (Vec::new(), Vec::new());
            for v in values {
                let (tag, row) = decode_tagged(v).expect("well-formed value");
                if tag == 0 {
                    lefts.push(row);
                } else {
                    rights.push(row);
                }
            }
            let (residual, rights) = (residual.as_ref(), &rights);
            process_join_group(
                *kind,
                *right_width,
                residual,
                project,
                &lefts,
                rights,
                &mut out,
            )
            .expect("join group");
        }
        out
    }

    /// Two empty tables: no recorded size, so the planner shuffles.
    fn fixture() -> Fixture {
        Fixture::new("CREATE TABLE l (k BIGINT, v BIGINT); CREATE TABLE r (k BIGINT, w STRING)")
    }

    #[test]
    fn the_lazy_join_loop_produces_what_decoding_everything_does() {
        let fx = fixture();
        for (join, right_cols, want_rows) in [
            ("JOIN", ", r.w", 5),
            ("LEFT OUTER JOIN", ", r.w", 7),
            ("LEFT SEMI JOIN", "", 3),
            ("LEFT ANTI JOIN", "", 2),
        ] {
            for residual in ["", " AND l.v > 10"] {
                let sql =
                    format!("SELECT l.k, l.v{right_cols} FROM l {join} r ON l.k = r.k{residual}");
                let got = reduce(&fx, &sql, groups()).expect("reduce");
                assert_eq!(got, decode_everything(&fx, &sql, &groups()), "{sql}");
                if residual.is_empty() {
                    assert_eq!(got.len(), want_rows, "{sql}");
                }
            }
        }
    }

    #[test]
    fn groups_that_cannot_match_are_never_decoded() {
        let fx = fixture();
        // A value that is a tag and then garbage: harmless in a group
        // that cannot produce output, a typed error in one that can.
        let mut broken = tagged(1, &[Value::Long(9)]).to_vec();
        broken.extend_from_slice(&[0xee, 0xee]);
        if let Some(n) = broken.first_mut() {
            *n += 1; // one more cell than there are well-formed bytes for
        }
        let broken = Bytes::from(broken);
        let only_rights = vec![(Bytes::from(vec![1u8]), vec![broken.clone()])];
        let with_left = vec![(
            Bytes::from(vec![1u8]),
            vec![tagged(0, &[Value::Long(9), Value::Long(1)]), broken],
        )];
        let sql = "SELECT l.k, r.w FROM l JOIN r ON l.k = r.k";
        assert_eq!(
            reduce(&fx, sql, only_rights).expect("skipped"),
            Vec::<Row>::new()
        );
        let err = reduce(&fx, sql, with_left).expect_err("decoded");
        assert_eq!(err.subsystem(), "codec", "{err}");
        // An anti join needs no right row, so a lefts-only group is
        // decoded; an inner join skips it.
        let lefts_only = || {
            vec![(
                Bytes::from(vec![1u8]),
                vec![tagged(0, &[Value::Long(9), Value::Long(1)])],
            )]
        };
        assert_eq!(reduce(&fx, sql, lefts_only()).expect("inner").len(), 0);
        let anti = "SELECT l.k FROM l LEFT ANTI JOIN r ON l.k = r.k";
        assert_eq!(reduce(&fx, anti, lefts_only()).expect("anti").len(), 1);
    }
}
