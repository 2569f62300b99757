//! The engine-agnostic reduce pipeline: turn a reduce/A task's merged
//! groups into output rows and commit them as one partition.

use super::{EngineKind, StagePipeline};
use crate::ast::JoinKind;
use crate::operators::{decode_tagged, peek_tag, process_join_group, project_row, Aggregator};
use crate::physical::StageKind;
use bytes::Bytes;
use hdm_common::error::Result;
use hdm_common::row::Row;

/// Uniform view over both engines' group iterators.
pub(super) trait GroupSource {
    /// Next `(key, values)` group in comparator order.
    fn next_group(&mut self) -> Option<(Bytes, Vec<Bytes>)>;

    /// Which recovery attempt of this reduce/A task is running (0 for
    /// the first).
    fn attempt(&self) -> u32;

    /// The messages the task took off the DataMPI wire, by kind.
    fn wire(&self) -> Option<hdm_datampi::WireCounts> {
        None
    }
}

impl GroupSource for hdm_mapred::ReduceContext {
    fn next_group(&mut self) -> Option<(Bytes, Vec<Bytes>)> {
        hdm_mapred::ReduceContext::next_group(self)
    }

    fn attempt(&self) -> u32 {
        hdm_mapred::ReduceContext::attempt(self)
    }
}

impl GroupSource for hdm_datampi::AContext {
    fn next_group(&mut self) -> Option<(Bytes, Vec<Bytes>)> {
        hdm_datampi::AContext::next_group(self)
    }

    fn attempt(&self) -> u32 {
        hdm_datampi::AContext::attempt(self)
    }

    fn wire(&self) -> Option<hdm_datampi::WireCounts> {
        Some(hdm_datampi::AContext::wire(self))
    }
}

impl StagePipeline {
    /// Run reduce/A task `rank` over its groups.
    ///
    /// # Errors
    /// Decode/eval failures, a failed commit, or cancellation.
    pub(super) fn run_reduce(&self, rank: usize, groups: &mut dyn GroupSource) -> Result<()> {
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
                let (mut lefts, mut rights) = (Vec::new(), Vec::new());
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
                        let (tag, row) = decode_tagged(v)?;
                        if tag == 0 {
                            lefts.push(row);
                        } else {
                            rights.push(row);
                        }
                    }
                    process_join_group(
                        *kind,
                        *right_width,
                        residual.as_ref(),
                        project,
                        &lefts,
                        &rights,
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
                // Values are raw inputs unless the map side pre-aggregated.
                let raw_mode = self.partial.is_none();
                while let Some((key, values)) = groups.next_group() {
                    self.cancel.bail_if_cancelled()?;
                    let key_row = self.key_codec.decode_key(&key)?;
                    let mut states = agg.new_states();
                    for v in values {
                        let row = Row::decode(&mut v.clone())?;
                        if raw_mode {
                            agg.update_raw(&mut states, &row);
                        } else {
                            agg.merge_state_row(&mut states, &row)?;
                        }
                    }
                    let mut full = key_row;
                    full.extend(agg.finish(states));
                    if let Some(h) = having {
                        if !h.eval_predicate(&full)? {
                            continue;
                        }
                    }
                    rows_out.push(project_row(project, &full)?);
                }
            }
            StageKind::Sort { limit, .. } => {
                'outer: while let Some((_key, values)) = groups.next_group() {
                    self.cancel.bail_if_cancelled()?;
                    for v in values {
                        rows_out.push(Row::decode(&mut v.clone())?);
                        if let Some(l) = limit {
                            if rows_out.len() as u64 >= *l {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        if self.obs.is_enabled() {
            let counter = |name| self.obs.counter(name, &self.stage_label);
            counter("stage.reduce.rows").add(rows_out.len() as u64);
            counter("join.reduce.groups.skipped").add(groups_skipped);
            counter("join.reduce.rows.undecoded").add(rows_undecoded);
        }
        self.sink.commit(rank, groups.attempt(), rows_out)?;
        // Counted once per A rank, by the attempt whose output committed.
        if self.obs.is_enabled() {
            if let Some(wire) = groups.wire() {
                let counter = |kind| self.obs.counter(kind, &self.stage_label);
                counter("mpi.messages.data").add(wire.data);
                counter("mpi.messages.commit").add(wire.commit);
                counter("mpi.messages.done").add(wire.done);
                counter("mpi.messages.abort").add(wire.abort);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Fixture;
    use super::super::{plan, read_seq_outputs, EngineKind};
    use super::*;
    use crate::operators::encode_tagged;
    use crate::physical::StageOutput;
    use hdm_common::value::Value;

    /// Groups handed over as an engine would: in key order, values in
    /// arrival order.
    struct Groups(std::vec::IntoIter<(Bytes, Vec<Bytes>)>);

    impl GroupSource for Groups {
        fn next_group(&mut self) -> Option<(Bytes, Vec<Bytes>)> {
            self.0.next()
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
        pipeline.run_reduce(0, &mut Groups(groups.into_iter()))?;
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
