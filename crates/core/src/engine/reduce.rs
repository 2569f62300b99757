//! The engine-agnostic reduce pipeline: turn a reduce/A task's merged
//! groups into output rows and commit them as one partition.

use super::{EngineKind, StagePipeline};
use crate::operators::{process_join_group, project_row, untag_row, Aggregator};
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
        match &self.stage.kind {
            StageKind::MapOnly => {}
            StageKind::Join {
                kind,
                right_width,
                residual,
                project,
                ..
            } => {
                while let Some((_key, values)) = groups.next_group() {
                    // Per-group cancellation safe point (one relaxed
                    // load), mirroring the map pipeline's per-row poll.
                    self.cancel.bail_if_cancelled()?;
                    let mut lefts = Vec::new();
                    let mut rights = Vec::new();
                    for v in values {
                        let row = Row::decode(&mut v.clone())?;
                        let (tag, row) = untag_row(row)?;
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
            self.obs
                .counter("stage.reduce.rows", &self.stage_label)
                .add(rows_out.len() as u64);
        }
        self.sink.commit(rank, groups.attempt(), rows_out)
    }
}
