//! The engine-agnostic map pipeline: read a task's input, filter and
//! project it, and route every projected row exactly once.

use super::plan::TaskInput;
use super::{EngineKind, StagePipeline};
use crate::batch::{filter_batch, gather_projected, project_batch, GroupTable, RowBatch};
use crate::operators::{project_row, tag_row};
use crate::physical::{MapInput, StageKind};
use hdm_cluster::MapVolume;
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::KvPair;
use hdm_common::row::Row;
use hdm_common::stats::Histogram;
use hdm_dfs::NodeId;
use hdm_storage::ColumnarSource;

/// The shuffle collector a task emits into: Hadoop's
/// `OutputCollector::collect` or DataMPI's `MPI_D_send`.
pub(super) type Emit<'a> = &'a mut dyn FnMut(KvPair) -> Result<()>;

/// One attempt of one map/O task: where its projected rows go, and what
/// it measured on the way.
struct MapAttempt<'a> {
    p: &'a StagePipeline,
    input: &'a MapInput,
    emit: Emit<'a>,
    groups: GroupTable,
    /// Map-only output. Owned by the attempt, so a failed attempt's rows
    /// die with it and a replay cannot duplicate them.
    out_rows: Vec<Row>,
    kv_sizes: Histogram,
    vol: MapVolume,
    vec_batches: u64,
}

impl MapAttempt<'_> {
    fn emit(&mut self, key: &Row, value: &Row) -> Result<()> {
        let kv = self.p.key_codec.pair(key, value);
        self.kv_sizes.record(kv.wire_size() as u64);
        (self.emit)(kv)
    }

    /// The one place a projected row's destination is decided.
    fn route(&mut self, key: Row, value: Row) -> Result<()> {
        match (&self.p.stage.kind, &self.p.partial) {
            (StageKind::MapOnly, _) => self.out_rows.push(value),
            (StageKind::Join { .. }, _) => self.emit(&key, &tag_row(self.input.tag, &value))?,
            (StageKind::Aggregate { .. }, Some(agg)) => self.groups.update_row(agg, key, &value),
            (StageKind::Aggregate { .. } | StageKind::Sort { .. }, _) => self.emit(&key, &value)?,
        }
        Ok(())
    }

    /// The row-at-a-time pipeline: Text and sequence-file scans, stream
    /// partitions and memory chunks.
    fn run_rows(&mut self, rows: &[Row]) -> Result<()> {
        for row in rows {
            // One relaxed load per row: the cooperative cancellation
            // safe point inside the map pipeline.
            self.p.cancel.bail_if_cancelled()?;
            if let Some(f) = &self.input.filter {
                if !f.eval_predicate(row)? {
                    continue;
                }
            }
            self.vol.records += 1;
            let value = project_row(&self.input.value_exprs, row)?;
            let key = project_row(&self.input.key_exprs, row)?;
            self.route(key, value)?;
        }
        Ok(())
    }

    /// The vectorized batch pipeline: same rows in the same order as
    /// [`Self::run_rows`] over the transposed stripes; the
    /// kernel-equivalence contract lives in [`crate::batch`].
    fn run_batches(&mut self, src: &ColumnarSource) -> Result<()> {
        for stripe in &src.stripes {
            let mut start = 0usize;
            while start < stripe.rows {
                // One cancellation safe point per batch (the row path
                // checks per row).
                self.p.cancel.bail_if_cancelled()?;
                let end = (start + self.p.batch_size).min(stripe.rows);
                let rb = RowBatch::new(
                    stripe
                        .columns
                        .iter()
                        .map(|c| c.get(start..end).unwrap_or(&[]))
                        .collect(),
                    end - start,
                )?;
                self.vec_batches += 1;
                let sel = filter_batch(self.input.filter.as_ref(), &rb)?;
                start = end;
                if sel.is_empty() {
                    continue;
                }
                self.vol.records += sel.len() as u64;
                let value_cols = project_batch(&self.input.value_exprs, &rb, &sel)?;
                let key_cols = project_batch(&self.input.key_exprs, &rb, &sel)?;
                if let Some(agg) = &self.p.partial {
                    // The one batch kernel past projection: grouped
                    // partial aggregation straight off the columns.
                    self.groups
                        .update_batch(agg, &key_cols, &value_cols, sel.len());
                    continue;
                }
                for i in 0..sel.len() {
                    let value = gather_projected(&value_cols, i);
                    self.route(gather_projected(&key_cols, i), value)?;
                }
            }
        }
        Ok(())
    }
}

impl StagePipeline {
    /// Run map/O task `task_idx`, emitting its shuffle pairs into `emit`.
    ///
    /// # Errors
    /// Read/decode/eval failures, a failed `emit`, or cancellation.
    pub(super) fn run_map(&self, task_idx: usize, emit: Emit<'_>) -> Result<()> {
        // Engine-matched track names so the pipeline span nests inside
        // the engine's own task span (Hadoop map task vs DataMPI O task).
        let track = match self.engine {
            EngineKind::Hadoop => "M",
            EngineKind::DataMpi => "O",
        };
        let track = format!("{track}{task_idx}");
        let _op_span = self.obs.span(&track, "operator", "map-pipeline");
        let task = self
            .tasks
            .get(task_idx)
            .ok_or_else(|| HdmError::Plan(format!("map task {task_idx} has no input spec")))?;
        let (input, (fmt, schema)) = self
            .stage
            .inputs
            .iter()
            .zip(&self.formats)
            .nth(task.input_idx)
            .ok_or_else(|| {
                HdmError::Plan(format!(
                    "map task {task_idx}: input {} missing",
                    task.input_idx
                ))
            })?;
        let mut at = MapAttempt {
            p: self,
            input,
            emit,
            groups: GroupTable::new(),
            out_rows: Vec::new(),
            kv_sizes: Histogram::with_width(hdm_obs::KV_HIST_BUCKET),
            vol: MapVolume {
                local_fraction: 1.0,
                ..Default::default()
            },
            vec_batches: 0,
        };
        // Rows the reader itself dropped on the pushed-down predicates
        // (Text); the filter operator never sees them.
        let mut rows_skipped = 0u64;
        match &task.input {
            TaskInput::Empty => {}
            // Block until the producer commits this partition, then
            // consume it from memory (no DFS read — input_bytes stays 0,
            // same as DAG-mode memory chunks). A replayed task (fault
            // recovery) re-takes the retained rows, byte-identically.
            TaskInput::Stream {
                stage, partition, ..
            } => {
                let stream = self.in_streams.get(stage).ok_or_else(|| {
                    HdmError::Plan(format!("map task {task_idx}: stage {stage} stream missing"))
                })?;
                at.run_rows(&stream.take(*partition)?)?;
            }
            TaskInput::Mem { stage, rows, .. } => {
                let rows = self.dag_rows.get(stage).and_then(|r| r.get(rows.clone()));
                at.run_rows(rows.unwrap_or_default())?;
            }
            TaskInput::Split(split) => {
                let node = Some(split.hosts.first().copied().unwrap_or(NodeId(0)));
                let projection = input.read_projection.as_deref();
                let preds = input.pushed_down(self.pushdown);
                // Vectorized scan: when the format can hand back columns
                // (ORC) and the stage is eligible, rows stay columnar and
                // the batch kernels replace the row loop.
                let columnar = if self.vectorized {
                    fmt.read_split_columns(&self.dfs, split, schema, projection, preds, node)?
                } else {
                    None
                };
                match columnar {
                    Some(src) => {
                        at.vol.input_bytes = src.bytes_read;
                        at.run_batches(&src)?;
                    }
                    None => {
                        let src =
                            fmt.read_split(&self.dfs, split, schema, projection, preds, node)?;
                        at.vol.input_bytes = src.bytes_read;
                        rows_skipped = src.rows_skipped;
                        at.run_rows(&src.rows)?;
                    }
                }
            }
        }
        if let Some(agg) = &self.partial {
            for (key, states) in std::mem::take(&mut at.groups).into_groups() {
                at.emit(&key, &agg.states_to_row(&states))?;
            }
        }
        if matches!(self.stage.kind, StageKind::MapOnly) {
            // A map-only attempt only gets here after a clean run, so
            // attempt 0 is always the right tag: a replayed commit
            // reproduces the same rows.
            let rows = std::mem::take(&mut at.out_rows);
            self.sink.commit(task_idx, 0, rows)?;
        }
        if self.obs.is_enabled() {
            let counter = |name| self.obs.counter(name, &self.stage_label);
            counter("stage.map.records").add(at.vol.records);
            counter("stage.map.input.bytes").add(at.vol.input_bytes);
            counter("vec.batches").add(at.vec_batches);
            counter("text.rows.skipped").add(rows_skipped);
        }
        if let Some(slot) = self.map_vols.lock().get_mut(task_idx) {
            *slot = at.vol;
        }
        self.kv_sizes.lock().merge(&at.kv_sizes)
    }
}
