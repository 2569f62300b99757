//! The engine-agnostic map pipeline: read a task's input, filter it,
//! take it through the input's map-side joins, project it, and route
//! every projected row exactly once.

use super::plan::{BuildScan, TaskInput};
use super::{EngineKind, StagePipeline};
use crate::batch::{filter_batch, gather_projected, project_batch, GroupTable, RowBatch};
use crate::operators::{process_join_group, project_row};
use crate::physical::{MapInput, MapJoin, StageKind};
use hdm_cluster::MapVolume;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Row;
use hdm_common::sortkey;
use hdm_common::stats::Histogram;
use hdm_common::value::Value;
use hdm_dfs::NodeId;
use hdm_storage::ColumnarSource;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

/// The shuffle collector a task emits into, one encoded `(key, value)`
/// at a time: Hadoop's `OutputCollector::collect` or DataMPI's
/// `MPI_D_send`. The slices are the attempt's reused buffers; the engine
/// copies them once, into its own sort arena or send partition.
pub(super) type Emit<'a> = &'a mut dyn FnMut(&[u8], &[u8]) -> Result<()>;

/// The in-memory side of one map-side join step: the build table's
/// value rows, grouped by join key. Keys are the sort-key bytes the
/// shuffle would have grouped on, so NULL, NaN, ±0.0 and Long-vs-Double
/// keys match (or do not) exactly as they do in a shuffle join.
///
/// Flat on purpose — three vectors, looked up by binary search — so a
/// table of ten thousand keys is a handful of allocations that go back
/// to the allocator whole. A map from key to row vector is several
/// small allocations per key, made on whichever task thread builds
/// first: over a run that fragments one malloc arena after another and
/// `peak_rss_mb` creeps (DESIGN.md §23.6).
#[derive(Default)]
struct BuildTable {
    /// Every distinct key's bytes, back to back, in byte order.
    key_bytes: Vec<u8>,
    /// Per distinct key, in byte order: its bytes and its rows.
    groups: Vec<KeyGroup>,
    /// The value rows, each key's contiguous, in scan order within it.
    rows: Vec<Row>,
    bytes_read: u64,
}

struct KeyGroup {
    key: Range<usize>,
    rows: Range<usize>,
}

impl BuildTable {
    /// Group scanned `(key, value row)` pairs: row `i`'s key is
    /// `keys[key_ranges[i]]`.
    fn group(
        keys: &[u8],
        key_ranges: &[Range<usize>],
        mut values: Vec<Row>,
        bytes_read: u64,
    ) -> Self {
        let key_of = |i: usize| -> &[u8] {
            let range = key_ranges.get(i).cloned();
            range.and_then(|r| keys.get(r)).unwrap_or_default()
        };
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| key_of(a).cmp(key_of(b)));
        let mut table = BuildTable {
            bytes_read,
            ..Default::default()
        };
        for i in order {
            let key = key_of(i);
            if table.groups.last().map(|g| table.key_of(g)) != Some(key) {
                let (key_start, rows_start) = (table.key_bytes.len(), table.rows.len());
                table.key_bytes.extend_from_slice(key);
                table.groups.push(KeyGroup {
                    key: key_start..table.key_bytes.len(),
                    rows: rows_start..rows_start,
                });
            }
            table.rows.extend(values.get_mut(i).map(std::mem::take));
            if let Some(group) = table.groups.last_mut() {
                group.rows.end = table.rows.len();
            }
        }
        table
    }

    fn key_of(&self, group: &KeyGroup) -> &[u8] {
        self.key_bytes.get(group.key.clone()).unwrap_or_default()
    }

    /// The build rows under `key` (sort-key bytes).
    fn matches(&self, key: &[u8]) -> &[Row] {
        let Ok(at) = self.groups.binary_search_by(|g| self.key_of(g).cmp(key)) else {
            return &[];
        };
        let rows = self.groups.get(at).map(|g| g.rows.clone());
        rows.and_then(|rows| self.rows.get(rows))
            .unwrap_or_default()
    }
}

/// One step's [`BuildTable`], built once per stage by the first task
/// attempt that needs it and shared by every task after. The read runs
/// inside that attempt: a storage fault fails the attempt, the
/// supervisor retries it, and the retry (or whichever task gets here
/// first) builds again; cancellation is polled per build row.
pub(super) struct SharedBuild {
    scan: BuildScan,
    table: Mutex<Option<Arc<BuildTable>>>,
}

impl SharedBuild {
    pub(super) fn new(scan: BuildScan) -> SharedBuild {
        SharedBuild {
            scan,
            table: Mutex::new(None),
        }
    }
}

/// One attempt of one map/O task: where its projected rows go, and what
/// it measured on the way.
struct MapAttempt<'a> {
    p: &'a StagePipeline,
    input: &'a MapInput,
    emit: Emit<'a>,
    /// The hash tables of `input.map_joins`, in step order.
    tables: &'a [Arc<BuildTable>],
    /// Per step, a reused buffer for the rows one probe row joins to.
    joined: Vec<Vec<Row>>,
    key_buf: Vec<u8>,
    /// The shuffle pair being emitted, encoded: key and value buffers
    /// reused across every pair of the attempt.
    wire: (Vec<u8>, Vec<u8>),
    groups: GroupTable,
    /// Map-only output. Owned by the attempt, so a failed attempt's rows
    /// die with it and a replay cannot duplicate them.
    out_rows: Vec<Row>,
    kv_sizes: Histogram,
    vol: MapVolume,
    vec_batches: u64,
    probe_rows: u64,
}

fn cell_or_null(col: &[Value], i: usize) -> &Value {
    col.get(i).unwrap_or(&Value::Null)
}

impl MapAttempt<'_> {
    /// Send one shuffle pair, encoded straight from its cells.
    fn emit<'v>(
        &mut self,
        key: impl Iterator<Item = &'v Value>,
        value: impl ExactSizeIterator<Item = &'v Value>,
    ) -> Result<()> {
        let tag = matches!(self.p.stage.kind, StageKind::Join { .. }).then_some(self.input.tag);
        self.p.key_codec.encode(key, tag, value, &mut self.wire);
        let (kb, vb) = &self.wire;
        self.kv_sizes
            .record(hdm_common::kv::wire_size(kb, vb) as u64);
        (self.emit)(kb, vb)
    }

    /// The one place a projected row's destination is decided.
    fn route(&mut self, key: Row, value: Row) -> Result<()> {
        match (&self.p.stage.kind, &self.p.partial) {
            (StageKind::MapOnly, _) => self.out_rows.push(value),
            (StageKind::Aggregate { .. }, Some(agg)) => self.groups.update_row(agg, key, &value),
            _ => self.emit(key.values().iter(), value.values().iter())?,
        }
        Ok(())
    }

    /// A row past the scan filter: through map-side join steps `step..`,
    /// then projected and routed.
    fn push(&mut self, step: usize, row: &Row) -> Result<()> {
        let (input, tables) = (self.input, self.tables);
        let (Some(join), Some(table)) = (input.map_joins.get(step), tables.get(step)) else {
            let value = project_row(&input.value_exprs, row)?;
            let key = project_row(&input.key_exprs, row)?;
            return self.route(key, value);
        };
        self.probe_rows += 1;
        self.key_buf.clear();
        for e in &join.probe_keys {
            sortkey::encode_cells_into(&mut self.key_buf, [&e.eval(row)?], &[]);
        }
        let matches = table.matches(&self.key_buf);
        let probe = std::slice::from_ref(row);
        let (lefts, rights, right_width) = if join.build_is_left {
            (matches, probe, row.len())
        } else {
            (probe, matches, join.build.value_exprs.len())
        };
        let taken = self.joined.get_mut(step).map(std::mem::take);
        let mut out = taken.unwrap_or_default();
        // The shuffle join's own group routine, over this one probe row
        // and the build rows under its key: outer / semi / anti /
        // residual semantics have one implementation.
        process_join_group(
            join.kind,
            right_width,
            join.residual.as_ref(),
            &join.project,
            lefts,
            rights,
            &mut out,
        )?;
        for row in &out {
            self.push(step + 1, row)?;
        }
        out.clear();
        if let Some(slot) = self.joined.get_mut(step) {
            *slot = out;
        }
        Ok(())
    }

    /// The row-at-a-time pipeline: sequence-file intermediates, stream
    /// partitions, and table scans with vectorization off.
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
            self.push(0, row)?;
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
                if !self.input.map_joins.is_empty() {
                    // The filter stayed columnar; only the rows it kept
                    // become rows, to probe with.
                    for &r in &sel {
                        self.push(0, &rb.gather_row(r))?;
                    }
                    continue;
                }
                let value_cols = project_batch(&self.input.value_exprs, &rb, &sel)?;
                let key_cols = project_batch(&self.input.key_exprs, &rb, &sel)?;
                if let Some(agg) = &self.p.partial {
                    // The one batch kernel past projection: grouped
                    // partial aggregation straight off the columns.
                    self.groups
                        .update_batch(agg, &key_cols, &value_cols, sel.len());
                    continue;
                }
                if matches!(self.p.stage.kind, StageKind::MapOnly) {
                    let rows = (0..sel.len()).map(|i| gather_projected(&value_cols, i));
                    self.out_rows.extend(rows);
                    continue;
                }
                // Shuffle pairs go from the columns to the wire: no row
                // is gathered for either half.
                for i in 0..sel.len() {
                    self.emit(
                        key_cols.iter().map(|c| cell_or_null(c, i)),
                        value_cols.iter().map(|c| cell_or_null(c, i)),
                    )?;
                }
            }
        }
        Ok(())
    }
}

impl StagePipeline {
    /// The hash table of one map-side join step, building it if no
    /// attempt has yet. Tasks that arrive during the build wait for it:
    /// none of them can run a row without the table.
    fn build_table(
        &self,
        join: &MapJoin,
        shared: &SharedBuild,
        built: &mut (u64, u64),
    ) -> Result<Arc<BuildTable>> {
        let mut slot = shared.table.lock();
        if let Some(table) = &*slot {
            return Ok(Arc::clone(table));
        }
        let (build, scan) = (&join.build, &shared.scan);
        let (mut keys, mut key_ranges, mut values) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes_read = 0;
        // The scan path of any table input: same reader, pushed-down
        // predicates, filter and projections.
        for split in &scan.splits {
            let src = scan.format.read_split(
                &self.dfs,
                split,
                &scan.schema,
                build.read_projection.as_deref(),
                build.pushed_down(self.pushdown),
                split.hosts.first().copied(),
            )?;
            bytes_read += src.bytes_read;
            for row in &src.rows {
                self.cancel.bail_if_cancelled()?;
                if let Some(f) = &build.filter {
                    if !f.eval_predicate(row)? {
                        continue;
                    }
                }
                let key_start = keys.len();
                for e in &build.key_exprs {
                    sortkey::encode_cells_into(&mut keys, [&e.eval(row)?], &[]);
                }
                key_ranges.push(key_start..keys.len());
                values.push(project_row(&build.value_exprs, row)?);
            }
        }
        let table = BuildTable::group(&keys, &key_ranges, values, bytes_read);
        built.0 += table.rows.len() as u64;
        built.1 += table.bytes_read;
        let table = Arc::new(table);
        *slot = Some(Arc::clone(&table));
        Ok(table)
    }

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
        let missing = || {
            HdmError::Plan(format!(
                "map task {task_idx}: input {} missing",
                task.input_idx
            ))
        };
        let input = self.stage.inputs.get(task.input_idx).ok_or_else(missing)?;
        let (fmt, schema) = self.formats.get(task.input_idx).ok_or_else(missing)?;
        let builds = self.builds.get(task.input_idx).ok_or_else(missing)?;
        // Tables this attempt builds itself: `(rows, bytes read)`.
        let mut built = (0, 0);
        let tables = (input.map_joins.iter().zip(builds))
            .map(|(join, shared)| self.build_table(join, shared, &mut built))
            .collect::<Result<Vec<_>>>()?;
        let mut at = MapAttempt {
            p: self,
            input,
            emit,
            joined: vec![Vec::new(); tables.len()],
            tables: &tables,
            key_buf: Vec::new(),
            wire: (Vec::new(), Vec::new()),
            groups: GroupTable::new(),
            out_rows: Vec::new(),
            kv_sizes: Histogram::with_width(hdm_obs::KV_HIST_BUCKET),
            vol: MapVolume {
                local_fraction: 1.0,
                ..Default::default()
            },
            vec_batches: 0,
            probe_rows: 0,
        };
        // Rows the reader itself dropped on the pushed-down predicates
        // (Text); the filter operator never sees them.
        let mut rows_skipped = 0u64;
        match &task.input {
            TaskInput::Empty => {}
            // Block until the producer commits this partition, then
            // consume it from memory (no DFS read, so input_bytes stays
            // 0). A replayed task (fault recovery) re-takes the retained
            // rows, byte-identically.
            TaskInput::Stream {
                stage, partition, ..
            } => {
                let stream = self.in_streams.get(stage).ok_or_else(|| {
                    HdmError::Plan(format!("map task {task_idx}: stage {stage} stream missing"))
                })?;
                at.run_rows(&stream.take(*partition)?)?;
            }
            TaskInput::Split(split) => {
                let node = Some(split.hosts.first().copied().unwrap_or(NodeId(0)));
                let projection = input.read_projection.as_deref();
                let preds = input.pushed_down(self.pushdown);
                // Vectorized scan: when the format can hand back columns
                // (ORC, Text), rows stay columnar and the batch kernels
                // replace the row loop.
                let columnar = if self.vectorized {
                    fmt.read_split_columns(&self.dfs, split, schema, projection, preds, node)?
                } else {
                    None
                };
                match columnar {
                    Some(src) => {
                        at.vol.input_bytes = src.bytes_read;
                        rows_skipped = src.rows_skipped;
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
        // A build table's bytes are input of the task that read them:
        // once per stage, however many tasks probe the table.
        at.vol.input_bytes += built.1;
        if let Some(agg) = &self.partial {
            for (key, states) in std::mem::take(&mut at.groups).into_groups() {
                let value = agg.states_to_row(&states);
                at.emit(key.values().iter(), value.values().iter())?;
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
            counter("join.map.build.rows").add(built.0);
            counter("join.map.build.bytes").add(built.1);
            counter("join.map.probe.rows").add(at.probe_rows);
        }
        if let Some(slot) = self.map_vols.lock().get_mut(task_idx) {
            *slot = at.vol;
        }
        self.kv_sizes.lock().merge(&at.kv_sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Fixture;
    use super::super::{plan, EngineKind};
    use super::*;
    use crate::physical::StageOutput;
    use hdm_common::conf as keys;
    use hdm_faults::FaultPlan;

    const SQL: &str = "SELECT p.k, b.s FROM probe p JOIN build b ON p.k = b.k WHERE b.s <> 'c'";

    /// `build` (small, measured) is hashed; `probe` streams past it.
    fn fixture() -> Fixture {
        let fx = Fixture::new(
            "CREATE TABLE probe (k BIGINT); CREATE TABLE build (k BIGINT, s STRING); \
             INSERT INTO probe VALUES (1), (2), (2), (3), (4); \
             INSERT INTO build VALUES (1, 'a'), (2, 'b'), (2, 'bb'), (4, 'c'), (5, 'e')",
        );
        // `probe` has no recorded size, so it cannot be the hashed side.
        fx.d.metastore().bump_version("probe");
        let plan = fx.plan(SQL, StageOutput::Collect);
        assert_eq!(plan.stages.len(), 1);
        assert_eq!(plan.stages[0].inputs[0].map_joins.len(), 1);
        assert!(!plan.stages[0].inputs[0].map_joins[0].build_is_left);
        fx
    }

    #[test]
    fn build_tables_group_rows_by_key_bytes() {
        let key = |k: i64| sortkey::encode_row(&Row::from(vec![Value::Long(k)]));
        let row = |s: &str| Row::from(vec![Value::Str(s.into())]);
        let scanned = [(7, "a"), (3, "b"), (7, "c"), (-1, "d"), (3, "e"), (7, "f")];
        let (mut keys, mut key_ranges, mut values) = (Vec::new(), Vec::new(), Vec::new());
        for (k, s) in scanned {
            let start = keys.len();
            keys.extend(key(k));
            key_ranges.push(start..keys.len());
            values.push(row(s));
        }
        let table = BuildTable::group(&keys, &key_ranges, values, 0);
        assert_eq!(table.groups.len(), 3);
        assert_eq!(table.rows.len(), 6);
        // Scan order within a key; nothing under a key never scanned.
        assert_eq!(table.matches(&key(7)), [row("a"), row("c"), row("f")]);
        assert_eq!(table.matches(&key(3)), [row("b"), row("e")]);
        assert_eq!(table.matches(&key(-1)), [row("d")]);
        assert!(table.matches(&key(0)).is_empty());
        assert!(table.matches(&[]).is_empty());
        let empty = BuildTable::group(&[], &[], Vec::new(), 0);
        assert!(empty.matches(&key(7)).is_empty());
    }

    /// A transient storage fault on the build table's part file fails
    /// the attempt that was building; the supervisor retries it and the
    /// result is what the fault-free run returned.
    #[test]
    fn a_faulted_build_read_is_retried_to_the_same_result() {
        let mut fx = fixture();
        let clean = fx.d.execute(SQL).expect("clean run").to_lines();
        assert_eq!(clean, ["1\ta", "2\tb", "2\tbb", "2\tb", "2\tbb"]);
        let build = fx.d.metastore().storage.parts(fx.d.dfs(), "build");
        let probe = fx.d.metastore().storage.parts(fx.d.dfs(), "probe");
        let flaky = |seed: u64, paths: &[String]| {
            let plan = FaultPlan::with_seed(seed);
            paths.iter().any(|p| plan.storage_error(p).is_some())
        };
        // Only the build side's file is flaky: a retry can have no
        // other cause.
        let seed = (0..1 << 16)
            .find(|&seed| flaky(seed, &build) && !flaky(seed, &probe))
            .expect("a seed with a flaky build file");
        let conf = fx.d.conf_mut();
        conf.set(keys::KEY_OBS_ENABLED, true);
        conf.set(keys::KEY_FT_ENABLED, true);
        conf.set(keys::KEY_FT_SEED, seed);
        conf.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            let r = fx.d.execute_on(SQL, engine).expect("faulted run");
            assert_eq!(r.to_lines(), clean, "{engine:?}");
            let snap = fx.d.last_obs_snapshot().expect("obs snapshot");
            let total = |name: &str| -> u64 {
                let hits = snap.counters.iter().filter(|(n, _, _)| n == name);
                hits.map(|(_, _, v)| *v).sum()
            };
            assert!(total("ft.retries") >= 1, "{engine:?}");
            // Built once, by the attempt that got through: the four
            // build rows its scan filter keeps.
            assert_eq!(total("join.map.build.rows"), 4, "{engine:?}");
        }
    }

    /// The build loop is a cancellation safe point: a token that fires
    /// while (here: before) the table is read ends the attempt as
    /// `Cancelled`, and nothing is cached for a later attempt to use.
    #[test]
    fn a_cancel_during_the_build_ends_the_attempt_as_cancelled() {
        let fx = fixture();
        let plan = fx.plan(SQL, StageOutput::Collect);
        let stage = &plan.stages[0];
        let mut ctx = fx.ctx(EngineKind::DataMpi);
        let token = hdm_common::CancelToken::default();
        ctx.cancel = token.clone();
        let pipeline =
            StagePipeline::new(stage, plan::plan_tasks(stage, &ctx).expect("tasks"), &ctx)
                .expect("pipeline");
        token.cancel("test");
        let mut no_emit = |_: &[u8], _: &[u8]| -> Result<()> { Ok(()) };
        let err = pipeline.run_map(0, &mut no_emit).expect_err("cancelled");
        assert!(err.is_cancelled(), "{err}");
        let shared = &pipeline.builds[0][0];
        assert!(shared.table.lock().is_none());
    }
}
