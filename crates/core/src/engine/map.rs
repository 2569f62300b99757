//! The engine-agnostic map pipeline: read a task's units one after
//! another, cut each into batches — columns a columnar reader decoded,
//! or rows a row reader or a stream handed over — filter them, take
//! them through the input's map-side joins, project them, and route
//! every projected row exactly once, all through the [`crate::batch`]
//! kernels.

use super::plan::{BuildScan, TaskInput};
use super::{EngineKind, StagePipeline};
use crate::batch::{
    filter_batch, gather_projected, project_view, CellColumn, GroupTable, RowBatch,
};
use crate::operators::process_join_group;
use crate::physical::{MapInput, MapJoin, StageKind};
use hdm_cluster::MapVolume;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::{Row, Schema};
use hdm_common::sortkey;
use hdm_common::stats::Histogram;
use hdm_common::value::Value;
use hdm_dfs::{FileSplit, NodeId};
use hdm_storage::FileFormat;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// The shuffle collector a task emits into: Hadoop's `MapContext` or
/// DataMPI's `OContext`.
pub(super) trait Collector {
    /// Emit one encoded `(key, value)` — `OutputCollector::collect` or
    /// `MPI_D_send`. The slices are the attempt's reused buffers; the
    /// engine copies them once, into its own sort arena or send
    /// partition.
    fn collect(&mut self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Close the unit emitted so far: its wire bytes per partition, and
    /// the bytes a sort buffer of its own would have spilled.
    fn end_unit(&mut self) -> (Vec<u64>, u64);
}

impl Collector for hdm_mapred::MapContext {
    fn collect(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.collect_slices(key, value)
    }

    fn end_unit(&mut self) -> (Vec<u64>, u64) {
        let unit = hdm_mapred::MapContext::end_unit(self);
        (unit.bytes_per_partition, unit.spill_bytes)
    }
}

impl Collector for hdm_datampi::OContext<'_> {
    fn collect(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.send_slices(key, value)
    }

    fn end_unit(&mut self) -> (Vec<u64>, u64) {
        (hdm_datampi::OContext::end_unit(self), 0)
    }
}

/// A map-only stage's collector: nothing is shuffled.
pub(super) struct NoShuffle;

impl Collector for NoShuffle {
    fn collect(&mut self, _: &[u8], _: &[u8]) -> Result<()> {
        Err(HdmError::Plan("map-only stage must not emit KVs".into()))
    }

    fn end_unit(&mut self) -> (Vec<u64>, u64) {
        (Vec::new(), 0)
    }
}

/// What a map task's units measured, added to the stage's obs counters
/// once the task's attempt has run all of them.
#[derive(Default)]
struct TaskCounts {
    records: u64,
    input_bytes: u64,
    vec_batches: u64,
    rows_skipped: u64,
    built_rows: u64,
    built_bytes: u64,
    probe_rows: u64,
}

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
/// first) builds again; cancellation is polled per build batch.
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

/// Hand `rows` to `f` as row-major batches of at most `size` rows.
fn row_batches(
    rows: &[Row],
    size: usize,
    mut f: impl FnMut(&RowBatch<'_>) -> Result<()>,
) -> Result<()> {
    for chunk in rows.chunks(size.max(1)) {
        f(&RowBatch::from_rows(chunk)?)?;
    }
    Ok(())
}

/// One unit of one attempt of a map/O task: where its projected rows
/// go, and what it measured on the way.
struct MapAttempt<'a> {
    p: &'a StagePipeline,
    input: &'a MapInput,
    emit: &'a mut dyn Collector,
    /// The hash tables of `input.map_joins`, in step order.
    tables: &'a [Arc<BuildTable>],
    /// Per step, a reused buffer for what one batch's rows join to.
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
    probe_rows: u64,
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
        self.emit.collect(kb, vb)
    }

    /// One batch of the unit's input: filtered, taken through the
    /// map-side join steps, and routed.
    fn run_batch(&mut self, rb: &RowBatch<'_>) -> Result<()> {
        // One relaxed load per batch: the cooperative cancellation safe
        // point inside the map pipeline.
        self.p.cancel.bail_if_cancelled()?;
        let sel = filter_batch(self.input.filter.as_ref(), rb)?;
        if sel.is_empty() {
            return Ok(());
        }
        self.vol.records += sel.len() as u64;
        if self.input.map_joins.is_empty() {
            return self.route(rb, &sel);
        }
        let mut joined = std::mem::take(&mut self.joined);
        let routed = self.join(rb, &sel, &mut joined);
        joined.iter_mut().for_each(Vec::clear);
        self.joined = joined;
        routed
    }

    /// Take a batch's selected rows through the map-side join steps one
    /// step at a time: step `s` probes every row step `s - 1` produced,
    /// appending their joins to `joined[s]` in order, and the last
    /// buffer is routed as a row-major batch. Each step keeps input
    /// order and expands a row into a contiguous run, so the rows come
    /// out as a depth-first walk per probe row would emit them.
    fn join(&mut self, rb: &RowBatch<'_>, sel: &[usize], joined: &mut [Vec<Row>]) -> Result<()> {
        let (input, tables) = (self.input, self.tables);
        for (step, (join, table)) in input.map_joins.iter().zip(tables).enumerate() {
            let (done, rest) = joined.split_at_mut(step.min(joined.len()));
            let Some(out) = rest.first_mut() else {
                break;
            };
            // A row-major batch lends its probe rows; a column-major one
            // gathers the rows its filter kept.
            let rows: Vec<Cow<'_, Row>> = match done.last() {
                None => sel.iter().map(|&r| rb.row(r)).collect(),
                Some(rows) => rows.iter().map(Cow::Borrowed).collect(),
            };
            for row in &rows {
                self.probe_rows += 1;
                self.key_buf.clear();
                for e in &join.probe_keys {
                    sortkey::encode_cells_into(&mut self.key_buf, [&e.eval(row)?], &[]);
                }
                let matches = table.matches(&self.key_buf);
                let probe = std::slice::from_ref(&**row);
                let (lefts, rights, right_width) = if join.build_is_left {
                    (matches, probe, row.len())
                } else {
                    (probe, matches, join.build.value_exprs.len())
                };
                // The shuffle join's own group routine, over this one
                // probe row and the build rows under its key: outer /
                // semi / anti / residual semantics have one
                // implementation.
                process_join_group(
                    join.kind,
                    right_width,
                    join.residual.as_ref(),
                    &join.project,
                    lefts,
                    rights,
                    out,
                )?;
            }
        }
        let Some(rows) = joined.last().filter(|rows| !rows.is_empty()) else {
            return Ok(());
        };
        let all: Vec<usize> = (0..rows.len()).collect();
        self.route(&RowBatch::from_rows(rows)?, &all)
    }

    /// The one place rows' destination is decided: projected, then kept
    /// (map-only), grouped, or emitted. Grouping and emitting read bare
    /// column references where they lie; shuffle pairs go from the
    /// projected columns to the wire.
    fn route(&mut self, rb: &RowBatch<'_>, sel: &[usize]) -> Result<()> {
        let input = self.input;
        let value_cols = project_view(&input.value_exprs, rb, sel)?;
        if matches!(self.p.stage.kind, StageKind::MapOnly) {
            // Map-only output rows outlive the batch (and a map-only
            // input has no key): the one place cells are copied.
            let rows = (0..sel.len()).map(|i| gather_projected(&value_cols, i));
            self.out_rows.extend(rows);
            return Ok(());
        }
        let key_cols = project_view(&input.key_exprs, rb, sel)?;
        if let Some(agg) = &self.p.partial {
            self.groups
                .update_batch(agg, &key_cols, &value_cols, sel.len());
            return Ok(());
        }
        for i in 0..sel.len() {
            self.emit(
                key_cols.iter().map(|c| c.cell(i)),
                value_cols.iter().map(|c| c.cell(i)),
            )?;
        }
        Ok(())
    }
}

impl StagePipeline {
    /// Read one split of `input` as every scan of the stage reads it —
    /// into columns when vectorized execution is on and the format has
    /// a columnar reader (ORC, Text), else into rows — and hand it to
    /// `f` in batches. Returns the bytes read, the rows the reader
    /// dropped on pushed-down predicates (Text), and how many batches a
    /// columnar reader supplied.
    fn scan(
        &self,
        (fmt, schema): (&dyn FileFormat, &Schema),
        split: &FileSplit,
        input: &MapInput,
        node: Option<NodeId>,
        mut f: impl FnMut(&RowBatch<'_>) -> Result<()>,
    ) -> Result<(u64, u64, u64)> {
        let projection = input.read_projection.as_deref();
        let preds = input.pushed_down(self.pushdown);
        let columnar = if self.vectorized {
            fmt.read_split_columns(&self.dfs, split, schema, projection, preds, node)?
        } else {
            None
        };
        let Some(src) = columnar else {
            let src = fmt.read_split(&self.dfs, split, schema, projection, preds, node)?;
            row_batches(&src.rows, self.batch_size, f)?;
            return Ok((src.bytes_read, src.rows_skipped, 0));
        };
        let mut batches = 0;
        for stripe in &src.stripes {
            let mut start = 0usize;
            while start < stripe.rows {
                let end = (start + self.batch_size.max(1)).min(stripe.rows);
                let columns = stripe.columns.iter();
                let columns = columns.map(|c| c.get(start..end).unwrap_or(&[]));
                f(&RowBatch::new(columns.collect(), end - start)?)?;
                batches += 1;
                start = end;
            }
        }
        Ok((src.bytes_read, src.rows_skipped, batches))
    }

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
        // predicates, filter and projections, by batch.
        let format = (scan.format.as_ref(), &scan.schema);
        for split in &scan.splits {
            let node = split.hosts.first().copied();
            bytes_read += self
                .scan(format, split, build, node, |rb| {
                    self.cancel.bail_if_cancelled()?;
                    let sel = filter_batch(build.filter.as_ref(), rb)?;
                    let key_cols = project_view(&build.key_exprs, rb, &sel)?;
                    let value_cols = project_view(&build.value_exprs, rb, &sel)?;
                    for i in 0..sel.len() {
                        let key_start = keys.len();
                        let key = key_cols.iter().map(|c| c.cell(i));
                        sortkey::encode_cells_into(&mut keys, key, &[]);
                        key_ranges.push(key_start..keys.len());
                        values.push(gather_projected(&value_cols, i));
                    }
                    Ok(())
                })?
                .0;
        }
        let table = BuildTable::group(&keys, &key_ranges, values, bytes_read);
        built.0 += table.rows.len() as u64;
        built.1 += table.bytes_read;
        let table = Arc::new(table);
        *slot = Some(Arc::clone(&table));
        Ok(table)
    }

    /// Run map/O task `task_idx`: its units one after another, emitting
    /// their shuffle pairs into `out`. Volumes, kv sizes and obs counts
    /// are published only once every unit ran, so a failed attempt
    /// leaves nothing behind for its replay to count twice.
    ///
    /// # Errors
    /// Read/decode/eval failures, a failed emit, or cancellation.
    pub(super) fn run_map(&self, task_idx: usize, out: &mut dyn Collector) -> Result<()> {
        // Engine-matched track names so the pipeline span nests inside
        // the engine's own task span (Hadoop map task vs DataMPI O task).
        let track = match self.engine {
            EngineKind::Hadoop => "M",
            EngineKind::DataMpi => "O",
        };
        let track = format!("{track}{task_idx}");
        let _op_span = self.obs.span(&track, "operator", "map-pipeline");
        let units = self
            .tasks
            .get(task_idx)
            .cloned()
            .ok_or_else(|| HdmError::Plan(format!("map task {task_idx} has no units")))?;
        let mut counts = TaskCounts::default();
        let mut kv_sizes = Histogram::with_width(hdm_obs::KV_HIST_BUCKET);
        let mut vols = Vec::with_capacity(units.len());
        for unit in units {
            vols.push((unit, self.run_unit(unit, out, &mut counts, &mut kv_sizes)?));
        }
        let count = |name, n| self.obs.count(name, &self.stage_label, n);
        count("stage.map.records", counts.records);
        count("stage.map.input.bytes", counts.input_bytes);
        count("vec.batches", counts.vec_batches);
        count("text.rows.skipped", counts.rows_skipped);
        count("join.map.build.rows", counts.built_rows);
        count("join.map.build.bytes", counts.built_bytes);
        count("join.map.probe.rows", counts.probe_rows);
        let mut map_vols = self.map_vols.lock();
        for (unit, vol) in vols {
            if let Some(slot) = map_vols.get_mut(unit) {
                *slot = vol;
            }
        }
        drop(map_vols);
        self.kv_sizes.lock().merge(&kv_sizes)
    }

    /// Run one unit: read it, route its rows, flush its partial
    /// aggregates, and commit its rows if the stage is map-only — all as
    /// a task of this unit alone would, so where partial sums start and
    /// end, and which part file holds which rows, do not depend on the
    /// grouping.
    fn run_unit(
        &self,
        unit_idx: usize,
        out: &mut dyn Collector,
        counts: &mut TaskCounts,
        kv_sizes: &mut Histogram,
    ) -> Result<MapVolume> {
        let unit = self
            .units
            .get(unit_idx)
            .ok_or_else(|| HdmError::Plan(format!("map unit {unit_idx} has no input spec")))?;
        let missing = || {
            HdmError::Plan(format!(
                "map unit {unit_idx}: input {} missing",
                unit.input_idx
            ))
        };
        let input = self.stage.inputs.get(unit.input_idx).ok_or_else(missing)?;
        let (fmt, schema) = self.formats.get(unit.input_idx).ok_or_else(missing)?;
        let builds = self.builds.get(unit.input_idx).ok_or_else(missing)?;
        // Tables this attempt builds itself: `(rows, bytes read)`.
        let mut built = (0, 0);
        let tables = (input.map_joins.iter().zip(builds))
            .map(|(join, shared)| self.build_table(join, shared, &mut built))
            .collect::<Result<Vec<_>>>()?;
        let mut at = MapAttempt {
            p: self,
            input,
            emit: out,
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
            probe_rows: 0,
        };
        let (mut rows_skipped, mut vec_batches) = (0, 0);
        match &unit.input {
            TaskInput::Empty => {}
            // Block until the producer commits this partition, then
            // consume it from memory (no DFS read, so input_bytes stays
            // 0). A replayed task (fault recovery) re-takes the retained
            // rows, byte-identically.
            TaskInput::Stream {
                stage, partition, ..
            } => {
                let stream = self.in_streams.get(stage).ok_or_else(|| {
                    HdmError::Plan(format!("map unit {unit_idx}: stage {stage} stream missing"))
                })?;
                let rows = stream.take(*partition)?;
                row_batches(&rows, self.batch_size, |rb| at.run_batch(rb))?;
            }
            TaskInput::Split(split) => {
                let node = Some(split.hosts.first().copied().unwrap_or(NodeId(0)));
                let format = (fmt.as_ref(), schema);
                (at.vol.input_bytes, rows_skipped, vec_batches) =
                    self.scan(format, split, input, node, |rb| at.run_batch(rb))?;
            }
        }
        // A build table's bytes are input of the task that read them:
        // once per stage, however many tasks probe the table.
        at.vol.input_bytes += built.1;
        if let Some(agg) = &self.partial {
            let mut value = Vec::new();
            std::mem::take(&mut at.groups).drain_into(|key, states| {
                value.clear();
                agg.push_state_cells(states, &mut value);
                at.emit(key.values().iter(), value.iter())
            })?;
        }
        (at.vol.shuffle_bytes_per_dst, at.vol.spill_bytes) = at.emit.end_unit();
        if matches!(self.stage.kind, StageKind::MapOnly) {
            // A map-only attempt only gets here after a clean run of the
            // unit, so attempt 0 is always the right tag: a replayed
            // commit reproduces the same rows, to the same part file.
            let rows = std::mem::take(&mut at.out_rows);
            self.sink.commit(unit_idx, 0, rows)?;
        }
        counts.records += at.vol.records;
        counts.input_bytes += at.vol.input_bytes;
        counts.vec_batches += vec_batches;
        counts.rows_skipped += rows_skipped;
        counts.built_rows += built.0;
        counts.built_bytes += built.1;
        counts.probe_rows += at.probe_rows;
        kv_sizes.merge(&at.kv_sizes)?;
        Ok(at.vol)
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

    /// Batch boundaries over row inputs: the map-join chain's output
    /// feeding partial aggregation, the stream input (pipelined) and the
    /// Seq input (not) of the sort stage give the same rows at every
    /// batch size, with either reader, on both engines.
    #[test]
    fn row_inputs_give_the_same_rows_at_every_batch_size() {
        let mut fx = Fixture::new(
            "CREATE TABLE f (k BIGINT, j BIGINT, v BIGINT); \
             CREATE TABLE d1 (k BIGINT, a STRING); CREATE TABLE d2 (j BIGINT, b STRING); \
             INSERT INTO d1 VALUES (0, 'x'), (1, 'y'), (1, 'yy'), (2, 'z'); \
             INSERT INTO d2 VALUES (0, 'p'), (2, 'q'), (3, 'r')",
        );
        let long = |i: i64| Value::Long(i);
        let rows: Vec<Row> = (0..50)
            .map(|i| Row::from(vec![long(i % 4), long(i % 5), long(i)]))
            .collect();
        fx.d.load_rows("f", &rows).expect("load f");
        // `f` has no recorded size, so it is the probe side of both steps.
        fx.d.metastore().bump_version("f");
        let sql = "SELECT a, b, SUM(v) AS s, COUNT(*) AS n FROM f JOIN d1 ON f.k = d1.k \
                   LEFT OUTER JOIN d2 ON f.j = d2.j GROUP BY a, b ORDER BY a, b";
        let plan = fx.plan(sql, StageOutput::Collect);
        assert_eq!(plan.stages.len(), 2);
        assert_eq!(plan.stages[0].inputs[0].map_joins.len(), 2);
        let want = fx.d.execute(sql).expect("default run").to_lines();
        // Four `d1` rows (key 1 twice) by `d2`'s three `b`s and the NULL
        // of the `j` it misses (1 and 4).
        assert_eq!(want.len(), 16, "{want:?}");
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            for (pipelined, vectorized) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                for size in [1i64, 3, 1024] {
                    let conf = fx.d.conf_mut();
                    conf.set(keys::KEY_EXEC_PIPELINED, pipelined);
                    conf.set(keys::KEY_VECTORIZED, vectorized);
                    conf.set(keys::KEY_VECTORIZED_BATCH_SIZE, size);
                    let got = fx.d.execute_on(sql, engine).expect("run").to_lines();
                    let arm = format!("{engine:?} pipelined={pipelined} vectorized={vectorized}");
                    assert_eq!(got, want, "{arm} batch={size}");
                }
            }
        }
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
        let err = pipeline.run_map(0, &mut NoShuffle).expect_err("cancelled");
        assert!(err.is_cancelled(), "{err}");
        let shared = &pipeline.builds[0][0];
        assert!(shared.table.lock().is_none());
    }
}
