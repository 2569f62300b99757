//! The pluggable execution engines — the paper's contribution boundary.
//!
//! A [`crate::physical::StagePlan`] is executed by either:
//!
//! * the **Hadoop engine** (`hdm-mapred`): the stage's map pipeline runs
//!   inside `ExecMapper`-style closures whose `OutputCollector` feeds
//!   the sort-spill buffer, and the reduce pipeline consumes pulled,
//!   merged groups; or
//! * the **DataMPI engine** (`hdm-datampi`): the *same* map pipeline
//!   runs in O tasks whose collector is the `DataMPICollector` analogue
//!   (`MPI_D_send` through the SPL buffer manager), and the same reduce
//!   pipeline runs in A tasks over `MPI_D_recv` groups.
//!
//! Both adapters delegate the query semantics to [`crate::operators`];
//! the only engine-specific code is the wiring below — the reproduction
//! of the paper's Table III productivity claim.
//!
//! Every stage execution also measures its data volumes
//! ([`hdm_cluster::JobVolumes`]) so the discrete-event cluster model can
//! replay the stage at paper scale.

use crate::batch::{filter_batch, gather_projected, project_batch, GroupTable, RowBatch};
use crate::operators::{process_join_group, project_row, tag_row, untag_row, Aggregator};
use crate::physical::{InputSource, MapInput, StageKind, StagePlan};
use bytes::Bytes;
use hdm_cluster::{JobVolumes, MapVolume, ReduceVolume};
use hdm_common::conf::{JobConf, Parallelism};
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{BytesComparator, ComparatorRef, KvPair};
use hdm_common::partition::{HashPartitioner, PartitionerRef, SinglePartitioner};
use hdm_common::row::{Row, Schema};
use hdm_common::value::DataType;
use hdm_datampi::{run_bipartite, DataMpiConfig, ShuffleStyle};
use hdm_dfs::{Dfs, FileSplit, NodeId};
use hdm_mapred::{run_mapreduce, MapRedConfig};
use hdm_storage::seq::SeqFormat;
use hdm_storage::{format_for, FileFormat};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Which engine executes the plan — the paper's A/B comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Hive on Hadoop (baseline).
    Hadoop,
    /// Hive on DataMPI (the paper's system).
    DataMpi,
}

impl EngineKind {
    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Hadoop => "hadoop",
            EngineKind::DataMpi => "datampi",
        }
    }
}

/// Everything a stage execution needs from the session.
pub struct StageContext<'a> {
    /// The cluster filesystem.
    pub dfs: &'a Dfs,
    /// Table metadata.
    pub metastore: &'a crate::catalog::Metastore,
    /// Session configuration (the `hive.datampi.*` knobs, etc.).
    pub conf: &'a JobConf,
    /// Which engine to run on.
    pub engine: EngineKind,
    /// Output part files of earlier stages, by stage id.
    pub intermediates: &'a HashMap<usize, Vec<String>>,
    /// In-memory intermediate outputs of earlier stages (DAG mode; see
    /// [`dag_mode_enabled`]), by stage id.
    pub dag_intermediates: &'a HashMap<usize, Arc<Vec<Row>>>,
    /// Pipelined inputs by producer stage id: partitions are taken from
    /// these streams as the (possibly still running) producers commit
    /// them, instead of reading part files (DESIGN.md §15).
    pub in_streams: &'a HashMap<usize, crate::stream::StreamedIntermediate>,
    /// Pipelined output: when set, this stage commits its output
    /// partitions here instead of materializing part files.
    pub out_stream: Option<crate::stream::StreamedIntermediate>,
    /// Unique query id (namespaces temp paths).
    pub query_id: u64,
    /// Observability sink shared across the query's stages (spans,
    /// counters, resource samples). Disabled handles cost one relaxed
    /// atomic load per instrumented site.
    pub obs: hdm_obs::ObsHandle,
    /// Cooperative cancellation token threaded from the driver: task
    /// loops poll it (one relaxed load) and unwind with
    /// [`hdm_common::error::HdmError::Cancelled`] when it fires. The
    /// default token never fires.
    pub cancel: hdm_common::CancelToken,
}

/// Is the DAG execution mode active for this stage context?
///
/// The paper's stated future work ("reduce the overhead of intermediate
/// files storing by supporting DAG distributed computing models") —
/// implemented here for the DataMPI engine: when
/// `hive.datampi.dag = true`, chained stages hand their intermediate
/// rows to the next stage in memory instead of materializing sequence
/// files in the DFS.
pub fn dag_mode_enabled(ctx: &StageContext<'_>) -> bool {
    ctx.engine == EngineKind::DataMpi
        && ctx
            .conf
            .get_bool(hdm_common::conf::KEY_DAG_MODE, false)
            .unwrap_or(false)
}

/// What one executed stage produced.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Output part files (intermediate/collect) in rank order.
    pub output_paths: Vec<String>,
    /// Measured data volumes for the timing model.
    pub volumes: JobVolumes,
    /// Number of map/O tasks that ran.
    pub map_tasks: usize,
    /// Number of reduce/A tasks that ran.
    pub reduce_tasks: usize,
    /// Wire-size distribution of the shuffled key-value pairs — the
    /// Figure 2(c)/(d) signal.
    pub kv_sizes: hdm_common::stats::Histogram,
    /// In-memory intermediate rows (DAG mode only; otherwise `None` and
    /// the rows live in `output_paths`).
    pub mem_output: Option<Arc<Vec<Row>>>,
}

/// The engine-agnostic map pipeline: `(task_index, emit)`.
type MapLogic =
    Arc<dyn Fn(usize, &mut dyn FnMut(KvPair) -> Result<()>) -> Result<()> + Send + Sync>;
/// The engine-agnostic reduce pipeline: `(reduce_rank, groups)`.
type ReduceLogic = Arc<dyn Fn(usize, &mut dyn GroupSource) -> Result<()> + Send + Sync>;

/// How ReduceSink keys travel on the wire: key rows are written in the
/// order-preserving [`hdm_common::sortkey`] encoding — Hive's
/// `BinarySortableSerDe` analogue — with any Sort-stage DESC directions
/// baked into the bytes, so both engines' sort/merge/group paths compare
/// raw bytes ([`BytesComparator`]) instead of decoding rows on every
/// comparison.
#[derive(Clone)]
struct KeyCodec {
    /// Per-column ascending flags (Sort stages; empty = all ascending).
    ascending: Arc<Vec<bool>>,
}

impl KeyCodec {
    fn of(kind: &StageKind) -> KeyCodec {
        let ascending = match kind {
            StageKind::Sort { ascending, .. } => Arc::new(ascending.clone()),
            _ => Arc::new(Vec::new()),
        };
        KeyCodec { ascending }
    }

    /// Build the wire pair for one `(key, value)` row pair.
    fn pair(&self, key: &Row, value: &Row) -> KvPair {
        let kb = hdm_common::sortkey::encode_row_directed(key, &self.ascending);
        let mut vb = Vec::with_capacity(value.wire_size() + 4);
        value.encode(&mut vb);
        KvPair::new(kb, vb)
    }

    /// Decode a wire key back into its row.
    fn decode_key(&self, key: &Bytes) -> Result<Row> {
        hdm_common::sortkey::decode_row_directed(key.as_ref(), &self.ascending)
    }
}

/// One input split bound to its tagged map input.
#[derive(Clone)]
struct TaskSpec {
    input_idx: usize,
    split: Option<FileSplit>, // None = synthesized empty task or memory chunk
    /// DAG mode: read rows `[start, end)` of an in-memory intermediate.
    mem: Option<(usize, usize, usize)>, // (stage_id, start, end)
    /// Pipelined mode: take this `(producer_stage, partition)` from the
    /// producer's stream as it commits.
    stream: Option<(usize, usize)>,
    /// Logical size of a memory chunk (drives the reducer-count policy,
    /// which otherwise sees no split bytes in DAG mode).
    est_bytes: u64,
}

/// Execute one stage on the configured engine.
///
/// # Errors
/// Propagates planning/IO/engine failures.
pub fn execute_stage(stage: &StagePlan, ctx: &StageContext<'_>) -> Result<StageResult> {
    // ---- enumerate input splits -------------------------------------------
    let pushdown_enabled = ctx
        .conf
        .get_bool(hdm_common::conf::KEY_ORC_PUSHDOWN, true)?;
    let stage_label = format!("stage={}", stage.id);
    let mut tasks: Vec<TaskSpec> = Vec::new();
    let mut formats: Vec<Arc<dyn FileFormat>> = Vec::new();
    let mut table_schemas: Vec<Schema> = Vec::new();
    for (i, input) in stage.inputs.iter().enumerate() {
        let (fmt, schema, paths): (Arc<dyn FileFormat>, Schema, Vec<String>) = match &input.source {
            InputSource::Table(name) => {
                let meta = ctx.metastore.table(name)?;
                let fmt: Arc<dyn FileFormat> = Arc::from(format_for(meta.format));
                let paths = ctx.metastore.storage.parts(ctx.dfs, name);
                (fmt, meta.schema.clone(), paths)
            }
            InputSource::Stage(id) if ctx.in_streams.contains_key(id) => {
                // Pipelined mode: one task per producer partition. The
                // producer declares its partition count as soon as its
                // own parallelism is decided, so this wait ends long
                // before the producer finishes running. The byte hint is
                // the producer's input volume spread across partitions —
                // the same order of magnitude file splits would report,
                // so the reducer-count policy below behaves like the
                // materialized path instead of seeing zero bytes.
                let Some(stream) = ctx.in_streams.get(id) else {
                    return Err(HdmError::Plan(format!("stage {id} stream missing")));
                };
                let (parts, est_total) = stream.await_partitions()?;
                let per_part = est_total / parts.max(1) as u64;
                for part in 0..parts {
                    tasks.push(TaskSpec {
                        input_idx: i,
                        split: None,
                        mem: None,
                        stream: Some((*id, part)),
                        est_bytes: per_part,
                    });
                }
                if parts == 0 {
                    tasks.push(TaskSpec {
                        input_idx: i,
                        split: None,
                        mem: None,
                        stream: None,
                        est_bytes: 0,
                    });
                }
                formats.push(Arc::new(SeqFormat));
                table_schemas.push(input.read_schema.clone());
                continue;
            }
            InputSource::Stage(id)
                if dag_mode_enabled(ctx) && ctx.dag_intermediates.contains_key(id) =>
            {
                // DAG mode: chunk the in-memory intermediate into tasks.
                let Some(rows) = ctx.dag_intermediates.get(id).cloned() else {
                    return Err(HdmError::Plan(format!("stage {id} DAG output missing")));
                };
                let chunk = 4096usize;
                let mut start = 0;
                let mut any = false;
                while start < rows.len() {
                    let end = (start + chunk).min(rows.len());
                    let est_bytes: u64 = rows
                        .get(start..end)
                        .map_or(0, |c| c.iter().map(|r| r.wire_size() as u64).sum());
                    tasks.push(TaskSpec {
                        input_idx: i,
                        split: None,
                        mem: Some((*id, start, end)),
                        stream: None,
                        est_bytes,
                    });
                    start = end;
                    any = true;
                }
                if !any {
                    tasks.push(TaskSpec {
                        input_idx: i,
                        split: None,
                        mem: Some((*id, 0, 0)),
                        stream: None,
                        est_bytes: 0,
                    });
                }
                formats.push(Arc::new(SeqFormat));
                table_schemas.push(input.read_schema.clone());
                continue;
            }
            InputSource::Stage(id) => {
                let paths = ctx
                    .intermediates
                    .get(id)
                    .cloned()
                    .ok_or_else(|| HdmError::Plan(format!("stage {id} output missing")))?;
                (Arc::new(SeqFormat), input.read_schema.clone(), paths)
            }
        };
        let mut any = false;
        // Planning-side predicate pushdown: stripes the stats disprove
        // never become (part of) a task at all.
        let preds: &[hdm_storage::Predicate] = if pushdown_enabled {
            &input.pushdown
        } else {
            &[]
        };
        let mut pruned_stripes = 0u64;
        let mut pruned_rows = 0u64;
        for p in &paths {
            let planned = fmt.plan_splits(ctx.dfs, p, preds)?;
            pruned_stripes += planned.pruned_stripes;
            pruned_rows += planned.pruned_rows;
            for s in planned.splits {
                tasks.push(TaskSpec {
                    input_idx: i,
                    split: Some(s),
                    mem: None,
                    stream: None,
                    est_bytes: 0,
                });
                any = true;
            }
        }
        if ctx.obs.is_enabled() {
            ctx.obs
                .counter("orc.stripes.pruned", &stage_label)
                .add(pruned_stripes);
            ctx.obs
                .counter("orc.rows.pruned", &stage_label)
                .add(pruned_rows);
        }
        if !any {
            tasks.push(TaskSpec {
                input_idx: i,
                split: None,
                mem: None,
                stream: None,
                est_bytes: 0,
            });
        }
        formats.push(fmt);
        table_schemas.push(schema);
    }

    // ---- decide parallelism -------------------------------------------------
    let map_tasks = tasks.len();
    let slots = ctx.conf.get_i64(hdm_common::conf::KEY_SLOTS_PER_NODE, 4)? as usize * 7;
    let reduce_tasks = match &stage.kind {
        StageKind::MapOnly => 0,
        StageKind::Sort { .. } => 1,
        _ => match ctx.conf.parallelism()? {
            Parallelism::Enhanced => {
                // Section IV-D: #A = #O, capped by the cluster's slot
                // count — at the paper's scale O is in the hundreds, so
                // this means "use every executing slot" (their Q9
                // example raises 16 A tasks to 28). The final stage of a
                // query runs with a single A task.
                if stage.is_last {
                    1
                } else {
                    map_tasks.max(slots).min(slots).max(1)
                }
            }
            Parallelism::Default => {
                let total_bytes: u64 = tasks
                    .iter()
                    .map(|t| t.split.as_ref().map(|s| s.len).unwrap_or(t.est_bytes))
                    .sum();
                // Hive 0.13's policy scaled to this reproduction's
                // laptop-sized inputs: the default puts any full-table
                // stage at the 16-reducer cap regardless of storage
                // format — the regime a 10-40 GB input is in on the real
                // cluster (the paper observes Hive launching 16 A tasks
                // for TPC-H Q9 by default).
                let per_reducer = ctx
                    .conf
                    .get_i64(hdm_common::conf::KEY_BYTES_PER_REDUCER, 32 << 10)?
                    .max(1) as u64;
                (total_bytes.div_ceil(per_reducer) as usize).clamp(1, slots.min(16))
            }
        },
    };
    // Pipelined producer: declare the output partition count now, so
    // the consumer stage can enumerate its tasks and start pulling
    // while this stage is still executing. Output bytes are unknown
    // until the data exists; this stage's input volume is the hint.
    if let Some(out) = &ctx.out_stream {
        let input_bytes: u64 = tasks
            .iter()
            .map(|t| t.split.as_ref().map(|s| s.len).unwrap_or(t.est_bytes))
            .sum();
        out.declare(
            if matches!(stage.kind, StageKind::MapOnly) {
                map_tasks
            } else {
                reduce_tasks
            },
            input_bytes,
        );
    }

    // ---- output sink ---------------------------------------------------------
    let out_dir = match &stage.output {
        crate::physical::StageOutput::Table { name, .. } => ctx.metastore.storage.table_dir(name),
        crate::physical::StageOutput::Intermediate => {
            format!("/tmp/q{}/stage{}/", ctx.query_id, stage.id)
        }
        crate::physical::StageOutput::Collect => format!("/tmp/q{}/result/", ctx.query_id),
    };
    let out_format: Arc<dyn FileFormat> = match &stage.output {
        crate::physical::StageOutput::Table { format, .. } => Arc::from(format_for(*format)),
        _ => Arc::new(SeqFormat),
    };
    let _out_names = stage.out_names.clone();
    let out_schema =
        if stage.out_names.len() == stage.out_types.len() && !stage.out_names.is_empty() {
            Schema::new(
                stage
                    .out_names
                    .iter()
                    .cloned()
                    .zip(stage.out_types.iter().copied())
                    .collect::<Vec<_>>(),
            )
        } else {
            Schema::empty()
        };
    // Typed sinks (warehouse tables) need cells cast to the declared
    // column types; sequence sinks preserve dynamic values as-is.
    let typed_sink = matches!(stage.output, crate::physical::StageOutput::Table { .. });

    // ---- shared measurement state ---------------------------------------------
    let map_vols: Arc<Mutex<Vec<MapVolume>>> =
        Arc::new(Mutex::new(vec![MapVolume::default(); map_tasks]));
    let kv_sizes: Arc<Mutex<hdm_common::stats::Histogram>> = Arc::new(Mutex::new(
        hdm_common::stats::Histogram::with_width(hdm_obs::KV_HIST_BUCKET),
    ));
    // Vectorized execution: per-operator eligibility decided by the
    // planner shape, batch size validated here (config errors surface
    // before any task runs).
    let vectorized = ctx.conf.vectorized_enabled()? && stage.vectorizable();
    let batch_size = ctx.conf.vectorized_batch_size()?;
    let out_paths: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let out_bytes: Arc<Mutex<HashMap<usize, u64>>> = Arc::new(Mutex::new(HashMap::new()));

    // ---- the engine-agnostic map pipeline ---------------------------------------
    let stage_arc = Arc::new(stage.clone());
    let tasks_arc = Arc::new(tasks);
    let dfs = ctx.dfs.clone();
    let conf_map_aggr = ctx.conf.get_bool(hdm_common::conf::KEY_COMBINER, true)?;
    // ReduceSink key normalization.
    let key_codec = KeyCodec::of(&stage.kind);

    let aggregator = match &stage.kind {
        StageKind::Aggregate { aggs, .. } => Some(Arc::new(Aggregator::new(aggs.clone()))),
        _ => None,
    };

    // Reads a task's rows and drives the pipeline into `emit`.
    let dag_rows: HashMap<usize, Arc<Vec<Row>>> = ctx.dag_intermediates.clone();
    let in_streams: HashMap<usize, crate::stream::StreamedIntermediate> = ctx.in_streams.clone();
    let map_logic = {
        let stage = Arc::clone(&stage_arc);
        let tasks = Arc::clone(&tasks_arc);
        let dag_rows = dag_rows.clone();
        let in_streams = in_streams.clone();
        let formats = formats.clone();
        let table_schemas = table_schemas.clone();
        let dfs = dfs.clone();
        let map_vols = Arc::clone(&map_vols);
        let kv_sizes = Arc::clone(&kv_sizes);
        let aggregator = aggregator.clone();
        let key_codec = key_codec.clone();
        let map_only_ctx = MapOnlySink {
            dfs: dfs.clone(),
            out_dir: out_dir.clone(),
            out_format: Arc::clone(&out_format),
            out_schema: out_schema.clone(),
            typed: typed_sink,
            out_paths: Arc::clone(&out_paths),
            out_bytes: Arc::clone(&out_bytes),
            buffers: Arc::new(Mutex::new(HashMap::new())),
            out_stream: ctx.out_stream.clone(),
        };
        let obs = ctx.obs.clone();
        let cancel = ctx.cancel.clone();
        // Engine-matched track names so the pipeline span nests inside
        // the engine's own task span (Hadoop map task vs DataMPI O task).
        let op_track = match ctx.engine {
            EngineKind::Hadoop => "M",
            EngineKind::DataMpi => "O",
        };
        let stage_label = stage_label.clone();
        move |task_idx: usize, emit: &mut dyn FnMut(KvPair) -> Result<()>| -> Result<()> {
            let _op_span = obs.span(&format!("{op_track}{task_idx}"), "operator", "map-pipeline");
            if matches!(stage.kind, StageKind::MapOnly) {
                // Re-attempted tasks (fault recovery) must not duplicate
                // the rows a failed attempt already buffered.
                map_only_ctx.reset(task_idx);
            }
            let spec = tasks
                .get(task_idx)
                .ok_or_else(|| HdmError::Plan(format!("map task {task_idx} has no input spec")))?;
            let input: &MapInput = stage.inputs.get(spec.input_idx).ok_or_else(|| {
                HdmError::Plan(format!(
                    "map task {task_idx}: input {} missing",
                    spec.input_idx
                ))
            })?;
            let mut vol = MapVolume {
                local_fraction: 1.0,
                ..Default::default()
            };
            // Vectorized scan: when the format can hand back columns
            // (ORC) and the stage is eligible, rows stay columnar and
            // the batch kernels below replace the row loop.
            let mut columnar: Option<hdm_storage::ColumnarSource> = None;
            // Rows the reader itself dropped on the pushed-down predicates
            // (Text); the filter operator below never sees them.
            let mut rows_skipped = 0u64;
            // Whichever arm runs keeps its rows alive here; the row loop
            // below only borrows them.
            let streamed: Arc<Vec<Row>>;
            let scanned: Vec<Row>;
            let rows: &[Row] = if let Some((src, part)) = spec.stream {
                // Pipelined mode: block until the producer commits this
                // partition, then consume it from memory (no DFS read —
                // input_bytes stays 0, same as DAG-mode memory chunks).
                // A replayed task (fault recovery) re-takes the retained
                // rows, byte-identically.
                let stream = in_streams.get(&src).ok_or_else(|| {
                    HdmError::Plan(format!("map task {task_idx}: stage {src} stream missing"))
                })?;
                streamed = stream.take(part)?;
                &streamed
            } else {
                match (&spec.split, &spec.mem) {
                    (None, Some((stage_id, start, end))) => {
                        // DAG mode: rows arrive from memory, no DFS read.
                        dag_rows
                            .get(stage_id)
                            .and_then(|r| r.get(*start..*end))
                            .unwrap_or_default()
                    }
                    (None, None) => &[],
                    (Some(split), _) => {
                        let node = split.hosts.first().copied().unwrap_or(NodeId(0));
                        let no_pushdown = [];
                        let fmt = formats.get(spec.input_idx).ok_or_else(|| {
                            HdmError::Plan(format!("input {} has no format", spec.input_idx))
                        })?;
                        let schema = table_schemas.get(spec.input_idx).ok_or_else(|| {
                            HdmError::Plan(format!("input {} has no schema", spec.input_idx))
                        })?;
                        let preds: &[hdm_storage::Predicate] = if pushdown_enabled {
                            &input.pushdown
                        } else {
                            &no_pushdown
                        };
                        if vectorized {
                            columnar = fmt.read_split_columns(
                                &dfs,
                                split,
                                schema,
                                input.read_projection.as_deref(),
                                preds,
                                Some(node),
                            )?;
                        }
                        match &columnar {
                            Some(src) => {
                                vol.input_bytes = src.bytes_read;
                                &[]
                            }
                            None => {
                                let src = fmt.read_split(
                                    &dfs,
                                    split,
                                    schema,
                                    input.read_projection.as_deref(),
                                    preds,
                                    Some(node),
                                )?;
                                vol.input_bytes = src.bytes_read;
                                rows_skipped = src.rows_skipped;
                                scanned = src.rows;
                                &scanned
                            }
                        }
                    }
                }
            };
            // Map-side partial aggregation (Hive's hash-GBY operator).
            let partial = matches!(stage.kind, StageKind::Aggregate { .. })
                && conf_map_aggr
                && aggregator
                    .as_ref()
                    .map(|a| !a.has_distinct())
                    .unwrap_or(false);
            let mut hash_agg = GroupTable::new();

            let mut local_hist = hdm_common::stats::Histogram::with_width(hdm_obs::KV_HIST_BUCKET);
            let mut emit = |kv: KvPair| -> Result<()> {
                local_hist.record(kv.wire_size() as u64);
                emit(kv)
            };
            let mut vec_batches = 0u64;
            if let Some(src) = &columnar {
                // ---- vectorized batch pipeline -------------------------
                // Same rows in the same order as the row loop below; the
                // kernel-equivalence contract lives in `crate::batch`.
                for stripe in &src.stripes {
                    let mut start = 0usize;
                    while start < stripe.rows {
                        // One cancellation safe point per batch (the row
                        // path checks per row).
                        cancel.bail_if_cancelled()?;
                        let end = (start + batch_size).min(stripe.rows);
                        let rb = RowBatch::new(
                            stripe
                                .columns
                                .iter()
                                .map(|c| c.get(start..end).unwrap_or(&[]))
                                .collect(),
                            end - start,
                        )?;
                        vec_batches += 1;
                        let sel = filter_batch(input.filter.as_ref(), &rb)?;
                        start = end;
                        if sel.is_empty() {
                            continue;
                        }
                        vol.records += sel.len() as u64;
                        let value_cols = project_batch(&input.value_exprs, &rb, &sel)?;
                        match &stage.kind {
                            StageKind::MapOnly => {
                                for i in 0..sel.len() {
                                    map_only_ctx
                                        .write(task_idx, &gather_projected(&value_cols, i))?;
                                }
                            }
                            StageKind::Join { .. } => {
                                let key_cols = project_batch(&input.key_exprs, &rb, &sel)?;
                                for i in 0..sel.len() {
                                    let key = gather_projected(&key_cols, i);
                                    let value = gather_projected(&value_cols, i);
                                    emit(key_codec.pair(&key, &tag_row(input.tag, &value)))?;
                                }
                            }
                            StageKind::Aggregate { .. } => {
                                let key_cols = project_batch(&input.key_exprs, &rb, &sel)?;
                                if partial {
                                    let agg = aggregator.as_ref().ok_or_else(|| {
                                        HdmError::Plan(
                                            "aggregate stage without an aggregator".into(),
                                        )
                                    })?;
                                    hash_agg.update_batch(agg, &key_cols, &value_cols, sel.len());
                                } else {
                                    for i in 0..sel.len() {
                                        let key = gather_projected(&key_cols, i);
                                        let value = gather_projected(&value_cols, i);
                                        emit(key_codec.pair(&key, &value))?;
                                    }
                                }
                            }
                            StageKind::Sort { .. } => {
                                let key_cols = project_batch(&input.key_exprs, &rb, &sel)?;
                                for i in 0..sel.len() {
                                    let key = gather_projected(&key_cols, i);
                                    let value = gather_projected(&value_cols, i);
                                    emit(key_codec.pair(&key, &value))?;
                                }
                            }
                        }
                    }
                }
            }
            for row in rows {
                // One relaxed load per row: the cooperative cancellation
                // safe point inside the map pipeline.
                cancel.bail_if_cancelled()?;
                if let Some(f) = &input.filter {
                    if !f.eval_predicate(row)? {
                        continue;
                    }
                }
                vol.records += 1;
                let value = project_row(&input.value_exprs, row)?;
                match &stage.kind {
                    StageKind::MapOnly => {
                        map_only_ctx.write(task_idx, &value)?;
                    }
                    StageKind::Join { .. } => {
                        let key = project_row(&input.key_exprs, row)?;
                        emit(key_codec.pair(&key, &tag_row(input.tag, &value)))?;
                    }
                    StageKind::Aggregate { .. } => {
                        let key = project_row(&input.key_exprs, row)?;
                        if partial {
                            let agg = aggregator.as_ref().ok_or_else(|| {
                                HdmError::Plan("aggregate stage without an aggregator".into())
                            })?;
                            hash_agg.update_row(agg, key, &value);
                        } else {
                            emit(key_codec.pair(&key, &value))?;
                        }
                    }
                    StageKind::Sort { .. } => {
                        let key = project_row(&input.key_exprs, row)?;
                        emit(key_codec.pair(&key, &value))?;
                    }
                }
            }
            if partial {
                let agg = aggregator.as_ref().ok_or_else(|| {
                    HdmError::Plan("aggregate stage without an aggregator".into())
                })?;
                for (key, states) in hash_agg.into_groups() {
                    emit(key_codec.pair(&key, &agg.states_to_row(&states)))?;
                }
            }
            if matches!(stage.kind, StageKind::MapOnly) {
                map_only_ctx.close(task_idx)?;
            }
            if obs.is_enabled() {
                obs.counter("stage.map.records", &stage_label)
                    .add(vol.records);
                obs.counter("stage.map.input.bytes", &stage_label)
                    .add(vol.input_bytes);
                obs.counter("vec.batches", &stage_label).add(vec_batches);
                obs.counter("text.rows.skipped", &stage_label)
                    .add(rows_skipped);
            }
            if let Some(slot) = map_vols.lock().get_mut(task_idx) {
                *slot = vol;
            }
            kv_sizes.lock().merge(&local_hist)?;
            Ok(())
        }
    };
    let map_logic: MapLogic = Arc::new(map_logic);

    // ---- the engine-agnostic reduce pipeline --------------------------------------
    let dag_sink: Option<Arc<Mutex<Vec<Row>>>> =
        if dag_mode_enabled(ctx) && stage.output == crate::physical::StageOutput::Intermediate {
            Some(Arc::new(Mutex::new(Vec::new())))
        } else {
            None
        };
    let reduce_logic = {
        let dag_sink = dag_sink.clone();
        let out_stream = ctx.out_stream.clone();
        let stage = Arc::clone(&stage_arc);
        let dfs = dfs.clone();
        let out_dir = out_dir.clone();
        let out_format = Arc::clone(&out_format);
        let out_schema = out_schema.clone();
        let out_paths = Arc::clone(&out_paths);
        let out_bytes = Arc::clone(&out_bytes);
        let aggregator = aggregator.clone();
        let key_codec = key_codec.clone();
        let raw_mode = !conf_map_aggr
            || aggregator
                .as_ref()
                .map(|a| a.has_distinct())
                .unwrap_or(false);
        let obs = ctx.obs.clone();
        let cancel = ctx.cancel.clone();
        let red_track = match ctx.engine {
            EngineKind::Hadoop => "R",
            EngineKind::DataMpi => "A",
        };
        let stage_label = format!("stage={}", stage.id);
        move |rank: usize, groups: &mut dyn GroupSource| -> Result<()> {
            let _op_span = obs.span(&format!("{red_track}{rank}"), "operator", "reduce-pipeline");
            let mut rows_out: Vec<Row> = Vec::new();
            match &stage.kind {
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
                        cancel.bail_if_cancelled()?;
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
                    having, project, ..
                } => {
                    let agg = aggregator.as_ref().ok_or_else(|| {
                        HdmError::Plan("aggregate stage without an aggregator".into())
                    })?;
                    while let Some((key, values)) = groups.next_group() {
                        cancel.bail_if_cancelled()?;
                        let key_row = key_codec.decode_key(&key)?;
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
                        cancel.bail_if_cancelled()?;
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
            if obs.is_enabled() {
                obs.counter("stage.reduce.rows", &stage_label)
                    .add(rows_out.len() as u64);
            }
            // Pipelined mode: commit this partition to the consumer
            // stage's stream — it starts (or continues) consuming
            // immediately, while sibling partitions are still reducing.
            if let Some(out) = &out_stream {
                return out.commit(rank, groups.attempt(), Arc::new(rows_out));
            }
            // DAG mode: hand the rows to the next stage in memory.
            if let Some(sink) = &dag_sink {
                sink.lock().extend(rows_out);
                return Ok(());
            }
            // Write this reducer's part file.
            let path = format!("{out_dir}part-{rank:05}");
            let mut sink =
                out_format.create(&dfs, &path, &out_schema, NodeId((rank % 7) as u32))?;
            for r in &rows_out {
                if typed_sink {
                    let cast: Row = r
                        .values()
                        .iter()
                        .zip(out_schema.fields())
                        .map(|(v, f)| v.cast_to(f.data_type))
                        .collect();
                    sink.write_row(&cast)?;
                } else {
                    sink.write_row(r)?;
                }
            }
            let bytes = sink.close()?;
            out_paths.lock().push((rank, path));
            out_bytes.lock().insert(rank, bytes);
            Ok(())
        }
    };
    let reduce_logic: ReduceLogic = Arc::new(reduce_logic);

    // ---- comparator / partitioner -----------------------------------------------
    // DESC directions are already baked into the key bytes, so raw
    // memcmp is the right order for every stage kind.
    let comparator: ComparatorRef = Arc::new(BytesComparator);
    let partitioner: PartitionerRef = match &stage.kind {
        StageKind::Sort { .. } => Arc::new(SinglePartitioner),
        _ => Arc::new(HashPartitioner),
    };

    // ---- run -------------------------------------------------------------------
    let (reduce_vols, ran_reducers) = if matches!(stage.kind, StageKind::MapOnly) {
        let faults = hdm_faults::FaultPlan::from_conf(ctx.conf, &ctx.obs)?;
        let recovery = hdm_faults::RecoveryPolicy::from_conf(ctx.conf)?;
        run_map_only(
            map_tasks,
            ctx.conf.local_threads()?,
            &map_logic,
            &faults,
            &recovery,
            &ctx.cancel,
        )?;
        (Vec::new(), 0)
    } else {
        match ctx.engine {
            EngineKind::Hadoop => run_on_hadoop(
                ctx.conf,
                &ctx.obs,
                &ctx.cancel,
                map_tasks,
                reduce_tasks,
                comparator,
                partitioner,
                Arc::clone(&map_logic),
                Arc::clone(&reduce_logic),
                Arc::clone(&map_vols),
            )?,
            EngineKind::DataMpi => run_on_datampi(
                ctx.conf,
                &ctx.obs,
                &ctx.cancel,
                map_tasks,
                reduce_tasks,
                comparator,
                partitioner,
                Arc::clone(&map_logic),
                Arc::clone(&reduce_logic),
                Arc::clone(&map_vols),
            )?,
        }
    };

    // ---- assemble volumes --------------------------------------------------------
    let mut maps = Arc::try_unwrap(map_vols)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());
    let bytes_out = out_bytes.lock().clone();
    let mut reduces = reduce_vols;
    for (rank, rv) in reduces.iter_mut().enumerate() {
        rv.output_bytes = bytes_out.get(&rank).copied().unwrap_or(0);
    }
    // Map-only: attribute outputs to the map volumes' spill channel so
    // the timing model charges the write.
    if matches!(stage.kind, StageKind::MapOnly) {
        for (t, vol) in maps.iter_mut().enumerate() {
            vol.spill_bytes += bytes_out.get(&t).copied().unwrap_or(0);
        }
    }

    let mut paths: Vec<(usize, String)> = out_paths.lock().clone();
    paths.sort();
    // A re-executed reduce attempt (fault recovery) registers its part
    // file again; the path is deterministic per rank, so dedup is exact.
    paths.dedup();
    let kv_sizes = kv_sizes.lock().clone();
    let mem_output = dag_sink.map(|sink| {
        Arc::new(
            Arc::try_unwrap(sink)
                .map(|m| m.into_inner())
                .unwrap_or_else(|arc| arc.lock().clone()),
        )
    });
    Ok(StageResult {
        output_paths: paths.into_iter().map(|(_, p)| p).collect(),
        volumes: JobVolumes {
            name: format!("q{}-stage{}", ctx.query_id, stage.id),
            maps,
            reduces,
        },
        map_tasks,
        reduce_tasks: ran_reducers,
        kv_sizes,
        mem_output,
    })
}

/// Uniform view over both engines' group iterators.
pub trait GroupSource {
    /// Next `(key, values)` group in comparator order.
    fn next_group(&mut self) -> Option<(Bytes, Vec<Bytes>)>;

    /// Which recovery attempt of this reduce/A task is running (0 for
    /// the first). Streamed commits carry it so a replayed partition
    /// cannot regress a fresher one.
    fn attempt(&self) -> u32 {
        0
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
}

/// Hadoop adapter: `ExecMapper`/`ExecReducer` wiring.
#[allow(clippy::too_many_arguments)]
fn run_on_hadoop(
    conf: &JobConf,
    obs: &hdm_obs::ObsHandle,
    cancel: &hdm_common::CancelToken,
    map_tasks: usize,
    reduce_tasks: usize,
    comparator: ComparatorRef,
    partitioner: PartitionerRef,
    map_logic: MapLogic,
    reduce_logic: ReduceLogic,
    map_vols: Arc<Mutex<Vec<MapVolume>>>,
) -> Result<(Vec<ReduceVolume>, usize)> {
    let config = MapRedConfig {
        map_tasks,
        reduce_tasks,
        sort_buffer_bytes: conf.get_i64(hdm_common::conf::KEY_SORT_BUFFER_BYTES, 1 << 20)? as usize,
        concurrency: conf.local_threads()?,
        obs: obs.clone(),
        faults: hdm_faults::FaultPlan::from_conf(conf, obs)?,
        recovery: hdm_faults::RecoveryPolicy::from_conf(conf)?,
        cancel: cancel.clone(),
    };
    let outcome = run_mapreduce(
        &config,
        comparator,
        partitioner,
        Arc::new(move |rank, ctx: &mut hdm_mapred::MapContext| {
            map_logic(rank, &mut |kv| ctx.collect(kv))
        }),
        Arc::new(move |rank, ctx: &mut hdm_mapred::ReduceContext| reduce_logic(rank, ctx)),
    )?;
    // Fold the engine's shuffle measurements into the volumes.
    {
        let mut maps = map_vols.lock();
        for (m, stats) in outcome.report.map_tasks.iter().enumerate() {
            let Some(mv) = maps.get_mut(m) else { continue };
            mv.spill_bytes += stats.spill.spill_bytes;
            mv.shuffle_bytes_per_dst = outcome
                .report
                .reduce_tasks
                .iter()
                .map(|red| red.shuffled_from.get(m).copied().unwrap_or(0))
                .collect();
        }
    }
    let reduces = outcome
        .report
        .reduce_tasks
        .iter()
        .map(|r| ReduceVolume {
            shuffle_bytes_from: r.shuffled_from.clone(),
            records: r.records,
            output_bytes: 0, // filled by caller
            spilled_fraction: 1.0,
        })
        .collect();
    Ok((reduces, reduce_tasks))
}

/// DataMPI adapter: `DataMPIHiveApplication` + `DataMPICollector` wiring.
#[allow(clippy::too_many_arguments)]
fn run_on_datampi(
    conf: &JobConf,
    obs: &hdm_obs::ObsHandle,
    cancel: &hdm_common::CancelToken,
    o_tasks: usize,
    a_tasks: usize,
    comparator: ComparatorRef,
    partitioner: PartitionerRef,
    map_logic: MapLogic,
    reduce_logic: ReduceLogic,
    map_vols: Arc<Mutex<Vec<MapVolume>>>,
) -> Result<(Vec<ReduceVolume>, usize)> {
    let style =
        ShuffleStyle::parse(&conf.get_str(hdm_common::conf::KEY_SHUFFLE_STYLE, "nonblocking"))
            .ok_or_else(|| HdmError::Config("bad datampi.shuffle.style".into()))?;
    let worker_mem = conf.get_i64(hdm_common::conf::KEY_WORKER_MEM_BYTES, 64 << 20)? as f64;
    let config = DataMpiConfig {
        o_tasks,
        a_tasks,
        o_slots: conf.local_threads()?,
        shuffle_style: style,
        send_partition_bytes: conf.get_i64(hdm_common::conf::KEY_SEND_PARTITION_BYTES, 16 << 10)?
            as usize,
        send_queue_len: conf.send_queue_len()?,
        mem_budget_bytes: (worker_mem * conf.mem_used_percent()?) as usize,
        channel_capacity: 1024,
        obs: obs.clone(),
        faults: hdm_faults::FaultPlan::from_conf(conf, obs)?,
        recovery: hdm_faults::RecoveryPolicy::from_conf(conf)?,
        cancel: cancel.clone(),
    };
    let outcome = run_bipartite(
        &config,
        comparator,
        partitioner,
        Arc::new(move |rank, ctx: &mut hdm_datampi::OContext| {
            // The DataMPICollector: collect() = MPI_D_send().
            map_logic(rank, &mut |kv| ctx.send(kv))
        }),
        Arc::new(move |rank, ctx: &mut hdm_datampi::AContext| reduce_logic(rank, ctx)),
    )?;
    // link_bytes[src][dst] over world ranks (O = 0..o, A = o..o+a).
    {
        let mut maps = map_vols.lock();
        for (o, vol) in maps.iter_mut().enumerate() {
            vol.shuffle_bytes_per_dst = (0..a_tasks)
                .map(|a| {
                    outcome
                        .report
                        .link_bytes
                        .get(o)
                        .and_then(|row| row.get(o_tasks + a))
                        .copied()
                        .unwrap_or(0)
                })
                .collect();
        }
    }
    let reduces = outcome
        .report
        .a_tasks
        .iter()
        .enumerate()
        .map(|(a, stats)| ReduceVolume {
            shuffle_bytes_from: (0..o_tasks)
                .map(|o| {
                    outcome
                        .report
                        .link_bytes
                        .get(o)
                        .and_then(|row| row.get(o_tasks + a))
                        .copied()
                        .unwrap_or(0)
                })
                .collect(),
            records: stats.records,
            output_bytes: 0,
            spilled_fraction: if stats.bytes == 0 {
                0.0
            } else {
                stats.spill.spill_bytes as f64 / stats.bytes as f64
            },
        })
        .collect();
    Ok((reduces, a_tasks))
}

/// Run a map-only stage: a simple wave of map tasks (both engines
/// behave identically here, modulo startup — which the timing model
/// owns). With fault tolerance on, a failed task (e.g. an injected
/// transient split-read error) is re-attempted under the recovery
/// policy; the task's buffered output is reset at the start of every
/// attempt, so replay is idempotent.
fn run_map_only(
    map_tasks: usize,
    threads: usize,
    map_logic: &MapLogic,
    faults: &hdm_faults::FaultPlan,
    recovery: &hdm_faults::RecoveryPolicy,
    cancel: &hdm_common::CancelToken,
) -> Result<()> {
    let errors: Mutex<Vec<HdmError>> = Mutex::new(Vec::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let next = &next;
        let errors = &errors;
        for _ in 0..map_tasks.min(threads) {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= map_tasks {
                    break;
                }
                let site = hdm_faults::Site::MapTask;
                let run = hdm_faults::supervise(faults, recovery, cancel, site, i, None, |_, _| {
                    let mut sink_err = |_kv: KvPair| -> Result<()> {
                        Err(HdmError::Plan("map-only stage must not emit KVs".into()))
                    };
                    map_logic(i, &mut sink_err)
                });
                if let Err(e) = run {
                    errors.lock().push(e);
                }
            });
        }
    });
    match errors.into_inner().into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Per-map-task file sink for map-only stages.
struct MapOnlySink {
    dfs: Dfs,
    out_dir: String,
    out_format: Arc<dyn FileFormat>,
    out_schema: Schema,
    typed: bool,
    out_paths: Arc<Mutex<Vec<(usize, String)>>>,
    out_bytes: Arc<Mutex<HashMap<usize, u64>>>,
    buffers: Arc<Mutex<HashMap<usize, Vec<Row>>>>,
    /// Pipelined mode: commit each task's buffered rows as a stream
    /// partition on close instead of writing a part file.
    out_stream: Option<crate::stream::StreamedIntermediate>,
}

impl MapOnlySink {
    /// Drop any rows a previous (failed) attempt of this task buffered.
    fn reset(&self, task: usize) {
        self.buffers.lock().remove(&task);
    }

    fn write(&self, task: usize, row: &Row) -> Result<()> {
        self.buffers
            .lock()
            .entry(task)
            .or_default()
            .push(row.clone());
        Ok(())
    }

    fn close(&self, task: usize) -> Result<()> {
        let rows = self.buffers.lock().remove(&task).unwrap_or_default();
        if let Some(out) = &self.out_stream {
            // Map-only attempts reset their buffer on replay and only
            // reach close() after a clean run, so attempt 0 is always
            // the right tag: a replayed commit reproduces the same rows.
            return out.commit(task, 0, Arc::new(rows));
        }
        let path = format!("{}part-{task:05}", self.out_dir);
        let mut sink = self.out_format.create(
            &self.dfs,
            &path,
            &self.out_schema,
            NodeId((task % 7) as u32),
        )?;
        for r in &rows {
            if self.typed {
                let cast: Row = r
                    .values()
                    .iter()
                    .zip(self.out_schema.fields())
                    .map(|(v, f)| v.cast_to(f.data_type))
                    .collect();
                sink.write_row(&cast)?;
            } else {
                sink.write_row(r)?;
            }
        }
        let bytes = sink.close()?;
        self.out_paths.lock().push((task, path));
        self.out_bytes.lock().insert(task, bytes);
        Ok(())
    }
}

/// Infer an output schema from materialized rows (first non-null value
/// per column decides the type; all-null columns become STRING).
pub fn infer_schema(rows: &[Row], names: &[String]) -> Schema {
    let width = names.len().max(rows.first().map(Row::len).unwrap_or(0));
    let mut types = vec![None; width];
    for row in rows {
        if types.iter().all(Option::is_some) {
            break;
        }
        for (slot, v) in types.iter_mut().zip(row.values()) {
            if slot.is_none() {
                *slot = v.data_type();
            }
        }
    }
    Schema::new(
        types
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let name = names.get(i).cloned().unwrap_or_else(|| format!("_c{i}"));
                (name, t.unwrap_or(DataType::String))
            })
            .collect::<Vec<_>>(),
    )
}

/// Read back a collect/intermediate output into rows.
///
/// # Errors
/// Propagates DFS/decoding failures.
pub fn read_seq_outputs(dfs: &Dfs, paths: &[String]) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for p in paths {
        for kv in hdm_storage::seq::read_all(dfs, p)? {
            out.push(Row::decode(&mut kv.value.clone())?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::value::Value;

    #[test]
    fn infer_schema_from_rows() {
        let rows = vec![
            Row::from(vec![Value::Null, Value::Str("x".into())]),
            Row::from(vec![Value::Long(1), Value::Str("y".into())]),
        ];
        let s = infer_schema(&rows, &["a".into(), "b".into()]);
        assert_eq!(s.field(0).data_type, DataType::Long);
        assert_eq!(s.field(1).data_type, DataType::String);
    }

    #[test]
    fn infer_schema_empty_rows_defaults_string() {
        let s = infer_schema(&[], &["a".into()]);
        assert_eq!(s.field(0).data_type, DataType::String);
    }

    #[test]
    fn engine_names() {
        assert_eq!(EngineKind::Hadoop.name(), "hadoop");
        assert_eq!(EngineKind::DataMpi.name(), "datampi");
    }
}
