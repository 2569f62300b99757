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
//! There is one seam, [`execute_stage`]`(stage, &ctx) -> StageResult`,
//! and it is a short orchestrator over four engine-agnostic units:
//!
//! 1. **task planning** (`plan`): `plan_tasks` enumerates the stage's
//!    units as `TaskInput`s — a file split, a stream partition, or
//!    nothing — and groups them into at most `2·W` map/O tasks per
//!    input (a stream input into its producer's ranges), and
//!    `reducer_count` decides the number of reduce partitions from
//!    their total size;
//! 2. **the map pipeline** (`map`): reads a task's units one after
//!    another and cuts every input — columns a columnar reader decoded,
//!    rows off a file, rows a stream handed over — into batches for
//!    one set of kernels ([`crate::batch`]): filter, map-side join
//!    steps, projection, and one `route` of every projected
//!    `(key, value)` — to the unit's own output rows, the shuffle, or
//!    the partial-aggregation table;
//! 3. **the reduce pipeline** (`reduce`): the Join / Aggregate / Sort
//!    group loops over either engine's `GroupSource`, once per
//!    partition; the engines cut the partitions into reduce/A tasks by
//!    their measured shuffle bytes (DESIGN.md §29);
//! 4. **the partition sink** (`sink`): one `commit(rank, attempt, rows)`
//!    whose target — the consumer's stream or a part file — is
//!    chosen once per stage. Map-only units and reduce partitions commit
//!    the same way.
//!
//! The query semantics live in [`crate::operators`] and [`crate::batch`];
//! the only engine-specific code is `hadoop.rs` and `datampi.rs`, which
//! wire a [`StageJob`] into the engine's job runner — the reproduction
//! of the paper's Table III productivity claim.
//!
//! Every stage execution also measures its data volumes
//! ([`hdm_cluster::JobVolumes`]) so the discrete-event cluster model can
//! replay the stage at paper scale.

mod datampi;
mod hadoop;
mod map;
mod plan;
mod reduce;
mod sink;

use crate::operators::Aggregator;
use crate::physical::{StageKind, StagePlan};
use crate::stream::StreamedIntermediate;
use hdm_cluster::{JobVolumes, MapVolume};
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{BytesComparator, ComparatorRef};
use hdm_common::partition::{HashPartitioner, PartitionerRef, SinglePartitioner};
use hdm_common::row::{Row, Schema};
use hdm_common::stats::Histogram;
use hdm_common::value::Value;
use hdm_dfs::Dfs;
use hdm_faults::{FaultPlan, RecoveryPolicy};
use hdm_storage::FileFormat;
use parking_lot::Mutex;
use sink::PartitionSink;
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
    pub conf: &'a hdm_common::conf::JobConf,
    /// Which engine to run on.
    pub engine: EngineKind,
    /// Output part files of earlier stages, by stage id.
    pub intermediates: &'a HashMap<usize, Vec<String>>,
    /// Always empty and read by nothing: `Infallible` values mean no
    /// entry can exist (DESIGN.md §27). The field stays only because the
    /// standalone `benchmark/` package still builds a `StageContext`
    /// with it; the next change to that package removes both.
    pub dag_intermediates: &'a HashMap<usize, std::convert::Infallible>,
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

/// What one executed stage produced.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Output part files (intermediate/collect) in rank order.
    pub output_paths: Vec<String>,
    /// Measured data volumes for the timing model.
    pub volumes: JobVolumes,
    /// Number of map/O tasks that ran (each reads one or more units:
    /// the volumes have one map entry per unit).
    pub map_tasks: usize,
    /// Number of reduce/A tasks that ran (each runs one or more
    /// partitions: the volumes have one reduce entry per partition).
    pub reduce_tasks: usize,
    /// Wire-size distribution of the shuffled key-value pairs — the
    /// Figure 2(c)/(d) signal.
    pub kv_sizes: hdm_common::stats::Histogram,
}

/// How ReduceSink keys travel on the wire: key rows are written in the
/// order-preserving [`hdm_common::sortkey`] encoding — Hive's
/// `BinarySortableSerDe` analogue — with any Sort-stage DESC directions
/// baked into the bytes, so both engines' sort/merge/group paths compare
/// raw bytes ([`BytesComparator`]) instead of decoding rows on every
/// comparison.
struct KeyCodec {
    /// Per-column ascending flags (Sort stages; empty = all ascending).
    ascending: Vec<bool>,
}

impl KeyCodec {
    fn of(kind: &StageKind) -> KeyCodec {
        let ascending = match kind {
            StageKind::Sort { ascending, .. } => ascending.clone(),
            _ => Vec::new(),
        };
        KeyCodec { ascending }
    }

    /// Encode one projected `(key, value)` into the reused `wire`
    /// buffers, straight from its cells — wherever they live, a `Row` or
    /// batch columns: the key in the sort-key encoding, the value cells
    /// as [`Row::encode`] writes a row, behind their input's `tag` when
    /// the stage is a join (`[varint n+1][Long tag][cells…]`).
    fn encode<'v>(
        &self,
        key: impl Iterator<Item = &'v Value>,
        tag: Option<u8>,
        value: impl ExactSizeIterator<Item = &'v Value>,
        wire: &mut (Vec<u8>, Vec<u8>),
    ) {
        let (kb, vb) = wire;
        kb.clear();
        vb.clear();
        hdm_common::sortkey::encode_cells_into(kb, key, &self.ascending);
        match tag {
            Some(tag) => crate::operators::encode_tagged(vb, tag, value),
            None => hdm_common::row::encode_cells(vb, value),
        }
    }

    /// Decode a wire key back into its row.
    fn decode_key(&self, key: &[u8]) -> Result<Row> {
        hdm_common::sortkey::decode_row_directed(key, &self.ascending)
    }
}

/// Everything the tasks of one stage share, built once per stage: what
/// the map/O tasks (`run_map`, in `map.rs`) and the reduce/A tasks
/// (`run_reduce`, in `reduce.rs`) carry into the engine's threads.
struct StagePipeline {
    stage: StagePlan,
    units: Vec<plan::Unit>,
    /// The units each map/O task reads.
    tasks: Vec<std::ops::Range<usize>>,
    /// The stage's input volume: the size hint a pipelined producer
    /// declares with its ranges.
    input_bytes: u64,
    /// Per stage input: the file format and the schema rows are read with.
    formats: Vec<(Arc<dyn FileFormat>, Schema)>,
    /// Per stage input, per map-side join step: the shared hash table.
    builds: Vec<Vec<map::SharedBuild>>,
    dfs: Dfs,
    in_streams: HashMap<usize, StreamedIntermediate>,
    pushdown: bool,
    /// Which reader a scan uses: columnar for a format that has one
    /// (ORC, Text), else rows. Either feeds the same batch kernels.
    vectorized: bool,
    batch_size: usize,
    /// Map-side partial aggregation (Hive's hash-GBY operator): set for
    /// an Aggregate stage with `hive.map.aggr` on and no DISTINCT. The
    /// reduce side then merges states instead of folding raw inputs.
    partial: Option<Aggregator>,
    key_codec: KeyCodec,
    sink: PartitionSink,
    obs: hdm_obs::ObsHandle,
    cancel: hdm_common::CancelToken,
    engine: EngineKind,
    stage_label: String,
    /// Per unit, recorded as each task finishes (the shuffle bytes per
    /// partition included).
    map_vols: Mutex<Vec<MapVolume>>,
    /// Wire sizes of every emitted pair.
    kv_sizes: Mutex<Histogram>,
}

impl StagePipeline {
    /// Configuration errors (`hive.vectorized.*`, `hive.map.aggr`)
    /// surface here, before any task runs.
    fn new(stage: &StagePlan, planned: plan::PlannedTasks, ctx: &StageContext<'_>) -> Result<Self> {
        let map_aggr = ctx.conf.get_bool(hdm_common::conf::KEY_COMBINER, true)?;
        let partial = match &stage.kind {
            StageKind::Aggregate { aggs, .. } if map_aggr => {
                Some(Aggregator::new(aggs.clone())).filter(|a| !a.has_distinct())
            }
            _ => None,
        };
        Ok(StagePipeline {
            pushdown: planned.pushdown,
            vectorized: ctx.conf.vectorized_enabled()?,
            batch_size: ctx.conf.vectorized_batch_size()?,
            partial,
            key_codec: KeyCodec::of(&stage.kind),
            sink: PartitionSink::for_stage(stage, ctx),
            map_vols: Mutex::new(vec![MapVolume::default(); planned.units.len()]),
            kv_sizes: Mutex::new(Histogram::with_width(hdm_obs::KV_HIST_BUCKET)),
            units: planned.units,
            tasks: planned.tasks,
            input_bytes: planned.input_bytes,
            formats: planned.formats,
            builds: planned
                .builds
                .into_iter()
                .map(|steps| steps.into_iter().map(map::SharedBuild::new).collect())
                .collect(),
            dfs: ctx.dfs.clone(),
            in_streams: ctx.in_streams.clone(),
            obs: ctx.obs.clone(),
            cancel: ctx.cancel.clone(),
            engine: ctx.engine,
            stage_label: format!("stage={}", stage.id),
            stage: stage.clone(),
        })
    }
}

/// One stage's shuffle job, as an engine adapter sees it: the map task
/// and reduce partition counts, how many bytes a reduce task takes on,
/// the shuffle order and partitioning, the pipeline to call from the
/// engine's task closures, and the session's fault/recovery settings.
struct StageJob<'a> {
    ctx: &'a StageContext<'a>,
    map_tasks: usize,
    partitions: usize,
    /// `None`: one reduce/A task per partition (`hive.datampi.parallelism
    /// = enhanced` asked for that many). Else measured: the engine cuts
    /// the partitions into tasks of about this many shuffled bytes.
    bytes_per_reduce_task: Option<u64>,
    comparator: ComparatorRef,
    partitioner: PartitionerRef,
    pipeline: Arc<StagePipeline>,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
}

/// Execute one stage on the configured engine.
///
/// # Errors
/// Propagates planning/IO/engine failures.
pub fn execute_stage(stage: &StagePlan, ctx: &StageContext<'_>) -> Result<StageResult> {
    let planned = plan::plan_tasks(stage, ctx)?;
    let input_bytes = planned.input_bytes;
    let map_tasks = planned.tasks.len();
    let slots = ctx.conf.slots_per_node()? * 7;
    let per_reducer = ctx
        .conf
        .get_i64(hdm_common::conf::KEY_BYTES_PER_REDUCER, 32 << 10)?;
    let per_reducer = per_reducer.max(1) as u64;
    let parallelism = ctx.conf.parallelism()?;
    let partitions = plan::reducer_count(
        &stage.kind,
        stage.is_last,
        parallelism,
        input_bytes,
        per_reducer,
        slots,
    );
    let map_only = matches!(stage.kind, StageKind::MapOnly);
    // A pipelined map-only producer's tasks are its map tasks, known
    // now: the consumer can plan its own and start pulling while this
    // stage runs. A shuffle stage's reduce side declares its ranges once
    // the engine has measured them (`run_reduce`).
    if let (Some(out), true) = (&ctx.out_stream, map_only) {
        out.declare_ranges(&planned.tasks, input_bytes);
    }
    let units = planned.units.len();
    let job = StageJob {
        ctx,
        map_tasks,
        partitions,
        bytes_per_reduce_task: (parallelism == hdm_common::conf::Parallelism::Default)
            .then_some(per_reducer),
        // DESC directions are already baked into the key bytes, so raw
        // memcmp is the right order for every stage kind.
        comparator: Arc::new(BytesComparator),
        partitioner: match &stage.kind {
            StageKind::Sort { .. } => Arc::new(SinglePartitioner),
            _ => Arc::new(HashPartitioner),
        },
        pipeline: Arc::new(StagePipeline::new(stage, planned, ctx)?),
        faults: FaultPlan::from_conf(ctx.conf, &ctx.obs)?,
        recovery: RecoveryPolicy::from_conf(ctx.conf)?,
    };
    let (mut reduces, reduce_tasks) = if map_only {
        run_map_only(&job)?;
        (Vec::new(), 0)
    } else {
        match ctx.engine {
            EngineKind::Hadoop => hadoop::run_on_hadoop(&job)?,
            EngineKind::DataMpi => datampi::run_on_datampi(&job)?,
        }
    };

    let mut maps = std::mem::take(&mut *job.pipeline.map_vols.lock());
    let written = job.pipeline.sink.finish();
    let bytes_of = |rank: usize| written.get(&rank).map_or(0, |(_, bytes)| *bytes);
    for (p, rv) in reduces.iter_mut().enumerate() {
        rv.shuffle_bytes_from = (maps.iter())
            .map(|m| m.shuffle_bytes_per_dst.get(p).copied().unwrap_or(0))
            .collect();
        rv.output_bytes = bytes_of(p);
    }
    // Map-only: attribute outputs to the map volumes' spill channel so
    // the timing model charges the write.
    if map_only {
        for (u, vol) in maps.iter_mut().enumerate() {
            vol.spill_bytes += bytes_of(u);
        }
    }
    let count = |name, n| ctx.obs.count(name, &job.pipeline.stage_label, n);
    count("stage.map.tasks", map_tasks as u64);
    count("stage.map.units", units as u64);
    count("stage.reduce.tasks", reduce_tasks as u64);
    count("stage.partitions", reduces.len() as u64);
    let kv_sizes = job.pipeline.kv_sizes.lock().clone();
    Ok(StageResult {
        output_paths: written.values().map(|(p, _)| p.clone()).collect(),
        volumes: JobVolumes {
            name: format!("q{}-stage{}", ctx.query_id, stage.id),
            maps,
            reduces,
        },
        map_tasks,
        reduce_tasks,
        kv_sizes,
    })
}

/// Run a map-only stage: a simple wave of map tasks (both engines
/// behave identically here, modulo startup — which the timing model
/// owns). With fault tolerance on, a failed task (e.g. an injected
/// transient split-read error) is re-attempted under the recovery
/// policy; a unit's rows are committed to the unit's own part file, so
/// replay is idempotent.
fn run_map_only(job: &StageJob<'_>) -> Result<()> {
    let map_tasks = job.map_tasks;
    let threads = job.ctx.conf.local_threads()?;
    let (faults, recovery, cancel) = (&job.faults, &job.recovery, &job.ctx.cancel);
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
                    job.pipeline.run_map(i, &mut map::NoShuffle)
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

/// Read back a collect/intermediate output into rows.
///
/// # Errors
/// Propagates DFS/decoding failures.
pub fn read_seq_outputs(dfs: &Dfs, paths: &[String]) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for p in paths {
        hdm_storage::seq::read_rows(dfs, p, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::physical::{plan_select, QueryPlan, StageOutput};

    /// A session plus the (empty unless a test fills them) hand-off maps
    /// a [`StageContext`] borrows.
    pub(super) struct Fixture {
        pub(super) d: Driver,
        pub(super) intermediates: HashMap<usize, Vec<String>>,
        pub(super) dag_intermediates: HashMap<usize, std::convert::Infallible>,
        pub(super) in_streams: HashMap<usize, StreamedIntermediate>,
    }

    impl Fixture {
        pub(super) fn new(setup_sql: &str) -> Fixture {
            let d = Driver::in_memory();
            d.execute(setup_sql).expect("fixture setup");
            Fixture {
                d,
                intermediates: HashMap::new(),
                dag_intermediates: HashMap::new(),
                in_streams: HashMap::new(),
            }
        }

        pub(super) fn ctx(&self, engine: EngineKind) -> StageContext<'_> {
            StageContext {
                dfs: self.d.dfs(),
                metastore: self.d.metastore(),
                conf: self.d.conf(),
                engine,
                intermediates: &self.intermediates,
                dag_intermediates: &self.dag_intermediates,
                in_streams: &self.in_streams,
                out_stream: None,
                query_id: 9_000_000,
                obs: hdm_obs::ObsHandle::disabled(),
                cancel: hdm_common::CancelToken::default(),
            }
        }

        pub(super) fn plan(&self, sql: &str, sink: StageOutput) -> QueryPlan {
            let stmts = crate::parser::parse_script(sql).expect("parse");
            let crate::ast::Statement::Select(q) = &stmts[0] else {
                panic!("not a select: {sql}");
            };
            let qb = crate::logical::analyze(q, self.d.metastore()).expect("analyze");
            plan_select(&qb, sink).expect("plan")
        }
    }

    /// No TPC-H query has a map-only stage, so the chaos suites never
    /// replay one: a map-only task whose split read fails transiently
    /// is re-attempted, and the output holds every row exactly once.
    #[test]
    fn a_replayed_map_only_task_commits_its_rows_once() {
        use hdm_common::conf as keys;
        let mut fx = Fixture::new(
            "CREATE TABLE t (k BIGINT, v BIGINT); \
             INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
        );
        let sql = "SELECT k, v FROM t WHERE v > 10";
        let clean = fx.d.execute(sql).expect("clean run").to_lines();
        assert_eq!(clean.len(), 3);
        // A seed whose plan marks the table's part file flaky: its first
        // read(s) fail, then it heals.
        let parts = fx.d.metastore().storage.parts(fx.d.dfs(), "t");
        let seed = (0..4096u64)
            .find(|&seed| {
                let probe = FaultPlan::with_seed(seed);
                parts.iter().any(|p| probe.storage_error(p).is_some())
            })
            .expect("a seed with a flaky part file");
        let conf = fx.d.conf_mut();
        conf.set(keys::KEY_OBS_ENABLED, true);
        conf.set(keys::KEY_FT_ENABLED, true);
        conf.set(keys::KEY_FT_SEED, seed);
        conf.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            let r = fx.d.execute_on(sql, engine).expect("faulted run");
            assert_eq!(r.to_lines(), clean, "{engine:?}");
            let snap = fx.d.last_obs_snapshot().expect("obs snapshot");
            let retries = snap.counters.iter().filter(|(n, _, _)| n == "ft.retries");
            assert!(retries.map(|(_, _, v)| *v).sum::<u64>() >= 1, "{engine:?}");
        }
    }

    /// Runs a keyed aggregate (a shuffle stage on either engine) with
    /// `key = value` and expects the engine that reads the key to refuse
    /// it as a configuration error naming the key.
    fn assert_config_error(key: &str, value: i64, engine: EngineKind) {
        let mut fx = Fixture::new(
            "CREATE TABLE t (k BIGINT, v BIGINT); INSERT INTO t VALUES (1, 10), (2, 20)",
        );
        fx.d.conf_mut().set(key, value);
        let sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k";
        let err = match fx.d.execute_on(sql, engine) {
            Ok(_) => panic!("{key} = {value} ran on {engine:?}"),
            Err(e) => e,
        };
        assert!(matches!(err, HdmError::Config(_)), "{key} = {value}: {err}");
        assert!(err.message().contains(key), "{err}");
    }

    /// Zero slots would give `reducer_count`'s clamp a max below its min,
    /// and a negative count would overflow `usize::MAX * 7`.
    #[test]
    fn slots_per_node_below_one_is_a_config_error() {
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            for bad in [0, -1] {
                assert_config_error(hdm_common::conf::KEY_SLOTS_PER_NODE, bad, engine);
            }
        }
    }

    /// Read as `usize`, a negative size would be a buffer that never
    /// spills.
    #[test]
    fn negative_sort_buffer_bytes_is_a_config_error() {
        let key = hdm_common::conf::KEY_SORT_BUFFER_BYTES;
        assert_config_error(key, -1, EngineKind::Hadoop);
    }

    #[test]
    fn negative_send_partition_bytes_is_a_config_error() {
        let key = hdm_common::conf::KEY_SEND_PARTITION_BYTES;
        assert_config_error(key, -1, EngineKind::DataMpi);
    }

    #[test]
    fn negative_worker_mem_bytes_is_a_config_error() {
        let key = hdm_common::conf::KEY_WORKER_MEM_BYTES;
        assert_config_error(key, -1, EngineKind::DataMpi);
    }

    #[test]
    fn engine_names() {
        assert_eq!(EngineKind::Hadoop.name(), "hadoop");
        assert_eq!(EngineKind::DataMpi.name(), "datampi");
    }
}
