//! The Hive Driver: session state + statement execution.
//!
//! Owns the DFS handle, the Metastore, and the session `JobConf`
//! (including the paper's `hive.datampi.*` knobs), compiles statements
//! through the parser → analyzer → planner pipeline, executes stage DAGs
//! on the selected engine, and returns result rows plus the measured
//! per-stage volumes that drive the cluster timing model.

pub use crate::engine::EngineKind;

use crate::ast::Statement;
use crate::catalog::Metastore;
use crate::engine::{execute_stage, read_seq_outputs, StageContext, StageResult};
use crate::expr::compile_expr;
use crate::logical::analyze;
use crate::parser::parse_script;
use crate::physical::{plan_select, StageOutput};
use hdm_cluster::{simulate_datampi, simulate_hadoop, ClusterSpec, DataMpiSimOptions, JobTimeline};
use hdm_common::conf::JobConf;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Row;
use hdm_common::CancelToken;
use hdm_dfs::{Dfs, DfsConfig, NodeId};
use hdm_storage::format_for;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The result of one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Result rows (empty for DDL / inserts).
    pub rows: Vec<Row>,
    /// Output column names.
    pub columns: Vec<String>,
    /// Per-stage execution measurements (empty for DDL).
    pub stages: Vec<StageResult>,
}

impl QueryResult {
    /// Render rows as tab-separated lines (Hive CLI style).
    pub fn to_lines(&self) -> Vec<String> {
        self.rows.iter().map(|r| r.to_string()).collect()
    }
}

/// A Hive session.
///
/// Execution is `&self` throughout: statements mutate only shared,
/// interior-mutable state (the DFS namespace, the metastore catalog).
/// [`Driver::session`] derives another session over the *same* executor
/// state — same filesystem, same catalog, same query-id counter — with
/// its own conf and engine selection, which is what lets hdm-server run
/// many sessions concurrently against one warehouse.
#[derive(Debug)]
pub struct Driver {
    dfs: Dfs,
    metastore: Metastore,
    conf: JobConf,
    engine: EngineKind,
    /// Shared across sessions of one executor: `/tmp/q{id}` scratch
    /// directories must be unique across *all* concurrent queries on the
    /// same DFS, not merely within one session.
    next_query_id: Arc<AtomicU64>,
    last_obs: Mutex<Option<hdm_obs::ObsSnapshot>>,
}

impl Driver {
    /// A driver over an existing filesystem.
    pub fn new(dfs: Dfs) -> Driver {
        Driver {
            dfs,
            metastore: Metastore::new(),
            conf: JobConf::new(),
            engine: EngineKind::Hadoop,
            next_query_id: Arc::new(AtomicU64::new(1)),
            last_obs: Mutex::new(None),
        }
    }

    /// A self-contained driver with a small-block in-memory DFS —
    /// convenient for tests and examples (small blocks mean even tiny
    /// tables produce several splits, i.e. several map tasks).
    pub fn in_memory() -> Driver {
        Driver::new(Dfs::new(DfsConfig {
            block_size: 64 * 1024,
            replication: 2,
            num_nodes: 7,
        }))
    }

    /// The underlying filesystem.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The metastore.
    pub fn metastore(&self) -> &Metastore {
        &self.metastore
    }

    /// Mutable session configuration.
    pub fn conf_mut(&mut self) -> &mut JobConf {
        &mut self.conf
    }

    /// Session configuration.
    pub fn conf(&self) -> &JobConf {
        &self.conf
    }

    /// Set the default engine for subsequent statements.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// The current default engine.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// A new session over the same executor state: shared filesystem,
    /// shared metastore, shared query-id counter — but its own copy of
    /// the conf, its own engine selection, and its own obs snapshot slot.
    pub fn session(&self) -> Driver {
        Driver {
            dfs: self.dfs.clone(),
            metastore: self.metastore.clone(),
            conf: self.conf.clone(),
            engine: self.engine,
            next_query_id: Arc::clone(&self.next_query_id),
            last_obs: Mutex::new(None),
        }
    }

    /// The observability snapshot of the most recent query that ran with
    /// `hive.obs.enabled` — fault-tolerance counters (`ft.*`) included.
    /// `None` until an instrumented query has run.
    pub fn last_obs_snapshot(&self) -> Option<hdm_obs::ObsSnapshot> {
        self.last_obs.lock().clone()
    }

    /// Execute a script (one or more `;`-separated statements) on the
    /// default engine; returns the last statement's result.
    ///
    /// # Errors
    /// Parse/plan/execution failures.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_on(sql, self.engine)
    }

    /// Execute a script on a specific engine; returns the last
    /// statement's result.
    ///
    /// # Errors
    /// Parse/plan/execution failures.
    pub fn execute_on(&self, sql: &str, engine: EngineKind) -> Result<QueryResult> {
        self.execute_on_cancellable(sql, engine, &CancelToken::default())
    }

    /// [`Driver::execute_on`] under a cooperative [`CancelToken`]: when
    /// the token fires mid-flight the execution spine stops launching
    /// stages, drains what is running, deletes any partial warehouse
    /// output, and surfaces [`HdmError::Cancelled`]. The default token
    /// never fires and costs one relaxed load per safe-point poll.
    ///
    /// # Errors
    /// Parse/plan/execution failures, or [`HdmError::Cancelled`].
    pub fn execute_on_cancellable(
        &self,
        sql: &str,
        engine: EngineKind,
        cancel: &CancelToken,
    ) -> Result<QueryResult> {
        let stmts = parse_script(sql)?;
        if stmts.is_empty() {
            return Err(HdmError::Parse("empty statement".into()));
        }
        let mut last = QueryResult::default();
        for stmt in stmts {
            cancel.bail_if_cancelled()?;
            last = self.run_statement(stmt, engine, cancel)?;
        }
        Ok(last)
    }

    fn run_statement(
        &self,
        stmt: Statement,
        engine: EngineKind,
        cancel: &CancelToken,
    ) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                format,
                if_not_exists,
            } => {
                self.metastore
                    .create_table(&name, columns, format, if_not_exists)?;
                Ok(QueryResult::default())
            }
            Statement::DropTable { name, if_exists } => {
                self.metastore.drop_table(&self.dfs, &name, if_exists)?;
                Ok(QueryResult::default())
            }
            Statement::InsertValues { table, rows } => {
                self.insert_values(&table, rows)?;
                self.metastore.record_write(&self.dfs, &table);
                Ok(QueryResult::default())
            }
            Statement::InsertOverwrite { table, query } => {
                let meta = self.metastore.table(&table)?;
                // Overwrite semantics: clear old data first.
                self.metastore.storage.drop_table(&self.dfs, &table);
                let (stages, _) = self.run_select(
                    &query,
                    StageOutput::Table {
                        name: meta.name.clone(),
                        format: meta.format,
                    },
                    engine,
                    cancel,
                )?;
                self.metastore.record_write(&self.dfs, &table);
                Ok(QueryResult {
                    rows: Vec::new(),
                    columns: meta
                        .schema
                        .fields()
                        .iter()
                        .map(|f| f.name.clone())
                        .collect(),
                    stages,
                })
            }
            Statement::CreateTableAs {
                name,
                format,
                query,
            } => {
                if self.metastore.contains(&name) {
                    return Err(HdmError::Plan(format!("table already exists: {name}")));
                }
                let qb = analyze(&query, &self.metastore)?;
                // Output schema from static type inference.
                let plan = plan_select(
                    &qb,
                    StageOutput::Table {
                        name: name.clone(),
                        format,
                    },
                )?;
                let last = plan
                    .stages
                    .last()
                    .ok_or_else(|| HdmError::Plan("CTAS produced an empty plan".into()))?;
                let columns: Vec<(String, hdm_common::value::DataType)> = last
                    .out_names
                    .iter()
                    .cloned()
                    .zip(last.out_types.iter().copied())
                    .collect();
                self.metastore.create_table(&name, columns, format, false)?;
                let stages = self.execute_plan(&plan, engine, cancel)?;
                // The CTAS data landed after the create bumped the
                // version; bump again so results cached against the
                // still-empty table cannot survive.
                self.metastore.record_write(&self.dfs, &name);
                Ok(QueryResult {
                    rows: Vec::new(),
                    columns: last.out_names.clone(),
                    stages,
                })
            }
            Statement::Select(query) => {
                let (stages, collected) =
                    self.run_select(&query, StageOutput::Collect, engine, cancel)?;
                let (rows, columns) = collected
                    .ok_or_else(|| HdmError::Plan("collect sink returned no result rows".into()))?;
                Ok(QueryResult {
                    rows,
                    columns,
                    stages,
                })
            }
        }
    }

    /// Plan + execute a SELECT with the given sink. Returns stage results
    /// and, for Collect sinks, the result rows.
    #[allow(clippy::type_complexity)]
    fn run_select(
        &self,
        query: &crate::ast::SelectStmt,
        sink: StageOutput,
        engine: EngineKind,
        cancel: &CancelToken,
    ) -> Result<(Vec<StageResult>, Option<(Vec<Row>, Vec<String>)>)> {
        let qb = analyze(query, &self.metastore)?;
        let mut plan = plan_select(&qb, sink.clone())?;
        for stage in &mut plan.stages {
            crate::optimizer::optimize_stage(stage);
        }
        let stages = self.execute_plan(&plan, engine, cancel)?;
        let collected = if matches!(sink, StageOutput::Collect) {
            let (last, last_plan) = match (stages.last(), plan.stages.last()) {
                (Some(s), Some(p)) => (s, p),
                _ => return Err(HdmError::Plan("SELECT produced an empty plan".into())),
            };
            let mut rows = self.collect_rows(last)?;
            // LIMIT without ORDER BY is applied here (best-effort upstream).
            if let Some(l) = qb.limit {
                rows.truncate(l as usize);
            }
            Some((rows, last_plan.out_names.clone()))
        } else {
            None
        };
        Ok((stages, collected))
    }

    /// Read a `Collect` stage's rows back and delete its part files: the
    /// rows travel on in the [`QueryResult`], and nothing else ever reads
    /// `/tmp/q{id}/result/` again.
    fn collect_rows(&self, last: &StageResult) -> Result<Vec<Row>> {
        let rows = read_seq_outputs(&self.dfs, &last.output_paths);
        for path in &last.output_paths {
            self.dfs.delete(path);
        }
        rows
    }

    fn execute_plan(
        &self,
        plan: &crate::physical::QueryPlan,
        engine: EngineKind,
        cancel: &CancelToken,
    ) -> Result<Vec<StageResult>> {
        let query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        // One obs handle per query, configured by the `hive.obs.*` knobs;
        // every layer below (engines, shuffle, receiver, DFS) records
        // into it. Disabled (the default) it is a no-op sink.
        let obs = hdm_obs::ObsHandle::from_conf(&self.conf)?;
        self.dfs.attach_obs(&obs);
        // One fault plan per query (`hive.ft.*`), shared with the DFS so
        // storage reads see the same seeded schedule as the engines.
        let faults = hdm_faults::FaultPlan::from_conf(&self.conf, &obs)?;
        self.dfs.attach_faults(&faults);
        let run = match self.run_plan_stages(plan, engine, query_id, &obs, cancel) {
            Ok(results) => Ok(results),
            // Task-level recovery inside the engine is exhausted. With
            // fault tolerance on, the driver re-runs the whole query
            // plan on the configured fallback engine (DataMPI jobs that
            // cannot recover fall back to the stock MapReduce path)
            // instead of aborting the job. A *cancelled* query never
            // falls back: the work is unwanted, not broken.
            Err(err) => {
                let fallback = self
                    .fallback_engine(engine)?
                    .filter(|_| faults.is_enabled() && !err.is_cancelled());
                match fallback {
                    None => Err(err),
                    Some(fb) => {
                        faults.note_fallback(engine.name(), fb.name());
                        self.cleanup_partial_outputs(plan, query_id);
                        let _fb_span = obs.span("driver", "recovery", "engine-fallback");
                        self.run_plan_stages(plan, fb, query_id, &obs, cancel)
                    }
                }
            }
        };
        // Disarm DFS fault injection before surfacing the outcome.
        self.dfs.attach_faults(&hdm_faults::FaultPlan::disabled());
        let results = match run {
            Ok(results) => results,
            Err(err) => {
                if err.is_cancelled() {
                    // No partial warehouse output may survive a cancelled
                    // query: scrub scratch space and any half-written
                    // table directories so a rerun starts clean.
                    self.cleanup_partial_outputs(plan, query_id);
                } else {
                    // A failed query's scratch space has no reader left.
                    self.dfs.delete_prefix(&format!("/tmp/q{query_id}/"));
                }
                return Err(err);
            }
        };
        // Clean intermediate temp files (keep the final output).
        for stage in &plan.stages {
            if stage.output == StageOutput::Intermediate {
                self.dfs
                    .delete_prefix(&format!("/tmp/q{query_id}/stage{}/", stage.id));
            }
        }
        if obs.is_enabled() {
            *self.last_obs.lock() = Some(obs.snapshot());
        }
        self.export_obs(&obs)?;
        Ok(results)
    }

    /// Execute a hand-built physical plan on a specific engine — the
    /// raw entry point for stage DAGs with genuinely parallel branches,
    /// which the SQL planner (left-deep chains) does not emit. Goes
    /// through the same scheduler, fault-fallback, obs export, and
    /// intermediate-cleanup path as compiled statements. When the last
    /// stage is a `Collect` sink, its rows are read back into the
    /// result.
    ///
    /// # Errors
    /// Rejects plans whose stage ids are not `0..n` in order (the
    /// scheduler and intermediate plumbing key on them), and propagates
    /// execution failures.
    pub fn execute_raw_plan(
        &self,
        plan: &crate::physical::QueryPlan,
        engine: EngineKind,
    ) -> Result<QueryResult> {
        if let Some((pos, stage)) = plan
            .stages
            .iter()
            .enumerate()
            .find(|(pos, stage)| stage.id != *pos)
        {
            return Err(HdmError::Plan(format!(
                "raw plan stage at position {pos} has id {}; stage ids must equal their position",
                stage.id
            )));
        }
        let stages = self.execute_plan(plan, engine, &CancelToken::default())?;
        let (rows, columns) = match (plan.stages.last(), stages.last()) {
            (Some(last_plan), Some(last)) if last_plan.output == StageOutput::Collect => {
                (self.collect_rows(last)?, last_plan.out_names.clone())
            }
            (Some(last_plan), _) => (Vec::new(), last_plan.out_names.clone()),
            _ => (Vec::new(), Vec::new()),
        };
        Ok(QueryResult {
            rows,
            columns,
            stages,
        })
    }

    /// Run every stage of a plan on one engine, threading intermediates.
    ///
    /// Stages are scheduled over the plan's dependency DAG
    /// ([`crate::physical::QueryPlan::dag`]): independent stages run
    /// concurrently on up to `hive.exec.parallel.thread.number` workers
    /// (1 = one stage at a time on this thread). Stage results come back
    /// indexed by stage id, so the returned order is identical either
    /// way.
    ///
    /// With `hive.exec.pipelined` (default on) eligible DataMPI
    /// producer→consumer edges additionally *stream*: the producer
    /// publishes each reduce partition into a bounded
    /// [`crate::stream::StreamedIntermediate`] as it commits, and the
    /// consumer — scheduled as soon as the producer *launches* (a soft
    /// edge, [`crate::sched::run_dag_pipelined`]) — pulls partitions as
    /// they land instead of reading sequence files after a barrier.
    fn run_plan_stages(
        &self,
        plan: &crate::physical::QueryPlan,
        engine: EngineKind,
        query_id: u64,
        obs: &hdm_obs::ObsHandle,
        cancel: &CancelToken,
    ) -> Result<Vec<StageResult>> {
        let threads = self.conf.exec_parallel_threads()?;
        let streams = self.plan_streams(plan, engine, obs)?;
        // Split the DAG into hard edges (consumer waits for producer
        // *completion*) and soft edges (consumer may launch once the
        // producer has launched; the stream itself synchronizes data).
        let dag = plan.dag();
        let mut hard: Vec<Vec<usize>> = Vec::with_capacity(dag.len());
        let mut soft: Vec<Vec<usize>> = Vec::with_capacity(dag.len());
        for deps in &dag {
            let (s, h): (Vec<usize>, Vec<usize>) =
                deps.iter().partition(|d| streams.contains_key(d));
            soft.push(s);
            hard.push(h);
        }
        let intermediates: Mutex<HashMap<usize, Vec<String>>> = Mutex::new(HashMap::new());
        crate::sched::run_dag_pipelined(&hard, &soft, threads, obs, cancel, |stage_id| {
            let stage = plan
                .stages
                .get(stage_id)
                .ok_or_else(|| HdmError::Plan(format!("plan has no stage {stage_id}")))?;
            // Snapshot only the upstream outputs this stage declares as
            // inputs (not the whole map — a full clone made wide plans
            // quadratic in stage count). Hard dependencies completed
            // before this stage was scheduled, so each non-streamed
            // input it will read is present, and concurrent siblings
            // publishing their own outputs cannot race the borrowed
            // maps in StageContext.
            let mut inter: HashMap<usize, Vec<String>> = HashMap::new();
            let mut in_streams: HashMap<usize, crate::stream::StreamedIntermediate> =
                HashMap::new();
            for input in &stage.inputs {
                if let crate::physical::InputSource::Stage(id) = &input.source {
                    if let Some(stream) = streams.get(id) {
                        in_streams.insert(*id, stream.clone());
                        continue;
                    }
                    if let Some(paths) = intermediates.lock().get(id) {
                        inter.insert(*id, paths.clone());
                    }
                }
            }
            let out_stream = streams.get(&stage_id).cloned();
            // The guard pins stream liveness to this stage's dynamic
            // extent: inputs are attached for backpressure accounting,
            // and if the stage exits without reaching the explicit
            // finish/fail below (a panic in task code), the drop
            // handler poisons the output stream so a downstream
            // consumer blocked in `take()` fails instead of hanging.
            let guard = StageStreamGuard::enter(&in_streams, out_stream.clone());
            // Spans live on the stage's own track: concurrent stages
            // must not interleave into one misordered "driver" row.
            let track = format!("stage{}", stage.id);
            let stage_span = obs.span(&track, "phase", stage.kind.name());
            let ctx = StageContext {
                dfs: &self.dfs,
                metastore: &self.metastore,
                conf: &self.conf,
                engine,
                intermediates: &inter,
                dag_intermediates: &HashMap::new(),
                in_streams: &in_streams,
                out_stream: out_stream.clone(),
                query_id,
                obs: obs.clone(),
                cancel: cancel.clone(),
            };
            let result = execute_stage(stage, &ctx);
            match &result {
                Ok(_) => {
                    if let Some(out) = &out_stream {
                        out.finish();
                    }
                }
                Err(e) if e.is_cancelled() => {
                    // Cancelled stages move their stream to the
                    // Cancelled terminal state, so a blocked consumer
                    // unwinds as cancelled too instead of seeing a
                    // fault-shaped upstream failure.
                    if let Some(out) = &out_stream {
                        out.cancel(e.message());
                    }
                }
                Err(e) => {
                    if let Some(out) = &out_stream {
                        out.fail(e.message());
                    }
                }
            }
            guard.settled();
            let result = result?;
            drop(stage_span);
            intermediates
                .lock()
                .insert(stage.id, result.output_paths.clone());
            Ok(result)
        })
    }

    /// Decide which stages stream their intermediate output and build
    /// one bounded [`crate::stream::StreamedIntermediate`] per eligible
    /// producer, keyed by producer stage id.
    ///
    /// A producer streams when all of the following hold:
    /// - the engine is DataMPI and `hive.exec.pipelined` is on (the
    ///   Hadoop engine keeps strict job barriers, like stock Hive);
    /// - the stage writes an [`StageOutput::Intermediate`];
    /// - it has exactly one consumer (fan-out would need per-consumer
    ///   cursors; those edges keep the file path). Any kind of consumer:
    ///   a map-only stage's worker pool takes partitions in task order
    ///   like the O slots of a shuffle stage do, `take` registers the
    ///   partition before parking, and `commit` never parks for an
    ///   awaited partition, so the resident tasks always drain
    ///   (`tests/map_join.rs` holds the 16-partition, cap-1 case).
    fn plan_streams(
        &self,
        plan: &crate::physical::QueryPlan,
        engine: EngineKind,
        obs: &hdm_obs::ObsHandle,
    ) -> Result<HashMap<usize, crate::stream::StreamedIntermediate>> {
        let mut streams = HashMap::new();
        if engine != EngineKind::DataMpi || !self.conf.exec_pipelined()? {
            return Ok(streams);
        }
        let cap = self.conf.exec_pipelined_buffer()?;
        let consumers = plan.consumers();
        for (stage, cons) in plan.stages.iter().zip(&consumers) {
            if stage.output != StageOutput::Intermediate {
                continue;
            }
            if cons.len() != 1 {
                continue;
            }
            streams.insert(
                stage.id,
                crate::stream::StreamedIntermediate::new(&format!("stage{}", stage.id), cap, obs),
            );
        }
        Ok(streams)
    }

    /// The engine a failed fault-tolerant query falls back to, from
    /// `hive.ft.fallback.engine`. `None` when fallback is off ("none")
    /// or would land on the engine that already failed.
    fn fallback_engine(&self, current: EngineKind) -> Result<Option<EngineKind>> {
        let fb = match self.conf.ft_fallback_engine()?.as_str() {
            "mapreduce" | "hadoop" => Some(EngineKind::Hadoop),
            "datampi" => Some(EngineKind::DataMpi),
            _ => None, // "none"
        };
        Ok(fb.filter(|f| *f != current))
    }

    /// Delete everything a failed plan run may have written, so the
    /// fallback re-run can recreate the same paths (`Dfs::create`
    /// refuses to overwrite).
    fn cleanup_partial_outputs(&self, plan: &crate::physical::QueryPlan, query_id: u64) {
        self.dfs.delete_prefix(&format!("/tmp/q{query_id}/"));
        for stage in &plan.stages {
            if let StageOutput::Table { name, .. } = &stage.output {
                self.dfs
                    .delete_prefix(&self.metastore.storage.table_dir(name));
            }
        }
    }

    /// If tracing is on and `hive.obs.trace.path` is set, write the
    /// query's Chrome trace there plus a deterministic plaintext summary
    /// sidecar (`<path>.summary.txt`). Local OS paths, not DFS paths —
    /// the trace is for loading into Perfetto / `chrome://tracing`.
    fn export_obs(&self, obs: &hdm_obs::ObsHandle) -> Result<()> {
        if !obs.is_enabled() {
            return Ok(());
        }
        let path = self.conf.get_str(hdm_common::conf::KEY_OBS_TRACE_PATH, "");
        if path.is_empty() {
            return Ok(());
        }
        let snap = obs.snapshot();
        std::fs::write(&path, hdm_obs::chrome::export(&snap))
            .map_err(|e| HdmError::Config(format!("cannot write trace {path}: {e}")))?;
        std::fs::write(
            format!("{path}.summary.txt"),
            hdm_obs::summary::render(&snap),
        )
        .map_err(|e| HdmError::Config(format!("cannot write trace summary: {e}")))?;
        Ok(())
    }

    /// Bulk-load rows into a table as a fresh part file — the loader
    /// entry point used by the workload generators (dbgen, HiBench).
    ///
    /// # Errors
    /// Fails if the table is unknown or a row's arity mismatches.
    pub fn load_rows(&self, table: &str, rows: &[Row]) -> Result<u64> {
        let meta = self.metastore.table(table)?;
        let mut sink = self.create_next_part(table, &meta, |part| NodeId((part % 7) as u32))?;
        for r in rows {
            if r.len() != meta.schema.len() {
                return Err(HdmError::Plan(format!(
                    "load arity {} does not match table arity {}",
                    r.len(),
                    meta.schema.len()
                )));
            }
            sink.write_row(r)?;
        }
        let written = sink.close()?;
        self.metastore.record_write(&self.dfs, table);
        Ok(written)
    }

    /// Open the next part file of a table for appending. The listing only
    /// says where to start: another session may hold that name already
    /// (its file is open, hence unlisted), and since creation is
    /// exclusive the loser of a race just moves on to the next index.
    fn create_next_part(
        &self,
        table: &str,
        meta: &crate::catalog::TableMeta,
        node_of: impl Fn(usize) -> NodeId,
    ) -> Result<Box<dyn hdm_storage::RowSink>> {
        let storage = &self.metastore.storage;
        let mut part = storage.parts(&self.dfs, table).len();
        loop {
            let path = storage.part_path(table, part);
            let created =
                format_for(meta.format).create(&self.dfs, &path, &meta.schema, node_of(part));
            match created {
                Err(e) if hdm_dfs::is_file_exists(&e) => part += 1,
                created => return created,
            }
        }
    }

    fn insert_values(&self, table: &str, rows: Vec<Vec<crate::ast::Expr>>) -> Result<()> {
        let meta = self.metastore.table(table)?;
        let no_columns = |_: Option<&str>, _: &str| -> Option<usize> { None };
        let mut out_rows = Vec::with_capacity(rows.len());
        for exprs in rows {
            if exprs.len() != meta.schema.len() {
                return Err(HdmError::Plan(format!(
                    "INSERT arity {} does not match table arity {}",
                    exprs.len(),
                    meta.schema.len()
                )));
            }
            let mut row = Row::new();
            for (e, field) in exprs.iter().zip(meta.schema.fields()) {
                let compiled = compile_expr(e, &no_columns)?;
                let v = compiled.eval(&Row::new())?;
                row.push(v.cast_to(field.data_type));
            }
            out_rows.push(row);
        }
        // Append as a fresh part file.
        let mut sink = self.create_next_part(table, &meta, |_| NodeId(0))?;
        for r in &out_rows {
            sink.write_row(r)?;
        }
        sink.close()?;
        Ok(())
    }
}

/// Pins stream liveness to a stage closure's dynamic extent.
///
/// On entry it attaches the stage as a consumer of every input stream
/// (backpressure only throttles producers while a consumer is
/// attached). On drop it detaches them again and — unless the closure
/// reached its explicit finish/fail bookkeeping and called
/// [`StageStreamGuard::settled`] — poisons the stage's own output
/// stream, so a panic in task code fails any downstream consumer
/// blocked in `take()` instead of leaving it parked forever.
struct StageStreamGuard {
    ins: Vec<crate::stream::StreamedIntermediate>,
    out: Option<crate::stream::StreamedIntermediate>,
    settled: std::cell::Cell<bool>,
}

impl StageStreamGuard {
    fn enter(
        ins: &HashMap<usize, crate::stream::StreamedIntermediate>,
        out: Option<crate::stream::StreamedIntermediate>,
    ) -> StageStreamGuard {
        let ins: Vec<_> = ins.values().cloned().collect();
        for s in &ins {
            s.attach();
        }
        StageStreamGuard {
            ins,
            out,
            settled: std::cell::Cell::new(false),
        }
    }

    /// Mark the stage's finish/fail bookkeeping as done; drop then only
    /// detaches inputs.
    fn settled(&self) {
        self.settled.set(true);
    }
}

impl Drop for StageStreamGuard {
    fn drop(&mut self) {
        for s in &self.ins {
            s.detach();
        }
        if !self.settled.get() {
            if let Some(out) = &self.out {
                out.fail("producer stage aborted before finishing its stream");
            }
        }
    }
}

/// Replay a query's measured volumes through the cluster timing model,
/// optionally scaling them to a nominal dataset size first.
///
/// Returns one [`JobTimeline`] per stage, in execution order.
pub fn simulate_query(
    stages: &[StageResult],
    engine: EngineKind,
    spec: &ClusterSpec,
    opts: DataMpiSimOptions,
    scale: f64,
) -> Vec<JobTimeline> {
    stages
        .iter()
        .map(|s| {
            let volumes = if (scale - 1.0).abs() < 1e-12 {
                s.volumes.clone()
            } else {
                // Re-split oversized scaled map tasks to HDFS-block-sized
                // units, as the real cluster's input format would.
                s.volumes.scaled(scale).with_map_splits(64 << 20)
            };
            match engine {
                EngineKind::Hadoop => simulate_hadoop(&volumes, spec),
                EngineKind::DataMpi => simulate_datampi(&volumes, spec, opts),
            }
        })
        .collect()
}

/// End-to-end simulated query latency in seconds (sum of stage
/// timelines plus a fixed compile cost).
pub fn simulated_total_seconds(timelines: &[JobTimeline], compile_s: f64) -> f64 {
    compile_s + timelines.iter().map(JobTimeline::total).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::value::Value;

    fn driver() -> Driver {
        let d = Driver::in_memory();
        d.execute(
            "CREATE TABLE t (k BIGINT, s STRING, v DOUBLE); \
             INSERT INTO t VALUES \
               (1, 'a', 1.5), (2, 'b', 2.5), (1, 'c', 3.5), (3, 'a', 0.5), (2, 'a', 4.0)",
        )
        .unwrap();
        d
    }

    #[test]
    fn ddl_and_insert() {
        let d = driver();
        assert!(d.metastore().contains("t"));
        assert_eq!(d.metastore().storage.parts(d.dfs(), "t").len(), 1);
    }

    #[test]
    fn select_star_roundtrips() {
        let d = driver();
        let r = d.execute("SELECT * FROM t").unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.columns, vec!["k", "s", "v"]);
    }

    #[test]
    fn filter_and_projection() {
        let d = driver();
        let r = d.execute("SELECT s FROM t WHERE k = 1").unwrap();
        let mut vals: Vec<String> = r.rows.iter().map(|r| r.to_string()).collect();
        vals.sort();
        assert_eq!(vals, vec!["a", "c"]);
    }

    #[test]
    fn group_by_on_both_engines_matches() {
        let d = driver();
        let sql = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k";
        let hadoop = d.execute_on(sql, EngineKind::Hadoop).unwrap();
        let datampi = d.execute_on(sql, EngineKind::DataMpi).unwrap();
        assert_eq!(hadoop.to_lines(), datampi.to_lines());
        assert_eq!(
            hadoop.to_lines(),
            vec!["1\t2\t5.0", "2\t2\t6.5", "3\t1\t0.5"]
        );
    }

    #[test]
    fn join_works() {
        let d = driver();
        d.execute("CREATE TABLE names (k BIGINT, label STRING)")
            .unwrap();
        d.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        let r = d
            .execute("SELECT label, v FROM t JOIN names n ON t.k = n.k ORDER BY v")
            .unwrap();
        assert_eq!(r.rows.len(), 4); // k=3 unmatched drops out
        assert_eq!(r.rows[0].get(0), &Value::Str("one".into()));
    }

    #[test]
    fn order_by_desc_with_limit() {
        let d = driver();
        let r = d
            .execute("SELECT s, v FROM t ORDER BY v DESC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].get(1), &Value::Double(4.0));
        assert_eq!(r.rows[1].get(1), &Value::Double(3.5));
    }

    #[test]
    fn ctas_and_requery() {
        let d = driver();
        d.execute("CREATE TABLE agg STORED AS ORC AS SELECT k, SUM(v) AS total FROM t GROUP BY k")
            .unwrap();
        let meta = d.metastore().table("agg").unwrap();
        assert_eq!(meta.schema.index_of("total"), Some(1));
        let r = d
            .execute("SELECT k FROM agg WHERE total > 5 ORDER BY k")
            .unwrap();
        assert_eq!(r.to_lines(), vec!["2"]);
    }

    #[test]
    fn insert_overwrite_replaces() {
        let d = driver();
        d.execute("CREATE TABLE dst (k BIGINT, n BIGINT)").unwrap();
        d.execute("INSERT OVERWRITE TABLE dst SELECT k, COUNT(*) AS c FROM t GROUP BY k")
            .unwrap();
        let r1 = d.execute("SELECT k FROM dst ORDER BY k").unwrap();
        assert_eq!(r1.rows.len(), 3);
        // Overwrite again with a filtered subset.
        d.execute(
            "INSERT OVERWRITE TABLE dst SELECT k, COUNT(*) AS c FROM t WHERE k = 1 GROUP BY k",
        )
        .unwrap();
        let r2 = d.execute("SELECT k FROM dst ORDER BY k").unwrap();
        assert_eq!(r2.rows.len(), 1);
    }

    #[test]
    fn stage_volumes_measured() {
        let d = driver();
        let r = d
            .execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(r.stages.len(), 2); // aggregate + sort
        let agg = &r.stages[0];
        assert!(agg.volumes.total_input_bytes() > 0);
        assert_eq!(agg.volumes.maps.iter().map(|m| m.records).sum::<u64>(), 5);
        assert_eq!(agg.volumes.shuffle_mismatch(), 0);
        // Simulation produces sane timelines on both engines.
        let spec = ClusterSpec::default();
        for engine in [EngineKind::Hadoop, EngineKind::DataMpi] {
            let tls = simulate_query(
                &r.stages,
                engine,
                &spec,
                DataMpiSimOptions::default(),
                1000.0,
            );
            assert_eq!(tls.len(), 2);
            assert!(simulated_total_seconds(&tls, 1.0) > 1.0);
        }
    }

    #[test]
    fn streamed_mode_matches_file_mode() {
        let mut d = driver();
        d.execute("CREATE TABLE names (k BIGINT, label STRING)")
            .unwrap();
        d.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        // Chained stages (aggregate → sort, after the join) exercise an
        // intermediate hand-off.
        let sql = "SELECT label, COUNT(*) AS n, SUM(v) AS s FROM t \
                   JOIN names nm ON t.k = nm.k GROUP BY label ORDER BY label";
        d.conf_mut()
            .set(hdm_common::conf::KEY_EXEC_PIPELINED, false);
        let file_mode = d.execute_on(sql, EngineKind::DataMpi).unwrap();
        d.conf_mut().set(hdm_common::conf::KEY_EXEC_PIPELINED, true);
        let streamed = d.execute_on(sql, EngineKind::DataMpi).unwrap();
        assert_eq!(file_mode.to_lines(), streamed.to_lines());
        // A streamed intermediate never touches the DFS: the producer
        // writes no part files and its consumer reads no input bytes.
        let (mid, downstream) = (&streamed.stages[0], &streamed.stages[1]);
        assert!(mid.output_paths.is_empty(), "streamed stage wrote files");
        assert_eq!(downstream.volumes.total_input_bytes(), 0);
        // File mode, by contrast, pays the intermediate round trip.
        assert!(!file_mode.stages[0].output_paths.is_empty());
        assert!(file_mode.stages[1].volumes.total_input_bytes() > 0);
    }

    #[test]
    fn exhausted_attempts_fall_back_to_mapreduce_engine() {
        use hdm_common::conf as keys;
        use hdm_faults::{FaultPlan, Site};

        let mut d = Driver::in_memory();
        d.execute("CREATE TABLE big (k BIGINT, v DOUBLE)").unwrap();
        let rows: Vec<Row> = (0..7000)
            .map(|i| Row::from(vec![Value::Long(i % 10), Value::Double(i as f64)]))
            .collect();
        d.load_rows("big", &rows).unwrap();
        // Combiner off: every input row becomes one O-task send, so a
        // crash countdown (< 512) is guaranteed to fire inside a task.
        d.conf_mut().set(keys::KEY_COMBINER, false);
        let sql = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM big GROUP BY k ORDER BY k";
        let baseline = d.execute_on(sql, EngineKind::DataMpi).unwrap();
        let records: Vec<u64> = baseline.stages[0]
            .volumes
            .maps
            .iter()
            .map(|m| m.records)
            .collect();

        d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
        d.conf_mut().set(keys::KEY_FT_ENABLED, true);
        // One attempt: the first injected crash exhausts task recovery,
        // forcing the driver-level engine fallback (default: mapreduce).
        d.conf_mut().set(keys::KEY_FT_MAX_ATTEMPTS, 1);

        // Seeds whose schedule certainly crashes some O task mid-stream.
        let candidates: Vec<u64> = (0..4096u64)
            .filter(|&seed| {
                let probe = FaultPlan::with_seed(seed);
                records.iter().enumerate().any(|(rank, &n)| {
                    probe
                        .crash_after(Site::OTask, rank, 0)
                        .is_some_and(|c| c < n)
                })
            })
            .take(8)
            .collect();
        assert!(!candidates.is_empty(), "no crashing seed in search range");

        let mut fell_back = false;
        for seed in candidates {
            d.conf_mut().set(keys::KEY_FT_SEED, seed);
            // The same seed may also fault the fallback run (map-side
            // crash, flaky storage); any such seed surfaces as an error
            // and the next candidate is tried.
            let Ok(r) = d.execute_on(sql, EngineKind::DataMpi) else {
                continue;
            };
            assert_eq!(r.to_lines(), baseline.to_lines());
            let snap = d.last_obs_snapshot().expect("obs snapshot recorded");
            let fallbacks: u64 = snap
                .counters
                .iter()
                .filter(|(name, labels, _)| {
                    name == "ft.fallbacks" && labels.contains("from=datampi")
                })
                .map(|(_, _, v)| *v)
                .sum();
            assert!(fallbacks >= 1, "engine fallback not recorded: {snap:?}");
            fell_back = true;
            break;
        }
        assert!(fell_back, "no candidate seed completed via fallback");
    }

    #[test]
    fn finished_and_failed_queries_leave_no_scratch_files() {
        let d = driver();
        d.execute("CREATE TABLE names (k BIGINT, label STRING)")
            .unwrap();
        d.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
            .unwrap();
        let sql = "SELECT label, COUNT(*) AS n FROM t JOIN names nm ON t.k = nm.k \
                   GROUP BY label ORDER BY label";
        for engine in [EngineKind::Hadoop, EngineKind::DataMpi] {
            let r = d.execute_on(sql, engine).unwrap();
            assert_eq!(r.to_lines(), vec!["one\t2", "two\t2"]);
            assert_eq!(d.dfs().list("/tmp/q"), Vec::<String>::new(), "{engine:?}");
        }
        // The raw-plan entry point collects through the same helper.
        let qb = analyze(
            match &parse_script(sql).unwrap()[0] {
                Statement::Select(q) => q,
                other => panic!("not a select: {other:?}"),
            },
            d.metastore(),
        )
        .unwrap();
        let plan = plan_select(&qb, StageOutput::Collect).unwrap();
        let r = d.execute_raw_plan(&plan, EngineKind::DataMpi).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(d.dfs().list("/tmp/q"), Vec::<String>::new());
        // A query whose second stage dies at run time (a string plus a
        // number) takes its first stage's files with it.
        let err = d
            .execute_on(
                "SELECT SUM(label + 1) AS x FROM t JOIN names nm ON t.k = nm.k",
                EngineKind::Hadoop,
            )
            .unwrap_err();
        assert_eq!(err.subsystem(), "eval", "{err}");
        assert_eq!(d.dfs().list("/tmp/q"), Vec::<String>::new());
    }

    #[test]
    fn errors_surface() {
        let d = driver();
        assert!(d.execute("SELECT nope FROM t").is_err());
        assert!(d.execute("SELECT * FROM missing").is_err());
        assert!(d.execute("INSERT INTO t VALUES (1)").is_err());
        assert!(d.execute("").is_err());
    }
}
