//! The staged traced run: each `SELECT` is driven from outside the
//! `Driver`, one public call per layer, each inside a harness span.
//!
//! `parse_script` → `analyze` → `plan_select` + `optimize_stage` →
//! `execute_stage` per stage in id order over a harness-built
//! `StageContext` (file intermediates, no streams, observability off) →
//! `read_seq_outputs`. Anything that is not a lone `SELECT` goes through
//! `Driver::execute_on` as one span. The rows must equal the untraced
//! run's rows, or the statement counts as failed.

use crate::check;
use crate::trace::Recorder;
use hdm_common::error::{HdmError, Result};
use hdm_core::ast::Statement;
use hdm_core::engine::{execute_stage, read_seq_outputs, StageContext, StageResult};
use hdm_core::logical::analyze;
use hdm_core::optimizer::optimize_stage;
use hdm_core::parser::parse_script;
use hdm_core::physical::{plan_select, StageOutput};
use hdm_core::{Driver, EngineKind, QueryResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

pub const SPAN_PARSE: &str = "core.parser.parse";
pub const SPAN_ANALYZE: &str = "core.logical.analyze";
pub const SPAN_PLAN: &str = "core.physical.plan";
pub const SPAN_STAGE_PREFIX: &str = "core.engine.stage.";
pub const SPAN_COLLECT: &str = "core.engine.collect";
pub const SPAN_EXECUTE: &str = "core.driver.execute";
pub const SPAN_STATEMENT_PREFIX: &str = "statement.";

/// Scratch-directory ids for staged queries, far above anything the
/// driver's own counter reaches within a run.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1 << 40);

/// Exact per-stage counts, summed over whatever ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Volumes {
    pub input_bytes: u64,
    pub shuffle_bytes: u64,
    pub output_bytes: u64,
    pub map_tasks: u64,
    pub reduce_tasks: u64,
}

impl Volumes {
    fn add_stages(&mut self, stages: &[StageResult]) {
        for s in stages {
            self.input_bytes += s.volumes.total_input_bytes();
            self.shuffle_bytes += s.volumes.total_shuffle_bytes();
            self.output_bytes += s.volumes.total_output_bytes();
            self.map_tasks += s.map_tasks as u64;
            self.reduce_tasks += s.reduce_tasks as u64;
        }
    }
}

/// Drive one script as a statement of kind `kind`: `;`-separated pieces
/// are staged when they are a lone `SELECT` and executed through the
/// driver otherwise. Returns the last piece's result, like
/// `Driver::execute_on` does. (None of the benchmark's statement texts
/// has a `;` inside a literal.)
pub fn run_statement(
    rec: &mut Recorder,
    driver: &Driver,
    engine: EngineKind,
    kind: &str,
    script: &str,
    volumes: &mut Volumes,
) -> Result<QueryResult> {
    rec.next_statement();
    let name = format!("{SPAN_STATEMENT_PREFIX}{kind}");
    rec.span(&name, |rec| {
        let mut last = QueryResult::default();
        for piece in script.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let mut stmts = rec.span(SPAN_PARSE, |_| parse_script(piece))?;
            last = match (stmts.pop(), stmts.is_empty()) {
                (Some(Statement::Select(query)), true) => {
                    staged_select(rec, driver, engine, &query, volumes)?
                }
                _ => {
                    let r = rec.span(SPAN_EXECUTE, |_| driver.execute_on(piece, engine))?;
                    volumes.add_stages(&r.stages);
                    r
                }
            };
        }
        Ok(last)
    })
}

fn staged_select(
    rec: &mut Recorder,
    driver: &Driver,
    engine: EngineKind,
    query: &hdm_core::ast::SelectStmt,
    volumes: &mut Volumes,
) -> Result<QueryResult> {
    let qb = rec.span(SPAN_ANALYZE, |_| analyze(query, driver.metastore()))?;
    let plan = rec.span(SPAN_PLAN, |_| {
        let mut plan = plan_select(&qb, StageOutput::Collect)?;
        plan.stages.iter_mut().for_each(optimize_stage);
        Ok::<_, HdmError>(plan)
    })?;
    let query_id = NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed);
    let mut intermediates: HashMap<usize, Vec<String>> = HashMap::new();
    let mut stages = Vec::with_capacity(plan.stages.len());
    let (no_rows, no_streams) = (HashMap::new(), HashMap::new());
    for stage in &plan.stages {
        let name = format!("{SPAN_STAGE_PREFIX}{}", stage.kind.name());
        let result = rec.span(&name, |_| {
            let ctx = StageContext {
                dfs: driver.dfs(),
                metastore: driver.metastore(),
                conf: driver.conf(),
                engine,
                intermediates: &intermediates,
                dag_intermediates: &no_rows,
                in_streams: &no_streams,
                out_stream: None,
                query_id,
                obs: hdm_obs::ObsHandle::disabled(),
                cancel: hdm_common::CancelToken::default(),
            };
            execute_stage(stage, &ctx)
        });
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                driver.dfs().delete_prefix(&format!("/tmp/q{query_id}/"));
                return Err(e);
            }
        };
        intermediates.insert(stage.id, result.output_paths.clone());
        stages.push(result);
    }
    let rows = rec.span(SPAN_COLLECT, |_| {
        let paths = stages.last().map_or(&[][..], |s| s.output_paths.as_slice());
        let mut rows = read_seq_outputs(driver.dfs(), paths)?;
        if let Some(limit) = qb.limit {
            rows.truncate(limit as usize);
        }
        Ok::<_, HdmError>(rows)
    });
    driver.dfs().delete_prefix(&format!("/tmp/q{query_id}/"));
    volumes.add_stages(&stages);
    let columns = plan
        .stages
        .last()
        .map(|s| s.out_names.clone())
        .unwrap_or_default();
    Ok(QueryResult {
        rows: rows?,
        columns,
        stages,
    })
}

/// Run a statement staged and hold its rows to `want`, the digest of
/// the untraced run. Returns the failure, if any.
#[allow(clippy::too_many_arguments)]
pub fn run_checked(
    rec: &mut Recorder,
    driver: &Driver,
    engine: EngineKind,
    kind: &str,
    script: &str,
    ordered: bool,
    want: Option<u64>,
    volumes: &mut Volumes,
) -> Option<String> {
    match run_statement(rec, driver, engine, kind, script, volumes) {
        Err(e) => Some(format!("staged {kind}: {e}")),
        Ok(r) => match want {
            Some(want) if check::digest(&r, ordered) != want => {
                Some(format!("staged {kind}: rows differ from the untraced run"))
            }
            _ => None,
        },
    }
}

/// Cost of one empty harness span, in microseconds: bounds what tracing
/// adds to the staged run.
pub fn span_overhead_us() -> f64 {
    const N: usize = 20_000;
    let mut rec = Recorder::new();
    let start = std::time::Instant::now();
    for _ in 0..N {
        rec.span("empty", |_| ());
    }
    start.elapsed().as_secs_f64() * 1e6 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> Driver {
        let d = Driver::in_memory();
        d.execute(
            "CREATE TABLE t (k BIGINT, v DOUBLE); \
             INSERT INTO t VALUES (1, 1.5), (2, 2.5), (1, 3.5), (3, 0.5), (2, 4.0)",
        )
        .unwrap();
        d
    }

    #[test]
    fn staged_select_matches_the_driver_on_both_engines() {
        let d = driver();
        let sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC LIMIT 2";
        for engine in [EngineKind::Hadoop, EngineKind::DataMpi] {
            let want = d.execute_on(sql, engine).unwrap();
            let mut rec = Recorder::new();
            let mut vol = Volumes::default();
            let got = run_statement(&mut rec, &d, engine, "k", sql, &mut vol).unwrap();
            assert_eq!(got.to_lines(), want.to_lines());
            assert_eq!(got.columns, want.columns);
            assert_eq!(got.rows.len(), 2);
            // aggregate + sort stages, each with map and reduce tasks.
            assert!(vol.map_tasks >= 2 && vol.reduce_tasks >= 2 && vol.shuffle_bytes > 0);
            let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "statement.k",
                    SPAN_PARSE,
                    SPAN_ANALYZE,
                    SPAN_PLAN,
                    "core.engine.stage.aggregate",
                    "core.engine.stage.sort",
                    SPAN_COLLECT
                ]
            );
            assert!(rec.spans()[1..].iter().all(|s| s.parent == Some(0)));
            // Scratch files are gone.
            assert!(d.dfs().list("/tmp/q1099511627").is_empty());
        }
    }

    #[test]
    fn scripts_split_and_non_selects_go_through_the_driver() {
        let d = driver();
        let script = "DROP TABLE IF EXISTS big; \
             CREATE TABLE big STORED AS ORC AS SELECT k, v FROM t WHERE v > 1.0; \
             SELECT COUNT(*) FROM big;";
        let mut rec = Recorder::new();
        let mut vol = Volumes::default();
        let got = run_statement(
            &mut rec,
            &d,
            EngineKind::DataMpi,
            "script",
            script,
            &mut vol,
        )
        .unwrap();
        assert_eq!(got.to_lines(), ["4"]);
        let executes = rec
            .spans()
            .iter()
            .filter(|s| s.name == SPAN_EXECUTE)
            .count();
        assert_eq!(executes, 2);
        assert!(vol.output_bytes > 0);
        // A wrong digest is a failure; the right one is not.
        let want = check::digest(&got, false);
        let mut run = |want| {
            run_checked(
                &mut rec,
                &d,
                EngineKind::DataMpi,
                "script",
                script,
                false,
                Some(want),
                &mut vol,
            )
        };
        assert_eq!(run(want), None);
        assert!(run(want ^ 1).is_some());
    }

    #[test]
    fn errors_surface_as_failures() {
        let d = driver();
        let mut rec = Recorder::new();
        let mut vol = Volumes::default();
        let failure = run_checked(
            &mut rec,
            &d,
            EngineKind::Hadoop,
            "bad",
            "SELECT nope FROM t",
            false,
            None,
            &mut vol,
        );
        assert!(failure.unwrap().contains("staged bad"));
    }
}
