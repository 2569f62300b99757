//! Task planning: which map/O tasks a stage runs, what each one reads,
//! and how many reduce/A tasks consume them.

use super::{dag_mode_enabled, StageContext};
use crate::physical::{InputSource, StageKind, StagePlan};
use hdm_common::conf::Parallelism;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Schema;
use hdm_dfs::FileSplit;
use hdm_storage::seq::SeqFormat;
use hdm_storage::{format_for, FileFormat};
use std::ops::Range;
use std::sync::Arc;

/// Rows per task when an in-memory (DAG mode) intermediate is chunked.
const MEM_CHUNK_ROWS: usize = 4096;

/// What one map/O task reads — the read half of the intermediate
/// hand-off ([`super::sink::PartitionSink`] is the write half).
#[derive(Debug, Clone, PartialEq)]
pub(super) enum TaskInput {
    /// The input enumerated nothing; the task runs over zero rows so
    /// the stage still produces its (empty) output and a join's other
    /// side still runs.
    Empty,
    /// One split of a table part file or of a sequence-file intermediate.
    Split(FileSplit),
    /// Pipelined mode: take `partition` of producer `stage`'s stream as
    /// it commits. `est_bytes` is the producer's input volume spread
    /// across its partitions — the same order of magnitude file splits
    /// would report, so the reducer-count policy behaves like the
    /// materialized path instead of seeing zero bytes.
    Stream {
        stage: usize,
        partition: usize,
        est_bytes: u64,
    },
    /// DAG mode: rows `rows` of producer `stage`'s in-memory output,
    /// `est_bytes` being their wire size.
    Mem {
        stage: usize,
        rows: Range<usize>,
        est_bytes: u64,
    },
}

impl TaskInput {
    /// Logical input size: split length, or the hint for inputs that
    /// never touch the DFS.
    pub(super) fn bytes(&self) -> u64 {
        match self {
            TaskInput::Empty => 0,
            TaskInput::Split(split) => split.len,
            TaskInput::Stream { est_bytes, .. } | TaskInput::Mem { est_bytes, .. } => *est_bytes,
        }
    }
}

/// One map/O task: an input bound to the tagged stage input it feeds.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Task {
    pub(super) input_idx: usize,
    pub(super) input: TaskInput,
}

/// How to read the build table of one map-side join step: the whole
/// table, as the splits a scan of it would be handed.
pub(super) struct BuildScan {
    pub(super) format: Arc<dyn FileFormat>,
    pub(super) schema: Schema,
    pub(super) splits: Vec<FileSplit>,
}

/// A stage's tasks, how to read each stage input, and the input volume.
pub(super) struct PlannedTasks {
    pub(super) tasks: Vec<Task>,
    /// Per stage input: the file format and the schema rows are read with.
    pub(super) formats: Vec<(Arc<dyn FileFormat>, Schema)>,
    /// Per stage input, per map-side join step: its build table.
    pub(super) builds: Vec<Vec<BuildScan>>,
    /// `hive.orc.pushdown`: whether readers get the planner's predicates.
    pub(super) pushdown: bool,
    /// Sum of every task's [`TaskInput::bytes`]: drives the reducer
    /// count, and is the size hint a pipelined producer declares.
    pub(super) input_bytes: u64,
}

/// Enumerate the stage's map/O tasks.
///
/// # Errors
/// Unknown tables, missing upstream outputs, split-planning IO failures,
/// or a failed/cancelled producer stream.
pub(super) fn plan_tasks(stage: &StagePlan, ctx: &StageContext<'_>) -> Result<PlannedTasks> {
    let pushdown = ctx
        .conf
        .get_bool(hdm_common::conf::KEY_ORC_PUSHDOWN, true)?;
    let mut tasks: Vec<Task> = Vec::new();
    let mut formats: Vec<(Arc<dyn FileFormat>, Schema)> = Vec::new();
    let mut builds: Vec<Vec<BuildScan>> = Vec::new();
    // A table's format, schema and splits under `preds`.
    let table_scan = |name: &str, preds: &[hdm_storage::Predicate]| -> Result<BuildScan> {
        let meta = ctx.metastore.table(name)?;
        let paths = ctx.metastore.storage.parts(ctx.dfs, name);
        let format: Arc<dyn FileFormat> = Arc::from(format_for(meta.format));
        Ok(BuildScan {
            splits: file_splits(&*format, &paths, preds, stage.id, ctx)?,
            schema: meta.schema,
            format,
        })
    };
    for (input_idx, input) in stage.inputs.iter().enumerate() {
        let format: Arc<dyn FileFormat>;
        let schema: Schema;
        let mut inputs: Vec<TaskInput>;
        match &input.source {
            InputSource::Table(name) => {
                let scan = table_scan(name, input.pushed_down(pushdown))?;
                inputs = scan.splits.into_iter().map(TaskInput::Split).collect();
                (format, schema) = (scan.format, scan.schema);
            }
            InputSource::Stage(id) => {
                format = Arc::new(SeqFormat);
                schema = input.read_schema.clone();
                inputs = if let Some(stream) = ctx.in_streams.get(id) {
                    // One task per producer partition. The producer
                    // declares its partition count as soon as its own
                    // parallelism is decided, so this wait ends long
                    // before the producer finishes running.
                    let (parts, est_total) = stream.await_partitions()?;
                    let est_bytes = est_total / parts.max(1) as u64;
                    let stage = *id;
                    (0..parts)
                        .map(|partition| TaskInput::Stream {
                            stage,
                            partition,
                            est_bytes,
                        })
                        .collect()
                } else if let Some(rows) = ctx
                    .dag_intermediates
                    .get(id)
                    .filter(|_| dag_mode_enabled(ctx))
                {
                    let chunks = rows.chunks(MEM_CHUNK_ROWS).enumerate();
                    chunks
                        .map(|(c, chunk)| TaskInput::Mem {
                            stage: *id,
                            rows: c * MEM_CHUNK_ROWS..c * MEM_CHUNK_ROWS + chunk.len(),
                            est_bytes: chunk.iter().map(|r| r.wire_size() as u64).sum(),
                        })
                        .collect()
                } else {
                    let paths = ctx.intermediates.get(id);
                    let paths = paths
                        .ok_or_else(|| HdmError::Plan(format!("stage {id} output missing")))?;
                    let preds = input.pushed_down(pushdown);
                    let splits = file_splits(&*format, paths, preds, stage.id, ctx)?;
                    splits.into_iter().map(TaskInput::Split).collect()
                };
            }
        }
        if inputs.is_empty() {
            inputs.push(TaskInput::Empty);
        }
        tasks.extend(inputs.into_iter().map(|input| Task { input_idx, input }));
        formats.push((format, schema));
        let steps = input.map_joins.iter().map(|step| match &step.build.source {
            InputSource::Table(name) => table_scan(name, step.build.pushed_down(pushdown)),
            InputSource::Stage(id) => Err(HdmError::Plan(format!(
                "map-side join over stage {id}'s output: build sides are tables"
            ))),
        });
        builds.push(steps.collect::<Result<Vec<_>>>()?);
    }
    if ctx.obs.is_enabled() {
        let steps = builds.iter().map(Vec::len).sum::<usize>() as u64;
        let stage_label = format!("stage={}", stage.id);
        ctx.obs.counter("join.map.steps", &stage_label).add(steps);
    }
    let input_bytes = tasks.iter().map(|t| t.input.bytes()).sum();
    Ok(PlannedTasks {
        tasks,
        formats,
        builds,
        pushdown,
        input_bytes,
    })
}

/// Every split of `paths`, minus what the planning-side predicate
/// pushdown prunes: stripes the stats disprove never become (part of) a
/// task at all.
fn file_splits(
    format: &dyn FileFormat,
    paths: &[String],
    preds: &[hdm_storage::Predicate],
    stage_id: usize,
    ctx: &StageContext<'_>,
) -> Result<Vec<FileSplit>> {
    let mut splits = Vec::new();
    let mut pruned_stripes = 0u64;
    let mut pruned_rows = 0u64;
    for p in paths {
        let planned = format.plan_splits(ctx.dfs, p, preds)?;
        pruned_stripes += planned.pruned_stripes;
        pruned_rows += planned.pruned_rows;
        splits.extend(planned.splits);
    }
    if ctx.obs.is_enabled() {
        let stage_label = format!("stage={stage_id}");
        ctx.obs
            .counter("orc.stripes.pruned", &stage_label)
            .add(pruned_stripes);
        ctx.obs
            .counter("orc.rows.pruned", &stage_label)
            .add(pruned_rows);
    }
    Ok(splits)
}

/// How many reduce/A tasks a stage runs.
pub(super) fn reducer_count(
    kind: &StageKind,
    is_last: bool,
    parallelism: Parallelism,
    input_bytes: u64,
    bytes_per_reducer: u64,
    slots: usize,
) -> usize {
    match (kind, parallelism) {
        (StageKind::MapOnly, _) => 0,
        // Hive's rule: a total order, and an aggregation with no GROUP
        // BY (its one group hashes to one partition anyway), take a
        // single reducer.
        (StageKind::Sort { .. } | StageKind::Aggregate { num_keys: 0, .. }, _) => 1,
        // Section IV-D: one A task per executing slot of the cluster
        // (the paper's Q9 example raises 16 A tasks to 28) — at the
        // paper's scale #O is in the hundreds, so "#A = #O, capped by
        // the slots" is the slot count. The final stage of a query runs
        // with a single A task.
        (_, Parallelism::Enhanced) if is_last => 1,
        (_, Parallelism::Enhanced) => slots.max(1),
        // Hive 0.13's policy scaled to this reproduction's laptop-sized
        // inputs: the default `bytes_per_reducer` puts any full-table
        // stage at the 16-reducer cap regardless of storage format — the
        // regime a 10-40 GB input is in on the real cluster (the paper
        // observes Hive launching 16 A tasks for TPC-H Q9 by default).
        (_, Parallelism::Default) => {
            (input_bytes.div_ceil(bytes_per_reducer.max(1)) as usize).clamp(1, slots.min(16))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Fixture;
    use super::super::EngineKind;
    use super::*;
    use crate::physical::StageOutput;
    use crate::stream::StreamedIntermediate;

    fn aggregate() -> StageKind {
        keyed_aggregate(1)
    }

    fn keyed_aggregate(num_keys: usize) -> StageKind {
        StageKind::Aggregate {
            num_keys,
            aggs: Vec::new(),
            having: None,
            project: Vec::new(),
        }
    }

    #[test]
    fn reducer_count_policy() {
        use Parallelism::{Default, Enhanced};
        let sort = StageKind::Sort {
            ascending: vec![true],
            limit: None,
        };
        const PER: u64 = 32 << 10;
        // (kind, is_last, parallelism, input bytes, slots) -> reducers
        let cases = [
            (StageKind::MapOnly, false, Default, 10 * PER, 28, 0),
            (StageKind::MapOnly, true, Enhanced, 10 * PER, 28, 0),
            (sort.clone(), false, Default, 100 * PER, 28, 1),
            (sort, false, Enhanced, 100 * PER, 28, 1),
            (aggregate(), false, Enhanced, 1, 28, 28),
            (aggregate(), false, Enhanced, 1000 * PER, 28, 28),
            (aggregate(), true, Enhanced, 1000 * PER, 28, 1),
            (aggregate(), false, Default, 0, 28, 1),
            (aggregate(), false, Default, 1, 28, 1),
            (aggregate(), false, Default, 3 * PER, 28, 3),
            (aggregate(), false, Default, 3 * PER + 1, 28, 4),
            (aggregate(), true, Default, 3 * PER + 1, 28, 4),
            (aggregate(), false, Default, 1000 * PER, 28, 16),
            (aggregate(), false, Default, 1000 * PER, 8, 8),
            (keyed_aggregate(0), false, Default, 1000 * PER, 28, 1),
            (keyed_aggregate(0), false, Enhanced, 1000 * PER, 28, 1),
        ];
        for (kind, is_last, parallelism, bytes, slots, want) in cases {
            assert_eq!(
                reducer_count(&kind, is_last, parallelism, bytes, PER, slots),
                want,
                "{} last={is_last} {parallelism:?} bytes={bytes} slots={slots}",
                kind.name()
            );
        }
    }

    #[test]
    fn an_input_with_no_part_files_gets_one_empty_task() {
        let fx = Fixture::new(
            "CREATE TABLE l (k BIGINT, v BIGINT); CREATE TABLE r (k BIGINT, w BIGINT); \
             INSERT INTO r VALUES (1, 10), (2, 20)",
        );
        // A change nobody measured: `r` has no recorded size, so the
        // planner keeps the shuffle join this test is about.
        fx.d.metastore().bump_version("r");
        let plan = fx.plan(
            "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k",
            StageOutput::Collect,
        );
        let join = &plan.stages[0];
        let planned = plan_tasks(join, &fx.ctx(EngineKind::DataMpi)).expect("plan tasks");
        let of_input = |i: usize| -> Vec<&TaskInput> {
            let tasks = planned.tasks.iter().filter(|t| t.input_idx == i);
            tasks.map(|t| &t.input).collect()
        };
        assert_eq!(of_input(0), vec![&TaskInput::Empty]);
        // The join's other side still runs, over its real splits.
        let right = of_input(1);
        assert!(!right.is_empty());
        assert!(right.iter().all(|t| matches!(t, TaskInput::Split(_))));
        assert_eq!(planned.formats.len(), 2);
        assert_eq!(
            planned.input_bytes,
            right.iter().map(|t| t.bytes()).sum::<u64>()
        );
        assert!(planned.input_bytes > 0);
    }

    #[test]
    fn stream_inputs_plan_one_task_per_partition_and_spread_the_hint() {
        let mut fx = Fixture::new("CREATE TABLE t (k BIGINT, v BIGINT)");
        let plan = fx.plan(
            "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s",
            StageOutput::Collect,
        );
        let sort = &plan.stages[1];
        let obs = hdm_obs::ObsHandle::disabled();
        let stream = StreamedIntermediate::new("stage0", 4, &obs);
        stream.declare(4, 4000);
        fx.in_streams.insert(0, stream);
        let planned = plan_tasks(sort, &fx.ctx(EngineKind::DataMpi)).expect("plan tasks");
        let inputs: Vec<&TaskInput> = planned.tasks.iter().map(|t| &t.input).collect();
        let want: Vec<TaskInput> = (0..4)
            .map(|partition| TaskInput::Stream {
                stage: 0,
                partition,
                est_bytes: 1000,
            })
            .collect();
        assert_eq!(inputs, want.iter().collect::<Vec<_>>());
        assert_eq!(want[0].bytes(), 1000);
        assert_eq!(planned.input_bytes, 4000);

        // A producer that declared zero partitions: one Empty task.
        let empty = StreamedIntermediate::new("stage0", 4, &obs);
        empty.declare(0, 4000);
        fx.in_streams.insert(0, empty);
        let planned = plan_tasks(sort, &fx.ctx(EngineKind::DataMpi)).expect("plan tasks");
        assert_eq!(
            planned.tasks,
            vec![Task {
                input_idx: 0,
                input: TaskInput::Empty
            }]
        );
        assert_eq!(planned.input_bytes, 0);
    }
}
