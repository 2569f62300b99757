//! Task planning: what a stage reads, unit by unit (a split, a stream
//! partition, or nothing), which map/O task reads which units, and how
//! many reduce partitions the stage has.

use super::StageContext;
use crate::physical::{InputSource, StageKind, StagePlan};
use hdm_common::conf::Parallelism;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::Schema;
use hdm_dfs::FileSplit;
use hdm_storage::seq::SeqFormat;
use hdm_storage::{format_for, FileFormat};
use std::ops::Range;
use std::sync::Arc;

/// One unit a map/O task reads — the read half of the intermediate
/// hand-off ([`super::sink::PartitionSink`] is the write half). Volumes,
/// map-side partial aggregates and map-only part files are per unit, so
/// how units are grouped into tasks moves none of them.
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
}

impl TaskInput {
    /// Logical input size: split length, or the hint for inputs that
    /// never touch the DFS.
    pub(super) fn bytes(&self) -> u64 {
        match self {
            TaskInput::Empty => 0,
            TaskInput::Split(split) => split.len,
            TaskInput::Stream { est_bytes, .. } => *est_bytes,
        }
    }
}

/// One unit: an input bound to the tagged stage input it feeds.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Unit {
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

/// A stage's units and tasks, how to read each stage input, and the
/// input volume.
pub(super) struct PlannedTasks {
    pub(super) units: Vec<Unit>,
    /// The units each map/O task reads, in task order: contiguous, in
    /// unit order, never two stage inputs in one task.
    pub(super) tasks: Vec<Range<usize>>,
    /// Per stage input: the file format and the schema rows are read with.
    pub(super) formats: Vec<(Arc<dyn FileFormat>, Schema)>,
    /// Per stage input, per map-side join step: its build table.
    pub(super) builds: Vec<Vec<BuildScan>>,
    /// `hive.orc.pushdown`: whether readers get the planner's predicates.
    pub(super) pushdown: bool,
    /// Sum of every unit's [`TaskInput::bytes`]: drives the reducer
    /// count, and is the size hint a pipelined producer declares.
    pub(super) input_bytes: u64,
}

/// Enumerate the stage's units and group them into map/O tasks: a
/// file input's splits, in order, into at most `2·W` contiguous tasks
/// of about equal bytes (`W` = `engine.local.threads`; an input of at
/// most `2·W` splits keeps one task per split); a stream input's
/// partitions into the producer's own ranges.
///
/// # Errors
/// Unknown tables, missing upstream outputs, split-planning IO failures,
/// or a failed/cancelled producer stream.
pub(super) fn plan_tasks(stage: &StagePlan, ctx: &StageContext<'_>) -> Result<PlannedTasks> {
    let pushdown = ctx
        .conf
        .get_bool(hdm_common::conf::KEY_ORC_PUSHDOWN, true)?;
    let width = 2 * ctx.conf.local_threads()?;
    let mut units: Vec<Unit> = Vec::new();
    let mut tasks: Vec<Range<usize>> = Vec::new();
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
        // Each task's units, counted from this input's first.
        let grouped: Vec<Range<usize>>;
        match &input.source {
            InputSource::Table(name) => {
                let scan = table_scan(name, input.pushed_down(pushdown))?;
                inputs = scan.splits.into_iter().map(TaskInput::Split).collect();
                grouped = group_evenly(&inputs, width);
                (format, schema) = (scan.format, scan.schema);
            }
            InputSource::Stage(id) => {
                format = Arc::new(SeqFormat);
                schema = input.read_schema.clone();
                if let Some(stream) = ctx.in_streams.get(id) {
                    // One unit per producer partition, one task per
                    // producer range: the partitions a producer task
                    // commits are taken, in order, by one task here. The
                    // producer declares its ranges once its own tasks
                    // are fixed, before it commits anything.
                    let (ranges, est_total) = stream.await_ranges()?;
                    let parts = ranges.last().map_or(0, |r| r.end);
                    let est_bytes = est_total / parts.max(1) as u64;
                    let stage = *id;
                    inputs = (0..parts)
                        .map(|partition| TaskInput::Stream {
                            stage,
                            partition,
                            est_bytes,
                        })
                        .collect();
                    grouped = ranges.iter().filter(|r| !r.is_empty()).cloned().collect();
                } else {
                    let paths = ctx.intermediates.get(id);
                    let paths = paths
                        .ok_or_else(|| HdmError::Plan(format!("stage {id} output missing")))?;
                    let preds = input.pushed_down(pushdown);
                    let splits = file_splits(&*format, paths, preds, stage.id, ctx)?;
                    inputs = splits.into_iter().map(TaskInput::Split).collect();
                    grouped = group_evenly(&inputs, width);
                }
            }
        }
        let base = units.len();
        if inputs.is_empty() {
            inputs.push(TaskInput::Empty);
            tasks.push(base..base + 1);
        } else {
            tasks.extend(grouped.into_iter().map(|r| base + r.start..base + r.end));
        }
        units.extend(inputs.into_iter().map(|input| Unit { input_idx, input }));
        formats.push((format, schema));
        let steps = input.map_joins.iter().map(|step| match &step.build.source {
            InputSource::Table(name) => table_scan(name, step.build.pushed_down(pushdown)),
            InputSource::Stage(id) => Err(HdmError::Plan(format!(
                "map-side join over stage {id}'s output: build sides are tables"
            ))),
        });
        builds.push(steps.collect::<Result<Vec<_>>>()?);
    }
    let steps = builds.iter().map(Vec::len).sum::<usize>() as u64;
    let label = format_args!("stage={}", stage.id);
    ctx.obs.count("join.map.steps", &label, steps);
    let input_bytes = units.iter().map(|u| u.input.bytes()).sum();
    Ok(PlannedTasks {
        units,
        tasks,
        formats,
        builds,
        pushdown,
        input_bytes,
    })
}

/// Cut `inputs`, in order, into at most `width` contiguous groups of
/// about equal bytes (of equal counts when no input has any): input `i`
/// goes to group `⌊bytes before i · width / total⌋`, so no input is cut.
/// `width` or fewer inputs keep a group each.
fn group_evenly(inputs: &[TaskInput], width: usize) -> Vec<Range<usize>> {
    if inputs.len() <= width {
        return (0..inputs.len()).map(|i| i..i + 1).collect();
    }
    let width = width.max(1) as u128;
    let total: u128 = inputs.iter().map(|i| u128::from(i.bytes())).sum();
    let weight = |i: &TaskInput| if total == 0 { 1 } else { u128::from(i.bytes()) };
    let total = if total == 0 {
        inputs.len() as u128
    } else {
        total
    };
    let mut groups: Vec<Range<usize>> = Vec::new();
    let (mut before, mut current) = (0u128, None);
    for (i, input) in inputs.iter().enumerate() {
        let group = before * width / total.max(1);
        match groups.last_mut() {
            Some(last) if current == Some(group) => last.end = i + 1,
            _ => groups.push(i..i + 1),
        }
        current = Some(group);
        before += weight(input);
    }
    groups
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
    let label = format_args!("stage={stage_id}");
    ctx.obs.count("orc.stripes.pruned", &label, pruned_stripes);
    ctx.obs.count("orc.rows.pruned", &label, pruned_rows);
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
    fn splits_group_into_at_most_two_w_contiguous_tasks_of_about_equal_bytes() {
        let split = |len: u64| {
            TaskInput::Split(FileSplit {
                path: "/t/part-00000".into(),
                offset: 0,
                len,
                hosts: Vec::new(),
            })
        };
        let sizes = |sizes: &[u64]| sizes.iter().map(|&n| split(n)).collect::<Vec<_>>();
        // Few enough splits: one task each, however uneven.
        assert_eq!(
            group_evenly(&sizes(&[100, 1, 1]), 4),
            vec![0..1, 1..2, 2..3]
        );
        assert!(group_evenly(&[], 4).is_empty());
        // Twelve equal splits in four tasks of three.
        let twelve = sizes(&[10; 12]);
        assert_eq!(group_evenly(&twelve, 4), vec![0..3, 3..6, 6..9, 9..12]);
        // A heavy split is never cut and takes a task to itself.
        let heavy = sizes(&[90, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        let groups = group_evenly(&heavy, 4);
        assert_eq!(groups.first(), Some(&(0..1)));
        assert!(groups.len() <= 4);
        // No bytes at all: even counts.
        assert_eq!(group_evenly(&sizes(&[0; 6]), 3), vec![0..2, 2..4, 4..6]);
        for width in 1..20 {
            let groups = group_evenly(&twelve, width);
            assert!(groups.len() <= width.max(1));
            let covered: Vec<usize> = groups.iter().flat_map(Clone::clone).collect();
            assert_eq!(covered, (0..12).collect::<Vec<_>>(), "width {width}");
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
            let units = planned.units.iter().filter(|u| u.input_idx == i);
            units.map(|u| &u.input).collect()
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
        let inputs: Vec<&TaskInput> = planned.units.iter().map(|u| &u.input).collect();
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
        // A producer that declared one partition per task: one task per
        // partition here too.
        assert_eq!(planned.tasks, vec![0..1, 1..2, 2..3, 3..4]);

        // A producer whose tasks commit several partitions each: one
        // task per producer task, taking its partitions in order.
        let ranged = StreamedIntermediate::new("stage0", 4, &obs);
        ranged.declare_ranges(&[0..3, 3..4], 4000);
        fx.in_streams.insert(0, ranged);
        let planned = plan_tasks(sort, &fx.ctx(EngineKind::DataMpi)).expect("plan tasks");
        assert_eq!(planned.units.len(), 4);
        assert_eq!(planned.tasks, vec![0..3, 3..4]);

        // A producer that declared zero partitions: one Empty task.
        let empty = StreamedIntermediate::new("stage0", 4, &obs);
        empty.declare(0, 4000);
        fx.in_streams.insert(0, empty);
        let planned = plan_tasks(sort, &fx.ctx(EngineKind::DataMpi)).expect("plan tasks");
        assert_eq!(
            planned.units,
            vec![Unit {
                input_idx: 0,
                input: TaskInput::Empty
            }]
        );
        assert_eq!(planned.tasks, vec![0..1]);
        assert_eq!(planned.input_bytes, 0);
    }
}
