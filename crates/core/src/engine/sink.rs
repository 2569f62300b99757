//! The partition sink: where a finished output partition (one reduce/A
//! task's rows, or one map-only task's) goes.

use super::StageContext;
use crate::physical::{StageOutput, StagePlan};
use crate::stream::StreamedIntermediate;
use hdm_common::error::Result;
use hdm_common::row::{Row, Schema};
use hdm_dfs::{Dfs, NodeId};
use hdm_storage::seq::SeqFormat;
use hdm_storage::{format_for, FileFormat};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The write half of the intermediate hand-off
/// ([`super::plan::TaskInput`] is the read half); the target is chosen
/// once per stage.
pub(super) enum PartitionSink {
    /// Pipelined mode: commit the partition to the consumer stage's
    /// stream — it starts (or continues) consuming immediately, while
    /// sibling partitions are still being produced.
    Stream(StreamedIntermediate),
    /// One part file per partition.
    Files(PartFiles),
}

/// Part-file target: `{dir}part-{rank:05}` in `format`.
pub(super) struct PartFiles {
    dfs: Dfs,
    dir: String,
    format: Arc<dyn FileFormat>,
    schema: Schema,
    /// Typed sinks (warehouse tables) need cells cast to the declared
    /// column types; sequence sinks preserve dynamic values as-is.
    typed: bool,
    /// `(path, bytes)` by rank. A re-executed attempt (fault recovery)
    /// rewrites the same deterministic path, so it replaces its entry.
    written: Mutex<BTreeMap<usize, (String, u64)>>,
}

impl PartitionSink {
    pub(super) fn for_stage(stage: &StagePlan, ctx: &StageContext<'_>) -> PartitionSink {
        if let Some(out) = &ctx.out_stream {
            return PartitionSink::Stream(out.clone());
        }
        let (dir, format): (String, Arc<dyn FileFormat>) = match &stage.output {
            StageOutput::Table { name, format } => (
                ctx.metastore.storage.table_dir(name),
                Arc::from(format_for(*format)),
            ),
            StageOutput::Intermediate => (
                format!("/tmp/q{}/stage{}/", ctx.query_id, stage.id),
                Arc::new(SeqFormat),
            ),
            StageOutput::Collect => (
                format!("/tmp/q{}/result/", ctx.query_id),
                Arc::new(SeqFormat),
            ),
        };
        let schema =
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
        PartitionSink::Files(PartFiles {
            dfs: ctx.dfs.clone(),
            dir,
            format,
            schema,
            typed: matches!(stage.output, StageOutput::Table { .. }),
            written: Mutex::new(BTreeMap::new()),
        })
    }

    /// Commit partition `rank`, produced by recovery attempt `attempt`
    /// of its task. Streamed commits carry the attempt so a replayed
    /// partition cannot regress a fresher one.
    ///
    /// # Errors
    /// Stream failure/cancellation, or DFS write failures.
    pub(super) fn commit(&self, rank: usize, attempt: u32, rows: Vec<Row>) -> Result<()> {
        match self {
            PartitionSink::Stream(out) => out.commit(rank, attempt, Arc::new(rows)),
            PartitionSink::Files(files) => {
                let path = format!("{}part-{rank:05}", files.dir);
                let node = NodeId((rank % 7) as u32);
                let mut part = files
                    .format
                    .create(&files.dfs, &path, &files.schema, node)?;
                for r in &rows {
                    if files.typed {
                        let cast: Row = r
                            .values()
                            .iter()
                            .zip(files.schema.fields())
                            .map(|(v, f)| v.cast_to(f.data_type))
                            .collect();
                        part.write_row(&cast)?;
                    } else {
                        part.write_row(r)?;
                    }
                }
                let bytes = part.close()?;
                files.written.lock().insert(rank, (path, bytes));
                Ok(())
            }
        }
    }

    /// The part files the stage wrote as `(path, bytes)`, by rank, once
    /// every task has committed (none for a streamed stage).
    pub(super) fn finish(&self) -> BTreeMap<usize, (String, u64)> {
        match self {
            PartitionSink::Stream(_) => BTreeMap::new(),
            PartitionSink::Files(files) => std::mem::take(&mut *files.written.lock()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::Fixture;
    use super::super::{read_seq_outputs, EngineKind};
    use super::*;
    use hdm_common::value::Value;
    use hdm_storage::FormatKind;

    /// Rows whose cells deliberately disagree with the declared
    /// `(BIGINT, DOUBLE)` output types.
    fn dynamic_rows() -> Vec<Row> {
        vec![
            Row::from(vec![Value::Str("7".into()), Value::Long(2)]),
            Row::from(vec![Value::Double(3.0), Value::Null]),
        ]
    }

    fn paths_of(sink: &PartitionSink) -> Vec<String> {
        let out = sink.finish();
        out.into_values().map(|(path, _)| path).collect()
    }

    #[test]
    fn table_output_is_cast_to_the_declared_column_types() {
        let fx = Fixture::new("CREATE TABLE src (a BIGINT, b DOUBLE)");
        let output = StageOutput::Table {
            name: "dst".into(),
            format: FormatKind::Orc,
        };
        let plan = fx.plan("SELECT a, b FROM src", output);
        let stage = &plan.stages[0];
        let sink = PartitionSink::for_stage(stage, &fx.ctx(EngineKind::DataMpi));
        sink.commit(0, 0, dynamic_rows()).expect("commit");
        let paths = paths_of(&sink);
        assert_eq!(paths.len(), 1);
        let PartitionSink::Files(files) = &sink else {
            panic!("a table output goes to part files");
        };
        let split = files.format.splits(&files.dfs, &paths[0]).expect("splits");
        let read = files
            .format
            .read_split(&files.dfs, &split[0], &files.schema, None, &[], None)
            .expect("read back");
        assert_eq!(
            read.rows,
            vec![
                Row::from(vec![Value::Long(7), Value::Double(2.0)]),
                Row::from(vec![Value::Long(3), Value::Null]),
            ]
        );
    }

    #[test]
    fn sequence_outputs_keep_dynamic_values_untouched() {
        let fx = Fixture::new("CREATE TABLE src (a BIGINT, b DOUBLE)");
        for output in [StageOutput::Intermediate, StageOutput::Collect] {
            let plan = fx.plan("SELECT a, b FROM src", output.clone());
            let sink = PartitionSink::for_stage(&plan.stages[0], &fx.ctx(EngineKind::Hadoop));
            // Ranks commit out of order; a replayed attempt rewrites its rank.
            sink.commit(1, 0, dynamic_rows()).expect("commit rank 1");
            sink.commit(0, 0, Vec::new()).expect("commit rank 0");
            let paths = paths_of(&sink);
            assert_eq!(paths.len(), 2, "{output:?}");
            assert!(paths[0].ends_with("part-00000") && paths[1].ends_with("part-00001"));
            let rows = read_seq_outputs(fx.d.dfs(), &paths).expect("read back");
            assert_eq!(rows, dynamic_rows(), "{output:?}");
        }
    }
}
