//! Hadoop adapter: `ExecMapper`/`ExecReducer` wiring. Together with
//! `datampi.rs` this is all the engine-specific code there is — the
//! Table III measure (`table03_productivity` counts these two files).

use super::StageJob;
use hdm_cluster::ReduceVolume;
use hdm_common::error::Result;
use hdm_mapred::{run_mapreduce, MapRedConfig};
use std::sync::Arc;

/// Run the stage as one MapReduce job; returns the per-partition volumes
/// (the caller fills in shuffle and output bytes) and the number of
/// reduce tasks that ran them.
pub(super) fn run_on_hadoop(job: &StageJob<'_>) -> Result<(Vec<ReduceVolume>, usize)> {
    let conf = job.ctx.conf;
    let config = MapRedConfig {
        map_tasks: job.map_tasks,
        reduce_tasks: job.partitions,
        bytes_per_reduce_task: job.bytes_per_reduce_task,
        sort_buffer_bytes: conf.sort_buffer_bytes()?,
        concurrency: conf.local_threads()?,
        obs: job.ctx.obs.clone(),
        faults: job.faults.clone(),
        recovery: job.recovery.clone(),
        cancel: job.ctx.cancel.clone(),
    };
    let (map, reduce) = (Arc::clone(&job.pipeline), Arc::clone(&job.pipeline));
    let outcome = run_mapreduce(
        &config,
        Arc::clone(&job.comparator),
        Arc::clone(&job.partitioner),
        Arc::new(move |rank, ctx: &mut hdm_mapred::MapContext| map.run_map(rank, ctx)),
        Arc::new(move |rank, ctx: &mut hdm_mapred::ReduceContext| reduce.run_reduce(rank, ctx)),
    )?;
    let reduces = outcome.report.reduce_tasks.iter().map(|r| ReduceVolume {
        records: r.records,
        spilled_fraction: 1.0,
        ..ReduceVolume::default()
    });
    Ok((reduces.collect(), outcome.report.reduce_ranges.len()))
}
