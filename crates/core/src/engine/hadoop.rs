//! Hadoop adapter: `ExecMapper`/`ExecReducer` wiring. Together with
//! `datampi.rs` this is all the engine-specific code there is — the
//! Table III measure (`table03_productivity` counts these two files).

use super::StageJob;
use hdm_cluster::ReduceVolume;
use hdm_common::error::Result;
use hdm_mapred::{run_mapreduce, MapRedConfig};
use std::sync::Arc;

/// Run the stage as one MapReduce job; returns the reduce-side volumes.
pub(super) fn run_on_hadoop(job: &StageJob<'_>) -> Result<Vec<ReduceVolume>> {
    let conf = job.ctx.conf;
    let config = MapRedConfig {
        map_tasks: job.map_tasks,
        reduce_tasks: job.reduce_tasks,
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
        Arc::new(move |rank, ctx: &mut hdm_mapred::MapContext| {
            map.run_map(rank, &mut |key, value| ctx.collect_slices(key, value))
        }),
        Arc::new(move |rank, ctx: &mut hdm_mapred::ReduceContext| reduce.run_reduce(rank, ctx)),
    )?;
    // Fold the engine's shuffle measurements into the volumes.
    {
        let mut maps = job.pipeline.map_vols.lock();
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
    Ok(outcome
        .report
        .reduce_tasks
        .iter()
        .map(|r| ReduceVolume {
            shuffle_bytes_from: r.shuffled_from.clone(),
            records: r.records,
            output_bytes: 0, // filled by caller
            spilled_fraction: 1.0,
        })
        .collect())
}
