//! DataMPI adapter: `DataMPIHiveApplication` + `DataMPICollector` wiring.

use super::StageJob;
use hdm_cluster::ReduceVolume;
use hdm_common::error::{HdmError, Result};
use hdm_datampi::{run_bipartite, DataMpiConfig, ShuffleStyle};
use std::sync::Arc;

/// Run the stage as one bipartite O/A job; returns the per-partition
/// volumes (the caller fills in shuffle and output bytes) and the number
/// of A tasks that ran them.
pub(super) fn run_on_datampi(job: &StageJob<'_>) -> Result<(Vec<ReduceVolume>, usize)> {
    let conf = job.ctx.conf;
    let style =
        ShuffleStyle::parse(&conf.get_str(hdm_common::conf::KEY_SHUFFLE_STYLE, "nonblocking"))
            .ok_or_else(|| HdmError::Config("bad datampi.shuffle.style".into()))?;
    let config = DataMpiConfig {
        o_tasks: job.map_tasks,
        a_tasks: job.partitions,
        bytes_per_a_task: job.bytes_per_reduce_task,
        o_slots: conf.local_threads()?,
        shuffle_style: style,
        send_partition_bytes: conf.send_partition_bytes()?,
        send_queue_len: conf.send_queue_len()?,
        mem_budget_bytes: (conf.worker_mem_bytes()? as f64 * conf.mem_used_percent()?) as usize,
        channel_capacity: 1024,
        obs: job.ctx.obs.clone(),
        faults: job.faults.clone(),
        recovery: job.recovery.clone(),
        cancel: job.ctx.cancel.clone(),
    };
    let (map, reduce) = (Arc::clone(&job.pipeline), Arc::clone(&job.pipeline));
    let outcome = run_bipartite(
        &config,
        Arc::clone(&job.comparator),
        Arc::clone(&job.partitioner),
        // The DataMPICollector: collect() = MPI_D_send().
        Arc::new(move |rank, ctx: &mut hdm_datampi::OContext| map.run_map(rank, ctx)),
        Arc::new(move |rank, ctx: &mut hdm_datampi::AContext| reduce.run_reduce(rank, ctx)),
    )?;
    // The wire of one O task per unit: a 4-byte COMMIT on every link a
    // unit wrote to, and the last unit's task sends each A rank its DONE.
    let mut maps = job.pipeline.map_vols.lock();
    let last = maps.len().saturating_sub(1);
    for (u, vol) in maps.iter_mut().enumerate() {
        for bytes in &mut vol.shuffle_bytes_per_dst {
            *bytes += 4 * (u64::from(*bytes > 0) + u64::from(u == last));
        }
    }
    let reduces = outcome.report.a_tasks.iter().map(|stats| ReduceVolume {
        records: stats.records,
        spilled_fraction: if stats.bytes == 0 {
            0.0
        } else {
            stats.spill.spill_bytes as f64 / stats.bytes as f64
        },
        ..ReduceVolume::default()
    });
    Ok((reduces.collect(), outcome.report.a_ranges.len()))
}
