//! DataMPI adapter: `DataMPIHiveApplication` + `DataMPICollector` wiring.

use super::StageJob;
use hdm_cluster::ReduceVolume;
use hdm_common::error::{HdmError, Result};
use hdm_datampi::{run_bipartite, DataMpiConfig, ShuffleStyle};
use std::sync::Arc;

/// Run the stage as one bipartite O/A job; returns the A-side volumes.
pub(super) fn run_on_datampi(job: &StageJob<'_>) -> Result<Vec<ReduceVolume>> {
    let conf = job.ctx.conf;
    let (o_tasks, a_tasks) = (job.map_tasks, job.reduce_tasks);
    let style =
        ShuffleStyle::parse(&conf.get_str(hdm_common::conf::KEY_SHUFFLE_STYLE, "nonblocking"))
            .ok_or_else(|| HdmError::Config("bad datampi.shuffle.style".into()))?;
    let config = DataMpiConfig {
        o_tasks,
        a_tasks,
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
        Arc::new(move |rank, ctx: &mut hdm_datampi::OContext| {
            // The DataMPICollector: collect() = MPI_D_send().
            map.run_map(rank, &mut |key, value| ctx.send_slices(key, value))
        }),
        Arc::new(move |rank, ctx: &mut hdm_datampi::AContext| reduce.run_reduce(rank, ctx)),
    )?;
    // link_bytes[src][dst] over world ranks (O = 0..o, A = o..o+a).
    let link = |o: usize, a: usize| -> u64 {
        let row = outcome.report.link_bytes.get(o);
        row.and_then(|row| row.get(o_tasks + a))
            .copied()
            .unwrap_or(0)
    };
    for (o, vol) in job.pipeline.map_vols.lock().iter_mut().enumerate() {
        vol.shuffle_bytes_per_dst = (0..a_tasks).map(|a| link(o, a)).collect();
    }
    Ok(outcome
        .report
        .a_tasks
        .iter()
        .enumerate()
        .map(|(a, stats)| ReduceVolume {
            shuffle_bytes_from: (0..o_tasks).map(|o| link(o, a)).collect(),
            records: stats.records,
            output_bytes: 0,
            spilled_fraction: if stats.bytes == 0 {
                0.0
            } else {
                stats.spill.spill_bytes as f64 / stats.bytes as f64
            },
        })
        .collect())
}
