//! Measurements of one MapReduce job (input to the timing model).
//!
//! Collect-side profiling and spill accounting use the shared `hdm-obs`
//! types ([`CollectProfile`], [`SpillStats`]) — one definition across
//! this engine and `hdm-datampi`'s report.

use hdm_common::error::Result;
use hdm_common::stats::Histogram;
use std::time::Duration;

pub use hdm_obs::{CollectProfile, SpillStats, KV_HIST_BUCKET};

/// Statistics for one map task.
#[derive(Debug, Clone)]
pub struct MapTaskStats {
    /// Map task index.
    pub rank: usize,
    /// Collect-side profile: pairs collected, sampled collect-time
    /// sequence, KV wire-size distribution.
    pub collect: CollectProfile,
    /// Serialized bytes collected.
    pub bytes: u64,
    /// Sort-buffer spill accounting (local-disk traffic).
    pub spill: SpillStats,
    /// Wall time of the task.
    pub elapsed: Duration,
}

impl MapTaskStats {
    pub(crate) fn new(rank: usize) -> MapTaskStats {
        MapTaskStats {
            rank,
            collect: CollectProfile::new(),
            bytes: 0,
            spill: SpillStats::default(),
            elapsed: Duration::ZERO,
        }
    }
}

/// Statistics for one reduce partition.
#[derive(Debug, Clone)]
pub struct ReduceTaskStats {
    /// Reduce partition index.
    pub rank: usize,
    /// Bytes pulled from each map (`shuffled_from[map]`).
    pub shuffled_from: Vec<u64>,
    /// Pairs received after the shuffle.
    pub records: u64,
    /// Key groups fed to the reduce function.
    pub groups: u64,
    /// Wall time of the task.
    pub elapsed: Duration,
}

impl ReduceTaskStats {
    pub(crate) fn new(rank: usize, maps: usize) -> ReduceTaskStats {
        ReduceTaskStats {
            rank,
            shuffled_from: vec![0; maps],
            records: 0,
            groups: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Total bytes this reducer pulled.
    pub fn shuffled_bytes(&self) -> u64 {
        self.shuffled_from.iter().sum()
    }
}

/// Everything measured during one MapReduce job.
#[derive(Debug, Clone)]
pub struct MrJobReport {
    /// Per-map stats, task order.
    pub map_tasks: Vec<MapTaskStats>,
    /// Per-reduce-partition stats, partition order.
    pub reduce_tasks: Vec<ReduceTaskStats>,
    /// The partitions each reduce task ran, task order.
    pub reduce_ranges: Vec<std::ops::Range<usize>>,
    /// Total bytes materialized in the map-output store.
    pub materialized_bytes: u64,
    /// Wall time of the whole job.
    pub elapsed: Duration,
}

impl MrJobReport {
    /// Total records collected by maps.
    pub fn total_map_records(&self) -> u64 {
        self.map_tasks.iter().map(|t| t.collect.records).sum()
    }

    /// Total records received by reducers.
    pub fn total_reduce_records(&self) -> u64 {
        self.reduce_tasks.iter().map(|t| t.records).sum()
    }

    /// Total bytes moved by the pull shuffle.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.reduce_tasks.iter().map(|t| t.shuffled_bytes()).sum()
    }

    /// Merged KV-size histogram across maps.
    ///
    /// # Errors
    /// [`hdm_common::error::HdmError::Config`] on bucket-width mismatch
    /// (cannot happen for reports produced by `run_mapreduce`).
    pub fn kv_size_histogram(&self) -> Result<Histogram> {
        let mut h = Histogram::with_width(KV_HIST_BUCKET);
        for t in &self.map_tasks {
            h.merge(&t.collect.kv_sizes)?;
        }
        Ok(h)
    }

    /// Records imbalance across reducers (`max / max(1, min)`).
    pub fn reduce_skew_factor(&self) -> f64 {
        let max = self
            .reduce_tasks
            .iter()
            .map(|t| t.records)
            .max()
            .unwrap_or(0);
        let min = self
            .reduce_tasks
            .iter()
            .map(|t| t.records)
            .min()
            .unwrap_or(0);
        max as f64 / min.max(1) as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_skew() {
        let mut m = MapTaskStats::new(0);
        m.collect.records = 7;
        m.bytes = 70;
        m.collect.kv_sizes.record(10);
        let mut r0 = ReduceTaskStats::new(0, 1);
        r0.records = 6;
        r0.shuffled_from[0] = 60;
        let mut r1 = ReduceTaskStats::new(1, 1);
        r1.records = 1;
        r1.shuffled_from[0] = 10;
        let report = MrJobReport {
            map_tasks: vec![m],
            reduce_tasks: vec![r0, r1],
            reduce_ranges: vec![0..1, 1..2],
            materialized_bytes: 70,
            elapsed: Duration::from_secs(1),
        };
        assert_eq!(report.total_map_records(), 7);
        assert_eq!(report.total_reduce_records(), 7);
        assert_eq!(report.total_shuffle_bytes(), 70);
        assert_eq!(report.reduce_skew_factor(), 6.0);
        assert_eq!(report.kv_size_histogram().unwrap().count(), 1);
    }
}
