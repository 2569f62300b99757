//! Per-task measurements collected during a bipartite job.
//!
//! These are the *functional-level* facts (counts, bytes, event time
//! sequences) that the discrete-event cluster model scales into
//! paper-sized timelines, and that the Figure 2 / Figure 6 harnesses
//! print directly. The collect-side profile and spill accounting are the
//! shared `hdm-obs` types ([`CollectProfile`], [`SpillStats`]) so this
//! report and `hdm-mapred`'s agree on one definition.

use crate::shuffle::tags;
use hdm_common::error::Result;
use hdm_common::stats::Histogram;
use hdm_mpi::Tag;
use std::time::Duration;

pub use hdm_obs::{CollectProfile, SpillStats, KV_HIST_BUCKET};

/// Statistics for one O (operator) task.
#[derive(Debug, Clone)]
pub struct OTaskStats {
    /// O rank (0-based within the O communicator).
    pub rank: usize,
    /// Collect-side profile: records sent through `MPI_D_send`, the
    /// sampled collect-operation time sequence (Figure 2(a)/(b)), and
    /// the KV wire-size histogram (Figure 2(c)/(d)).
    pub collect: CollectProfile,
    /// Total payload bytes pushed to the shuffle engine.
    pub bytes: u64,
    /// Send-partition transmissions: `(offset, payload bytes)` — the
    /// Figure 6 signal.
    pub send_events: Vec<(Duration, u64)>,
    /// Wall time the O task spent blocked pushing into the send queue
    /// (backpressure from the shuffle engine).
    pub queue_wait: Duration,
    /// Wall time from task start to finish.
    pub elapsed: Duration,
}

impl OTaskStats {
    pub(crate) fn new(rank: usize) -> OTaskStats {
        OTaskStats {
            rank,
            collect: CollectProfile::new(),
            bytes: 0,
            send_events: Vec::new(),
            queue_wait: Duration::ZERO,
            elapsed: Duration::ZERO,
        }
    }
}

/// Messages an A rank took off the wire, by kind (see
/// [`crate::shuffle::tags`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// `DATA` messages: send partitions.
    pub data: u64,
    /// `COMMIT` messages: one per O task that wrote to the rank.
    pub commit: u64,
    /// `DONE` messages: one per A rank and job.
    pub done: u64,
    /// `ABORT` messages: failed O attempts (fault tolerance only).
    pub abort: u64,
}

impl WireCounts {
    /// Count one message with base tag `base`.
    pub(crate) fn count(&mut self, base: Tag) {
        match base {
            tags::DATA => self.data += 1,
            tags::COMMIT => self.commit += 1,
            tags::DONE => self.done += 1,
            tags::ABORT => self.abort += 1,
            _ => {}
        }
    }

    fn add(self, other: WireCounts) -> WireCounts {
        WireCounts {
            data: self.data + other.data,
            commit: self.commit + other.commit,
            done: self.done + other.done,
            abort: self.abort + other.abort,
        }
    }
}

/// Statistics for one A (aggregator) partition.
#[derive(Debug, Clone)]
pub struct ATaskStats {
    /// A partition (the A rank, when every A task runs one).
    pub rank: usize,
    /// Key-value pairs received.
    pub records: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Distinct key groups fed to the A function.
    pub groups: u64,
    /// Spill accounting (cache evictions past the memory budget).
    pub spill: SpillStats,
    /// Peak bytes held in the in-memory cache.
    pub cache_peak: u64,
    /// Messages received, by kind.
    pub wire: WireCounts,
    /// Wall time from process start until the `DONE` arrived.
    pub receive_elapsed: Duration,
    /// Wall time of the whole A task (receive + merge + user function).
    pub elapsed: Duration,
}

impl ATaskStats {
    pub(crate) fn new(rank: usize) -> ATaskStats {
        ATaskStats {
            rank,
            records: 0,
            bytes: 0,
            groups: 0,
            spill: SpillStats::default(),
            cache_peak: 0,
            wire: WireCounts::default(),
            receive_elapsed: Duration::ZERO,
            elapsed: Duration::ZERO,
        }
    }
}

/// Everything measured during one bipartite job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Per-O-task stats, rank order.
    pub o_tasks: Vec<OTaskStats>,
    /// Per-A-partition stats, partition order (an A task that runs
    /// several partitions has an entry for each; its wire counts are in
    /// its first).
    pub a_tasks: Vec<ATaskStats>,
    /// The partitions each A task ran, task order.
    pub a_ranges: Vec<std::ops::Range<usize>>,
    /// Total wall time of the job.
    pub elapsed: Duration,
}

impl JobReport {
    /// Total records sent by all O tasks.
    pub fn total_records_sent(&self) -> u64 {
        self.o_tasks.iter().map(|t| t.collect.records).sum()
    }

    /// Total records received by all A tasks.
    pub fn total_records_received(&self) -> u64 {
        self.a_tasks.iter().map(|t| t.records).sum()
    }

    /// Total shuffled payload bytes (O side).
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.o_tasks.iter().map(|t| t.bytes).sum()
    }

    /// Messages the A ranks received, by kind, summed over the job.
    pub fn wire(&self) -> WireCounts {
        self.a_tasks
            .iter()
            .fold(WireCounts::default(), |sum, t| sum.add(t.wire))
    }

    /// Merged KV-size histogram across all O tasks.
    ///
    /// # Errors
    /// [`hdm_common::error::HdmError::Config`] if per-task histograms
    /// disagree on bucket width (cannot happen for reports produced by
    /// `run_bipartite`, which uses one width everywhere).
    pub fn kv_size_histogram(&self) -> Result<Histogram> {
        let mut h = Histogram::with_width(KV_HIST_BUCKET);
        for t in &self.o_tasks {
            h.merge(&t.collect.kv_sizes)?;
        }
        Ok(h)
    }

    /// The latest O-task finish offset — the O-phase length (Figure 6's
    /// per-style comparison reads this).
    pub fn o_phase_duration(&self) -> Duration {
        self.o_tasks
            .iter()
            .map(|t| t.elapsed)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Imbalance of records across A tasks: `max / max(1, min)` — the
    /// skew factor discussed for TPC-H Q9 (13x at 16 tasks).
    pub fn a_skew_factor(&self) -> f64 {
        let max = self.a_tasks.iter().map(|t| t.records).max().unwrap_or(0);
        let min = self.a_tasks.iter().map(|t| t.records).min().unwrap_or(0);
        max as f64 / min.max(1) as f64
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;

    fn report() -> JobReport {
        let mut o0 = OTaskStats::new(0);
        o0.collect.records = 10;
        o0.bytes = 100;
        o0.elapsed = Duration::from_secs(2);
        o0.collect.kv_sizes.record(32);
        let mut o1 = OTaskStats::new(1);
        o1.collect.records = 20;
        o1.bytes = 300;
        o1.elapsed = Duration::from_secs(3);
        o1.collect.kv_sizes.record(14);
        o1.collect.kv_sizes.record(32);
        let mut a0 = ATaskStats::new(0);
        a0.records = 25;
        let mut a1 = ATaskStats::new(1);
        a1.records = 5;
        JobReport {
            o_tasks: vec![o0, o1],
            a_tasks: vec![a0, a1],
            a_ranges: vec![0..1, 1..2],
            elapsed: Duration::from_secs(4),
        }
    }

    #[test]
    fn totals() {
        let r = report();
        assert_eq!(r.total_records_sent(), 30);
        assert_eq!(r.total_records_received(), 30);
        assert_eq!(r.total_shuffle_bytes(), 400);
        assert_eq!(r.o_phase_duration(), Duration::from_secs(3));
    }

    #[test]
    fn kv_histogram_merges() {
        let h = report().kv_size_histogram().unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.mode_bucket(), Some(32));
    }

    #[test]
    fn skew_factor() {
        let r = report();
        assert_eq!(r.a_skew_factor(), 5.0);
    }
}
