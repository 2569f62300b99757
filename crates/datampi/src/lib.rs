#![warn(missing_docs)]

//! # hdm-datampi
//!
//! A DataMPI-like key-value communication library (the paper's substrate).
//!
//! DataMPI extends MPI for Big Data applications with a **bipartite
//! communication model**: intermediate data moves from tasks in
//! communicator **O** (Operators, like Mappers) to tasks in communicator
//! **A** (Aggregators, like Reducers) through key-value-pair-based
//! communication operations (`MPI_D_send` / `MPI_D_recv`). This crate
//! reproduces the pieces the paper describes:
//!
//! * [`run_bipartite`] — the `mpidrun` analogue: builds `o + a` ranks on
//!   an [`hdm_mpi::World`], runs the user's O function for ranks `0..o`
//!   on a bounded set of execution slots and the A function, once per
//!   partition, on resident A-task threads. Which A task runs which
//!   partitions is fixed from the data: one per partition as soon as an
//!   O task fills a send partition, else contiguous ranges cut from the
//!   held bytes when the last O task ends. Per the paper's scheduling
//!   policy, user A code runs only after every O task finalizes, but
//!   once spawned the A *processes* run receive threads the whole time,
//!   caching intermediate data in memory as it arrives ("DataMPI can
//!   cache most of the intermediate data in memory by default").
//! * [`buffer::SendPartitionList`] — the buffer manager's SPL: one
//!   partition buffer per A task holding raw KV bytes plus
//!   meta-information (buffer usage, pair count); full
//!   partitions are pushed into the **send block queue** whose length is
//!   the paper's `hive.datampi.sendqueue` knob.
//! * [`shuffle`] — the shuffle engine in both styles of Section IV-C:
//!   **blocking** (each round's sends must be acknowledged before the
//!   next round proceeds — the synchronization stalls of Figure 6) and
//!   **non-blocking** (requests are cached and tested for completion
//!   while new partitions keep flowing).
//! * [`receiver`] — the A-side engine: receive partitions, cache them
//!   up to the memory budget (`hive.datampi.memusedpercent`), spill
//!   sorted runs beyond it, and on O-completion merge everything into
//!   sorted key groups for the A function.
//! * [`report::JobReport`] — per-task measurements (records, bytes,
//!   send-op time sequences, KV-size histograms, spills, the A tasks'
//!   partition ranges) that the discrete-event cluster model converts
//!   into paper-scale timelines.
//!
//! # Example: word-count-shaped aggregation
//!
//! ```
//! use std::sync::Arc;
//! use hdm_datampi::{run_bipartite, DataMpiConfig, ShuffleStyle};
//! use hdm_common::kv::{KvPair, RowKeyComparator};
//! use hdm_common::partition::HashPartitioner;
//!
//! let config = DataMpiConfig { o_tasks: 2, a_tasks: 2, ..Default::default() };
//! let outcome = run_bipartite(
//!     &config,
//!     Arc::new(RowKeyComparator),
//!     Arc::new(HashPartitioner),
//!     Arc::new(|o_rank, ctx| {
//!         for i in 0..100u8 {
//!             ctx.send(KvPair::new(vec![i % 10], vec![o_rank as u8]))?;
//!         }
//!         Ok(())
//!     }),
//!     Arc::new(|_a_rank, ctx| {
//!         let mut groups = 0;
//!         while let Some((_key, values)) = ctx.next_group() {
//!             assert_eq!(values.len(), 20); // 10 per O task
//!             groups += 1;
//!         }
//!         Ok(groups)
//!     }),
//! ).unwrap();
//! let total_groups: usize = outcome.a_results.iter().sum();
//! assert_eq!(total_groups, 10);
//! ```

pub mod buffer;
pub mod receiver;
pub mod report;
pub mod shuffle;

mod job;

pub use job::{run_bipartite, send_rows, AContext, JobOutcome, OContext};
pub use report::{ATaskStats, JobReport, OTaskStats, WireCounts};

/// The two shuffle-engine styles of Section IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleStyle {
    /// Each communication round blocks until every send of the round is
    /// acknowledged by its receiver (the `MPI_Waitall` pattern).
    Blocking,
    /// Requests are cached and tested; data flows as soon as it is
    /// queued. The paper's optimized default for Hive workloads.
    #[default]
    NonBlocking,
}

impl ShuffleStyle {
    /// Parse `"blocking"` / `"nonblocking"`.
    pub fn parse(s: &str) -> Option<ShuffleStyle> {
        match s.to_ascii_lowercase().as_str() {
            "blocking" => Some(ShuffleStyle::Blocking),
            "nonblocking" | "non-blocking" => Some(ShuffleStyle::NonBlocking),
            _ => None,
        }
    }
}

/// Engine configuration (the `hive.datampi.*` knobs plus sizing).
#[derive(Debug, Clone)]
pub struct DataMpiConfig {
    /// Number of O (operator/mapper) tasks.
    pub o_tasks: usize,
    /// Number of A (aggregator/reducer) partitions: the partitioner's
    /// `n`, and one A-function call each.
    pub a_tasks: usize,
    /// How many A *tasks* run the partitions. `None`: one per partition,
    /// fixed before the job starts. `Some(b)`: measured — one per
    /// partition as soon as an O task fills a send partition, else, once
    /// the last O task ends, contiguous ranges of about `b` held bytes
    /// ([`hdm_common::partition::byte_ranges`]).
    pub bytes_per_a_task: Option<u64>,
    /// O execution slots: at most this many O tasks run at once, pulled
    /// in rank order; each slot is a compute thread plus the comm thread
    /// running its shuffle engine. A tasks are resident once spawned, so
    /// a job runs on at most `2 * o_slots + a_tasks + 1` threads (the
    /// one spawns the A tasks) whatever `o_tasks` is.
    pub o_slots: usize,
    /// Shuffle engine style.
    pub shuffle_style: ShuffleStyle,
    /// Send partition buffer size in bytes (per destination A task).
    pub send_partition_bytes: usize,
    /// Send block queue length (`hive.datampi.sendqueue`, paper: 6).
    pub send_queue_len: usize,
    /// A-side in-memory cache budget in bytes before spilling; derived
    /// from `hive.datampi.memusedpercent` × worker memory by the caller.
    pub mem_budget_bytes: usize,
    /// Underlying channel capacity (messages) per rank.
    pub channel_capacity: usize,
    /// Observability sink: spans per O/A task, shuffle counters, and
    /// queue-wait timers flow here. Defaults to a disabled handle, whose
    /// metric handles are inert.
    pub obs: hdm_obs::ObsHandle,
    /// Fault-injection plan (`hive.ft.*`). Disabled by default; when
    /// enabled it also arms receive deadlines, per-source staging on the
    /// A side, and task re-execution under [`Self::recovery`].
    pub faults: hdm_faults::FaultPlan,
    /// Retry/backoff/timeout policy used when [`Self::faults`] is
    /// enabled (and for real failures once detection is armed).
    pub recovery: hdm_faults::RecoveryPolicy,
    /// Cooperative cancellation token. O/A supervisors poll it between
    /// attempts and the shuffle layer polls it per receive slice (one
    /// relaxed load); a fired token unwinds the bipartite job with a
    /// terminal `Cancelled` error without poisoning sibling endpoints.
    /// Defaults to a token that never fires.
    pub cancel: hdm_common::CancelToken,
}

impl Default for DataMpiConfig {
    fn default() -> DataMpiConfig {
        DataMpiConfig {
            o_tasks: 4,
            a_tasks: 4,
            bytes_per_a_task: None,
            o_slots: hdm_common::conf::DEFAULT_LOCAL_THREADS,
            shuffle_style: ShuffleStyle::NonBlocking,
            send_partition_bytes: 64 * 1024,
            send_queue_len: 6,
            mem_budget_bytes: 64 * 1024 * 1024,
            channel_capacity: 1024,
            obs: hdm_obs::ObsHandle::default(),
            faults: hdm_faults::FaultPlan::disabled(),
            recovery: hdm_faults::RecoveryPolicy::default(),
            cancel: hdm_common::CancelToken::default(),
        }
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

    #[test]
    fn shuffle_style_parses() {
        assert_eq!(
            ShuffleStyle::parse("Blocking"),
            Some(ShuffleStyle::Blocking)
        );
        assert_eq!(
            ShuffleStyle::parse("non-blocking"),
            Some(ShuffleStyle::NonBlocking)
        );
        assert_eq!(ShuffleStyle::parse("rdma"), None);
    }

    #[test]
    fn default_config_matches_paper_knobs() {
        let c = DataMpiConfig::default();
        assert_eq!(c.send_queue_len, 6);
        assert_eq!(c.shuffle_style, ShuffleStyle::NonBlocking);
    }
}
