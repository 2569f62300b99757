#![warn(missing_docs)]

//! # hdm-mapred
//!
//! A Hadoop-1.x-like MapReduce engine — the paper's **baseline**.
//!
//! The paper compares Hive on DataMPI against Hive on Hadoop 1.2.1. For
//! the comparison to mean anything, the baseline must execute the same
//! physical plans over the same data, with Hadoop's data-movement
//! architecture:
//!
//! * **Map side** ([`sort`]): map output is collected into a bounded
//!   sort buffer (`io.sort.mb` analogue) laid out like Hadoop's
//!   `MapOutputBuffer` — one byte arena plus one index entry per pair;
//!   when the buffer fills its index is sorted by `(partition, key)` and
//!   *spilled*; at task end the spills are merged into one sorted
//!   segment buffer per reduce partition, which is
//!   **fully materialized** (Hadoop writes map output to local disk —
//!   unlike DataMPI's eager in-memory push, and the root of the paper's
//!   Map-Shuffle gap).
//! * **Shuffle** ([`store`]): materialized segments live in a
//!   [`store::MapOutputStore`]; reducers *pull* their partition's segment
//!   from every completed map (Hadoop's copier threads). The per
//!   (map, reduce) segment sizes are recorded — they are what the
//!   discrete-event model charges the pull-shuffle with.
//! * **Reduce side**: pulled segments are k-way merged and grouped; the
//!   user reduce function sees `(key, values)` groups exactly like the
//!   DataMPI A function, so the Hive layer is engine-agnostic.
//!
//! Functional execution runs map tasks concurrently on a bounded pool
//! (the paper's 4 slots/node × 7 workers = 28 slots), then reduce tasks.
//! The startup, heartbeat-scheduling and copy-phase *timing* behaviours
//! are modelled by `hdm-cluster`, driven by the [`report::MrJobReport`]
//! this engine measures.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use hdm_mapred::{run_mapreduce, MapRedConfig};
//! use hdm_common::kv::{KvPair, BytesComparator};
//! use hdm_common::partition::HashPartitioner;
//!
//! let config = MapRedConfig { map_tasks: 3, reduce_tasks: 2, ..Default::default() };
//! let outcome = run_mapreduce(
//!     &config,
//!     Arc::new(BytesComparator),
//!     Arc::new(HashPartitioner),
//!     Arc::new(|_map_rank, ctx| {
//!         for i in 0..50u8 {
//!             ctx.collect(KvPair::new(vec![i % 5], vec![1]))?;
//!         }
//!         Ok(())
//!     }),
//!     Arc::new(|_reduce_rank, ctx| {
//!         let mut n = 0u64;
//!         while let Some((_key, values)) = ctx.next_group() {
//!             n += values.len() as u64;
//!         }
//!         Ok(n)
//!     }),
//! ).unwrap();
//! assert_eq!(outcome.reduce_results.iter().sum::<u64>(), 150);
//! ```

pub mod report;
pub mod sort;
pub mod store;

mod job;

pub use job::{run_mapreduce, MapContext, MrOutcome, ReduceContext, UnitVolume};
pub use report::{MapTaskStats, MrJobReport, ReduceTaskStats};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct MapRedConfig {
    /// Number of map tasks (normally = number of input splits).
    pub map_tasks: usize,
    /// Number of reduce partitions: the partitioner's `n`, and one
    /// [`crate::ReduceContext`] (one reduce-function call) each.
    pub reduce_tasks: usize,
    /// How many reduce *tasks* run the partitions. `None`: one per
    /// partition. `Some(b)`: once the maps are done, the partitions are
    /// cut into contiguous ranges of about `b` shuffled bytes
    /// ([`hdm_common::partition::byte_ranges`]) and one task runs each
    /// range, its partitions in order.
    pub bytes_per_reduce_task: Option<u64>,
    /// Map-side sort buffer size in bytes (`io.sort.mb` analogue).
    pub sort_buffer_bytes: usize,
    /// Maximum concurrently-running tasks (cluster slot count).
    pub concurrency: usize,
    /// Observability sink: per-task spans plus sort/spill/merge counters
    /// flow here. Defaults to a disabled handle, whose metric handles are
    /// inert.
    pub obs: hdm_obs::ObsHandle,
    /// Fault-injection plan (`hive.ft.*`); disabled by default. When
    /// enabled, map and reduce attempts can be crashed or stalled and are
    /// re-executed under [`Self::recovery`] — Hadoop's own attempt model,
    /// which this engine reproduces natively.
    pub faults: hdm_faults::FaultPlan,
    /// Retry/backoff policy for failed task attempts.
    pub recovery: hdm_faults::RecoveryPolicy,
    /// Cooperative cancellation token. Task supervisors poll it between
    /// waves and attempts (one relaxed load); a fired token makes every
    /// in-flight attempt bail with a terminal, non-retryable
    /// `Cancelled` error. Defaults to a token that never fires.
    pub cancel: hdm_common::CancelToken,
}

impl Default for MapRedConfig {
    fn default() -> MapRedConfig {
        MapRedConfig {
            map_tasks: 4,
            reduce_tasks: 4,
            bytes_per_reduce_task: None,
            sort_buffer_bytes: 4 * 1024 * 1024,
            // The paper's testbed: 7 worker nodes × 4 slots.
            concurrency: 28,
            obs: hdm_obs::ObsHandle::default(),
            faults: hdm_faults::FaultPlan::disabled(),
            recovery: hdm_faults::RecoveryPolicy::default(),
            cancel: hdm_common::CancelToken::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_concurrency_matches_paper_slots() {
        assert_eq!(MapRedConfig::default().concurrency, 28);
    }
}
