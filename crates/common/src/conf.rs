//! Job configuration: a typed view over string key-value pairs.
//!
//! Mirrors Hadoop's `JobConf` / Hive's `HiveConf`. The constants below
//! include the three knobs the paper introduces in Section IV-D:
//! `hive.datampi.parallelism`, `hive.datampi.memusedpercent`, and
//! `hive.datampi.sendqueue`.

use crate::error::{HdmError, Result};
use std::collections::BTreeMap;
use std::ops::Bound::{self, Excluded, Included, Unbounded};

/// `hive.datampi.parallelism`: `default` keeps Hive's task-count policy;
/// `enhanced` sets #A-tasks = #O-tasks (1 for the final stage).
pub const KEY_PARALLELISM: &str = "hive.datampi.parallelism";
/// `hive.datampi.memusedpercent`: fraction of worker memory handed to the
/// DataMPI library cache (paper best: 0.4).
pub const KEY_MEM_USED_PERCENT: &str = "hive.datampi.memusedpercent";
/// `hive.datampi.sendqueue`: send block queue length (paper: stable ≥ 6).
pub const KEY_SEND_QUEUE: &str = "hive.datampi.sendqueue";
/// Map-side sort buffer size in bytes (Hadoop `io.sort.mb` analogue).
pub const KEY_SORT_BUFFER_BYTES: &str = "io.sort.buffer.bytes";
/// Task slots per node (paper: 4).
pub const KEY_SLOTS_PER_NODE: &str = "mapred.tasktracker.slots";
/// Tasks of one stage this process runs at once: the Hadoop adapter's
/// map/reduce wave width and the DataMPI adapter's O slot count.
pub const KEY_LOCAL_THREADS: &str = "engine.local.threads";
/// Default of [`KEY_LOCAL_THREADS`], shared with the engines' own config
/// defaults so a job built without a `JobConf` runs as wide as one with.
pub const DEFAULT_LOCAL_THREADS: usize = 8;
/// DataMPI shuffle style: `blocking` or `nonblocking` (Section IV-C).
pub const KEY_SHUFFLE_STYLE: &str = "datampi.shuffle.style";
/// Send partition size in bytes for the DataMPI buffer manager.
pub const KEY_SEND_PARTITION_BYTES: &str = "datampi.send.partition.bytes";
/// Whether the map-side combiner runs (Hive map aggregation).
pub const KEY_COMBINER: &str = "hive.map.aggr";
/// Hive's reducer-count policy input: bytes of stage input per reducer.
pub const KEY_BYTES_PER_REDUCER: &str = "hive.exec.bytes.per.reducer";
/// Whether ORC predicate pushdown is applied at scan time.
pub const KEY_ORC_PUSHDOWN: &str = "hive.orc.pushdown";
/// Per-worker memory in bytes; the DataMPI cache budget is this times
/// [`KEY_MEM_USED_PERCENT`].
pub const KEY_WORKER_MEM_BYTES: &str = "datampi.worker.mem.bytes";
/// Whether the `hdm-obs` tracing/metrics subsystem records anything.
/// Default false: the instrumented hot paths reduce to a single atomic
/// load per site.
pub const KEY_OBS_ENABLED: &str = "hive.obs.enabled";
/// Sampling stride for the `hdm-obs` resource probe: every Nth event on
/// a sampled hot path emits one observation. Default 64 (matches the
/// collect-event stride the reports have always used).
pub const KEY_OBS_SAMPLE_RATE: &str = "hive.obs.sample.rate";
/// Where the driver writes the Chrome-trace JSON (plus a `.summary.txt`
/// sidecar) after a query runs with [`KEY_OBS_ENABLED`]. Unset: no file
/// is written even when tracing is on.
pub const KEY_OBS_TRACE_PATH: &str = "hive.obs.trace.path";
/// Whether the `hdm-faults` fault-injection/recovery subsystem is active.
/// Default false: every injection site reduces to one relaxed atomic load.
pub const KEY_FT_ENABLED: &str = "hive.ft.enabled";
/// Seed for the deterministic fault plan. The same seed over the same
/// query replays byte-identical fault decisions. Default 0.
pub const KEY_FT_SEED: &str = "hive.ft.seed";
/// Maximum attempts per O/A (or map/reduce) task before the job is
/// declared failed and the driver falls back. Default 4 — one more than
/// the plan's injection-suppression horizon, so task-level recovery
/// always converges at the default.
pub const KEY_FT_MAX_ATTEMPTS: &str = "hive.ft.max.attempts";
/// Base of the bounded exponential backoff between task attempts, in
/// milliseconds (`base * 2^attempt`, capped). Default 10.
pub const KEY_FT_BACKOFF_BASE_MS: &str = "hive.ft.backoff.base.ms";
/// Receive/wait deadline in milliseconds once fault tolerance is on; a
/// blocked `recv` returns [`HdmError::Timeout`] instead of hanging on a
/// crashed peer. Default 2000.
pub const KEY_FT_RECV_TIMEOUT_MS: &str = "hive.ft.recv.timeout.ms";
/// Engine the driver re-runs a query on after `hive.ft.max.attempts` is
/// exhausted (`mapreduce`, `datampi`, or `none` to disable the fallback).
/// Default `mapreduce`, mirroring the paper's engine-plug-in seam.
pub const KEY_FT_FALLBACK_ENGINE: &str = "hive.ft.fallback.engine";
/// Worker-thread cap for concurrent stage execution (Hive's
/// `hive.exec.parallel.thread.number`). Default 8; 1 runs the stages
/// of a query one at a time on the calling thread.
pub const KEY_EXEC_PARALLEL_THREADS: &str = "hive.exec.parallel.thread.number";
/// Whether dependent stages stream intermediates partition-by-partition
/// (the Tez-style pipelined stage boundary). Default true; `false`
/// restores full materialization at every stage barrier.
pub const KEY_EXEC_PIPELINED: &str = "hive.exec.pipelined";
/// Backpressure cap for pipelined stage hand-off: the maximum number of
/// committed-but-unconsumed partitions a producer stage may buffer
/// before its commits block. Default 4.
pub const KEY_EXEC_PIPELINED_BUFFER: &str = "hive.exec.pipelined.buffer.partitions";
/// Whether eligible scan stages run the vectorized columnar pipeline
/// (batched ORC decode + column-at-a-time Filter/Select/GroupBy
/// kernels). Default true; ineligible operators (DISTINCT aggregates,
/// join residuals) and non-columnar sources always take the row path.
pub const KEY_VECTORIZED: &str = "hive.vectorized.execution.enabled";
/// Rows per vectorized batch (selection-vector granularity). Default
/// 1024; must be >= 1.
pub const KEY_VECTORIZED_BATCH_SIZE: &str = "hive.vectorized.batch.size";
/// Maximum queries hdm-server executes concurrently (the session-pool
/// worker bound; HiveServer2's `hive.server2.tez.sessions.per.default.queue`
/// analogue). Default 8.
pub const KEY_SERVER_POOL_SIZE: &str = "hive.server.pool.size";
/// Maximum queries allowed to *wait* for admission across all tenants;
/// arrivals beyond this bound are rejected instead of queued. Default 64.
pub const KEY_SERVER_QUEUE_MAX: &str = "hive.server.queue.max";
/// Byte budget (in MiB) of the shared LLAP-style ORC data/metadata
/// cache. 0 disables the cache entirely. Default 64.
pub const KEY_SERVER_IO_CACHE_MB: &str = "hive.server.io.cache.mb";
/// Entry cap for the server-side result cache (keyed on normalized
/// query text plus table versions; LRU beyond the cap). 0 disables
/// result caching. Default 256.
pub const KEY_SERVER_RESULT_CACHE_ENTRIES: &str = "hive.server.result.cache.entries";
/// Per-query deadline in milliseconds: once a query has been running
/// this long the server fires its [`crate::CancelToken`] and it unwinds
/// with [`HdmError::Cancelled`]. 0 disables the deadline. Default 0.
pub const KEY_QUERY_TIMEOUT_MS: &str = "hive.query.timeout.ms";
/// Overload-shedding threshold in milliseconds: a queued request whose
/// *projected* admission wait exceeds this bound is rejected early with
/// [`HdmError::Overloaded`] instead of parking. 0 disables shedding.
/// Default 0.
pub const KEY_SERVER_SHED_WAIT_MS: &str = "hive.server.shed.queue.wait.ms";
/// Consecutive-failure count at which an engine's circuit breaker opens
/// and new queries flip to the fallback engine. 0 disables the breaker.
/// Default 0.
pub const KEY_SERVER_BREAKER_FAILURES: &str = "hive.server.breaker.failures";

/// The parallelism strategy of Section IV-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// #O from splits, #A from Hive's scheduling policy.
    #[default]
    Default,
    /// #A = #O, and 1 for the last stage of a query.
    Enhanced,
}

/// String-typed configuration with typed getters, defaulting like Hadoop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobConf {
    entries: BTreeMap<String, String>,
}

impl JobConf {
    /// An empty configuration (all getters fall back to their defaults).
    pub fn new() -> JobConf {
        JobConf::default()
    }

    /// Set a key to a value (stringified).
    pub fn set(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.entries.insert(key.to_string(), value.to_string());
        self
    }

    /// Builder-style set.
    pub fn with(mut self, key: &str, value: impl ToString) -> Self {
        self.set(key, value);
        self
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// String with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// Integer with default.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer.
    pub fn get_i64(&self, key: &str, default: i64) -> Result<i64> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .trim()
                .parse()
                .map_err(|_| HdmError::Config(format!("{key}: expected integer, got {s:?}"))),
        }
    }

    /// Integer with default that must lie above `floor` and fit `T`:
    /// every range-checked integer knob below reads through here, so a
    /// negative size cannot wrap into a huge `usize`.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] naming the key if the stored value is
    /// not an integer, is below `floor`, or does not fit `T`; `what`
    /// says what the value counts ("expected a queue length >= 1").
    fn get_bounded<T: TryFrom<i64>>(
        &self,
        key: &str,
        default: i64,
        floor: Bound<i64>,
        what: &str,
    ) -> Result<T> {
        let v = self.get_i64(key, default)?;
        let (ok, op, min) = match floor {
            Included(min) => (v >= min, ">=", min),
            Excluded(min) => (v > min, ">", min),
            Unbounded => (true, ">=", i64::MIN),
        };
        match T::try_from(v) {
            Ok(t) if ok => Ok(t),
            _ => Err(HdmError::Config(format!(
                "{key}: expected {what} {op} {min}, got {v}"
            ))),
        }
    }

    /// Float with default.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not a float.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .trim()
                .parse()
                .map_err(|_| HdmError::Config(format!("{key}: expected float, got {s:?}"))),
        }
    }

    /// Boolean with default (`true`/`false`, case-insensitive).
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] on anything else.
    pub fn get_bool(&self, key: &str, default: bool) -> Result<bool> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "1" | "yes" => Ok(true),
                "false" | "0" | "no" => Ok(false),
                other => Err(HdmError::Config(format!(
                    "{key}: expected bool, got {other:?}"
                ))),
            },
        }
    }

    /// The paper's parallelism knob.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] for values other than
    /// `default`/`enhanced`.
    pub fn parallelism(&self) -> Result<Parallelism> {
        match self
            .get_str(KEY_PARALLELISM, "default")
            .to_ascii_lowercase()
            .as_str()
        {
            "default" => Ok(Parallelism::Default),
            "enhanced" => Ok(Parallelism::Enhanced),
            other => Err(HdmError::Config(format!(
                "{KEY_PARALLELISM}: expected default|enhanced, got {other:?}"
            ))),
        }
    }

    /// The `hive.datampi.memusedpercent` knob. Paper default (best
    /// trade-off): **0.4**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not a float or
    /// lies outside `[0, 1]` — a silently clamped 7.5 would hand the
    /// DataMPI cache 7.5× the intended budget on a misread unit.
    pub fn mem_used_percent(&self) -> Result<f64> {
        let v = self.get_f64(KEY_MEM_USED_PERCENT, 0.4)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(HdmError::Config(format!(
                "{KEY_MEM_USED_PERCENT}: expected a fraction in [0, 1], got {v}"
            )));
        }
        Ok(v)
    }

    /// The `hive.datampi.sendqueue` knob. Paper default: **6**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (a queue must hold at least one block).
    pub fn send_queue_len(&self) -> Result<usize> {
        self.get_bounded(KEY_SEND_QUEUE, 6, Included(1), "a queue length")
    }

    /// The DataMPI buffer manager's send partition size in bytes.
    /// Default **16 KiB**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (a partition must hold a byte before it ships).
    pub fn send_partition_bytes(&self) -> Result<usize> {
        self.get_bounded(
            KEY_SEND_PARTITION_BYTES,
            16 << 10,
            Included(1),
            "a size in bytes",
        )
    }

    /// Per-worker memory in bytes, of which [`Self::mem_used_percent`]
    /// goes to the DataMPI cache. Default **64 MiB**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1.
    pub fn worker_mem_bytes(&self) -> Result<u64> {
        self.get_bounded(
            KEY_WORKER_MEM_BYTES,
            64 << 20,
            Included(1),
            "a size in bytes",
        )
    }

    /// The Hadoop map-side sort buffer size in bytes. Default **1 MiB**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (a negative size read as `usize` would be a
    /// buffer that never spills).
    pub fn sort_buffer_bytes(&self) -> Result<usize> {
        self.get_bounded(
            KEY_SORT_BUFFER_BYTES,
            1 << 20,
            Included(1),
            "a size in bytes",
        )
    }

    /// Task slots per node; the cluster has 7 nodes. Default **4**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (zero slots would leave the reducer-count policy
    /// no reducer to give a keyed stage).
    pub fn slots_per_node(&self) -> Result<usize> {
        self.get_bounded(KEY_SLOTS_PER_NODE, 4, Included(1), "a slot count")
    }

    /// Whether `hdm-obs` tracing/metrics collection is on. Default false.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not a bool.
    pub fn obs_enabled(&self) -> Result<bool> {
        self.get_bool(KEY_OBS_ENABLED, false)
    }

    /// The `hive.obs.sample.rate` knob as a sampling stride. Default
    /// **64**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (a stride of 0 would sample nothing and divide
    /// by zero).
    pub fn obs_sample_stride(&self) -> Result<u64> {
        self.get_bounded(KEY_OBS_SAMPLE_RATE, 64, Included(1), "a stride")
    }

    /// Whether fault injection + recovery is on. Default false.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not a bool.
    pub fn ft_enabled(&self) -> Result<bool> {
        self.get_bool(KEY_FT_ENABLED, false)
    }

    /// The deterministic fault-plan seed. Default **0**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer.
    pub fn ft_seed(&self) -> Result<u64> {
        Ok(self.get_i64(KEY_FT_SEED, 0)? as u64)
    }

    /// Maximum attempts per task. Default **4**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (every task needs at least one attempt).
    pub fn ft_max_attempts(&self) -> Result<u32> {
        self.get_bounded(KEY_FT_MAX_ATTEMPTS, 4, Included(1), "an attempt count")
    }

    /// Backoff base in milliseconds. Default **10**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is negative.
    pub fn ft_backoff_base_ms(&self) -> Result<u64> {
        self.get_bounded(KEY_FT_BACKOFF_BASE_MS, 10, Included(0), "a delay in ms")
    }

    /// Receive deadline in milliseconds under fault tolerance. Default
    /// **2000**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is not strictly positive (a zero deadline would time out every
    /// receive before the peer can run).
    pub fn ft_recv_timeout_ms(&self) -> Result<u64> {
        self.get_bounded(KEY_FT_RECV_TIMEOUT_MS, 2000, Excluded(0), "a timeout in ms")
    }

    /// The fallback engine name, lower-cased and validated. Default
    /// `mapreduce`.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] for values other than
    /// `mapreduce`/`hadoop`/`datampi`/`none`.
    pub fn ft_fallback_engine(&self) -> Result<String> {
        let v = self
            .get_str(KEY_FT_FALLBACK_ENGINE, "mapreduce")
            .to_ascii_lowercase();
        match v.as_str() {
            "mapreduce" | "hadoop" | "datampi" | "none" => Ok(v),
            other => Err(HdmError::Config(format!(
                "{KEY_FT_FALLBACK_ENGINE}: expected mapreduce|hadoop|datampi|none, got {other:?}"
            ))),
        }
    }

    /// Stage-scheduler worker cap. Default **8**: independent stages of
    /// a query DAG run concurrently. 1 runs them one at a time.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (the scheduler needs at least one worker to make
    /// progress).
    pub fn exec_parallel_threads(&self) -> Result<usize> {
        self.get_bounded(KEY_EXEC_PARALLEL_THREADS, 8, Included(1), "a thread count")
    }

    /// Tasks of one stage executing at once in this process (both
    /// engines). Default **8**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (a stage needs one worker to make progress, and a
    /// negative count cast to `usize` would ask for 2⁶³ of them).
    pub fn local_threads(&self) -> Result<usize> {
        self.get_bounded(
            KEY_LOCAL_THREADS,
            DEFAULT_LOCAL_THREADS as i64,
            Included(1),
            "a thread count",
        )
    }

    /// Whether dependent stages stream intermediates partition-by-
    /// partition instead of materializing at a stage barrier. Default
    /// **true** (the pipelined path is differential-tested against the
    /// barrier path across both engines and all 22 TPC-H queries).
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not a bool.
    pub fn exec_pipelined(&self) -> Result<bool> {
        self.get_bool(KEY_EXEC_PIPELINED, true)
    }

    /// Pipelined hand-off buffer cap, in partitions. Default **4**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an
    /// integer or is less than 1 (a zero-partition buffer could never
    /// pass data through — the producer's first commit would deadlock).
    pub fn exec_pipelined_buffer(&self) -> Result<usize> {
        self.get_bounded(
            KEY_EXEC_PIPELINED_BUFFER,
            4,
            Included(1),
            "a partition count",
        )
    }

    /// Whether the vectorized columnar pipeline is enabled. Default
    /// **true**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not a bool.
    pub fn vectorized_enabled(&self) -> Result<bool> {
        self.get_bool(KEY_VECTORIZED, true)
    }

    /// Rows per vectorized batch. Default **1024**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an
    /// integer or is less than 1 (an empty batch could never drain a
    /// stripe — the scan loop would spin forever).
    pub fn vectorized_batch_size(&self) -> Result<usize> {
        self.get_bounded(KEY_VECTORIZED_BATCH_SIZE, 1024, Included(1), "a batch size")
    }

    /// hdm-server session-pool size (max concurrently running queries).
    /// Default **8**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (a pool that can run nothing serves nothing).
    pub fn server_pool_size(&self) -> Result<usize> {
        self.get_bounded(KEY_SERVER_POOL_SIZE, 8, Included(1), "a pool size")
    }

    /// hdm-server admission-queue bound (max waiting queries). Default
    /// **64**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is less than 1 (a zero-length queue could never absorb a burst,
    /// making admission control equivalent to plain rejection).
    pub fn server_queue_max(&self) -> Result<usize> {
        self.get_bounded(KEY_SERVER_QUEUE_MAX, 64, Included(1), "a queue bound")
    }

    /// hdm-server shared ORC data/metadata cache budget in MiB. Default
    /// **64**; **0** turns the cache off.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is negative.
    pub fn server_io_cache_mb(&self) -> Result<u64> {
        self.get_bounded(KEY_SERVER_IO_CACHE_MB, 64, Included(0), "a budget in MiB")
    }

    /// Result-cache entry cap (0 disables caching). Default **256**.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is negative.
    pub fn server_result_cache_entries(&self) -> Result<usize> {
        self.get_bounded(
            KEY_SERVER_RESULT_CACHE_ENTRIES,
            256,
            Included(0),
            "an entry cap",
        )
    }

    /// Per-query deadline in milliseconds; **0** (the default) turns the
    /// deadline off entirely.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is negative (a negative deadline would cancel every query
    /// before it started; disable with 0 instead).
    pub fn query_timeout_ms(&self) -> Result<u64> {
        self.get_bounded(KEY_QUERY_TIMEOUT_MS, 0, Included(0), "a timeout in ms")
    }

    /// Overload-shedding bound on projected queue wait, in milliseconds;
    /// **0** (the default) turns shedding off.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is negative.
    pub fn server_shed_wait_ms(&self) -> Result<u64> {
        self.get_bounded(
            KEY_SERVER_SHED_WAIT_MS,
            0,
            Included(0),
            "a wait bound in ms",
        )
    }

    /// Consecutive engine failures before the per-engine circuit breaker
    /// opens; **0** (the default) turns the breaker off.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if the stored value is not an integer
    /// or is negative.
    pub fn server_breaker_failures(&self) -> Result<u64> {
        self.get_bounded(
            KEY_SERVER_BREAKER_FAILURES,
            0,
            Included(0),
            "a failure count",
        )
    }

    /// Iterate over all `(key, value)` entries in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of explicitly-set entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was explicitly set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(String, String)> for JobConf {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> JobConf {
        JobConf {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = JobConf::new();
        assert_eq!(c.parallelism().unwrap(), Parallelism::Default);
        assert!((c.mem_used_percent().unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(c.send_queue_len().unwrap(), 6);
    }

    #[test]
    fn typed_getters() {
        let mut c = JobConf::new();
        c.set(KEY_BYTES_PER_REDUCER, 16)
            .set(KEY_MEM_USED_PERCENT, 0.8)
            .set(KEY_COMBINER, "true");
        assert_eq!(c.get_i64(KEY_BYTES_PER_REDUCER, 1).unwrap(), 16);
        assert!((c.get_f64(KEY_MEM_USED_PERCENT, 0.0).unwrap() - 0.8).abs() < 1e-12);
        assert!(c.get_bool(KEY_COMBINER, false).unwrap());
    }

    #[test]
    fn bad_values_error() {
        let c = JobConf::new().with(KEY_BYTES_PER_REDUCER, "lots");
        assert!(c.get_i64(KEY_BYTES_PER_REDUCER, 1).is_err());
        let c = JobConf::new().with(KEY_PARALLELISM, "turbo");
        assert!(c.parallelism().is_err());
    }

    #[test]
    fn enhanced_parallelism_parses() {
        let c = JobConf::new().with(KEY_PARALLELISM, "Enhanced");
        assert_eq!(c.parallelism().unwrap(), Parallelism::Enhanced);
    }

    #[test]
    fn mem_percent_out_of_range_is_an_error() {
        for bad in ["7.5", "-0.1", "1.0001"] {
            let c = JobConf::new().with(KEY_MEM_USED_PERCENT, bad);
            let err = c.mem_used_percent().unwrap_err();
            assert!(err.message().contains("[0, 1]"), "{bad}: {err}");
        }
        for ok in [("0", 0.0), ("1", 1.0), ("0.4", 0.4)] {
            let c = JobConf::new().with(KEY_MEM_USED_PERCENT, ok.0);
            assert!((c.mem_used_percent().unwrap() - ok.1).abs() < 1e-12);
        }
    }

    #[test]
    fn send_queue_rejects_malformed_values() {
        let c = JobConf::new().with(KEY_SEND_QUEUE, "plenty");
        assert!(c
            .send_queue_len()
            .unwrap_err()
            .message()
            .contains("integer"));
        let c = JobConf::new().with(KEY_SEND_QUEUE, 0);
        assert!(c.send_queue_len().unwrap_err().message().contains(">= 1"));
        let c = JobConf::new().with(KEY_SEND_QUEUE, -3);
        assert!(c.send_queue_len().is_err());
        let c = JobConf::new().with(KEY_SEND_QUEUE, 8);
        assert_eq!(c.send_queue_len().unwrap(), 8);
    }

    #[test]
    fn engine_size_knobs_default_and_validate() {
        let c = JobConf::new();
        assert_eq!(c.send_partition_bytes().unwrap(), 16 << 10);
        assert_eq!(c.worker_mem_bytes().unwrap(), 64 << 20);
        assert_eq!(c.sort_buffer_bytes().unwrap(), 1 << 20);
        assert_eq!(c.slots_per_node().unwrap(), 4);
        let c = JobConf::new()
            .with(KEY_SEND_PARTITION_BYTES, 0)
            .with(KEY_WORKER_MEM_BYTES, 0)
            .with(KEY_SORT_BUFFER_BYTES, 0)
            .with(KEY_SLOTS_PER_NODE, 0);
        let errs = [
            (KEY_SEND_PARTITION_BYTES, c.send_partition_bytes().err()),
            (KEY_WORKER_MEM_BYTES, c.worker_mem_bytes().err()),
            (KEY_SORT_BUFFER_BYTES, c.sort_buffer_bytes().err()),
            (KEY_SLOTS_PER_NODE, c.slots_per_node().err()),
        ];
        for (key, err) in errs {
            let err = err.expect(key);
            assert!(err.message().contains(key), "{err}");
            assert!(err.message().contains(">= 1"), "{err}");
        }
        // A count that does not fit the accessor's type is out of range
        // too, not truncated.
        let c = JobConf::new().with(KEY_FT_MAX_ATTEMPTS, 1i64 << 33);
        assert!(c.ft_max_attempts().is_err());
    }

    #[test]
    fn obs_knobs_default_off_and_validate() {
        let c = JobConf::new();
        assert!(!c.obs_enabled().unwrap());
        assert_eq!(c.obs_sample_stride().unwrap(), 64);

        let c = JobConf::new().with(KEY_OBS_ENABLED, "true");
        assert!(c.obs_enabled().unwrap());

        let c = JobConf::new().with(KEY_OBS_SAMPLE_RATE, 0);
        assert!(c
            .obs_sample_stride()
            .unwrap_err()
            .message()
            .contains(">= 1"));
        let c = JobConf::new().with(KEY_OBS_SAMPLE_RATE, "often");
        assert!(c.obs_sample_stride().is_err());
        let c = JobConf::new().with(KEY_OBS_SAMPLE_RATE, 8);
        assert_eq!(c.obs_sample_stride().unwrap(), 8);
    }

    #[test]
    fn ft_knobs_default_off_and_validate() {
        let c = JobConf::new();
        assert!(!c.ft_enabled().unwrap());
        assert_eq!(c.ft_seed().unwrap(), 0);
        assert_eq!(c.ft_max_attempts().unwrap(), 4);
        assert_eq!(c.ft_backoff_base_ms().unwrap(), 10);
        assert_eq!(c.ft_recv_timeout_ms().unwrap(), 2000);
        assert_eq!(c.ft_fallback_engine().unwrap(), "mapreduce");

        let c = JobConf::new()
            .with(KEY_FT_ENABLED, "true")
            .with(KEY_FT_SEED, 42)
            .with(KEY_FT_MAX_ATTEMPTS, 2)
            .with(KEY_FT_BACKOFF_BASE_MS, 5)
            .with(KEY_FT_RECV_TIMEOUT_MS, 250)
            .with(KEY_FT_FALLBACK_ENGINE, "DataMPI");
        assert!(c.ft_enabled().unwrap());
        assert_eq!(c.ft_seed().unwrap(), 42);
        assert_eq!(c.ft_max_attempts().unwrap(), 2);
        assert_eq!(c.ft_backoff_base_ms().unwrap(), 5);
        assert_eq!(c.ft_recv_timeout_ms().unwrap(), 250);
        assert_eq!(c.ft_fallback_engine().unwrap(), "datampi");
    }

    #[test]
    fn ft_knobs_out_of_range_are_errors() {
        let c = JobConf::new().with(KEY_FT_MAX_ATTEMPTS, 0);
        assert!(c.ft_max_attempts().unwrap_err().message().contains(">= 1"));
        let c = JobConf::new().with(KEY_FT_MAX_ATTEMPTS, "many");
        assert!(c.ft_max_attempts().is_err());

        let c = JobConf::new().with(KEY_FT_RECV_TIMEOUT_MS, 0);
        assert!(c
            .ft_recv_timeout_ms()
            .unwrap_err()
            .message()
            .contains("> 0"));
        let c = JobConf::new().with(KEY_FT_RECV_TIMEOUT_MS, -5);
        assert!(c.ft_recv_timeout_ms().is_err());

        let c = JobConf::new().with(KEY_FT_BACKOFF_BASE_MS, -1);
        assert!(c.ft_backoff_base_ms().is_err());

        let c = JobConf::new().with(KEY_FT_FALLBACK_ENGINE, "spark");
        let err = c.ft_fallback_engine().unwrap_err();
        assert!(err.message().contains("mapreduce|hadoop|datampi|none"));
        let c = JobConf::new().with(KEY_FT_ENABLED, "maybe");
        assert!(c.ft_enabled().is_err());
    }

    #[test]
    fn exec_parallel_threads_defaults_to_eight_and_validates() {
        assert_eq!(JobConf::new().exec_parallel_threads().unwrap(), 8);
        let c = JobConf::new().with(KEY_EXEC_PARALLEL_THREADS, 2);
        assert_eq!(c.exec_parallel_threads().unwrap(), 2);

        let c = JobConf::new().with(KEY_EXEC_PARALLEL_THREADS, 0);
        assert!(c
            .exec_parallel_threads()
            .unwrap_err()
            .message()
            .contains(">= 1"));
        let c = JobConf::new().with(KEY_EXEC_PARALLEL_THREADS, -4);
        assert!(c.exec_parallel_threads().is_err());
        let c = JobConf::new().with(KEY_EXEC_PARALLEL_THREADS, "many");
        assert!(c.exec_parallel_threads().is_err());
    }

    #[test]
    fn local_threads_defaults_to_eight_and_rejects_less_than_one() {
        assert_eq!(JobConf::new().local_threads().unwrap(), 8);
        let c = JobConf::new().with(KEY_LOCAL_THREADS, 3);
        assert_eq!(c.local_threads().unwrap(), 3);
        for bad in [0, -1] {
            let err = JobConf::new()
                .with(KEY_LOCAL_THREADS, bad)
                .local_threads()
                .unwrap_err();
            assert!(err.message().contains(">= 1"), "{err}");
        }
        let c = JobConf::new().with(KEY_LOCAL_THREADS, "all");
        assert!(c.local_threads().is_err());
    }

    #[test]
    fn exec_pipelined_knobs_default_on_and_validate() {
        let c = JobConf::new();
        assert!(c.exec_pipelined().unwrap());
        assert_eq!(c.exec_pipelined_buffer().unwrap(), 4);

        let c = JobConf::new()
            .with(KEY_EXEC_PIPELINED, "false")
            .with(KEY_EXEC_PIPELINED_BUFFER, 16);
        assert!(!c.exec_pipelined().unwrap());
        assert_eq!(c.exec_pipelined_buffer().unwrap(), 16);
    }

    #[test]
    fn exec_pipelined_knobs_out_of_range_are_errors() {
        let c = JobConf::new().with(KEY_EXEC_PIPELINED, "perhaps");
        assert!(c.exec_pipelined().is_err());

        let c = JobConf::new().with(KEY_EXEC_PIPELINED_BUFFER, 0);
        assert!(c
            .exec_pipelined_buffer()
            .unwrap_err()
            .message()
            .contains(">= 1"));
        let c = JobConf::new().with(KEY_EXEC_PIPELINED_BUFFER, -3);
        assert!(c.exec_pipelined_buffer().is_err());
        let c = JobConf::new().with(KEY_EXEC_PIPELINED_BUFFER, "lots");
        assert!(c.exec_pipelined_buffer().is_err());
    }

    #[test]
    fn vectorized_knobs_default_on_and_validate() {
        let c = JobConf::new();
        assert!(c.vectorized_enabled().unwrap());
        assert_eq!(c.vectorized_batch_size().unwrap(), 1024);

        let c = JobConf::new()
            .with(KEY_VECTORIZED, "false")
            .with(KEY_VECTORIZED_BATCH_SIZE, 64);
        assert!(!c.vectorized_enabled().unwrap());
        assert_eq!(c.vectorized_batch_size().unwrap(), 64);
    }

    #[test]
    fn vectorized_knobs_out_of_range_are_errors() {
        let c = JobConf::new().with(KEY_VECTORIZED, "maybe");
        assert!(c.vectorized_enabled().is_err());

        let c = JobConf::new().with(KEY_VECTORIZED_BATCH_SIZE, 0);
        assert!(c
            .vectorized_batch_size()
            .unwrap_err()
            .message()
            .contains(">= 1"));
        let c = JobConf::new().with(KEY_VECTORIZED_BATCH_SIZE, -8);
        assert!(c.vectorized_batch_size().is_err());
        let c = JobConf::new().with(KEY_VECTORIZED_BATCH_SIZE, "many");
        assert!(c.vectorized_batch_size().is_err());
    }

    #[test]
    fn server_knobs_default_and_validate() {
        let c = JobConf::new();
        assert_eq!(c.server_pool_size().unwrap(), 8);
        assert_eq!(c.server_queue_max().unwrap(), 64);
        assert_eq!(c.server_io_cache_mb().unwrap(), 64);
        assert_eq!(c.server_result_cache_entries().unwrap(), 256);

        let c = JobConf::new()
            .with(KEY_SERVER_POOL_SIZE, 2)
            .with(KEY_SERVER_QUEUE_MAX, 5)
            .with(KEY_SERVER_IO_CACHE_MB, 0)
            .with(KEY_SERVER_RESULT_CACHE_ENTRIES, 0);
        assert_eq!(c.server_pool_size().unwrap(), 2);
        assert_eq!(c.server_queue_max().unwrap(), 5);
        assert_eq!(c.server_io_cache_mb().unwrap(), 0);
        assert_eq!(c.server_result_cache_entries().unwrap(), 0);
    }

    #[test]
    fn server_knobs_out_of_range_are_errors() {
        let c = JobConf::new().with(KEY_SERVER_POOL_SIZE, 0);
        assert!(c.server_pool_size().unwrap_err().message().contains(">= 1"));
        let c = JobConf::new().with(KEY_SERVER_POOL_SIZE, -2);
        assert!(c.server_pool_size().is_err());
        let c = JobConf::new().with(KEY_SERVER_POOL_SIZE, "big");
        assert!(c.server_pool_size().is_err());

        let c = JobConf::new().with(KEY_SERVER_QUEUE_MAX, 0);
        assert!(c.server_queue_max().unwrap_err().message().contains(">= 1"));
        let c = JobConf::new().with(KEY_SERVER_QUEUE_MAX, -1);
        assert!(c.server_queue_max().is_err());

        let c = JobConf::new().with(KEY_SERVER_IO_CACHE_MB, -64);
        assert!(c
            .server_io_cache_mb()
            .unwrap_err()
            .message()
            .contains(">= 0"));
        let c = JobConf::new().with(KEY_SERVER_IO_CACHE_MB, "huge");
        assert!(c.server_io_cache_mb().is_err());

        let c = JobConf::new().with(KEY_SERVER_RESULT_CACHE_ENTRIES, -5);
        assert!(c
            .server_result_cache_entries()
            .unwrap_err()
            .message()
            .contains(">= 0"));
    }

    #[test]
    fn lifecycle_knobs_default_to_disabled_sentinel() {
        let c = JobConf::new();
        assert_eq!(c.query_timeout_ms().unwrap(), 0);
        assert_eq!(c.server_shed_wait_ms().unwrap(), 0);
        assert_eq!(c.server_breaker_failures().unwrap(), 0);

        // An explicit 0 is the documented "disabled" sentinel, not an error.
        let c = JobConf::new()
            .with(KEY_QUERY_TIMEOUT_MS, 0)
            .with(KEY_SERVER_SHED_WAIT_MS, 0)
            .with(KEY_SERVER_BREAKER_FAILURES, 0);
        assert_eq!(c.query_timeout_ms().unwrap(), 0);
        assert_eq!(c.server_shed_wait_ms().unwrap(), 0);
        assert_eq!(c.server_breaker_failures().unwrap(), 0);

        let c = JobConf::new()
            .with(KEY_QUERY_TIMEOUT_MS, 30_000)
            .with(KEY_SERVER_SHED_WAIT_MS, 750)
            .with(KEY_SERVER_BREAKER_FAILURES, 3);
        assert_eq!(c.query_timeout_ms().unwrap(), 30_000);
        assert_eq!(c.server_shed_wait_ms().unwrap(), 750);
        assert_eq!(c.server_breaker_failures().unwrap(), 3);
    }

    #[test]
    fn lifecycle_knobs_out_of_range_are_errors() {
        let c = JobConf::new().with(KEY_QUERY_TIMEOUT_MS, -1);
        let err = c.query_timeout_ms().unwrap_err();
        assert!(err.message().contains(KEY_QUERY_TIMEOUT_MS), "{err}");
        assert!(err.message().contains(">= 0"), "{err}");
        let c = JobConf::new().with(KEY_QUERY_TIMEOUT_MS, "forever");
        assert!(c.query_timeout_ms().is_err());

        let c = JobConf::new().with(KEY_SERVER_SHED_WAIT_MS, -250);
        let err = c.server_shed_wait_ms().unwrap_err();
        assert!(err.message().contains(KEY_SERVER_SHED_WAIT_MS), "{err}");
        let c = JobConf::new().with(KEY_SERVER_SHED_WAIT_MS, "soon");
        assert!(c.server_shed_wait_ms().is_err());

        let c = JobConf::new().with(KEY_SERVER_BREAKER_FAILURES, -3);
        let err = c.server_breaker_failures().unwrap_err();
        assert!(err.message().contains(KEY_SERVER_BREAKER_FAILURES), "{err}");
        let c = JobConf::new().with(KEY_SERVER_BREAKER_FAILURES, "few");
        assert!(c.server_breaker_failures().is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let c: JobConf = vec![("a".to_string(), "1".to_string())]
            .into_iter()
            .collect();
        assert_eq!(c.get("a"), Some("1"));
        assert_eq!(c.len(), 1);
    }
}
