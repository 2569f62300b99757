//! The MapReduce job runner: map wave → materialize → pull shuffle →
//! reduce wave.

use crate::report::{MapTaskStats, MrJobReport, ReduceTaskStats};
use crate::sort::SortBuffer;
use crate::store::MapOutputStore;
use crate::MapRedConfig;
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{self, ComparatorRef, KeyGroups, KvPair, ReduceInput, Values};
use hdm_common::partition::{byte_ranges, one_range_each, PartitionerRef};
use hdm_faults::{supervise, FaultPlan, Site};
use std::sync::Arc;
use std::time::Instant;

/// The context a map function emits through (Hadoop's
/// `OutputCollector.collect`).
pub struct MapContext {
    rank: usize,
    num_reducers: usize,
    buffer: SortBuffer,
    partitioner: PartitionerRef,
    stats: MapTaskStats,
    job_start: Instant,
    /// Injected-crash countdown for this attempt: `Some(0)` fails the
    /// next `collect`. Always `None` when fault injection is off.
    crash_countdown: Option<u64>,
    faults: FaultPlan,
    /// Cooperative cancellation: polled once per `collect` (one relaxed
    /// atomic load, same discipline as the disabled-faults path).
    cancel: hdm_common::CancelToken,
    /// The input unit being read: see [`MapContext::end_unit`].
    unit: UnitVolume,
}

/// What one input unit of a map task (a split, when a task reads
/// several) collected, as a map task of that unit alone would have.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitVolume {
    /// Wire bytes collected per partition.
    pub bytes_per_partition: Vec<u64>,
    /// Bytes a sort buffer that started with the unit would have
    /// spilled: the buffer's own rule (spill once the fill reaches
    /// `sort_buffer_bytes`) over the unit's pairs alone.
    pub spill_bytes: u64,
    /// That buffer's fill.
    fill: usize,
}

impl std::fmt::Debug for MapContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapContext")
            .field("rank", &self.rank)
            .field("records", &self.stats.collect.records)
            .finish()
    }
}

impl MapContext {
    /// Map task index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of reduce tasks.
    pub fn num_reducers(&self) -> usize {
        self.num_reducers
    }

    /// Emit one pair into the sort buffer.
    ///
    /// # Errors
    /// As [`MapContext::collect_slices`].
    pub fn collect(&mut self, kv: KvPair) -> Result<()> {
        self.collect_slices(&kv.key, &kv.value)
    }

    /// Emit one pair, given as slices, into the sort buffer: the bytes
    /// are copied once, into the buffer's arena.
    ///
    /// # Errors
    /// [`HdmError::MapRed`] if the partitioner routes the key outside
    /// `0..num_reducers`; [`HdmError::RankFailed`] when an injected
    /// crash fires; [`HdmError::Cancelled`] once the job's token fires.
    pub fn collect_slices(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.cancel.bail_if_cancelled()?;
        if let Some(countdown) = self.crash_countdown.as_mut() {
            if *countdown == 0 {
                self.faults.note_injected(Site::MapTask);
                return Err(HdmError::RankFailed(format!(
                    "M{}: injected crash mid-collect",
                    self.rank
                )));
            }
            *countdown -= 1;
        }
        let partition = self.partitioner.partition(key, self.num_reducers);
        if partition >= self.num_reducers {
            return Err(HdmError::MapRed(format!(
                "partitioner routed key to reducer {partition}, but only {} exist",
                self.num_reducers
            )));
        }
        let wire = kv::wire_size(key, value) as u64;
        self.stats.collect.record_kv(wire, self.job_start);
        self.stats.bytes += wire;
        self.buffer.collect_slices(partition, key, value);
        let unit = &mut self.unit;
        if let Some(b) = unit.bytes_per_partition.get_mut(partition) {
            *b += wire;
        }
        unit.fill += wire as usize;
        if unit.fill >= self.buffer.capacity() {
            unit.spill_bytes += unit.fill as u64;
            unit.fill = 0;
        }
        Ok(())
    }

    /// Close the input unit read so far and start the next: what it
    /// collected per partition, and what a map task of it alone would
    /// have spilled. A task that reads several splits calls this at each
    /// split's end, so volumes stay per split whatever the grouping.
    pub fn end_unit(&mut self) -> UnitVolume {
        let fresh = UnitVolume {
            bytes_per_partition: vec![0; self.num_reducers],
            ..UnitVolume::default()
        };
        std::mem::replace(&mut self.unit, fresh)
    }
}

/// The context a reduce function consumes: sorted `(key, values)` groups.
pub struct ReduceContext {
    rank: usize,
    attempt: u32,
    groups: KeyGroups,
    ranges: Arc<[std::ops::Range<usize>]>,
}

impl std::fmt::Debug for ReduceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceContext")
            .field("rank", &self.rank)
            .finish()
    }
}

impl ReduceContext {
    /// The reduce partition this context holds.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Which recovery attempt is running (0 for the first execution).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The partitions each reduce task of the job runs, in task order.
    pub fn ranges(&self) -> &[std::ops::Range<usize>] {
        &self.ranges
    }

    /// Next key group in comparator order. Key and values are views of
    /// the fetched map-output segments.
    pub fn next_group(&mut self) -> Option<(&[u8], Values<'_>)> {
        self.groups.next_group()
    }
}

/// Results and measurements of a completed MapReduce job.
#[derive(Debug)]
pub struct MrOutcome<RM, RR> {
    /// Map function return values, task order.
    pub map_results: Vec<RM>,
    /// Reduce function return values, partition order.
    pub reduce_results: Vec<RR>,
    /// Everything measured.
    pub report: MrJobReport,
}

/// Type of user map functions: `(map_rank, context) -> RM`.
pub type MapFn<RM> = Arc<dyn Fn(usize, &mut MapContext) -> Result<RM> + Send + Sync>;
/// Type of user reduce functions: `(partition, context) -> RR`, called
/// once per reduce partition.
pub type ReduceFn<RR> = Arc<dyn Fn(usize, &mut ReduceContext) -> Result<RR> + Send + Sync>;

/// Run one MapReduce job with Hadoop's execution shape.
///
/// Map tasks run concurrently (bounded by `config.concurrency`), each
/// collecting into a sort buffer that spills and finally materializes
/// per-partition segments. Reduce tasks then pull their partition's
/// segment from every map, merge, group, and run the reduce function.
///
/// # Errors
/// Returns the first task error.
pub fn run_mapreduce<RM, RR>(
    config: &MapRedConfig,
    comparator: ComparatorRef,
    partitioner: PartitionerRef,
    map_fn: MapFn<RM>,
    reduce_fn: ReduceFn<RR>,
) -> Result<MrOutcome<RM, RR>>
where
    RM: Send + 'static,
    RR: Send + 'static,
{
    if config.map_tasks == 0 || config.reduce_tasks == 0 {
        return Err(HdmError::Config(format!(
            "mapreduce job needs at least one task on each side (m={}, r={})",
            config.map_tasks, config.reduce_tasks
        )));
    }
    let job_start = Instant::now();
    let store = Arc::new(MapOutputStore::new());

    // ---- Map wave -------------------------------------------------------
    let map_outputs = run_wave(config.map_tasks, config.concurrency, {
        let config = config.clone();
        let comparator = Arc::clone(&comparator);
        let partitioner = Arc::clone(&partitioner);
        let store = Arc::clone(&store);
        let map_fn = Arc::clone(&map_fn);
        move |rank| {
            let task_start = Instant::now();
            let track = format!("M{rank}");
            let _task_span = config.obs.span(&track, "task", "map-task");
            let faults = &config.faults;
            let fresh_context = |attempt| MapContext {
                rank,
                num_reducers: config.reduce_tasks,
                buffer: SortBuffer::new(config.sort_buffer_bytes, Arc::clone(&comparator), None),
                partitioner: Arc::clone(&partitioner),
                stats: MapTaskStats::new(rank),
                job_start,
                crash_countdown: faults.crash_after(Site::MapTask, rank, attempt),
                faults: faults.clone(),
                cancel: config.cancel.clone(),
                unit: UnitVolume {
                    bytes_per_partition: vec![0; config.reduce_tasks],
                    ..UnitVolume::default()
                },
            };
            let mut ctx = fresh_context(0);
            let user = supervise(
                faults,
                &config.recovery,
                &config.cancel,
                Site::MapTask,
                rank,
                None,
                |attempt, _| {
                    // A failed attempt is re-executed with a fresh sort
                    // buffer (its spills are discarded with it), so a
                    // replayed split is idempotent — nothing is published
                    // until the final attempt finishes.
                    if attempt > 0 {
                        ctx = fresh_context(attempt);
                    }
                    map_fn(rank, &mut ctx)
                },
            );
            let mut stats = ctx.stats;
            stats.spill.spills = ctx.buffer.spill_count() as u64;
            stats.spill.spill_bytes = ctx.buffer.spill_bytes();
            let label = format_args!("rank={rank}");
            config.obs.count("map.spills", &label, stats.spill.spills);
            config
                .obs
                .count("map.spill.bytes", &label, stats.spill.spill_bytes);
            // Final sort/merge of spill runs into materialized segments —
            // Hadoop's map-side merge, visible as its own span.
            let segments = {
                let _sort_span = config.obs.span(&track, "phase", "sort-merge");
                ctx.buffer.finish_segments(config.reduce_tasks)
            };
            store.publish(rank, segments);
            stats.elapsed = task_start.elapsed();
            (user, stats)
        }
    });

    let mut map_results = Vec::with_capacity(config.map_tasks);
    let mut map_stats = Vec::with_capacity(config.map_tasks);
    let mut first_err: Option<HdmError> = None;
    for (res, stats) in map_outputs {
        map_stats.push(stats);
        match res {
            Ok(v) => map_results.push(v),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    // Wave boundary safe point: a token fired late in the map wave must
    // not launch the reduce wave at all.
    config.cancel.bail_if_cancelled()?;

    // ---- Reduce wave ----------------------------------------------------
    // The maps are done, so every partition's shuffle bytes are known:
    // cut the partitions into the reduce tasks that run them.
    let (maps, partitions) = (config.map_tasks, config.reduce_tasks);
    let ranges: Arc<[std::ops::Range<usize>]> = match config.bytes_per_reduce_task {
        None => one_range_each(partitions).into(),
        Some(per_task) => {
            let bytes: Vec<u64> = (0..partitions)
                .map(|p| (0..maps).map(|m| store.segment_bytes(m, p)).sum())
                .collect();
            byte_ranges(&bytes, per_task).into()
        }
    };
    let reduce_outputs = run_wave(ranges.len(), config.concurrency, {
        let comparator = Arc::clone(&comparator);
        let store = Arc::clone(&store);
        let reduce_fn = Arc::clone(&reduce_fn);
        let obs = config.obs.clone();
        let faults = config.faults.clone();
        let recovery = config.recovery.clone();
        let cancel = config.cancel.clone();
        let ranges = Arc::clone(&ranges);
        move |task| {
            let track = format!("R{task}");
            let _task_span = obs.span(&track, "task", "reduce-task");
            let mut done = Vec::new();
            // One partition at a time, in order, each with its own
            // groups, attempts and result; the first failure ends the
            // task (and the job).
            for rank in ranges.get(task).cloned().unwrap_or_default() {
                let task_start = Instant::now();
                let mut stats = ReduceTaskStats::new(rank, maps);
                // Copier phase: pull this partition's segment from every
                // map and index its pairs where they sit, as map `m`'s
                // pairs in segment order: on equal keys the earlier map
                // goes first.
                let copy_span = obs.span(&track, "phase", "copy");
                let mut input = ReduceInput::default();
                let mut failed: Option<HdmError> = None;
                for m in 0..maps {
                    let fetched = store.fetch(m, rank).and_then(|seg| {
                        let bytes = seg.len() as u64;
                        Ok((bytes, input.push(m, 0, seg, &*comparator)?))
                    });
                    match fetched {
                        Ok((bytes, pairs)) => {
                            if let Some(slot) = stats.shuffled_from.get_mut(m) {
                                *slot = bytes;
                            }
                            stats.records += pairs;
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                drop(copy_span);
                let label = format_args!("rank={rank}");
                obs.count("reduce.shuffled.bytes", &label, stats.shuffled_bytes());
                if let Some(e) = failed {
                    done.push((Err(e), stats));
                    break;
                }
                // Merge + group: one sort of the index, whose segments
                // are already-sorted runs.
                let merge_span = obs.span(&track, "phase", "merge");
                let groups = input.into_groups(&*comparator);
                stats.groups = groups.len() as u64;
                drop(merge_span);
                obs.count("reduce.groups", &format_args!("rank={rank}"), stats.groups);
                // The copy phase is idempotent (segments stay in the
                // map-output store), so a failed reduce attempt replays
                // over the already-merged groups, read again from the
                // first.
                let mut ctx = ReduceContext {
                    rank,
                    attempt: 0,
                    groups,
                    ranges: Arc::clone(&ranges),
                };
                let user = supervise(
                    &faults,
                    &recovery,
                    &cancel,
                    Site::ReduceTask,
                    rank,
                    None,
                    |attempt, _| {
                        if faults
                            .crash_after(Site::ReduceTask, rank, attempt)
                            .is_some()
                        {
                            faults.note_injected(Site::ReduceTask);
                            return Err(HdmError::RankFailed(format!(
                                "R{rank}: injected crash before reduce"
                            )));
                        }
                        ctx.attempt = attempt;
                        ctx.groups.rewind();
                        reduce_fn(rank, &mut ctx)
                    },
                );
                stats.elapsed = task_start.elapsed();
                let failed = user.is_err();
                done.push((user, stats));
                if failed {
                    break;
                }
            }
            done
        }
    });

    let mut reduce_results = Vec::with_capacity(partitions);
    let mut reduce_stats = Vec::with_capacity(partitions);
    for (res, stats) in reduce_outputs.into_iter().flatten() {
        reduce_stats.push(stats);
        match res {
            Ok(v) => reduce_results.push(v),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    Ok(MrOutcome {
        map_results,
        reduce_results,
        report: MrJobReport {
            map_tasks: map_stats,
            reduce_tasks: reduce_stats,
            reduce_ranges: ranges.to_vec(),
            materialized_bytes: store.total_bytes(),
            elapsed: job_start.elapsed(),
        },
    })
}

/// Run `n` tasks on at most `slots` threads; outputs in task order.
fn run_wave<T, F>(n: usize, slots: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    let slots = slots.max(1);
    let task = &task;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots_used = slots.min(n);
    // Collected as (task index, result); sorted back into task order below.
    // A poisoned collector only means some other worker panicked mid-push;
    // the pushed pairs are still intact, so recover the guard.
    let collected = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..slots_used {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let result = task(i);
                collected
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((i, result));
            });
        }
    });
    let mut out = collected
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::kv::BytesComparator;
    use hdm_common::partition::HashPartitioner;

    fn base_config(m: usize, r: usize) -> MapRedConfig {
        MapRedConfig {
            map_tasks: m,
            reduce_tasks: r,
            sort_buffer_bytes: 256, // force spills
            concurrency: 4,
            ..Default::default()
        }
    }

    #[test]
    fn word_count_end_to_end() {
        let config = base_config(3, 2);
        let outcome = run_mapreduce(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_rank, ctx: &mut MapContext| {
                for i in 0..200u32 {
                    ctx.collect(KvPair::new(format!("w{}", i % 13).into_bytes(), vec![1]))?;
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut ReduceContext| {
                let mut n = 0u64;
                let mut prev: Option<Vec<u8>> = None;
                while let Some((key, values)) = ctx.next_group() {
                    if let Some(p) = &prev {
                        assert!(p.as_slice() < key);
                    }
                    prev = Some(key.to_vec());
                    n += values.len() as u64;
                }
                Ok(n)
            }),
        )
        .unwrap();
        assert_eq!(outcome.reduce_results.iter().sum::<u64>(), 600);
        assert_eq!(outcome.report.total_map_records(), 600);
        assert_eq!(outcome.report.total_reduce_records(), 600);
        assert!(outcome.report.map_tasks.iter().any(|t| t.spill.spills > 0));
        assert_eq!(
            outcome.report.total_shuffle_bytes(),
            outcome.report.materialized_bytes
        );
    }

    #[test]
    fn groups_complete_across_maps() {
        let config = base_config(4, 3);
        let outcome = run_mapreduce(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut MapContext| {
                for k in 0..30u8 {
                    ctx.collect(KvPair::new(vec![k], vec![rank as u8]))?;
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut ReduceContext| {
                let mut complete = 0;
                while let Some((_key, values)) = ctx.next_group() {
                    let mut senders: Vec<u8> = values.iter().map(|v| v[0]).collect();
                    senders.sort_unstable();
                    if senders == vec![0, 1, 2, 3] {
                        complete += 1;
                    }
                }
                Ok(complete)
            }),
        )
        .unwrap();
        assert_eq!(outcome.reduce_results.iter().sum::<u64>(), 30);
    }

    #[test]
    fn map_error_propagates() {
        let config = base_config(2, 1);
        let err = run_mapreduce::<(), ()>(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, _ctx: &mut MapContext| {
                if rank == 1 {
                    Err(HdmError::Other("map blew up".into()))
                } else {
                    Ok(())
                }
            }),
            Arc::new(|_rank, _ctx: &mut ReduceContext| Ok(())),
        )
        .unwrap_err();
        assert!(err.message().contains("map blew up"));
    }

    fn word_count_total(config: &MapRedConfig) -> Result<u64> {
        let outcome = run_mapreduce(
            config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_rank, ctx: &mut MapContext| {
                for i in 0..200u32 {
                    ctx.collect(KvPair::new(format!("w{}", i % 13).into_bytes(), vec![1]))?;
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut ReduceContext| {
                let mut n = 0u64;
                while let Some((_key, values)) = ctx.next_group() {
                    n += values.len() as u64;
                }
                Ok(n)
            }),
        )?;
        Ok(outcome.reduce_results.iter().sum())
    }

    /// A seed whose plan crashes at least one of the first three map
    /// attempts within the 200 records each map collects.
    fn map_crashing_seed() -> u64 {
        (0..1024u64)
            .find(|&s| {
                let p = hdm_faults::FaultPlan::with_seed(s);
                (0..3).any(|r| matches!(p.crash_after(Site::MapTask, r, 0), Some(c) if c < 200))
            })
            .expect("no map-crashing seed in 1024 candidates")
    }

    #[test]
    fn injected_map_crash_recovers_with_identical_results() {
        let obs = hdm_obs::ObsHandle::enabled_with_stride(1);
        let conf = hdm_common::conf::JobConf::new()
            .with(hdm_common::conf::KEY_FT_ENABLED, "true")
            .with(hdm_common::conf::KEY_FT_SEED, map_crashing_seed() as i64);
        let faults = FaultPlan::from_conf(&conf, &obs).unwrap();
        let config = MapRedConfig {
            faults,
            ..base_config(3, 2)
        };
        assert_eq!(word_count_total(&config).unwrap(), 600);
        let snap = obs.snapshot();
        let count = |name: &str| {
            snap.counters
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
                .sum::<u64>()
        };
        assert!(count("ft.injected") >= 1, "crash was never injected");
        assert!(count("ft.retries") >= 1, "no task retried");
    }

    #[test]
    fn exhausted_map_attempts_surface_as_rank_failure() {
        let config = MapRedConfig {
            faults: hdm_faults::FaultPlan::with_seed(map_crashing_seed()),
            recovery: hdm_faults::RecoveryPolicy {
                max_attempts: 1,
                ..hdm_faults::RecoveryPolicy::default()
            },
            ..base_config(3, 2)
        };
        let err = word_count_total(&config).unwrap_err();
        assert_eq!(err.subsystem(), "rank-failed");
        assert!(err.message().contains("injected crash"));
    }

    #[test]
    fn zero_tasks_rejected() {
        let config = MapRedConfig {
            map_tasks: 0,
            ..Default::default()
        };
        assert!(run_mapreduce::<(), ()>(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_, _| Ok(())),
            Arc::new(|_, _| Ok(())),
        )
        .is_err());
    }

    #[test]
    fn wave_respects_task_order_in_output() {
        let out = run_wave(10, 3, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_reducer_gets_everything() {
        let config = MapRedConfig {
            map_tasks: 3,
            reduce_tasks: 1,
            ..Default::default()
        };
        let outcome = run_mapreduce(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut MapContext| {
                ctx.collect(KvPair::new(vec![rank as u8], vec![]))?;
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut ReduceContext| {
                let mut n = 0;
                while ctx.next_group().is_some() {
                    n += 1;
                }
                Ok(n)
            }),
        )
        .unwrap();
        assert_eq!(outcome.reduce_results, vec![3]);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use hdm_common::kv::BytesComparator;
    use hdm_common::partition::{HashPartitioner, Partitioner};
    use proptest::prelude::*;

    type Owned = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

    /// The reduce side before fetched segments stayed as they arrived:
    /// every segment decoded into `KvPair`s, a selection merge of those
    /// runs in which the earlier map wins ties, and the merged pairs
    /// grouped into `(key, values)` vectors (a prefix change starts a
    /// group without a key comparison).
    fn oracle(segments: Vec<Bytes>, cmp: &ComparatorRef) -> Owned {
        let runs = segments.iter().map(|seg| kv::decode_all(seg).unwrap());
        let mut groups: Vec<(u128, Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
        for kv in crate::sort::merge_sorted_runs(runs.collect(), cmp) {
            let prefix = cmp.prefix(&kv.key);
            match groups.last_mut() {
                Some((p, key, values))
                    if *p == prefix && cmp.compare(key, &kv.key) == std::cmp::Ordering::Equal =>
                {
                    values.push(kv.value.to_vec());
                }
                _ => groups.push((prefix, kv.key.to_vec(), vec![kv.value.to_vec()])),
            }
        }
        groups.into_iter().map(|(_, k, vs)| (k, vs)).collect()
    }

    proptest! {
        /// Reducers against the decode-and-merge oracle over the same map
        /// outputs: the same groups, values in the same order, and the
        /// same record and group counts.
        #[test]
        fn reducers_match_the_decode_and_merge_oracle(
            maps in proptest::collection::vec(
                proptest::collection::vec(
                    (crate::sort::proptests::key(), proptest::collection::vec(any::<u8>(), 0..4)),
                    0..60,
                ),
                1..5,
            ),
            reducers in 1usize..4,
            capacity in prop_oneof![1usize..64, 64usize..8192],
        ) {
            let cmp: ComparatorRef = Arc::new(BytesComparator);
            let config = MapRedConfig {
                map_tasks: maps.len(),
                reduce_tasks: reducers,
                sort_buffer_bytes: capacity,
                concurrency: 2,
                ..Default::default()
            };
            let input = Arc::new(maps.clone());
            let outcome = run_mapreduce(
                &config,
                Arc::clone(&cmp),
                Arc::new(HashPartitioner),
                Arc::new(move |rank, ctx: &mut MapContext| {
                    for (k, v) in &input[rank] {
                        ctx.collect_slices(k, v)?;
                    }
                    Ok(())
                }),
                Arc::new(|_rank, ctx: &mut ReduceContext| {
                    let mut got = Vec::new();
                    while let Some((key, values)) = ctx.next_group() {
                        got.push((key.to_vec(), values.iter().map(<[u8]>::to_vec).collect()));
                    }
                    Ok::<Owned, HdmError>(got)
                }),
            )
            .unwrap();
            let segments: Vec<Vec<Bytes>> = maps
                .iter()
                .map(|pairs| {
                    let mut buf = SortBuffer::new(capacity, Arc::clone(&cmp), None);
                    for (k, v) in pairs {
                        buf.collect_slices(HashPartitioner.partition(k, reducers), k, v);
                    }
                    buf.finish_segments(reducers)
                })
                .collect();
            for (r, got) in outcome.reduce_results.iter().enumerate() {
                let want = oracle(segments.iter().map(|s| s[r].clone()).collect(), &cmp);
                let stats = &outcome.report.reduce_tasks[r];
                let records: usize = want.iter().map(|(_, vs)| vs.len()).sum();
                prop_assert_eq!((stats.records, stats.groups), (records as u64, want.len() as u64));
                prop_assert_eq!(got, &want);
            }
        }
    }
}
