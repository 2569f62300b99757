//! The bipartite job runner: the `mpidrun` + `MPI_D.init/finalize`
//! analogue.

use crate::buffer::SendPartitionList;
use crate::receiver::run_receiver;
use crate::report::{ATaskStats, JobReport, OTaskStats, WireCounts};
use crate::shuffle::{frame, run_sender, send_held, Completion, SendCmd, SenderStats};
use crate::DataMpiConfig;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, SendError, Sender};
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{ComparatorRef, KeyGroups, KvPair, Values};
use hdm_common::partition::{byte_ranges, one_range_each, PartitionerRef};
use hdm_faults::{supervise, Site};
use hdm_mpi::{Endpoint, World, WorldConfig};
use hdm_obs::{Counter, Timer};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The context handed to an O (operator) task — the `MPI_D` surface an
/// O-side program sees.
pub struct OContext<'slot> {
    rank: usize,
    /// The job's knobs, fault plan, cancel token (polled once per `send`:
    /// one relaxed atomic load, as on the disabled-faults path) and obs.
    config: &'slot DataMpiConfig,
    /// The executing slot's SPL, empty when the attempt starts.
    spl: &'slot mut SendPartitionList,
    queue: Sender<SendCmd>,
    /// While the job's A tasks are not fixed, the task is off the wire:
    /// its endpoint and the far end of its send queue wait here. The
    /// first partition of the job to fill fixes one A task per partition
    /// and puts the task on the wire (see [`Shape`]).
    pending: Option<(Endpoint, Receiver<SendCmd>)>,
    /// Where a task goes on the wire: the slot's comm thread.
    slot_tx: &'slot Sender<(Endpoint, Receiver<SendCmd>)>,
    shape: &'slot Shape,
    /// Set once the endpoint went to the comm thread: only then has an
    /// attempt anything on the wire to abort.
    on_wire: &'slot AtomicBool,
    /// Payloads whose transmit completed, returned by the shuffle engine
    /// for buffer recycling (Section IV-C's reusable send blocks).
    recycle_rx: &'slot Receiver<Bytes>,
    partitioner: &'slot PartitionerRef,
    stats: OTaskStats,
    /// Wire bytes sent per partition since the last
    /// [`OContext::end_unit`].
    unit_bytes: Vec<u64>,
    job_start: Instant,
    /// Injected-crash countdown for this attempt: `Some(0)` fails the
    /// next `send`. `None` (always, when fault injection is off) costs
    /// nothing on the per-record path.
    crash_countdown: Option<u64>,
    // Registry handles fetched once at task setup (inert when obs is
    // off); the per-record path never touches them, only the flush
    // branch does.
    obs_flushes: Counter,
    obs_flush_bytes: Counter,
    obs_queue_wait: Timer,
    obs_recycle_drops: Counter,
}

impl std::fmt::Debug for OContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OContext")
            .field("rank", &self.rank)
            .field("records", &self.stats.collect.records)
            .finish()
    }
}

impl OContext<'_> {
    /// This task's rank within the O communicator
    /// (`MPI_D_Comm_rank(MPI_D_COMM_BIPARTITE_O)`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of A partitions (`MPI_D_Comm_size(MPI_D_COMM_BIPARTITE_A)`
    /// when every A task runs one).
    pub fn a_tasks(&self) -> usize {
        self.config.a_tasks
    }

    /// `MPI_D_send`: route one key-value pair to the A task owning its
    /// partition. Full partitions flow to the shuffle engine; pushing
    /// into a full send queue blocks (that wait is measured — it is the
    /// signal behind the Figure 8 send-queue tuning curve).
    ///
    /// # Errors
    /// [`HdmError::DataMpi`] if the shuffle engine died;
    /// [`HdmError::RankFailed`] when an injected crash fires;
    /// [`HdmError::Cancelled`] once the job's token fires.
    pub fn send(&mut self, kv: KvPair) -> Result<()> {
        self.send_slices(&kv.key, &kv.value)
    }

    /// [`OContext::send`] of a pair given as slices: the bytes are copied
    /// once, into the destination's send partition.
    ///
    /// # Errors
    /// As [`OContext::send`].
    pub fn send_slices(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.config.cancel.bail_if_cancelled()?;
        if let Some(countdown) = self.crash_countdown.as_mut() {
            if *countdown == 0 {
                self.config.faults.note_injected(Site::OTask);
                return Err(HdmError::RankFailed(format!(
                    "O{}: injected crash mid-stream",
                    self.rank
                )));
            }
            *countdown -= 1;
        }
        let dst = self.partitioner.partition(key, self.config.a_tasks);
        let wire = hdm_common::kv::wire_size(key, value);
        self.stats.collect.record_kv(wire as u64, self.job_start);
        if let Some(bytes) = self.unit_bytes.get_mut(dst) {
            *bytes += wire as u64;
        }
        // Reclaim payloads the shuffle engine finished sending just before
        // the SPL takes a buffer, so it reuses their allocations instead
        // of growing new ones; the pair-by-pair path takes no lock. A
        // declined offer (pool full or buffer still shared) is counted,
        // not silently discarded.
        if self.spl.takes_buffer(dst, wire) {
            while let Ok(done) = self.recycle_rx.try_recv() {
                if !self.spl.recycle(done) {
                    self.obs_recycle_drops.add(1);
                }
            }
        }
        if let Some(payload) = self.spl.push_slices(dst, key, value)? {
            if self.pending.is_some() {
                self.shape.fix_on_overflow(&self.config.obs);
                self.go_on_wire()?;
            }
            let wait_start = Instant::now();
            self.enqueue(dst, payload)?;
            let waited = wait_start.elapsed();
            self.stats.queue_wait += waited;
            self.obs_queue_wait.observe(waited.as_micros() as u64);
        }
        Ok(())
    }

    /// Close the input unit sent so far (a split, when a task reads
    /// several) and start the next: the wire bytes it sent per partition.
    pub fn end_unit(&mut self) -> Vec<u64> {
        let fresh = vec![0; self.config.a_tasks];
        std::mem::replace(&mut self.unit_bytes, fresh)
    }

    /// Hand the task's endpoint to the slot's comm thread, which runs the
    /// shuffle engine on it from here on.
    fn go_on_wire(&mut self) -> Result<()> {
        let Some(pending) = self.pending.take() else {
            return Ok(());
        };
        match self.slot_tx.send(pending) {
            Ok(()) => {
                self.on_wire.store(true, Ordering::Relaxed);
                Ok(())
            }
            Err(SendError(pending)) => {
                self.pending = Some(pending);
                Err(HdmError::DataMpi(format!(
                    "O{}: comm thread gone",
                    self.rank
                )))
            }
        }
    }

    /// Hand one frozen partition to the shuffle engine's send queue.
    fn enqueue(&mut self, dst: usize, payload: Bytes) -> Result<()> {
        let bytes = payload.len() as u64;
        self.stats.bytes += bytes;
        self.queue
            .send(SendCmd::Partition { dst, payload })
            .map_err(|_| HdmError::DataMpi(format!("O{}: shuffle engine gone", self.rank)))?;
        self.obs_flushes.add(1);
        self.obs_flush_bytes.add(bytes);
        Ok(())
    }

    /// Flush all buffered partitions (called automatically at task end).
    fn flush(&mut self) -> Result<()> {
        let buffered = self.spl.flush();
        buffered
            .into_iter()
            .try_for_each(|(dst, payload)| self.enqueue(dst, payload))
    }
}

/// The context handed to an A (aggregator) task for one of its
/// partitions: sorted key groups, the `MPI_D_recv` surface after the O
/// phase completes.
pub struct AContext {
    rank: usize,
    attempt: u32,
    wire: WireCounts,
    groups: KeyGroups,
    ranges: Arc<[Range<usize>]>,
}

impl std::fmt::Debug for AContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AContext")
            .field("rank", &self.rank)
            .finish()
    }
}

impl AContext {
    /// The partition this context holds.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Which recovery attempt is running (0 for the first execution).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The messages the A task took off the wire before its groups were
    /// merged, by kind: counted in the context of its first partition,
    /// zero in the others.
    pub fn wire(&self) -> WireCounts {
        self.wire
    }

    /// The partitions each A task of the job runs, in task order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Next `(key, values)` group in comparator order, or `None` at end —
    /// the iterator-of-same-key's-value-list shape Hive's `ExecReducer`
    /// consumes. Key and values are views of the received payloads.
    pub fn next_group(&mut self) -> Option<(&[u8], Values<'_>)> {
        self.groups.next_group()
    }
}

/// Results and measurements of a completed bipartite job.
#[derive(Debug)]
pub struct JobOutcome<RO, RA> {
    /// Return values of the O tasks, rank order.
    pub o_results: Vec<RO>,
    /// Return values of the A function, partition order.
    pub a_results: Vec<RA>,
    /// Everything measured.
    pub report: JobReport,
}

/// Type of user O functions: `(o_rank, context) -> RO`.
pub type OFn<RO> = Arc<dyn Fn(usize, &mut OContext<'_>) -> Result<RO> + Send + Sync>;
/// Type of user A functions: `(partition, context) -> RA`, called once
/// per A partition.
pub type AFn<RA> = Arc<dyn Fn(usize, &mut AContext) -> Result<RA> + Send + Sync>;

/// Run a bipartite O→A job: the `mpidrun` analogue.
///
/// At most `config.o_slots` slots pull the O ranks in rank order and run
/// each as a task: `2·W` threads serve the O side however many splits
/// it has. A task still talks through its own rank's endpoint, so the
/// wire is what a thread per rank produces. An O task executes `o_fn`
/// with an [`OContext`] whose `send` routes pairs through the SPL buffer
/// manager and the configured shuffle engine; A tasks cache incoming
/// partitions (spilling past the memory budget), and once every O task
/// finalizes, merge-sort their data and execute `a_fn` over each
/// partition's sorted key groups.
///
/// Which A task runs which of the `config.a_tasks` partitions is fixed
/// once per job ([`Shape`]): at the start, one per partition, when
/// `config.bytes_per_a_task` is `None`; else from the data. O tasks
/// keep their output in the SPL, and a task that ends before anything
/// filled a partition holds it off the wire. The first partition to
/// fill fixes one A task per partition; if none fills before the last O
/// task ends, the held bytes are cut into ranges of about
/// `bytes_per_a_task` each. Either way the outcome depends only on the
/// data. The A tasks are spawned once the ranges are fixed, each with a
/// thread for the life of the job (it has to drain its inbox
/// throughout), and the held outputs are sent then: one `DATA` per A
/// task a held task wrote to.
///
/// # Errors
/// Returns the first task error in rank order, O before A (a panic in
/// `o_fn` counts as one); the job still drains cleanly: every O task
/// ends on the wire however it fails, and the last one to end sends the
/// A tasks their `DONE`, so A tasks terminate.
pub fn run_bipartite<RO, RA>(
    config: &DataMpiConfig,
    comparator: ComparatorRef,
    partitioner: PartitionerRef,
    o_fn: OFn<RO>,
    a_fn: AFn<RA>,
) -> Result<JobOutcome<RO, RA>>
where
    RO: Send + 'static,
    RA: Send + 'static,
{
    if config.o_tasks == 0 || config.a_tasks == 0 {
        return Err(HdmError::Config(format!(
            "bipartite job needs at least one task on each side (o={}, a={})",
            config.o_tasks, config.a_tasks
        )));
    }
    let o = config.o_tasks;
    let world = World::new(
        o + config.a_tasks,
        WorldConfig {
            channel_capacity: config.channel_capacity,
            obs: config.obs.clone(),
            faults: config.faults.clone(),
            // A receive deadline is armed only under fault tolerance:
            // without injection the protocol cannot lose messages, and an
            // unbounded recv keeps the fault-free path timer-free.
            recv_timeout: config
                .faults
                .is_enabled()
                .then_some(config.recovery.recv_timeout),
            cancel: config.cancel.clone(),
        },
    )?;
    let job_start = Instant::now();
    let mut o_eps = world.into_endpoints();
    let a_eps = o_eps.split_off(o);
    let job = OJob {
        config,
        partitioner: &partitioner,
        o_fn: &o_fn,
        job_start,
        ranks: Mutex::new(o_eps.into_iter()),
        completion: Completion::new(o, o, config.a_tasks),
        shape: Shape::new(config),
    };
    let (mut o_done, (a_done, held_sent, ranges)) = std::thread::scope(|scope| {
        let job = &job;
        let (comparator, a_fn) = (&comparator, &a_fn);
        let launcher = scope.spawn(move || launch_a_tasks(scope, job, a_eps, comparator, a_fn));
        let slots: Vec<_> = (0..config.o_slots.clamp(1, o))
            .map(|_| scope.spawn(move || run_o_slot(scope, job)))
            .collect();
        let joined: Vec<_> = slots.into_iter().map(|slot| slot.join()).collect();
        // Every O task has ended (or its slot died): whatever was not
        // fixed yet is now, so the launcher never waits for a task that
        // is gone.
        job.shape.fix_at_end(&config.obs);
        let launched = join_rank(launcher);
        let o_done: Vec<_> = (joined.into_iter())
            .flat_map(|slot| slot.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        (o_done, launched)
    });
    let elapsed = job_start.elapsed();
    o_done.sort_by_key(|(rank, _)| *rank);
    let o_done = o_done.into_iter().map(|(_, done)| done);
    let (o_stats, o_results) = o_done.collect::<Result<Vec<_>>>()?.into_iter().unzip();
    let (a_stats, a_results) = a_done
        .into_iter()
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .flatten()
        .unzip();
    held_sent?;
    Ok(JobOutcome {
        o_results,
        a_results,
        report: JobReport {
            o_tasks: o_stats,
            a_tasks: a_stats,
            a_ranges: ranges.to_vec(),
            elapsed,
        },
    })
}

/// Join a rank thread, re-raising its panic in the caller as `World::run`
/// does.
fn join_rank<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// An O task that ended before the job's A tasks were fixed: its
/// endpoint, and its output per partition, flushed from the SPL.
struct Held {
    ep: Endpoint,
    parts: Vec<(usize, Bytes)>,
    failed: bool,
}

/// Which A task runs which partitions: the one decision of a job that
/// waits for data. O tasks report here as a partition fills
/// ([`Shape::fix_on_overflow`]) and as they end ([`Shape::hold`]).
struct Shape {
    state: Mutex<ShapeState>,
    /// The thread waiting in [`Shape::when_fixed`], unparked by `fix`.
    launcher: Mutex<Option<std::thread::Thread>>,
    partitions: usize,
    bytes_per_a_task: u64,
}

struct ShapeState {
    ranges: Option<Arc<[Range<usize>]>>,
    /// O tasks that have not ended.
    unended: usize,
    held: Vec<Held>,
}

impl Shape {
    fn new(config: &DataMpiConfig) -> Shape {
        let partitions = config.a_tasks;
        let fixed = config.bytes_per_a_task.is_none();
        Shape {
            state: Mutex::new(ShapeState {
                ranges: fixed.then(|| one_range_each(partitions).into()),
                unended: config.o_tasks,
                held: Vec::new(),
            }),
            launcher: Mutex::new(None),
            partitions,
            bytes_per_a_task: config.bytes_per_a_task.unwrap_or(1),
        }
    }

    fn is_fixed(&self) -> bool {
        self.state.lock().ranges.is_some()
    }

    /// Fix `ranges` unless something already did; `by` names the rule.
    fn fix(
        &self,
        state: &mut ShapeState,
        ranges: Vec<Range<usize>>,
        by: &str,
        obs: &hdm_obs::ObsHandle,
    ) {
        if state.ranges.is_some() {
            return;
        }
        obs.count("shuffle.ranges", &format_args!("by={by}"), 1);
        state.ranges = Some(ranges.into());
        if let Some(launcher) = &*self.launcher.lock() {
            launcher.unpark();
        }
    }

    /// A partition filled: one A task per partition, as when the data
    /// is too large to merge any.
    fn fix_on_overflow(&self, obs: &hdm_obs::ObsHandle) {
        let ranges = one_range_each(self.partitions);
        self.fix(&mut self.state.lock(), ranges, "overflow", obs);
    }

    /// Every O task ended without a partition filling: cut the held
    /// bytes into ranges.
    fn fix_at_end(&self, obs: &hdm_obs::ObsHandle) {
        let mut state = self.state.lock();
        let mut bytes = vec![0u64; self.partitions];
        for (p, payload) in state.held.iter().flat_map(|h| &h.parts) {
            if let Some(b) = bytes.get_mut(*p) {
                *b += payload.len() as u64;
            }
        }
        let ranges = byte_ranges(&bytes, self.bytes_per_a_task);
        self.fix(&mut state, ranges, "end", obs);
    }

    /// An O task off the wire ends: hold its output for the A tasks,
    /// fixing them if it is the last to end. Returns the task back if the
    /// A tasks were fixed meanwhile — it goes on the wire itself.
    fn hold(&self, held: Held, obs: &hdm_obs::ObsHandle) -> Option<Held> {
        let mut state = self.state.lock();
        if state.ranges.is_some() {
            return Some(held);
        }
        state.held.push(held);
        state.unended = state.unended.saturating_sub(1);
        let last = state.unended == 0;
        drop(state);
        if last {
            self.fix_at_end(obs);
        }
        None
    }

    /// The ranges and the held tasks, in rank order, once fixed. Ends:
    /// the last O task to end fixes them, and so does the job once every
    /// slot has returned, however its tasks went.
    fn when_fixed(&self) -> (Arc<[Range<usize>]>, Vec<Held>) {
        *self.launcher.lock() = Some(std::thread::current());
        loop {
            let mut state = self.state.lock();
            if let Some(ranges) = &state.ranges {
                let ranges = Arc::clone(ranges);
                let mut held = std::mem::take(&mut state.held);
                held.sort_by_key(|h| h.ep.rank());
                return (ranges, held);
            }
            drop(state);
            // `fix` unparks this thread once the ranges are set (an
            // unpark that comes first makes the park return at once);
            // the timeout only bounds a re-check.
            std::thread::park_timeout(std::time::Duration::from_millis(100));
        }
    }
}

/// What the A side of a job returned: per A task its partitions' stats
/// and results, the outcome of sending the held O outputs, and the
/// ranges.
type Launched<RA> = (
    Vec<Result<Vec<(ATaskStats, RA)>>>,
    Result<()>,
    Arc<[Range<usize>]>,
);

/// Once the ranges are fixed: spawn one A task per range (the A
/// endpoints past the last range stay unused), then send every held O
/// task's output and end it on the wire.
fn launch_a_tasks<'scope, RO, RA: Send>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    job: &'scope OJob<'_, RO>,
    a_eps: Vec<Endpoint>,
    comparator: &'scope ComparatorRef,
    a_fn: &'scope AFn<RA>,
) -> Launched<RA> {
    let (ranges, held) = job.shape.when_fixed();
    let config = job.config;
    job.completion.fix_a_tasks(ranges.len());
    let a_tasks: Vec<_> = (ranges.iter().cloned().zip(a_eps).enumerate())
        .map(|(task, (range, ep))| {
            let ranges = Arc::clone(&ranges);
            scope.spawn(move || run_a_task(task, range, ep, ranges, config, comparator, a_fn))
        })
        .collect();
    let mut sent = Ok(());
    for Held {
        mut ep,
        parts,
        failed,
    } in held
    {
        let res = send_held(
            config.shuffle_style,
            &mut ep,
            messages(parts, &ranges),
            &job.completion,
        );
        if failed || res.is_err() {
            ep.poison();
        }
        let ended = job.completion.task_ended(&mut ep);
        if ended.is_err() {
            ep.poison();
        }
        sent = sent.and(res).and(ended);
    }
    let a_done = a_tasks.into_iter().map(join_rank).collect();
    (a_done, sent, ranges)
}

/// A held task's output as one message per A task it wrote to.
fn messages(parts: Vec<(usize, Bytes)>, ranges: &[Range<usize>]) -> Vec<(usize, Bytes)> {
    let mut out = Vec::new();
    for (task, range) in ranges.iter().enumerate() {
        let mine: Vec<(usize, Bytes)> = (parts.iter())
            .filter(|(p, _)| range.contains(p))
            .map(|(p, payload)| (p - range.start, payload.clone()))
            .collect();
        match mine.as_slice() {
            [] => {}
            [(_, payload)] if range.len() == 1 => out.push((task, payload.clone())),
            _ => out.push((task, frame(&mine))),
        }
    }
    out
}

/// What every O slot of one job shares.
struct OJob<'a, RO> {
    config: &'a DataMpiConfig,
    partitioner: &'a PartitionerRef,
    o_fn: &'a OFn<RO>,
    job_start: Instant,
    /// The O ranks no slot has pulled yet, in rank order.
    ranks: Mutex<std::vec::IntoIter<Endpoint>>,
    /// End-of-stream bookkeeping every O task reports to.
    completion: Completion,
    shape: Shape,
}

/// What a slot owns for the life of the job, where a thread per rank set
/// it up per task: the SPL, and the channels to the comm thread running
/// the shuffle engine (tasks out, recycled payloads and results back).
struct OSlot {
    spl: SendPartitionList,
    recycle_rx: Receiver<Bytes>,
    task_tx: Sender<(Endpoint, Receiver<SendCmd>)>,
    sent_rx: Receiver<Result<SenderStats>>,
}

/// One O execution slot: a compute thread (this one) and its comm
/// thread, running O ranks as tasks until none are left to pull.
fn run_o_slot<'scope, RO: Send>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    job: &'scope OJob<'_, RO>,
) -> Vec<(usize, Result<(OTaskStats, RO)>)> {
    let config = job.config;
    let (task_tx, task_rx) = bounded::<(Endpoint, Receiver<SendCmd>)>(1);
    let (sent_tx, sent_rx) = bounded(1);
    // Bounded so a slow compute thread never piles up spares: up to two
    // per destination keeps the pool warm without hoarding memory.
    let (recycle_tx, recycle_rx) = bounded(config.a_tasks.saturating_mul(2).max(1));
    scope.spawn(move || {
        // hdm-allow(unbounded-blocking): in-process hand-off; the compute thread drops the sender once the ranks run out
        while let Ok((mut ep, queue)) = task_rx.recv() {
            let rank = ep.rank();
            let engine = std::panic::AssertUnwindSafe(|| {
                run_sender(
                    config.shuffle_style,
                    &mut ep,
                    queue,
                    &job.completion,
                    job.job_start,
                    Some(recycle_tx.clone()),
                    &config.obs,
                )
            });
            let sent = std::panic::catch_unwind(engine).unwrap_or_else(|_| {
                Err(HdmError::DataMpi(format!(
                    "O{rank}: shuffle engine panicked"
                )))
            });
            let res = end_task(&mut ep, &job.completion, sent);
            if sent_tx.send(res).is_err() {
                return;
            }
        }
    });
    let mut slot = OSlot {
        spl: SendPartitionList::new(config.a_tasks, config.send_partition_bytes),
        recycle_rx,
        task_tx,
        sent_rx,
    };
    let mut done = Vec::new();
    loop {
        let Some(ep) = job.ranks.lock().next() else {
            return done;
        };
        done.push((ep.rank(), run_o_task(ep, &mut slot, job)));
    }
}

/// Every O task leaves the wire here, however it went: a failed task
/// poisons its endpoint (peers waiting on it fail fast instead of
/// waiting out their receive deadline), and it still counts as ended,
/// so the task that ends last sends the A ranks their `DONE`.
fn end_task<T>(ep: &mut Endpoint, completion: &Completion, outcome: Result<T>) -> Result<T> {
    if outcome.is_err() {
        ep.poison();
    }
    let ended = completion.task_ended(ep);
    if ended.is_err() {
        ep.poison();
    }
    let value = outcome?;
    ended.map(|()| value)
}

fn run_o_task<RO>(ep: Endpoint, slot: &mut OSlot, job: &OJob<'_, RO>) -> Result<(OTaskStats, RO)> {
    let task_start = Instant::now();
    let config = job.config;
    let rank = ep.rank();
    let obs = &config.obs;
    let track = format!("O{rank}");
    let _task_span = obs.span(&track, "task", "o-task");
    let label = format_args!("rank={rank}");
    // The send block queue is the task's own: an engine that dies drops
    // the receiving end, and the next `send` sees it at once.
    let (tx, rx) = bounded(config.send_queue_len.max(1));
    let on_wire = AtomicBool::new(false);
    let faults = &config.faults;
    // One context for the task's life; each attempt replays the split
    // through it from a clean start. Idempotence comes from the A side
    // discarding aborted attempts wholesale.
    let mut ctx = OContext {
        rank,
        config,
        spl: &mut slot.spl,
        queue: tx.clone(),
        pending: Some((ep, rx)),
        slot_tx: &slot.task_tx,
        shape: &job.shape,
        on_wire: &on_wire,
        recycle_rx: &slot.recycle_rx,
        partitioner: job.partitioner,
        stats: OTaskStats::new(rank),
        unit_bytes: vec![0; config.a_tasks],
        job_start: job.job_start,
        crash_countdown: None,
        obs_flushes: obs.counter("spl.flushes", &label),
        obs_flush_bytes: obs.counter("spl.flush.bytes", &label),
        obs_queue_wait: obs.timer("spl.queue.wait.us", &label, hdm_obs::TIMER_US_BUCKET),
        obs_recycle_drops: obs.counter("spl.recycle.drops", &label),
    };
    // The A tasks are known: on the wire from the start.
    if job.shape.is_fixed() {
        if let Err(e) = ctx.go_on_wire() {
            let Some((mut ep, _)) = ctx.pending.take() else {
                return Err(e);
            };
            return end_task(&mut ep, &job.completion, Err(e));
        }
    }
    let user = supervise(
        faults,
        &config.recovery,
        &config.cancel,
        Site::OTask,
        rank,
        // Roll the attempt: A tasks discard its partial stream. A failed
        // send means the shuffle engine died, so retrying is pointless.
        // An attempt that never went on the wire has nothing to discard.
        Some(&mut || !on_wire.load(Ordering::Relaxed) || tx.send(SendCmd::Abort).is_ok()),
        |attempt, _| {
            // Empty SPL buffers (whatever the slot's last attempt left is
            // dropped), fresh stats, its own crash countdown.
            drop(ctx.spl.flush());
            ctx.stats = OTaskStats::new(rank);
            ctx.unit_bytes.iter_mut().for_each(|b| *b = 0);
            ctx.crash_countdown = faults.crash_after(Site::OTask, rank, attempt);
            // A panicking O function must not take its slot down: the
            // ranks the slot would have pulled next would never end, and
            // the A ranks would never get their DONE.
            let run = std::panic::AssertUnwindSafe(|| (job.o_fn)(rank, &mut ctx));
            std::panic::catch_unwind(run).unwrap_or_else(|_| {
                Err(HdmError::DataMpi(format!(
                    "O{rank}: task function panicked"
                )))
            })
        },
    );
    // On success (or with fault tolerance off, where the contract is
    // "flush and commit even on error"), the buffered partitions are
    // sent; an exhausted failed task instead aborts so A tasks drop the
    // partial attempt rather than aggregate half a split.
    let send_output = user.is_ok() || !faults.is_enabled();
    let mut requeued = Ok(());
    if let Some((ep, rx)) = ctx.pending.take() {
        // Still off the wire: hold the output until the A tasks are fixed.
        let parts = ctx.spl.flush();
        let parts = if send_output { parts } else { Vec::new() };
        let bytes = parts.iter().map(|(_, p)| p.len() as u64).sum::<u64>();
        let held = Held {
            ep,
            parts,
            failed: user.is_err(),
        };
        let Some(held) = job.shape.hold(held, obs) else {
            let mut stats = ctx.stats;
            stats.bytes += bytes;
            stats.elapsed = task_start.elapsed();
            return user.map(|value| (stats, value));
        };
        // Fixed while this task ended: one A task per partition, and
        // the task goes on the wire itself.
        ctx.pending = Some((held.ep, rx));
        if let Err(e) = ctx.go_on_wire() {
            let Some((mut ep, _)) = ctx.pending.take() else {
                return Err(e);
            };
            return end_task(&mut ep, &job.completion, Err(e));
        }
        // A failure here is the engine's: it is reported below, after
        // the engine has answered for the task.
        requeued =
            (held.parts.into_iter()).try_for_each(|(dst, payload)| ctx.enqueue(dst, payload));
    }
    let flush = if send_output {
        requeued.and_then(|()| ctx.flush())
    } else {
        // The abort only fails if the shuffle engine is already gone —
        // the split is being dropped either way, but the drop must not
        // be silent (same contract as the recycle path above).
        if ctx.queue.send(SendCmd::Abort).is_err() {
            obs.count("spl.abort.drops", &label, 1);
        }
        Ok(())
    };
    let mut stats = ctx.stats;
    if tx.send(SendCmd::Finish).is_err() {
        // Engine hung up before Finish: its result below carries the
        // real error; the counter keeps the lost commit visible in obs.
        obs.count("spl.finish.drops", &label, 1);
    }
    // hdm-allow(unbounded-blocking): the comm thread answers every task it accepted, or drops the channel when it dies
    let sender_stats = match slot.sent_rx.recv() {
        Ok(res) => res,
        Err(_) => Err(HdmError::DataMpi("shuffle engine thread panicked".into())),
    };
    let value = user?;
    flush?;
    stats.send_events = sender_stats?.send_events;
    stats.elapsed = task_start.elapsed();
    Ok((stats, value))
}

/// One A task: receive its partitions' data until the `DONE`, then run
/// the A function over each partition in order, each with its own
/// attempts.
fn run_a_task<RA>(
    task: usize,
    range: Range<usize>,
    mut ep: Endpoint,
    ranges: Arc<[Range<usize>]>,
    config: &DataMpiConfig,
    comparator: &ComparatorRef,
    a_fn: &AFn<RA>,
) -> Result<Vec<(ATaskStats, RA)>> {
    let task_start = Instant::now();
    let mut stats: Vec<ATaskStats> = range.clone().map(ATaskStats::new).collect();
    let track = format!("A{task}");
    let _task_span = config.obs.span(&track, "task", "a-task");
    let groups = run_receiver(
        &mut ep,
        config.o_tasks,
        config.shuffle_style,
        config.mem_budget_bytes,
        comparator,
        &mut stats,
        &config.faults,
        &config.obs,
    );
    let groups = match groups {
        Err(e) => {
            // Receive failures are not task-recoverable (the stream is
            // gone); poison so O senders blocked on our acks fail fast.
            ep.poison();
            return Err(e);
        }
        Ok(groups) => groups,
    };
    let mut out = Vec::with_capacity(stats.len());
    for (groups, mut stats) in groups.into_iter().zip(stats) {
        let ctx = AContext {
            rank: stats.rank,
            attempt: 0,
            wire: stats.wire,
            groups,
            ranges: Arc::clone(&ranges),
        };
        let value = run_a_attempts(ctx, config, a_fn)?;
        stats.elapsed = task_start.elapsed();
        out.push((stats, value));
    }
    Ok(out)
}

/// Re-executes the user A function over one partition's (already
/// received and merged) key groups. The merged input is the replay
/// source — receiving it again is never needed, so A recovery is purely
/// local, and a replay reads the same groups again from the first.
fn run_a_attempts<RA>(mut ctx: AContext, config: &DataMpiConfig, a_fn: &AFn<RA>) -> Result<RA> {
    let faults = &config.faults;
    let partition = ctx.rank;
    supervise(
        faults,
        &config.recovery,
        &config.cancel,
        Site::ATask,
        partition,
        None,
        |attempt, _| {
            if faults
                .crash_after(Site::ATask, partition, attempt)
                .is_some()
            {
                faults.note_injected(Site::ATask);
                return Err(HdmError::RankFailed(format!(
                    "A{partition}: injected crash before aggregation"
                )));
            }
            ctx.attempt = attempt;
            ctx.groups.rewind();
            a_fn(partition, &mut ctx)
        },
    )
}

/// Convenience: send a pre-built row pair from an O task.
///
/// # Errors
/// Propagates [`OContext::send`] failures.
pub fn send_rows(
    ctx: &mut OContext<'_>,
    key: &hdm_common::row::Row,
    value: &hdm_common::row::Row,
) -> Result<()> {
    ctx.send(KvPair::from_rows(key, value))
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
    use crate::ShuffleStyle;
    use hdm_common::kv::{BytesComparator, RowKeyComparator};
    use hdm_common::partition::HashPartitioner;
    use hdm_common::row::Row;
    use hdm_common::value::Value;
    use hdm_faults::FaultPlan;
    use std::sync::atomic::Ordering;

    fn base_config(o: usize, a: usize) -> DataMpiConfig {
        DataMpiConfig {
            o_tasks: o,
            a_tasks: a,
            send_partition_bytes: 128,
            ..Default::default()
        }
    }

    fn word_count(style: ShuffleStyle, mem_budget: usize) -> (u64, JobReport) {
        let config = DataMpiConfig {
            shuffle_style: style,
            mem_budget_bytes: mem_budget,
            ..base_config(3, 2)
        };
        let outcome = run_bipartite(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_rank, ctx: &mut OContext| {
                for i in 0..300u32 {
                    let word = format!("word{}", i % 17);
                    ctx.send(KvPair::new(word.into_bytes(), vec![1u8]))?;
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut AContext| {
                let mut total = 0u64;
                let mut last_key: Option<Vec<u8>> = None;
                while let Some((key, values)) = ctx.next_group() {
                    // Keys must arrive in strictly increasing order.
                    if let Some(prev) = &last_key {
                        assert!(prev.as_slice() < key, "group order violated");
                    }
                    last_key = Some(key.to_vec());
                    total += values.len() as u64;
                }
                Ok(total)
            }),
        )
        .unwrap();
        (outcome.a_results.iter().sum(), outcome.report)
    }

    #[test]
    fn nonblocking_counts_every_record() {
        let (total, report) = word_count(ShuffleStyle::NonBlocking, 1 << 20);
        assert_eq!(total, 900);
        assert_eq!(report.total_records_sent(), 900);
        assert_eq!(report.total_records_received(), 900);
        assert_eq!(
            report.a_tasks.iter().map(|t| t.spill.spills).sum::<u64>(),
            0
        );
    }

    #[test]
    fn blocking_counts_every_record() {
        let (total, _) = word_count(ShuffleStyle::Blocking, 1 << 20);
        assert_eq!(total, 900);
    }

    #[test]
    fn tiny_memory_budget_forces_spills_without_losing_data() {
        let (total, report) = word_count(ShuffleStyle::NonBlocking, 256);
        assert_eq!(total, 900);
        assert!(
            report.a_tasks.iter().map(|t| t.spill.spills).sum::<u64>() > 0,
            "expected spills with a 256-byte budget"
        );
    }

    #[test]
    fn groups_are_complete_across_senders() {
        // Every O task sends value o_rank for each key; each group must
        // contain exactly o_tasks values.
        let config = base_config(4, 3);
        let outcome = run_bipartite(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut OContext| {
                for k in 0..50u8 {
                    ctx.send(KvPair::new(vec![k], vec![rank as u8]))?;
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut AContext| {
                let mut bad = 0;
                let mut groups = 0;
                while let Some((_k, values)) = ctx.next_group() {
                    groups += 1;
                    let mut senders: Vec<u8> = values.iter().map(|v| v[0]).collect();
                    senders.sort_unstable();
                    if senders != vec![0, 1, 2, 3] {
                        bad += 1;
                    }
                }
                Ok((groups, bad))
            }),
        )
        .unwrap();
        let total_groups: usize = outcome.a_results.iter().map(|(g, _)| g).sum();
        let total_bad: usize = outcome.a_results.iter().map(|(_, b)| b).sum();
        assert_eq!(total_groups, 50);
        assert_eq!(total_bad, 0);
    }

    #[test]
    fn row_keys_sort_numerically() {
        let config = base_config(2, 1);
        let outcome = run_bipartite(
            &config,
            Arc::new(RowKeyComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_rank, ctx: &mut OContext| {
                for k in [100i64, 5, 20, 3] {
                    send_rows(
                        ctx,
                        &Row::from(vec![Value::Long(k)]),
                        &Row::from(vec![Value::Long(k * 2)]),
                    )?;
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut AContext| {
                let mut keys = Vec::new();
                while let Some((mut key, _)) = ctx.next_group() {
                    keys.push(Row::decode(&mut key).unwrap().get(0).as_i64().unwrap());
                }
                Ok(keys)
            }),
        )
        .unwrap();
        assert_eq!(outcome.a_results[0], vec![3, 5, 20, 100]);
    }

    #[test]
    fn o_task_error_propagates_without_hanging() {
        let config = base_config(2, 2);
        let err = run_bipartite::<(), u64>(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut OContext| {
                ctx.send(KvPair::new(vec![1], vec![2]))?;
                if rank == 1 {
                    return Err(HdmError::Other("injected failure".into()));
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut AContext| {
                let mut n = 0;
                while ctx.next_group().is_some() {
                    n += 1;
                }
                Ok(n)
            }),
        )
        .unwrap_err();
        assert!(err.message().contains("injected failure"));
    }

    /// Find a fault seed whose plan crashes at least one of the first
    /// `o` O-task attempts within `records` sends, while keeping the MPI
    /// wire drop-free for the first `seqs` messages of every rank (drops
    /// are deliberately not task-recoverable, so a dropping seed would
    /// test the job-error path instead of task recovery).
    fn crashing_clean_seed(o: usize, records: u64, world: usize, seqs: u64) -> u64 {
        (0..4096u64)
            .find(|&s| {
                let p = FaultPlan::with_seed(s);
                let crashes = (0..o)
                    .any(|r| matches!(p.crash_after(Site::OTask, r, 0), Some(c) if c < records));
                crashes
                    && (0..world).all(|r| (0..seqs).all(|q| !p.should_drop(Site::MpiSend, r, q)))
            })
            .expect("no crashing drop-free seed in 4096 candidates")
    }

    fn word_count_with_faults(
        faults: FaultPlan,
        recovery: hdm_faults::RecoveryPolicy,
        style: ShuffleStyle,
    ) -> Result<(u64, JobReport)> {
        let config = DataMpiConfig {
            shuffle_style: style,
            mem_budget_bytes: 1 << 20,
            faults,
            recovery,
            ..base_config(3, 2)
        };
        let outcome = run_bipartite(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_rank, ctx: &mut OContext| {
                for i in 0..300u32 {
                    let word = format!("word{}", i % 17);
                    ctx.send(KvPair::new(word.into_bytes(), vec![1u8]))?;
                }
                Ok(())
            }),
            Arc::new(|_rank, ctx: &mut AContext| {
                let mut total = 0u64;
                while let Some((_key, values)) = ctx.next_group() {
                    total += values.len() as u64;
                }
                Ok(total)
            }),
        )?;
        Ok((outcome.a_results.iter().sum(), outcome.report))
    }

    #[test]
    fn injected_o_crash_recovers_with_identical_results() {
        let seed = crashing_clean_seed(3, 300, 5, 512);
        let obs = hdm_obs::ObsHandle::enabled_with_stride(1);
        let conf = hdm_common::conf::JobConf::new()
            .with(hdm_common::conf::KEY_FT_ENABLED, "true")
            .with(hdm_common::conf::KEY_FT_SEED, seed as i64);
        let faults = FaultPlan::from_conf(&conf, &obs).unwrap();
        for style in [ShuffleStyle::NonBlocking, ShuffleStyle::Blocking] {
            let (total, report) = word_count_with_faults(
                faults.clone(),
                hdm_faults::RecoveryPolicy::default(),
                style,
            )
            .unwrap();
            assert_eq!(total, 900, "recovered run must lose nothing ({style:?})");
            assert_eq!(report.total_records_received(), 900);
        }
        let snap = obs.snapshot();
        let count = |name: &str| {
            snap.counters
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
                .sum::<u64>()
        };
        assert!(count("ft.injected") >= 1, "crash was never injected");
        assert!(count("ft.detected") >= 1, "crash was never detected");
        assert!(count("ft.retries") >= 1, "no task retried");
    }

    #[test]
    fn exhausted_attempts_surface_as_rank_failure() {
        let seed = crashing_clean_seed(3, 300, 5, 512);
        let err = word_count_with_faults(
            FaultPlan::with_seed(seed),
            hdm_faults::RecoveryPolicy {
                max_attempts: 1,
                ..hdm_faults::RecoveryPolicy::default()
            },
            ShuffleStyle::NonBlocking,
        )
        .unwrap_err();
        assert_eq!(err.subsystem(), "rank-failed");
        assert!(err.message().contains("injected crash"));
    }

    /// An A task's groups, copied out of the received payloads.
    type OwnedGroups = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

    fn owned_groups(ctx: &mut AContext) -> OwnedGroups {
        let mut groups = Vec::new();
        while let Some((key, values)) = ctx.next_group() {
            groups.push((key.to_vec(), values.iter().map(<[u8]>::to_vec).collect()));
        }
        groups
    }

    /// 64 O tasks of 100 sends each into 4 A tasks on `slots` slots:
    /// every A task's groups, and the most O functions ever live at once.
    fn run_on_slots(
        slots: usize,
        style: ShuffleStyle,
        faults: &FaultPlan,
    ) -> (Vec<OwnedGroups>, usize) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts an O function in on creation and out on every exit path.
        struct Live(Arc<AtomicUsize>);
        impl Drop for Live {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let config = DataMpiConfig {
            o_slots: slots,
            shuffle_style: style,
            send_partition_bytes: 1024,
            faults: faults.clone(),
            ..base_config(64, 4)
        };
        let outcome = run_bipartite(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new({
                let peak = Arc::clone(&peak);
                move |rank, ctx: &mut OContext| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    let _live = Live(Arc::clone(&live));
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Long enough that unbounded tasks would pile up.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    for i in 0..100u8 {
                        let key = format!("key{:02}", i % 23).into_bytes();
                        ctx.send(KvPair::new(key, vec![rank as u8, i]))?;
                    }
                    Ok(())
                }
            }),
            Arc::new(|_rank, ctx: &mut AContext| Ok(owned_groups(ctx))),
        )
        .unwrap();
        assert_eq!(outcome.report.total_records_received(), 6400);
        (outcome.a_results, peak.load(Ordering::SeqCst))
    }

    #[test]
    fn o_tasks_never_exceed_their_slots_and_results_do_not_depend_on_them() {
        // One message per (O, A) pair and attempt keeps the wire short
        // enough for a drop-free seed: 24 sends per O rank cover two
        // replays, 96 per A rank the blocking style's acks.
        let crashing = (0..4096u64)
            .map(FaultPlan::with_seed)
            .find(|p| {
                (0..64).any(|r| matches!(p.crash_after(Site::OTask, r, 0), Some(c) if c < 100))
                    && (0..68).all(|r| {
                        let sends = if r < 64 { 24 } else { 96 };
                        (0..sends).all(|q| !p.should_drop(Site::MpiSend, r, q))
                    })
            })
            .expect("no crashing drop-free seed in 4096 candidates");
        for style in [ShuffleStyle::NonBlocking, ShuffleStyle::Blocking] {
            for faults in [FaultPlan::disabled(), crashing.clone()] {
                let (thread_per_rank, _) = run_on_slots(64, style, &faults);
                for slots in [1, 8] {
                    let (groups, peak) = run_on_slots(slots, style, &faults);
                    assert!(
                        peak <= slots,
                        "{peak} O functions live on {slots} slots ({style:?})"
                    );
                    assert_eq!(groups, thread_per_rank, "{slots} slots, {style:?}");
                }
            }
        }
    }

    #[test]
    fn o_task_panic_becomes_an_error_after_every_rank_sent_its_eof() {
        // One slot: were the panicking task to take its slot down, ranks
        // 4..8 would never run and the A side would wait forever.
        let config = DataMpiConfig {
            o_slots: 1,
            ..base_config(8, 2)
        };
        let err = run_bipartite::<(), ()>(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut OContext| {
                ctx.send(KvPair::new(vec![rank as u8], vec![1]))?;
                assert!(rank != 3, "O task {rank} blew up");
                Ok(())
            }),
            Arc::new(|_rank, _ctx: &mut AContext| Ok(())),
        )
        .unwrap_err();
        assert!(
            err.message().contains("O3: task function panicked"),
            "{err}"
        );
    }

    /// Routes a pair to the A rank its first key byte names.
    struct ByFirstByte;

    impl hdm_common::partition::Partitioner for ByFirstByte {
        fn partition(&self, key: &[u8], num_partitions: usize) -> usize {
            key.first().map_or(0, |&b| b as usize % num_partitions)
        }
    }

    /// Messages the world of a job recorded into `obs` (`mpi.messages`).
    fn mpi_messages(obs: &hdm_obs::ObsHandle) -> u64 {
        let snap = obs.snapshot();
        let counters = snap.counters.iter();
        counters
            .filter(|(name, _, _)| name == "mpi.messages")
            .map(|(_, _, v)| v)
            .sum()
    }

    /// Run `job` on a thread of its own, failing the test if it has not
    /// returned within a minute (the job hung).
    fn watchdog<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || tx.send(job()).unwrap());
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the job hung");
        handle.join().unwrap();
        out
    }

    /// A seed whose plan injects no O crash into `o` tasks of `records`
    /// sends (first three attempts) and drops none of the first `seqs`
    /// messages of any of `world` ranks: a test's own fault is the only
    /// one.
    fn quiet_seed(o: usize, records: u64, world: usize, seqs: u64) -> u64 {
        (0..100_000u64)
            .find(|&s| {
                let p = FaultPlan::with_seed(s);
                let crash = |r| {
                    (0..3).any(|a| {
                        p.crash_after(Site::OTask, r, a)
                            .is_some_and(|c| c < records)
                    })
                };
                !(0..o).any(crash)
                    && (0..world).all(|r| (0..seqs).all(|q| !p.should_drop(Site::MpiSend, r, q)))
            })
            .expect("no quiet seed in 100 000 candidates")
    }

    #[test]
    fn a_job_that_moves_no_data_sends_one_done_per_a_rank() {
        let obs = hdm_obs::ObsHandle::enabled_with_stride(1);
        let config = DataMpiConfig {
            obs: obs.clone(),
            ..base_config(133, 16)
        };
        let outcome = run_bipartite::<(), usize>(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_, _| Ok(())),
            Arc::new(|_, ctx| Ok(owned_groups(ctx).len())),
        )
        .unwrap();
        assert_eq!(mpi_messages(&obs), 16, "an empty 133 x 16 job");
        let done_only = WireCounts {
            done: 16,
            ..WireCounts::default()
        };
        assert_eq!(outcome.report.wire(), done_only);
        assert_eq!(outcome.a_results, vec![0; 16]);
    }

    #[test]
    fn o_tasks_commit_only_to_the_a_ranks_they_wrote() {
        for style in [ShuffleStyle::NonBlocking, ShuffleStyle::Blocking] {
            let obs = hdm_obs::ObsHandle::enabled_with_stride(1);
            let config = DataMpiConfig {
                shuffle_style: style,
                send_partition_bytes: 64,
                obs: obs.clone(),
                ..base_config(12, 4)
            };
            // O task r writes A rank r % 4 only, a few partitions' worth.
            let outcome = run_bipartite(
                &config,
                Arc::new(BytesComparator),
                Arc::new(ByFirstByte),
                Arc::new(|rank, ctx: &mut OContext| {
                    for i in 0..20u8 {
                        ctx.send(KvPair::new(vec![rank as u8 % 4, i], vec![rank as u8]))?;
                    }
                    Ok(())
                }),
                Arc::new(|_, ctx: &mut AContext| {
                    let mut values = 0;
                    while let Some((_, v)) = ctx.next_group() {
                        values += v.len();
                    }
                    Ok((values, ctx.wire()))
                }),
            )
            .unwrap();
            let wire = outcome.report.wire();
            assert!(wire.data > 12, "several DATA per task ({style:?})");
            assert_eq!((wire.commit, wire.done, wire.abort), (12, 4, 0));
            // DATA + commits + one DONE per A rank, plus the blocking
            // style's acknowledgements.
            let acks = if style == ShuffleStyle::Blocking {
                wire.data
            } else {
                0
            };
            assert_eq!(mpi_messages(&obs), wire.data + 12 + 4 + acks, "{style:?}");
            for (a, (values, seen)) in outcome.a_results.iter().enumerate() {
                assert_eq!(*values, 60, "A{a}: three O tasks x 20 pairs");
                assert_eq!(*seen, outcome.report.a_tasks[a].wire);
                assert_eq!((seen.commit, seen.done), (3, 1));
            }
        }
    }

    #[test]
    fn a_dropped_commit_is_a_typed_error_not_a_hang() {
        // 16 O tasks each send one DATA to A rank r % 4 (their send 0) and
        // commit it (send 1); whichever ends last sends the DONEs as its
        // sends 2..6. Find a seed that drops a commit and nothing else.
        let seed = (0..1_000_000u64)
            .find(|&s| {
                let p = FaultPlan::with_seed(s);
                let clean = |r: usize| {
                    p.crash_after(Site::OTask, r, 0).is_none_or(|c| c >= 10)
                        && [0, 2, 3, 4, 5]
                            .iter()
                            .all(|&q| !p.should_drop(Site::MpiSend, r, q))
                };
                (0..16).all(clean) && (0..16).any(|r| p.should_drop(Site::MpiSend, r, 1))
            })
            .expect("no commit-dropping seed");
        let config = DataMpiConfig {
            faults: FaultPlan::with_seed(seed),
            recovery: hdm_faults::RecoveryPolicy {
                recv_timeout: std::time::Duration::from_secs(60),
                ..hdm_faults::RecoveryPolicy::default()
            },
            ..base_config(16, 4)
        };
        let start = Instant::now();
        let err = watchdog(move || {
            run_bipartite::<(), ()>(
                &config,
                Arc::new(BytesComparator),
                Arc::new(ByFirstByte),
                Arc::new(|rank, ctx: &mut OContext| {
                    for i in 0..10u8 {
                        ctx.send(KvPair::new(vec![rank as u8 % 4, i], vec![1]))?;
                    }
                    Ok(())
                }),
                Arc::new(|_, _| Ok(())),
            )
        })
        .unwrap_err();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "the drop was found by the receive deadline, not by the DONE"
        );
        assert_eq!(err.subsystem(), "datampi", "{err}");
        assert!(err.message().contains("dropped commit"), "{err}");
    }

    #[test]
    fn a_replay_that_writes_other_a_ranks_commits_exactly_once() {
        let seed = quiet_seed(2, 200, 6, 64);
        for style in [ShuffleStyle::NonBlocking, ShuffleStyle::Blocking] {
            let config = DataMpiConfig {
                shuffle_style: style,
                faults: FaultPlan::with_seed(seed),
                recovery: hdm_faults::RecoveryPolicy {
                    backoff_base: std::time::Duration::from_millis(1),
                    ..hdm_faults::RecoveryPolicy::default()
                },
                ..base_config(2, 4)
            };
            let first_attempt = Arc::new(std::sync::atomic::AtomicBool::new(true));
            let outcome = run_bipartite(
                &config,
                Arc::new(BytesComparator),
                Arc::new(ByFirstByte),
                Arc::new(move |rank, ctx: &mut OContext| {
                    // O0's first attempt flushes partitions to A0 and A1,
                    // then fails; its replay writes A2 and A3 instead.
                    let failing = rank == 0 && first_attempt.swap(false, Ordering::SeqCst);
                    let targets: &[u8] = match (rank, failing) {
                        (0, true) => &[0, 1],
                        (0, false) => &[2, 3],
                        _ => &[0, 1, 2, 3],
                    };
                    for &a in targets {
                        for i in 0..30u8 {
                            ctx.send(KvPair::new(vec![a, i], vec![rank as u8]))?;
                        }
                    }
                    if failing {
                        return Err(HdmError::Other("first attempt fails".into()));
                    }
                    Ok(())
                }),
                Arc::new(|_, ctx: &mut AContext| {
                    let mut from_o0 = 0;
                    while let Some((_, values)) = ctx.next_group() {
                        from_o0 += values.iter().filter(|v| v[0] == 0).count();
                    }
                    Ok(from_o0)
                }),
            )
            .unwrap();
            assert_eq!(outcome.a_results, vec![0, 0, 30, 30], "{style:?}");
            let wire = outcome.report.wire();
            // O1 commits to all four A ranks, O0's replay to two; O0's
            // failed attempt is aborted everywhere.
            assert_eq!((wire.commit, wire.abort, wire.done), (6, 4, 4), "{style:?}");
        }
    }

    #[test]
    fn failing_o_tasks_still_end_the_job_under_fault_tolerance() {
        let seed = quiet_seed(8, 64, 10, 64);
        let config = DataMpiConfig {
            o_slots: 1,
            faults: FaultPlan::with_seed(seed),
            recovery: hdm_faults::RecoveryPolicy {
                backoff_base: std::time::Duration::from_millis(1),
                ..hdm_faults::RecoveryPolicy::default()
            },
            ..base_config(8, 2)
        };
        // A panicking O function, in every attempt.
        let panicking = config.clone();
        let err = watchdog(move || {
            run_bipartite::<(), ()>(
                &panicking,
                Arc::new(BytesComparator),
                Arc::new(HashPartitioner),
                Arc::new(|rank, ctx: &mut OContext| {
                    ctx.send(KvPair::new(vec![rank as u8], vec![1]))?;
                    assert!(rank != 3, "O task {rank} blew up");
                    Ok(())
                }),
                Arc::new(|_, _| Ok(())),
            )
        })
        .unwrap_err();
        assert!(
            err.message().contains("O3: task function panicked"),
            "{err}"
        );
        // A cancel fired in the middle of O3.
        let cancel = hdm_common::CancelToken::new();
        let cancelled = DataMpiConfig {
            cancel: cancel.clone(),
            ..config
        };
        let err = watchdog(move || {
            run_bipartite::<(), ()>(
                &cancelled,
                Arc::new(BytesComparator),
                Arc::new(HashPartitioner),
                Arc::new(move |rank, ctx: &mut OContext| {
                    for i in 0..4u8 {
                        if rank == 3 && i == 2 {
                            cancel.cancel("test cancels mid-task");
                        }
                        ctx.send(KvPair::new(vec![rank as u8, i], vec![1]))?;
                    }
                    Ok(())
                }),
                Arc::new(|_, _| Ok(())),
            )
        })
        .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
    }

    #[test]
    fn an_engine_whose_a_rank_is_gone_still_ends_its_task() {
        // O0 sends to A1, whose rank has already ended (inbox closed): its
        // shuffle engine fails, and the task must still end — poisoned,
        // and, being the last, with a DONE for the A rank that is alive.
        let world = hdm_mpi::World::new(3, hdm_mpi::WorldConfig::default()).unwrap();
        let mut eps = world.into_endpoints();
        drop(eps.pop());
        let mut a0 = eps.pop().unwrap();
        let mut o0 = eps.pop().unwrap();
        let completion = Completion::new(1, 1, 2);
        let (tx, rx) = bounded(4);
        let payload = Bytes::from(vec![1u8, 7, 1, 7]);
        tx.send(SendCmd::Partition { dst: 1, payload }).unwrap();
        tx.send(SendCmd::Finish).unwrap();
        let obs = hdm_obs::ObsHandle::default();
        let style = ShuffleStyle::NonBlocking;
        let sent = run_sender(style, &mut o0, rx, &completion, Instant::now(), None, &obs);
        let err = end_task(&mut o0, &completion, sent).unwrap_err();
        assert_eq!(err.subsystem(), "rank-failed", "{err}");
        assert!(o0.is_poisoned(0));
        let done = a0.recv(Some(0), None).unwrap();
        assert_eq!(done.tag, crate::shuffle::tags::DONE);
        assert_eq!(crate::shuffle::read_count(&done.payload), Some(0));
    }

    #[test]
    fn a_task_whose_comm_thread_is_gone_still_ends_its_task() {
        // The slot's comm thread has exited (its end of the hand-off is
        // dropped): the task cannot run, and must still end on the wire —
        // poisoned, and, being the last, with a DONE for every A rank.
        let world = hdm_mpi::World::new(3, hdm_mpi::WorldConfig::default()).unwrap();
        let mut eps = world.into_endpoints();
        let a_eps = eps.split_off(1);
        let o0 = eps.pop().unwrap();
        let config = base_config(1, 2);
        let o_fn: OFn<()> = Arc::new(|_, _| panic!("the task must not run"));
        let job = OJob {
            config: &config,
            partitioner: &(Arc::new(HashPartitioner) as PartitionerRef),
            o_fn: &o_fn,
            job_start: Instant::now(),
            ranks: Mutex::new(Vec::new().into_iter()),
            completion: Completion::new(1, 1, 2),
            shape: Shape::new(&config),
        };
        let (task_tx, _) = bounded(1);
        let (_, recycle_rx) = bounded(1);
        let (_, sent_rx) = bounded(1);
        let mut slot = OSlot {
            spl: SendPartitionList::new(2, 128),
            recycle_rx,
            task_tx,
            sent_rx,
        };
        let err = run_o_task(o0, &mut slot, &job).unwrap_err();
        assert!(err.message().contains("O0: comm thread gone"), "{err}");
        let timeout = Some(std::time::Duration::from_secs(10));
        for mut a in a_eps {
            assert!(a.is_poisoned(0));
            let done = a.recv_deadline(Some(0), None, timeout).unwrap();
            assert_eq!(done.tag, crate::shuffle::tags::DONE);
            assert_eq!(crate::shuffle::read_count(&done.payload), Some(0));
        }
    }

    /// Counters named `name` in `obs`, summed over their labels
    /// `label`.
    fn counter(obs: &hdm_obs::ObsHandle, name: &str, label: &str) -> u64 {
        let snap = obs.snapshot();
        let hits = snap.counters.iter();
        let hits = hits.filter(|(n, l, _)| n == name && l == label);
        hits.map(|(_, _, v)| v).sum()
    }

    #[test]
    fn held_outputs_go_out_as_one_data_per_a_task_once_the_ranges_are_fixed() {
        for style in [ShuffleStyle::NonBlocking, ShuffleStyle::Blocking] {
            // 6 O tasks, each writing partitions 0..4 (and O5 only 0):
            // nothing fills a send partition, so everything is held.
            let run = |per_task: u64| {
                let obs = hdm_obs::ObsHandle::enabled_with_stride(1);
                let config = DataMpiConfig {
                    bytes_per_a_task: Some(per_task),
                    shuffle_style: style,
                    send_partition_bytes: 1 << 20,
                    obs: obs.clone(),
                    ..base_config(6, 4)
                };
                let outcome = run_bipartite(
                    &config,
                    Arc::new(BytesComparator),
                    Arc::new(ByFirstByte),
                    Arc::new(|rank, ctx: &mut OContext| {
                        let parts = if rank == 5 { 1 } else { 4 };
                        for a in 0..parts {
                            for i in 0..3u8 {
                                ctx.send(KvPair::new(vec![a, i], vec![rank as u8]))?;
                            }
                        }
                        Ok(())
                    }),
                    Arc::new(|_, ctx: &mut AContext| Ok(owned_groups(ctx))),
                )
                .unwrap();
                assert_eq!(counter(&obs, "shuffle.ranges", "by=end"), 1, "{style:?}");
                assert_eq!(counter(&obs, "shuffle.ranges", "by=overflow"), 0);
                outcome
            };
            let one = run(u64::MAX);
            assert_eq!(one.report.a_ranges, vec![0..4]);
            // One DATA and one COMMIT per O task, one DONE.
            let wire = one.report.wire();
            assert_eq!((wire.data, wire.commit, wire.done), (6, 6, 1), "{style:?}");
            let each = run(1);
            assert_eq!(each.report.a_ranges, vec![0..1, 1..2, 2..3, 3..4]);
            let wire = each.report.wire();
            assert_eq!(
                (wire.data, wire.commit, wire.done),
                (21, 21, 4),
                "{style:?}"
            );
            // Either way, each partition's groups are the same.
            assert_eq!(one.a_results, each.a_results);
            assert!(one.a_results.iter().all(|groups| groups.len() == 3));
        }
    }

    #[test]
    fn a_filling_partition_fixes_one_a_task_per_partition() {
        let obs = hdm_obs::ObsHandle::enabled_with_stride(1);
        let config = DataMpiConfig {
            bytes_per_a_task: Some(u64::MAX),
            send_partition_bytes: 32,
            obs: obs.clone(),
            ..base_config(5, 3)
        };
        let outcome = run_bipartite(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut OContext| {
                for i in 0..40u8 {
                    ctx.send(KvPair::new(vec![i % 7], vec![rank as u8, i]))?;
                }
                Ok(())
            }),
            Arc::new(|_, ctx: &mut AContext| Ok(owned_groups(ctx).len())),
        )
        .unwrap();
        assert_eq!(counter(&obs, "shuffle.ranges", "by=overflow"), 1);
        assert_eq!(outcome.report.a_ranges, vec![0..1, 1..2, 2..3]);
        assert_eq!(outcome.a_results.iter().sum::<usize>(), 7);
        assert_eq!(outcome.report.total_records_received(), 200);
    }

    /// The non-blocking sender samples its in-flight sends at the
    /// handle's rate, as the receiver samples its buffers: per O task,
    /// one `inflight_sends` sample per `rate` isends, not one per isend.
    #[test]
    fn inflight_send_samples_follow_the_sample_rate() {
        const RATE: u64 = 8;
        let obs = hdm_obs::ObsHandle::enabled_with_stride(RATE);
        let config = DataMpiConfig {
            shuffle_style: ShuffleStyle::NonBlocking,
            send_partition_bytes: 32,
            obs: obs.clone(),
            ..base_config(3, 2)
        };
        let outcome = run_bipartite(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut OContext| {
                for i in 0..400u32 {
                    ctx.send(KvPair::new(i.to_be_bytes().to_vec(), vec![rank as u8]))?;
                }
                Ok(())
            }),
            Arc::new(|_, ctx: &mut AContext| Ok(owned_groups(ctx).len())),
        )
        .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.dropped_samples, 0);
        let isends: u64 = (snap.counters.iter())
            .filter(|(n, _, _)| n == "shuffle.isends")
            .map(|(_, _, v)| v)
            .sum();
        assert!(isends >= 8 * RATE, "too few isends to tell: {isends}");
        let mut samples = 0;
        for (rank, task) in outcome.report.o_tasks.iter().enumerate() {
            let sends = task.send_events.len() as u64;
            let track = format!("O{rank}");
            let taken = (snap.samples.iter())
                .filter(|e| e.name == "inflight_sends" && e.track == track)
                .count() as u64;
            assert_eq!(taken, sends.div_ceil(RATE), "O{rank}: {sends} isends");
            samples += taken;
        }
        assert!(
            samples <= isends / RATE + 3,
            "{samples} samples for {isends} isends"
        );
    }

    #[test]
    fn zero_tasks_rejected() {
        let config = DataMpiConfig {
            o_tasks: 0,
            ..Default::default()
        };
        assert!(run_bipartite::<(), ()>(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_, _| Ok(())),
            Arc::new(|_, _| Ok(())),
        )
        .is_err());
    }

    #[test]
    fn report_records_send_events_and_histogram() {
        let (_, report) = word_count(ShuffleStyle::NonBlocking, 1 << 20);
        // Partition size 128 with ~11-byte pairs: many send events.
        assert!(report.o_tasks.iter().all(|t| !t.send_events.is_empty()));
        let hist = report.kv_size_histogram().unwrap();
        assert_eq!(hist.count(), 900);
        // word<N> keys + 1-byte value ≈ 9-12 bytes on the wire.
        assert!(hist.mode_bucket().unwrap() < 16);
    }

    #[test]
    fn skew_flows_to_a_task_stats() {
        // All keys identical: one A task gets everything.
        let config = base_config(2, 2);
        let outcome = run_bipartite(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|_rank, ctx: &mut OContext| {
                for _ in 0..100 {
                    ctx.send(KvPair::new(b"same".to_vec(), vec![0]))?;
                }
                Ok(())
            }),
            Arc::new(|_rank, _ctx: &mut AContext| Ok(())),
        )
        .unwrap();
        assert!(outcome.report.a_skew_factor() >= 200.0);
    }
}
