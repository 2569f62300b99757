//! The O-side shuffle engine: a communication thread per O task.
//!
//! The O task's compute thread fills send partitions; full partitions go
//! into the bounded **send block queue** (length = `hive.datampi.sendqueue`)
//! and this engine transmits them. Two styles (Section IV-C):
//!
//! * **Non-blocking** — each partition is `isend`-ed immediately; request
//!   handles are cached and tested for completion while new partitions
//!   keep flowing ("once the data is in the send queue, it will be
//!   delivered without waiting for the other tasks").
//! * **Blocking** — partitions are sent in rounds; after each round the
//!   thread waits for every receiver's acknowledgement before touching
//!   the next round (`MPI_Waitall` behaviour). Under skew this creates
//!   the stalls visible in the paper's Figure 6.

use crate::ShuffleStyle;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use hdm_common::error::{HdmError, Result};
use hdm_mpi::{Endpoint, SendRequest};
use hdm_obs::{Counter, ObsHandle, Timer};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Registry handles the engine updates, fetched once per task (inert
/// when obs is disabled).
struct EngineObs {
    obs: ObsHandle,
    isends: Counter,
    recycled: Counter,
    sync_wait: Timer,
}

impl EngineObs {
    fn new(obs: &ObsHandle, rank: usize) -> EngineObs {
        let label = format_args!("rank={rank}");
        EngineObs {
            isends: obs.counter("shuffle.isends", &label),
            recycled: obs.counter("shuffle.recycled", &label),
            sync_wait: obs.timer("shuffle.sync.wait.us", &label, hdm_obs::TIMER_US_BUCKET),
            obs: obs.clone(),
        }
    }
}

/// Where completed-send payloads are returned for buffer recycling.
///
/// Once a transmit finishes, the engine offers the payload back to the
/// O task's [`crate::buffer::SendPartitionList`] pool through this
/// channel (best-effort: a full channel just drops the offer). The pool
/// reclaims the allocation only when it is the sole owner — see
/// [`crate::buffer::SendPartitionList::recycle`].
pub type RecycleSender = Sender<Bytes>;

/// Message tags of the DataMPI wire protocol.
///
/// The low byte carries the message kind and the high bits carry the
/// sender's **task attempt** (see [`with_attempt`](tags::with_attempt)):
/// a recovering O task replays its split under `attempt + 1`, and the A
/// side discards any partial stream from an aborted attempt.
///
/// End of stream is signalled by exception rather than by every O task
/// telling every A rank it is done: an O task sends a `COMMIT` only to
/// the A ranks it wrote to, and the O task that ends last sends each A
/// rank one `DONE` (see [`Completion`]). A job that moves no data costs
/// one message per A rank.
pub mod tags {
    use hdm_mpi::Tag;
    /// A serialized send partition (payload: encoded `KvPair`s).
    pub const DATA: Tag = Tag(0x10);
    /// The sending O task's stream to this A rank is complete. Sent only
    /// to A ranks the task wrote to; its payload is the little-endian
    /// `u32` count of `DATA` messages the task's final attempt sent to
    /// this A rank, so the receiver can detect dropped messages.
    pub const COMMIT: Tag = Tag(0x11);
    /// Blocking-style acknowledgement from A back to O.
    pub const ACK: Tag = Tag(0x12);
    /// The sending O task crashed mid-attempt: discard its partial
    /// stream; a higher-attempt replay follows.
    pub const ABORT: Tag = Tag(0x13);
    /// Every O task has ended. Sent once to each A rank, by the O task
    /// that ended last; its payload is the little-endian `u32` count of
    /// `COMMIT`s the A rank was sent, so a dropped commit is detected.
    pub const DONE: Tag = Tag(0x14);

    /// Bits above this shift carry the attempt number.
    const ATTEMPT_SHIFT: u32 = 8;

    /// Encode `base` (one of the constants above) with an attempt.
    pub fn with_attempt(base: Tag, attempt: u32) -> Tag {
        Tag(base.0 | (attempt << ATTEMPT_SHIFT))
    }

    /// Split a wire tag into `(base, attempt)`.
    pub fn split(tag: Tag) -> (Tag, u32) {
        (Tag(tag.0 & 0xff), tag.0 >> ATTEMPT_SHIFT)
    }
}

/// One `DATA` payload for an A task that runs several partitions: each
/// partition's segment (back-to-back encoded pairs) behind its index
/// within the task's range and its length, both little-endian `u32`s. An
/// A task of one partition is sent the bare segment.
pub fn frame(segments: &[(usize, Bytes)]) -> Bytes {
    let len = segments.iter().map(|(_, s)| s.len() + 8).sum();
    let mut out = Vec::with_capacity(len);
    for (local, segment) in segments {
        out.extend_from_slice(&(*local as u32).to_le_bytes());
        out.extend_from_slice(&(segment.len() as u32).to_le_bytes());
        out.extend_from_slice(segment);
    }
    Bytes::from(out)
}

/// A `DATA` payload as `(index within the range, segment)` pairs: the
/// bare segment of a one-partition range, else [`frame`]'s frames, each
/// segment a view of `payload`.
///
/// # Errors
/// [`HdmError::DataMpi`] on a truncated frame or an index outside the
/// range.
pub fn segments(payload: Bytes, range_len: usize) -> Result<Vec<(usize, Bytes)>> {
    if range_len == 1 {
        return Ok(vec![(0, payload)]);
    }
    let corrupt = || HdmError::DataMpi("corrupt partition frame in a DATA payload".into());
    let word = |at: usize| -> Option<usize> {
        let bytes = payload.get(at..at + 4)?;
        Some(u32::from_le_bytes(<[u8; 4]>::try_from(bytes).ok()?) as usize)
    };
    let mut out = Vec::new();
    let mut at = 0;
    while at < payload.len() {
        let (local, len) = word(at).zip(word(at + 4)).ok_or_else(corrupt)?;
        let end = (at + 8)
            .checked_add(len)
            .filter(|&end| end <= payload.len());
        let end = end.filter(|_| local < range_len).ok_or_else(corrupt)?;
        out.push((local, payload.slice(at + 8..end)));
        at = end;
    }
    Ok(out)
}

/// The payload of a `COMMIT` or `DONE`: one little-endian `u32` count.
fn count_payload(count: u32) -> Bytes {
    Bytes::from(count.to_le_bytes().to_vec())
}

/// Read a [`count_payload`] back; `None` if the payload is not one.
pub(crate) fn read_count(payload: &[u8]) -> Option<u32> {
    <[u8; 4]>::try_from(payload).ok().map(u32::from_le_bytes)
}

/// A command from the O compute thread to its shuffle engine.
#[derive(Debug)]
pub enum SendCmd {
    /// Transmit one frozen partition to A task `dst` (0-based A rank).
    Partition {
        /// Destination A task index.
        dst: usize,
        /// Serialized key-value pairs.
        payload: Bytes,
    },
    /// The current attempt failed: tell every A task to discard this
    /// attempt's partial stream, then start counting a new attempt.
    Abort,
    /// No more partitions: drain, commit, exit.
    Finish,
}

/// What the engine observed, merged into
/// [`crate::report::OTaskStats`] by the job runner.
#[derive(Debug, Default)]
pub struct SenderStats {
    /// `(offset since job start, payload bytes)` per transmitted partition.
    pub send_events: Vec<(Duration, u64)>,
    /// Time spent blocked in round synchronization (blocking style).
    pub sync_wait: Duration,
}

/// The job-wide half of end-of-stream, shared by every O task's shuffle
/// engine: how many O tasks have not ended yet, and how many commits
/// each A rank has been sent.
///
/// An O task's engine ends its stream with [`Completion::commit`], and
/// the task then ends with [`Completion::task_ended`] on every exit path,
/// failed or not. The task that ends last sends each A rank a `DONE`
/// carrying that rank's commit count. A `DONE` can never overtake a
/// commit: a task's commits (and its `DATA` before them) are accepted
/// into their A inboxes before the task ends, the last task learns it is
/// last only after every other task ended, and an inbox is FIFO. So once
/// an A rank holds its `DONE`, any commit it lacks was dropped.
#[derive(Debug)]
pub struct Completion {
    /// World rank of A task 0; A task `i` lives at world rank `a_base + i`.
    a_base: usize,
    /// A tasks that run: every partition's until
    /// [`Completion::fix_a_tasks`] says fewer. Fixed before any O task
    /// goes on the wire, so before any commit or `DONE`.
    a_tasks: AtomicUsize,
    /// O tasks that have not ended yet.
    unfinished: AtomicUsize,
    /// Commits sent per A rank. Bumped before the sending task's
    /// `unfinished` decrement (Release), read after the last task's
    /// (Acquire).
    commits: Vec<AtomicU32>,
}

impl Completion {
    /// End-of-stream bookkeeping for `o_tasks` O tasks and `a_tasks` A
    /// ranks starting at world rank `a_base`.
    pub fn new(o_tasks: usize, a_base: usize, a_tasks: usize) -> Completion {
        Completion {
            a_base,
            a_tasks: AtomicUsize::new(a_tasks),
            unfinished: AtomicUsize::new(o_tasks),
            commits: (0..a_tasks).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Run `a_tasks` A tasks (at most the count [`Completion::new`] was
    /// given): later `ABORT`s and `DONE`s go to those only.
    pub fn fix_a_tasks(&self, a_tasks: usize) {
        self.a_tasks
            .store(a_tasks.min(self.commits.len()), Ordering::Release);
    }

    fn live_a_tasks(&self) -> usize {
        self.a_tasks.load(Ordering::Acquire)
    }

    /// Commit `attempt`'s stream: one `COMMIT` carrying its `DATA` count
    /// to each A rank `counts` says the attempt wrote to. Each commit is
    /// counted once the A inbox accepted it.
    fn commit(&self, ep: &mut Endpoint, attempt: u32, counts: &[u32]) -> Result<()> {
        let tag = tags::with_attempt(tags::COMMIT, attempt);
        for (a, (&count, commits)) in counts.iter().zip(&self.commits).enumerate() {
            if count > 0 {
                ep.send(self.a_base + a, tag, count_payload(count))?;
                commits.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Mark the O task on `ep` ended. The task that ends last sends every
    /// A rank its `DONE`, trying each rank even after one failed.
    ///
    /// # Errors
    /// The first failed `DONE` send.
    pub fn task_ended(&self, ep: &mut Endpoint) -> Result<()> {
        if self.unfinished.fetch_sub(1, Ordering::AcqRel) != 1 {
            return Ok(());
        }
        let mut result = Ok(());
        let live = self.commits.iter().take(self.live_a_tasks());
        for (a, commits) in live.enumerate() {
            let count = commits.load(Ordering::Acquire);
            result = result.and(ep.send(self.a_base + a, tags::DONE, count_payload(count)));
        }
        result
    }
}

/// Per-attempt transmit bookkeeping shared by both styles.
struct AttemptState {
    /// World rank of A task 0.
    a_base: usize,
    /// Current task attempt; bumped by [`SendCmd::Abort`].
    attempt: u32,
    /// `DATA` messages sent per destination in the current attempt,
    /// reported to each A task in its `COMMIT` for drop detection.
    counts: Vec<u32>,
}

impl AttemptState {
    fn new(completion: &Completion) -> AttemptState {
        AttemptState {
            a_base: completion.a_base,
            attempt: 0,
            counts: vec![0; completion.live_a_tasks()],
        }
    }

    fn record_send(&mut self, dst: usize) {
        if let Some(c) = self.counts.get_mut(dst) {
            *c += 1;
        }
    }

    /// Broadcast ABORT for the current attempt and roll to the next.
    fn abort(&mut self, ep: &mut Endpoint) -> Result<()> {
        let tag = tags::with_attempt(tags::ABORT, self.attempt);
        for a in 0..self.counts.len() {
            ep.send(self.a_base + a, tag, Bytes::new())?;
        }
        self.attempt += 1;
        self.counts.iter_mut().for_each(|c| *c = 0);
        Ok(())
    }
}

/// Run the shuffle engine until [`SendCmd::Finish`], then commit the
/// final attempt's stream through `completion`. Ending the task
/// ([`Completion::task_ended`]) is the caller's, on every exit path.
///
/// Borrows the endpoint so the owning thread can poison it if the engine
/// fails (peers then fail fast instead of waiting out their receive
/// deadline).
///
/// # Errors
/// Propagates MPI failures.
pub fn run_sender(
    style: ShuffleStyle,
    ep: &mut Endpoint,
    queue: Receiver<SendCmd>,
    completion: &Completion,
    job_start: Instant,
    recycle: Option<RecycleSender>,
    obs: &ObsHandle,
) -> Result<SenderStats> {
    let engine_obs = EngineObs::new(obs, ep.rank());
    let mut state = AttemptState::new(completion);
    let stats = match style {
        ShuffleStyle::NonBlocking => {
            run_nonblocking(ep, queue, &mut state, job_start, recycle, &engine_obs)
        }
        ShuffleStyle::Blocking => {
            run_blocking(ep, queue, &mut state, job_start, recycle, &engine_obs)
        }
    }?;
    completion.commit(ep, state.attempt, &state.counts)?;
    Ok(stats)
}

/// Transmit the whole stream of an O task whose output was held until
/// the A tasks were fixed — one `DATA` per A task it wrote to, under
/// attempt 0 (nothing of it was on the wire before) — and commit it.
/// Ending the task is the caller's.
///
/// # Errors
/// Propagates MPI failures.
pub fn send_held(
    style: ShuffleStyle,
    ep: &mut Endpoint,
    messages: Vec<(usize, Bytes)>,
    completion: &Completion,
) -> Result<()> {
    let mut state = AttemptState::new(completion);
    let mut reqs = Vec::with_capacity(messages.len());
    for (dst, payload) in &messages {
        reqs.push(ep.isend(state.a_base + dst, tags::DATA, payload.clone())?);
        state.record_send(*dst);
    }
    ep.waitall(&mut reqs)?;
    if style == ShuffleStyle::Blocking {
        for (dst, _) in &messages {
            ep.recv(Some(state.a_base + dst), Some(tags::ACK))?;
        }
    }
    completion.commit(ep, 0, &state.counts)
}

/// Offer a completed payload back to the compute thread's buffer pool.
/// Best-effort by design: a full (or closed) recycle channel means the
/// pool is saturated and the allocation is simply dropped.
fn offer(recycle: Option<&RecycleSender>, payload: Bytes, obs: &EngineObs) {
    if let Some(tx) = recycle {
        if tx.try_send(payload).is_ok() {
            obs.recycled.add(1);
        }
    }
}

fn run_nonblocking(
    ep: &mut Endpoint,
    queue: Receiver<SendCmd>,
    state: &mut AttemptState,
    job_start: Instant,
    recycle: Option<RecycleSender>,
    obs: &EngineObs,
) -> Result<SenderStats> {
    let mut stats = SenderStats::default();
    // Cached request handles, periodically purged once complete — the
    // paper's "request handlers will be cached in the shuffle engine, and
    // the engine will test for the completion". Each handle keeps a
    // refcounted view of its payload so the allocation can be offered to
    // the recycle pool once the transmit finishes.
    let mut inflight: Vec<(SendRequest, Bytes)> = Vec::new();
    // hdm-allow(unbounded-blocking): in-process command queue — the O task owns the sender and always sends Finish or drops it, so recv unblocks with Err
    while let Ok(cmd) = queue.recv() {
        match cmd {
            SendCmd::Finish => break,
            SendCmd::Abort => {
                // Settle the aborted attempt's transmits (the receiver
                // discards them on ABORT), reclaim their buffers, then
                // roll the attempt.
                let (mut reqs, payloads): (Vec<SendRequest>, Vec<Bytes>) =
                    std::mem::take(&mut inflight).into_iter().unzip();
                ep.waitall(&mut reqs)?;
                for payload in payloads {
                    offer(recycle.as_ref(), payload, obs);
                }
                state.abort(ep)?;
            }
            SendCmd::Partition { dst, payload } => {
                let bytes = payload.len() as u64;
                stats.send_events.push((job_start.elapsed(), bytes));
                let retained = payload.clone();
                let tag = tags::with_attempt(tags::DATA, state.attempt);
                inflight.push((ep.isend(state.a_base + dst, tag, payload)?, retained));
                state.record_send(dst);
                obs.isends.add(1);
                // Sampled at `hive.obs.sample.rate`, like the receiver's
                // tracks: one sample per isend would fill the recorder.
                if obs.obs.should_sample(stats.send_events.len() as u64) {
                    let track = format_args!("O{}", ep.rank());
                    obs.obs
                        .sample(&track, "inflight_sends", inflight.len() as u64);
                }
                // Test cached requests; completed ones recycle their slot
                // (and offer their payload back to the SPL pool).
                ep.progress();
                inflight.retain_mut(|(r, payload)| {
                    if !r.is_done() {
                        return true;
                    }
                    offer(
                        recycle.as_ref(),
                        std::mem::replace(payload, Bytes::new()),
                        obs,
                    );
                    false
                });
            }
        }
    }
    let (mut reqs, payloads): (Vec<SendRequest>, Vec<Bytes>) = inflight.into_iter().unzip();
    ep.waitall(&mut reqs)?;
    for payload in payloads {
        offer(recycle.as_ref(), payload, obs);
    }
    Ok(stats)
}

fn run_blocking(
    ep: &mut Endpoint,
    queue: Receiver<SendCmd>,
    state: &mut AttemptState,
    job_start: Instant,
    recycle: Option<RecycleSender>,
    obs: &EngineObs,
) -> Result<SenderStats> {
    let mut stats = SenderStats::default();
    let mut finished = false;
    while !finished {
        // Gather one round: block for the first command, then drain
        // whatever else is immediately available. An Abort closes the
        // round early — everything gathered so far belongs to the old
        // attempt and is still sent (the receiver discards it on ABORT).
        let mut round: Vec<(usize, Bytes)> = Vec::new();
        let mut abort_after_round = false;
        // hdm-allow(unbounded-blocking): in-process command queue — the O task owns the sender and always sends Finish or drops it, so recv unblocks with Err
        match queue.recv() {
            Ok(SendCmd::Partition { dst, payload }) => round.push((dst, payload)),
            Ok(SendCmd::Abort) => abort_after_round = true,
            Ok(SendCmd::Finish) | Err(_) => break,
        }
        while !abort_after_round {
            match queue.try_recv() {
                Ok(SendCmd::Partition { dst, payload }) => round.push((dst, payload)),
                Ok(SendCmd::Abort) => abort_after_round = true,
                Ok(SendCmd::Finish) => {
                    finished = true;
                    break;
                }
                Err(_) => break,
            }
        }
        // Send the round, then block until every destination acknowledged
        // receipt — the Waitall of the blocking style.
        let mut reqs = Vec::with_capacity(round.len());
        let mut acks_due: Vec<usize> = Vec::new();
        let mut sent_payloads: Vec<Bytes> = Vec::with_capacity(round.len());
        let tag = tags::with_attempt(tags::DATA, state.attempt);
        for (dst, payload) in round {
            stats
                .send_events
                .push((job_start.elapsed(), payload.len() as u64));
            sent_payloads.push(payload.clone());
            reqs.push(ep.isend(state.a_base + dst, tag, payload)?);
            state.record_send(dst);
            obs.isends.add(1);
            acks_due.push(dst);
        }
        ep.waitall(&mut reqs)?;
        let sync_start = Instant::now();
        for dst in acks_due {
            ep.recv(Some(state.a_base + dst), Some(tags::ACK))?;
        }
        let waited = sync_start.elapsed();
        stats.sync_wait += waited;
        obs.sync_wait.observe(waited.as_micros() as u64);
        // Every destination acknowledged: the round's payloads are fully
        // delivered and can rejoin the pool.
        for payload in sent_payloads {
            offer(recycle.as_ref(), payload, obs);
        }
        if abort_after_round {
            state.abort(ep)?;
        }
    }
    Ok(stats)
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
    use crate::buffer::SendPartition;
    use crossbeam::channel::bounded;
    use hdm_common::kv::KvPair;
    use hdm_mpi::{World, WorldConfig};
    use std::sync::Arc;

    /// Drive a 1-O/2-A world through `run_sender` and a hand-rolled A
    /// loop; returns pairs received per A. Each A rank must see its five
    /// DATA messages, one COMMIT counting them, then one DONE counting
    /// that commit.
    fn exercise(style: ShuffleStyle) -> Vec<Vec<KvPair>> {
        let world = World::new(3, WorldConfig::default()).unwrap();
        let style = Arc::new(style);
        let out = world.run(move |mut ep| {
            let rank = ep.rank();
            if rank == 0 {
                let (tx, rx) = bounded(6);
                let start = Instant::now();
                let sender = std::thread::spawn({
                    let style = *style;
                    move || {
                        let mut ep = ep;
                        let completion = Completion::new(1, 1, 2);
                        let obs = hdm_obs::ObsHandle::default();
                        let stats =
                            run_sender(style, &mut ep, rx, &completion, start, None, &obs).unwrap();
                        completion.task_ended(&mut ep).unwrap();
                        stats
                    }
                });
                for i in 0..10u8 {
                    let mut p = SendPartition::with_capacity(64);
                    p.push(&KvPair::new(vec![i], vec![i; 4]));
                    tx.send(SendCmd::Partition {
                        dst: (i % 2) as usize,
                        payload: p.take_payload(),
                    })
                    .unwrap();
                }
                tx.send(SendCmd::Finish).unwrap();
                let stats = sender.join().unwrap();
                assert_eq!(stats.send_events.len(), 10);
                Vec::new()
            } else {
                let (mut got, mut commits) = (Vec::new(), Vec::new());
                loop {
                    let msg = ep.recv(Some(0), None).unwrap();
                    match msg.tag {
                        tags::DATA => {
                            got.extend(SendPartition::decode_payload(&msg.payload).unwrap());
                            if *style == ShuffleStyle::Blocking {
                                ep.send(0, tags::ACK, Bytes::new()).unwrap();
                            }
                        }
                        tags::COMMIT => commits.push(read_count(&msg.payload).unwrap()),
                        tags::DONE => {
                            assert_eq!(read_count(&msg.payload), Some(1));
                            break;
                        }
                        other => panic!("unexpected tag {other:?}"),
                    }
                }
                assert_eq!(commits, vec![5]);
                got
            }
        });
        out
    }

    #[test]
    fn nonblocking_delivers_everything() {
        let out = exercise(ShuffleStyle::NonBlocking);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        // Partition routing: A0 (world rank 1) got even i, A1 odd.
        assert!(out[1].iter().all(|kv| kv.key[0] % 2 == 0));
        assert!(out[2].iter().all(|kv| kv.key[0] % 2 == 1));
    }

    #[test]
    fn blocking_delivers_everything_with_acks() {
        let out = exercise(ShuffleStyle::Blocking);
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }
}
