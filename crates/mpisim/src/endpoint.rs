//! Per-rank endpoint: the object through which a rank communicates.

use crate::{Links, Rank, Tag};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, TrySendError};
use hdm_common::error::{HdmError, Result};
use hdm_faults::Site;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload bytes (shared, zero-copy between ranks).
    pub payload: Bytes,
}

/// What travels on a rank's inbox channel: a message, or a bare wake-up.
#[derive(Debug)]
pub(crate) enum Packet {
    Msg(Msg),
    /// Control packet posted by [`Endpoint::poison`] and by the world's
    /// cancel waker: it carries nothing and never reaches a mailbox — its
    /// arrival alone ends the park in [`Endpoint::recv_deadline`], which
    /// then re-reads the poison flags and the cancel token.
    Wake,
}

/// A send still parked in its endpoint's pending queue.
const PARKED: u8 = 0;
/// The destination's channel accepted the message.
const ACCEPTED: u8 = 1;
/// The destination's inbox closed (its rank ended) before it took the
/// message: the send can never complete.
const PEER_GONE: u8 = 2;

/// Handle for a non-blocking send. Completed once the message has been
/// accepted by the destination's channel (buffer reusable, in MPI terms).
#[derive(Debug)]
pub struct SendRequest {
    dst: Rank,
    state: Arc<AtomicU8>,
}

impl SendRequest {
    /// Non-consuming completion check (does not drive progress; use
    /// [`Endpoint::test_send`] to also progress pending sends). A send to
    /// a rank that has ended never completes; [`Endpoint::wait_send`]
    /// reports it.
    pub fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == ACCEPTED
    }
}

/// Handle for a non-blocking receive: a posted matching rule.
#[derive(Debug)]
pub struct RecvRequest {
    src: Option<Rank>,
    tag: Option<Tag>,
    received: Option<Msg>,
}

impl RecvRequest {
    /// The matched message, if completed.
    pub fn message(&self) -> Option<&Msg> {
        self.received.as_ref()
    }
}

/// One pending (not yet channel-accepted) outgoing message.
#[derive(Debug)]
struct PendingSend {
    dst: Rank,
    msg: Msg,
    state: Arc<AtomicU8>,
}

/// The per-rank communication endpoint.
///
/// Not `Clone`: exactly one endpoint exists per rank, and it is moved
/// into the rank's thread.
pub struct Endpoint {
    rank: Rank,
    incoming: Receiver<Packet>,
    /// Everything the ranks of one world share: the inbox senders, the
    /// poison flags, metrics, fault plan, default deadline, cancel token.
    links: Arc<Links>,
    /// Messages that matched no in-progress `recv` yet (out-of-order
    /// arrivals kept for later tag/src matching).
    mailbox: VecDeque<Msg>,
    /// Sends parked on a full destination channel, in program order per
    /// destination (preserves MPI's non-overtaking rule).
    pending: VecDeque<PendingSend>,
    /// Messages handed to `isend` so far; keys the fault plan's
    /// per-message drop/delay decisions.
    send_seq: u64,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("mailbox", &self.mailbox.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl Endpoint {
    pub(crate) fn new(rank: Rank, incoming: Receiver<Packet>, links: Arc<Links>) -> Endpoint {
        Endpoint {
            rank,
            incoming,
            links,
            mailbox: VecDeque::new(),
            pending: VecDeque::new(),
            send_seq: 0,
        }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.links.senders.len()
    }

    /// Mark this rank as failed and wake every rank, so peers parked in a
    /// `recv` matched on this rank fail fast with
    /// [`HdmError::RankFailed`] instead of waiting out their deadline.
    pub fn poison(&self) {
        if let Some(flag) = self.links.poisoned.get(self.rank) {
            flag.store(true, Ordering::Release);
        }
        crate::wake_all(&self.links.senders);
    }

    /// Whether `rank` declared itself failed.
    pub fn is_poisoned(&self, rank: Rank) -> bool {
        self.links
            .poisoned
            .get(rank)
            .map(|flag| flag.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Non-blocking send (`MPI_Isend`). The returned request completes
    /// once the destination channel accepts the message; until then the
    /// message sits in this endpoint's pending queue and is pushed by
    /// [`Endpoint::progress`].
    ///
    /// # Errors
    /// [`HdmError::Mpi`] if `dst` is out of range.
    pub fn isend(&mut self, dst: Rank, tag: Tag, payload: Bytes) -> Result<SendRequest> {
        if dst >= self.world_size() {
            return Err(HdmError::Mpi(format!(
                "isend to invalid rank {dst} (world size {})",
                self.world_size()
            )));
        }
        let faults = &self.links.faults;
        if faults.is_enabled() {
            let seq = self.send_seq;
            self.send_seq += 1;
            if faults.should_drop(Site::MpiSend, self.rank, seq) {
                // The message vanishes on the wire: the send "completes"
                // (the buffer is reusable) but nothing ever arrives.
                faults.note_injected(Site::MpiSend);
                return Ok(SendRequest {
                    dst,
                    state: Arc::new(AtomicU8::new(ACCEPTED)),
                });
            }
            if let Some(delay) = faults.send_delay(Site::MpiSend, self.rank, seq) {
                faults.note_injected(Site::MpiSend);
                std::thread::sleep(delay);
            }
        }
        let state = Arc::new(AtomicU8::new(PARKED));
        self.links
            .metrics
            .record_send(self.rank, dst, payload.len() as u64);
        self.pending.push_back(PendingSend {
            dst,
            msg: Msg {
                src: self.rank,
                tag,
                payload,
            },
            state: Arc::clone(&state),
        });
        self.progress();
        Ok(SendRequest { dst, state })
    }

    /// Blocking send (`MPI_Send`): isend + wait.
    ///
    /// # Errors
    /// [`HdmError::Mpi`] on invalid destination or a disconnected channel.
    pub fn send(&mut self, dst: Rank, tag: Tag, payload: Bytes) -> Result<()> {
        let mut req = self.isend(dst, tag, payload)?;
        self.wait_send(&mut req)
    }

    /// Post a non-blocking receive (`MPI_Irecv`): a matching rule for
    /// `src` (None = any source) and `tag` (None = any tag).
    pub fn irecv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> RecvRequest {
        RecvRequest {
            src,
            tag,
            received: None,
        }
    }

    /// Drive the progress engine: push parked sends whose destination
    /// channel has room, and fail the ones whose destination has ended
    /// (they leave the queue, so a dead peer never keeps this rank on
    /// timed slices). Returns the number of messages moved.
    pub fn progress(&mut self) -> usize {
        let mut moved = 0;
        // Per-destination order must be preserved: only the *first*
        // pending message for each destination may be tried. Allocates
        // only once a destination turns out to be full.
        let mut blocked: Vec<Rank> = Vec::new();
        let mut i = 0;
        while let Some(entry) = self.pending.get(i) {
            let dst = entry.dst;
            // isend validated dst, so a missing channel would mean
            // internal corruption, which we skip rather than panic on.
            let channel = self.links.senders.get(dst);
            match channel {
                Some(tx) if !blocked.contains(&dst) => {
                    match tx.try_send(Packet::Msg(entry.msg.clone())) {
                        Ok(()) => {
                            if let Some(sent) = self.pending.remove(i) {
                                sent.state.store(ACCEPTED, Ordering::Release);
                            }
                            moved += 1;
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            // Entry `i` is the first one parked on `dst`,
                            // so everything removed sits at `i` or later.
                            self.pending.retain(|parked| {
                                if parked.dst == dst {
                                    parked.state.store(PEER_GONE, Ordering::Release);
                                }
                                parked.dst != dst
                            });
                        }
                        Err(TrySendError::Full(_)) => {
                            blocked.push(dst);
                            i += 1;
                        }
                    }
                }
                _ => i += 1,
            }
        }
        moved
    }

    /// Test a send request (`MPI_Test`), driving progress.
    pub fn test_send(&mut self, req: &mut SendRequest) -> bool {
        if req.is_done() {
            return true;
        }
        self.progress();
        req.is_done()
    }

    /// Wait for one send request (`MPI_Wait`), honoring the endpoint's
    /// default deadline when one is configured.
    ///
    /// # Errors
    /// [`HdmError::RankFailed`] if the request's destination rank has
    /// ended and its inbox is closed; [`HdmError::Timeout`] if a configured deadline
    /// expires first; [`HdmError::Cancelled`] once the token fires.
    pub fn wait_send(&mut self, req: &mut SendRequest) -> Result<()> {
        let timeout = self.links.recv_timeout;
        let deadline = timeout.map(|t| Instant::now() + t);
        while !req.is_done() {
            // Cancelled queries stop waiting for channel room; the token
            // outranks the deadline and never poisons the endpoint.
            self.links.cancel.bail_if_cancelled()?;
            if self.progress() == 0 {
                if req.state.load(Ordering::Acquire) == PEER_GONE {
                    self.links.faults.note_detected(Site::MpiSend);
                    return Err(HdmError::RankFailed(format!(
                        "rank {}: peer rank {} is gone (inbox closed)",
                        self.rank, req.dst
                    )));
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        self.links.faults.note_detected(Site::MpiSend);
                        return Err(HdmError::Timeout(format!(
                            "rank {}: send not accepted within {timeout:?}",
                            self.rank
                        )));
                    }
                }
                // Channel full: drain one incoming message into the
                // mailbox to avoid deadlock, or back off briefly.
                if !self.poll_incoming() {
                    // hdm-allow(busy-poll): this rank has a send parked on a full inbox, and nothing signals channel room — the slice only runs under backpressure
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
        Ok(())
    }

    /// Wait for all send requests (`MPI_Waitall`).
    ///
    /// # Errors
    /// [`HdmError::Mpi`] if a channel disconnected.
    pub fn waitall(&mut self, reqs: &mut [SendRequest]) -> Result<()> {
        for r in reqs {
            self.wait_send(r)?;
        }
        Ok(())
    }

    /// Test a posted receive (`MPI_Test` on an `Irecv` request): returns
    /// the message if one matching the rule has arrived.
    ///
    /// # Errors
    /// [`HdmError::Mpi`] if the incoming channel disconnected and no
    /// match can ever arrive.
    pub fn test_recv(&mut self, req: &mut RecvRequest) -> Result<Option<Msg>> {
        self.progress();
        self.drain_incoming();
        let msg = self.take_match(req.src, req.tag);
        if msg.is_some() {
            req.received.clone_from(&msg);
        }
        Ok(msg)
    }

    /// Blocking receive (`MPI_Recv`) with optional source/tag matching,
    /// bounded by the endpoint's default deadline when one is configured.
    ///
    /// # Errors
    /// [`HdmError::Mpi`] if all senders disconnected with no match
    /// buffered (the message can never arrive); [`HdmError::RankFailed`]
    /// if the awaited source is poisoned; [`HdmError::Timeout`] if a
    /// configured deadline expires first; [`HdmError::Cancelled`] once
    /// the world's token fires.
    pub fn recv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Result<Msg> {
        self.recv_deadline(src, tag, self.links.recv_timeout)
    }

    /// [`Endpoint::recv`] with an explicit deadline (`None` blocks
    /// forever), overriding the endpoint default.
    ///
    /// A rank with nothing to push sleeps here until something can change
    /// the answer: a message or a wake-up (posted by a peer's
    /// [`Endpoint::poison`] and by the world's cancel waker) lands in its
    /// inbox, or the deadline passes.
    ///
    /// # Errors
    /// As [`Endpoint::recv`].
    pub fn recv_deadline(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
        timeout: Option<Duration>,
    ) -> Result<Msg> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            self.progress();
            self.drain_incoming();
            if let Some(msg) = self.take_match(src, tag) {
                return Ok(msg);
            }
            // A fired token interrupts the wait before the deadline and
            // without touching poison flags: cancellation must tear down
            // only this query's world, never a sibling's.
            self.links.cancel.bail_if_cancelled()?;
            // A poisoned source can never deliver the awaited message:
            // fail fast rather than waiting out the deadline.
            if let Some(s) = src {
                if self.is_poisoned(s) {
                    self.links.faults.note_detected(Site::MpiSend);
                    return Err(HdmError::RankFailed(format!(
                        "rank {}: peer rank {s} failed (endpoint poisoned)",
                        self.rank
                    )));
                }
            }
            let remaining = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => {
                        self.links.faults.note_detected(Site::MpiSend);
                        return Err(HdmError::Timeout(format!(
                            "rank {}: recv timed out after {timeout:?} (src {src:?}, tag {tag:?})",
                            self.rank
                        )));
                    }
                },
            };
            let arrival = if !self.pending.is_empty() {
                // Our own sends are parked on a full inbox and nothing
                // signals channel room: come back soon to push them.
                // hdm-allow(busy-poll): timed slice only while this rank itself has sends parked under backpressure; an idle rank takes the blocking arms below
                self.incoming.recv_timeout(Duration::from_micros(200))
            } else if let Some(left) = remaining {
                self.incoming.recv_timeout(left)
            } else {
                // hdm-allow(unbounded-blocking): parked until a packet arrives; poison() and the world's cancel waker both post Packet::Wake, so neither a dead peer nor a cancelled query leaves the rank asleep
                let packet = self.incoming.recv();
                packet.map_err(|_| RecvTimeoutError::Disconnected)
            };
            match arrival {
                Ok(Packet::Msg(msg)) => self.mailbox.push_back(msg),
                Ok(Packet::Wake) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(HdmError::Mpi(format!(
                        "rank {}: recv would block forever (all senders gone)",
                        self.rank
                    )));
                }
            }
        }
    }

    /// Full-world barrier.
    pub fn barrier(&self) {
        // hdm-allow(unbounded-blocking): MPI_Barrier semantics — blocks until every rank arrives by definition
        self.links.barrier.wait();
    }

    fn poll_incoming(&mut self) -> bool {
        match self.incoming.try_recv() {
            Ok(Packet::Msg(msg)) => {
                self.mailbox.push_back(msg);
                true
            }
            Ok(Packet::Wake) => true,
            Err(_) => false,
        }
    }

    fn drain_incoming(&mut self) {
        while self.poll_incoming() {}
    }

    /// Remove and return the oldest mailbox message matching `src`/`tag`.
    fn take_match(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Option<Msg> {
        let pos = self.mailbox.iter().position(|m| {
            src.map(|s| m.src == s).unwrap_or(true) && tag.map(|t| m.tag == t).unwrap_or(true)
        })?;
        self.mailbox.remove(pos)
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
    use crate::{World, WorldConfig};

    #[test]
    fn progress_preserves_per_destination_order_under_backpressure() {
        let world = World::new(
            2,
            WorldConfig {
                channel_capacity: 2,
                ..WorldConfig::default()
            },
        )
        .unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                let mut reqs = Vec::new();
                for i in 0..50u8 {
                    reqs.push(ep.isend(1, Tag(0), Bytes::from(vec![i])).unwrap());
                }
                ep.waitall(&mut reqs).unwrap();
                Vec::new()
            } else {
                std::thread::sleep(Duration::from_millis(2));
                (0..50)
                    .map(|_| ep.recv(Some(0), Some(Tag(0))).unwrap().payload[0])
                    .collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn recv_any_source_matches_first_arrival() {
        let world = World::new(3, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                let mut srcs = vec![
                    ep.recv(None, Some(Tag(1))).unwrap().src,
                    ep.recv(None, Some(Tag(1))).unwrap().src,
                ];
                srcs.sort_unstable();
                srcs
            } else {
                ep.send(0, Tag(1), Bytes::new()).unwrap();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    #[test]
    fn pending_counts_visible_in_debug() {
        let world = World::new(
            1,
            WorldConfig {
                channel_capacity: 1,
                ..WorldConfig::default()
            },
        )
        .unwrap();
        let out = world.run(|mut ep| {
            // Two self-sends with capacity 1: the second parks.
            let _a = ep.isend(0, Tag(0), Bytes::from_static(b"a")).unwrap();
            let _b = ep.isend(0, Tag(0), Bytes::from_static(b"b")).unwrap();
            let dbg = format!("{ep:?}");
            let first = ep.recv(Some(0), Some(Tag(0))).unwrap();
            let second = ep.recv(Some(0), Some(Tag(0))).unwrap();
            (dbg, first.payload, second.payload)
        });
        let (dbg, a, b) = &out[0];
        assert!(dbg.contains("pending: 1"), "{dbg}");
        assert_eq!(a, &Bytes::from_static(b"a"));
        assert_eq!(b, &Bytes::from_static(b"b"));
    }
}
