//! Partition-granular streamed intermediates — the Tez-style pipelined
//! stage boundary (DESIGN.md §15).
//!
//! A [`StreamedIntermediate`] replaces the file hand-off between a
//! producer stage's ReduceSink and its consumer stage: the producer
//! *commits* each output partition as soon as its reduce/A-task
//! finishes, and consumer tasks *take* partitions as they appear — the
//! consumer stage starts while the producer is still running.
//!
//! Semantics:
//!
//! * **Bounded + backpressured.** At most `hive.exec.pipelined.buffer.partitions`
//!   committed-but-untaken partitions are buffered; a producer committing
//!   past the cap blocks until a consumer drains one — but only while a
//!   consumer is attached, so a producer whose consumer has not launched
//!   yet (sequential scheduling) never deadlocks: its commits all land
//!   immediately and the stream degenerates into a staged hand-off with
//!   identical task structure.
//! * **Awaited partitions are exempt.** A partition a consumer task is
//!   already parked on in `take` commits at once whatever the buffer
//!   holds. Consumer tasks run in waves on a bounded set of slots while
//!   producer tasks finish in any order; with the exemption a blocked
//!   commit always belongs to a partition whose task is not resident
//!   yet, so the resident wave always finishes and the next one starts.
//! * **Attempt-aware.** hdm-faults retries replay a task; a replayed
//!   commit for a partition replaces the rows only if no consumer has
//!   taken them yet (task replay is byte-deterministic per the PR 4
//!   recovery contract, so a post-take replay is a no-op by
//!   construction, not a divergence).
//! * **Failure-propagating.** `fail()` poisons the stream: blocked
//!   producers and consumers wake with the upstream error instead of
//!   hanging.
//!
//! Taken partitions are retained (the `Arc` stays in the slot) so that a
//! *consumer* attempt replay can re-take the identical rows.
//!
//! A `SELECT`'s last stage commits to a stream no stage consumes: the
//! driver [`drain`](StreamedIntermediate::drain)s it once the DAG is done
//! (DESIGN.md §31).

use hdm_common::error::{HdmError, Result};
use hdm_common::row::Row;
use hdm_obs::{Counter, Gauge, ObsHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Condvar};

/// One committed producer partition.
struct Slot {
    rows: Arc<Vec<Row>>,
    attempt: u32,
    taken: bool,
}

struct State {
    /// `(partition ranges, est total bytes)`, set by the producer once
    /// it knows which of its tasks produce which partitions (before any
    /// commit). Consumers wait on this, and run one task per range.
    declared: Option<(Arc<[Range<usize>]>, u64)>,
    slots: HashMap<usize, Slot>,
    /// Committed-but-never-taken partitions currently held (the
    /// backpressure quantity; retained-after-take slots do not count).
    buffered: usize,
    /// Live consumer stages attached. Backpressure only applies while
    /// at least one consumer is draining.
    consumers: usize,
    /// Partitions a consumer task is parked on in `take` right now (one
    /// entry per parked taker). Commits of these never wait.
    awaited: Vec<usize>,
    finished: bool,
    failed: Option<String>,
    /// Terminal cancelled state: distinct from `failed` so a blocked
    /// peer unwinds with [`HdmError::Cancelled`] (never retried, never
    /// fed to the fallback engine) instead of a fault-shaped error.
    cancelled: Option<String>,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when a partition lands, the count is declared, or the
    /// stream finishes/fails — wakes consumers.
    takers: Condvar,
    /// Signalled when a partition is drained or a consumer detaches —
    /// wakes backpressured producers.
    producers: Condvar,
    cap: usize,
    obs: ObsHandle,
    /// The per-commit `pipe.*` handles, fetched once in `new`.
    committed: Counter,
    streamed: Counter,
    buffered: Gauge,
    label: String,
}

/// A bounded, backpressured, attempt-aware channel carrying one producer
/// stage's output partitions to its (single) consumer stage. Cheap to
/// clone; all clones share state.
#[derive(Clone)]
pub struct StreamedIntermediate {
    inner: Arc<Inner>,
}

impl StreamedIntermediate {
    /// Create a stream buffering at most `cap` untaken partitions
    /// (`cap` is clamped to ≥ 1: a zero cap could never pass a
    /// partition through).
    pub fn new(label: &str, cap: usize, obs: &ObsHandle) -> StreamedIntermediate {
        StreamedIntermediate {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    declared: None,
                    slots: HashMap::new(),
                    buffered: 0,
                    consumers: 0,
                    awaited: Vec::new(),
                    finished: false,
                    failed: None,
                    cancelled: None,
                }),
                takers: Condvar::new(),
                producers: Condvar::new(),
                cap: cap.max(1),
                obs: obs.clone(),
                committed: obs.counter("pipe.partitions.committed", label),
                streamed: obs.counter("pipe.rows.streamed", label),
                buffered: obs.gauge("pipe.buffered.partitions", label),
                label: label.to_string(),
            }),
        }
    }

    /// Stage id label this stream carries (for diagnostics).
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Producer: announce `partitions` partitions, each produced by a
    /// task of its own, plus a rough total byte estimate — see
    /// [`Self::declare_ranges`].
    pub fn declare(&self, partitions: usize, est_total_bytes: u64) {
        let ranges = hdm_common::partition::one_range_each(partitions);
        self.declare_ranges(&ranges, est_total_bytes);
    }

    /// Producer: announce which partitions each of its tasks produces,
    /// in order (contiguous ranges covering `0..n`), plus a rough total
    /// byte estimate (its own input volume — output sizes are unknown
    /// until the data exists). Must be called before the first
    /// `commit`; consumers block in [`Self::await_ranges`] until it is,
    /// run one task per range, and divide the estimate across
    /// partitions to size their own parallelism the way file splits
    /// would. The first declaration stands; a later one (each of the
    /// producer's tasks declares the same ranges) is ignored.
    pub fn declare_ranges(&self, ranges: &[Range<usize>], est_total_bytes: u64) {
        let mut g = self.inner.state.lock();
        if g.declared.is_some() {
            return;
        }
        g.declared = Some((ranges.into(), est_total_bytes));
        drop(g);
        self.inner.takers.notify_all();
    }

    /// Consumer: wait for the producer to declare its ranges; returns
    /// `(ranges, est_total_bytes)`. Errors if the stream failed (or
    /// finished without declaring — an invariant breach, not a data
    /// condition).
    pub fn await_ranges(&self) -> Result<(Arc<[Range<usize>]>, u64)> {
        let mut g = self.inner.state.lock();
        loop {
            if let Some(reason) = &g.cancelled {
                return Err(HdmError::Cancelled(reason.clone()));
            }
            if let Some(msg) = &g.failed {
                return Err(HdmError::DataMpi(format!(
                    "pipelined input {}: upstream failed: {msg}",
                    self.inner.label
                )));
            }
            if let Some((ranges, est)) = &g.declared {
                return Ok((Arc::clone(ranges), *est));
            }
            if g.finished {
                return Err(HdmError::DataMpi(format!(
                    "pipelined input {}: stream finished before declaring partitions",
                    self.inner.label
                )));
            }
            // hdm-allow(blocking-under-lock): condvar wait — the guard is released while parked and reacquired on wake
            g = match self.inner.takers.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Producer: publish `rows` as partition `partition` of attempt
    /// `attempt`. Blocks while the buffer is at capacity *and* a
    /// consumer is attached *and* no consumer task is parked waiting for
    /// this very partition; errors if the stream was failed.
    pub fn commit(&self, partition: usize, attempt: u32, rows: Arc<Vec<Row>>) -> Result<()> {
        let inner = &self.inner;
        let mut g = inner.state.lock();
        // Backpressure gates fresh partitions only: a replay targets a
        // slot that is already buffered, so it must never park (the
        // consumer it would wait on may be waiting on *it*).
        let mut waited = false;
        while g.cancelled.is_none()
            && g.failed.is_none()
            && g.consumers > 0
            && g.buffered >= inner.cap
            && !g.slots.contains_key(&partition)
            && !g.awaited.contains(&partition)
        {
            waited = true;
            // hdm-allow(blocking-under-lock): condvar wait — backpressure; the guard is released while parked
            g = match inner.producers.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        if let Some(reason) = &g.cancelled {
            return Err(HdmError::Cancelled(reason.clone()));
        }
        if let Some(msg) = &g.failed {
            return Err(HdmError::DataMpi(format!(
                "pipelined output {}: stream failed: {msg}",
                inner.label
            )));
        }
        let n_rows = rows.len() as u64;
        let replay = if let Some(slot) = g.slots.get_mut(&partition) {
            // Attempt replay. Replace the rows only while untaken: a
            // consumer that already took attempt N must keep seeing N's
            // rows (which replay reproduces byte-identically anyway).
            if !slot.taken && attempt >= slot.attempt {
                slot.rows = rows;
                slot.attempt = attempt;
            }
            true
        } else {
            g.slots.insert(
                partition,
                Slot {
                    rows,
                    attempt,
                    taken: false,
                },
            );
            g.buffered += 1;
            false
        };
        let buffered = g.buffered as u64;
        drop(g);
        if replay {
            inner.obs.count("pipe.partitions.replayed", &inner.label, 1);
            inner.takers.notify_all();
            return Ok(());
        }
        if waited {
            inner.obs.count("pipe.backpressure.waits", &inner.label, 1);
        }
        inner.committed.add(1);
        inner.streamed.add(n_rows);
        inner
            .buffered
            .record_max(i64::try_from(buffered).unwrap_or(i64::MAX));
        inner.takers.notify_all();
        Ok(())
    }

    /// Consumer: block until partition `partition` is available and
    /// return its rows. Re-takes (consumer attempt replay) return the
    /// retained rows without touching backpressure accounting.
    pub fn take(&self, partition: usize) -> Result<Arc<Vec<Row>>> {
        let inner = &self.inner;
        let mut g = inner.state.lock();
        let mut parked = false;
        let waited = loop {
            if g.slots.contains_key(&partition) {
                break Ok(());
            }
            if let Some(reason) = &g.cancelled {
                break Err(HdmError::Cancelled(reason.clone()));
            }
            if let Some(msg) = &g.failed {
                break Err(HdmError::DataMpi(format!(
                    "pipelined input {}: upstream failed: {msg}",
                    inner.label
                )));
            }
            if g.finished {
                break Err(HdmError::DataMpi(format!(
                    "pipelined input {}: partition {partition} missing after producer finished",
                    inner.label
                )));
            }
            if !parked {
                // From here on this partition's commit must not wait for
                // buffer room; one that already does re-checks now.
                parked = true;
                g.awaited.push(partition);
                inner.producers.notify_all();
            }
            // hdm-allow(blocking-under-lock): condvar wait — the guard is released while parked and reacquired on wake
            g = match inner.takers.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        };
        if parked {
            if let Some(at) = g.awaited.iter().position(|p| *p == partition) {
                g.awaited.swap_remove(at);
            }
        }
        waited?;
        let Some(slot) = g.slots.get_mut(&partition) else {
            return Err(HdmError::DataMpi(format!(
                "pipelined input {}: partition {partition} vanished",
                inner.label
            )));
        };
        let first_take = !slot.taken;
        slot.taken = true;
        let rows = Arc::clone(&slot.rows);
        if first_take {
            g.buffered = g.buffered.saturating_sub(1);
        }
        drop(g);
        if first_take {
            inner.producers.notify_all();
        }
        Ok(rows)
    }

    /// Consumer: register as a live drainer (enables backpressure).
    pub fn attach(&self) {
        self.inner.state.lock().consumers += 1;
    }

    /// Consumer: deregister. Wakes blocked producers so a consumer that
    /// errored out (or was the last one) never wedges a commit.
    pub fn detach(&self) {
        let mut g = self.inner.state.lock();
        g.consumers = g.consumers.saturating_sub(1);
        drop(g);
        self.inner.producers.notify_all();
    }

    /// Producer: mark the stream complete — every partition committed.
    pub fn finish(&self) {
        self.inner.state.lock().finished = true;
        self.inner.takers.notify_all();
    }

    /// Either side: poison the stream; blocked peers wake with `msg`.
    pub fn fail(&self, msg: &str) {
        let mut g = self.inner.state.lock();
        if g.failed.is_none() {
            g.failed = Some(msg.to_string());
        }
        drop(g);
        self.inner.takers.notify_all();
        self.inner.producers.notify_all();
    }

    /// Move the stream to the `Cancelled` terminal state: every blocked
    /// producer and consumer wakes with [`HdmError::Cancelled`]
    /// (`reason`), and all further commits/takes bail immediately. Wins
    /// over a concurrent `fail` — the cancellation check comes first in
    /// every wait loop — so a query torn down mid-flight unwinds as
    /// cancelled, not as a retryable fault.
    pub fn cancel(&self, reason: &str) {
        let mut g = self.inner.state.lock();
        if g.cancelled.is_none() {
            g.cancelled = Some(reason.to_string());
        }
        drop(g);
        self.inner.takers.notify_all();
        self.inner.producers.notify_all();
    }

    /// Driver: empty a finished stream no stage consumes — a `SELECT`'s
    /// result (DESIGN.md §31) — into its rows: partitions in order, each
    /// partition's rows in commit order, as reading its part files in
    /// rank order would return them. Counts the hand-off on `obs` as
    /// `result.partitions` and `result.rows`.
    ///
    /// # Errors
    /// The stream's cancellation or failure, a stream whose producer
    /// never finished, and a declared partition that was never committed
    /// (or a committed one that was never declared).
    pub fn drain(self, obs: &ObsHandle) -> Result<Vec<Row>> {
        let label = &self.inner.label;
        let mut g = self.inner.state.lock();
        if let Some(reason) = &g.cancelled {
            return Err(HdmError::Cancelled(reason.clone()));
        }
        if let Some(msg) = &g.failed {
            return Err(HdmError::DataMpi(format!(
                "pipelined output {label}: stream failed: {msg}"
            )));
        }
        if !g.finished {
            return Err(HdmError::DataMpi(format!(
                "pipelined output {label}: drained before its producer finished"
            )));
        }
        let partitions = g
            .declared
            .as_ref()
            .and_then(|(ranges, _)| ranges.iter().map(|r| r.end).max())
            .unwrap_or(0);
        let mut slots = std::mem::take(&mut g.slots);
        drop(g);
        let mut parts = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let slot = slots.remove(&p).ok_or_else(|| {
                HdmError::DataMpi(format!(
                    "pipelined output {label}: partition {p} of {partitions} never committed"
                ))
            })?;
            parts.push(slot.rows);
        }
        if let Some(p) = slots.keys().min() {
            return Err(HdmError::DataMpi(format!(
                "pipelined output {label}: partition {p} committed but not declared"
            )));
        }
        let mut rows = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            // The slot held the only reference, so the rows move.
            rows.extend(Arc::try_unwrap(part).unwrap_or_else(|shared| (*shared).clone()));
        }
        obs.count("result.partitions", label, partitions as u64);
        obs.count("result.rows", label, rows.len() as u64);
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::value::Value;
    use std::time::Duration;

    fn rows(n: usize) -> Arc<Vec<Row>> {
        Arc::new(
            (0..n)
                .map(|i| Row::from(vec![Value::Long(i as i64)]))
                .collect(),
        )
    }

    fn obs() -> ObsHandle {
        ObsHandle::enabled_with_stride(1)
    }

    #[test]
    fn declare_then_commit_then_take_round_trips() {
        let o = obs();
        let s = StreamedIntermediate::new("stage1", 4, &o);
        s.declare(2, 0);
        let (ranges, est) = s.await_ranges().unwrap();
        assert_eq!((&*ranges, est), (&[0..1, 1..2][..], 0));
        s.commit(0, 0, rows(3)).unwrap();
        s.commit(1, 0, rows(1)).unwrap();
        s.finish();
        assert_eq!(s.take(0).unwrap().len(), 3);
        assert_eq!(s.take(1).unwrap().len(), 1);
        let snap = o.snapshot();
        let committed: u64 = snap
            .counters
            .iter()
            .filter(|(n, _, _)| n == "pipe.partitions.committed")
            .map(|(_, _, v)| *v)
            .sum();
        assert_eq!(committed, 2);
    }

    #[test]
    fn take_blocks_until_commit() {
        let s = StreamedIntermediate::new("stage1", 4, &obs());
        s.declare(1, 0);
        let t = {
            let s = s.clone();
            std::thread::spawn(move || s.take(0).map(|r| r.len()))
        };
        std::thread::sleep(Duration::from_millis(20));
        s.commit(0, 0, rows(5)).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 5);
    }

    #[test]
    fn backpressure_blocks_producer_only_while_consumer_attached() {
        let o = obs();
        let s = StreamedIntermediate::new("stage1", 1, &o);
        s.declare(3, 0);
        // No consumer attached: commits past the cap land immediately.
        s.commit(0, 0, rows(1)).unwrap();
        s.commit(1, 0, rows(1)).unwrap();
        // Attach a consumer: the next commit must wait for a drain.
        s.attach();
        let producer = {
            let s = s.clone();
            std::thread::spawn(move || s.commit(2, 0, rows(1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "commit should be backpressured");
        s.take(0).unwrap();
        s.take(1).unwrap();
        producer.join().unwrap().unwrap();
        s.detach();
        let waits: u64 = o
            .snapshot()
            .counters
            .iter()
            .filter(|(n, _, _)| n == "pipe.backpressure.waits")
            .map(|(_, _, v)| *v)
            .sum();
        assert!(waits >= 1, "backpressure wait should be counted");
    }

    #[test]
    fn commit_past_the_cap_does_not_wait_when_its_taker_is_parked() {
        let s = StreamedIntermediate::new("stage1", 1, &obs());
        s.declare(3, 0);
        s.attach();
        s.commit(0, 0, rows(1)).unwrap(); // the buffer is now at its cap
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let taker = {
            let s = s.clone();
            std::thread::spawn(move || {
                parked_tx.send(()).unwrap();
                s.take(2).map(|r| r.len())
            })
        };
        parked_rx.recv().unwrap();
        // Nobody waits for partition 1: its commit parks, as before.
        let unawaited = {
            let s = s.clone();
            std::thread::spawn(move || s.commit(1, 0, rows(1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!unawaited.is_finished(), "commit should be backpressured");
        // Partition 2 has a parked taker: whether this commit finds the
        // taker registered or registers first and is re-checked by it, it
        // returns without anyone draining the buffer.
        s.commit(2, 0, rows(7)).unwrap();
        assert_eq!(taker.join().unwrap().unwrap(), 7);
        assert!(!unawaited.is_finished(), "the exemption is per partition");
        s.take(0).unwrap();
        unawaited.join().unwrap().unwrap();
        // The taker deregistered on its way out: partition 2 is exempt
        // only while someone is parked on it.
        assert!(s.inner.state.lock().awaited.is_empty());
        s.detach();
    }

    #[test]
    fn failed_take_deregisters_its_partition() {
        let s = StreamedIntermediate::new("stage1", 1, &obs());
        s.declare(2, 0);
        let taker = {
            let s = s.clone();
            std::thread::spawn(move || s.take(1))
        };
        while s.inner.state.lock().awaited.is_empty() {
            std::thread::yield_now();
        }
        s.cancel("query abandoned");
        assert!(taker.join().unwrap().unwrap_err().is_cancelled());
        assert!(s.inner.state.lock().awaited.is_empty());
    }

    #[test]
    fn detach_unwedges_blocked_producer() {
        let s = StreamedIntermediate::new("stage1", 1, &obs());
        s.declare(2, 0);
        s.attach();
        s.commit(0, 0, rows(1)).unwrap();
        let producer = {
            let s = s.clone();
            std::thread::spawn(move || s.commit(1, 0, rows(1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished());
        s.detach(); // consumer dies without draining
        producer.join().unwrap().unwrap();
    }

    #[test]
    fn replay_before_take_replaces_rows_after_take_is_noop() {
        let s = StreamedIntermediate::new("stage1", 4, &obs());
        s.declare(1, 0);
        s.commit(0, 0, rows(2)).unwrap();
        s.commit(0, 1, rows(4)).unwrap(); // replay before take: newer wins
        assert_eq!(s.take(0).unwrap().len(), 4);
        s.commit(0, 2, rows(9)).unwrap(); // replay after take: retained rows win
        assert_eq!(s.take(0).unwrap().len(), 4);
    }

    #[test]
    fn fail_wakes_blocked_consumer_and_rejects_commits() {
        let s = StreamedIntermediate::new("stage1", 4, &obs());
        s.declare(2, 0);
        let t = {
            let s = s.clone();
            std::thread::spawn(move || s.take(1))
        };
        std::thread::sleep(Duration::from_millis(20));
        s.fail("upstream task exploded");
        let err = t.join().unwrap().unwrap_err();
        assert!(err.message().contains("upstream task exploded"), "{err}");
        let err = s.commit(1, 0, rows(1)).unwrap_err();
        assert!(err.message().contains("upstream task exploded"), "{err}");
    }

    #[test]
    fn await_ranges_blocks_until_declared_and_errors_on_fail() {
        let s = StreamedIntermediate::new("stage1", 4, &obs());
        let t = {
            let s = s.clone();
            std::thread::spawn(move || s.await_ranges())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished());
        s.declare_ranges(&[0..3, 3..7], 4096);
        // The first declaration stands.
        s.declare(7, 0);
        let (ranges, est) = t.join().unwrap().unwrap();
        assert_eq!((&*ranges, est), (&[0..3, 3..7][..], 4096));
        assert_eq!(&*s.await_ranges().unwrap().0, &[0..3, 3..7]);

        let s = StreamedIntermediate::new("stage2", 4, &obs());
        s.fail("boom");
        assert!(s.await_ranges().is_err());
    }

    #[test]
    fn cancel_wakes_blocked_peers_into_cancelled_terminal_state() {
        // A consumer parked in take() and a backpressured producer parked
        // in commit() must both wake with HdmError::Cancelled — not hang,
        // not see a fault-shaped error the retry machinery would chase.
        let s = StreamedIntermediate::new("stage1", 1, &obs());
        s.declare(3, 0);
        s.attach();
        s.commit(0, 0, rows(1)).unwrap();
        let consumer = {
            let s = s.clone();
            std::thread::spawn(move || s.take(2))
        };
        let producer = {
            let s = s.clone();
            std::thread::spawn(move || s.commit(1, 0, rows(1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished());
        assert!(!producer.is_finished());
        s.cancel("deadline exceeded");
        let err = consumer.join().unwrap().unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert!(err.message().contains("deadline exceeded"), "{err}");
        let err = producer.join().unwrap().unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        // Terminal: later traffic bails immediately, and await_ranges
        // reports cancellation too.
        assert!(s.commit(2, 0, rows(1)).unwrap_err().is_cancelled());
        assert!(s.take(2).unwrap_err().is_cancelled());
        assert!(s.await_ranges().unwrap_err().is_cancelled());
        // Already-committed data stays takeable: cancellation interrupts
        // waits, it does not eat delivered partitions.
        assert!(s.take(0).is_ok());
    }

    #[test]
    fn cancel_wins_over_concurrent_fail() {
        let s = StreamedIntermediate::new("stage1", 4, &obs());
        s.declare(1, 0);
        s.fail("task exploded");
        s.cancel("server shutdown");
        let err = s.take(0).unwrap_err();
        assert!(err.is_cancelled(), "cancel must shadow fail: {err}");
    }

    #[test]
    fn finished_stream_reports_missing_partition_as_invariant_error() {
        let s = StreamedIntermediate::new("stage1", 4, &obs());
        s.declare(2, 0);
        s.commit(0, 0, rows(1)).unwrap();
        s.finish();
        assert!(s.take(0).is_ok());
        let err = s.take(1).unwrap_err();
        assert!(err.message().contains("missing"), "{err}");
    }

    fn labelled(n: i64) -> Arc<Vec<Row>> {
        Arc::new(vec![Row::from(vec![Value::Long(n)])])
    }

    #[test]
    fn drain_returns_partitions_in_order_and_the_replayed_attempt() {
        let o = obs();
        let s = StreamedIntermediate::new("stage2", 1, &ObsHandle::disabled());
        s.declare_ranges(&[0..2, 2..3], 0);
        s.commit(2, 0, labelled(2)).unwrap();
        s.commit(0, 0, labelled(0)).unwrap();
        s.commit(1, 0, labelled(10)).unwrap();
        // A replayed attempt replaces its partition, as a rewritten part
        // file would; nothing ever parks (no consumer is attached).
        s.commit(1, 1, labelled(1)).unwrap();
        s.finish();
        let rows = s.drain(&o).unwrap();
        let want: Vec<Row> = (0..3).map(|n| Row::from(vec![Value::Long(n)])).collect();
        assert_eq!(rows, want);
        let counter = |name: &str| {
            let snap = o.snapshot();
            snap.counters
                .iter()
                .filter(|(n, l, _)| n == name && l == "stage2")
                .map(|(_, _, v)| *v)
                .sum::<u64>()
        };
        assert_eq!(
            (counter("result.partitions"), counter("result.rows")),
            (3, 3)
        );
    }

    #[test]
    fn drain_refuses_a_gap_an_unfinished_stream_and_a_cancelled_one() {
        let s = StreamedIntermediate::new("stage0", 4, &obs());
        s.declare(3, 0);
        s.commit(0, 0, rows(1)).unwrap();
        s.commit(2, 0, rows(1)).unwrap();
        assert!(s
            .clone()
            .drain(&obs())
            .unwrap_err()
            .message()
            .contains("before"));
        s.finish();
        let err = s.drain(&obs()).unwrap_err();
        assert!(
            err.message().contains("partition 1 of 3 never committed"),
            "{err}"
        );

        let s = StreamedIntermediate::new("stage0", 4, &obs());
        s.commit(0, 0, rows(1)).unwrap();
        s.finish();
        let err = s.drain(&obs()).unwrap_err();
        assert!(err.message().contains("not declared"), "{err}");

        let s = StreamedIntermediate::new("stage0", 4, &obs());
        s.finish();
        assert_eq!(s.drain(&obs()).unwrap(), Vec::<Row>::new());

        let s = StreamedIntermediate::new("stage0", 4, &obs());
        s.declare(1, 0);
        s.commit(0, 0, rows(1)).unwrap();
        s.cancel("deadline exceeded");
        s.finish();
        assert!(s.drain(&obs()).unwrap_err().is_cancelled());
    }

    #[test]
    fn zero_cap_is_clamped_to_one() {
        let s = StreamedIntermediate::new("stage1", 0, &obs());
        s.declare(1, 0);
        s.commit(0, 0, rows(1)).unwrap(); // would deadlock at cap 0
        assert_eq!(s.take(0).unwrap().len(), 1);
    }
}
