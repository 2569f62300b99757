//! Bounded admission control with per-tenant fair queueing.
//!
//! HiveServer2 guards its executor pool with a workload manager: a
//! bounded wait queue in front of a fixed number of concurrently running
//! queries, with fairness across resource plans so one chatty tenant
//! cannot starve everyone else. [`AdmissionGate`] reproduces that shape:
//!
//! * at most `pool` queries hold a [`Permit`] at once;
//! * at most `queue_max` queries wait; arrivals beyond the bound are
//!   **rejected** immediately (fail fast beats building an unbounded
//!   backlog);
//! * waiting queries are dispatched **round-robin across tenants**, FIFO
//!   within a tenant — so a waiting query from a starved tenant runs
//!   before a later arrival from a hot tenant, while a single tenant's
//!   own queries keep their submission order.

use hdm_common::error::{HdmError, Result};
use hdm_common::CancelToken;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct GateState {
    /// Permits currently held.
    running: usize,
    /// Tickets currently parked in a tenant queue.
    waiting: usize,
    /// Monotonic ticket source.
    next_ticket: u64,
    /// FIFO of waiting tickets per tenant.
    queues: BTreeMap<String, VecDeque<u64>>,
    /// Round-robin dispatch order over tenants with waiting tickets.
    rr: VecDeque<String>,
    /// Tickets dispatched but not yet observed by their waiter.
    granted: BTreeSet<u64>,
    /// Shutdown phase 1: new arrivals are rejected; parked waiters keep
    /// draining normally.
    closing: bool,
    /// Shutdown phase 2 (drain window exceeded): every remaining waiter
    /// is being rejected. A permit dropped now must NOT re-dispatch —
    /// a grant handed to a waiter that bails would leak its running
    /// slot and wedge the gate just short of idle.
    expelled: bool,
}

impl GateState {
    /// Grant permits while capacity allows, rotating across tenants.
    /// Caller must notify the gate condvar after any call that grants.
    fn dispatch(&mut self, pool: usize) {
        while self.running < pool {
            let Some(tenant) = self.rr.pop_front() else {
                break;
            };
            let Some(queue) = self.queues.get_mut(&tenant) else {
                continue;
            };
            let Some(ticket) = queue.pop_front() else {
                continue;
            };
            if !queue.is_empty() {
                // The tenant rotates to the *back*: its next query waits
                // behind every other tenant that has work queued.
                self.rr.push_back(tenant);
            }
            self.waiting -= 1;
            self.running += 1;
            self.granted.insert(ticket);
        }
    }

    /// Remove a ticket that gave up before being granted.
    fn abandon(&mut self, tenant: &str, ticket: u64) {
        if let Some(queue) = self.queues.get_mut(tenant) {
            if let Some(pos) = queue.iter().position(|t| *t == ticket) {
                queue.remove(pos);
                self.waiting -= 1;
            }
            if queue.is_empty() {
                self.rr.retain(|t| t != tenant);
            }
        }
    }
}

#[derive(Debug)]
struct GateShared {
    pool: usize,
    queue_max: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

/// The admission gate: see the module docs for the policy.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    inner: Arc<GateShared>,
}

/// Outcome bookkeeping of a successful admission.
#[derive(Debug)]
pub struct Permit {
    gate: Arc<GateShared>,
    /// Whether this query had to wait in the queue before dispatch.
    waited: bool,
    /// Queue depth observed at arrival (before this query enqueued).
    depth_at_arrival: usize,
    released: bool,
}

impl Permit {
    /// True iff the query was parked in the wait queue before running.
    pub fn waited(&self) -> bool {
        self.waited
    }

    /// How many queries were already waiting when this one arrived.
    pub fn depth_at_arrival(&self) -> usize {
        self.depth_at_arrival
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        let mut state = self.gate.state.lock();
        state.running = state.running.saturating_sub(1);
        // Once waiters are being expelled, a freed slot must not be
        // re-dispatched: the grant would land on a waiter that is about
        // to reject itself, leaking the running slot forever and leaving
        // the gate permanently one short of idle.
        if !state.expelled {
            state.dispatch(self.gate.pool);
        }
        self.gate.cv.notify_all();
    }
}

impl AdmissionGate {
    /// A gate running at most `pool` queries with at most `queue_max`
    /// waiting.
    pub fn new(pool: usize, queue_max: usize) -> AdmissionGate {
        AdmissionGate {
            inner: Arc::new(GateShared {
                pool: pool.max(1),
                queue_max: queue_max.max(1),
                state: Mutex::new(GateState::default()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Number of queries currently waiting for admission.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().waiting
    }

    /// Number of queries currently running under a permit.
    pub fn running(&self) -> usize {
        self.inner.state.lock().running
    }

    /// Block until this query may run (fair-queued across tenants), or
    /// reject immediately when the wait queue is full.
    ///
    /// # Errors
    /// [`HdmError::Other`] when `queue_max` queries are already waiting;
    /// [`HdmError::Cancelled`] when the gate is closing.
    pub fn admit(&self, tenant: &str) -> Result<Permit> {
        self.admit_cancellable(tenant, &CancelToken::default())
    }

    /// [`AdmissionGate::admit`] bounded by a cancellation token: a query
    /// whose token fires while parked in the wait queue gives its ticket
    /// back and returns `Cancelled` instead of waiting for a permit it
    /// no longer wants.
    ///
    /// # Errors
    /// As [`AdmissionGate::admit`], plus [`HdmError::Cancelled`] when
    /// `cancel` fires mid-wait (or the gate expels its waiters).
    pub fn admit_cancellable(&self, tenant: &str, cancel: &CancelToken) -> Result<Permit> {
        let shared = &self.inner;
        let mut state = shared.state.lock();
        if state.closing {
            return Err(HdmError::Cancelled(
                "admission closed (server shutting down)".to_string(),
            ));
        }
        let depth_at_arrival = state.waiting;
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        if state.queues.get(tenant).is_none_or(|q| q.is_empty()) {
            state.rr.push_back(tenant.to_string());
        }
        state
            .queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(ticket);
        state.waiting += 1;
        state.dispatch(shared.pool);
        if state.granted.remove(&ticket) {
            return Ok(Permit {
                gate: Arc::clone(shared),
                waited: false,
                depth_at_arrival,
                released: false,
            });
        }
        // The query must wait; enforce the queue bound on waiters only.
        if state.waiting > shared.queue_max {
            state.abandon(tenant, ticket);
            return Err(HdmError::Other(format!(
                "admission rejected for tenant {tenant:?}: \
                 {} queries already waiting (hive.server.queue.max = {})",
                shared.queue_max, shared.queue_max
            )));
        }
        loop {
            // The short timeout doubles as the cancellation poll period
            // for parked waiters (queued queries hold no thread that
            // could poll the token otherwise).
            // hdm-allow(blocking-under-lock): condvar wait — the guard is released while parked and reacquired on wake
            state = match shared.cv.wait_timeout(state, Duration::from_millis(2)) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
            if state.granted.remove(&ticket) {
                return Ok(Permit {
                    gate: Arc::clone(shared),
                    waited: true,
                    depth_at_arrival,
                    released: false,
                });
            }
            if cancel.is_cancelled() || state.expelled {
                // The grant check above ran under this same lock, so the
                // ticket is provably still queued (not granted): abandon
                // cleanly — no running slot was taken on our behalf.
                state.abandon(tenant, ticket);
                return Err(if cancel.is_cancelled() {
                    cancel.as_error()
                } else {
                    HdmError::Cancelled(
                        "admission wait expelled (server drain window exceeded)".to_string(),
                    )
                });
            }
        }
    }

    /// Shutdown phase 1: reject new arrivals. Parked waiters keep
    /// draining through the pool normally.
    pub fn close(&self) {
        self.inner.state.lock().closing = true;
        self.inner.cv.notify_all();
    }

    /// Shutdown phase 2: reject every parked waiter. Returns how many
    /// waiters were expelled. From this point a dropped permit no longer
    /// re-dispatches (see [`Permit`]'s drop).
    pub fn expel_waiters(&self) -> usize {
        let mut state = self.inner.state.lock();
        state.closing = true;
        state.expelled = true;
        let expelled = state.waiting;
        self.inner.cv.notify_all();
        expelled
    }

    /// Block until the gate is idle (nothing running, nothing waiting)
    /// or `timeout` elapses. Returns whether idle was reached.
    pub fn await_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let shared = &self.inner;
        let mut state = shared.state.lock();
        while state.running > 0 || state.waiting > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let step = left.min(Duration::from_millis(5));
            // hdm-allow(blocking-under-lock): condvar wait — the guard is released while parked and reacquired on wake
            state = match shared.cv.wait_timeout(state, step) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn pool_bound_is_respected_under_contention() {
        let gate = AdmissionGate::new(3, 64);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let (gate, live, peak) = (gate.clone(), live.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                let permit = gate.admit("t").unwrap();
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                live.fetch_sub(1, Ordering::SeqCst);
                drop(permit);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3);
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.queue_depth(), 0);
    }

    #[test]
    fn starved_tenant_dispatches_before_hot_tenants_later_arrival() {
        // pool=1: one query runs, the rest queue. While the first "hot"
        // query runs, hot enqueues a second query, then "starved"
        // enqueues one, then hot a third. Round-robin must dispatch
        // starved's single query before hot's third arrival.
        let gate = AdmissionGate::new(1, 64);
        let first = gate.admit("hot").unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (tenant, tag, delay_ms) in [
            ("hot", "hot-2", 0u64),
            ("starved", "starved-1", 20),
            ("hot", "hot-3", 40),
        ] {
            let (gate, order) = (gate.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay_ms));
                let permit = gate.admit(tenant).unwrap();
                order.lock().push(tag);
                drop(permit);
            }));
        }
        // Let all three park in the queue before releasing the runner.
        while gate.queue_depth() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().clone();
        let pos = |tag: &str| order.iter().position(|t| *t == tag).unwrap();
        assert!(
            pos("starved-1") < pos("hot-3"),
            "starved tenant must beat the hot tenant's later arrival: {order:?}"
        );
    }

    #[test]
    fn queue_bound_rejects_excess_arrivals() {
        let gate = AdmissionGate::new(1, 1);
        let running = gate.admit("a").unwrap();
        let parked = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.admit("a").map(drop))
        };
        while gate.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queue holds 1 waiter already: the third arrival is rejected.
        let err = gate.admit("b").unwrap_err();
        assert!(err.message().contains("admission rejected"), "{err}");
        drop(running);
        parked.join().unwrap().unwrap();
    }

    #[test]
    fn cancelled_waiter_returns_its_ticket_and_errors_cancelled() {
        let gate = AdmissionGate::new(1, 8);
        let runner = gate.admit("a").unwrap();
        let token = CancelToken::new();
        let waiter = {
            let (gate, token) = (gate.clone(), token.clone());
            std::thread::spawn(move || gate.admit_cancellable("a", &token).map(drop))
        };
        while gate.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.cancel("caller gave up");
        let err = waiter.join().unwrap().unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        // The abandoned ticket must not linger in the queue.
        assert_eq!(gate.queue_depth(), 0);
        drop(runner);
        assert_eq!(gate.running(), 0);
    }

    #[test]
    fn close_rejects_new_arrivals_but_drains_parked_waiters() {
        let gate = AdmissionGate::new(1, 8);
        let runner = gate.admit("a").unwrap();
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.admit("a").map(drop))
        };
        while gate.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.close();
        let err = gate.admit("b").unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        // Phase 1 is drain, not expel: the parked waiter still gets the
        // freed slot and completes normally.
        drop(runner);
        waiter.join().unwrap().unwrap();
        assert!(gate.await_idle(Duration::from_secs(2)));
    }

    #[test]
    fn permit_drop_during_expulsion_does_not_leak_the_running_slot() {
        // The shutdown race: a permit released while waiters are being
        // expelled must NOT re-dispatch its slot. If it did, the grant
        // would land on a waiter that is rejecting itself, the running
        // count would stay at 1 forever, and the gate would never idle.
        let gate = AdmissionGate::new(1, 8);
        let runner = gate.admit("a").unwrap();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let gate = gate.clone();
                std::thread::spawn(move || gate.admit("a").map(drop))
            })
            .collect();
        while gate.queue_depth() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(gate.expel_waiters(), 3);
        // Release the running permit while the expelled waiters race to
        // reject themselves.
        drop(runner);
        for w in waiters {
            let err = w.join().unwrap().unwrap_err();
            assert!(err.is_cancelled(), "{err}");
        }
        assert!(
            gate.await_idle(Duration::from_secs(2)),
            "gate must reach idle: running={} waiting={}",
            gate.running(),
            gate.queue_depth()
        );
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.queue_depth(), 0);
    }

    #[test]
    fn waited_flag_reflects_queueing() {
        let gate = AdmissionGate::new(1, 8);
        let p1 = gate.admit("a").unwrap();
        assert!(!p1.waited());
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                let p = gate.admit("a").unwrap();
                let waited = p.waited();
                drop(p);
                waited
            })
        };
        while gate.queue_depth() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(p1);
        assert!(waiter.join().unwrap());
    }
}
