#![warn(missing_docs)]

//! # hdm-server
//!
//! Multi-tenant query serving over long-lived shared executor state —
//! the HiveServer2 + LLAP split for this reproduction.
//!
//! One [`HdmServer`] wraps one executor ([`hdm_core::Driver`]) and hands
//! out lightweight [`Session`]s. Every session shares:
//!
//! * the **filesystem and metastore** (via [`Driver::session`]);
//! * a bounded **admission gate** with per-tenant fair queueing
//!   ([`admission::AdmissionGate`]) sized by `hive.server.pool.size` and
//!   `hive.server.queue.max`;
//! * the **ORC data/metadata cache** ([`hdm_storage::OrcDataCache`],
//!   budget `hive.server.io.cache.mb`), attached to the DFS as a
//!   read-through [`hdm_dfs::RangeCache`] so every session's scans hit
//!   the same daemon-resident bytes;
//! * the **result cache** ([`result_cache::ResultCache`]), keyed on
//!   normalized query text + engine + session conf + the data versions
//!   of every referenced table, invalidated lazily when a reload bumps
//!   a version. A query that misses while an identical one is running
//!   over the same versions waits for that run's rows instead of
//!   executing again (DESIGN.md §30).
//!
//! The differential contract: rows served through a session — cached or
//! not, queued or not — are byte-identical to a solo single-session run
//! of the same statement with the same conf and engine.
//!
//! ```
//! use hdm_core::Driver;
//! use hdm_server::HdmServer;
//!
//! let driver = Driver::in_memory();
//! driver.execute("CREATE TABLE t (k BIGINT); INSERT INTO t VALUES (1), (2)").unwrap();
//! let server = HdmServer::over(driver).unwrap();
//! let session = server.session("tenant-a");
//! let r = session.execute("SELECT k FROM t ORDER BY k").unwrap();
//! assert_eq!(r.to_lines(), vec!["1", "2"]);
//! // The repeat comes from the result cache — byte-identical.
//! let again = session.execute("SELECT k FROM t ORDER BY k").unwrap();
//! assert_eq!(again.to_lines(), r.to_lines());
//! assert_eq!(server.stats().result_hits, 1);
//! ```

pub mod admission;
pub mod result_cache;

pub use admission::{AdmissionGate, Permit};
pub use result_cache::{ResultCache, ResultCacheStats};

use hdm_common::error::{HdmError, Result};
use hdm_common::CancelToken;
use hdm_core::ast::Statement;
use hdm_core::parser::parse_script;
use hdm_core::{Driver, EngineKind, QueryResult};
use hdm_storage::{CacheStats, OrcDataCache};
use parking_lot::Mutex;
use result_cache::{cache_key, Probe};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Point-in-time counters of an [`HdmServer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Queries granted a permit (after queueing or not).
    pub admitted: u64,
    /// Admitted queries that waited in the queue first.
    pub queued: u64,
    /// Queries rejected because the wait queue was full.
    pub rejected: u64,
    /// Queries rejected early because their projected queue wait
    /// exceeded `hive.server.shed.queue.wait.ms`.
    pub shed: u64,
    /// Queries cancelled (deadline, explicit cancel, or shutdown).
    pub cancelled: u64,
    /// Queries answered without executing: from a result-cache entry,
    /// or from an identical query's run in flight.
    pub result_hits: u64,
    /// Cacheable queries that had to execute.
    pub result_misses: u64,
    /// The result hits that waited for an identical query in flight.
    pub result_coalesced: u64,
    /// ORC data-cache counters, when the cache is enabled.
    pub io: Option<CacheStats>,
}

/// Per-engine consecutive-failure circuit breaker. While open, new
/// queries requesting the tripped engine are flipped to the other one
/// (HiveServer2's "degrade rather than fail" stance under a sick
/// execution backend). A success on the tripped engine closes it again.
#[derive(Debug, Default)]
struct Breaker {
    /// Consecutive execution failures on each engine.
    hadoop: AtomicU64,
    datampi: AtomicU64,
}

impl Breaker {
    fn slot(&self, engine: EngineKind) -> &AtomicU64 {
        match engine {
            EngineKind::Hadoop => &self.hadoop,
            EngineKind::DataMpi => &self.datampi,
        }
    }

    fn is_open(&self, engine: EngineKind, threshold: u64) -> bool {
        threshold > 0 && self.slot(engine).load(Ordering::Relaxed) >= threshold
    }

    fn record(&self, engine: EngineKind, ok: bool) -> u64 {
        let slot = self.slot(engine);
        if ok {
            slot.store(0, Ordering::Relaxed);
            0
        } else {
            slot.fetch_add(1, Ordering::Relaxed) + 1
        }
    }
}

#[derive(Debug)]
struct ServerShared {
    base: Driver,
    gate: AdmissionGate,
    pool: usize,
    results: Option<ResultCache>,
    io_cache: Option<Arc<OrcDataCache>>,
    obs: hdm_obs::ObsHandle,
    next_session: AtomicU64,
    admitted: AtomicU64,
    queued: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    /// Live tokens of in-flight queries (queued or executing), keyed by
    /// a server-wide query sequence number. Shutdown fires the lot.
    active: Mutex<HashMap<u64, CancelToken>>,
    next_query: AtomicU64,
    /// Sum/count of completed execution times, microseconds — the basis
    /// for the shed projection.
    exec_us: AtomicU64,
    exec_n: AtomicU64,
    /// `hive.server.shed.queue.wait.ms` at server start (0 = shedding off).
    shed_wait_ms: u64,
    /// `hive.server.breaker.failures` at server start (0 = breaker off).
    breaker_threshold: u64,
    breaker: Breaker,
    shutting_down: AtomicBool,
}

impl ServerShared {
    /// Register a live query token; the guard deregisters on drop.
    fn track_query(self: &Arc<Self>, cancel: &CancelToken) -> ActiveGuard {
        let id = self.next_query.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(id, cancel.clone());
        ActiveGuard {
            server: Arc::clone(self),
            id,
        }
    }

    /// Projected queue wait for a new arrival, in microseconds: pessimal
    /// position (behind every current waiter) times the observed mean
    /// query cost, spread over the pool. Zero while the pool has room.
    fn projected_wait_us(&self, waiting: usize, running: usize) -> u64 {
        if running < self.pool {
            return 0;
        }
        let n = self.exec_n.load(Ordering::Relaxed);
        let avg = self
            .exec_us
            .load(Ordering::Relaxed)
            .checked_div(n)
            .unwrap_or(0);
        // Never project below 1ms per queued query: an empty history (or
        // a cache-warmed microsecond average) must not disarm shedding
        // entirely while a real backlog builds.
        let per_query = avg.max(1_000);
        (waiting as u64 + 1) * per_query / self.pool as u64
    }
}

/// Removes a query's token from the active registry on drop.
struct ActiveGuard {
    server: Arc<ServerShared>,
    id: u64,
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.server.active.lock().remove(&self.id);
    }
}

/// A query the server tracks: its token is registered for shutdown and
/// its deadline is armed. Fields drop in order: the deadline watcher is
/// disarmed before the token leaves the registry.
struct Tracked {
    _deadline: Option<DeadlineMonitor>,
    _active: ActiveGuard,
}

/// Arms a per-query deadline: a watcher thread fires the query's
/// [`CancelToken`] when the wall-clock budget expires. Dropping the
/// monitor disarms it (wakes and joins the watcher), so the common
/// under-deadline path leaves no thread behind.
struct DeadlineMonitor {
    state: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl DeadlineMonitor {
    /// Start the watcher. It begins counting immediately, so queue wait
    /// inside admission counts against the deadline — a query stuck
    /// behind a full pool can be deadline-cancelled while still queued.
    fn arm(deadline: Duration, cancel: &CancelToken, obs: &hdm_obs::ObsHandle) -> DeadlineMonitor {
        let state = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let watcher_state = Arc::clone(&state);
        let cancel = cancel.clone();
        let obs = obs.clone();
        let handle = std::thread::spawn(move || {
            let (lock, cv) = &*watcher_state;
            let mut done = lock.lock().unwrap_or_else(|p| p.into_inner());
            let end = Instant::now() + deadline;
            while !*done {
                let left = end.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    cancel.cancel(&format!(
                        "query deadline exceeded (hive.query.timeout.ms={})",
                        deadline.as_millis()
                    ));
                    obs.counter("cancel.requested", "source=deadline").add(1);
                    return;
                }
                done = match cv.wait_timeout(done, left) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        });
        DeadlineMonitor {
            state,
            handle: Some(handle),
        }
    }
}

impl Drop for DeadlineMonitor {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            // hdm-allow(swallowed-error): a join error only means the watcher panicked; the query is already past its deadline path and there is nothing to recover
            let _ = h.join();
        }
    }
}

/// The serving frontend: session pool + admission + shared caches.
///
/// Cloning shares the same server state (like an `Arc`).
#[derive(Debug, Clone)]
pub struct HdmServer {
    inner: Arc<ServerShared>,
}

impl HdmServer {
    /// Stand a server up over an executor. Reads every `hive.server.*`
    /// knob from the driver's conf; attaches the ORC cache to the
    /// driver's DFS when `hive.server.io.cache.mb` > 0.
    ///
    /// # Errors
    /// [`hdm_common::error::HdmError::Config`] on malformed or
    /// out-of-range `hive.server.*` values.
    pub fn over(driver: Driver) -> Result<HdmServer> {
        let conf = driver.conf();
        let pool = conf.server_pool_size()?;
        let queue_max = conf.server_queue_max()?;
        let shed_wait_ms = conf.server_shed_wait_ms()?;
        let breaker_threshold = conf.server_breaker_failures()?;
        // Validate the per-query deadline key at server start too, so a
        // malformed base conf fails fast instead of on the first query.
        conf.query_timeout_ms()?;
        let io_mb = conf.server_io_cache_mb()?;
        let result_entries = conf.server_result_cache_entries()?;
        let io_cache = if io_mb > 0 {
            let root = driver.metastore().storage.root.trim_end_matches('/');
            let prefix = format!("{root}/");
            let cache = Arc::new(OrcDataCache::new(io_mb * 1024 * 1024, &prefix));
            driver
                .dfs()
                .attach_read_cache(Some(cache.clone() as Arc<dyn hdm_dfs::RangeCache>));
            Some(cache)
        } else {
            None
        };
        Ok(HdmServer {
            inner: Arc::new(ServerShared {
                base: driver,
                gate: AdmissionGate::new(pool, queue_max),
                pool,
                results: (result_entries > 0).then(|| ResultCache::new(result_entries)),
                io_cache,
                // The server's own track set is always on: per-session
                // spans and `server.*` metrics are the serving layer's
                // product, independent of per-query `hive.obs.enabled`.
                obs: hdm_obs::ObsHandle::enabled_with_stride(1),
                next_session: AtomicU64::new(1),
                admitted: AtomicU64::new(0),
                queued: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                active: Mutex::new(HashMap::new()),
                next_query: AtomicU64::new(1),
                exec_us: AtomicU64::new(0),
                exec_n: AtomicU64::new(0),
                shed_wait_ms,
                breaker_threshold,
                breaker: Breaker::default(),
                shutting_down: AtomicBool::new(false),
            }),
        })
    }

    /// Open a session for `tenant`. Sessions are cheap; each carries its
    /// own conf/engine copied from the server's base driver.
    pub fn session(&self, tenant: &str) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        Session {
            server: Arc::clone(&self.inner),
            driver: self.inner.base.session(),
            tenant: tenant.to_string(),
            track: format!("session{id}"),
            id,
        }
    }

    /// Aggregate serving counters.
    pub fn stats(&self) -> ServerStats {
        let rc = self.result_cache_stats().unwrap_or_default();
        ServerStats {
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            queued: self.inner.queued.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            result_hits: rc.hits,
            result_misses: rc.misses,
            result_coalesced: rc.coalesced,
            io: self.inner.io_cache.as_ref().map(|c| c.stats()),
        }
    }

    /// The shared admission gate — exposed so operational tooling (and
    /// deterministic tests) can saturate or inspect the pool directly.
    pub fn admission(&self) -> &AdmissionGate {
        &self.inner.gate
    }

    /// True once [`HdmServer::shutdown`] has begun: new queries are
    /// rejected at the door.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop admitting, give in-flight and queued
    /// queries `drain_timeout` to finish naturally, then cancel the
    /// stragglers and expel any remaining queue waiters.
    ///
    /// Returns `true` when the gate drained fully inside the window
    /// (nothing had to be cancelled). The shared caches and the
    /// Metastore stay consistent either way: a cancelled query never
    /// publishes result-cache entries or partial warehouse output.
    pub fn shutdown(&self, drain_timeout: Duration) -> bool {
        let server = &*self.inner;
        server.shutting_down.store(true, Ordering::Relaxed);
        // Phase 1: close the gate. New execute() calls are rejected,
        // queued waiters keep draining into freed slots.
        server.gate.close();
        let drained = server.gate.await_idle(drain_timeout);
        if !drained {
            // Phase 2: the window expired. Fire every live query token
            // and reject every parked waiter, then wait briefly for the
            // cancellations to unwind (cancellation is cooperative — the
            // spine polls at stage/wave/slice boundaries, so this is
            // bounded by one poll interval, not by query runtime).
            let fired = {
                let active = server.active.lock();
                for token in active.values() {
                    token.cancel("server shutdown: drain window exceeded");
                }
                active.len()
            };
            server
                .obs
                .counter("server.shutdown.cancelled", "")
                .add(fired as u64);
            server
                .obs
                .counter("cancel.requested", "source=shutdown")
                .add(fired as u64);
            server.gate.expel_waiters();
            server
                .gate
                .await_idle(drain_timeout.max(Duration::from_secs(5)));
        }
        server.obs.counter("server.drained", "").add(1);
        drained
    }

    /// ORC data-cache counters (None when the cache is off).
    pub fn io_cache_stats(&self) -> Option<CacheStats> {
        self.inner.io_cache.as_ref().map(|c| c.stats())
    }

    /// Result-cache counters (None when the cache is off).
    pub fn result_cache_stats(&self) -> Option<ResultCacheStats> {
        self.inner.results.as_ref().map(|r| r.stats())
    }

    /// Snapshot the server's observability state — per-session tracks
    /// plus `server.*` counters and gauges, with the cache counters
    /// synced in as gauges first.
    pub fn obs_snapshot(&self) -> hdm_obs::ObsSnapshot {
        let obs = &self.inner.obs;
        if let Some(io) = self.io_cache_stats() {
            obs.gauge("server.io.cache.hit", "").set(io.hits as i64);
            obs.gauge("server.io.cache.miss", "").set(io.misses as i64);
            obs.gauge("server.io.cache.evictions", "")
                .set(io.evictions as i64);
            obs.gauge("server.io.cache.bytes", "").set(io.bytes as i64);
        }
        if let Some(rc) = self.result_cache_stats() {
            obs.gauge("server.result.cache.entries", "")
                .set(rc.entries as i64);
        }
        obs.snapshot()
    }
}

/// One tenant-scoped session over the shared executor state.
#[derive(Debug)]
pub struct Session {
    server: Arc<ServerShared>,
    driver: Driver,
    tenant: String,
    track: String,
    id: u64,
}

impl Session {
    /// This session's id (also its obs track, `session{id}`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant this session belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The session's private driver (own conf + engine over the shared
    /// filesystem/catalog).
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// Mutable session configuration (affects only this session; the
    /// result-cache key includes the conf, so tuned sessions never share
    /// entries with differently-tuned ones).
    pub fn conf_mut(&mut self) -> &mut hdm_common::conf::JobConf {
        self.driver.conf_mut()
    }

    /// Set this session's default engine.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.driver.set_engine(engine);
    }

    /// Execute a script on the session's default engine.
    ///
    /// # Errors
    /// Admission rejection (queue full), overload shed, deadline or
    /// shutdown cancellation, parse/plan/execution failures.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_on(sql, self.driver.engine())
    }

    /// Execute a script on the session's default engine under a
    /// caller-held cancel token (fire it from any thread to abandon the
    /// query cooperatively).
    ///
    /// # Errors
    /// As [`Session::execute`], plus [`HdmError::Cancelled`] once the
    /// token fires.
    pub fn execute_cancellable(&self, sql: &str, cancel: &CancelToken) -> Result<QueryResult> {
        self.execute_on_cancellable(sql, self.driver.engine(), cancel)
    }

    /// Execute a script on a specific engine, through admission control
    /// and the shared caches.
    ///
    /// # Errors
    /// Admission rejection (queue full), overload shed, deadline or
    /// shutdown cancellation, parse/plan/execution failures.
    pub fn execute_on(&self, sql: &str, engine: EngineKind) -> Result<QueryResult> {
        self.execute_on_cancellable(sql, engine, &CancelToken::default())
    }

    /// Full-control execution: explicit engine and caller-held cancel
    /// token. Every other execute path funnels here.
    ///
    /// The lifecycle is Queued → Admitted → Running → {Finished,
    /// Cancelled, Shed}: a shutdown check and the overload shed gate run
    /// before admission, the per-query deadline (if
    /// `hive.query.timeout.ms` > 0) is armed before queueing so queue
    /// wait spends the same budget as execution, and the per-engine
    /// circuit breaker may flip the query to the other engine before it
    /// runs. A result-cache hit returns before any of that; a query that
    /// waits for an identical run in flight takes no permit, but is
    /// tracked and deadline-bound from before it parks.
    ///
    /// # Errors
    /// As [`Session::execute_on`], plus [`HdmError::Cancelled`] once
    /// `cancel` (or the deadline, or server shutdown) fires.
    pub fn execute_on_cancellable(
        &self,
        sql: &str,
        engine: EngineKind,
        cancel: &CancelToken,
    ) -> Result<QueryResult> {
        let server = &*self.server;
        if server.shutting_down.load(Ordering::Relaxed) {
            return Err(HdmError::Cancelled(
                "server is shutting down; not accepting new queries".to_string(),
            ));
        }
        cancel.bail_if_cancelled()?;

        // Circuit breaker: a sick engine (consecutive non-cancelled
        // failures at threshold) degrades to the other engine rather
        // than failing the query. The differential contract makes the
        // flip invisible in the rows.
        let engine = if server.breaker.is_open(engine, server.breaker_threshold) {
            let flipped = match engine {
                EngineKind::Hadoop => EngineKind::DataMpi,
                EngineKind::DataMpi => EngineKind::Hadoop,
            };
            server
                .obs
                .counter("server.breaker.flip", &format!("from={engine:?}"))
                .add(1);
            flipped
        } else {
            engine
        };
        // Result-cache probe (DESIGN.md §30). The key needs only text,
        // engine and conf, so a hit is served before the statement is
        // parsed. On a miss the statement is parsed once: a single SELECT
        // pins its tables' versions and leads (or joins an identical run
        // in flight); anything else (DDL, DML, multi-statement scripts)
        // executes without the cache.
        let metastore = self.driver.metastore();
        let mut tables: Option<Option<Vec<String>>> = None;
        let mut tracked = None;
        let mut lease = None;
        if let Some(results) = server.results.as_ref() {
            let key = cache_key(sql, engine, self.driver.conf());
            loop {
                let probe = {
                    let _probe = server.obs.span(&self.track, "serve", "result-cache-probe");
                    results.probe(&key, metastore, || {
                        let tables = tables.get_or_insert_with(|| select_tables(sql));
                        tables.as_ref().map(|t| metastore.versions_of(t))
                    })
                };
                match probe {
                    Probe::Hit(answer) => {
                        self.count("server.result.cache.hit");
                        return Ok(answer.to_result());
                    }
                    // A waiter takes no permit and adds nothing to the
                    // shed projection, but shutdown and its deadline
                    // reach it like any running query.
                    Probe::Wait(waiter) => {
                        if tracked.is_none() {
                            tracked = Some(self.track(cancel)?);
                        }
                        let waited = {
                            let _wait = server.obs.span(&self.track, "serve", "result-cache-wait");
                            results.wait(waiter, cancel)
                        };
                        match waited {
                            Ok(Some(answer)) => {
                                self.count("server.result.cache.hit");
                                self.count("server.result.cache.coalesced");
                                return Ok(answer.to_result());
                            }
                            // The leader had nothing to share: probe again.
                            Ok(None) => {}
                            Err(e) => {
                                server.cancelled.fetch_add(1, Ordering::Relaxed);
                                self.acknowledge_cancel(cancel);
                                return Err(e);
                            }
                        }
                    }
                    Probe::Lead(l) => {
                        self.count("server.result.cache.miss");
                        lease = Some(l);
                        break;
                    }
                    Probe::Bypass => break,
                }
            }
        }

        // Overload shed: reject early when the projected queue wait for
        // this arrival exceeds the configured ceiling. A shed query
        // costs the server nothing downstream — no permit, no token, no
        // executor work.
        if server.shed_wait_ms > 0 {
            let projected =
                server.projected_wait_us(server.gate.queue_depth(), server.gate.running());
            if projected > server.shed_wait_ms * 1_000 {
                server.shed.fetch_add(1, Ordering::Relaxed);
                self.count("server.shed");
                return Err(HdmError::Overloaded(format!(
                    "projected queue wait {}ms exceeds hive.server.shed.queue.wait.ms={}",
                    projected / 1_000,
                    server.shed_wait_ms
                )));
            }
        }

        // Register the token and arm the deadline before queueing (a
        // waiter that ends up leading did so before it waited).
        let _tracked = match tracked {
            Some(t) => t,
            None => self.track(cancel)?,
        };

        let permit = {
            let _wait = server.obs.span(&self.track, "serve", "admit");
            match server.gate.admit_cancellable(&self.tenant, cancel) {
                Ok(p) => p,
                Err(e) => {
                    if e.is_cancelled() {
                        server.cancelled.fetch_add(1, Ordering::Relaxed);
                        self.acknowledge_cancel(cancel);
                    } else {
                        server.rejected.fetch_add(1, Ordering::Relaxed);
                        self.count("server.rejected");
                    }
                    return Err(e);
                }
            }
        };
        server.admitted.fetch_add(1, Ordering::Relaxed);
        self.count("server.admitted");
        if permit.waited() {
            server.queued.fetch_add(1, Ordering::Relaxed);
            self.count("server.queued");
        }
        server
            .obs
            .gauge("server.queue.depth", "")
            .record_max(permit.depth_at_arrival() as i64);

        let started = Instant::now();
        let result = {
            let _exec = server.obs.span(&self.track, "serve", "exec");
            self.driver.execute_on_cancellable(sql, engine, cancel)
        };
        drop(permit);

        match &result {
            Ok(_) => {
                server.breaker.record(engine, true);
            }
            Err(e) if e.is_cancelled() => {
                // Cancellation is neither an engine failure (no breaker
                // charge) nor a cost observation (a truncated run would
                // bias the shed projection low).
                server.cancelled.fetch_add(1, Ordering::Relaxed);
                self.acknowledge_cancel(cancel);
            }
            Err(_) => {
                let streak = server.breaker.record(engine, false);
                if server.breaker_threshold > 0 && streak == server.breaker_threshold {
                    server
                        .obs
                        .counter("server.breaker.open", &format!("engine={engine:?}"))
                        .add(1);
                }
            }
        }
        if !matches!(&result, Err(e) if e.is_cancelled()) {
            server
                .exec_us
                .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            server.exec_n.fetch_add(1, Ordering::Relaxed);
        }

        if let (Ok(result), Some(lease)) = (&result, lease) {
            lease.publish(result.rows.clone(), result.columns.clone(), metastore);
        }
        result
    }

    /// Register a live query's token (shutdown fires every registered
    /// token) and arm its `hive.query.timeout.ms` deadline: time spent
    /// waiting — for a permit or for an identical query in flight —
    /// draws down the same budget as execution does.
    fn track(&self, cancel: &CancelToken) -> Result<Tracked> {
        let active = self.server.track_query(cancel);
        let timeout_ms = self.driver.conf().query_timeout_ms()?;
        let deadline = (timeout_ms > 0).then(|| {
            DeadlineMonitor::arm(Duration::from_millis(timeout_ms), cancel, &self.server.obs)
        });
        Ok(Tracked {
            _deadline: deadline,
            _active: active,
        })
    }

    /// Bump a per-tenant `server.*` counter.
    fn count(&self, name: &str) {
        self.server
            .obs
            .counter(name, &format!("tenant={}", self.tenant))
            .add(1);
    }

    /// Record that a fired token has been observed by the serving layer:
    /// bumps `cancel.acknowledged` and, when the token's fire time is
    /// known, feeds request→acknowledge latency into `cancel.latency.ms`.
    fn acknowledge_cancel(&self, cancel: &CancelToken) {
        let server = &*self.server;
        self.count("cancel.acknowledged");
        if let Some(ms) = cancel.fired_elapsed_ms() {
            server
                .obs
                .timer("cancel.latency.ms", "", hdm_obs::TIMER_US_BUCKET)
                .observe(ms);
        }
    }
}

/// The referenced table names iff `sql` is a single SELECT statement
/// (the cacheable shape). `None` for DDL/DML, scripts, or unparsable
/// input — those always execute.
fn select_tables(sql: &str) -> Option<Vec<String>> {
    let stmts = parse_script(sql).ok()?;
    match stmts.as_slice() {
        [Statement::Select(stmt)] => {
            let mut tables = vec![stmt.from.base.name.clone()];
            for join in &stmt.from.joins {
                tables.push(join.table.name.clone());
            }
            tables.sort();
            tables.dedup();
            Some(tables)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_tables_extracts_base_and_joins() {
        let t = select_tables("SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON a.k = c.k").unwrap();
        assert_eq!(t, vec!["a".to_string(), "b".to_string(), "c".to_string()]);
        assert!(select_tables("CREATE TABLE t (k BIGINT)").is_none());
        assert!(select_tables("SELECT 1 FROM t; SELECT 2 FROM t").is_none());
        assert!(select_tables("not sql").is_none());
    }

    /// A hit is looked up before the statement is parsed; statements
    /// that turn out not to be cacheable count no miss.
    #[test]
    fn uncacheable_statements_count_no_miss_and_whitespace_still_hits() {
        let driver = Driver::in_memory();
        driver.execute("CREATE TABLE t (k BIGINT)").unwrap();
        let server = HdmServer::over(driver).unwrap();
        let session = server.session("t");
        let misses = |server: &HdmServer| {
            let rc = server.result_cache_stats().unwrap();
            let obs: u64 = server
                .obs_snapshot()
                .counters
                .iter()
                .filter(|(n, _, _)| n == "server.result.cache.miss")
                .map(|(_, _, v)| *v)
                .sum();
            (server.stats().result_misses, rc.misses, obs)
        };
        for sql in [
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (1)",
            "SELECT k FROM t; SELECT k FROM t",
            "SELECT k FROM t; SELECT k FROM t",
        ] {
            session.execute(sql).unwrap();
        }
        assert_eq!(misses(&server), (0, 0, 0));
        assert_eq!(server.stats().result_hits, 0);

        let cold = session.execute("SELECT k FROM t ORDER BY k").unwrap();
        let warm = session
            .execute("  SELECT k\n\tFROM t   ORDER BY k ")
            .unwrap();
        assert_eq!(warm.to_lines(), cold.to_lines());
        assert_eq!(misses(&server), (1, 1, 1));
        assert_eq!(server.stats().result_hits, 1);
    }
}
