//! The query result cache, keyed on normalized query text and the data
//! versions of every table the query reads, with single-flight
//! execution of identical queries (DESIGN.md §30).
//!
//! Hive's result cache (`hive.query.results.cache.enabled`) answers a
//! repeated query from a previous run's output, as long as none of the
//! inputs changed. Here an entry records the `(table, version)` snapshot
//! taken **before** the producing execution started; a probe re-checks
//! every pinned version against the live metastore, so any reload —
//! `INSERT`, `INSERT OVERWRITE`, `DROP`/recreate, bulk load — that
//! bumped a version lazily invalidates every dependent entry. Publishing
//! re-validates the snapshot too, so a query that raced a concurrent
//! write never publishes stale rows.
//!
//! Hive also lets a query wait for an identical query that is still
//! running (`hive.query.results.cache.wait.for.pending.results`). Here
//! [`ResultCache::probe`] makes that decision: a fresh entry is a *hit*;
//! an execution of the same key in flight, pinned to the versions the
//! caller sees now, is a *wait*; otherwise the caller *leads* — it
//! registers as the key's execution and runs it. The leader's [`Lease`]
//! hands its rows to the cache and to every waiter as one shared
//! [`Answer`], or, on any other exit, wakes the waiters empty-handed so
//! that one of them leads.

use hdm_common::conf::{JobConf, KEY_QUERY_TIMEOUT_MS};
use hdm_common::error::Result;
use hdm_common::row::Row;
use hdm_common::CancelToken;
use hdm_core::catalog::Metastore;
use hdm_core::{EngineKind, QueryResult};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

/// Collapse whitespace runs so formatting differences (newlines,
/// indentation) share a cache entry. Case is preserved: lowering it
/// would merge `'a'` and `'A'` string literals into one key.
pub fn normalize_sql(sql: &str) -> String {
    sql.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The full cache key: normalized text, engine, and every conf entry
/// (any knob may change results — engine tuning, pushdown, limits)
/// except the per-query deadline, which decides whether a query
/// answers, never which rows: sessions with different deadlines share
/// entries and runs in flight.
pub fn cache_key(sql: &str, engine: EngineKind, conf: &JobConf) -> String {
    let mut key = String::with_capacity(sql.len() + 64);
    key.push_str(engine.name());
    key.push('\n');
    for (k, v) in conf.iter().filter(|(k, _)| *k != KEY_QUERY_TIMEOUT_MS) {
        key.push_str(k);
        key.push('=');
        key.push_str(v);
        key.push('\x1f');
    }
    key.push('\n');
    key.push_str(&normalize_sql(sql));
    key
}

/// `(table, version)` pairs pinned before an execution started.
type Versions = Vec<(String, u64)>;

fn current(versions: &[(String, u64)], metastore: &Metastore) -> bool {
    versions
        .iter()
        .all(|(table, v)| metastore.version(table) == *v)
}

/// One query answer, shared by the cache entry and by every waiter of
/// the execution that produced it.
#[derive(Debug)]
pub struct Answer {
    /// Result rows.
    pub rows: Vec<Row>,
    /// Output column names.
    pub columns: Vec<String>,
}

impl Answer {
    /// A deep copy as a stage-less [`QueryResult`].
    pub fn to_result(&self) -> QueryResult {
        QueryResult {
            rows: self.rows.clone(),
            columns: self.columns.clone(),
            stages: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct ResultEntry {
    answer: Arc<Answer>,
    /// `(table, version)` pinned before the producing run executed.
    versions: Versions,
    tick: u64,
}

/// Where an in-flight execution stands.
#[derive(Debug)]
enum Outcome {
    Running,
    Published(Arc<Answer>),
    /// Failed, cancelled, panicked or raced a write: nothing to share.
    Abandoned,
}

/// One execution of a key in flight.
#[derive(Debug)]
struct Flight {
    versions: Versions,
    outcome: Mutex<Outcome>,
    settled: Condvar,
}

impl Flight {
    fn settle(&self, outcome: Outcome) {
        *self.outcome.lock() = outcome;
        self.settled.notify_all();
    }
}

#[derive(Debug, Default)]
struct ResultInner {
    map: HashMap<String, ResultEntry>,
    lru: BTreeMap<u64, String>,
    /// At most one execution per key; a leader with newer versions
    /// replaces an older one's record.
    inflight: HashMap<String, Arc<Flight>>,
    tick: u64,
}

impl ResultInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn remove_key(&mut self, key: &str) {
        if let Some(entry) = self.map.remove(key) {
            self.lru.remove(&entry.tick);
        }
    }

    /// Drop `key`'s in-flight record if it is still `flight`'s: a record
    /// replaced by a newer leader belongs to that leader.
    fn retire(&mut self, key: &str, flight: &Arc<Flight>) {
        if self
            .inflight
            .get(key)
            .is_some_and(|f| Arc::ptr_eq(f, flight))
        {
            self.inflight.remove(key);
        }
    }
}

/// Point-in-time counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Queries answered without executing: from an entry, or from an
    /// identical execution in flight.
    pub hits: u64,
    /// Cacheable queries that had to execute.
    pub misses: u64,
    /// The hits that waited for an execution in flight.
    pub coalesced: u64,
    /// Entries dropped because a pinned table version moved on.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Callers parked on an execution in flight right now.
    pub waiting: u64,
}

/// What [`ResultCache::probe`] decided.
#[derive(Debug)]
pub enum Probe<'a> {
    /// A fresh entry.
    Hit(Arc<Answer>),
    /// An execution of this key is in flight over the versions the
    /// caller sees now: park on it with [`ResultCache::wait`].
    Wait(Waiter),
    /// The caller is the key's execution: run it, then
    /// [`Lease::publish`] the rows (or drop the lease).
    Lead(Lease<'a>),
    /// The statement is not cacheable: execute it without the cache.
    Bypass,
}

/// A parked caller's handle on an execution in flight.
#[derive(Debug)]
pub struct Waiter {
    flight: Arc<Flight>,
}

/// The leader's registration for one key. Dropping it without
/// publishing — on an error, a cancel or an unwinding panic — wakes
/// every waiter with nothing, so they probe again.
#[derive(Debug)]
pub struct Lease<'a> {
    cache: &'a ResultCache,
    key: String,
    flight: Arc<Flight>,
    published: bool,
}

impl Lease<'_> {
    /// Share an answer produced against the pinned versions. If any
    /// table moved on while the query executed, the rows may already be
    /// stale: nothing is stored and the waiters run the query
    /// themselves. Otherwise the cache entry and the waiters get the
    /// same [`Answer`] in one step.
    pub fn publish(mut self, rows: Vec<Row>, columns: Vec<String>, metastore: &Metastore) {
        if !current(&self.flight.versions, metastore) {
            return;
        }
        let answer = Arc::new(Answer { rows, columns });
        let mut inner = self.cache.inner.lock();
        inner.retire(&self.key, &self.flight);
        self.cache.store(
            &mut inner,
            &self.key,
            self.flight.versions.clone(),
            Arc::clone(&answer),
        );
        self.flight.settle(Outcome::Published(answer));
        self.published = true;
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        self.cache.inner.lock().retire(&self.key, &self.flight);
        self.flight.settle(Outcome::Abandoned);
    }
}

/// Block on `flight` until it settles or `cancel` fires; no polling —
/// the token's waker notifies the same condvar the leader does.
fn park(flight: &Arc<Flight>, cancel: &CancelToken) -> Result<Option<Arc<Answer>>> {
    let _wake = {
        let flight = Arc::clone(flight);
        cancel.on_cancel(move || {
            // Taking the lock orders the notify after the waiter's token
            // check, so the wake-up cannot be lost.
            let _outcome = flight.outcome.lock();
            flight.settled.notify_all();
        })
    };
    let mut outcome = flight.outcome.lock();
    loop {
        match &*outcome {
            Outcome::Published(answer) => return Ok(Some(Arc::clone(answer))),
            Outcome::Abandoned => return Ok(None),
            Outcome::Running if cancel.is_cancelled() => return Err(cancel.as_error()),
            Outcome::Running => {
                // hdm-allow(blocking-under-lock): condvar wait — the guard is released while parked; the leader's settle and the token's waker both notify under it
                outcome = match flight.settled.wait(outcome) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        }
    }
}

/// LRU result cache bounded by entry count
/// (`hive.server.result.cache.entries`).
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    inner: Mutex<ResultInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    invalidations: AtomicU64,
    waiting: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `cap` entries.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            cap,
            inner: Mutex::new(ResultInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            waiting: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ResultCacheStats {
        let entries = self.inner.lock().map.len() as u64;
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries,
            waiting: self.waiting.load(Ordering::Relaxed),
        }
    }

    /// Decide how the caller answers `key`. `pin` is called, outside
    /// the cache lock, only when neither an entry nor a waitable
    /// execution exists: it returns the `(table, version)` snapshot the
    /// caller would execute against, or `None` when the statement is not
    /// cacheable. A key is built from text, engine and conf alone, so a
    /// hit never needs `pin`.
    pub fn probe(
        &self,
        key: &str,
        metastore: &Metastore,
        pin: impl FnOnce() -> Option<Versions>,
    ) -> Probe<'_> {
        if self.cap == 0 {
            return Probe::Bypass;
        }
        {
            let mut inner = self.inner.lock();
            if let Some(answer) = self.fresh_entry(&mut inner, key, metastore) {
                return Probe::Hit(answer);
            }
            if let Some(flight) = inner.inflight.get(key) {
                if current(&flight.versions, metastore) {
                    return Probe::Wait(Waiter {
                        flight: Arc::clone(flight),
                    });
                }
            }
        }
        let Some(versions) = pin() else {
            return Probe::Bypass;
        };
        let mut inner = self.inner.lock();
        // Another caller may have published or led while this one pinned.
        if let Some(answer) = self.fresh_entry(&mut inner, key, metastore) {
            return Probe::Hit(answer);
        }
        if let Some(flight) = inner.inflight.get(key) {
            if flight.versions == versions {
                return Probe::Wait(Waiter {
                    flight: Arc::clone(flight),
                });
            }
        }
        let flight = Arc::new(Flight {
            versions,
            outcome: Mutex::new(Outcome::Running),
            settled: Condvar::new(),
        });
        inner.inflight.insert(key.to_string(), Arc::clone(&flight));
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Probe::Lead(Lease {
            cache: self,
            key: key.to_string(),
            flight,
            published: false,
        })
    }

    /// Park until the awaited execution settles or `cancel` fires.
    /// `Ok(Some)` is the leader's answer (counted as a coalesced hit);
    /// `Ok(None)` means the leader had nothing to share and the caller
    /// should probe again. The leader's error or cancellation is never
    /// the waiter's.
    ///
    /// # Errors
    /// [`hdm_common::error::HdmError::Cancelled`] once `cancel` fires
    /// while the execution is still running.
    pub fn wait(&self, waiter: Waiter, cancel: &CancelToken) -> Result<Option<Arc<Answer>>> {
        self.waiting.fetch_add(1, Ordering::Relaxed);
        let settled = park(&waiter.flight, cancel);
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        let answer = settled?;
        if answer.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        Ok(answer)
    }

    /// `key`'s entry if every pinned version still matches the live
    /// metastore (counted as a hit); a version mismatch drops the entry
    /// (lazy invalidation).
    fn fresh_entry(
        &self,
        inner: &mut ResultInner,
        key: &str,
        metastore: &Metastore,
    ) -> Option<Arc<Answer>> {
        let entry = inner.map.get(key)?;
        if !current(&entry.versions, metastore) {
            inner.remove_key(key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let answer = Arc::clone(&entry.answer);
        let tick = inner.next_tick();
        if let Some(entry) = inner.map.get_mut(key) {
            let prev = std::mem::replace(&mut entry.tick, tick);
            inner.lru.remove(&prev);
            inner.lru.insert(tick, key.to_string());
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(answer)
    }

    /// Store an entry, evicting least-recently-used ones beyond `cap`.
    fn store(&self, inner: &mut ResultInner, key: &str, versions: Versions, answer: Arc<Answer>) {
        inner.remove_key(key);
        let tick = inner.next_tick();
        inner.map.insert(
            key.to_string(),
            ResultEntry {
                answer,
                versions,
                tick,
            },
        );
        inner.lru.insert(tick, key.to_string());
        while inner.map.len() > self.cap {
            let victim = match inner.lru.iter().next() {
                Some((_, k)) => k.clone(),
                None => break,
            };
            inner.remove_key(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::value::DataType;
    use hdm_storage::FormatKind;

    fn ms_with(tables: &[&str]) -> Metastore {
        let ms = Metastore::new();
        for t in tables {
            ms.create_table(
                t,
                vec![("c".into(), DataType::Long)],
                FormatKind::Text,
                false,
            )
            .unwrap();
        }
        ms
    }

    fn row(n: i64) -> Row {
        Row::from(vec![hdm_common::value::Value::Long(n)])
    }

    fn pin<'a>(ms: &'a Metastore, table: &'a str) -> impl FnOnce() -> Option<Versions> + 'a {
        move || Some(ms.versions_of(&[table.to_string()]))
    }

    /// Run `key` to completion as its leader, publishing `n`.
    fn fill(cache: &ResultCache, ms: &Metastore, key: &str, n: i64) {
        match cache.probe(key, ms, pin(ms, "t")) {
            Probe::Lead(lease) => lease.publish(vec![row(n)], vec!["c".into()], ms),
            other => panic!("expected to lead {key}: {other:?}"),
        }
    }

    fn hit(cache: &ResultCache, ms: &Metastore, key: &str) -> Option<Vec<Row>> {
        match cache.probe(key, ms, || None) {
            Probe::Hit(answer) => Some(answer.rows.clone()),
            _ => None,
        }
    }

    #[test]
    fn hit_roundtrip_and_version_invalidation() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(8);
        fill(&cache, &ms, "k1", 1);
        assert_eq!(hit(&cache, &ms, "k1"), Some(vec![row(1)]));
        // A reload bumps the version: the entry lazily invalidates.
        ms.bump_version("t");
        assert!(hit(&cache, &ms, "k1").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.entries), (1, 1, 1, 0));
    }

    #[test]
    fn insert_is_skipped_when_a_table_moved_during_execution() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(8);
        let Probe::Lead(lease) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("empty cache must lead");
        };
        ms.bump_version("t"); // concurrent write lands mid-query
        lease.publish(vec![row(1)], vec!["c".into()], &ms);
        assert!(hit(&cache, &ms, "k").is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_evicts_oldest_beyond_cap() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(2);
        fill(&cache, &ms, "a", 1);
        fill(&cache, &ms, "b", 2);
        // Touch "a" so "b" is the LRU victim.
        assert!(hit(&cache, &ms, "a").is_some());
        fill(&cache, &ms, "c", 3);
        assert!(hit(&cache, &ms, "a").is_some());
        assert!(hit(&cache, &ms, "b").is_none());
        assert!(hit(&cache, &ms, "c").is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn uncacheable_statements_bypass_without_a_miss() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(8);
        assert!(matches!(cache.probe("k", &ms, || None), Probe::Bypass));
        let off = ResultCache::new(0);
        assert!(matches!(off.probe("k", &ms, pin(&ms, "t")), Probe::Bypass));
        assert_eq!(cache.stats().misses + off.stats().misses, 0);
    }

    #[test]
    fn waiter_gets_the_leaders_answer() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(8);
        let Probe::Lead(lease) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("first caller leads");
        };
        // The second caller never pins: the record's versions decide.
        let Probe::Wait(waiter) = cache.probe("k", &ms, || panic!("a waiter does not pin")) else {
            panic!("second caller waits");
        };
        lease.publish(vec![row(7)], vec!["c".into()], &ms);
        let got = cache.wait(waiter, &CancelToken::new()).unwrap().unwrap();
        assert_eq!(got.rows, vec![row(7)]);
        let Probe::Hit(entry) = cache.probe("k", &ms, || None) else {
            panic!("published entry hits");
        };
        assert!(Arc::ptr_eq(&got, &entry), "one shared answer");
        let s = cache.stats();
        assert_eq!((s.hits, s.coalesced, s.misses), (2, 1, 1));
    }

    #[test]
    fn dropped_lease_wakes_waiters_empty_handed() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(8);
        let Probe::Lead(lease) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("first caller leads");
        };
        let Probe::Wait(waiter) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("second caller waits");
        };
        let parked = std::thread::scope(|s| {
            let parked = s.spawn(|| cache.wait(waiter, &CancelToken::new()));
            drop(lease);
            parked.join().unwrap()
        });
        assert!(parked.unwrap().is_none());
        // The record is gone, so the next caller leads.
        assert!(matches!(
            cache.probe("k", &ms, pin(&ms, "t")),
            Probe::Lead(_)
        ));
    }

    #[test]
    fn newer_versions_lead_and_keep_their_record() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(8);
        let Probe::Lead(old) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("first caller leads");
        };
        ms.bump_version("t");
        let Probe::Lead(new) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("a caller after a write must not wait on older versions");
        };
        // The old leader finishing (stale: publishes nothing) must not
        // remove the new leader's record.
        old.publish(vec![row(1)], vec!["c".into()], &ms);
        assert!(matches!(
            cache.probe("k", &ms, pin(&ms, "t")),
            Probe::Wait(_)
        ));
        new.publish(vec![row(2)], vec!["c".into()], &ms);
        assert_eq!(hit(&cache, &ms, "k"), Some(vec![row(2)]));
    }

    #[test]
    fn cancel_wakes_a_parked_waiter() {
        let ms = ms_with(&["t"]);
        let cache = ResultCache::new(8);
        let Probe::Lead(_lease) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("first caller leads");
        };
        let Probe::Wait(waiter) = cache.probe("k", &ms, pin(&ms, "t")) else {
            panic!("second caller waits");
        };
        let token = CancelToken::new();
        let err = std::thread::scope(|s| {
            let parked = s.spawn(|| cache.wait(waiter, &token));
            token.cancel("caller gave up");
            parked.join().unwrap()
        })
        .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(cache.stats().coalesced, 0);
    }

    #[test]
    fn key_separates_sql_engine_and_conf() {
        let conf = JobConf::new();
        let base = cache_key("SELECT  1", EngineKind::DataMpi, &conf);
        assert_eq!(base, cache_key("SELECT 1", EngineKind::DataMpi, &conf));
        assert_ne!(base, cache_key("SELECT 1", EngineKind::Hadoop, &conf));
        assert_ne!(base, cache_key("select 1", EngineKind::DataMpi, &conf));
        let tuned = JobConf::new().with(hdm_common::conf::KEY_COMBINER, false);
        assert_ne!(base, cache_key("SELECT 1", EngineKind::DataMpi, &tuned));
        let deadline = JobConf::new().with(KEY_QUERY_TIMEOUT_MS, 40);
        assert_eq!(base, cache_key("SELECT 1", EngineKind::DataMpi, &deadline));
    }
}
