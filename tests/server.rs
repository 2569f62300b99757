//! Multi-tenant serving harness (`hdm-server`).
//!
//! The serving contract: rows served through an [`HdmServer`] session —
//! cached or not, queued or not, faults on or off — match a solo
//! single-session run of the same statement with the same conf and
//! engine. Fault-free paths must be *byte-identical* (the byte-stability
//! guarantee of the underlying engines); chaos runs are compared with
//! the same float-canonicalized normalization the fault-recovery suite
//! uses, because retried attempts may re-sum partitions in a different
//! order.

use hdm_common::conf as keys;
use hdm_core::Driver;
use hdm_server::HdmServer;
use hdm_storage::{FormatKind, OrcDataCache};
use hdm_workloads::tpch;
use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn fresh_tpch_driver(format: FormatKind) -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
    d
}

fn lines(d: &Driver, n: usize) -> Vec<String> {
    d.execute(tpch::queries::query(n))
        .unwrap_or_else(|e| panic!("solo Q{n} failed: {e}"))
        .to_lines()
}

/// Sorted-line comparison with float canonicalization — only for chaos
/// arms, where retries may legitimately differ in last-ulp float cells.
fn normalize(mut lines: Vec<String>) -> Vec<String> {
    for line in &mut lines {
        let fields: Vec<String> = line
            .split('\t')
            .map(|f| match f.contains('.').then(|| f.parse::<f64>()) {
                Some(Ok(v)) => format!("{v:.5e}"),
                _ => f.to_string(),
            })
            .collect();
        *line = fields.join("\t");
    }
    lines.sort();
    lines
}

/// Satellite 1 regression: two sessions running Q1 and Q6 concurrently
/// return rows byte-identical to a solo single-session run.
#[test]
fn concurrent_sessions_match_solo_byte_identical() {
    let solo = fresh_tpch_driver(FormatKind::Text);
    let expect_q1 = lines(&solo, 1);
    let expect_q6 = lines(&solo, 6);

    let server = HdmServer::over(fresh_tpch_driver(FormatKind::Text)).expect("server");
    let mut handles = Vec::new();
    for (tenant, n, expect) in [
        ("alpha", 1usize, expect_q1.clone()),
        ("beta", 6usize, expect_q6.clone()),
    ] {
        let session = server.session(tenant);
        handles.push(std::thread::spawn(move || {
            for _ in 0..3 {
                let got = session
                    .execute(tpch::queries::query(n))
                    .unwrap_or_else(|e| panic!("Q{n} via {tenant}: {e}"))
                    .to_lines();
                assert_eq!(got, expect, "Q{n} through hdm-server diverged from solo");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // 2 sessions x 3 runs: every query either executed or hit the cache.
    let s = server.stats();
    assert_eq!(s.admitted + s.result_hits, 6);
    assert!(
        s.result_hits >= 4,
        "repeats should hit the result cache: {s:?}"
    );
}

/// A result-cache hit is byte-identical to the cold run and counted.
#[test]
fn result_cache_hit_is_byte_identical() {
    let server = HdmServer::over(fresh_tpch_driver(FormatKind::Text)).expect("server");
    let session = server.session("t");
    let cold = session.execute(tpch::queries::query(6)).unwrap();
    let warm = session.execute(tpch::queries::query(6)).unwrap();
    assert_eq!(warm.to_lines(), cold.to_lines());
    assert_eq!(warm.columns, cold.columns);
    // Whitespace-normalized text shares the entry; case differences don't.
    let reformatted = format!("  {}  ", tpch::queries::query(6).replace('\n', "\n\t"));
    let spaced = session.execute(&reformatted).unwrap();
    assert_eq!(spaced.to_lines(), cold.to_lines());
    let s = server.stats();
    assert_eq!((s.result_hits, s.result_misses), (2, 1));
}

/// The value of counter `name{labels}` in a session's last obs snapshot.
fn counter(d: &Driver, name: &str, labels: &str) -> Option<u64> {
    let snap = d.last_obs_snapshot().expect("an obs-on query ran");
    (snap.counters.iter())
        .find(|(n, l, _)| n == name && l == labels)
        .map(|(_, _, v)| *v)
}

/// Each query reads through its own DFS view. A session with fault
/// tolerance on, whose seed makes a `lineitem` part file flaky, runs Q6
/// beside a session with fault tolerance off, again and again: the clean
/// session never sees an injected read error, and each session's
/// `dfs.read.bytes` and `ft.*` counters count its own reads only.
#[test]
fn concurrent_sessions_keep_their_own_fault_plan_and_dfs_counters() {
    let mut driver = fresh_tpch_driver(FormatKind::Text);
    // No cache may serve a read: a hit bypasses injection and accounting.
    driver.conf_mut().set(keys::KEY_SERVER_IO_CACHE_MB, 0);
    driver
        .conf_mut()
        .set(keys::KEY_SERVER_RESULT_CACHE_ENTRIES, 0);
    driver.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    let parts = driver.metastore().storage.parts(driver.dfs(), "lineitem");
    let flaky = |seed: u64| {
        let plan = hdm_faults::FaultPlan::with_seed(seed);
        parts.iter().any(|p| plan.storage_error(p).is_some())
    };
    let seed = (1..10_000u64)
        .find(|&s| flaky(s))
        .expect("no seed makes a lineitem part file flaky");
    let server = HdmServer::over(driver).expect("server");
    let q6 = tpch::queries::query(6);
    let clean = server.session("clean");
    let solo = clean.execute(q6).expect("solo Q6");
    let solo_bytes = counter(clean.driver(), "dfs.read.bytes", "").expect("dfs.read.bytes");
    assert!(solo_bytes > 0);
    let mut faulted = server.session("faulted");
    let c = faulted.conf_mut();
    c.set(keys::KEY_FT_ENABLED, true);
    c.set(keys::KEY_FT_SEED, seed);
    c.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
    c.set(keys::KEY_FT_RECV_TIMEOUT_MS, 400);
    let faulted = faulted;
    for round in 0..8 {
        let go = std::sync::Barrier::new(2);
        let faulted_run = std::thread::scope(|s| {
            let other = s.spawn(|| {
                go.wait();
                faulted.execute(q6)
            });
            go.wait();
            let got = clean
                .execute(q6)
                .unwrap_or_else(|e| panic!("round {round}: the clean session failed: {e}"));
            assert_eq!(got.to_lines(), solo.to_lines(), "round {round}");
            other.join().expect("faulted session panicked")
        });
        let got = faulted_run.unwrap_or_else(|e| panic!("round {round}: faulted Q6: {e}"));
        assert_eq!(normalize(got.to_lines()), normalize(solo.to_lines()));
        let clean_snap = clean.driver().last_obs_snapshot().expect("clean snapshot");
        assert!(
            !clean_snap
                .counters
                .iter()
                .any(|(n, _, _)| n.starts_with("ft.")),
            "round {round}: fault counters in the clean session's obs"
        );
        assert_eq!(
            counter(clean.driver(), "dfs.read.bytes", ""),
            Some(solo_bytes),
            "round {round}: the clean session counted bytes it did not read"
        );
        let storage = counter(faulted.driver(), "ft.injected", "site=storage-read");
        assert!(
            storage.is_some_and(|n| n >= 1),
            "round {round}: the faulted session's own flaky read was not injected"
        );
        let read = counter(faulted.driver(), "dfs.read.bytes", "").unwrap_or(0);
        assert!(
            read >= solo_bytes,
            "round {round}: the faulted session read {read} B, under the {solo_bytes} B of its splits"
        );
    }
}

/// A reload bumps the table version and invalidates dependent entries;
/// entries over other tables survive.
#[test]
fn reload_invalidates_dependent_entries_only() {
    let driver = Driver::in_memory();
    driver
        .execute(
            "CREATE TABLE a (k BIGINT); CREATE TABLE b (k BIGINT); \
             INSERT INTO a VALUES (1), (2); INSERT INTO b VALUES (10)",
        )
        .unwrap();
    let server = HdmServer::over(driver).expect("server");
    let session = server.session("t");
    let qa = "SELECT k FROM a ORDER BY k";
    let qb = "SELECT k FROM b ORDER BY k";
    assert_eq!(session.execute(qa).unwrap().to_lines(), vec!["1", "2"]);
    assert_eq!(session.execute(qb).unwrap().to_lines(), vec!["10"]);

    // Reload `a`: its cached answer must not survive.
    session.execute("INSERT INTO a VALUES (3)").unwrap();
    assert_eq!(
        session.execute(qa).unwrap().to_lines(),
        vec!["1", "2", "3"],
        "stale cached rows served after a reload"
    );
    // `b` was untouched: its entry still serves.
    let hits_before = server.stats().result_hits;
    assert_eq!(session.execute(qb).unwrap().to_lines(), vec!["10"]);
    let s = server.stats();
    assert_eq!(s.result_hits, hits_before + 1);
    let rc = server.result_cache_stats().expect("result cache on");
    assert!(rc.invalidations >= 1, "reload must invalidate: {rc:?}");
}

/// Two sessions appending to one table at once never pick the same part
/// file: every insert lands, and every row is there afterwards.
#[test]
fn concurrent_inserts_into_one_table_all_land() {
    const PER_SESSION: i64 = 200;
    let driver = Driver::in_memory();
    driver.execute("CREATE TABLE log (k BIGINT)").unwrap();
    let server = HdmServer::over(driver).expect("server");
    let go = Arc::new(std::sync::Barrier::new(2));
    let writers: Vec<_> = (0..2i64)
        .map(|w| {
            let session = server.session(&format!("w{w}"));
            let go = Arc::clone(&go);
            std::thread::spawn(move || {
                go.wait();
                (0..PER_SESSION)
                    .filter_map(|i| {
                        let k = w * PER_SESSION + i;
                        session
                            .execute(&format!("INSERT INTO log VALUES ({k})"))
                            .err()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for writer in writers {
        let failures = writer.join().unwrap();
        assert!(failures.is_empty(), "inserts failed: {failures:?}");
    }
    let rows = server
        .session("reader")
        .execute("SELECT k FROM log ORDER BY k")
        .unwrap()
        .to_lines();
    let expect: Vec<String> = (0..2 * PER_SESSION).map(|k| k.to_string()).collect();
    assert_eq!(rows, expect);
}

/// ORC scans under a cache far smaller than the dataset keep evicting
/// and stay byte-identical to the uncached solo run.
#[test]
fn orc_eviction_under_tiny_cache_is_correct() {
    let solo = fresh_tpch_driver(FormatKind::Orc);
    let expect_q1 = lines(&solo, 1);
    let expect_q6 = lines(&solo, 6);

    let mut driver = fresh_tpch_driver(FormatKind::Orc);
    // Pin a deliberately tiny byte budget (the conf knob's floor is
    // 1 MB, which can hold this whole scale factor) and disable the
    // result cache so every run re-scans through the data cache.
    driver.conf_mut().set(keys::KEY_SERVER_IO_CACHE_MB, 0);
    driver
        .conf_mut()
        .set(keys::KEY_SERVER_RESULT_CACHE_ENTRIES, 0);
    let root = driver.metastore().storage.root.clone();
    let cache = Arc::new(OrcDataCache::new(16 * 1024, &format!("{root}/")));
    driver
        .dfs()
        .attach_read_cache(Some(cache.clone() as Arc<dyn hdm_dfs::RangeCache>));
    let server = HdmServer::over(driver).expect("server");
    let session = server.session("t");
    for _ in 0..2 {
        assert_eq!(
            session.execute(tpch::queries::query(1)).unwrap().to_lines(),
            expect_q1
        );
        assert_eq!(
            session.execute(tpch::queries::query(6)).unwrap().to_lines(),
            expect_q6
        );
    }
    let s = cache.stats();
    assert!(s.evictions > 0, "16 KiB budget must evict: {s:?}");
    assert!(s.bytes <= 16 * 1024, "budget overrun: {s:?}");
}

/// The `hive.server.io.cache.mb` knob end-to-end: a warm repeat of an
/// ORC scan serves row-group bytes from the shared cache.
#[test]
fn io_cache_knob_serves_warm_scans() {
    let mut driver = fresh_tpch_driver(FormatKind::Orc);
    driver.conf_mut().set(keys::KEY_SERVER_IO_CACHE_MB, 8);
    driver
        .conf_mut()
        .set(keys::KEY_SERVER_RESULT_CACHE_ENTRIES, 0);
    let server = HdmServer::over(driver).expect("server");
    let session = server.session("t");
    let cold = session.execute(tpch::queries::query(6)).unwrap().to_lines();
    let warm = session.execute(tpch::queries::query(6)).unwrap().to_lines();
    assert_eq!(warm, cold);
    let io = server.io_cache_stats().expect("io cache on");
    assert!(io.hits > 0, "warm scan must hit the data cache: {io:?}");
    assert_eq!(server.stats().result_hits, 0, "result cache was off");
}

/// Bounded admission under a storm: every query either runs (and is
/// byte-identical), hits the cache, or is rejected with the admission
/// error — and the counters account for all of them.
#[test]
fn admission_storm_accounts_for_every_query() {
    let mut driver = fresh_tpch_driver(FormatKind::Text);
    driver.conf_mut().set(keys::KEY_SERVER_POOL_SIZE, 1);
    driver.conf_mut().set(keys::KEY_SERVER_QUEUE_MAX, 2);
    let expect = {
        let solo = fresh_tpch_driver(FormatKind::Text);
        lines(&solo, 6)
    };
    let server = HdmServer::over(driver).expect("server");
    let mut handles = Vec::new();
    for i in 0..8 {
        let session = server.session(&format!("t{}", i % 4));
        let expect = expect.clone();
        handles.push(std::thread::spawn(move || {
            match session.execute(tpch::queries::query(6)) {
                Ok(r) => assert_eq!(r.to_lines(), expect),
                Err(e) => assert!(
                    e.to_string().contains("admission rejected"),
                    "unexpected failure: {e}"
                ),
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = server.stats();
    assert_eq!(s.admitted + s.rejected + s.result_hits, 8, "{s:?}");
}

/// Out-of-range `hive.server.*` knobs fail server construction.
#[test]
fn server_rejects_out_of_range_knobs() {
    let mut driver = Driver::in_memory();
    driver.conf_mut().set(keys::KEY_SERVER_POOL_SIZE, 0);
    let err = HdmServer::over(driver).unwrap_err();
    assert!(
        err.to_string().contains(keys::KEY_SERVER_POOL_SIZE),
        "{err}"
    );
}

/// Poll `cond` until it holds: the coalescing tests synchronise on
/// server counters, never on sleeps alone.
fn until(what: &str, cond: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn waiting(server: &HdmServer) -> u64 {
    server
        .result_cache_stats()
        .expect("result cache on")
        .waiting
}

/// A server whose one-slot pool a test can hold with a raw permit, so a
/// leader stays queued (its versions pinned) while others arrive.
fn one_slot_server(mut driver: Driver) -> HdmServer {
    driver.conf_mut().set(keys::KEY_SERVER_POOL_SIZE, 1);
    HdmServer::over(driver).expect("server")
}

fn spawn_query(
    server: &HdmServer,
    tenant: &str,
    timeout_ms: u64,
    sql: &str,
) -> std::thread::JoinHandle<hdm_common::error::Result<hdm_core::QueryResult>> {
    let mut session = server.session(tenant);
    session
        .conf_mut()
        .set(keys::KEY_QUERY_TIMEOUT_MS, timeout_ms);
    let sql = sql.to_string();
    std::thread::spawn(move || session.execute(&sql))
}

fn small_table_driver() -> Driver {
    let driver = Driver::in_memory();
    driver
        .execute("CREATE TABLE a (k BIGINT); INSERT INTO a VALUES (1), (2)")
        .unwrap();
    driver
}

const SMALL_QUERY: &str = "SELECT k FROM a ORDER BY k";

/// A query that misses while an identical one is in flight waits
/// for that run's rows: one admission, one coalesced hit, and the
/// waiter's result has no stages of its own.
#[test]
fn identical_query_in_flight_is_coalesced() {
    let expect = lines(&fresh_tpch_driver(FormatKind::Text), 6);
    let server = one_slot_server(fresh_tpch_driver(FormatKind::Text));
    let hog = server.admission().admit("hog").expect("hog permit");
    let q6 = tpch::queries::query(6);
    let leader = spawn_query(&server, "a", 0, q6);
    until("the leader to queue", || {
        server.admission().queue_depth() == 1
    });
    let waiter = spawn_query(&server, "b", 0, q6);
    until("the waiter to park", || waiting(&server) == 1);
    let before = server.stats();
    drop(hog);

    let led = leader.join().unwrap().expect("leader");
    let waited = waiter.join().unwrap().expect("waiter");
    assert_eq!(led.to_lines(), expect);
    assert_eq!(waited.to_lines(), led.to_lines(), "coalesced rows diverged");
    assert_eq!(waited.columns, led.columns);
    assert!(waited.stages.is_empty(), "the waiter must not execute");
    assert!(!led.stages.is_empty());
    let after = server.stats();
    assert_eq!(after.admitted, before.admitted + 1, "{after:?}");
    assert_eq!(after.result_coalesced, before.result_coalesced + 1);
    assert_eq!(after.result_hits, before.result_hits + 1);
    assert_eq!(waiting(&server), 0);
}

/// A write that lands after the leader pinned its versions stops it
/// from sharing: the waiter runs the query itself and sees the write.
#[test]
fn write_during_flight_makes_the_waiter_run_itself() {
    let server = one_slot_server(small_table_driver());
    let writer = server.session("w");
    let hog = server.admission().admit("hog").expect("hog permit");
    let leader = spawn_query(&server, "a", 0, SMALL_QUERY);
    until("the leader to queue", || {
        server.admission().queue_depth() == 1
    });
    let waiter = spawn_query(&server, "b", 0, SMALL_QUERY);
    until("the waiter to park", || waiting(&server) == 1);
    writer
        .driver()
        .execute("INSERT INTO a VALUES (3)")
        .expect("write behind the server's back");
    let before = server.stats();
    drop(hog);

    let post_write = vec!["1", "2", "3"];
    assert_eq!(leader.join().unwrap().unwrap().to_lines(), post_write);
    let waited = waiter.join().unwrap().expect("waiter");
    assert_eq!(waited.to_lines(), post_write, "stale rows handed out");
    assert!(!waited.stages.is_empty(), "the waiter must run it itself");
    let after = server.stats();
    assert_eq!(after.result_coalesced, before.result_coalesced);
    assert_eq!(after.admitted, before.admitted + 2, "{after:?}");
}

/// A caller that arrives after a write does not wait on a run
/// pinned to older versions: it leads, and later callers that see the
/// same versions wait on it instead.
#[test]
fn caller_after_a_write_does_not_wait_on_older_versions() {
    let server = one_slot_server(small_table_driver());
    let writer = server.session("w");
    let hog = server.admission().admit("hog").expect("hog permit");
    let old = spawn_query(&server, "a", 0, SMALL_QUERY);
    until("the old leader to queue", || {
        server.admission().queue_depth() == 1
    });
    writer
        .driver()
        .execute("INSERT INTO a VALUES (3)")
        .expect("write behind the server's back");
    let new = spawn_query(&server, "c", 0, SMALL_QUERY);
    // The newcomer queues for a permit of its own instead of parking.
    until("the new leader to queue", || {
        server.admission().queue_depth() == 2
    });
    assert_eq!(waiting(&server), 0);
    let follower = spawn_query(&server, "d", 0, SMALL_QUERY);
    until("the follower to park", || waiting(&server) == 1);
    let before = server.stats();
    drop(hog);

    let post_write = vec!["1", "2", "3"];
    assert_eq!(old.join().unwrap().unwrap().to_lines(), post_write);
    let led = new.join().unwrap().expect("new leader");
    assert_eq!(led.to_lines(), post_write);
    assert!(!led.stages.is_empty());
    let followed = follower.join().unwrap().expect("follower");
    assert_eq!(followed.to_lines(), post_write);
    assert!(
        followed.stages.is_empty(),
        "the follower waits on the new run"
    );
    let after = server.stats();
    assert_eq!(after.admitted, before.admitted + 2, "{after:?}");
    assert_eq!(after.result_coalesced, before.result_coalesced + 1);
}

/// A waiter never inherits the leader's cancellation, and its own
/// cancellation neither outlives its deadline nor stops the leader
/// from publishing.
#[test]
fn waiter_and_leader_cancellations_stay_their_own() {
    let expect = lines(&fresh_tpch_driver(FormatKind::Text), 6);
    let server = one_slot_server(fresh_tpch_driver(FormatKind::Text));
    let q6 = tpch::queries::query(6);

    // The leader's deadline fires while a waiter waits: the waiter leads
    // in its place and returns rows.
    let hog = server.admission().admit("hog").expect("hog permit");
    let leader = spawn_query(&server, "a", 500, q6);
    until("the leader to queue", || {
        server.admission().queue_depth() == 1
    });
    let waiter = spawn_query(&server, "b", 0, q6);
    until("the waiter to park", || waiting(&server) == 1);
    let err = leader.join().unwrap().unwrap_err();
    assert!(err.is_cancelled(), "{err}");
    until("the waiter to lead", || {
        server.admission().queue_depth() == 1
    });
    drop(hog);
    let got = waiter
        .join()
        .unwrap()
        .expect("waiter must not inherit the cancel");
    assert_eq!(got.to_lines(), expect);
    assert_eq!(server.stats().result_coalesced, 0);

    // A waiter whose own deadline fires returns Cancelled in time; the
    // leader still publishes.
    let hog = server.admission().admit("hog").expect("hog permit");
    let q1 = tpch::queries::query(1);
    let leader = spawn_query(&server, "a", 0, q1);
    until("the leader to queue", || {
        server.admission().queue_depth() == 1
    });
    let cancelled_before = server.stats().cancelled;
    let mut session = server.session("b");
    session.conf_mut().set(keys::KEY_QUERY_TIMEOUT_MS, 50);
    let started = Instant::now();
    let err = session.execute(q1).unwrap_err();
    let took = started.elapsed();
    assert!(err.is_cancelled(), "{err}");
    assert!(err.message().contains("deadline"), "{err}");
    assert!(
        took < Duration::from_millis(50 + 100),
        "waiter cancel took {took:?}"
    );
    assert_eq!(server.stats().cancelled, cancelled_before + 1);
    drop(hog);
    let led = leader.join().unwrap().expect("leader");
    let hits = server.stats().result_hits;
    let again = server.session("c").execute(q1).expect("cached");
    assert_eq!(again.to_lines(), led.to_lines());
    assert!(again.stages.is_empty());
    assert_eq!(server.stats().result_hits, hits + 1, "the leader published");
}

/// Shutdown reaches a parked waiter: it ends in the typed cancel
/// error, and nothing hangs.
#[test]
fn shutdown_cancels_a_parked_waiter() {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let server = one_slot_server(fresh_tpch_driver(FormatKind::Text));
        let hog = server.admission().admit("hog").expect("hog permit");
        let q6 = tpch::queries::query(6);
        let leader = spawn_query(&server, "a", 0, q6);
        until("the leader to queue", || {
            server.admission().queue_depth() == 1
        });
        let waiter = spawn_query(&server, "b", 0, q6);
        until("the waiter to park", || waiting(&server) == 1);
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            drop(hog);
        });
        assert!(!server.shutdown(Duration::from_millis(100)));
        release.join().unwrap();
        let waited = waiter.join().unwrap().unwrap_err();
        assert!(waited.is_cancelled(), "{waited}");
        assert!(leader.join().unwrap().unwrap_err().is_cancelled());
        assert_eq!(waiting(&server), 0);
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown with a parked waiter hung or panicked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Chaos under concurrent load: seeded fault injection across four
    /// simultaneously executing sessions still returns every query's
    /// clean-baseline rows (float-normalized, as in the fault-recovery
    /// suite — retries may re-sum partitions).
    #[test]
    fn chaos_under_concurrent_load_matches_clean_baseline(seed in 1u64..1 << 32) {
        let queries = [1usize, 6, 12, 14];
        let solo = fresh_tpch_driver(FormatKind::Text);
        let baselines: Vec<Vec<String>> =
            queries.iter().map(|&n| normalize(lines(&solo, n))).collect();

        let server = HdmServer::over(fresh_tpch_driver(FormatKind::Text)).expect("server");
        let mut handles = Vec::new();
        for (i, (&n, expect)) in queries.iter().zip(baselines).enumerate() {
            let mut session = server.session(&format!("t{i}"));
            let c = session.conf_mut();
            c.set(keys::KEY_FT_ENABLED, true);
            c.set(keys::KEY_FT_SEED, seed + i as u64);
            c.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
            c.set(keys::KEY_FT_RECV_TIMEOUT_MS, 400);
            handles.push(std::thread::spawn(move || {
                let got = session
                    .execute(tpch::queries::query(n))
                    .unwrap_or_else(|e| panic!("Q{n} under chaos: {e}"));
                assert_eq!(
                    normalize(got.to_lines()),
                    expect,
                    "Q{n} diverged under seeded faults + concurrency"
                );
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The same chaos with every session running one query under
    /// one conf: the result cache coalesces them onto one faulted run
    /// (or a re-run after a failed one), and every answer still equals
    /// the clean baseline.
    #[test]
    fn chaos_coalesced_sessions_match_clean_baseline(seed in 1u64..1 << 32, pick in 0usize..4) {
        let n = [1usize, 6, 12, 14][pick];
        let expect = normalize(lines(&fresh_tpch_driver(FormatKind::Text), n));
        let server = HdmServer::over(fresh_tpch_driver(FormatKind::Text)).expect("server");
        let go = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for i in 0..4 {
            let mut session = server.session(&format!("t{i}"));
            let c = session.conf_mut();
            c.set(keys::KEY_FT_ENABLED, true);
            c.set(keys::KEY_FT_SEED, seed);
            c.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
            c.set(keys::KEY_FT_RECV_TIMEOUT_MS, 400);
            let go = Arc::clone(&go);
            handles.push(std::thread::spawn(move || {
                go.wait();
                session
                    .execute(tpch::queries::query(n))
                    .unwrap_or_else(|e| panic!("Q{n} under chaos: {e}"))
                    .to_lines()
            }));
        }
        for h in handles {
            prop_assert_eq!(normalize(h.join().unwrap()), expect.clone());
        }
        let s = server.stats();
        prop_assert_eq!(s.admitted + s.result_hits, 4);
    }
}
