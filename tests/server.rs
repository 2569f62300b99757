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
use std::sync::Arc;

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
}
