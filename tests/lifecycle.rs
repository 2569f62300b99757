//! End-to-end query lifecycle control (`hdm-server` + the cancellation
//! spine).
//!
//! The lifecycle contract: a query moves Queued → Admitted → Running →
//! {Finished, Cancelled, Shed}. Cancellation — from a caller's token, a
//! per-query deadline, or server shutdown — is cooperative and
//! surfaces as the typed `cancelled` error, never as a retry, a
//! fallback, a poisoned sibling, or partial warehouse output. A clean
//! rerun after any cancelled run is byte-identical to a solo run.

use hdm_common::conf as keys;
use hdm_common::CancelToken;
use hdm_core::{Driver, EngineKind};
use hdm_server::HdmServer;
use hdm_storage::FormatKind;
use hdm_workloads::tpch;
use std::time::{Duration, Instant};

fn fresh_tpch_driver(format: FormatKind) -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
    d
}

fn counter(server: &HdmServer, name: &str) -> u64 {
    server
        .obs_snapshot()
        .counters
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| *v)
        .sum()
}

/// A pre-fired token short-circuits before admission; firing mid-run
/// interrupts cooperatively; and the rerun after either is
/// byte-identical to the solo baseline (no cache poisoning, no partial
/// state).
#[test]
fn cancelled_query_leaves_no_trace_and_rerun_is_byte_identical() {
    let solo = fresh_tpch_driver(FormatKind::Text);
    let expect = solo
        .execute(tpch::queries::query(1))
        .expect("solo Q1")
        .to_lines();

    let server = HdmServer::over(fresh_tpch_driver(FormatKind::Text)).expect("server");
    let session = server.session("t");

    // Arm 1: already-fired token → typed Cancelled, nothing executed.
    let fired = CancelToken::new();
    fired.cancel("caller abandoned before submit");
    let err = session
        .execute_cancellable(tpch::queries::query(1), &fired)
        .unwrap_err();
    assert!(err.is_cancelled(), "{err}");

    // Arm 2: fire mid-run from another thread. The race is inherent —
    // the query may finish first — but the outcome must be exactly
    // Ok(baseline) or Cancelled, never anything else.
    let token = CancelToken::new();
    let killer = {
        let token = token.clone();
        let gate = server.admission().clone();
        std::thread::spawn(move || {
            // Mid-run starts at admission: on a loaded machine a bare
            // sleep can fire before the submit below, which is arm 1 again
            // (no permit taken, nothing for the server to acknowledge).
            let give_up = Instant::now() + Duration::from_secs(10);
            while gate.running() == 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(2));
            token.cancel("mid-run abandon");
        })
    };
    match session.execute_cancellable(tpch::queries::query(1), &token) {
        Ok(r) => assert_eq!(r.to_lines(), expect, "completed-before-cancel run diverged"),
        Err(e) => assert!(
            e.is_cancelled(),
            "only the typed cancel error may surface: {e}"
        ),
    }
    killer.join().unwrap();
    // Finished or cancelled, the query took its scratch space with it.
    let scratch = || session.driver().dfs().list("/tmp/q");
    assert_eq!(scratch(), Vec::<String>::new());

    // The rerun (fresh token) must be byte-identical to solo: a
    // cancelled attempt publishes no result-cache entry and leaves no
    // partial warehouse output behind.
    let rerun = session
        .execute(tpch::queries::query(1))
        .expect("clean rerun after cancel")
        .to_lines();
    assert_eq!(rerun, expect, "post-cancel rerun diverged from solo");
    assert_eq!(scratch(), Vec::<String>::new());
    assert!(counter(&server, "cancel.acknowledged") >= 1);
}

/// `hive.query.timeout.ms` cancels a query stuck in the admission queue:
/// queue wait draws down the same deadline budget as execution.
#[test]
fn deadline_cancels_queued_query_with_typed_error_and_metrics() {
    let mut driver = fresh_tpch_driver(FormatKind::Text);
    driver.conf_mut().set(keys::KEY_SERVER_POOL_SIZE, 1);
    let server = HdmServer::over(driver).expect("server");

    // Saturate the pool through the raw gate so the session's query can
    // never be admitted.
    let hog = server.admission().admit("hog").expect("hog permit");
    let mut session = server.session("t");
    session.conf_mut().set(keys::KEY_QUERY_TIMEOUT_MS, 40);
    let err = session.execute(tpch::queries::query(6)).unwrap_err();
    assert!(err.is_cancelled(), "{err}");
    assert!(
        err.message().contains("deadline"),
        "reason must name the deadline: {err}"
    );
    drop(hog);

    assert_eq!(server.stats().cancelled, 1);
    assert!(counter(&server, "cancel.requested") >= 1);
    assert!(counter(&server, "cancel.acknowledged") >= 1);

    // Timeout 0 disables the deadline entirely: the same query admits
    // and completes once the pool is free.
    session.conf_mut().set(keys::KEY_QUERY_TIMEOUT_MS, 0);
    session
        .execute(tpch::queries::query(6))
        .expect("no deadline");
}

/// Overload shedding: with the pool saturated and a backlog queued, a
/// new arrival whose projected wait exceeds the ceiling is rejected
/// with the typed overload error — before taking a permit or a ticket.
#[test]
fn overload_shed_rejects_projected_long_wait_with_typed_error() {
    let mut driver = fresh_tpch_driver(FormatKind::Text);
    driver.conf_mut().set(keys::KEY_SERVER_POOL_SIZE, 1);
    driver.conf_mut().set(keys::KEY_SERVER_SHED_WAIT_MS, 1);
    // The shed probe must see execution, not cache hits.
    driver.conf_mut().set(keys::KEY_SERVER_RESULT_CACHE, false);
    let server = HdmServer::over(driver).expect("server");

    let hog = server.admission().admit("hog").expect("hog permit");
    // Park two waiters behind the hog: projected wait for a third
    // arrival is (2 + 1) * >=1ms / pool=1 >= 3ms > 1ms ceiling.
    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let gate = server.admission().clone();
            std::thread::spawn(move || gate.admit("w").map(drop))
        })
        .collect();
    while server.admission().queue_depth() < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let session = server.session("t");
    let err = session.execute(tpch::queries::query(6)).unwrap_err();
    assert_eq!(err.subsystem(), "overloaded", "{err}");
    assert!(err.message().contains("projected queue wait"), "{err}");
    let s = server.stats();
    assert_eq!(s.shed, 1, "{s:?}");
    assert!(counter(&server, "server.shed") >= 1);

    drop(hog);
    for w in waiters {
        w.join().unwrap().unwrap();
    }
    // With the backlog gone the same query is admitted and runs.
    session
        .execute(tpch::queries::query(6))
        .expect("uncongested run");
}

/// The per-engine circuit breaker: consecutive non-cancelled failures
/// at the threshold flip subsequent queries to the fallback engine;
/// cancellations never charge the breaker.
#[test]
fn breaker_flips_sick_engine_to_fallback_and_cancel_does_not_charge() {
    let mut driver = fresh_tpch_driver(FormatKind::Text);
    driver.conf_mut().set(keys::KEY_SERVER_BREAKER_FAILURES, 2);
    let server = HdmServer::over(driver).expect("server");
    let session = server.session("t");

    // A cancelled query must not count toward the failure streak.
    let fired = CancelToken::new();
    fired.cancel("not a failure");
    let _ = session
        .execute_on_cancellable("SELECT k FROM missing_table", EngineKind::Hadoop, &fired)
        .unwrap_err();

    // Two real failures on Hadoop trip its breaker.
    for _ in 0..2 {
        let err = session
            .execute_on("SELECT k FROM missing_table", EngineKind::Hadoop)
            .unwrap_err();
        assert!(!err.is_cancelled(), "{err}");
    }
    assert_eq!(counter(&server, "server.breaker.open"), 1);

    // The next Hadoop query silently degrades to DataMpi and succeeds.
    let r = session
        .execute_on(tpch::queries::query(6), EngineKind::Hadoop)
        .expect("breaker must flip a sick engine to the fallback");
    assert!(!r.rows.is_empty());
    assert!(counter(&server, "server.breaker.flip") >= 1);

    // DataMpi's own breaker is untouched: direct use still works.
    session
        .execute_on(tpch::queries::query(1), EngineKind::DataMpi)
        .expect("healthy engine unaffected");
}

/// Graceful shutdown, happy path: with nothing in flight the gate
/// drains inside the window, and new queries are rejected at the door
/// with the typed cancel error.
#[test]
fn shutdown_drains_idle_server_and_rejects_new_queries() {
    let server = HdmServer::over(fresh_tpch_driver(FormatKind::Text)).expect("server");
    let session = server.session("t");
    session.execute(tpch::queries::query(6)).expect("warmup");

    assert!(
        server.shutdown(Duration::from_secs(2)),
        "idle server must drain"
    );
    assert!(server.is_shutting_down());
    let err = session.execute(tpch::queries::query(6)).unwrap_err();
    assert!(err.is_cancelled(), "{err}");
    assert!(err.message().contains("shutting down"), "{err}");
    assert_eq!(counter(&server, "server.drained"), 1);
}

/// Graceful shutdown, straggler path: a query parked in the queue past
/// the drain window is expelled with the typed cancel error, and the
/// gate still reaches idle once the blocking permit is released.
#[test]
fn shutdown_cancels_stragglers_past_drain_window() {
    let mut driver = fresh_tpch_driver(FormatKind::Text);
    driver.conf_mut().set(keys::KEY_SERVER_POOL_SIZE, 1);
    driver.conf_mut().set(keys::KEY_SERVER_RESULT_CACHE, false);
    let server = HdmServer::over(driver).expect("server");

    let hog = server.admission().admit("hog").expect("hog permit");
    let parked = {
        let session = server.session("t");
        std::thread::spawn(move || session.execute(tpch::queries::query(6)).map(drop))
    };
    while server.admission().queue_depth() < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Free the hog shortly after the drain window expires so the gate
    // can reach idle once the straggler is expelled.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(hog);
    });
    let drained = server.shutdown(Duration::from_millis(100));
    assert!(!drained, "a held permit must defeat the drain window");
    release.join().unwrap();

    let err = parked.join().unwrap().unwrap_err();
    assert!(
        err.is_cancelled(),
        "straggler must surface cancelled: {err}"
    );
    assert_eq!(server.admission().running(), 0);
    assert_eq!(server.admission().queue_depth(), 0);
    assert!(server.stats().cancelled >= 1);
}

/// Deadline-cancel several queued queries under a saturated pool and
/// report the request→acknowledge latency distribution; the p99 bounds
/// how long a fired token goes unobserved.
#[test]
fn cancel_latency_p99_under_load_is_reported() {
    let mut driver = fresh_tpch_driver(FormatKind::Text);
    driver.conf_mut().set(keys::KEY_SERVER_POOL_SIZE, 1);
    let server = HdmServer::over(driver).expect("server");
    let hog = server.admission().admit("hog").expect("hog permit");

    let mut handles = Vec::new();
    for i in 0..6 {
        let mut session = server.session(&format!("t{i}"));
        session.conf_mut().set(keys::KEY_QUERY_TIMEOUT_MS, 20);
        handles.push(std::thread::spawn(move || {
            session.execute(tpch::queries::query(6)).unwrap_err()
        }));
    }
    for h in handles {
        assert!(h.join().unwrap().is_cancelled());
    }
    drop(hog);

    let snapshot = server.obs_snapshot();
    let (_, _, hist) = snapshot
        .timers
        .iter()
        .find(|(n, _, _)| n == "cancel.latency.ms")
        .expect("cancel.latency.ms must be recorded");
    assert_eq!(hist.count(), 6);
    // p99 from the fixed-width buckets: smallest bucket upper bound
    // covering >= 99% of observations.
    let total = hist.count();
    let mut seen = 0;
    let mut p99 = 0;
    for (start, count) in hist.buckets() {
        seen += count;
        p99 = start + hist.bucket_width();
        if seen * 100 >= total * 99 {
            break;
        }
    }
    println!(
        "cancel.latency.ms under load: n={total} p99<={p99}ms max={:?}ms",
        hist.max()
    );
    // Waiters poll every 2ms; anything near a second means the token
    // wasn't actually interrupting the wait.
    assert!(p99 < 1_000, "cancel ack latency p99 too high: {p99}ms");
}
