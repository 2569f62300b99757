//! Multi-tenant serving throughput: mixed TPC-H through `hdm-server`.
//!
//! PR 8's tentpole: a session pool over long-lived shared executor
//! state, with LLAP-style shared caches (ORC data cache + query result
//! cache) behind fair-queue admission control. This harness drives a
//! mixed light-query TPC-H workload (Q1/Q6/Q12/Q14, harness scale, ORC)
//! through 1, 8 and 64 concurrent sessions, on two arms:
//!
//! - **cache-on** — `hive.server.io.cache.mb` and the result cache at
//!   their defaults, so repeated queries are served from daemon memory;
//! - **cache-off** — both caches disabled, every query re-plans and
//!   re-scans (the PR 7 baseline behaviour, per-query state only).
//!
//! Every served result is compared byte-for-byte against a solo
//! single-session baseline; **any divergence exits nonzero** — the
//! differential guarantee is part of the benchmark, not a separate
//! test. Per-query latencies are aggregated into QPS, p50 and p99 and
//! written to `BENCH_serving.json`.
//!
//! Flags: `--sessions 1,8` limits the session counts (CI smoke),
//! `--out PATH` redirects the JSON report.

use hdm_core::Driver;
use hdm_server::HdmServer;
use hdm_storage::FormatKind;
use hdm_workloads::tpch;
use std::fmt::Write as _;
use std::time::Instant;

const SCALE: f64 = 0.002;
const SEED: u64 = 20150701;
const QUERIES: [usize; 4] = [1, 6, 12, 14];
/// Each session runs one round of the mix, phase-shifted by session id
/// so different sessions contend on different queries at first.
const QUERIES_PER_SESSION: usize = 4;
const TENANTS: usize = 4;

fn fresh_tpch_driver() -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, SCALE, SEED, FormatKind::Orc).expect("load tpch");
    d
}

#[derive(Debug, Clone, Copy)]
struct ArmSpec {
    name: &'static str,
    caches: bool,
}

#[derive(Debug)]
struct ConfigResult {
    arm: &'static str,
    sessions: usize,
    queries: usize,
    wall_ns: u128,
    p50_ns: u128,
    p99_ns: u128,
    qps: f64,
    result_hits: u64,
    io_hits: u64,
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Run `sessions` concurrent sessions through one server, verifying
/// every result against the solo baselines.
fn run_config(arm: ArmSpec, sessions: usize, baselines: &[Vec<String>]) -> ConfigResult {
    let mut driver = fresh_tpch_driver();
    if !arm.caches {
        driver
            .conf_mut()
            .set(hdm_common::conf::KEY_SERVER_IO_CACHE_MB, 0);
        driver
            .conf_mut()
            .set(hdm_common::conf::KEY_SERVER_RESULT_CACHE_ENTRIES, 0);
    }
    // Pool sized to the session count so the arm measures cache effect,
    // not queueing; the queue bound still covers the worst-case burst.
    driver
        .conf_mut()
        .set(hdm_common::conf::KEY_SERVER_POOL_SIZE, sessions.max(1));
    driver.conf_mut().set(
        hdm_common::conf::KEY_SERVER_QUEUE_MAX,
        sessions.max(1) * QUERIES_PER_SESSION,
    );
    let server = HdmServer::over(driver).expect("server");

    let start = Instant::now();
    let mut handles = Vec::new();
    for s in 0..sessions {
        let session = server.session(&format!("t{}", s % TENANTS));
        let baselines = baselines.to_vec();
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(QUERIES_PER_SESSION);
            for k in 0..QUERIES_PER_SESSION {
                let qi = (s + k) % QUERIES.len();
                let t = Instant::now();
                let got = session
                    .execute(tpch::queries::query(QUERIES[qi]))
                    .unwrap_or_else(|e| panic!("Q{} in session {s}: {e}", QUERIES[qi]));
                latencies.push(t.elapsed().as_nanos());
                if got.to_lines() != baselines[qi] {
                    eprintln!(
                        "DIVERGENCE: Q{} through hdm-server ({sessions} sessions) \
                         is not byte-identical to the solo baseline",
                        QUERIES[qi]
                    );
                    std::process::exit(1);
                }
            }
            latencies
        }));
    }
    let mut latencies: Vec<u128> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("session thread"));
    }
    let wall_ns = start.elapsed().as_nanos();
    latencies.sort_unstable();
    let stats = server.stats();
    ConfigResult {
        arm: arm.name,
        sessions,
        queries: latencies.len(),
        wall_ns,
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        qps: latencies.len() as f64 / (wall_ns as f64 / 1e9),
        result_hits: stats.result_hits,
        io_hits: stats.io.map_or(0, |io| io.hits),
    }
}

fn main() {
    let mut session_counts = vec![1usize, 8, 64];
    let mut out = String::from("BENCH_serving.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--sessions" => {
                let v = args.next().expect("--sessions needs a comma list");
                session_counts = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("session count"))
                    .collect();
            }
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown flag {other:?} (use --sessions N,M --out PATH)"),
        }
    }

    // Solo baselines: one plain driver, no server in the path.
    let solo = fresh_tpch_driver();
    let baselines: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|&n| {
            solo.execute(tpch::queries::query(n))
                .unwrap_or_else(|e| panic!("solo Q{n}: {e}"))
                .to_lines()
        })
        .collect();

    let arms = [
        ArmSpec {
            name: "cache_on",
            caches: true,
        },
        ArmSpec {
            name: "cache_off",
            caches: false,
        },
    ];
    let mut results = Vec::new();
    for &arm in &arms {
        for &sessions in &session_counts {
            let r = run_config(arm, sessions, &baselines);
            println!(
                "{:>9} x{:<3} sessions: {:>7.1} qps  p50 {:>7.2} ms  p99 {:>7.2} ms  \
                 (result hits {}, io hits {})",
                r.arm,
                r.sessions,
                r.qps,
                r.p50_ns as f64 / 1e6,
                r.p99_ns as f64 / 1e6,
                r.result_hits,
                r.io_hits,
            );
            results.push(r);
        }
    }

    // The tentpole claim: shared caching makes the server scale —
    // 64-session throughput must beat single-session throughput.
    let qps_of = |arm: &str, n: usize| {
        results
            .iter()
            .find(|r| r.arm == arm && r.sessions == n)
            .map(|r| r.qps)
    };
    if let (Some(one), Some(many)) = (
        qps_of("cache_on", 1),
        qps_of("cache_on", *session_counts.iter().max().unwrap_or(&1)),
    ) {
        let peak = *session_counts.iter().max().unwrap_or(&1);
        if peak > 1 && many <= one {
            eprintln!(
                "REGRESSION: {peak}-session cache-on throughput ({many:.1} qps) \
                 does not beat 1-session ({one:.1} qps)"
            );
            std::process::exit(1);
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"description\": \"Multi-tenant serving throughput for PR 8 \
         (cargo run --release -p hdm-bench --bin serving). Mixed TPC-H Q1/Q6/Q12/Q14 \
         at harness scale (ORC) through hdm-server sessions; cache_on = shared ORC data \
         cache + result cache at defaults, cache_off = both disabled (per-query state \
         only). Every result is verified byte-identical to a solo single-session \
         baseline before it is counted; any divergence exits nonzero. QPS is total \
         queries over wall time; p50/p99 over per-query latencies.\","
    );
    let _ = writeln!(
        json,
        "  \"units\": \"queries per second; latencies in nanoseconds\","
    );
    let _ = writeln!(
        json,
        "  \"host\": \"container CI runner, release profile\","
    );
    let _ = writeln!(json, "  \"groups\": {{");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}_sessions_{}\": {{", r.arm, r.sessions);
        let _ = writeln!(json, "      \"arm\": \"{}\",", r.arm);
        let _ = writeln!(json, "      \"sessions\": {},", r.sessions);
        let _ = writeln!(json, "      \"queries\": {},", r.queries);
        let _ = writeln!(json, "      \"wall_ns\": {},", r.wall_ns);
        let _ = writeln!(json, "      \"qps\": {:.3},", r.qps);
        let _ = writeln!(json, "      \"p50_ns\": {},", r.p50_ns);
        let _ = writeln!(json, "      \"p99_ns\": {},", r.p99_ns);
        let _ = writeln!(json, "      \"result_cache_hits\": {},", r.result_hits);
        let _ = writeln!(json, "      \"io_cache_hits\": {}", r.io_hits);
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");
}
