//! Allocation gate: heap allocations per 1 000 input rows on the hot
//! query paths, held under ceilings.
//!
//! A counting `#[global_allocator]` over `System` counts every
//! `alloc`, `alloc_zeroed` and `realloc` in the process. Counts are
//! process-wide, so the cases run one after another inside the one
//! `#[test]` of this binary, each measured around one warm run of its
//! statement (a first, unmeasured run fills lazily built state).
//!
//! Cases: TPC-H Q1 and Q6 over ORC and over Text, and the HiBench
//! AGGREGATE and repartition queries (Text), each on both engines. Each
//! prints its count; the test fails if any count exceeds its ceiling.
//! The ceilings are the counts measured when the gate was set, plus
//! [`MARGIN_PCT`] percent: enough to absorb thread-scheduling noise,
//! little enough that one copied string per scanned row fails every
//! Text case and the row-heavy ORC ones (DESIGN.md §33).
//!
//! Run with `cargo test --release -p hdm-apps --test allocations --
//! --nocapture` to see the table.

use hdm_common::conf as keys;
use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::{hibench, tpch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting allocation calls.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter
// is a relaxed atomic add with no other effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Headroom over the measured counts.
const MARGIN_PCT: u64 = 10;

const REPARTITION_SQL: &str = "SELECT sourceip, desturl, SUM(adrevenue), COUNT(*) \
     FROM uservisits GROUP BY sourceip, desturl";

/// One gated statement.
struct Case {
    name: &'static str,
    data: usize,
    sql: String,
    engine: EngineKind,
    /// Allocations per 1 000 input rows measured when the gate was set.
    measured: u64,
}

/// The datasets the cases run on, with the rows their scans read.
fn datasets() -> Vec<(Driver, u64)> {
    let tpch_rows = |d: &mut Driver| count(d, "SELECT COUNT(*) FROM lineitem");
    let mut out = Vec::new();
    for format in [FormatKind::Orc, FormatKind::Text] {
        let mut d = Driver::in_memory();
        tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
        let rows = tpch_rows(&mut d);
        out.push((d, rows));
    }
    let mut d = Driver::in_memory();
    let cfg = hibench::HiBenchConfig {
        rankings: 2_000,
        uservisits: 20_000,
        ips: 5_000,
        ..hibench::HiBenchConfig::default()
    };
    hibench::load(&mut d, &cfg).expect("load hibench");
    let rows = count(&mut d, "SELECT COUNT(*) FROM uservisits");
    out.push((d, rows));
    out
}

fn count(d: &mut Driver, sql: &str) -> u64 {
    let r = d.execute(sql).expect("count");
    let line = r.to_lines().into_iter().next().expect("one row");
    line.parse().expect("a count")
}

fn cases() -> Vec<Case> {
    use EngineKind::{DataMpi, Hadoop};
    let q = |n| tpch::queries::query(n).to_string();
    let case = |name, data, sql: String, engine, measured| Case {
        name,
        data,
        sql,
        engine,
        measured,
    };
    vec![
        case("q1 orc datampi", 0, q(1), DataMpi, 2213),
        case("q1 orc hadoop", 0, q(1), Hadoop, 2248),
        case("q6 orc datampi", 0, q(6), DataMpi, 81),
        case("q6 orc hadoop", 0, q(6), Hadoop, 78),
        case("q1 text datampi", 1, q(1), DataMpi, 2422),
        case("q1 text hadoop", 1, q(1), Hadoop, 2458),
        case("q6 text datampi", 1, q(6), DataMpi, 151),
        case("q6 text hadoop", 1, q(6), Hadoop, 150),
        case(
            "aggregate datampi",
            2,
            hibench::aggregate_query().into(),
            DataMpi,
            2763,
        ),
        case(
            "aggregate hadoop",
            2,
            hibench::aggregate_query().into(),
            Hadoop,
            3096,
        ),
        case(
            "repartition datampi",
            2,
            REPARTITION_SQL.into(),
            DataMpi,
            8532,
        ),
        case(
            "repartition hadoop",
            2,
            REPARTITION_SQL.into(),
            Hadoop,
            10695,
        ),
    ]
}

#[test]
fn hot_paths_stay_under_their_allocation_ceilings() {
    let mut data = datasets();
    for (d, _) in &mut data {
        // One task slot: the same tasks, in the same order, every run.
        d.conf_mut().set(keys::KEY_LOCAL_THREADS, 1);
    }
    let mut over = Vec::new();
    println!("{:<22} {:>12} {:>10}", "case", "allocs/krow", "ceiling");
    for case in cases() {
        let (d, rows) = &mut data[case.data];
        d.execute_on(&case.sql, case.engine).expect("warm-up run");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        d.execute_on(&case.sql, case.engine).expect("measured run");
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let per_krow = allocs * 1000 / (*rows).max(1);
        let ceiling = case.measured * (100 + MARGIN_PCT) / 100;
        println!("{:<22} {per_krow:>12} {ceiling:>10}", case.name);
        if per_krow > ceiling {
            over.push(format!("{}: {per_krow} > {ceiling}", case.name));
        }
    }
    assert!(
        over.is_empty(),
        "allocations per 1 000 input rows over the ceiling: {over:?}"
    );
}
