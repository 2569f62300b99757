//! Vectorized execution differential harness.
//!
//! Pins the tentpole invariant of the columnar operator pipeline:
//! `hive.vectorized.execution.enabled` is a pure performance knob.
//!
//! 1. **Differential sweep** — all 22 TPC-H queries over ORC × both
//!    engines × {pipelined on, off} × {vectorized on, off} must produce
//!    *byte-identical* collected rows within each (engine, pipelined)
//!    arm, and normalized-identical rows across every arm.
//! 2. **Path assertions** — Q1 and Q6 actually take the batched path
//!    (`vec.batches` counter > 0 vectorized-on, == 0 vectorized-off or
//!    on a non-columnar Text table), and a DISTINCT aggregate stage
//!    falls back to the row path per the planner eligibility rule.
//! 3. **Pruning** — a date-clustered ORC load lets Q6's pushed-down
//!    shipdate window prune whole stripes (`orc.stripes.pruned` > 0)
//!    without changing the answer; `hive.orc.pushdown=false` restores
//!    the full scan.
//! 4. **Map-only stages** — no TPC-H query has one, so a filter +
//!    projection `SELECT` and ORC / Text CTAS over ORC and Text
//!    `lineitem` pin the batch → map-only route and the typed map-only
//!    writer on both engines, vectorized on and off.

use hdm_common::conf as keys;
use hdm_core::{Driver, EngineKind, QueryResult};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;

fn fresh_orc_tpch_driver() -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, FormatKind::Orc).expect("load tpch (orc)");
    d
}

fn set_vectorized(d: &mut Driver, on: bool) {
    d.conf_mut().set(keys::KEY_VECTORIZED, on);
}

fn set_pipelined(d: &mut Driver, on: bool) {
    d.conf_mut().set(keys::KEY_EXEC_PIPELINED, on);
}

/// Canonicalize a result for comparison *across* pipelining arms (see
/// `tests/scheduler.rs`): reduce partitioning may legitimately differ
/// between pipelined on/off, so sort lines and canonicalize floats.
fn normalize(r: &QueryResult) -> Vec<String> {
    let mut lines: Vec<String> = r
        .to_lines()
        .iter()
        .map(|l| {
            l.split('\t')
                .map(
                    |cell| match cell.contains('.').then(|| cell.parse::<f64>()) {
                        Some(Ok(v)) => format!("{v:.5e}"),
                        _ => cell.to_string(),
                    },
                )
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    lines.sort();
    lines
}

/// Sum one obs counter across all stages of the last query.
fn counter_sum(d: &Driver, name: &str) -> u64 {
    let snap = d.last_obs_snapshot().expect("obs snapshot");
    snap.counters
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| *v)
        .sum()
}

/// All 22 TPC-H queries × both engines × pipelined {off, on} ×
/// vectorized {off, on}: byte-identical rows within each
/// (engine, pipelined) arm, normalized-identical across all arms.
#[test]
fn tpch_differential_vectorized_on_off() {
    let mut d = fresh_orc_tpch_driver();
    for n in tpch::queries::all() {
        let sql = tpch::queries::query(n);
        let mut baseline: Option<Vec<String>> = None;
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            for pipelined in [false, true] {
                set_pipelined(&mut d, pipelined);
                set_vectorized(&mut d, false);
                let off = d
                    .execute_on(sql, engine)
                    .unwrap_or_else(|e| panic!("q{n} {engine:?} vec-off: {e}"));
                set_vectorized(&mut d, true);
                let on = d
                    .execute_on(sql, engine)
                    .unwrap_or_else(|e| panic!("q{n} {engine:?} vec-on: {e}"));
                assert_eq!(
                    off.to_lines(),
                    on.to_lines(),
                    "q{n} {engine:?} pipelined={pipelined}: vectorization changed rows"
                );
                let norm = normalize(&on);
                match &baseline {
                    None => baseline = Some(norm),
                    Some(b) => assert_eq!(
                        b, &norm,
                        "q{n} {engine:?} pipelined={pipelined}: arm disagrees with baseline"
                    ),
                }
            }
        }
    }
}

/// Q1 and Q6 actually engage the batched path over ORC — and do not
/// when vectorization is off.
#[test]
fn q1_q6_take_the_batched_path() {
    let mut d = fresh_orc_tpch_driver();
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    for n in [1usize, 6] {
        let sql = tpch::queries::query(n);
        set_vectorized(&mut d, true);
        d.execute_on(sql, EngineKind::DataMpi).expect("vec-on run");
        assert!(
            counter_sum(&d, "vec.batches") > 0,
            "q{n}: expected vec.batches > 0 with vectorization on"
        );
        set_vectorized(&mut d, false);
        d.execute_on(sql, EngineKind::DataMpi).expect("vec-off run");
        assert_eq!(
            counter_sum(&d, "vec.batches"),
            0,
            "q{n}: expected no batches with vectorization off"
        );
    }
}

/// A Text table has no columnar reader: vectorization silently falls
/// back to the row path and still answers correctly.
#[test]
fn text_tables_fall_back_to_row_path() {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, FormatKind::Text).expect("load tpch (text)");
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    set_vectorized(&mut d, true);
    let r = d
        .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
        .expect("q6 over text");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(counter_sum(&d, "vec.batches"), 0);
}

/// DISTINCT aggregates are row-path-only per the planner eligibility
/// rule; plain aggregates over the same table vectorize.
#[test]
fn distinct_aggregate_falls_back_to_row_path() {
    let mut d = fresh_orc_tpch_driver();
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    set_vectorized(&mut d, true);
    d.execute_on(
        "SELECT COUNT(DISTINCT l_suppkey) FROM lineitem",
        EngineKind::DataMpi,
    )
    .expect("distinct count");
    assert_eq!(
        counter_sum(&d, "vec.batches"),
        0,
        "DISTINCT aggregate stage must stay on the row path"
    );
    d.execute_on("SELECT COUNT(l_suppkey) FROM lineitem", EngineKind::DataMpi)
        .expect("plain count");
    assert!(
        counter_sum(&d, "vec.batches") > 0,
        "plain aggregate over ORC should vectorize"
    );
}

/// Date-clustered ORC stripes let Q6's pushed-down shipdate window
/// prune whole stripes, with the same answer as the unclustered load;
/// disabling pushdown restores the full scan.
#[test]
fn clustered_load_prunes_stripes_on_q6() {
    let mut plain = fresh_orc_tpch_driver();
    set_vectorized(&mut plain, true);
    let expected = normalize(
        &plain
            .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
            .expect("q6 unclustered"),
    );

    let mut d = Driver::in_memory();
    tpch::load_clustered(&mut d, 0.002, 20150701, FormatKind::Orc).expect("clustered load");
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    set_vectorized(&mut d, true);
    let pruned_run = d
        .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
        .expect("q6 clustered");
    assert_eq!(
        normalize(&pruned_run),
        expected,
        "pruning changed the answer"
    );
    assert!(
        counter_sum(&d, "orc.stripes.pruned") > 0,
        "clustered shipdate stripes should be pruned by the Q6 window"
    );
    assert!(counter_sum(&d, "orc.rows.pruned") > 0);

    d.conf_mut().set(keys::KEY_ORC_PUSHDOWN, false);
    let full_scan = d
        .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
        .expect("q6 pushdown off");
    assert_eq!(normalize(&full_scan), expected);
    assert_eq!(
        counter_sum(&d, "orc.stripes.pruned"),
        0,
        "pushdown off must not prune"
    );
}

/// Map-only stages — which none of the 22 TPC-H queries has — across
/// {ORC, Text} source × both engines × vectorized {off, on}: a filter +
/// projection `SELECT` (`Collect` sink), an ORC CTAS and a CTAS with no
/// `STORED AS` clause (the Text default, both through the typed
/// part-file writer). Rows, read-back tables and declared schemas are
/// identical across all arms, and only the vectorized ORC-source arms
/// take the batched path.
#[test]
fn map_only_select_and_ctas_agree_across_all_arms() {
    const SELECT: &str = "SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS net, \
                          l_shipdate, l_returnflag FROM lineitem \
                          WHERE l_quantity < 10 AND l_shipdate >= DATE '1995-01-01'";
    const CTAS: [(&str, FormatKind); 2] =
        [(" STORED AS ORC", FormatKind::Orc), ("", FormatKind::Text)];
    let mut select_rows: Option<Vec<String>> = None;
    let mut ctas_schema = None;
    for source in [FormatKind::Orc, FormatKind::Text] {
        let mut d = Driver::in_memory();
        tpch::load(&mut d, 0.002, 20150701, source).expect("load tpch");
        d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            for vectorized in [false, true] {
                set_vectorized(&mut d, vectorized);
                let arm = format!("{source:?} {engine:?} vectorized={vectorized}");
                let assert_path = |d: &Driver, what: &str| {
                    let batched = counter_sum(d, "vec.batches") > 0;
                    let expected = vectorized && source == FormatKind::Orc;
                    assert_eq!(batched, expected, "{arm}: {what} took the wrong path");
                };

                let rows = d
                    .execute_on(SELECT, engine)
                    .unwrap_or_else(|e| panic!("{arm}: select: {e}"));
                assert_path(&d, "select");
                assert_eq!(rows.stages.len(), 1, "{arm}: select is one map-only stage");
                assert_eq!(rows.stages[0].reduce_tasks, 0, "{arm}");
                let rows = normalize(&rows);
                assert!(!rows.is_empty(), "{arm}: the filter keeps some rows");
                let expected = select_rows.get_or_insert_with(|| rows.clone());
                assert_eq!(&rows, expected, "{arm}: select rows differ");

                for (stored, format) in CTAS {
                    d.execute_on("DROP TABLE IF EXISTS slim", engine)
                        .unwrap_or_else(|e| panic!("{arm}: drop: {e}"));
                    d.execute_on(&format!("CREATE TABLE slim{stored} AS {SELECT}"), engine)
                        .unwrap_or_else(|e| panic!("{arm}: ctas{stored}: {e}"));
                    assert_path(&d, "ctas");
                    let meta = d.metastore().table("slim").expect("ctas table");
                    assert_eq!(meta.format, format, "{arm}");
                    let schema = ctas_schema.get_or_insert_with(|| meta.schema.clone());
                    assert_eq!(&meta.schema, schema, "{arm}: ctas{stored} schema differs");
                    let back = d
                        .execute_on("SELECT * FROM slim", engine)
                        .unwrap_or_else(|e| panic!("{arm}: read back{stored}: {e}"));
                    assert_eq!(
                        &normalize(&back),
                        expected,
                        "{arm}: ctas{stored} read-back differs from the select"
                    );
                }
            }
        }
    }
}

/// Bad `hive.vectorized.*` values surface as configuration errors.
#[test]
fn invalid_vectorized_conf_is_an_error() {
    let mut d = fresh_orc_tpch_driver();
    d.conf_mut().set(keys::KEY_VECTORIZED_BATCH_SIZE, 0i64);
    let err = d
        .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
        .expect_err("batch size 0 must be rejected");
    assert!(
        err.to_string().contains(keys::KEY_VECTORIZED_BATCH_SIZE),
        "unexpected error: {err}"
    );
    d.conf_mut().set(keys::KEY_VECTORIZED_BATCH_SIZE, 1024i64);
    d.conf_mut().set(keys::KEY_VECTORIZED, "sometimes");
    let err = d
        .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
        .expect_err("non-boolean flag must be rejected");
    assert!(
        err.to_string().contains(keys::KEY_VECTORIZED),
        "unexpected error: {err}"
    );
}

/// Vectorized execution under seeded storage faults: the retry path
/// re-reads columnar splits without corrupting results.
#[test]
fn vectorized_survives_storage_faults() {
    let mut d = fresh_orc_tpch_driver();
    set_vectorized(&mut d, true);
    let clean = d
        .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
        .expect("clean q6")
        .to_lines();
    d.conf_mut().set(keys::KEY_FT_ENABLED, true);
    d.conf_mut().set(keys::KEY_FT_SEED, 20150701i64);
    d.conf_mut().set(keys::KEY_FT_BACKOFF_BASE_MS, 1i64);
    d.conf_mut().set(keys::KEY_FT_RECV_TIMEOUT_MS, 400i64);
    for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
        let faulted = d
            .execute_on(tpch::queries::query(6), engine)
            .unwrap_or_else(|e| panic!("faulted q6 on {engine:?}: {e}"));
        assert_eq!(faulted.to_lines(), clean, "faults changed q6 on {engine:?}");
    }
}
