//! Vectorized execution differential harness.
//!
//! Pins the tentpole invariant of the columnar operator pipeline:
//! `hive.vectorized.execution.enabled` is a pure performance knob.
//!
//! 1. **Differential sweep** — all 22 TPC-H queries over ORC and over
//!    Text × both engines × {pipelined on, off} × {vectorized on, off}
//!    must produce *byte-identical* collected rows within each (source,
//!    engine, pipelined) arm, and normalized-identical rows across every
//!    arm of a source.
//! 2. **Path assertions** — Q1 and Q6 over ORC and Q6 over Text actually
//!    take the batched path (`vec.batches` counter > 0 vectorized-on,
//!    == 0 vectorized-off), and so do the stage kinds the batch path once
//!    refused: DISTINCT aggregates and joins with a residual.
//! 3. **Pruning** — a date-clustered ORC load lets Q6's pushed-down
//!    shipdate window prune whole stripes (`orc.stripes.pruned` > 0)
//!    without changing the answer; `hive.orc.pushdown=false` restores
//!    the full scan.
//! 4. **Map-only stages** — no TPC-H query has one, so a filter +
//!    projection `SELECT` and ORC / Text CTAS over ORC and Text
//!    `lineitem` pin the batch → map-only route and the typed map-only
//!    writer on both engines, vectorized on and off.

use hdm_common::conf as keys;
use hdm_core::ast::Statement;
use hdm_core::logical::analyze;
use hdm_core::parser::parse_statement;
use hdm_core::physical::{plan_select, StageKind, StageOutput};
use hdm_core::{Driver, EngineKind, QueryResult};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;

fn fresh_tpch_driver(format: FormatKind) -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
    d
}

fn fresh_orc_tpch_driver() -> Driver {
    fresh_tpch_driver(FormatKind::Orc)
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

/// One obs counter of one stage of the last query.
fn stage_counter(d: &Driver, name: &str, stage: usize) -> u64 {
    let snap = d.last_obs_snapshot().expect("obs snapshot");
    let label = format!("stage={stage}");
    snap.counters
        .iter()
        .filter(|(n, l, _)| n == name && *l == label)
        .map(|(_, _, v)| *v)
        .sum()
}

/// All 22 TPC-H queries over ORC and over Text × both engines ×
/// pipelined {off, on} × vectorized {off, on}: byte-identical rows within
/// each (source, engine, pipelined) arm, normalized-identical across the
/// arms of a source. The Text arm is there since Text scans decode into
/// batches too: every Text stage now runs the kernels vectorized-on.
#[test]
fn tpch_differential_vectorized_on_off() {
    for source in [FormatKind::Orc, FormatKind::Text] {
        let mut d = fresh_tpch_driver(source);
        for n in tpch::queries::all() {
            let sql = tpch::queries::query(n);
            let mut baseline: Option<Vec<String>> = None;
            for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
                for pipelined in [false, true] {
                    let arm = format!("q{n} {source:?} {engine:?} pipelined={pipelined}");
                    set_pipelined(&mut d, pipelined);
                    set_vectorized(&mut d, false);
                    let off = d
                        .execute_on(sql, engine)
                        .unwrap_or_else(|e| panic!("{arm} vec-off: {e}"));
                    set_vectorized(&mut d, true);
                    let on = d
                        .execute_on(sql, engine)
                        .unwrap_or_else(|e| panic!("{arm} vec-on: {e}"));
                    assert_eq!(
                        off.to_lines(),
                        on.to_lines(),
                        "{arm}: vectorization changed rows"
                    );
                    let norm = normalize(&on);
                    match &baseline {
                        None => baseline = Some(norm),
                        Some(b) => assert_eq!(b, &norm, "{arm}: arm disagrees with baseline"),
                    }
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

/// A Text split decodes straight into column batches: Q6 over Text
/// takes the batched path vectorized-on (it fell back to rows when Text
/// had no columnar reader), the row path vectorized-off, and answers the
/// same either way. The reader's own predicate drops still count.
#[test]
fn text_tables_take_the_batched_path() {
    let mut d = fresh_tpch_driver(FormatKind::Text);
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    let mut answers = Vec::new();
    for vectorized in [true, false] {
        set_vectorized(&mut d, vectorized);
        let r = d
            .execute_on(tpch::queries::query(6), EngineKind::DataMpi)
            .expect("q6 over text");
        assert_eq!(r.rows.len(), 1);
        answers.push(r.to_lines());
        let batched = counter_sum(&d, "vec.batches") > 0;
        assert_eq!(batched, vectorized, "vectorized={vectorized}");
        assert!(
            counter_sum(&d, "text.rows.skipped") > 0,
            "vectorized={vectorized}"
        );
    }
    assert_eq!(answers[0], answers[1]);
}

/// No stage kind is refused the batch path. The map side of a DISTINCT
/// aggregate (raw inputs shipped to the reducer) and of a join with a
/// residual (evaluated reduce-side over joined rows) is filter → project
/// → emit, which the batch pipeline runs from columns; both used to be
/// kept on the row path by a planner eligibility rule. Rows equal the
/// row path's.
#[test]
fn distinct_and_residual_join_stages_batch() {
    const DISTINCT: &str = "SELECT COUNT(DISTINCT l_suppkey) FROM lineitem";
    const RESIDUAL: &str = "SELECT o_orderpriority, COUNT(*) FROM orders JOIN lineitem \
                            ON o_orderkey = l_orderkey AND l_extendedprice * 4 > o_totalprice \
                            GROUP BY o_orderpriority";
    let mut d = fresh_orc_tpch_driver();
    // Forget the recorded sizes: the join shuffles, so its residual is
    // the join stage's own.
    for table in d.metastore().table_names() {
        d.metastore().bump_version(&table);
    }
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    let Some(Statement::Select(query)) = parse_statement(RESIDUAL).ok() else {
        panic!("not a SELECT");
    };
    let qb = analyze(&query, d.metastore()).expect("analyze");
    let plan = plan_select(&qb, StageOutput::Collect).expect("plan");
    assert!(
        matches!(
            &plan.stages[0].kind,
            StageKind::Join {
                residual: Some(_),
                ..
            }
        ),
        "stage 0 is a join with a residual"
    );
    for (sql, stage) in [(DISTINCT, 0), (RESIDUAL, 0)] {
        let mut answers = Vec::new();
        for vectorized in [true, false] {
            set_vectorized(&mut d, vectorized);
            let r = d
                .execute_on(sql, EngineKind::DataMpi)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert!(!r.rows.is_empty(), "{sql}");
            answers.push(normalize(&r));
            let batches = stage_counter(&d, "vec.batches", stage);
            assert_eq!(batches > 0, vectorized, "{sql}: vectorized={vectorized}");
        }
        assert_eq!(answers[0], answers[1], "{sql}");
    }
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
/// identical across all arms, and every vectorized arm takes the batched
/// path: Text sources decode into batches as ORC ones do.
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
                    assert_eq!(batched, vectorized, "{arm}: {what} took the wrong path");
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
