//! Cross-crate storage properties: tables written in either format are
//! readable by the full query stack; ORC's optimizations (column
//! pruning, predicate pushdown) change bytes read but never results, and
//! neither do the Text reader's scan-time predicates.

use hdm_common::conf as keys;
use hdm_common::row::Row;
use hdm_common::value::Value;
use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn load_table(d: &mut Driver, fmt: &str, rows: &[Row]) {
    d.execute(&format!(
        "CREATE TABLE data (id BIGINT, tag STRING, price DOUBLE, day DATE) STORED AS {fmt}"
    ))
    .expect("ddl");
    d.load_rows("data", rows).expect("load");
}

fn random_rows(seed: u64, n: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every column a probe filters on holds some NULLs, so null rejection
    // is exercised in the readers as well as in the filter operator.
    let nullable = |rng: &mut StdRng, v: Value| {
        if rng.random_bool(0.1) {
            Value::Null
        } else {
            v
        }
    };
    (0..n)
        .map(|i| {
            let tag = Value::Str(format!("tag{}", rng.random_range(0..5)));
            let price = (rng.random_range(-500.0f64..500.0) * 100.0).round() / 100.0;
            let day = Value::date_from_ymd(1995, rng.random_range(1..13), rng.random_range(1..29));
            Row::from(vec![
                Value::Long(i as i64),
                nullable(&mut rng, tag),
                nullable(&mut rng, Value::Double(price)),
                nullable(&mut rng, day),
            ])
        })
        .collect()
}

const PROBES: &[&str] = &[
    "SELECT COUNT(*) FROM data",
    "SELECT id, tag FROM data WHERE price > 0 ORDER BY id",
    "SELECT tag, COUNT(*) AS n, SUM(price) AS s FROM data GROUP BY tag ORDER BY tag",
    "SELECT id FROM data WHERE day >= DATE '1995-06-01' AND price BETWEEN -100 AND 100 ORDER BY id",
    "SELECT MAX(day), MIN(day) FROM data",
    "SELECT id FROM data WHERE tag = 'tag1' ORDER BY id",
    "SELECT id, day, price FROM data WHERE day < DATE '1995-03-01' AND price <= 0 ORDER BY id",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn formats_are_query_equivalent(seed in any::<u64>(), n in 1usize..300) {
        let rows = random_rows(seed, n);
        let mut text = Driver::in_memory();
        load_table(&mut text, "TEXTFILE", &rows);
        let mut orc = Driver::in_memory();
        load_table(&mut orc, "ORC", &rows);
        for sql in PROBES {
            let a = text.execute(sql).expect("text").to_lines();
            let b = orc.execute(sql).expect("orc").to_lines();
            prop_assert_eq!(a, b, "format mismatch for {}", sql);
        }
    }
}

#[test]
fn orc_stores_fewer_bytes_than_text() {
    let rows = random_rows(42, 5000);
    let mut text = Driver::in_memory();
    load_table(&mut text, "TEXTFILE", &rows);
    let mut orc = Driver::in_memory();
    load_table(&mut orc, "ORC", &rows);
    let tb = text
        .metastore()
        .storage
        .table_bytes(text.dfs(), "data")
        .unwrap();
    let ob = orc
        .metastore()
        .storage
        .table_bytes(orc.dfs(), "data")
        .unwrap();
    assert!(ob < tb, "ORC {ob} should be smaller than Text {tb}");
}

#[test]
fn orc_selective_scan_reads_fewer_bytes() {
    let rows = random_rows(7, 8000);
    let mut orc = Driver::in_memory();
    load_table(&mut orc, "ORC", &rows);
    // Selective predicate + narrow projection: pushdown prunes stripes
    // and the projection prunes columns.
    let selective = orc.execute("SELECT id FROM data WHERE id >= 7900").unwrap();
    let full = orc
        .execute("SELECT id, tag, price, day FROM data WHERE price > -10000.0")
        .unwrap();
    let sel_bytes: u64 = selective
        .stages
        .iter()
        .map(|s| s.volumes.total_input_bytes())
        .sum();
    let full_bytes: u64 = full
        .stages
        .iter()
        .map(|s| s.volumes.total_input_bytes())
        .sum();
    assert!(
        sel_bytes * 3 < full_bytes,
        "selective scan should read far less: {sel_bytes} vs {full_bytes}"
    );
    assert_eq!(selective.rows.len(), 100);
}

#[test]
fn pushdown_off_reads_more_but_same_results() {
    let rows = random_rows(9, 12000); // three ORC stripes: prunable
    let mut orc = Driver::in_memory();
    load_table(&mut orc, "ORC", &rows);
    let sql = "SELECT id FROM data WHERE id < 50 ORDER BY id";
    let with = orc.execute(sql).unwrap();
    orc.conf_mut().set("hive.orc.pushdown", false);
    let without = orc.execute(sql).unwrap();
    assert_eq!(with.to_lines(), without.to_lines());
    let wb: u64 = with
        .stages
        .iter()
        .map(|s| s.volumes.total_input_bytes())
        .sum();
    let wob: u64 = without
        .stages
        .iter()
        .map(|s| s.volumes.total_input_bytes())
        .sum();
    assert!(wb < wob, "pushdown should cut bytes: {wb} vs {wob}");
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

/// `hive.orc.pushdown` gates the Text reader's scan-time predicates and
/// nothing a query can see: all 22 TPC-H queries over Text return
/// byte-identical rows with it on and off, on both engines. The counters
/// say who removed the rows — the reader (`text.rows.skipped`) or the
/// filter operator — and the filter's output (`stage.map.records`) is
/// the same either way.
#[test]
fn text_pushdown_on_off_is_row_identical_tpch() {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, FormatKind::Text).expect("load tpch (text)");
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    let mut skipped_total = 0;
    for n in tpch::queries::all() {
        let sql = tpch::queries::query(n);
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            d.conf_mut().set(keys::KEY_ORC_PUSHDOWN, true);
            let on = d
                .execute_on(sql, engine)
                .unwrap_or_else(|e| panic!("q{n} {engine:?} pushdown on: {e}"));
            let (skipped, records) = (
                counter_sum(&d, "text.rows.skipped"),
                counter_sum(&d, "stage.map.records"),
            );
            d.conf_mut().set(keys::KEY_ORC_PUSHDOWN, false);
            let off = d
                .execute_on(sql, engine)
                .unwrap_or_else(|e| panic!("q{n} {engine:?} pushdown off: {e}"));
            assert_eq!(
                on.to_lines(),
                off.to_lines(),
                "q{n} {engine:?}: scan-time predicates changed rows"
            );
            assert_eq!(counter_sum(&d, "text.rows.skipped"), 0, "q{n} {engine:?}");
            assert_eq!(
                counter_sum(&d, "stage.map.records"),
                records,
                "q{n} {engine:?}: the filter passed a different row count"
            );
            skipped_total += skipped;
        }
    }
    assert!(skipped_total > 0, "no query pushed a predicate into Text");
}

#[test]
fn ctas_across_formats_round_trips() {
    let rows = random_rows(3, 500);
    let mut d = Driver::in_memory();
    load_table(&mut d, "TEXTFILE", &rows);
    d.execute("CREATE TABLE copy_orc STORED AS ORC AS SELECT id, tag, price, day FROM data")
        .unwrap();
    d.execute(
        "CREATE TABLE copy_txt STORED AS TEXTFILE AS SELECT id, tag, price, day FROM copy_orc",
    )
    .unwrap();
    let original = d
        .execute("SELECT id, price FROM data ORDER BY id")
        .unwrap()
        .to_lines();
    let round = d
        .execute("SELECT id, price FROM copy_txt ORDER BY id")
        .unwrap()
        .to_lines();
    assert_eq!(original, round);
}

#[test]
fn engines_read_each_others_insert_overwrite_output() {
    let rows = random_rows(11, 400);
    let mut d = Driver::in_memory();
    load_table(&mut d, "ORC", &rows);
    d.execute("CREATE TABLE agg (tag STRING, n BIGINT) STORED AS ORC")
        .unwrap();
    // Write with DataMPI, read with Hadoop.
    d.execute_on(
        "INSERT OVERWRITE TABLE agg SELECT tag, COUNT(*) AS n FROM data GROUP BY tag",
        EngineKind::DataMpi,
    )
    .unwrap();
    let via_hadoop = d
        .execute_on("SELECT tag, n FROM agg ORDER BY tag", EngineKind::Hadoop)
        .unwrap()
        .to_lines();
    let direct = d
        .execute_on(
            "SELECT tag, COUNT(*) AS n FROM data GROUP BY tag ORDER BY tag",
            EngineKind::Hadoop,
        )
        .unwrap()
        .to_lines();
    assert_eq!(via_hadoop, direct);
}
