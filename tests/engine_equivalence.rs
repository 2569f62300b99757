//! Property: for any query shape and dataset, the Hadoop and DataMPI
//! engines produce identical result sets — the foundation of the
//! paper's "fully and transparently support" claim.

use hdm_common::row::Row;
use hdm_common::value::Value;
use hdm_core::{Driver, EngineKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn driver_with_random_tables(seed: u64, rows_a: usize, rows_b: usize) -> Driver {
    let d = Driver::in_memory();
    d.execute("CREATE TABLE ta (k BIGINT, grp STRING, x DOUBLE)")
        .expect("ddl a");
    d.execute("CREATE TABLE tb (k BIGINT, label STRING)")
        .expect("ddl b");
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<Row> = (0..rows_a)
        .map(|_| {
            Row::from(vec![
                Value::Long(rng.random_range(0..40)),
                Value::Str(format!("g{}", rng.random_range(0..6))),
                Value::Double((rng.random_range(-100.0f64..100.0) * 10.0).round() / 10.0),
            ])
        })
        .collect();
    let b: Vec<Row> = (0..rows_b)
        .map(|_| {
            Row::from(vec![
                Value::Long(rng.random_range(0..40)),
                Value::Str(format!("l{}", rng.random_range(0..10))),
            ])
        })
        .collect();
    d.load_rows("ta", &a).expect("load a");
    d.load_rows("tb", &b).expect("load b");
    d
}

fn both_engines_agree(d: &mut Driver, sql: &str) {
    let mut hadoop = d
        .execute_on(sql, EngineKind::Hadoop)
        .unwrap_or_else(|e| panic!("hadoop failed for {sql}: {e}"))
        .to_lines();
    let mut datampi = d
        .execute_on(sql, EngineKind::DataMpi)
        .unwrap_or_else(|e| panic!("datampi failed for {sql}: {e}"))
        .to_lines();
    hadoop.sort();
    datampi.sort();
    assert_eq!(hadoop, datampi, "engines disagree on: {sql}");
}

const QUERY_SHAPES: &[&str] = &[
    "SELECT k, grp FROM ta WHERE x > 0",
    "SELECT grp, COUNT(*) AS n, SUM(x) AS s, MIN(x) AS mn, MAX(x) AS mx FROM ta GROUP BY grp",
    "SELECT COUNT(*) AS n, AVG(x) AS a FROM ta",
    "SELECT grp, COUNT(DISTINCT k) AS dk FROM ta GROUP BY grp",
    "SELECT label, SUM(x) AS s FROM ta JOIN tb ON ta.k = tb.k GROUP BY label",
    "SELECT ta.k, x, label FROM ta LEFT OUTER JOIN tb ON ta.k = tb.k",
    "SELECT ta.k FROM ta LEFT SEMI JOIN tb ON ta.k = tb.k",
    "SELECT ta.k FROM ta LEFT ANTI JOIN tb ON ta.k = tb.k",
    "SELECT grp, x FROM ta ORDER BY x DESC, grp LIMIT 7",
    "SELECT grp, CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END AS sign, COUNT(*) AS n \
     FROM ta GROUP BY grp, CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END",
    "SELECT grp, COUNT(*) AS n FROM ta GROUP BY grp HAVING COUNT(*) > 2 ORDER BY n DESC",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn engines_agree_on_random_data(seed in any::<u64>(), rows_a in 1usize..120, rows_b in 0usize..60) {
        let mut d = driver_with_random_tables(seed, rows_a, rows_b.max(1));
        for sql in QUERY_SHAPES {
            both_engines_agree(&mut d, sql);
        }
    }
}

#[test]
fn engines_agree_on_edge_datasets() {
    // Single row everywhere.
    let mut d = driver_with_random_tables(1, 1, 1);
    for sql in QUERY_SHAPES {
        both_engines_agree(&mut d, sql);
    }
    // All keys identical (maximum skew: one reducer gets everything).
    let mut d = Driver::in_memory();
    d.execute("CREATE TABLE ta (k BIGINT, grp STRING, x DOUBLE)")
        .unwrap();
    d.execute("CREATE TABLE tb (k BIGINT, label STRING)")
        .unwrap();
    let rows: Vec<Row> = (0..200)
        .map(|i| {
            Row::from(vec![
                Value::Long(7),
                Value::Str("g".into()),
                Value::Double(i as f64),
            ])
        })
        .collect();
    d.load_rows("ta", &rows).unwrap();
    d.load_rows(
        "tb",
        &[Row::from(vec![Value::Long(7), Value::Str("hit".into())])],
    )
    .unwrap();
    for sql in QUERY_SHAPES {
        both_engines_agree(&mut d, sql);
    }
}

#[test]
fn engines_agree_with_nulls_in_data() {
    let mut d = Driver::in_memory();
    d.execute("CREATE TABLE ta (k BIGINT, grp STRING, x DOUBLE)")
        .unwrap();
    d.execute("CREATE TABLE tb (k BIGINT, label STRING)")
        .unwrap();
    let rows = vec![
        Row::from(vec![Value::Long(1), Value::Null, Value::Double(1.0)]),
        Row::from(vec![Value::Null, Value::Str("g1".into()), Value::Null]),
        Row::from(vec![
            Value::Long(2),
            Value::Str("g1".into()),
            Value::Double(-1.0),
        ]),
        Row::from(vec![Value::Long(1), Value::Str("g2".into()), Value::Null]),
    ];
    d.load_rows("ta", &rows).unwrap();
    d.load_rows(
        "tb",
        &[Row::from(vec![Value::Long(1), Value::Str("one".into())])],
    )
    .unwrap();
    for sql in QUERY_SHAPES {
        both_engines_agree(&mut d, sql);
    }
}

#[test]
fn shuffle_styles_agree() {
    let mut d = driver_with_random_tables(99, 100, 40);
    let sql = "SELECT grp, COUNT(*) AS n, SUM(x) AS s FROM ta GROUP BY grp ORDER BY grp";
    let nonblocking = d.execute_on(sql, EngineKind::DataMpi).unwrap().to_lines();
    d.conf_mut()
        .set(hdm_common::conf::KEY_SHUFFLE_STYLE, "blocking");
    let blocking = d.execute_on(sql, EngineKind::DataMpi).unwrap().to_lines();
    assert_eq!(nonblocking, blocking, "shuffle style changed results");
}
