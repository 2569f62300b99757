//! End-to-end TPC-H: all 22 queries execute on both engines against a
//! generated dataset, in both storage formats, producing identical
//! results — the functional backbone of the paper's Table II / Figure 12
//! claims ("Hive on DataMPI can fully and transparently support all
//! TPC-H queries").

use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;

fn fresh_driver(format: FormatKind) -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
    d
}

fn run_query(d: &mut Driver, n: usize, engine: EngineKind) -> Vec<String> {
    let result = d
        .execute_on(tpch::queries::query(n), engine)
        .unwrap_or_else(|e| panic!("Q{n} failed on {engine:?}: {e}"));
    result.to_lines()
}

/// Sorted-line comparison with float canonicalization: engines sum
/// partitions in different orders, so floating-point cells can differ in
/// their last ulps. Fractional fields are rounded to 6 significant
/// digits; everything else must match exactly.
fn normalize(mut lines: Vec<String>) -> Vec<String> {
    for line in &mut lines {
        let fields: Vec<String> = line
            .split('\t')
            .map(|f| {
                if f.contains('.') {
                    match f.parse::<f64>() {
                        Ok(x) => format!("{x:.5e}"),
                        Err(_) => f.to_string(),
                    }
                } else {
                    f.to_string()
                }
            })
            .collect();
        *line = fields.join("\t");
    }
    lines.sort();
    lines
}

#[test]
fn all_22_queries_agree_across_engines_text_format() {
    let mut d = fresh_driver(FormatKind::Text);
    for n in tpch::queries::all() {
        let hadoop = normalize(run_query(&mut d, n, EngineKind::Hadoop));
        let datampi = normalize(run_query(&mut d, n, EngineKind::DataMpi));
        assert_eq!(hadoop, datampi, "Q{n}: engines disagree");
    }
}

#[test]
fn all_22_queries_agree_across_formats_on_datampi() {
    let mut dt = fresh_driver(FormatKind::Text);
    let mut do_ = fresh_driver(FormatKind::Orc);
    for n in tpch::queries::all() {
        let text = normalize(run_query(&mut dt, n, EngineKind::DataMpi));
        let orc = normalize(run_query(&mut do_, n, EngineKind::DataMpi));
        assert_eq!(text, orc, "Q{n}: formats disagree");
    }
}

#[test]
fn selected_queries_return_plausible_shapes() {
    let mut d = fresh_driver(FormatKind::Orc);
    // Q1: at most 4 (returnflag, linestatus) groups.
    let q1 = run_query(&mut d, 1, EngineKind::DataMpi);
    assert!((1..=4).contains(&q1.len()), "Q1 groups: {}", q1.len());
    // Q4: at most the 5 order priorities.
    let q4 = run_query(&mut d, 4, EngineKind::DataMpi);
    assert!(q4.len() <= 5);
    // Q6: exactly one row.
    let q6 = run_query(&mut d, 6, EngineKind::DataMpi);
    assert_eq!(q6.len(), 1);
    // Q13: the count distribution must cover every customer.
    let q13 = run_query(&mut d, 13, EngineKind::Hadoop);
    let total: i64 = q13
        .iter()
        .map(|l| l.split('\t').nth(1).unwrap().parse::<i64>().unwrap())
        .sum();
    let customers = d.execute("SELECT COUNT(*) FROM customer").unwrap().rows[0]
        .get(0)
        .as_i64()
        .unwrap();
    assert_eq!(total, customers, "Q13 must cover every customer");
    // Q22: country codes are two digits.
    let q22 = run_query(&mut d, 22, EngineKind::DataMpi);
    for line in &q22 {
        let code = line.split('\t').next().unwrap();
        assert_eq!(code.len(), 2, "bad country code {code}");
    }
}

#[test]
fn enhanced_parallelism_matches_default_results() {
    let mut d = fresh_driver(FormatKind::Text);
    for n in [3, 5, 9, 12] {
        let default_rows = normalize(run_query(&mut d, n, EngineKind::DataMpi));
        d.conf_mut()
            .set(hdm_common::conf::KEY_PARALLELISM, "enhanced");
        let enhanced_rows = normalize(run_query(&mut d, n, EngineKind::DataMpi));
        d.conf_mut()
            .set(hdm_common::conf::KEY_PARALLELISM, "default");
        assert_eq!(
            default_rows, enhanced_rows,
            "Q{n}: parallelism changed results"
        );
    }
}

#[test]
fn stacked_features_still_agree() {
    // Everything at once: ORC storage + enhanced parallelism + streamed
    // intermediates (the DataMPI default) + blocking shuffle must not
    // change any result.
    let mut base = fresh_driver(FormatKind::Text);
    let mut stacked = fresh_driver(FormatKind::Orc);
    stacked
        .conf_mut()
        .set(hdm_common::conf::KEY_PARALLELISM, "enhanced");
    stacked
        .conf_mut()
        .set(hdm_common::conf::KEY_SHUFFLE_STYLE, "blocking");
    for n in [1, 3, 9, 13, 16, 21, 22] {
        let plain = normalize(run_query(&mut base, n, EngineKind::Hadoop));
        let full = normalize(run_query(&mut stacked, n, EngineKind::DataMpi));
        assert_eq!(plain, full, "Q{n}: stacked configuration changed results");
    }
}

/// Q21 over a dataset in which no SAUDI ARABIA supplier qualifies: a
/// plan whose streamed stages (DataMPI, default conf) end in empty
/// partitions. Three stages — `lineitem ⋈ orders`, aggregate, sort:
/// `supplier`, `nation` and the two CTAS temp tables each fit one DFS
/// block, so their four joins (once a stage each, seven in all) run
/// inside the aggregate's map pipeline. Both engines must return the same columns and no
/// rows. Seed 105 at SF 0.01 is such a dataset; the end-to-end
/// benchmark's seed list reaches it.
#[test]
fn q21_with_an_empty_result_agrees_across_engines() {
    let mut d = Driver::in_memory();
    tpch::load_clustered(&mut d, 0.01, 105, FormatKind::Orc).expect("load tpch");
    let run = |d: &mut Driver, engine| {
        d.execute_on(tpch::queries::query(21), engine)
            .unwrap_or_else(|e| panic!("Q21 failed on {engine:?}: {e}"))
    };
    let hadoop = run(&mut d, EngineKind::Hadoop);
    let datampi = run(&mut d, EngineKind::DataMpi);
    assert_eq!(hadoop.stages.len(), 3);
    assert_eq!(datampi.stages.len(), 3);
    assert!(!hadoop.columns.is_empty());
    assert_eq!(hadoop.columns, datampi.columns);
    assert!(hadoop.rows.is_empty(), "{:?}", hadoop.rows);
    assert!(datampi.rows.is_empty(), "{:?}", datampi.rows);
}
