//! TPC-H: schemas, generator, loader, and the 22-query suite.

pub mod dbgen;
pub mod queries;

use hdm_common::error::Result;
use hdm_common::value::DataType;
use hdm_core::Driver;
use hdm_storage::FormatKind;

/// The eight TPC-H tables in load order.
pub const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
];

/// Column definitions of one table (TPC-H §1.4, decimals as DOUBLE).
pub fn schema_of(table: &str) -> Vec<(&'static str, DataType)> {
    use DataType::*;
    match table {
        "region" => vec![
            ("r_regionkey", Long),
            ("r_name", String),
            ("r_comment", String),
        ],
        "nation" => vec![
            ("n_nationkey", Long),
            ("n_name", String),
            ("n_regionkey", Long),
            ("n_comment", String),
        ],
        "supplier" => vec![
            ("s_suppkey", Long),
            ("s_name", String),
            ("s_address", String),
            ("s_nationkey", Long),
            ("s_phone", String),
            ("s_acctbal", Double),
            ("s_comment", String),
        ],
        "customer" => vec![
            ("c_custkey", Long),
            ("c_name", String),
            ("c_address", String),
            ("c_nationkey", Long),
            ("c_phone", String),
            ("c_acctbal", Double),
            ("c_mktsegment", String),
            ("c_comment", String),
        ],
        "part" => vec![
            ("p_partkey", Long),
            ("p_name", String),
            ("p_mfgr", String),
            ("p_brand", String),
            ("p_type", String),
            ("p_size", Long),
            ("p_container", String),
            ("p_retailprice", Double),
            ("p_comment", String),
        ],
        "partsupp" => vec![
            ("ps_partkey", Long),
            ("ps_suppkey", Long),
            ("ps_availqty", Long),
            ("ps_supplycost", Double),
            ("ps_comment", String),
        ],
        "orders" => vec![
            ("o_orderkey", Long),
            ("o_custkey", Long),
            ("o_orderstatus", String),
            ("o_totalprice", Double),
            ("o_orderdate", Date),
            ("o_orderpriority", String),
            ("o_clerk", String),
            ("o_shippriority", Long),
            ("o_comment", String),
        ],
        "lineitem" => vec![
            ("l_orderkey", Long),
            ("l_partkey", Long),
            ("l_suppkey", Long),
            ("l_linenumber", Long),
            ("l_quantity", Double),
            ("l_extendedprice", Double),
            ("l_discount", Double),
            ("l_tax", Double),
            ("l_returnflag", String),
            ("l_linestatus", String),
            ("l_shipdate", Date),
            ("l_commitdate", Date),
            ("l_receiptdate", Date),
            ("l_shipinstruct", String),
            ("l_shipmode", String),
            ("l_comment", String),
        ],
        other => panic!("unknown TPC-H table {other}"),
    }
}

/// What [`load`] measured while loading.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// Bytes physically stored (format-dependent: ORC is smaller).
    pub stored_bytes: u64,
    /// Text-format-equivalent bytes of the same logical data — the
    /// *logical* dataset size. Nominal sizes like "the 40 GB data set"
    /// refer to this, so scaling a 40 GB experiment is format-neutral.
    pub text_bytes: u64,
}

/// Create all eight tables in `format` and load a generated dataset.
///
/// # Errors
/// Propagates DDL/load failures.
pub fn load_with_stats(
    driver: &mut Driver,
    scale: f64,
    seed: u64,
    format: FormatKind,
) -> Result<LoadStats> {
    let data = dbgen::generate(scale, seed);
    load_generated(driver, &data, format)
}

fn load_generated(
    driver: &mut Driver,
    data: &std::collections::HashMap<&'static str, Vec<hdm_common::row::Row>>,
    format: FormatKind,
) -> Result<LoadStats> {
    let mut text_bytes = 0u64;
    for table in TABLES {
        for row in &data[table] {
            text_bytes += hdm_storage::text::format_row(row, b'|').len() as u64 + 1;
        }
    }
    let mut total = 0;
    for table in TABLES {
        let columns: Vec<(String, DataType)> = schema_of(table)
            .into_iter()
            .map(|(n, t)| (n.to_string(), t))
            .collect();
        driver.execute(&format!(
            "CREATE TABLE {table} ({}) STORED AS {}",
            columns
                .iter()
                .map(|(n, t)| format!("{n} {t}"))
                .collect::<Vec<_>>()
                .join(", "),
            match format {
                FormatKind::Text => "TEXTFILE",
                FormatKind::Orc => "ORC",
            }
        ))?;
        total += driver.load_rows(table, &data[table])?;
    }
    Ok(LoadStats {
        stored_bytes: total,
        text_bytes,
    })
}

/// [`load_with_stats`] returning only the stored bytes.
///
/// # Errors
/// Propagates DDL/load failures.
pub fn load(driver: &mut Driver, scale: f64, seed: u64, format: FormatKind) -> Result<u64> {
    Ok(load_with_stats(driver, scale, seed, format)?.stored_bytes)
}

/// [`load`] with date-clustered fact tables: `lineitem` is sorted by
/// `l_shipdate` and `orders` by `o_orderdate` before loading.
///
/// Clustering narrows each ORC stripe's date min/max range so that
/// planner-side predicate pushdown can prune whole stripes on date
/// filters (e.g. Q6's one-year shipdate window). Query results are
/// unaffected — base-table row order is not part of any query contract.
///
/// # Errors
/// Propagates DDL/load failures.
pub fn load_clustered(
    driver: &mut Driver,
    scale: f64,
    seed: u64,
    format: FormatKind,
) -> Result<u64> {
    let mut data = dbgen::generate(scale, seed);
    for (table, col) in [("lineitem", 10usize), ("orders", 4usize)] {
        if let Some(rows) = data.get_mut(table) {
            rows.sort_by(|a, b| {
                let null = hdm_common::value::Value::Null;
                let l = a.values().get(col).unwrap_or(&null);
                let r = b.values().get(col).unwrap_or(&null);
                l.total_cmp(r)
            });
        }
    }
    Ok(load_generated(driver, &data, format)?.stored_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_have_spec_arity() {
        assert_eq!(schema_of("lineitem").len(), 16);
        assert_eq!(schema_of("orders").len(), 9);
        assert_eq!(schema_of("part").len(), 9);
        assert_eq!(schema_of("customer").len(), 8);
        assert_eq!(schema_of("supplier").len(), 7);
        assert_eq!(schema_of("partsupp").len(), 5);
        assert_eq!(schema_of("nation").len(), 4);
        assert_eq!(schema_of("region").len(), 3);
    }

    #[test]
    fn load_creates_tables_with_rows() {
        let mut d = Driver::in_memory();
        let bytes = load(&mut d, 0.001, 7, FormatKind::Text).unwrap();
        assert!(bytes > 0);
        for t in TABLES {
            assert!(d.metastore().contains(t), "missing {t}");
        }
        let r = d.execute("SELECT COUNT(*) FROM lineitem").unwrap();
        let n = r.rows[0].get(0).as_i64().unwrap();
        assert!(n > 100, "lineitem too small: {n}");
    }
}
