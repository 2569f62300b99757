//! Result checking: digests of result rows, and oracles computed by the
//! harness directly from the generated rows — independent of the parser,
//! planner, engines and storage formats under test.

use hdm_common::row::Row;
use hdm_common::value::Value;
use hdm_core::QueryResult;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

/// Relative tolerance when an engine's double is compared with the
/// oracle's: the two sum in different orders.
pub const REL_TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Whether a statement fixes the order of its rows.
pub fn is_ordered(sql: &str) -> bool {
    sql.contains("ORDER BY")
}

/// Digest of a statement's result. Exact, doubles included: both
/// engines make merge order a pure function of the input, so equal
/// inputs give equal bytes. Rows of a statement without `ORDER BY` are
/// combined order-insensitively, because SQL leaves their order open.
/// A statement that returns no rows (CTAS) digests what it wrote instead.
pub fn digest(result: &QueryResult, ordered: bool) -> u64 {
    let mut acc = DefaultHasher::new();
    result.rows.len().hash(&mut acc);
    if ordered {
        result.rows.hash(&mut acc);
    } else {
        let sum = result.rows.iter().fold(0u64, |sum, row| {
            let mut h = DefaultHasher::new();
            row.hash(&mut h);
            sum.wrapping_add(h.finish())
        });
        sum.hash(&mut acc);
    }
    if result.rows.is_empty() {
        for stage in &result.stages {
            stage.volumes.total_output_bytes().hash(&mut acc);
        }
    }
    acc.finish()
}

fn f(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn date(s: &str) -> i32 {
    match Value::parse_date(s) {
        Some(Value::Date(d)) => d,
        _ => unreachable!("harness date literal {s}"),
    }
}

/// The `lineitem` columns the oracles need, extracted once.
pub struct LineitemFacts {
    rows: Vec<LineFact>,
}

struct LineFact {
    quantity: f64,
    price: f64,
    discount: f64,
    tax: f64,
    flag: String,
    status: String,
    shipdate: i32,
}

impl LineitemFacts {
    pub fn from_rows(lineitem: &[Row]) -> LineitemFacts {
        let rows = lineitem
            .iter()
            .map(|r| LineFact {
                quantity: f(r.get(4)),
                price: f(r.get(5)),
                discount: f(r.get(6)),
                tax: f(r.get(7)),
                flag: r.get(8).to_string(),
                status: r.get(9).to_string(),
                shipdate: match r.get(10) {
                    Value::Date(d) => *d,
                    _ => i32::MIN,
                },
            })
            .collect();
        LineitemFacts { rows }
    }

    /// TPC-H Q6 with its year and quantity limit as parameters:
    /// `SUM(l_extendedprice * l_discount)` over one ship year,
    /// discount in `[0.05, 0.07]`, quantity below `quantity_below`.
    pub fn q6_revenue(&self, year: i32, quantity_below: f64) -> f64 {
        let (from, to) = (
            date(&format!("{year}-01-01")),
            date(&format!("{}-01-01", year + 1)),
        );
        self.rows
            .iter()
            .filter(|l| {
                (from..to).contains(&l.shipdate)
                    && (0.05..=0.07).contains(&l.discount)
                    && l.quantity < quantity_below
            })
            .map(|l| l.price * l.discount)
            .sum()
    }

    /// Check a Q6-shaped result (one row, one double).
    pub fn check_q6(&self, rows: &[Row], year: i32, quantity_below: f64) -> Result<(), String> {
        let want = self.q6_revenue(year, quantity_below);
        match rows {
            [row] if row.len() == 1 && close(f(row.get(0)), want) => Ok(()),
            _ => Err(format!(
                "q6({year}, {quantity_below}): oracle {want}, got {:?}",
                rows.iter().map(Row::to_string).collect::<Vec<_>>()
            )),
        }
    }

    /// Check TPC-H Q1: eight aggregates per (returnflag, linestatus),
    /// ordered by the two flags.
    pub fn check_q1(&self, rows: &[Row]) -> Result<(), String> {
        let cutoff = date("1998-09-02");
        // [sum_qty, sum_base, sum_disc, sum_charge, sum_discount, count]
        let mut groups: BTreeMap<(&str, &str), [f64; 6]> = BTreeMap::new();
        for l in self.rows.iter().filter(|l| l.shipdate <= cutoff) {
            let g = groups.entry((&l.flag, &l.status)).or_default();
            let disc_price = l.price * (1.0 - l.discount);
            g[0] += l.quantity;
            g[1] += l.price;
            g[2] += disc_price;
            g[3] += disc_price * (1.0 + l.tax);
            g[4] += l.discount;
            g[5] += 1.0;
        }
        if rows.len() != groups.len() {
            return Err(format!(
                "q1: oracle has {} groups, got {}",
                groups.len(),
                rows.len()
            ));
        }
        for (row, ((flag, status), g)) in rows.iter().zip(&groups) {
            let n = g[5];
            let want = [g[0], g[1], g[2], g[3], g[0] / n, g[1] / n, g[4] / n, n];
            let keys_ok = row.get(0).to_string() == *flag && row.get(1).to_string() == *status;
            let vals_ok = row.len() == 10 && (0..8).all(|i| close(f(row.get(2 + i)), want[i]));
            if !keys_ok || !vals_ok {
                return Err(format!(
                    "q1 group {flag}/{status}: oracle {want:?}, got {row}"
                ));
            }
        }
        Ok(())
    }
}

/// HiBench AGGREGATE: `SUM(adrevenue) GROUP BY sourceip`, as a hash map
/// over the generated `uservisits` rows.
pub fn check_hibench_aggregate(uservisits: &[Row], rows: &[Row]) -> Result<(), String> {
    let mut want: HashMap<&str, f64> = HashMap::new();
    for r in uservisits {
        *want.entry(r.get(0).as_str().unwrap_or("")).or_default() += f(r.get(3));
    }
    if rows.len() != want.len() {
        return Err(format!(
            "aggregate: oracle has {} groups, got {}",
            want.len(),
            rows.len()
        ));
    }
    for row in rows {
        let ip = row.get(0).as_str().unwrap_or("");
        match want.get(ip) {
            Some(sum) if close(f(row.get(1)), *sum) => {}
            other => return Err(format!("aggregate {ip}: oracle {other:?}, got {row}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(qty: f64, price: f64, disc: f64, tax: f64, flag: &str, ship: &str) -> Row {
        let mut v = vec![Value::Long(0); 16];
        v[4] = Value::Double(qty);
        v[5] = Value::Double(price);
        v[6] = Value::Double(disc);
        v[7] = Value::Double(tax);
        v[8] = Value::Str(flag.into());
        v[9] = Value::Str("F".into());
        v[10] = Value::parse_date(ship).unwrap();
        Row::from(v)
    }

    #[test]
    fn q6_oracle_applies_every_predicate() {
        let facts = LineitemFacts::from_rows(&[
            line(10.0, 100.0, 0.06, 0.0, "A", "1994-06-01"), // counts: 6.0
            line(30.0, 100.0, 0.06, 0.0, "A", "1994-06-01"), // quantity too high
            line(10.0, 100.0, 0.08, 0.0, "A", "1994-06-01"), // discount too high
            line(10.0, 100.0, 0.06, 0.0, "A", "1995-01-01"), // next year
            line(10.0, 200.0, 0.05, 0.0, "A", "1994-01-01"), // counts: 10.0
        ]);
        assert!(close(facts.q6_revenue(1994, 24.0), 16.0));
        let ok = [Row::from(vec![Value::Double(16.0 + 1e-12)])];
        assert!(facts.check_q6(&ok, 1994, 24.0).is_ok());
        let bad = [Row::from(vec![Value::Double(16.1)])];
        assert!(facts.check_q6(&bad, 1994, 24.0).is_err());
        assert!(facts.check_q6(&[], 1994, 24.0).is_err());
    }

    #[test]
    fn q1_oracle_groups_by_both_flags() {
        let facts = LineitemFacts::from_rows(&[
            line(10.0, 100.0, 0.1, 0.5, "A", "1994-06-01"),
            line(20.0, 300.0, 0.0, 0.0, "A", "1994-06-02"),
            line(1.0, 1.0, 0.0, 0.0, "R", "1994-06-02"),
            line(1.0, 1.0, 0.0, 0.0, "R", "1999-01-01"), // after the cutoff
        ]);
        let d = Value::Double;
        let s = |x: &str| Value::Str(x.into());
        let a = vec![
            s("A"),
            s("F"),
            d(30.0),
            d(400.0),
            d(390.0),
            d(435.0),
            d(15.0),
            d(200.0),
            d(0.05),
            Value::Long(2),
        ];
        let r = vec![
            s("R"),
            s("F"),
            d(1.0),
            d(1.0),
            d(1.0),
            d(1.0),
            d(1.0),
            d(1.0),
            d(0.0),
            Value::Long(1),
        ];
        assert_eq!(
            facts.check_q1(&[Row::from(a.clone()), Row::from(r.clone())]),
            Ok(())
        );
        assert!(facts.check_q1(&[Row::from(a.clone())]).is_err());
        let mut wrong = a;
        wrong[4] = d(391.0);
        assert!(facts.check_q1(&[Row::from(wrong), Row::from(r)]).is_err());
    }

    #[test]
    fn digest_respects_order_only_when_asked() {
        let row = |k: i64| Row::from(vec![Value::Long(k), Value::Double(k as f64 / 3.0)]);
        let result = |rows: Vec<Row>| QueryResult {
            rows,
            ..QueryResult::default()
        };
        let (ab, ba) = (result(vec![row(1), row(2)]), result(vec![row(2), row(1)]));
        assert_eq!(digest(&ab, false), digest(&ba, false));
        assert_ne!(digest(&ab, true), digest(&ba, true));
        assert_ne!(
            digest(&ab, false),
            digest(&result(vec![row(1), row(3)]), false)
        );
        assert_ne!(digest(&ab, false), digest(&result(vec![row(1)]), false));
    }
}
