//! Dynamic cell values and their types.
//!
//! [`Value`] is the runtime representation of one table cell — the analogue
//! of Hive's primitive writables. TPC-H and HiBench only need a small set of
//! primitive types; we additionally keep a `Null` variant because outer
//! joins (TPC-H Q13) and NOT-EXISTS rewrites produce nulls.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean.
    Boolean,
    /// 64-bit signed integer (covers Hive INT and BIGINT).
    Long,
    /// 64-bit IEEE float (covers Hive DOUBLE and DECIMAL in this repro).
    Double,
    /// UTF-8 string.
    String,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Boolean => "boolean",
            DataType::Long => "bigint",
            DataType::Double => "double",
            DataType::String => "string",
            DataType::Date => "date",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a HiveQL type name (`int`, `bigint`, `double`, `string`,
    /// `date`, `boolean`, `decimal`, `varchar(n)`, `char(n)`).
    pub fn parse(name: &str) -> Option<DataType> {
        let lower = name.trim().to_ascii_lowercase();
        let base = lower.split('(').next().unwrap_or("").trim().to_string();
        match base.as_str() {
            "boolean" | "bool" => Some(DataType::Boolean),
            "tinyint" | "smallint" | "int" | "integer" | "bigint" => Some(DataType::Long),
            "float" | "double" | "decimal" | "numeric" => Some(DataType::Double),
            "string" | "varchar" | "char" | "text" => Some(DataType::String),
            "date" | "timestamp" => Some(DataType::Date),
            _ => None,
        }
    }
}

/// One dynamically-typed cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Boolean(bool),
    /// 64-bit integer.
    Long(i64),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Days since the Unix epoch.
    Date(i32),
}

const DAYS_PER_400Y: i64 = 146_097;

/// Days from 1970-01-01 to `y-m-d` (proleptic Gregorian). Used by the date
/// literal parser and the TPC-H generator.
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    // Howard Hinnant's algorithm.
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * DAYS_PER_400Y + doe - 719_468
}

/// Inverse of [`days_from_civil`]: days since epoch to `(y, m, d)`.
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - DAYS_PER_400Y + 1 } / DAYS_PER_400Y;
    let doe = z - era * DAYS_PER_400Y; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl Value {
    /// Build a [`Value::Date`] from a calendar date.
    pub fn date_from_ymd(y: i32, m: u32, d: u32) -> Value {
        Value::Date(days_from_civil(y as i64, m as i64, d as i64) as i32)
    }

    /// Parse an ISO `YYYY-MM-DD` date string into a [`Value::Date`].
    pub fn parse_date(s: &str) -> Option<Value> {
        let (y, m, d) = fixed_ymd(s.as_bytes()).or_else(|| general_ymd(s))?;
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return None;
        }
        Some(Value::date_from_ymd(y, m, d))
    }

    /// True iff this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The [`DataType`] of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Long(_) => Some(DataType::Long),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::String),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Numeric view as f64 (Long, Double, Boolean); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Long(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view; truncates doubles. `None` for non-numerics.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Long(v) => Some(*v),
            Value::Double(v) => Some(*v as i64),
            Value::Boolean(b) => Some(*b as i64),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view with SQL truthiness (`NULL` → `None`).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            Value::Long(v) => Some(*v != 0),
            _ => None,
        }
    }

    /// The `(year, month, day)` components of a [`Value::Date`].
    pub fn date_ymd(&self) -> Option<(i64, i64, i64)> {
        match self {
            Value::Date(d) => Some(civil_from_days(*d as i64)),
            _ => None,
        }
    }

    /// [`Value::cast_to`] by value: a cell that already has type `ty`
    /// (or is NULL) is returned as it is, with no copy.
    pub fn cast_into(self, ty: DataType) -> Value {
        if self.is_null() || self.data_type() == Some(ty) {
            self
        } else {
            self.cast_to(ty)
        }
    }

    /// Cast to the requested type following Hive's lenient semantics.
    /// Returns `Value::Null` when the cast is not representable.
    pub fn cast_to(&self, ty: DataType) -> Value {
        match (self, ty) {
            (Value::Null, _) => Value::Null,
            (v, t) if v.data_type() == Some(t) => v.clone(),
            (v, DataType::Double) => v.as_f64().map(Value::Double).unwrap_or_else(|| {
                v.as_str()
                    .and_then(|s| s.trim().parse::<f64>().ok())
                    .map(Value::Double)
                    .unwrap_or(Value::Null)
            }),
            (v, DataType::Long) => match v {
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .ok()
                    .map(Value::Long)
                    .unwrap_or(Value::Null),
                other => other.as_i64().map(Value::Long).unwrap_or(Value::Null),
            },
            (v, DataType::String) => Value::Str(v.to_string()),
            (Value::Str(s), DataType::Date) => Value::parse_date(s).unwrap_or(Value::Null),
            (v, DataType::Boolean) => v.as_bool().map(Value::Boolean).unwrap_or(Value::Null),
            _ => Value::Null,
        }
    }

    /// Total ordering used by sort/merge and comparators: NULL sorts first,
    /// numerics compare numerically across Long/Double, NaN sorts last.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Long(a), Long(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            // Mixed numerics.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                // Fall back to a stable cross-type order by type tag.
                _ => type_rank(self).cmp(&type_rank(other)),
            },
        }
    }

    /// The one SQL comparison every layer shares (expression evaluator,
    /// batch kernels, pushed-down reader predicates): coerce the pair
    /// ([`coerce_pair`]), then [`Value::total_cmp`]. `None` means the
    /// comparison is *unknown* — either side is NULL, or a string did not
    /// coerce to a date — so no comparison operator holds.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        let (a, b) = coerce_pair(self, other);
        if a.is_null() || b.is_null() {
            return None;
        }
        Some(a.total_cmp(&b))
    }

    /// Approximate in-memory/wire size in bytes; used by buffer managers.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Boolean(_) => 2,
            Value::Long(_) => 9,
            Value::Double(_) => 9,
            Value::Date(_) => 5,
            Value::Str(s) => 2 + s.len(),
        }
    }
}

/// The fields of a date spelled exactly `YYYY-MM-DD` in ASCII digits —
/// the spelling every stored date has — read without splitting; `None`
/// for any other spelling. Where it answers, it answers as
/// [`general_ymd`] does.
fn fixed_ymd(b: &[u8]) -> Option<(i32, u32, u32)> {
    let &[y0, y1, y2, y3, b'-', m0, m1, b'-', d0, d1] = b else {
        return None;
    };
    let digit = |c: u8| c.is_ascii_digit().then(|| u32::from(c - b'0'));
    let year = ((digit(y0)? * 10 + digit(y1)?) * 10 + digit(y2)?) * 10 + digit(y3)?;
    let month = digit(m0)? * 10 + digit(m1)?;
    let day = digit(d0)? * 10 + digit(d1)?;
    Some((year as i32, month, day))
}

/// The fields of any `Y-M-D` spelling: surrounding whitespace, signs,
/// other widths.
fn general_ymd(s: &str) -> Option<(i32, u32, u32)> {
    let mut it = s.trim().splitn(3, '-');
    let y = it.next()?.parse().ok()?;
    let m = it.next()?.parse().ok()?;
    let d = it.next()?.parse().ok()?;
    Some((y, m, d))
}

/// Coerce a comparison pair: strings compared against dates parse as
/// dates (Hive's implicit conversion for `d >= '1994-01-01'`); a string
/// that is not a date becomes NULL. Every other pair is borrowed as is.
pub fn coerce_pair<'a>(a: &'a Value, b: &'a Value) -> (Cow<'a, Value>, Cow<'a, Value>) {
    let as_date = |s: &str| Cow::Owned(Value::parse_date(s).unwrap_or(Value::Null));
    match (a, b) {
        (Value::Date(_), Value::Str(s)) => (Cow::Borrowed(a), as_date(s)),
        (Value::Str(s), Value::Date(_)) => (as_date(s), Cow::Borrowed(b)),
        _ => (Cow::Borrowed(a), Cow::Borrowed(b)),
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Long(_) => 2,
        Value::Double(_) => 2,
        Value::Date(_) => 3,
        Value::Str(_) => 4,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Boolean(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Longs and round Doubles that compare equal must hash equal.
            Value::Long(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Double(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => {
                let (y, m, dd) = civil_from_days(*d as i64);
                write!(f, "{y:04}-{m:02}-{dd:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_round_trip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (1992, 2, 29),
            (1998, 9, 2),
            (2000, 12, 31),
            (1969, 7, 20),
            (1900, 3, 1),
        ] {
            let v = Value::date_from_ymd(y, m, d);
            assert_eq!(
                v.date_ymd(),
                Some((y as i64, m as i64, d as i64)),
                "{y}-{m}-{d}"
            );
        }
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Value::date_from_ymd(1970, 1, 1), Value::Date(0));
        assert_eq!(Value::date_from_ymd(1970, 1, 2), Value::Date(1));
    }

    #[test]
    fn parse_date_matches_display() {
        let v = Value::parse_date("1995-03-15").unwrap();
        assert_eq!(v.to_string(), "1995-03-15");
        assert!(Value::parse_date("1995-13-15").is_none());
        assert!(Value::parse_date("oops").is_none());
    }

    #[test]
    fn fixed_width_dates_skip_the_general_parser_and_agree_with_it() {
        assert_eq!(fixed_ymd(b"1995-03-15"), Some((1995, 3, 15)));
        assert_eq!(fixed_ymd(b"0000-00-00"), Some((0, 0, 0)));
        // Every spelling the Text reader tests feed a date column.
        for s in [
            "1995-03-01",
            " 1995-02-28",
            "1995-13-01",
            "1995-3-1",
            "+1995-03-01",
            "01995-03-01",
            "1995-03-01 ",
            "1995/03/01",
            "-1995-03-01",
            "",
            "abc",
            "\u{e9}t\u{e9}",
        ] {
            let fixed = fixed_ymd(s.as_bytes());
            assert!(fixed.is_none() || fixed == general_ymd(s), "{s:?}");
        }
        assert_eq!(fixed_ymd(b" 1995-02-2"), None);
        assert_eq!(
            Value::parse_date(" 1995-02-28"),
            Some(Value::date_from_ymd(1995, 2, 28))
        );
        assert_eq!(Value::parse_date("1995-13-01"), None);
        assert_eq!(Value::parse_date("1995-02-00"), None);
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Long(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Long(3).total_cmp(&Value::Double(3.0)),
            Ordering::Equal
        );
        assert!(Value::Long(3) < Value::Double(3.5));
        assert!(Value::Double(2.9) < Value::Long(3));
    }

    #[test]
    fn sql_cmp_rejects_nulls_and_coerces_date_strings() {
        let d = Value::date_from_ymd(1995, 3, 1);
        assert_eq!(Value::Null.sql_cmp(&Value::Long(1)), None);
        assert_eq!(Value::Long(1).sql_cmp(&Value::Null), None);
        assert_eq!(
            d.sql_cmp(&Value::Str("1995-03-02".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("1995-03-01".into()).sql_cmp(&d),
            Some(Ordering::Equal)
        );
        // A string that is not a date makes the comparison unknown.
        assert_eq!(d.sql_cmp(&Value::Str("soon".into())), None);
        assert_eq!(
            Value::Long(3).sql_cmp(&Value::Double(3.5)),
            Some(Ordering::Less)
        );
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.sql_cmp(&nan), Some(Ordering::Equal));
    }

    #[test]
    fn equal_mixed_numerics_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Long(7)), h(&Value::Double(7.0)));
    }

    #[test]
    fn cast_semantics() {
        assert_eq!(
            Value::Str("12".into()).cast_to(DataType::Long),
            Value::Long(12)
        );
        assert_eq!(Value::Long(2).cast_to(DataType::Double), Value::Double(2.0));
        assert_eq!(Value::Str("x".into()).cast_to(DataType::Long), Value::Null);
        assert_eq!(
            Value::Str("1994-01-01".into()).cast_to(DataType::Date),
            Value::date_from_ymd(1994, 1, 1)
        );
        assert_eq!(Value::Null.cast_to(DataType::String), Value::Null);
    }

    #[test]
    fn type_parse() {
        assert_eq!(DataType::parse("INT"), Some(DataType::Long));
        assert_eq!(DataType::parse("varchar(25)"), Some(DataType::String));
        assert_eq!(DataType::parse("decimal(15,2)"), Some(DataType::Double));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn display_double_keeps_decimal_point() {
        assert_eq!(Value::Double(4.0).to_string(), "4.0");
        assert_eq!(Value::Double(4.25).to_string(), "4.25");
    }

    #[test]
    fn wire_size_tracks_string_length() {
        assert_eq!(Value::Str("abcd".into()).wire_size(), 6);
        assert!(Value::Long(1).wire_size() < Value::Str("longer-string".into()).wire_size());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Where the fixed-width reader answers, it answers as the general
        /// parser does: random 10-character strings, most of them in the
        /// `YYYY-MM-DD` shape, some with a character or two replaced.
        #[test]
        fn fixed_width_dates_read_as_the_general_parser(
            digits in proptest::collection::vec(0u8..10, 10..11),
            replaced in proptest::collection::vec((0usize..10, 0usize..6), 0..3),
        ) {
            const OTHER: [u8; 6] = [b'-', b' ', b'+', b'a', b'0', b'9'];
            let mut bytes: Vec<u8> = digits.iter().map(|d| b'0' + d).collect();
            bytes[4] = b'-';
            bytes[7] = b'-';
            for &(at, with) in &replaced {
                bytes[at] = OTHER[with];
            }
            let s = String::from_utf8(bytes).unwrap();
            let fixed = fixed_ymd(s.as_bytes());
            prop_assert!(fixed.is_some() || !replaced.is_empty(), "{:?}", s);
            if fixed.is_some() {
                prop_assert_eq!(fixed, general_ymd(&s), "{:?}", s);
            }
        }
    }
}
