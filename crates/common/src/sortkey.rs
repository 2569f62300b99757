//! Order-preserving binary sort keys — the `BinarySortableSerDe` analogue.
//!
//! Production Hive serializes ReduceSink keys with `BinarySortableSerDe`
//! so that shuffle sorting compares raw bytes (`memcmp`) instead of
//! deserializing both rows on every comparison. This module is that
//! encoding for [`Row`]: [`encode_row_directed`] produces bytes whose
//! lexicographic byte order equals the row order of
//! [`crate::value::Value::total_cmp`] applied column-wise (the order
//! [`crate::kv::RowKeyComparator`] and
//! [`crate::kv::DirectionalRowComparator`] compute by decoding), and
//! [`decode_row_directed`] restores the exact row for the reduce side.
//!
//! # Contract
//!
//! The byte order matches the comparator order for rows whose
//! corresponding columns are **same-typed or Null** — the shape every
//! ReduceSink emits, since key expressions are typed. This is the same
//! contract Hive's typed `BinarySortableSerDe` has. It is not an
//! accident of implementation: a perfect memcmp embedding of
//! `total_cmp` over *arbitrarily mixed* types is impossible, because
//! mixed `Long`/`Double` comparisons go through `f64` (lossy above
//! 2^53, so that relation is not even transitive) and cross-type
//! equality like `Long(3) == Double(3.0)` cannot coexist with a
//! type-preserving round-trip. Descending columns additionally require
//! equal arity on both sides (the comparator orders a missing column
//! *before* a present one even under DESC; a byte prefix cannot).
//!
//! # Byte layout (ascending column)
//!
//! | value          | bytes                                                   |
//! |----------------|---------------------------------------------------------|
//! | `Null`         | `0x00`                                                  |
//! | `Boolean false`| `0x01`                                                  |
//! | `Boolean true` | `0x02`                                                  |
//! | `Long(x)`      | `0x03` + 8 bytes BE of `x as u64 XOR 1<<63`             |
//! | `Double(d)`    | `0x04` + 8 bytes BE of the total-order transform of `d` |
//! | `Date(d)`      | `0x05` + 4 bytes BE of `d as u32 XOR 1<<31`             |
//! | `Str(s)`       | `0x06` + escaped bytes + terminator `0x00`              |
//!
//! String content bytes `0x00`/`0x01` are escaped as `0x01 0x01` /
//! `0x01 0x02` so the `0x00` terminator never appears inside content and
//! escaped sequences preserve byte order. The double transform flips the
//! sign bit of positive values and complements negative ones — exactly
//! `f64::total_cmp` order, including `-0.0 < +0.0` and NaN ordering by
//! payload. Nulls sort first (tag `0x00`), matching `total_cmp`.
//!
//! A descending column is the bitwise complement of its whole ascending
//! encoding. Column encodings are prefix-free for distinct values of one
//! type, so the first differing byte always falls inside both columns'
//! encodings and complementing reverses the comparison there.

use crate::error::{HdmError, Result};
use crate::row::Row;
use crate::value::Value;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL_FALSE: u8 = 0x01;
const TAG_BOOL_TRUE: u8 = 0x02;
const TAG_LONG: u8 = 0x03;
const TAG_DOUBLE: u8 = 0x04;
const TAG_DATE: u8 = 0x05;
const TAG_STR: u8 = 0x06;

/// String terminator (cannot occur in escaped content).
const STR_TERM: u8 = 0x00;
/// Escape byte: `0x00 -> 0x01 0x01`, `0x01 -> 0x01 0x02`.
const STR_ESCAPE: u8 = 0x01;

const SIGN_64: u64 = 1 << 63;
const SIGN_32: u32 = 1 << 31;

/// Encode a row with every column ascending.
pub fn encode_row(row: &Row) -> Vec<u8> {
    encode_row_directed(row, &[])
}

/// Encode a row with per-column direction flags (`true` = ascending;
/// columns beyond the flag list ascend, mirroring
/// [`crate::kv::DirectionalRowComparator`]).
pub fn encode_row_directed(row: &Row, ascending: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.wire_size() + row.len() + 4);
    encode_row_into(&mut out, row, ascending);
    out
}

/// Encode into an existing buffer (appends; does not clear).
pub fn encode_row_into(out: &mut Vec<u8>, row: &Row, ascending: &[bool]) {
    encode_cells_into(out, row.values(), ascending);
}

/// [`encode_row_into`] over cells that are not (yet) a [`Row`] — a key
/// gathered straight from projected columns.
pub fn encode_cells_into<'a>(
    out: &mut Vec<u8>,
    cells: impl IntoIterator<Item = &'a Value>,
    ascending: &[bool],
) {
    for (i, v) in cells.into_iter().enumerate() {
        let col_start = out.len();
        encode_value(out, v);
        let asc = ascending.get(i).copied().unwrap_or(true);
        if !asc {
            if let Some(col) = out.get_mut(col_start..) {
                for b in col {
                    *b = !*b;
                }
            }
        }
    }
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Boolean(false) => out.push(TAG_BOOL_FALSE),
        Value::Boolean(true) => out.push(TAG_BOOL_TRUE),
        Value::Long(x) => {
            out.push(TAG_LONG);
            out.extend_from_slice(&((*x as u64) ^ SIGN_64).to_be_bytes());
        }
        Value::Double(x) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&order_bits(*x).to_be_bytes());
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            out.extend_from_slice(&((*d as u32) ^ SIGN_32).to_be_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            for &b in s.as_bytes() {
                if b <= STR_ESCAPE {
                    out.push(STR_ESCAPE);
                    out.push(b + 1);
                } else {
                    out.push(b);
                }
            }
            out.push(STR_TERM);
        }
    }
}

/// Map `f64` bits so that unsigned byte order equals [`f64::total_cmp`]
/// order: positive values get the sign bit set, negative values are
/// complemented (reversing their magnitude order).
fn order_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & SIGN_64 != 0 {
        !bits
    } else {
        bits ^ SIGN_64
    }
}

fn unorder_bits(raw: u64) -> u64 {
    if raw & SIGN_64 != 0 {
        raw ^ SIGN_64
    } else {
        !raw
    }
}

/// Decode a key written by [`encode_row`] (all columns ascending).
///
/// # Errors
/// [`HdmError::Codec`] on truncated or malformed keys.
pub fn decode_row(key: &[u8]) -> Result<Row> {
    decode_row_directed(key, &[])
}

/// Decode a key written by [`encode_row_directed`] with the same flags.
///
/// # Errors
/// [`HdmError::Codec`] on truncated or malformed keys.
pub fn decode_row_directed(key: &[u8], ascending: &[bool]) -> Result<Row> {
    let mut values = Vec::new();
    let mut pos = 0usize;
    while pos < key.len() {
        let asc = ascending.get(values.len()).copied().unwrap_or(true);
        let (v, next) = decode_value(key, pos, asc)?;
        values.push(v);
        pos = next;
    }
    Ok(Row::from(values))
}

fn truncated() -> HdmError {
    HdmError::Codec("truncated sort key".into())
}

/// Read one byte at `pos`, undoing the DESC complement.
fn read_u8(key: &[u8], pos: usize, mask: u8) -> Result<u8> {
    key.get(pos).map(|b| b ^ mask).ok_or_else(truncated)
}

/// Read `N` big-endian bytes at `pos`, undoing the DESC complement.
fn read_be<const N: usize>(key: &[u8], pos: usize, mask: u8) -> Result<[u8; N]> {
    let mut raw = [0u8; N];
    for (i, slot) in raw.iter_mut().enumerate() {
        *slot = read_u8(key, pos + i, mask)?;
    }
    Ok(raw)
}

fn decode_value(key: &[u8], pos: usize, asc: bool) -> Result<(Value, usize)> {
    let mask: u8 = if asc { 0x00 } else { 0xFF };
    let tag = read_u8(key, pos, mask)?;
    let pos = pos + 1;
    match tag {
        TAG_NULL => Ok((Value::Null, pos)),
        TAG_BOOL_FALSE => Ok((Value::Boolean(false), pos)),
        TAG_BOOL_TRUE => Ok((Value::Boolean(true), pos)),
        TAG_LONG => {
            let raw = u64::from_be_bytes(read_be::<8>(key, pos, mask)?);
            Ok((Value::Long((raw ^ SIGN_64) as i64), pos + 8))
        }
        TAG_DOUBLE => {
            let raw = u64::from_be_bytes(read_be::<8>(key, pos, mask)?);
            Ok((Value::Double(f64::from_bits(unorder_bits(raw))), pos + 8))
        }
        TAG_DATE => {
            let raw = u32::from_be_bytes(read_be::<4>(key, pos, mask)?);
            Ok((Value::Date((raw ^ SIGN_32) as i32), pos + 4))
        }
        TAG_STR => {
            let mut content = Vec::new();
            let mut pos = pos;
            loop {
                let b = read_u8(key, pos, mask)?;
                pos += 1;
                if b == STR_TERM {
                    break;
                }
                if b == STR_ESCAPE {
                    let esc = read_u8(key, pos, mask)?;
                    pos += 1;
                    content.push(esc.wrapping_sub(1));
                } else {
                    content.push(b);
                }
            }
            let s = String::from_utf8(content)
                .map_err(|_| HdmError::Codec("sort key string is not UTF-8".into()))?;
            Ok((Value::Str(s), pos))
        }
        other => Err(HdmError::Codec(format!("unknown sort key tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Comparator, DirectionalRowComparator, RowKeyComparator};
    use std::cmp::Ordering;

    fn row(vs: Vec<Value>) -> Row {
        Row::from(vs)
    }

    /// Row-codec bytes, as the comparators expect them.
    fn rowenc(r: &Row) -> Vec<u8> {
        let mut b = Vec::new();
        r.encode(&mut b);
        b
    }

    fn rows_equal(a: &Row, b: &Row) -> bool {
        a.len() == b.len()
            && a.values()
                .iter()
                .zip(b.values())
                .all(|(x, y)| x.total_cmp(y) == Ordering::Equal)
    }

    #[test]
    fn longs_order_by_value_not_bytes() {
        let pairs = [
            (i64::MIN, i64::MIN + 1),
            (-1, 0),
            (-1, 1),
            (0, 1),
            (9, 10),
            (i64::MAX - 1, i64::MAX),
        ];
        for (lo, hi) in pairs {
            let a = encode_row(&row(vec![Value::Long(lo)]));
            let b = encode_row(&row(vec![Value::Long(hi)]));
            assert!(a < b, "{lo} must encode below {hi}");
        }
    }

    #[test]
    fn doubles_follow_total_cmp_including_nan_and_negative_zero() {
        // total_cmp order: -NaN < -inf < -1.5 < -0.0 < +0.0 < 1.5 < inf < NaN
        let seq = [
            f64::from_bits(0xFFF8_0000_0000_0000), // -NaN
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in seq.windows(2) {
            let a = encode_row(&row(vec![Value::Double(w[0])]));
            let b = encode_row(&row(vec![Value::Double(w[1])]));
            assert!(a < b, "{:?} must encode below {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn strings_with_low_bytes_round_trip_and_order() {
        let cases = ["", "\0", "\u{1}", "\0\0", "a", "a\0b", "ab", "b"];
        // Round-trip, including NUL and 0x01 content bytes.
        for s in cases {
            let r = row(vec![Value::Str(s.into())]);
            let back = decode_row(&encode_row(&r)).unwrap();
            assert!(rows_equal(&back, &r), "round trip failed for {s:?}");
        }
        // Pairwise order matches String order.
        for a in cases {
            for b in cases {
                let ea = encode_row(&row(vec![Value::Str(a.into())]));
                let eb = encode_row(&row(vec![Value::Str(b.into())]));
                assert_eq!(ea.cmp(&eb), a.cmp(b), "string order broken: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn nulls_sort_first_within_a_column() {
        for v in [
            Value::Boolean(false),
            Value::Long(i64::MIN),
            Value::Double(f64::NEG_INFINITY),
            Value::Date(i32::MIN),
            Value::Str(String::new()),
        ] {
            let null = encode_row(&row(vec![Value::Null]));
            let some = encode_row(&row(vec![v.clone()]));
            assert!(null < some, "Null must encode below {v:?}");
        }
    }

    #[test]
    fn desc_flag_reverses_exactly_one_column() {
        let enc = |k: i64, s: &str| {
            encode_row_directed(
                &row(vec![Value::Long(k), Value::Str(s.into())]),
                &[false, true],
            )
        };
        // First column descending: 10 before 9.
        assert!(enc(10, "a") < enc(9, "a"));
        // Tie on first column falls through to the ascending second.
        assert!(enc(5, "a") < enc(5, "b"));
    }

    #[test]
    fn desc_keys_round_trip_with_flags() {
        let r = row(vec![
            Value::Long(-42),
            Value::Str("x\0y".into()),
            Value::Double(-0.0),
            Value::Null,
        ]);
        let flags = [false, true, false, false];
        let enc = encode_row_directed(&r, &flags);
        let back = decode_row_directed(&enc, &flags).unwrap();
        assert!(rows_equal(&back, &r));
    }

    #[test]
    fn prefix_rows_sort_before_extensions() {
        let short = row(vec![Value::Long(7)]);
        let long = row(vec![Value::Long(7), Value::Str("a".into())]);
        assert!(encode_row(&short) < encode_row(&long));
        assert_eq!(
            RowKeyComparator.compare(&rowenc(&short), &rowenc(&long)),
            Ordering::Less
        );
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(decode_row(&[0x09]).is_err()); // unknown tag
        assert!(decode_row(&[TAG_LONG, 1, 2]).is_err()); // truncated long
        assert!(decode_row(&[TAG_STR, b'a']).is_err()); // unterminated string
        assert!(decode_row(&[TAG_STR, STR_ESCAPE]).is_err()); // dangling escape
    }

    #[test]
    fn directed_matches_directional_comparator_on_typed_rows() {
        let flags = vec![false, true];
        let cmp = DirectionalRowComparator::new(flags.clone());
        let rows = [
            row(vec![Value::Long(1), Value::Str("b".into())]),
            row(vec![Value::Long(2), Value::Str("a".into())]),
            row(vec![Value::Null, Value::Str("a".into())]),
            row(vec![Value::Long(2), Value::Null]),
        ];
        for a in &rows {
            for b in &rows {
                let byte_ord = encode_row_directed(a, &flags).cmp(&encode_row_directed(b, &flags));
                let cmp_ord = cmp.compare(&rowenc(a), &rowenc(b));
                assert_eq!(byte_ord, cmp_ord, "mismatch for {a:?} vs {b:?}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::kv::{Comparator, DirectionalRowComparator, RowKeyComparator};
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// One column: `(type selector, seed_a, seed_b, (null_a, null_b, desc))`.
    /// Both rows draw from the same type per column — the typed-column
    /// contract (Null is always allowed).
    type ColSpec = (u8, u64, u64, (bool, bool, bool));

    fn arb_cols() -> impl Strategy<Value = Vec<ColSpec>> {
        proptest::collection::vec(
            (
                0u8..5,
                any::<u64>(),
                any::<u64>(),
                (any::<bool>(), any::<bool>(), any::<bool>()),
            ),
            1..5,
        )
    }

    /// Low-entropy alphabet with bytes below the escape threshold, so
    /// escaping and terminator handling get exercised, plus multi-byte
    /// UTF-8.
    fn str_from_seed(seed: u64) -> String {
        const ALPHABET: [char; 6] = ['\0', '\u{1}', '\u{2}', 'a', 'b', '\u{2603}'];
        let len = (seed % 5) as usize;
        let mut s = String::new();
        let mut x = seed / 5;
        for _ in 0..len {
            s.push(ALPHABET[(x % 6) as usize]);
            x /= 6;
        }
        s
    }

    /// Collision-friendly typed values: small domains mix in so equal and
    /// prefix-sharing keys actually occur; doubles force NaN/-0.0/inf arms.
    fn value_from(t: u8, seed: u64, null: bool) -> Value {
        if null {
            return Value::Null;
        }
        match t {
            0 => Value::Boolean(seed & 1 == 1),
            1 => Value::Long(if seed.is_multiple_of(3) {
                (seed % 7) as i64 - 3
            } else {
                seed as i64
            }),
            2 => Value::Double(match seed % 11 {
                0 => f64::NAN,
                1 => f64::from_bits(0xFFF8_0000_0000_0000), // negative NaN
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => 0.0,
                5 => -0.0,
                6 => ((seed / 11 % 13) as f64) - 6.0,
                _ => f64::from_bits(seed),
            }),
            3 => Value::Str(str_from_seed(seed)),
            _ => Value::Date(if seed.is_multiple_of(3) {
                (seed % 7) as i32
            } else {
                seed as i32
            }),
        }
    }

    fn build(cols: &[ColSpec]) -> (Row, Row, Vec<bool>) {
        let a = cols
            .iter()
            .map(|&(t, sa, _, (na, _, _))| value_from(t, sa, na))
            .collect::<Vec<_>>();
        let b = cols
            .iter()
            .map(|&(t, _, sb, (_, nb, _))| value_from(t, sb, nb))
            .collect::<Vec<_>>();
        let flags = cols
            .iter()
            .map(|&(_, _, _, (_, _, desc))| !desc)
            .collect::<Vec<_>>();
        (Row::from(a), Row::from(b), flags)
    }

    fn rowenc(r: &Row) -> Vec<u8> {
        let mut b = Vec::new();
        r.encode(&mut b);
        b
    }

    proptest! {
        /// memcmp(enc(a), enc(b)) == RowKeyComparator(a, b) on typed rows,
        /// including rows of different arity (ascending only).
        #[test]
        fn ascending_memcmp_matches_row_key_comparator(
            cols in arb_cols(),
            cut in 0usize..5,
        ) {
            let (a, b, _) = build(&cols);
            // Random arity mismatch: truncate one side.
            let b = Row::from(b.values().iter().take(cut.min(b.len())).cloned().collect::<Vec<_>>());
            let byte_ord = encode_row(&a).cmp(&encode_row(&b));
            let cmp_ord = RowKeyComparator.compare(&rowenc(&a), &rowenc(&b));
            prop_assert_eq!(byte_ord, cmp_ord, "rows {:?} vs {:?}", a, b);
        }

        /// With DESC flags (equal arity), memcmp matches DirectionalRowComparator.
        #[test]
        fn directed_memcmp_matches_directional_comparator(cols in arb_cols()) {
            let (a, b, flags) = build(&cols);
            let byte_ord = encode_row_directed(&a, &flags)
                .cmp(&encode_row_directed(&b, &flags));
            let cmp_ord = DirectionalRowComparator::new(flags.clone())
                .compare(&rowenc(&a), &rowenc(&b));
            prop_assert_eq!(byte_ord, cmp_ord, "rows {:?} vs {:?} flags {:?}", a, b, flags);
        }

        /// Every directed encoding round-trips to a total_cmp-equal row.
        #[test]
        fn directed_round_trip(cols in arb_cols()) {
            let (a, _, flags) = build(&cols);
            let enc = encode_row_directed(&a, &flags);
            let back = decode_row_directed(&enc, &flags).unwrap();
            prop_assert_eq!(back.len(), a.len());
            for (x, y) in back.values().iter().zip(a.values()) {
                prop_assert_eq!(x.total_cmp(y), Ordering::Equal, "{:?} vs {:?}", x, y);
            }
        }

        /// Byte equality is exactly comparator equality (grouping safety):
        /// normalized keys group identically to decoded-row grouping.
        #[test]
        fn byte_equality_iff_comparator_equality(cols in arb_cols()) {
            let (a, b, _) = build(&cols);
            let bytes_eq = encode_row(&a) == encode_row(&b);
            let cmp_eq = RowKeyComparator.compare(&rowenc(&a), &rowenc(&b)) == Ordering::Equal;
            prop_assert_eq!(bytes_eq, cmp_eq);
        }
    }
}
