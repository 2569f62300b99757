//! The key-value pair wire representation.
//!
//! Both execution engines move intermediate data as opaque byte pairs, the
//! way Hadoop moves `BytesWritable` and DataMPI moves serialized KVs: the
//! *engine* only needs to partition by key bytes and sort by a comparator;
//! the Hive layer on top decides what the bytes mean (serialized rows,
//! composite sort keys, join tags, …).

use crate::codec;
use crate::error::{HdmError, Result};
use crate::row::Row;
use bytes::{Buf, BufMut, Bytes};
use std::cmp::Ordering;
use std::sync::Arc;

/// One serialized key-value pair.
///
/// `Bytes` is reference-counted, so cloning a pair while it sits in send
/// partitions / receive queues does not copy payloads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KvPair {
    /// Serialized key (partitioning + sorting happen on these bytes).
    pub key: Bytes,
    /// Serialized value.
    pub value: Bytes,
}

impl KvPair {
    /// Build a pair from raw parts.
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> KvPair {
        KvPair {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Build a pair by serializing two rows with the binary row codec.
    pub fn from_rows(key: &Row, value: &Row) -> KvPair {
        let mut kb = Vec::with_capacity(key.wire_size() + 4);
        key.encode(&mut kb);
        let mut vb = Vec::with_capacity(value.wire_size() + 4);
        value.encode(&mut vb);
        KvPair::new(kb, vb)
    }

    /// Decode the key as a [`Row`].
    ///
    /// # Errors
    /// Returns a codec error if the key is not a serialized row.
    pub fn key_row(&self) -> Result<Row> {
        Row::decode(&mut self.key.clone())
    }

    /// Decode the value as a [`Row`].
    ///
    /// # Errors
    /// Returns a codec error if the value is not a serialized row.
    pub fn value_row(&self) -> Result<Row> {
        Row::decode(&mut self.value.clone())
    }

    /// Total serialized size: key + value + length prefixes. This is the
    /// quantity tracked by buffer managers and reported in the Figure 2
    /// key-value-size histograms.
    pub fn wire_size(&self) -> usize {
        wire_size(&self.key, &self.value)
    }

    /// Serialize the pair (length-prefixed key then value).
    pub fn encode(&self, buf: &mut impl BufMut) {
        encode(buf, &self.key, &self.value);
    }

    /// Deserialize a pair written by [`KvPair::encode`].
    ///
    /// # Errors
    /// Returns a codec error on truncated input.
    pub fn decode(buf: &mut impl Buf) -> Result<KvPair> {
        let key = codec::read_bytes(buf)?;
        let value = codec::read_bytes(buf)?;
        Ok(KvPair::new(key, value))
    }
}

/// [`KvPair::wire_size`] of a pair given as slices.
pub fn wire_size(key: &[u8], value: &[u8]) -> usize {
    codec::varint_len(key.len() as u64)
        + key.len()
        + codec::varint_len(value.len() as u64)
        + value.len()
}

/// [`KvPair::encode`] of a pair given as slices: the one wire format of
/// send partitions, sort-buffer segments and spill runs.
pub fn encode(buf: &mut impl BufMut, key: &[u8], value: &[u8]) {
    codec::write_bytes(buf, key);
    codec::write_bytes(buf, value);
}

/// Decode a buffer of back-to-back [`KvPair::encode`]d pairs.
///
/// Zero-copy: each pair's key and value are [`Bytes::slice`] views into
/// `buf`'s refcounted allocation.
///
/// # Errors
/// [`crate::error::HdmError::Codec`] on a truncated or corrupt buffer.
pub fn decode_all(buf: &Bytes) -> Result<Vec<KvPair>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let (key, next) = read_chunk(buf, pos)?;
        let (value, next) = read_chunk(buf, next)?;
        out.push(KvPair { key, value });
        pos = next;
    }
    Ok(out)
}

/// Read one length-prefixed chunk at `pos` as a zero-copy slice view;
/// returns the view and the offset just past it.
fn read_chunk(buf: &Bytes, pos: usize) -> Result<(Bytes, usize)> {
    let mut cursor: &[u8] = buf
        .get(pos..)
        .ok_or_else(|| HdmError::Codec("pair cursor out of range".into()))?;
    let before = cursor.len();
    let len = usize::try_from(codec::read_varint(&mut cursor)?)
        .map_err(|_| HdmError::Codec("pair chunk length overflows usize".into()))?;
    let start = pos + (before - cursor.len());
    let end = start
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| HdmError::Codec("truncated pair chunk".into()))?;
    Ok((buf.slice(start..end), end))
}

/// Key ordering used by sort and merge. Implementations must be total
/// orders over arbitrary key bytes.
pub trait Comparator: Send + Sync {
    /// Compare two serialized keys.
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering;

    /// An order-preserving digest of `key`, cached next to it by sorts
    /// and merges so most comparisons are one integer compare. The
    /// contract: `prefix(a) < prefix(b)` implies `compare(a, b)` is
    /// `Less`. Equal prefixes say nothing, and callers then call
    /// [`Comparator::compare`]. The default is a constant, which
    /// satisfies the contract for any order.
    fn prefix(&self, _key: &[u8]) -> u128 {
        0
    }
}

/// Shareable comparator handle.
pub type ComparatorRef = Arc<dyn Comparator>;

/// Lexicographic memcmp ordering — what Hadoop uses for raw bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct BytesComparator;

impl Comparator for BytesComparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        a.cmp(b)
    }

    /// The key's first 16 bytes, big-endian, zero-padded: memcmp order
    /// up to the padding (`ab` and `ab\0` share a prefix).
    fn prefix(&self, key: &[u8]) -> u128 {
        let mut head = [0u8; 16];
        let n = key.len().min(head.len());
        if let (Some(dst), Some(src)) = (head.get_mut(..n), key.get(..n)) {
            dst.copy_from_slice(src);
        }
        u128::from_be_bytes(head)
    }
}

/// Orders keys by decoding them as [`Row`]s and comparing value-wise with
/// [`crate::value::Value::total_cmp`]. Falls back to byte order if either
/// side fails to decode (corrupt keys still sort deterministically).
#[derive(Debug, Clone, Copy, Default)]
pub struct RowKeyComparator;

impl Comparator for RowKeyComparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        match (Row::decode(&mut &a[..]), Row::decode(&mut &b[..])) {
            (Ok(ra), Ok(rb)) => ra.cmp(&rb),
            _ => a.cmp(b),
        }
    }
}

/// Orders row keys with per-column direction flags (for `ORDER BY ... DESC`).
/// Columns beyond the flag list sort ascending.
#[derive(Debug, Clone)]
pub struct DirectionalRowComparator {
    ascending: Vec<bool>,
}

impl DirectionalRowComparator {
    /// One flag per leading sort column; `true` = ascending.
    pub fn new(ascending: Vec<bool>) -> DirectionalRowComparator {
        DirectionalRowComparator { ascending }
    }
}

impl Comparator for DirectionalRowComparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        let (ra, rb) = match (Row::decode(&mut &a[..]), Row::decode(&mut &b[..])) {
            (Ok(x), Ok(y)) => (x, y),
            _ => return a.cmp(b),
        };
        let n = ra.len().max(rb.len());
        for i in 0..n {
            let va = ra.values().get(i);
            let vb = rb.values().get(i);
            let ord = match (va, vb) {
                (Some(x), Some(y)) => x.total_cmp(y),
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            };
            if ord != Ordering::Equal {
                let asc = self.ascending.get(i).copied().unwrap_or(true);
                return if asc { ord } else { ord.reverse() };
            }
        }
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn kv_round_trip() {
        let kv = KvPair::new(&b"key"[..], &b"value"[..]);
        let mut buf = Vec::new();
        kv.encode(&mut buf);
        let back = KvPair::decode(&mut &buf[..]).unwrap();
        assert_eq!(back, kv);
        assert_eq!(kv.wire_size(), buf.len());
    }

    #[test]
    fn from_rows_round_trip() {
        let k = Row::from(vec![Value::Long(7)]);
        let v = Row::from(vec![Value::Str("x".into()), Value::Double(1.5)]);
        let kv = KvPair::from_rows(&k, &v);
        assert_eq!(kv.key_row().unwrap(), k);
        assert_eq!(kv.value_row().unwrap(), v);
    }

    #[test]
    fn bytes_comparator_is_memcmp() {
        let c = BytesComparator;
        assert_eq!(c.compare(b"abc", b"abd"), Ordering::Less);
        assert_eq!(c.compare(b"ab", b"abc"), Ordering::Less);
        assert_eq!(c.compare(b"abc", b"abc"), Ordering::Equal);
    }

    #[test]
    fn decode_all_is_zero_copy_and_rejects_truncation() {
        let pairs = vec![
            KvPair::new(&b"k"[..], &b"vv"[..]),
            KvPair::new(vec![], vec![]),
        ];
        let mut buf = Vec::new();
        for kv in &pairs {
            encode(&mut buf, &kv.key, &kv.value);
        }
        let buf = Bytes::from(buf);
        let back = decode_all(&buf).unwrap();
        assert_eq!(back, pairs);
        let base = buf.as_ref().as_ptr() as usize;
        assert!((base..base + buf.len()).contains(&(back[0].value.as_ref().as_ptr() as usize)));
        assert!(decode_all(&buf.slice(..buf.len() - 3)).is_err());
    }

    #[test]
    fn bytes_prefix_is_the_zero_padded_head() {
        let c = BytesComparator;
        assert_eq!(c.prefix(b""), 0);
        assert_eq!(c.prefix(b"ab"), c.prefix(b"ab\0"));
        assert_eq!(c.prefix(&[0xff; 20]), u128::MAX);
        assert_eq!(c.prefix(&[1]), 1u128 << 120);
        assert_eq!(RowKeyComparator.prefix(b"anything"), 0);
    }

    #[test]
    fn row_key_comparator_orders_numerically() {
        // Byte order would put 10 < 9 for decimal strings; row comparator
        // must order numerically.
        let enc = |v: i64| {
            let mut b = Vec::new();
            Row::from(vec![Value::Long(v)]).encode(&mut b);
            b
        };
        let c = RowKeyComparator;
        assert_eq!(c.compare(&enc(9), &enc(10)), Ordering::Less);
        assert_eq!(c.compare(&enc(-1), &enc(1)), Ordering::Less);
    }

    #[test]
    fn directional_comparator_reverses() {
        let enc = |a: i64, b: &str| {
            let mut buf = Vec::new();
            Row::from(vec![Value::Long(a), Value::Str(b.into())]).encode(&mut buf);
            buf
        };
        let c = DirectionalRowComparator::new(vec![false, true]);
        // First column descending: 10 before 9.
        assert_eq!(c.compare(&enc(10, "a"), &enc(9, "a")), Ordering::Less);
        // Tie on first, second ascending.
        assert_eq!(c.compare(&enc(5, "a"), &enc(5, "b")), Ordering::Less);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn kv_any_bytes_round_trip(
            k in proptest::collection::vec(any::<u8>(), 0..128),
            v in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let kv = KvPair::new(k, v);
            let mut buf = Vec::new();
            kv.encode(&mut buf);
            prop_assert_eq!(KvPair::decode(&mut &buf[..]).unwrap(), kv);
        }

        #[test]
        fn bytes_comparator_total_order(
            a in proptest::collection::vec(any::<u8>(), 0..32),
            b in proptest::collection::vec(any::<u8>(), 0..32),
            c in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let cmp = BytesComparator;
            // Antisymmetry.
            prop_assert_eq!(cmp.compare(&a, &b), cmp.compare(&b, &a).reverse());
            // Transitivity (spot-check the sortedness of the triple).
            let mut v = [a, b, c];
            v.sort_by(|x, y| cmp.compare(x, y));
            prop_assert!(cmp.compare(&v[0], &v[1]) != Ordering::Greater);
            prop_assert!(cmp.compare(&v[1], &v[2]) != Ordering::Greater);
            prop_assert!(cmp.compare(&v[0], &v[2]) != Ordering::Greater);
        }

        /// The prefix contract: a smaller prefix means a smaller key, and
        /// a smaller key never has a larger prefix. Keys share long heads
        /// and end in `0x00` runs, where zero padding ties them.
        #[test]
        fn bytes_prefix_contract(
            head in proptest::collection::vec(0u8..3, 0..20),
            a in proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..6),
            b in proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..6),
        ) {
            let cmp = BytesComparator;
            let a = [head.as_slice(), &a].concat();
            let b = [head.as_slice(), &b].concat();
            let (pa, pb) = (cmp.prefix(&a), cmp.prefix(&b));
            if pa < pb {
                prop_assert_eq!(cmp.compare(&a, &b), Ordering::Less);
            }
            if cmp.compare(&a, &b) == Ordering::Less {
                prop_assert!(pa <= pb);
            }
        }
    }
}
