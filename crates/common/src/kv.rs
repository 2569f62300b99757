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
use std::ops::Range;
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
        let (key, value) = pair_at(buf, pos)?;
        out.push(KvPair {
            key: buf.slice(key.clone()),
            value: buf.slice(value.clone()),
        });
        pos = value.end;
    }
    Ok(out)
}

/// Locate the [`encode`]d pair at `pos`: the byte ranges of its key
/// and its value (which ends where the next pair starts).
///
/// # Errors
/// [`crate::error::HdmError::Codec`] on a truncated or corrupt pair.
pub fn pair_at(buf: &[u8], pos: usize) -> Result<(Range<usize>, Range<usize>)> {
    let key = chunk_at(buf, pos)?;
    let value = chunk_at(buf, key.end)?;
    Ok((key, value))
}

/// Locate the length-prefixed chunk at `pos`: the range of its bytes.
fn chunk_at(buf: &[u8], pos: usize) -> Result<Range<usize>> {
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
    Ok(start..end)
}

/// One pair of a [`ReduceInput`]: its key's cached
/// [`Comparator::prefix`], its provenance (source task, position in
/// that source's stream), and where its key and value sit in received
/// buffer `buf`. 48 bytes, and no heap object of its own.
#[derive(Debug, Clone, Copy)]
struct Entry {
    prefix: u128,
    seq: u64,
    src: u32,
    buf: u32,
    key: u32,
    key_len: u32,
    value: u32,
    value_len: u32,
}

impl Entry {
    fn key<'a>(&self, buffers: &'a [Bytes]) -> &'a [u8] {
        view(buffers, self.buf, self.key, self.key_len)
    }

    fn value<'a>(&self, buffers: &'a [Bytes]) -> &'a [u8] {
        view(buffers, self.buf, self.value, self.value_len)
    }
}

/// Bytes `start..start + len` of `buffers[buf]`. Entries are only made
/// for ranges of their own buffer, so the lookup cannot miss; `.get`
/// keeps that invariant panic-free.
fn view(buffers: &[Bytes], buf: u32, start: u32, len: u32) -> &[u8] {
    let (start, len) = (start as usize, len as usize);
    buffers
        .get(buf as usize)
        .and_then(|b| b.get(start..start + len))
        .unwrap_or_default()
}

/// The reduce-side order: by key, the cached prefixes first, then by
/// provenance. `(src, seq)` is unique per pair, so the order is total
/// and any sort of the same entries returns the same sequence.
fn order(cmp: &dyn Comparator, buffers: &[Bytes], a: &Entry, b: &Entry) -> Ordering {
    a.prefix
        .cmp(&b.prefix)
        .then_with(|| cmp.compare(a.key(buffers), b.key(buffers)))
        .then_with(|| (a.src, a.seq).cmp(&(b.src, b.seq)))
}

/// What one reduce-side task (a DataMPI A rank, a Hadoop reducer) has
/// received: the wire buffers as they arrived, [`encode`]d pairs back
/// to back, plus one index entry per pair. Sorting and grouping move
/// the entries; keys and values stay where they arrived.
#[derive(Debug, Default)]
pub struct ReduceInput {
    buffers: Vec<Bytes>,
    entries: Vec<Entry>,
    /// `entries[..sealed]` are sorted runs, `entries[sealed..]` are not.
    sealed: usize,
}

impl ReduceInput {
    /// Index every pair of `buf` as pairs `seq, seq + 1, …` of source
    /// `src`, keeping `buf` as it is; returns how many pairs it held.
    ///
    /// # Errors
    /// [`HdmError::Codec`] on a truncated or corrupt buffer (none of its
    /// pairs is kept), on one of 4 GiB or more, and past 2³² buffers or
    /// sources.
    pub fn push(
        &mut self,
        src: usize,
        seq: u64,
        buf: Bytes,
        comparator: &dyn Comparator,
    ) -> Result<u64> {
        let too_big = |what| HdmError::Codec(format!("reduce input {what} exceeds u32"));
        let src = u32::try_from(src).map_err(|_| too_big("source"))?;
        let id = u32::try_from(self.buffers.len()).map_err(|_| too_big("buffer count"))?;
        u32::try_from(buf.len()).map_err(|_| too_big("buffer length"))?;
        let before = self.entries.len();
        let mut pos = 0usize;
        while pos < buf.len() {
            let (key, value) = match pair_at(&buf, pos) {
                Ok(pair) => pair,
                Err(e) => {
                    self.entries.truncate(before);
                    return Err(e);
                }
            };
            // Every offset is below `buf.len()`, which fits a `u32`.
            self.entries.push(Entry {
                prefix: comparator.prefix(buf.get(key.clone()).unwrap_or_default()),
                seq: seq + (self.entries.len() - before) as u64,
                src,
                buf: id,
                key: key.start as u32,
                key_len: key.len() as u32,
                value: value.start as u32,
                value_len: value.len() as u32,
            });
            pos = value.end;
        }
        self.buffers.push(buf);
        Ok((self.entries.len() - before) as u64)
    }

    /// Move in `staged`, pairs indexed as they arrived from one source
    /// and numbered from 0, as that source's pairs `seq, seq + 1, …`.
    ///
    /// # Errors
    /// [`HdmError::Codec`] past 2³² buffers.
    pub fn append(&mut self, staged: ReduceInput, seq: u64) -> Result<()> {
        let base = self.buffers.len();
        u32::try_from(base + staged.buffers.len())
            .map_err(|_| HdmError::Codec("reduce input buffer count exceeds u32".into()))?;
        let base = base as u32;
        let renumbered = staged.entries.into_iter().map(|e| Entry {
            buf: e.buf + base,
            seq: e.seq + seq,
            ..e
        });
        self.entries.extend(renumbered);
        self.buffers.extend(staged.buffers);
        Ok(())
    }

    /// Pairs indexed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no pair has been indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sort the pairs indexed since the last seal into one run: what a
    /// spill writes.
    pub fn seal_run(&mut self, comparator: &dyn Comparator) {
        let ReduceInput {
            buffers,
            entries,
            sealed,
        } = self;
        if let Some(run) = entries.get_mut(*sealed..) {
            run.sort_unstable_by(|a, b| order(comparator, buffers, a, b));
        }
        *sealed = entries.len();
    }

    /// Sort every pair and group comparator-equal keys. Sealed runs and
    /// arrival-sorted buffers are ascending stretches of the one total
    /// order, which the stable sort finds and merges.
    pub fn into_groups(self, comparator: &dyn Comparator) -> KeyGroups {
        let ReduceInput {
            buffers,
            mut entries,
            ..
        } = self;
        entries.sort_by(|a, b| order(comparator, &buffers, a, b));
        // Equal keys have equal prefixes, so a prefix change starts a
        // group without a key comparison.
        let mut ends = Vec::new();
        let mut head: Option<&Entry> = None;
        for (i, e) in entries.iter().enumerate() {
            if let Some(h) = head {
                if h.prefix == e.prefix
                    && comparator.compare(h.key(&buffers), e.key(&buffers)) == Ordering::Equal
                {
                    continue;
                }
                ends.push(i);
            }
            head = Some(e);
        }
        if !entries.is_empty() {
            ends.push(entries.len());
        }
        KeyGroups {
            buffers,
            entries,
            ends,
            next: 0,
        }
    }
}

/// A [`ReduceInput`] sorted and grouped: key groups in comparator order,
/// each group's values in provenance order, handed out one at a time as
/// views of the received buffers. The group's key is its first pair's.
#[derive(Debug, Default)]
pub struct KeyGroups {
    buffers: Vec<Bytes>,
    entries: Vec<Entry>,
    /// Group `i` is `entries[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    ends: Vec<usize>,
    /// The group [`KeyGroups::next_group`] hands out next.
    next: usize,
}

impl KeyGroups {
    /// Number of key groups.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff there are no groups.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The next `(key, values)` group, or `None` after the last.
    pub fn next_group(&mut self) -> Option<(&[u8], Values<'_>)> {
        let start = match self.next.checked_sub(1) {
            Some(prev) => *self.ends.get(prev)?,
            None => 0,
        };
        let entries = self.entries.get(start..*self.ends.get(self.next)?)?;
        self.next += 1;
        let key = entries.first()?.key(&self.buffers);
        let buffers = &self.buffers;
        Some((key, Values { buffers, entries }))
    }

    /// Start handing the groups out again from the first: a replayed
    /// attempt reads the same groups without copying them.
    pub fn rewind(&mut self) {
        self.next = 0;
    }
}

/// The values of one key group, in provenance order.
#[derive(Debug, Clone, Copy)]
pub struct Values<'a> {
    buffers: &'a [Bytes],
    entries: &'a [Entry],
}

impl<'a> Values<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the group has no values (never, for a handed-out group).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The values, as views of the received buffers.
    pub fn iter(&self) -> ValueIter<'a> {
        ValueIter {
            buffers: self.buffers,
            entries: self.entries.iter(),
        }
    }
}

impl<'a> IntoIterator for Values<'a> {
    type Item = &'a [u8];
    type IntoIter = ValueIter<'a>;

    fn into_iter(self) -> ValueIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Values<'a> {
    type Item = &'a [u8];
    type IntoIter = ValueIter<'a>;

    fn into_iter(self) -> ValueIter<'a> {
        self.iter()
    }
}

/// Iterator over a group's [`Values`].
#[derive(Debug, Clone)]
pub struct ValueIter<'a> {
    buffers: &'a [Bytes],
    entries: std::slice::Iter<'a, Entry>,
}

impl<'a> Iterator for ValueIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.entries.next().map(|e| e.value(self.buffers))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for ValueIter<'_> {}

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

    /// `pairs` [`encode`]d back to back into one buffer.
    fn wire(pairs: &[(&[u8], &[u8])]) -> Bytes {
        let mut buf = Vec::new();
        for (k, v) in pairs {
            encode(&mut buf, k, v);
        }
        Bytes::from(buf)
    }

    /// Every group, copied out.
    fn drain(groups: &mut KeyGroups) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        while let Some((key, values)) = groups.next_group() {
            out.push((key.to_vec(), values.iter().map(<[u8]>::to_vec).collect()));
        }
        out
    }

    #[test]
    fn groups_are_in_key_then_provenance_order_and_zero_copy() {
        let c = BytesComparator;
        let mut input = ReduceInput::default();
        let late = wire(&[(b"b", b"1-0"), (b"a", b"1-1")]);
        input.push(1, 0, late.clone(), &c).unwrap();
        input.seal_run(&c);
        input
            .push(0, 0, wire(&[(b"b", b"0-0"), (b"", b"0-1")]), &c)
            .unwrap();
        input.push(1, 2, wire(&[(b"a", b"1-2")]), &c).unwrap();
        assert_eq!(input.len(), 5);
        let mut groups = input.into_groups(&c);
        assert_eq!(groups.len(), 3);
        let (_, values) = groups.next_group().unwrap();
        assert_eq!(values.iter().collect::<Vec<_>>(), vec![b"0-1".as_ref()]);
        let (key, values) = groups.next_group().unwrap();
        let base = late.as_ptr() as usize;
        assert!((base..base + late.len()).contains(&(key.as_ptr() as usize)));
        assert_eq!(values.len(), 2);
        groups.rewind();
        let v = |s: &[u8]| s.to_vec();
        let want = vec![
            (v(b""), vec![v(b"0-1")]),
            (v(b"a"), vec![v(b"1-1"), v(b"1-2")]),
            (v(b"b"), vec![v(b"0-0"), v(b"1-0")]),
        ];
        assert_eq!(drain(&mut groups), want);
        assert!(groups.next_group().is_none());
    }

    #[test]
    fn a_corrupt_buffer_is_an_error_and_leaves_nothing_indexed() {
        let c = BytesComparator;
        let mut input = ReduceInput::default();
        input.push(0, 0, wire(&[(b"k", b"v")]), &c).unwrap();
        let good = wire(&[(b"x", b"1"), (b"y", b"22")]);
        let err = input.push(0, 1, good.slice(..good.len() - 1), &c);
        assert_eq!(err.unwrap_err().subsystem(), "codec");
        assert_eq!(input.len(), 1);
        assert_eq!(input.into_groups(&c).len(), 1);
    }

    #[test]
    fn appended_pairs_are_renumbered_after_the_source_s_earlier_ones() {
        let c = BytesComparator;
        let mut input = ReduceInput::default();
        input.push(3, 0, wire(&[(b"k", b"first")]), &c).unwrap();
        let mut staged = ReduceInput::default();
        staged.push(3, 0, wire(&[(b"k", b"second")]), &c).unwrap();
        staged.push(3, 1, wire(&[(b"k", b"third")]), &c).unwrap();
        // Source 2's pair sorts first; source 3's keep their stream order.
        input.push(2, 0, wire(&[(b"k", b"zeroth")]), &c).unwrap();
        input.append(staged, 1).unwrap();
        let v = |s: &[u8]| s.to_vec();
        let values = vec![v(b"zeroth"), v(b"first"), v(b"second"), v(b"third")];
        assert_eq!(drain(&mut input.into_groups(&c)), vec![(v(b"k"), values)]);
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
