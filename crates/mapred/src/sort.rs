//! The map-side sort buffer: collect, sort, spill, merge.
//!
//! Laid out the way Hadoop's `MapOutputBuffer` is: every collected pair's
//! key and value bytes are appended to one arena, and the pair gets one
//! fixed-size index entry — partition, the comparator's cached key
//! prefix, and where its bytes sit. A spill sorts the index, not the
//! pairs; `finish` merges the spilled runs into one buffer per
//! partition, already in the wire format ([`kv::encode`]) that reducers
//! fetch and decode into zero-copy views. Nothing per pair is a heap
//! object of its own.

use bytes::Bytes;
use hdm_common::kv::{self, Comparator, ComparatorRef, KvPair};
use std::cmp::Ordering;
use std::convert::Infallible;

/// One collected pair: the cached prefix of its key, its partition, and
/// where its key (then, straight after it, its value) sits in the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    prefix: u128,
    partition: usize,
    start: usize,
    key_len: usize,
    value_len: usize,
}

impl Entry {
    /// This entry's key and value bytes in `arena`, the arena it was
    /// pushed into: the lookup cannot miss, and `.get` keeps that
    /// invariant panic-free.
    fn pair<'a>(&self, arena: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        let record = arena.get(self.start..self.start + self.key_len + self.value_len);
        record
            .and_then(|r| r.split_at_checked(self.key_len))
            .unwrap_or_default()
    }
}

/// An arena and its index: the buffer being collected into, or a spilled
/// run whose index is sorted by `(partition, key)`.
#[derive(Debug, Default)]
struct Run {
    arena: Vec<u8>,
    index: Vec<Entry>,
}

impl Run {
    fn push(&mut self, prefix: u128, partition: usize, key: &[u8], value: &[u8]) {
        let start = self.arena.len();
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.index.push(Entry {
            prefix,
            partition,
            start,
            key_len: key.len(),
            value_len: value.len(),
        });
    }

    /// This run's entries for `partition` (the index is partition-sorted).
    fn partition(&self, partition: usize) -> &[Entry] {
        let lo = self.index.partition_point(|e| e.partition < partition);
        let hi = self.index.partition_point(|e| e.partition <= partition);
        self.index.get(lo..hi).unwrap_or_default()
    }
}

/// The order of two keys whose prefixes are cached: the prefixes decide
/// unless they tie (the [`Comparator::prefix`] contract).
fn order(cmp: &dyn Comparator, a: (u128, &[u8]), b: (u128, &[u8])) -> Ordering {
    a.0.cmp(&b.0).then_with(|| cmp.compare(a.1, b.1))
}

/// The in-memory collect buffer of one map task.
pub struct SortBuffer {
    current: Run,
    /// Wire bytes collected since the last spill (the spill trigger).
    bytes: usize,
    capacity: usize,
    comparator: ComparatorRef,
    spills: Vec<Run>,
    spill_bytes: u64,
}

impl std::fmt::Debug for SortBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SortBuffer")
            .field("buffered", &self.current.index.len())
            .field("bytes", &self.bytes)
            .field("spills", &self.spills.len())
            .finish()
    }
}

impl SortBuffer {
    /// A buffer spilling at `capacity` wire bytes. The third argument,
    /// a combiner slot, can only be `None`: map-side combining is the
    /// map pipeline's partial aggregation, not the sort buffer's.
    pub fn new(
        capacity: usize,
        comparator: ComparatorRef,
        _no_combiner: Option<Infallible>,
    ) -> SortBuffer {
        SortBuffer {
            current: Run::default(),
            bytes: 0,
            capacity: capacity.max(1),
            comparator,
            spills: Vec::new(),
            spill_bytes: 0,
        }
    }

    /// Add one pair destined for `partition`; spills when full.
    pub fn collect(&mut self, partition: usize, kv: KvPair) {
        self.collect_slices(partition, &kv.key, &kv.value);
    }

    /// Add one pair, given as slices, destined for `partition`: its bytes
    /// are copied into the arena once. Spills when full.
    pub fn collect_slices(&mut self, partition: usize, key: &[u8], value: &[u8]) {
        let prefix = self.comparator.prefix(key);
        self.current.push(prefix, partition, key, value);
        self.bytes += kv::wire_size(key, value);
        if self.bytes >= self.capacity {
            self.spill();
        }
    }

    /// The fill, in wire bytes, at which the buffer spills.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of spills so far.
    pub fn spill_count(&self) -> usize {
        self.spills.len()
    }

    /// Bytes written across all spill runs so far.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Sort the buffered index by `(partition, key)`, stably, and keep it
    /// as a run; the next pairs go to a fresh arena of the same size.
    fn spill(&mut self) {
        if self.current.index.is_empty() {
            return;
        }
        let next = Run {
            arena: Vec::with_capacity(self.current.arena.len()),
            index: Vec::with_capacity(self.current.index.len()),
        };
        let mut run = std::mem::replace(&mut self.current, next);
        self.spill_bytes += self.bytes as u64;
        self.bytes = 0;
        let cmp = &*self.comparator;
        let Run { arena, index } = &mut run;
        index.sort_by(|a, b| {
            let (ka, kb) = (a.pair(arena).0, b.pair(arena).0);
            (a.partition.cmp(&b.partition)).then_with(|| order(cmp, (a.prefix, ka), (b.prefix, kb)))
        });
        self.spills.push(run);
    }

    /// Merge partition `p` of every run into `out`, in key order; on equal
    /// keys the earlier run goes first.
    fn merge_partition(&self, p: usize, mut out: impl FnMut(&[u8], &[u8])) {
        let mut cursors: Vec<(&Run, Option<&Entry>, std::slice::Iter<'_, Entry>)> = self
            .spills
            .iter()
            .filter_map(|run| {
                let mut rest = run.partition(p).iter();
                rest.next().map(|head| (run, Some(head), rest))
            })
            .collect();
        let cmp = &*self.comparator;
        loop {
            let heads = cursors
                .iter()
                .map(|(run, head, _)| head.map(|e| (e.prefix, e.pair(&run.arena).0)));
            let Some((run, head, rest)) = smallest(cmp, heads).and_then(|r| cursors.get_mut(r))
            else {
                return;
            };
            if let Some(e) = std::mem::replace(head, rest.next()) {
                let (key, value) = e.pair(&run.arena);
                out(key, value);
            }
        }
    }

    /// Finish the task: final spill, then merge all runs into one sorted
    /// segment per partition, each one buffer of back-to-back
    /// [`kv::encode`]d pairs (decode with [`kv::decode_all`]). Returns
    /// `segments[partition]`. Pairs collected for partitions
    /// `>= num_partitions` (a broken partitioner —
    /// [`crate::MapContext::collect`] rejects them upstream) are dropped.
    pub fn finish_segments(mut self, num_partitions: usize) -> Vec<Bytes> {
        self.spill();
        (0..num_partitions)
            .map(|p| {
                let sizes = self.spills.iter().flat_map(|run| {
                    let pairs = run.partition(p).iter().map(|e| e.pair(&run.arena));
                    pairs.map(|(key, value)| kv::wire_size(key, value))
                });
                let mut segment = Vec::with_capacity(sizes.sum());
                self.merge_partition(p, |key, value| kv::encode(&mut segment, key, value));
                Bytes::from(segment)
            })
            .collect()
    }

    /// [`SortBuffer::finish_segments`] as per-partition pair lists.
    pub fn finish(mut self, num_partitions: usize) -> Vec<Vec<KvPair>> {
        self.spill();
        (0..num_partitions)
            .map(|p| {
                let mut pairs = Vec::new();
                self.merge_partition(p, |key, value| {
                    pairs.push(KvPair::new(key.to_vec(), value.to_vec()));
                });
                pairs
            })
            .collect()
    }
}

/// K-way merge of sorted runs by key comparator; on equal keys the
/// earlier run goes first. Heads carry their key's prefix, so most head
/// comparisons are one integer compare.
pub fn merge_sorted_runs(runs: Vec<Vec<KvPair>>, comparator: &ComparatorRef) -> Vec<KvPair> {
    let cmp = &**comparator;
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut cursors: Vec<_> = runs
        .into_iter()
        .filter(|run| !run.is_empty())
        .map(|run| {
            let mut rest = run.into_iter();
            let head = rest.next().map(|kv| (cmp.prefix(&kv.key), kv));
            (head, rest)
        })
        .collect();
    loop {
        let heads = cursors
            .iter()
            .map(|(head, _)| head.as_ref().map(|(p, kv)| (*p, kv.key.as_ref())));
        let Some((head, rest)) = smallest(cmp, heads).and_then(|r| cursors.get_mut(r)) else {
            return out;
        };
        let next = rest.next().map(|kv| (cmp.prefix(&kv.key), kv));
        if let Some((_, kv)) = std::mem::replace(head, next) {
            out.push(kv);
        }
    }
}

/// The index of the smallest `(prefix, key)` head, the earliest on ties
/// (a selection merge's pick: run counts are small).
fn smallest<'k>(
    cmp: &dyn Comparator,
    heads: impl Iterator<Item = Option<(u128, &'k [u8])>>,
) -> Option<usize> {
    let mut best: Option<(usize, (u128, &[u8]))> = None;
    for (r, head) in heads.enumerate() {
        let Some(head) = head else { continue };
        if best.is_none_or(|(_, b)| order(cmp, head, b).is_lt()) {
            best = Some((r, head));
        }
    }
    best.map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::kv::BytesComparator;
    use std::sync::Arc;

    fn cmp() -> ComparatorRef {
        Arc::new(BytesComparator)
    }

    fn kv(k: u8, v: u8) -> KvPair {
        KvPair::new(vec![k], vec![v])
    }

    #[test]
    fn small_input_one_segment_per_partition() {
        let mut buf = SortBuffer::new(1 << 20, cmp(), None);
        buf.collect(1, kv(9, 0));
        buf.collect(0, kv(3, 0));
        buf.collect(1, kv(2, 0));
        buf.collect(0, kv(1, 0));
        let segs = buf.finish(2);
        let keys = |p: usize| segs[p].iter().map(|x| x.key[0]).collect::<Vec<_>>();
        assert_eq!(keys(0), vec![1, 3]);
        assert_eq!(keys(1), vec![2, 9]);
    }

    #[test]
    fn tiny_capacity_forces_spills_but_output_is_sorted() {
        let mut buf = SortBuffer::new(8, cmp(), None);
        for i in (0..100u8).rev() {
            buf.collect((i % 3) as usize, kv(i, 0));
        }
        assert!(buf.spill_count() > 5);
        assert!(buf.spill_bytes() > 0);
        let segs = buf.finish(3);
        let mut seen = 0;
        for (p, seg) in segs.iter().enumerate() {
            seen += seg.len();
            for w in seg.windows(2) {
                assert!(w[0].key <= w[1].key, "partition {p} out of order");
            }
            for x in seg {
                assert_eq!((x.key[0] % 3) as usize, p);
            }
        }
        assert_eq!(seen, 100);
    }

    #[test]
    fn a_buffer_filled_exactly_spills() {
        let mut buf = SortBuffer::new(kv(0, 0).wire_size() * 2, cmp(), None);
        for i in 0..6 {
            buf.collect(0, kv(i, 0));
        }
        assert_eq!(buf.spill_count(), 3);
        assert_eq!(buf.spill_bytes(), 6 * kv(0, 0).wire_size() as u64);
    }

    #[test]
    fn segments_are_the_pairs_in_wire_format() {
        let fill = || {
            let mut buf = SortBuffer::new(16, cmp(), None);
            for i in 0..40u8 {
                buf.collect((i % 2) as usize, KvPair::new(vec![i % 7; 18], vec![i]));
            }
            buf
        };
        let segments = fill().finish_segments(3);
        for (segment, pairs) in segments.iter().zip(fill().finish(3)) {
            assert_eq!(kv::decode_all(segment).unwrap(), pairs);
            let wire: usize = pairs.iter().map(KvPair::wire_size).sum();
            assert_eq!(segment.len(), wire);
        }
        assert!(segments[2].is_empty());
    }

    #[test]
    fn merge_runs_is_stableish_and_ordered() {
        let runs = vec![
            vec![kv(1, 0), kv(4, 0)],
            vec![kv(2, 0), kv(4, 1)],
            vec![],
            vec![kv(0, 0)],
        ];
        let merged = merge_sorted_runs(runs, &cmp());
        let got: Vec<(u8, u8)> = merged.iter().map(|x| (x.key[0], x.value[0])).collect();
        assert_eq!(got, vec![(0, 0), (1, 0), (2, 0), (4, 0), (4, 1)]);
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use hdm_common::kv::BytesComparator;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Keys built to stress the cached prefix: long shared heads (16+
    /// bytes tie the prefix), strict prefixes of each other, trailing
    /// `0x00` runs (`ab` and `ab\0` share a prefix), and empty keys.
    pub(crate) fn key() -> impl Strategy<Value = Vec<u8>> {
        let head = prop_oneof![Just(0usize), Just(14usize), Just(16usize), Just(19usize)];
        let tail = proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), any::<u8>()], 0..4);
        (head, tail).prop_map(|(n, tail)| [vec![b'k'; n], tail].concat())
    }

    fn pairs() -> impl Strategy<Value = Vec<(usize, Vec<u8>, Vec<u8>)>> {
        let value = proptest::collection::vec(any::<u8>(), 0..6);
        proptest::collection::vec((0usize..4, key(), value), 0..200)
    }

    /// The pre-arena algorithm: a stable `(partition, key)` sort of each
    /// run of whole `KvPair`s, then per partition a selection merge in
    /// which the earlier run wins ties.
    struct Oracle {
        capacity: usize,
        buffered: Vec<(usize, KvPair)>,
        bytes: usize,
        runs: Vec<Vec<(usize, KvPair)>>,
        spill_bytes: u64,
    }

    impl Oracle {
        fn collect(&mut self, p: usize, kv: KvPair) {
            self.bytes += kv.wire_size();
            self.buffered.push((p, kv));
            if self.bytes >= self.capacity {
                self.spill();
            }
        }

        fn spill(&mut self) {
            if self.buffered.is_empty() {
                return;
            }
            let mut run = std::mem::take(&mut self.buffered);
            run.sort_by(|(pa, a), (pb, b)| pa.cmp(pb).then_with(|| a.key.cmp(&b.key)));
            self.spill_bytes += self.bytes as u64;
            self.bytes = 0;
            self.runs.push(run);
        }

        fn finish(mut self, n: usize) -> Vec<Vec<KvPair>> {
            self.spill();
            (0..n)
                .map(|p| {
                    let runs = self.runs.iter().map(|run| {
                        run.iter()
                            .filter(|(q, _)| *q == p)
                            .map(|(_, kv)| kv.clone())
                            .collect::<Vec<_>>()
                    });
                    naive_merge(runs.collect())
                })
                .collect()
        }
    }

    fn naive_merge(mut runs: Vec<Vec<KvPair>>) -> Vec<KvPair> {
        let mut out = Vec::new();
        loop {
            let mut best: Option<usize> = None;
            for (r, run) in runs.iter().enumerate() {
                let Some(head) = run.first() else { continue };
                if best.is_none_or(|b| head.key < runs[b][0].key) {
                    best = Some(r);
                }
            }
            match best {
                Some(r) => out.push(runs[r].remove(0)),
                None => return out,
            }
        }
    }

    proptest! {
        #[test]
        fn finish_preserves_every_pair_sorted(
            pairs in proptest::collection::vec((0usize..4, any::<u8>(), any::<u8>()), 0..300),
            capacity in 4usize..256,
        ) {
            let cmp: ComparatorRef = Arc::new(BytesComparator);
            let mut buf = SortBuffer::new(capacity, Arc::clone(&cmp), None);
            for &(p, k, v) in &pairs {
                buf.collect(p, KvPair::new(vec![k], vec![v]));
            }
            let segs = buf.finish(4);
            let total: usize = segs.iter().map(Vec::len).sum();
            prop_assert_eq!(total, pairs.len());
            for seg in &segs {
                for w in seg.windows(2) {
                    prop_assert!(w[0].key <= w[1].key);
                }
            }
            // Multiset equality per partition.
            for (p, seg) in segs.iter().enumerate() {
                let mut expect: Vec<(u8, u8)> = pairs
                    .iter()
                    .filter(|&&(pp, _, _)| pp == p)
                    .map(|&(_, k, v)| (k, v))
                    .collect();
                expect.sort_unstable();
                let mut got: Vec<(u8, u8)> = seg.iter().map(|x| (x.key[0], x.value[0])).collect();
                got.sort_unstable();
                prop_assert_eq!(got, expect);
            }
        }

        #[test]
        fn sort_buffer_matches_kv_sort(
            pairs in pairs(),
            capacity in prop_oneof![1usize..64, 64usize..8192],
        ) {
            let cmp: ComparatorRef = Arc::new(BytesComparator);
            let mut buf = SortBuffer::new(capacity, Arc::clone(&cmp), None);
            let mut oracle = Oracle {
                capacity,
                buffered: Vec::new(),
                bytes: 0,
                runs: Vec::new(),
                spill_bytes: 0,
            };
            for (p, k, v) in &pairs {
                buf.collect_slices(*p, k, v);
                oracle.collect(*p, KvPair::new(k.clone(), v.clone()));
            }
            prop_assert_eq!(buf.spill_count(), oracle.runs.len());
            prop_assert_eq!(buf.spill_bytes(), oracle.spill_bytes);
            for (segment, want) in buf.finish_segments(4).iter().zip(oracle.finish(4)) {
                let mut bytes = Vec::new();
                for kv in &want {
                    kv.encode(&mut bytes);
                }
                prop_assert_eq!(segment.as_ref(), bytes.as_slice());
            }
        }

        #[test]
        fn merge_sorted_runs_matches_naive_merge(
            runs in proptest::collection::vec(
                proptest::collection::vec((key(), proptest::collection::vec(any::<u8>(), 0..3)), 0..30),
                0..6,
            ),
        ) {
            let runs: Vec<Vec<KvPair>> = runs
                .into_iter()
                .map(|run| {
                    let mut run: Vec<KvPair> = run.into_iter().map(|(k, v)| KvPair::new(k, v)).collect();
                    run.sort_by(|a, b| a.key.cmp(&b.key));
                    run
                })
                .collect();
            let cmp: ComparatorRef = Arc::new(BytesComparator);
            prop_assert_eq!(merge_sorted_runs(runs.clone(), &cmp), naive_merge(runs));
        }
    }
}
