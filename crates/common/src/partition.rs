//! Partitioners: deciding which reducer / A-task owns a key.

use std::ops::Range;
use std::sync::Arc;

/// Maps a serialized key to one of `n` partitions.
///
/// Implementations must be deterministic: the same key and partition count
/// must always map to the same partition, or shuffle correctness breaks.
pub trait Partitioner: Send + Sync {
    /// Partition index in `0..num_partitions` for the given key bytes.
    fn partition(&self, key: &[u8], num_partitions: usize) -> usize;
}

/// Shareable partitioner handle.
pub type PartitionerRef = Arc<dyn Partitioner>;

/// FNV-1a 64-bit hash — stable across platforms and runs, unlike
/// `DefaultHasher`, which is randomly seeded per process.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The default hash partitioner (Hadoop's `HashPartitioner` analogue),
/// using a platform-stable FNV-1a hash over the key bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition(&self, key: &[u8], num_partitions: usize) -> usize {
        debug_assert!(num_partitions > 0);
        (fnv1a(key) % num_partitions as u64) as usize
    }
}

/// Routes every key to partition 0. Used for single-reducer stages
/// (global ORDER BY, final result sink).
#[derive(Debug, Clone, Copy, Default)]
pub struct SinglePartitioner;

impl Partitioner for SinglePartitioner {
    fn partition(&self, _key: &[u8], _num_partitions: usize) -> usize {
        0
    }
}

/// Range partitioner over precomputed split points (TeraSort-style total
/// order partitioning). Keys are compared bytewise against the cut points.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    cuts: Vec<Vec<u8>>,
}

impl RangePartitioner {
    /// `cuts` must be sorted ascending; `cuts.len() + 1` partitions result.
    pub fn new(cuts: Vec<Vec<u8>>) -> RangePartitioner {
        debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        RangePartitioner { cuts }
    }
}

impl Partitioner for RangePartitioner {
    fn partition(&self, key: &[u8], num_partitions: usize) -> usize {
        let idx = self.cuts.partition_point(|c| c.as_slice() <= key);
        idx.min(num_partitions.saturating_sub(1))
    }
}

/// One range per partition: `0..1, 1..2, …, n-1..n`.
pub fn one_range_each(partitions: usize) -> Vec<Range<usize>> {
    (0..partitions).map(|p| p..p + 1).collect()
}

/// Cut partitions `0..bytes.len()`, in order, into contiguous ranges of
/// about `per_range` measured bytes each: a range closes once it holds
/// `per_range` bytes or more, so a partition is never cut and one heavier
/// than `per_range` runs alone. An empty partition joins the range after
/// it (the last range takes any trailing ones), so with `per_range = 1`
/// every non-empty partition gets a range of its own, and with
/// `u64::MAX` all of them share one. Never returns an empty list.
pub fn byte_ranges(bytes: &[u64], per_range: u64) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let (mut start, mut held) = (0, 0u64);
    for (p, &b) in bytes.iter().enumerate() {
        held = held.saturating_add(b);
        if held >= per_range.max(1) {
            ranges.push(start..p + 1);
            (start, held) = (p + 1, 0);
        }
    }
    match ranges.last_mut() {
        Some(last) if start < bytes.len() => last.end = bytes.len(),
        None => ranges.push(0..bytes.len()),
        Some(_) => {}
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Golden values pin the hash so shuffles are reproducible forever.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hash_partitioner_in_range() {
        let p = HashPartitioner;
        for n in 1..17usize {
            for k in 0..100u32 {
                let part = p.partition(&k.to_be_bytes(), n);
                assert!(part < n);
            }
        }
    }

    #[test]
    fn hash_partitioner_deterministic() {
        let p = HashPartitioner;
        assert_eq!(p.partition(b"key", 7), p.partition(b"key", 7));
    }

    #[test]
    fn single_partitioner_always_zero() {
        let p = SinglePartitioner;
        assert_eq!(p.partition(b"anything", 16), 0);
    }

    #[test]
    fn byte_ranges_close_at_the_target_and_never_cut_a_partition() {
        // (partition bytes, bytes per range, ranges as (start, end))
        type Case<'a> = (&'a [u64], u64, &'a [(usize, usize)]);
        let cases: [Case<'_>; 7] = [
            (&[], 10, &[(0, 0)]),
            (&[0, 0, 0], 10, &[(0, 3)]),
            (&[4, 4, 4, 4], 8, &[(0, 2), (2, 4)]),
            (&[4, 4, 4], 8, &[(0, 3)]),
            (&[0, 5, 0, 0, 7, 0], 1, &[(0, 2), (2, 6)]),
            (&[1, 2, 3], u64::MAX, &[(0, 3)]),
            (&[100, 1, 1, 100], 50, &[(0, 1), (1, 4)]),
        ];
        for (bytes, per, want) in cases {
            let got: Vec<(usize, usize)> = (byte_ranges(bytes, per).into_iter())
                .map(|r| (r.start, r.end))
                .collect();
            assert_eq!(got, want, "{bytes:?} per {per}");
        }
    }

    #[test]
    fn range_partitioner_respects_cuts() {
        let p = RangePartitioner::new(vec![b"g".to_vec(), b"p".to_vec()]);
        assert_eq!(p.partition(b"a", 3), 0);
        assert_eq!(p.partition(b"g", 3), 1); // boundary goes right
        assert_eq!(p.partition(b"m", 3), 1);
        assert_eq!(p.partition(b"z", 3), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn partition_always_in_range(
            key in proptest::collection::vec(any::<u8>(), 0..64),
            n in 1usize..64,
        ) {
            prop_assert!(HashPartitioner.partition(&key, n) < n);
        }

        #[test]
        fn range_partitioner_is_monotone(
            mut cuts in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 0..8),
            a in proptest::collection::vec(any::<u8>(), 0..8),
            b in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            cuts.sort();
            let n = cuts.len() + 1;
            let p = RangePartitioner::new(cuts);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p.partition(&lo, n) <= p.partition(&hi, n));
        }
    }
}
