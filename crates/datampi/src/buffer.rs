//! The buffer manager: Send Partition Lists (SPL).
//!
//! From the paper (Section IV-C): *"In the buffer manager, DataMPI
//! designs Send Partition Lists (SPL), and each partition is used to
//! store key-value pairs for corresponding A tasks. When the send
//! partitions are full, they will be pushed into the send queue in the
//! shuffle engine, and wait for transmission."* Each partition carries
//! *"the raw buffer data and the meta-information, such as the size of
//! buffer used, the number of cached key-value pairs, the offsets and
//! indices of each key-value pair in the buffer."*

use bytes::Bytes;
use hdm_common::kv::{self, KvPair};

/// One send partition: raw KV bytes destined for a single A task, plus
/// the meta-information the paper lists (bytes used, pairs cached; a
/// pair's offset is found by walking the length prefixes).
#[derive(Debug, Clone, Default)]
pub struct SendPartition {
    data: Vec<u8>,
    pairs: usize,
}

impl SendPartition {
    /// An empty partition with preallocated capacity.
    pub fn with_capacity(bytes: usize) -> SendPartition {
        SendPartition {
            data: Vec::with_capacity(bytes),
            pairs: 0,
        }
    }

    /// Append one pair (serialized in place).
    pub fn push(&mut self, kv: &KvPair) {
        self.push_slices(&kv.key, &kv.value);
    }

    /// Append one pair given as slices (serialized in place).
    pub fn push_slices(&mut self, key: &[u8], value: &[u8]) {
        kv::encode(&mut self.data, key, value);
        self.pairs += 1;
    }

    /// Bytes of buffer used.
    pub fn bytes_used(&self) -> usize {
        self.data.len()
    }

    /// Number of cached key-value pairs.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// True iff no pairs are cached.
    pub fn is_empty(&self) -> bool {
        self.pairs == 0
    }

    /// Capacity of the raw buffer (bytes the next fill can take without
    /// reallocating).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Freeze into an immutable wire payload, resetting this partition
    /// with a fresh buffer of the same capacity (the "cached in the
    /// buffer manager again" recycling — the next fill never grows from
    /// zero).
    pub fn take_payload(&mut self) -> Bytes {
        let cap = self.data.capacity();
        self.take_payload_with(Vec::with_capacity(cap))
    }

    /// Freeze into an immutable wire payload, installing `next`
    /// (typically a recycled buffer from the SPL pool) as the new backing
    /// storage. The frozen payload hands its allocation to [`Bytes`]
    /// without copying.
    pub fn take_payload_with(&mut self, next: Vec<u8>) -> Bytes {
        self.pairs = 0;
        Bytes::from(std::mem::replace(&mut self.data, next))
    }

    /// Decode a wire payload produced by [`SendPartition::take_payload`].
    ///
    /// Zero-copy: each returned pair's key and value are [`Bytes::slice`]
    /// views into `payload`'s refcounted allocation — no per-pair heap
    /// copies.
    ///
    /// # Errors
    /// Propagates codec errors on corrupt payloads.
    pub fn decode_payload(payload: &Bytes) -> hdm_common::error::Result<Vec<KvPair>> {
        kv::decode_all(payload)
    }
}

/// The SPL: one [`SendPartition`] per destination A task, plus a pool of
/// reclaimed payload buffers so flushed partitions get their capacity
/// back from completed sends instead of growing a fresh `Vec` (the
/// paper's §IV-C recycling discipline).
///
/// A partition gets its backing buffer with the first pair routed to
/// it, so a list that outlives many O tasks (one per execution slot)
/// holds memory only for the destinations its tasks actually fed.
#[derive(Debug)]
pub struct SendPartitionList {
    partitions: Vec<SendPartition>,
    capacity_bytes: usize,
    initial_capacity: usize,
    pool: Vec<Vec<u8>>,
}

impl SendPartitionList {
    /// One partition per A task, each flushing at `capacity_bytes`.
    pub fn new(a_tasks: usize, capacity_bytes: usize) -> SendPartitionList {
        SendPartitionList {
            partitions: vec![SendPartition::default(); a_tasks],
            capacity_bytes: capacity_bytes.max(1),
            initial_capacity: capacity_bytes.min(1 << 20),
            pool: Vec::new(),
        }
    }

    /// Return a transmitted payload's allocation to the buffer pool.
    ///
    /// Succeeds (returns `true`) only when `payload` is the last live
    /// handle on its allocation — i.e. the send completed and every
    /// reader is done — and the pool has room (it is capped at one spare
    /// buffer per partition). Otherwise the payload is simply dropped;
    /// partitions then fall back to fresh buffers pre-sized via
    /// [`SendPartition::take_payload`]'s capacity-retaining reset.
    pub fn recycle(&mut self, payload: Bytes) -> bool {
        if self.pool.len() >= self.partitions.len() {
            return false;
        }
        match payload.try_into_mut() {
            Ok(reclaimed) => {
                let mut buf: Vec<u8> = reclaimed.into();
                buf.clear();
                self.pool.push(buf);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of reclaimed buffers currently pooled.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Next backing buffer for a flushed partition: pooled if available,
    /// else freshly allocated at the partition's initial capacity.
    fn next_buffer(&mut self) -> Vec<u8> {
        let cap = self.initial_capacity;
        self.pool.pop().unwrap_or_else(|| Vec::with_capacity(cap))
    }

    /// Number of partitions (= number of A tasks).
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True iff there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Append a pair to the partition for `dst`. If the partition filled
    /// up, returns `Ok(Some(payload))` with its frozen payload (which must
    /// be handed to the shuffle engine's send queue).
    ///
    /// # Errors
    /// [`HdmError::DataMpi`] if `dst` is out of range — a partitioner
    /// returning a destination outside `0..a_tasks`.
    pub fn push(&mut self, dst: usize, kv: &KvPair) -> hdm_common::error::Result<Option<Bytes>> {
        self.push_slices(dst, &kv.key, &kv.value)
    }

    /// [`SendPartitionList::push`] of a pair given as slices.
    ///
    /// # Errors
    /// As [`SendPartitionList::push`].
    pub fn push_slices(
        &mut self,
        dst: usize,
        key: &[u8],
        value: &[u8],
    ) -> hdm_common::error::Result<Option<Bytes>> {
        let a_tasks = self.partitions.len();
        let unbacked = self.partitions.get(dst).is_some_and(|p| p.capacity() == 0);
        let first_buffer = unbacked.then(|| self.next_buffer());
        let p = self.partitions.get_mut(dst).ok_or_else(|| {
            hdm_common::error::HdmError::DataMpi(format!(
                "partitioner routed key to A task {dst}, but only {a_tasks} exist"
            ))
        })?;
        if let Some(buf) = first_buffer {
            p.data = buf;
        }
        p.push_slices(key, value);
        if p.bytes_used() >= self.capacity_bytes {
            let next = self.next_buffer();
            // Re-borrow: `next_buffer` needed `&mut self` above.
            let p = self.partitions.get_mut(dst).ok_or_else(|| {
                hdm_common::error::HdmError::DataMpi(format!("partition {dst} vanished"))
            })?;
            Ok(Some(p.take_payload_with(next)))
        } else {
            Ok(None)
        }
    }

    /// Whether pushing `wire` bytes to `dst` takes a buffer: the
    /// partition's first, or the fresh one that replaces it as it fills
    /// and freezes. The moment recycled buffers are worth reclaiming.
    pub fn takes_buffer(&self, dst: usize, wire: usize) -> bool {
        self.partitions
            .get(dst)
            .is_some_and(|p| p.capacity() == 0 || p.bytes_used() + wire >= self.capacity_bytes)
    }

    /// Drain every non-empty partition as `(dst, payload)` pairs (end of
    /// O task: flush everything). Each payload is a right-sized copy: a
    /// tail flush is usually a fraction of a buffer, the payload lives
    /// until the A side has merged it, and the buffer stays with the
    /// partition for the slot's next task.
    pub fn flush(&mut self) -> Vec<(usize, Bytes)> {
        let buffered = self.partitions.iter_mut().enumerate();
        buffered
            .filter(|(_, p)| !p.is_empty())
            .map(|(dst, p)| {
                let payload = Bytes::from(p.data.as_slice().to_vec());
                p.data.clear();
                p.pairs = 0;
                (dst, payload)
            })
            .collect()
    }

    /// Current buffered bytes across all partitions.
    pub fn buffered_bytes(&self) -> usize {
        self.partitions.iter().map(SendPartition::bytes_used).sum()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;

    fn kv(k: u8, len: usize) -> KvPair {
        KvPair::new(vec![k], vec![k; len])
    }

    #[test]
    fn partition_tracks_meta_information() {
        let mut p = SendPartition::with_capacity(64);
        p.push(&kv(1, 3));
        p.push(&kv(2, 5));
        assert_eq!(p.pairs(), 2);
        assert_eq!(p.bytes_used(), kv(1, 3).wire_size() + kv(2, 5).wire_size());
        let payload = p.take_payload();
        assert!(p.is_empty());
        assert_eq!(p.bytes_used(), 0);
        let pairs = SendPartition::decode_payload(&payload).unwrap();
        assert_eq!(pairs, vec![kv(1, 3), kv(2, 5)]);
    }

    #[test]
    fn spl_flushes_full_partition_only() {
        let mut spl = SendPartitionList::new(3, 32);
        // Small pushes to dst 0 stay buffered.
        assert!(spl.push(0, &kv(0, 2)).unwrap().is_none());
        // A large value fills the partition.
        let flushed = spl.push(0, &kv(0, 64)).unwrap();
        assert!(flushed.is_some());
        assert!(spl.partitions[0].is_empty());
        assert_eq!(spl.buffered_bytes(), 0);
        // Other partitions untouched.
        assert!(spl.push(1, &kv(1, 2)).unwrap().is_none());
        assert!(spl.buffered_bytes() > 0);
    }

    #[test]
    fn push_out_of_range_dst_is_an_error() {
        let mut spl = SendPartitionList::new(2, 32);
        let err = spl.push(5, &kv(0, 1)).unwrap_err();
        assert!(err.to_string().contains("only 2 exist"), "{err}");
    }

    #[test]
    fn partitions_are_backed_by_their_first_pair_and_keep_the_buffer() {
        let mut spl = SendPartitionList::new(2, 1024);
        spl.push(0, &kv(1, 8)).unwrap();
        let buffer = spl.partitions[0].data.as_ptr();
        assert!(spl.partitions[0].capacity() >= 1024);
        assert_eq!(spl.partitions[1].capacity(), 0, "unfed partition");
        // A tail flush hands out a right-sized copy, not the buffer.
        let flushed = spl.flush();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].1.len(), kv(1, 8).wire_size());
        assert_ne!(flushed[0].1.as_ref().as_ptr(), buffer);
        spl.push(0, &kv(2, 8)).unwrap();
        assert_eq!(spl.partitions[0].data.as_ptr(), buffer);
    }

    #[test]
    fn flush_returns_all_non_empty() {
        let mut spl = SendPartitionList::new(4, 1024);
        spl.push(1, &kv(1, 1)).unwrap();
        spl.push(3, &kv(3, 1)).unwrap();
        let flushed = spl.flush();
        let dsts: Vec<usize> = flushed.iter().map(|(d, _)| *d).collect();
        assert_eq!(dsts, vec![1, 3]);
        assert!(spl.flush().is_empty());
    }

    #[test]
    fn decode_payload_is_zero_copy() {
        let mut p = SendPartition::with_capacity(256);
        for i in 0..10u8 {
            p.push(&kv(i, 8));
        }
        let payload = p.take_payload();
        let base = payload.as_ref().as_ptr() as usize;
        let end = base + payload.len();
        let pairs = SendPartition::decode_payload(&payload).unwrap();
        assert_eq!(pairs.len(), 10);
        for pair in &pairs {
            let k = pair.key.as_ref().as_ptr() as usize;
            let v = pair.value.as_ref().as_ptr() as usize;
            assert!(
                (base..end).contains(&k) && (base..end).contains(&v),
                "pair bytes must be views into the payload allocation"
            );
        }
    }

    #[test]
    fn take_payload_reset_keeps_capacity() {
        let mut p = SendPartition::with_capacity(512);
        p.push(&kv(1, 100));
        assert!(p.capacity() >= 512);
        let _payload = p.take_payload();
        // The satellite bug: mem::take left capacity 0, so every refill
        // reallocated from scratch.
        assert!(
            p.capacity() >= 512,
            "reset partition lost its capacity (got {})",
            p.capacity()
        );
        let ptr_before = {
            p.push(&kv(2, 1));
            assert_eq!(
                p.bytes_used(),
                kv(2, 1).wire_size(),
                "the reset buffer starts empty"
            );
            p.capacity()
        };
        // Filling well under capacity must not grow the buffer.
        for i in 0..8u8 {
            p.push(&kv(i, 8));
        }
        assert_eq!(p.capacity(), ptr_before, "fill under capacity reallocated");
    }

    #[test]
    fn spl_pool_recycles_completed_payload_allocations() {
        let mut spl = SendPartitionList::new(2, 64);
        // Fill partition 0 until it flushes.
        let mut payloads = Vec::new();
        for i in 0..64u8 {
            if let Some(p) = spl.push(0, &kv(i, 16)).unwrap() {
                payloads.push(p);
            }
        }
        assert!(!payloads.is_empty());
        let ptrs: Vec<usize> = payloads
            .iter()
            .map(|p| p.as_ref().as_ptr() as usize)
            .collect();
        // "Send completes": we are the only owner, so recycling succeeds
        // until the pool hits its cap (one spare per partition).
        let mut accepted = 0usize;
        for p in payloads {
            if spl.recycle(p) {
                accepted += 1;
            }
        }
        assert!(accepted > 0, "sole-owner payloads must recycle");
        assert_eq!(spl.pooled_buffers(), accepted);
        // A flush hands the partition a pooled buffer as its next backing
        // store, so the *following* flush emits a recycled allocation.
        let mut later = Vec::new();
        for i in 0..64u8 {
            if let Some(p) = spl.push(1, &kv(i, 16)).unwrap() {
                later.push(p.as_ref().as_ptr() as usize);
            }
        }
        assert!(later.len() >= 2, "partition 1 must flush at least twice");
        assert!(
            later.iter().any(|p| ptrs.contains(p)),
            "flushes must reuse recycled allocations, not grow fresh Vecs"
        );
    }

    #[test]
    fn recycle_refuses_shared_payloads_and_caps_pool() {
        let mut spl = SendPartitionList::new(1, 16);
        let payload = spl.push(0, &kv(1, 32)).unwrap().expect("flush");
        let held = payload.clone();
        // A shared payload (receiver still reading) cannot be reclaimed.
        assert!(!spl.recycle(payload));
        assert_eq!(spl.pooled_buffers(), 0);
        drop(held);
        // Pool is capped at one spare per partition.
        assert!(spl.recycle(Bytes::from(vec![0u8; 8])));
        assert!(!spl.recycle(Bytes::from(vec![0u8; 8])));
        assert_eq!(spl.pooled_buffers(), 1);
    }

    #[test]
    fn payload_round_trip_many_pairs() {
        let mut p = SendPartition::with_capacity(0);
        let pairs: Vec<KvPair> = (0..50).map(|i| kv(i, (i % 7) as usize)).collect();
        for x in &pairs {
            p.push(x);
        }
        let payload = p.take_payload();
        assert_eq!(SendPartition::decode_payload(&payload).unwrap(), pairs);
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn spl_never_loses_pairs(
            ops in proptest::collection::vec((0usize..4, 0u8..255, 0usize..40), 0..200),
            cap in 8usize..128,
        ) {
            let mut spl = SendPartitionList::new(4, cap);
            let mut sent: Vec<Vec<KvPair>> = vec![Vec::new(); 4];
            let mut delivered: Vec<Vec<KvPair>> = vec![Vec::new(); 4];
            for (dst, k, len) in ops {
                let pair = KvPair::new(vec![k], vec![k; len]);
                sent[dst].push(pair.clone());
                if let Some(payload) = spl.push(dst, &pair).unwrap() {
                    delivered[dst].extend(SendPartition::decode_payload(&payload).unwrap());
                }
            }
            for (dst, payload) in spl.flush() {
                delivered[dst].extend(SendPartition::decode_payload(&payload).unwrap());
            }
            prop_assert_eq!(delivered, sent);
        }
    }
}
