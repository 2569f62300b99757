//! The map-output store: materialized segments reducers pull from.
//!
//! Hadoop map tasks write their merged output to TaskTracker-local disk;
//! reduce-side copier threads fetch each map's per-partition segment over
//! HTTP. This store is the in-process stand-in: segments keyed by
//! `(map, partition)`, with sizes recorded so the timing model can charge
//! the pull shuffle with the exact volumes moved. A segment is one
//! buffer of back-to-back [`hdm_common::kv::encode`]d pairs, so a fetch
//! is a refcount and dropping the store frees one allocation per segment.

use bytes::Bytes;
use hdm_common::error::{HdmError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Shared store of materialized map-output segments.
#[derive(Debug, Default)]
pub struct MapOutputStore {
    segments: Mutex<HashMap<(usize, usize), Bytes>>,
}

impl MapOutputStore {
    /// An empty store.
    pub fn new() -> MapOutputStore {
        MapOutputStore::default()
    }

    /// Publish all of one map task's segments (one per partition).
    pub fn publish(&self, map: usize, segments: Vec<Bytes>) {
        let mut guard = self.segments.lock();
        for (partition, seg) in segments.into_iter().enumerate() {
            guard.insert((map, partition), seg);
        }
    }

    /// Pull one segment (a reducer fetching from one finished map).
    ///
    /// # Errors
    /// [`HdmError::MapRed`] if the segment was never published — in real
    /// Hadoop this is a fetch failure.
    pub fn fetch(&self, map: usize, partition: usize) -> Result<Bytes> {
        self.segments
            .lock()
            .get(&(map, partition))
            .cloned()
            .ok_or_else(|| {
                HdmError::MapRed(format!(
                    "fetch failure: map {map} partition {partition} missing"
                ))
            })
    }

    /// Serialized size of one segment in bytes (0 if missing).
    pub fn segment_bytes(&self, map: usize, partition: usize) -> u64 {
        self.segments
            .lock()
            .get(&(map, partition))
            .map_or(0, |seg| seg.len() as u64)
    }

    /// Total bytes materialized across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments
            .lock()
            .values()
            .map(|seg| seg.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::kv::{decode_all, KvPair};

    fn kv(k: u8) -> KvPair {
        KvPair::new(vec![k], vec![k, k])
    }

    fn segment(pairs: &[KvPair]) -> Bytes {
        let mut buf = Vec::new();
        pairs.iter().for_each(|kv| kv.encode(&mut buf));
        Bytes::from(buf)
    }

    #[test]
    fn publish_then_fetch() {
        let store = MapOutputStore::new();
        store.publish(0, vec![segment(&[kv(1)]), segment(&[kv(2), kv(3)])]);
        assert_eq!(
            decode_all(&store.fetch(0, 0).unwrap()).unwrap(),
            vec![kv(1)]
        );
        assert_eq!(decode_all(&store.fetch(0, 1).unwrap()).unwrap().len(), 2);
        assert!(store.fetch(1, 0).is_err());
    }

    #[test]
    fn sizes_are_tracked() {
        let store = MapOutputStore::new();
        store.publish(2, vec![segment(&[kv(1), kv(2)]), Bytes::new()]);
        assert_eq!(store.segment_bytes(2, 0), 2 * kv(1).wire_size() as u64);
        assert_eq!(store.segment_bytes(2, 1), 0);
        assert_eq!(store.total_bytes(), store.segment_bytes(2, 0));
    }
}
