//! Per-link traffic counters feeding the cluster timing model.

use crate::Rank;
use hdm_obs::{Counter, ObsHandle};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes and message counts per directed (src, dst) link.
#[derive(Debug)]
pub struct WorldMetrics {
    size: usize,
    bytes: Vec<AtomicU64>,
    messages: Vec<AtomicU64>,
    // Registry handles are fetched once here (inert when obs is
    // disabled).
    obs_bytes: Counter,
    obs_messages: Counter,
}

impl WorldMetrics {
    pub(crate) fn new(size: usize, obs: ObsHandle) -> WorldMetrics {
        let obs_bytes = obs.counter("mpi.bytes", "");
        let obs_messages = obs.counter("mpi.messages", "");
        WorldMetrics {
            size,
            bytes: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            messages: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            obs_bytes,
            obs_messages,
        }
    }

    pub(crate) fn record_send(&self, src: Rank, dst: Rank, bytes: u64) {
        if src < self.size && dst < self.size {
            let i = src * self.size + dst;
            if let (Some(b), Some(m)) = (self.bytes.get(i), self.messages.get(i)) {
                b.fetch_add(bytes, Ordering::Relaxed);
                m.fetch_add(1, Ordering::Relaxed);
            }
            self.obs_bytes.add(bytes);
            self.obs_messages.add(1);
        }
    }

    /// World size these counters cover.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bytes sent on the directed link `src → dst`.
    pub fn bytes_on_link(&self, src: Rank, dst: Rank) -> u64 {
        if src >= self.size || dst >= self.size {
            return 0;
        }
        self.bytes
            .get(src * self.size + dst)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Messages sent on the directed link `src → dst`.
    pub fn messages_on_link(&self, src: Rank, dst: Rank) -> u64 {
        if src >= self.size || dst >= self.size {
            return 0;
        }
        self.messages
            .get(src * self.size + dst)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Total bytes across all links.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Total messages across all links.
    pub fn total_messages(&self) -> u64 {
        self.messages
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The full byte matrix, row = source.
    pub fn byte_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.size)
            .map(|s| (0..self.size).map(|d| self.bytes_on_link(s, d)).collect())
            .collect()
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

    #[test]
    fn matrix_accumulates() {
        let m = WorldMetrics::new(3, ObsHandle::default());
        m.record_send(0, 1, 10);
        m.record_send(0, 1, 5);
        m.record_send(2, 0, 7);
        assert_eq!(m.bytes_on_link(0, 1), 15);
        assert_eq!(m.messages_on_link(0, 1), 2);
        assert_eq!(m.total_bytes(), 22);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.byte_matrix()[2][0], 7);
    }

    #[test]
    fn obs_counters_mirror_traffic_when_enabled() {
        let obs = ObsHandle::enabled_with_stride(1);
        let m = WorldMetrics::new(2, obs.clone());
        m.record_send(0, 1, 64);
        m.record_send(1, 0, 36);
        let snap = obs.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, _, v)| n == "mpi.bytes" && *v == 100));
        assert!(snap
            .counters
            .iter()
            .any(|(n, _, v)| n == "mpi.messages" && *v == 2));
    }

    #[test]
    fn out_of_range_is_ignored() {
        let m = WorldMetrics::new(1, ObsHandle::default());
        m.record_send(5, 0, 10);
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.bytes_on_link(5, 0), 0);
    }
}
