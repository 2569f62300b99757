//! Per-node I/O accounting used by the cluster timing model.

use crate::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters for DFS traffic, shared by every handle of one
/// filesystem (a query's own `dfs.*` obs counters live in its
/// [`Dfs::for_query`](crate::Dfs::for_query) view).
///
/// Reads/writes without a known node are tallied in a global bucket only.
#[derive(Debug)]
pub struct DfsMetrics {
    read_per_node: Vec<AtomicU64>,
    write_per_node: Vec<AtomicU64>,
    read_total: AtomicU64,
    write_total: AtomicU64,
    local_reads: AtomicU64,
    remote_reads: AtomicU64,
}

impl DfsMetrics {
    pub(crate) fn new(num_nodes: u32) -> DfsMetrics {
        DfsMetrics {
            read_per_node: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            write_per_node: (0..num_nodes).map(|_| AtomicU64::new(0)).collect(),
            read_total: AtomicU64::new(0),
            write_total: AtomicU64::new(0),
            local_reads: AtomicU64::new(0),
            remote_reads: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_read(&self, node: Option<NodeId>, bytes: u64) {
        self.read_total.fetch_add(bytes, Ordering::Relaxed);
        if let Some(n) = node {
            if let Some(c) = self.read_per_node.get(n.0 as usize) {
                c.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record_write(&self, node: Option<NodeId>, bytes: u64) {
        self.write_total.fetch_add(bytes, Ordering::Relaxed);
        if let Some(n) = node {
            if let Some(c) = self.write_per_node.get(n.0 as usize) {
                c.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record_locality(&self, _node: NodeId, local: bool) {
        if local {
            self.local_reads.fetch_add(1, Ordering::Relaxed);
        } else {
            self.remote_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total bytes read through the DFS.
    pub fn total_bytes_read(&self) -> u64 {
        self.read_total.load(Ordering::Relaxed)
    }

    /// Total bytes written (each replica counts once).
    pub fn total_bytes_written(&self) -> u64 {
        self.write_total.load(Ordering::Relaxed)
    }

    /// Bytes read attributed to one node.
    pub fn bytes_read_by(&self, node: NodeId) -> u64 {
        self.read_per_node
            .get(node.0 as usize)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Bytes written attributed to one node.
    pub fn bytes_written_by(&self, node: NodeId) -> u64 {
        self.write_per_node
            .get(node.0 as usize)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// `(local, remote)` counts of locality-tracked range reads.
    pub fn locality_counts(&self) -> (u64, u64) {
        (
            self.local_reads.load(Ordering::Relaxed),
            self.remote_reads.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DfsMetrics::new(2);
        m.record_read(Some(NodeId(0)), 10);
        m.record_read(None, 5);
        m.record_write(Some(NodeId(1)), 7);
        assert_eq!(m.total_bytes_read(), 15);
        assert_eq!(m.bytes_read_by(NodeId(0)), 10);
        assert_eq!(m.bytes_read_by(NodeId(1)), 0);
        assert_eq!(m.total_bytes_written(), 7);
        assert_eq!(m.bytes_written_by(NodeId(1)), 7);
    }

    #[test]
    fn out_of_range_node_is_safe() {
        let m = DfsMetrics::new(1);
        m.record_read(Some(NodeId(99)), 10);
        assert_eq!(m.total_bytes_read(), 10);
        assert_eq!(m.bytes_read_by(NodeId(99)), 0);
    }
}
