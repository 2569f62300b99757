#![warn(missing_docs)]

//! # hdm-dfs
//!
//! A simulated HDFS for the Hive-on-DataMPI reproduction.
//!
//! The paper's testbed stores tables, intermediate stage outputs, and
//! serialized job descriptions in HDFS (Hadoop 1.2.1, 64 MB blocks,
//! 8 nodes). Both execution engines in this repository — the Hadoop-like
//! MapReduce engine and the DataMPI engine — read inputs from and write
//! outputs to this filesystem, exactly as in the paper ("DataMPI also
//! supports HDFS data access, so DataMPI can share the same input and
//! output files").
//!
//! The simulation keeps the properties the paper's evaluation depends on:
//!
//! * **Block-structured files** with a configurable block size (default
//!   64 MB, the paper's setting) — input splits are block-aligned.
//! * **Replica placement with locality**: the first replica lands on the
//!   writer's node, remaining replicas on distinct other nodes; readers
//!   can ask for block locations to schedule map tasks node-locally.
//! * **Byte accounting**: every read and write is tallied per node, which
//!   feeds the discrete-event cluster model's disk/network charges.
//!
//! Data lives in memory (`bytes::Bytes`), which is appropriate at the
//! laptop scale this reproduction runs at; the timing model, not the
//! in-memory store, accounts for disk behaviour.
//!
//! # Example
//!
//! ```
//! use hdm_dfs::{Dfs, DfsConfig, NodeId};
//!
//! let dfs = Dfs::new(DfsConfig { block_size: 8, replication: 2, num_nodes: 4 });
//! let mut w = dfs.create("/warehouse/t/part-0", NodeId(1)).unwrap();
//! w.write(b"hello block world").unwrap();
//! w.close().unwrap();
//!
//! assert_eq!(dfs.read_all("/warehouse/t/part-0").unwrap(), b"hello block world");
//! let splits = dfs.splits("/warehouse/t/part-0").unwrap();
//! assert_eq!(splits.len(), 3); // 17 bytes over 8-byte blocks
//! assert!(splits[0].hosts.contains(&NodeId(1))); // writer-local replica
//! ```

mod metrics;
mod namespace;
mod split;

pub use metrics::DfsMetrics;
pub use split::FileSplit;

use bytes::Bytes;
use hdm_common::error::{HdmError, Result};
use namespace::{FileEntry, Namespace};
use parking_lot::RwLock;
use std::sync::Arc;

/// Identifies a cluster node (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Filesystem-wide settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsConfig {
    /// Block size in bytes. The paper's testbed uses the Hadoop default
    /// of 64 MB.
    pub block_size: usize,
    /// Replication factor. Replicas beyond the node count are dropped.
    pub replication: usize,
    /// Number of datanodes available for replica placement.
    pub num_nodes: u32,
}

impl Default for DfsConfig {
    fn default() -> DfsConfig {
        DfsConfig {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            num_nodes: 8,
        }
    }
}

/// A pluggable read-through cache for ranged reads (the LLAP-style
/// shared data/metadata cache seam). The filesystem consults the cache
/// *before* touching blocks — a hit bypasses disk entirely (and hence
/// byte accounting, locality accounting, and fault injection, exactly
/// as a daemon-resident cache bypasses the datanode) — and offers every
/// miss back for admission. Mutating operations (`delete`, `rename`,
/// writer close) invalidate the affected path so the cache can never
/// serve stale bytes for a recreated file.
pub trait RangeCache: std::fmt::Debug + Send + Sync {
    /// Return the cached bytes for `(path, offset, len)` if present.
    fn lookup(&self, path: &str, offset: u64, len: u64) -> Option<Vec<u8>>;
    /// Offer freshly-read bytes for admission (the cache may decline).
    fn admit(&self, path: &str, offset: u64, len: u64, bytes: &[u8]);
    /// Drop every entry belonging to `path`.
    fn invalidate_path(&self, path: &str);
}

/// A cheaply-cloneable handle to the simulated filesystem.
///
/// Every clone shares the namespace, the per-node [`DfsMetrics`] and the
/// read cache. What one query adds — the obs counters its traffic is
/// mirrored into and the fault plan its ranged reads consult — is a
/// value of the handle itself, set by [`Dfs::for_query`]: a base handle
/// records into no query and injects nothing.
#[derive(Debug, Clone)]
pub struct Dfs {
    inner: Arc<RwLock<Namespace>>,
    config: DfsConfig,
    metrics: Arc<DfsMetrics>,
    /// Optional read-through cache; shared across clones so the server
    /// can attach one cache that covers every session's handle.
    read_cache: Arc<RwLock<Option<Arc<dyn RangeCache>>>>,
    query: QueryIo,
}

/// One query's view of DFS I/O: the `dfs.*` obs counters (inert on a
/// base handle) and the chaos source for transient ranged-read failures
/// (disabled on a base handle).
#[derive(Debug, Clone, Default)]
struct QueryIo {
    read_bytes: hdm_obs::Counter,
    write_bytes: hdm_obs::Counter,
    remote_reads: hdm_obs::Counter,
    faults: hdm_faults::FaultPlan,
}

/// How [`Dfs::create`]'s refusal of a taken path starts.
const FILE_EXISTS: &str = "file exists";

/// Whether `err` is [`Dfs::create`] refusing a path that is already
/// taken: the one create failure an appender answers by trying the next
/// name instead of giving up.
pub fn is_file_exists(err: &HdmError) -> bool {
    matches!(err, HdmError::Dfs(msg) if msg.starts_with(FILE_EXISTS))
}

impl Dfs {
    /// Create an empty filesystem.
    ///
    /// # Panics
    /// Panics if `block_size` is zero or `num_nodes` is zero.
    pub fn new(config: DfsConfig) -> Dfs {
        assert!(config.block_size > 0, "block size must be positive");
        assert!(config.num_nodes > 0, "need at least one node");
        Dfs {
            inner: Arc::new(RwLock::new(Namespace::new())),
            config,
            metrics: Arc::new(DfsMetrics::new(config.num_nodes)),
            read_cache: Arc::new(RwLock::new(None)),
            query: QueryIo::default(),
        }
    }

    /// The configuration this filesystem was built with.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// I/O counters (bytes read/written per node, locality hits).
    pub fn metrics(&self) -> &DfsMetrics {
        &self.metrics
    }

    /// This filesystem as one query sees it: the same namespace,
    /// per-node metrics and read cache, with the query's own obs
    /// counters (`dfs.read.bytes`, `dfs.write.bytes`, `dfs.remote.reads`
    /// — the resource-probe input for the Fig. 13 dstat analogue) and
    /// its own fault plan. The plan arms ranged reads, the split-read
    /// path that executes inside retryable task attempts; whole-file and
    /// planning reads are deliberately not injected, because driver-side
    /// planning has no task-level retry around it. Views of one `Dfs`
    /// held by concurrent queries neither see each other's faults nor
    /// count each other's bytes.
    pub fn for_query(&self, obs: &hdm_obs::ObsHandle, faults: &hdm_faults::FaultPlan) -> Dfs {
        Dfs {
            query: QueryIo {
                // hdm-allow(conf-key-registry): metric names, not conf lookups
                read_bytes: obs.counter("dfs.read.bytes", ""),
                // hdm-allow(conf-key-registry): metric names, not conf lookups
                write_bytes: obs.counter("dfs.write.bytes", ""),
                // hdm-allow(conf-key-registry): metric names, not conf lookups
                remote_reads: obs.counter("dfs.remote.reads", ""),
                faults: faults.clone(),
            },
            ..self.clone()
        }
    }

    /// Install (or with `None`, remove) a read-through cache for ranged
    /// reads. Shared across clones of this handle.
    pub fn attach_read_cache(&self, cache: Option<Arc<dyn RangeCache>>) {
        *self.read_cache.write() = cache;
    }

    /// Clone the cache handle out of its lock so cache calls never run
    /// under a dfs lock (keeps the lock-order graph acyclic).
    fn cache_handle(&self) -> Option<Arc<dyn RangeCache>> {
        self.read_cache.read().clone()
    }

    /// Open a new file for writing. Fails if the path already exists —
    /// as a closed file or as another writer's open one — so creation is
    /// exclusive: of two writers racing for a name, one gets it.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] if the file exists (see [`is_file_exists`]).
    pub fn create(&self, path: &str, writer_node: NodeId) -> Result<DfsWriter> {
        let mut ns = self.inner.write();
        if ns.contains(path) {
            return Err(HdmError::Dfs(format!("{FILE_EXISTS}: {path}")));
        }
        ns.insert_open(path);
        Ok(DfsWriter {
            dfs: self.clone(),
            path: path.to_string(),
            writer_node,
            pending: Vec::new(),
            blocks: Vec::new(),
            closed: false,
        })
    }

    /// Whole-file read.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] if the path is missing or still open for write.
    pub fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        let out = self.with_entry(path, |entry| {
            let mut out = Vec::with_capacity(entry.len as usize);
            for block in &entry.blocks {
                out.extend_from_slice(&block.data);
            }
            Ok(out)
        })?;
        self.record_read(None, out.len() as u64);
        Ok(out)
    }

    /// Read `len` bytes starting at `offset`, as a map task reading its
    /// split does. `reader_node` (if given) is used for locality
    /// accounting: the read counts as node-local iff some replica of every
    /// touched block lives on that node.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] on missing file or out-of-range read.
    pub fn read_range(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        reader_node: Option<NodeId>,
    ) -> Result<Vec<u8>> {
        // A cache hit is served from daemon memory: no disk touched, so
        // no storage fault can fire and no I/O is accounted.
        if let Some(cache) = self.cache_handle() {
            if let Some(bytes) = cache.lookup(path, offset, len) {
                return Ok(bytes);
            }
            if let Some(e) = self.query.faults.storage_error(path) {
                return Err(e);
            }
            let bytes = self.read_range_uninjected(path, offset, len, reader_node)?;
            cache.admit(path, offset, len, &bytes);
            return Ok(bytes);
        }
        if let Some(e) = self.query.faults.storage_error(path) {
            return Err(e);
        }
        self.read_range_uninjected(path, offset, len, reader_node)
    }

    /// [`Self::read_range`] for driver-side planning reads (file footers,
    /// split enumeration): exempt from fault injection like [`Self::read_all`],
    /// because planning runs outside any retryable task attempt.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] on missing file or out-of-range read.
    pub fn read_range_planning(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        reader_node: Option<NodeId>,
    ) -> Result<Vec<u8>> {
        if let Some(cache) = self.cache_handle() {
            if let Some(bytes) = cache.lookup(path, offset, len) {
                return Ok(bytes);
            }
            let bytes = self.read_range_uninjected(path, offset, len, reader_node)?;
            cache.admit(path, offset, len, &bytes);
            return Ok(bytes);
        }
        self.read_range_uninjected(path, offset, len, reader_node)
    }

    fn read_range_uninjected(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        reader_node: Option<NodeId>,
    ) -> Result<Vec<u8>> {
        let (out, local) = self.with_entry(path, |entry| {
            let Some(want_end) = offset.checked_add(len).filter(|&e| e <= entry.len) else {
                return Err(HdmError::Dfs(format!(
                    "read past EOF: {path} (len {}, want {}..{})",
                    entry.len,
                    offset,
                    offset.saturating_add(len)
                )));
            };
            let mut out = Vec::with_capacity(len as usize);
            let mut local = true;
            let mut pos = 0u64; // absolute file offset of current block start
            for block in &entry.blocks {
                let blen = block.data.len() as u64;
                let start = offset.max(pos);
                let end = want_end.min(pos + blen);
                if start < end {
                    let (from, to) = ((start - pos) as usize, (end - pos) as usize);
                    let bytes = block.data.get(from..to).ok_or_else(|| {
                        HdmError::Dfs(format!("{path}: block shorter than its length"))
                    })?;
                    out.extend_from_slice(bytes);
                    if let Some(n) = reader_node {
                        local &= block.replicas.contains(&n);
                    }
                }
                pos += blen;
                if pos >= want_end {
                    break;
                }
            }
            Ok((out, local))
        })?;
        self.record_read(reader_node, out.len() as u64);
        if let Some(n) = reader_node {
            self.metrics.record_locality(n, local);
            if !local {
                self.query.remote_reads.add(1);
            }
        }
        Ok(out)
    }

    /// File length in bytes.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] if the path is missing.
    pub fn len(&self, path: &str) -> Result<u64> {
        self.with_entry(path, |entry| Ok(entry.len))
    }

    /// True iff the path exists (closed files only).
    pub fn exists(&self, path: &str) -> bool {
        self.inner.read().get(path).is_some()
    }

    /// Block-aligned input splits with replica hosts, as
    /// `FileInputFormat.getSplits` would produce.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] if the path is missing.
    pub fn splits(&self, path: &str) -> Result<Vec<FileSplit>> {
        self.with_entry(path, |entry| {
            let mut splits = Vec::with_capacity(entry.blocks.len());
            let mut offset = 0u64;
            for block in &entry.blocks {
                splits.push(FileSplit {
                    path: path.to_string(),
                    offset,
                    len: block.data.len() as u64,
                    hosts: block.replicas.clone(),
                });
                offset += block.data.len() as u64;
            }
            Ok(splits)
        })
    }

    /// All closed files whose path starts with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.read().list(prefix)
    }

    /// Total length of the closed files whose path starts with `prefix`
    /// (HDFS's content summary of a directory): one pass under one lock,
    /// no path or block list copied.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.inner.read().bytes_under(prefix)
    }

    /// Delete a file; deleting a missing file is not an error (mirrors
    /// `fs -rm -f`). Returns whether something was removed.
    pub fn delete(&self, path: &str) -> bool {
        let removed = self.inner.write().remove(path).is_some();
        if removed {
            if let Some(cache) = self.cache_handle() {
                cache.invalidate_path(path);
            }
        }
        removed
    }

    /// Delete every file under a prefix; returns the number removed.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let files = self.list(prefix);
        let mut removed = Vec::with_capacity(files.len());
        {
            let mut ns = self.inner.write();
            for f in files {
                if ns.remove(&f).is_some() {
                    removed.push(f);
                }
            }
        }
        if let Some(cache) = self.cache_handle() {
            for f in &removed {
                cache.invalidate_path(f);
            }
        }
        removed.len()
    }

    /// Rename a file.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] if `from` is missing or `to` exists.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.write().rename(from, to)?;
        if let Some(cache) = self.cache_handle() {
            cache.invalidate_path(from);
            cache.invalidate_path(to);
        }
        Ok(())
    }

    /// Total bytes stored across all closed files.
    pub fn total_bytes(&self) -> u64 {
        self.inner.read().total_bytes()
    }

    fn record_read(&self, node: Option<NodeId>, bytes: u64) {
        self.metrics.record_read(node, bytes);
        self.query.read_bytes.add(bytes);
    }

    /// Run `read` over the closed file at `path` under the namespace's
    /// read lock: no copy of its block list (a refcount bump and a
    /// replica `Vec` per block) per call.
    fn with_entry<T>(&self, path: &str, read: impl FnOnce(&FileEntry) -> Result<T>) -> Result<T> {
        let ns = self.inner.read();
        let entry = ns
            .get(path)
            .ok_or_else(|| HdmError::Dfs(format!("no such file: {path}")))?;
        read(entry)
    }

    fn finish_file(&self, path: &str, blocks: Vec<namespace::Block>, len: u64) {
        self.inner.write().close_file(path, blocks, len);
        // A freshly-published file may reuse a previously-cached path
        // (e.g. INSERT OVERWRITE recreating the same part files).
        if let Some(cache) = self.cache_handle() {
            cache.invalidate_path(path);
        }
    }

    /// Deterministic replica placement: first replica on the writer's
    /// node, the rest striped across the remaining nodes starting from a
    /// hash of `(path, block_index)`.
    fn place_replicas(&self, path: &str, block_index: usize, writer: NodeId) -> Vec<NodeId> {
        let n = self.config.num_nodes;
        let want = self.config.replication.min(n as usize).max(1);
        let mut replicas = Vec::with_capacity(want);
        replicas.push(NodeId(writer.0 % n));
        let seed = hdm_common::partition::fnv1a(path.as_bytes())
            ^ (block_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = (seed % n as u64) as u32;
        while replicas.len() < want {
            let candidate = NodeId(next % n);
            if !replicas.contains(&candidate) {
                replicas.push(candidate);
            }
            next = next.wrapping_add(1);
        }
        replicas
    }
}

/// Streaming writer returned by [`Dfs::create`]. Data becomes visible
/// only after [`DfsWriter::close`]; a dropped-without-close writer
/// leaves no file behind (the open entry is discarded).
#[derive(Debug)]
pub struct DfsWriter {
    dfs: Dfs,
    path: String,
    writer_node: NodeId,
    pending: Vec<u8>,
    blocks: Vec<namespace::Block>,
    closed: bool,
}

impl DfsWriter {
    /// Append bytes, cutting blocks at the configured block size.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] if the writer is already closed.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        if self.closed {
            return Err(HdmError::Dfs(format!("write after close: {}", self.path)));
        }
        self.pending.extend_from_slice(data);
        let bs = self.dfs.config.block_size;
        while self.pending.len() >= bs {
            let rest = self.pending.split_off(bs);
            let full = std::mem::replace(&mut self.pending, rest);
            self.cut_block(full);
        }
        Ok(())
    }

    /// Bytes written so far (including the unflushed tail).
    pub fn bytes_written(&self) -> u64 {
        self.blocks.iter().map(|b| b.data.len() as u64).sum::<u64>() + self.pending.len() as u64
    }

    /// Flush the tail block and publish the file.
    ///
    /// # Errors
    /// [`HdmError::Dfs`] if already closed.
    pub fn close(mut self) -> Result<()> {
        if self.closed {
            return Err(HdmError::Dfs(format!("double close: {}", self.path)));
        }
        if !self.pending.is_empty() {
            let tail = std::mem::take(&mut self.pending);
            self.cut_block(tail);
        }
        let blocks = std::mem::take(&mut self.blocks);
        let len = blocks.iter().map(|b| b.data.len() as u64).sum();
        // Replicated write: each replica is one disk write on its node.
        for b in &blocks {
            for &r in &b.replicas {
                self.dfs.metrics.record_write(Some(r), b.data.len() as u64);
                self.dfs.query.write_bytes.add(b.data.len() as u64);
            }
        }
        self.dfs.finish_file(&self.path, blocks, len);
        self.closed = true;
        Ok(())
    }

    /// Seal `data` as the next block. A block lives as long as its file,
    /// so it gives back the capacity it grew with (a full block split
    /// off a larger buffer, a tail that doubled) before it is frozen.
    fn cut_block(&mut self, mut data: Vec<u8>) {
        data.shrink_to_fit();
        let replicas = self
            .dfs
            .place_replicas(&self.path, self.blocks.len(), self.writer_node);
        self.blocks.push(namespace::Block {
            data: Bytes::from(data),
            replicas,
        });
    }
}

impl Drop for DfsWriter {
    fn drop(&mut self) {
        if !self.closed {
            // Abandon the open entry so half-written files never appear.
            self.dfs.inner.write().abort_open(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fs() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 10,
            replication: 2,
            num_nodes: 4,
        })
    }

    #[test]
    fn write_read_round_trip() {
        let dfs = small_fs();
        let mut w = dfs.create("/a", NodeId(0)).unwrap();
        w.write(b"0123456789abcdefghij!").unwrap();
        w.close().unwrap();
        assert_eq!(dfs.read_all("/a").unwrap(), b"0123456789abcdefghij!");
        assert_eq!(dfs.len("/a").unwrap(), 21);
    }

    #[test]
    fn blocks_cut_at_block_size() {
        let dfs = small_fs();
        let mut w = dfs.create("/b", NodeId(2)).unwrap();
        for _ in 0..5 {
            w.write(b"0123456").unwrap(); // 35 bytes total
        }
        w.close().unwrap();
        let splits = dfs.splits("/b").unwrap();
        assert_eq!(splits.len(), 4); // 10+10+10+5
        assert_eq!(splits[3].len, 5);
        assert_eq!(splits[1].offset, 10);
        for s in &splits {
            assert_eq!(s.hosts.len(), 2);
            assert_eq!(s.hosts[0], NodeId(2)); // writer-local first replica
        }
    }

    #[test]
    fn range_read_spans_blocks() {
        let dfs = small_fs();
        let mut w = dfs.create("/c", NodeId(1)).unwrap();
        w.write(b"aaaaaaaaaabbbbbbbbbbcc").unwrap();
        w.close().unwrap();
        let got = dfs.read_range("/c", 8, 6, Some(NodeId(1))).unwrap();
        assert_eq!(got, b"aabbbb");
        assert!(dfs.read_range("/c", 20, 5, None).is_err());
    }

    #[test]
    fn create_existing_fails() {
        let dfs = small_fs();
        dfs.create("/d", NodeId(0)).unwrap().close().unwrap();
        assert!(is_file_exists(&dfs.create("/d", NodeId(0)).unwrap_err()));
        // Another writer's open file holds its name just the same, and
        // only that refusal counts as "taken".
        let _open = dfs.create("/d2", NodeId(0)).unwrap();
        assert!(is_file_exists(&dfs.create("/d2", NodeId(0)).unwrap_err()));
        assert!(!is_file_exists(&dfs.read_all("/missing").unwrap_err()));
    }

    #[test]
    fn missing_and_open_files_are_the_same_error_on_every_read() {
        let dfs = small_fs();
        let _open = dfs.create("/open", NodeId(0)).unwrap();
        for path in ["/missing", "/open"] {
            let want = HdmError::Dfs(format!("no such file: {path}"));
            assert_eq!(dfs.read_range(path, 0, 1, None).unwrap_err(), want);
            assert_eq!(dfs.read_range_planning(path, 0, 1, None).unwrap_err(), want);
            assert_eq!(dfs.len(path).unwrap_err(), want);
            assert_eq!(dfs.splits(path).unwrap_err(), want);
            assert_eq!(dfs.read_all(path).unwrap_err(), want);
        }
    }

    #[test]
    fn closed_blocks_hold_no_spare_capacity() {
        let dfs = small_fs();
        let mut w = dfs.create("/cap", NodeId(0)).unwrap();
        // Writes that overshoot a block (its buffer grew past 10 bytes
        // before the cut) and a tail that grew by doubling.
        for chunk in [&b"0123456"[..], b"0123456789abcdefghij", b"x", b"yz"] {
            w.write(chunk).unwrap();
        }
        w.close().unwrap();
        let entry = dfs.inner.write().remove("/cap").expect("closed file");
        let lens: Vec<usize> = entry.blocks.iter().map(|b| b.data.len()).collect();
        assert_eq!(lens, vec![10, 10, 10]);
        for block in entry.blocks {
            let len = block.data.len();
            let buffer: Vec<u8> = block.data.try_into_mut().expect("sole owner").into();
            assert_eq!(buffer.capacity(), len);
        }
    }

    #[test]
    fn unclosed_writer_leaves_no_file() {
        let dfs = small_fs();
        {
            let mut w = dfs.create("/ghost", NodeId(0)).unwrap();
            w.write(b"data").unwrap();
            // dropped without close
        }
        assert!(!dfs.exists("/ghost"));
        // Path is reusable after the abort.
        dfs.create("/ghost", NodeId(0)).unwrap().close().unwrap();
        assert!(dfs.exists("/ghost"));
    }

    #[test]
    fn open_file_is_invisible_until_close() {
        let dfs = small_fs();
        let w = dfs.create("/e", NodeId(0)).unwrap();
        assert!(!dfs.exists("/e"));
        assert!(dfs.read_all("/e").is_err());
        w.close().unwrap();
        assert!(dfs.exists("/e"));
    }

    #[test]
    fn list_delete_rename() {
        let dfs = small_fs();
        for p in ["/t/x/1", "/t/x/2", "/t/y/1"] {
            dfs.create(p, NodeId(0)).unwrap().close().unwrap();
        }
        assert_eq!(
            dfs.list("/t/x/"),
            vec!["/t/x/1".to_string(), "/t/x/2".to_string()]
        );
        assert_eq!(dfs.delete_prefix("/t/x/"), 2);
        assert!(!dfs.exists("/t/x/1"));
        dfs.rename("/t/y/1", "/t/z").unwrap();
        assert!(dfs.exists("/t/z"));
        assert!(dfs.rename("/missing", "/nope").is_err());
        assert!(!dfs.delete("/missing"));
    }

    #[test]
    fn bytes_under_sums_closed_files_of_a_prefix() {
        let dfs = small_fs();
        for (p, n) in [("/t/x/1", 5), ("/t/x/2", 70), ("/t/xy", 9), ("/t/y/1", 3)] {
            let mut w = dfs.create(p, NodeId(0)).unwrap();
            w.write(&vec![7u8; n]).unwrap();
            w.close().unwrap();
        }
        // An open file is not there yet, as for `list`.
        let mut open = dfs.create("/t/x/3", NodeId(0)).unwrap();
        open.write(&[1u8; 11]).unwrap();
        assert_eq!(dfs.bytes_under("/t/x/"), 75);
        assert_eq!(dfs.bytes_under("/t/"), 87);
        assert_eq!(dfs.bytes_under("/nope/"), 0);
        open.close().unwrap();
        assert_eq!(dfs.bytes_under("/t/x/"), 86);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let dfs = Dfs::new(DfsConfig {
            block_size: 4,
            replication: 3,
            num_nodes: 8,
        });
        let mut w = dfs.create("/r", NodeId(5)).unwrap();
        w.write(&[0u8; 64]).unwrap();
        w.close().unwrap();
        for s in dfs.splits("/r").unwrap() {
            let mut hosts = s.hosts.clone();
            hosts.sort();
            hosts.dedup();
            assert_eq!(hosts.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn metrics_count_reads_and_writes() {
        let dfs = small_fs();
        let mut w = dfs.create("/m", NodeId(0)).unwrap();
        w.write(&[1u8; 25]).unwrap();
        w.close().unwrap();
        // 3 blocks × 2 replicas × bytes
        assert_eq!(dfs.metrics().total_bytes_written(), 50);
        dfs.read_all("/m").unwrap();
        assert_eq!(dfs.metrics().total_bytes_read(), 25);
    }

    #[test]
    fn query_view_injects_faults_only_into_its_own_reads() {
        use hdm_faults::FaultPlan;
        use hdm_obs::ObsHandle;
        let dfs = small_fs();
        let plan = FaultPlan::with_seed(3);
        // Find a path the plan marks flaky before creating it.
        let path = (0..512)
            .map(|i| format!("/warehouse/t/part-{i}"))
            .find(|p| FaultPlan::with_seed(3).storage_error(p).is_some())
            .expect("no flaky path in 512 candidates");
        let mut w = dfs.create(&path, NodeId(0)).unwrap();
        w.write(&[7u8; 10]).unwrap();
        w.close().unwrap();
        let faulted = dfs.for_query(&ObsHandle::disabled(), &plan);
        let other = dfs.for_query(&ObsHandle::disabled(), &FaultPlan::disabled());
        // The flaky path fails at most twice in the faulted view, then
        // heals; whole-file reads are never injected. The base handle
        // and a second view read it cleanly all along.
        let mut failures = 0;
        let data = loop {
            assert!(dfs.read_range(&path, 0, 10, None).is_ok());
            assert!(other.read_range(&path, 0, 10, None).is_ok());
            match faulted.read_range(&path, 0, 10, None) {
                Ok(d) => break d,
                Err(e) => {
                    assert_eq!(e.subsystem(), "dfs");
                    failures += 1;
                    assert!(failures <= 2, "injected fault never heals");
                }
            }
        };
        assert_eq!(data, vec![7u8; 10]);
        assert!(failures >= 1, "chosen path must actually be flaky");
        assert!(faulted.read_all(&path).is_ok());
    }

    #[test]
    fn query_view_mirrors_only_its_own_traffic_into_its_obs() {
        use hdm_obs::ObsHandle;
        let dfs = small_fs();
        let (a, b) = (
            ObsHandle::enabled_with_stride(1),
            ObsHandle::enabled_with_stride(1),
        );
        let view_a = dfs.for_query(&a, &hdm_faults::FaultPlan::disabled());
        let view_b = dfs.for_query(&b, &hdm_faults::FaultPlan::disabled());
        let mut w = view_a.create("/q/a", NodeId(0)).unwrap();
        w.write(&[1u8; 6]).unwrap();
        w.close().unwrap();
        let hosts = dfs.splits("/q/a").unwrap()[0].hosts.clone();
        let remote = (0..4).map(NodeId).find(|n| !hosts.contains(n)).unwrap();
        view_a.read_range("/q/a", 0, 5, Some(remote)).unwrap();
        view_b.read_all("/q/a").unwrap();
        dfs.read_all("/q/a").unwrap();
        let get = |obs: &ObsHandle, name: &str| {
            obs.snapshot()
                .counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
        };
        // hdm-allow(conf-key-registry): metric names, not conf lookups
        let names = ["dfs.read.bytes", "dfs.write.bytes", "dfs.remote.reads"];
        // Two replicas of one 6-byte block; one remote 5-byte read.
        assert_eq!(names.map(|n| get(&a, n)), [Some(5), Some(12), Some(1)]);
        assert_eq!(names.map(|n| get(&b, n)), [Some(6), Some(0), Some(0)]);
        // The shared per-node metrics see every handle's traffic.
        assert_eq!(dfs.metrics().total_bytes_read(), 17);
        assert_eq!(dfs.metrics().total_bytes_written(), 12);
    }

    #[derive(Debug, Default)]
    struct RecordingCache {
        entries: std::sync::Mutex<std::collections::HashMap<(String, u64, u64), Vec<u8>>>,
        hits: std::sync::atomic::AtomicU64,
    }

    impl RangeCache for RecordingCache {
        fn lookup(&self, path: &str, offset: u64, len: u64) -> Option<Vec<u8>> {
            let got = self
                .entries
                .lock()
                .unwrap()
                .get(&(path.to_string(), offset, len))
                .cloned();
            if got.is_some() {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            got
        }
        fn admit(&self, path: &str, offset: u64, len: u64, bytes: &[u8]) {
            self.entries
                .lock()
                .unwrap()
                .insert((path.to_string(), offset, len), bytes.to_vec());
        }
        fn invalidate_path(&self, path: &str) {
            self.entries.lock().unwrap().retain(|k, _| k.0 != path);
        }
    }

    #[test]
    fn read_cache_serves_hits_and_is_invalidated_on_mutation() {
        let dfs = small_fs();
        let mut w = dfs.create("/warehouse/t/part-0", NodeId(0)).unwrap();
        w.write(b"0123456789").unwrap();
        w.close().unwrap();

        let cache = Arc::new(RecordingCache::default());
        dfs.attach_read_cache(Some(cache.clone()));

        // Miss + admit, then a hit served without touching disk metrics.
        let before = dfs.metrics().total_bytes_read();
        assert_eq!(
            dfs.read_range("/warehouse/t/part-0", 2, 5, None).unwrap(),
            b"23456"
        );
        let after_miss = dfs.metrics().total_bytes_read();
        assert_eq!(after_miss - before, 5);
        assert_eq!(
            dfs.read_range("/warehouse/t/part-0", 2, 5, None).unwrap(),
            b"23456"
        );
        assert_eq!(dfs.metrics().total_bytes_read(), after_miss);
        assert_eq!(cache.hits.load(std::sync::atomic::Ordering::Relaxed), 1);

        // Rewriting the path (delete + recreate) must invalidate.
        assert!(dfs.delete("/warehouse/t/part-0"));
        let mut w = dfs.create("/warehouse/t/part-0", NodeId(0)).unwrap();
        w.write(b"abcdefghij").unwrap();
        w.close().unwrap();
        assert_eq!(
            dfs.read_range("/warehouse/t/part-0", 2, 5, None).unwrap(),
            b"cdefg"
        );

        // Detach restores the uncached path.
        dfs.attach_read_cache(None);
        assert_eq!(
            dfs.read_range("/warehouse/t/part-0", 0, 3, None).unwrap(),
            b"abc"
        );
    }

    #[test]
    fn locality_accounting() {
        let dfs = small_fs();
        let mut w = dfs.create("/loc", NodeId(3)).unwrap();
        w.write(&[1u8; 10]).unwrap();
        w.close().unwrap();
        // Node 3 holds the first replica of every block: local.
        dfs.read_range("/loc", 0, 10, Some(NodeId(3))).unwrap();
        let (local, remote) = dfs.metrics().locality_counts();
        assert_eq!(local, 1);
        assert_eq!(remote, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn chunked_writes_round_trip(
            chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..12),
            block_size in 1usize..32,
        ) {
            let dfs = Dfs::new(DfsConfig { block_size, replication: 2, num_nodes: 3 });
            let mut w = dfs.create("/p", NodeId(0)).unwrap();
            let mut expect = Vec::new();
            for c in &chunks {
                w.write(c).unwrap();
                expect.extend_from_slice(c);
            }
            w.close().unwrap();
            prop_assert_eq!(dfs.read_all("/p").unwrap(), expect.clone());
            // Splits tile the file exactly.
            let splits = dfs.splits("/p").unwrap();
            let mut pos = 0u64;
            for s in &splits {
                prop_assert_eq!(s.offset, pos);
                prop_assert!(s.len <= block_size as u64);
                pos += s.len;
            }
            prop_assert_eq!(pos, expect.len() as u64);
        }

        #[test]
        fn arbitrary_range_reads_match(
            data in proptest::collection::vec(any::<u8>(), 1..200),
            a in 0usize..200,
            b in 0usize..200,
        ) {
            let dfs = Dfs::new(DfsConfig { block_size: 7, replication: 1, num_nodes: 2 });
            let mut w = dfs.create("/q", NodeId(0)).unwrap();
            w.write(&data).unwrap();
            w.close().unwrap();
            let lo = a.min(b) % data.len();
            let hi = (a.max(b) % data.len()).max(lo);
            let got = dfs.read_range("/q", lo as u64, (hi - lo) as u64, None).unwrap();
            prop_assert_eq!(got, data[lo..hi].to_vec());
        }
    }
}
