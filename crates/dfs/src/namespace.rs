//! The namenode: path → file metadata + block data.

use crate::NodeId;
use bytes::Bytes;
use hdm_common::error::{HdmError, Result};
use std::collections::{BTreeMap, BTreeSet};

/// One replicated block.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Block contents (shared, immutable once published).
    pub data: Bytes,
    /// Nodes holding a replica; the first is the writer-local one.
    pub replicas: Vec<NodeId>,
}

/// Metadata + data for one closed file.
#[derive(Debug)]
pub(crate) struct FileEntry {
    pub blocks: Vec<Block>,
    pub len: u64,
}

/// The mutable namespace behind the [`crate::Dfs`] lock.
#[derive(Debug, Default)]
pub(crate) struct Namespace {
    files: BTreeMap<String, FileEntry>,
    open: BTreeSet<String>,
}

impl Namespace {
    pub fn new() -> Namespace {
        Namespace::default()
    }

    /// True if the path names a closed file or an in-flight writer.
    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path) || self.open.contains(path)
    }

    pub fn get(&self, path: &str) -> Option<&FileEntry> {
        self.files.get(path)
    }

    pub fn insert_open(&mut self, path: &str) {
        self.open.insert(path.to_string());
    }

    pub fn abort_open(&mut self, path: &str) {
        self.open.remove(path);
    }

    pub fn close_file(&mut self, path: &str, blocks: Vec<Block>, len: u64) {
        self.open.remove(path);
        self.files
            .insert(path.to_string(), FileEntry { blocks, len });
    }

    /// Unlink a closed file, handing back its entry.
    pub fn remove(&mut self, path: &str) -> Option<FileEntry> {
        self.files.remove(path)
    }

    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        if self.contains(to) {
            return Err(HdmError::Dfs(format!("rename target exists: {to}")));
        }
        match self.files.remove(from) {
            Some(entry) => {
                self.files.insert(to.to_string(), entry);
                Ok(())
            }
            None => Err(HdmError::Dfs(format!("rename source missing: {from}"))),
        }
    }

    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total length of the closed files under `prefix`.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, f)| f.len)
            .sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_entries_block_creation_but_are_not_listed() {
        let mut ns = Namespace::new();
        ns.insert_open("/x");
        assert!(ns.contains("/x"));
        assert!(ns.get("/x").is_none());
        assert!(ns.list("/").is_empty());
        ns.close_file("/x", Vec::new(), 0);
        assert_eq!(ns.list("/"), vec!["/x".to_string()]);
    }

    #[test]
    fn list_uses_range_scan() {
        let mut ns = Namespace::new();
        for p in ["/a/1", "/a/2", "/b/1"] {
            ns.close_file(p, Vec::new(), 0);
        }
        assert_eq!(ns.list("/a/"), vec!["/a/1".to_string(), "/a/2".to_string()]);
        assert_eq!(
            ns.list(""),
            vec!["/a/1".to_string(), "/a/2".to_string(), "/b/1".to_string()]
        );
    }

    #[test]
    fn rename_conflicts_detected() {
        let mut ns = Namespace::new();
        ns.close_file("/a", Vec::new(), 1);
        ns.close_file("/b", Vec::new(), 2);
        assert!(ns.rename("/a", "/b").is_err());
        assert!(ns.rename("/a", "/c").is_ok());
        assert!(!ns.contains("/a"));
        assert!(ns.contains("/c"));
    }
}
