//! The Metastore: table metadata (schemas, formats, storage paths).
//!
//! Since the hdm-server PR the metastore is a *shared* handle: cloning a
//! [`Metastore`] yields another view of the same catalog (like Hive's
//! remote Metastore service, which every HiveServer2 session talks to).
//! Interior mutability lets concurrent sessions plan against it with
//! `&self`, and a monotonic per-table **version counter** — bumped on
//! every data-changing operation and surviving drop/recreate — gives the
//! server's result cache a sound invalidation key.

use hdm_common::error::{HdmError, Result};
use hdm_common::row::Schema;
use hdm_common::value::DataType;
use hdm_dfs::Dfs;
use hdm_storage::{FormatKind, TableStorage};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the DFS held for a table when its data last changed: the one
/// statistic the planner uses (map-side joins, `physical.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredSize {
    /// Stored bytes, summed over the table's part files.
    pub bytes: u64,
    /// Block size of the filesystem the part files live in.
    pub block_size: u64,
}

impl StoredSize {
    /// True when the whole table is no larger than one DFS block — no
    /// more than the one split a task reading any table is handed.
    pub fn fits_one_block(&self) -> bool {
        self.bytes <= self.block_size
    }
}

/// Metadata of one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name (lower-cased).
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// On-disk format.
    pub format: FormatKind,
    /// Size at the table's current data version; `None` until a write
    /// has been recorded ([`Metastore::record_write`]).
    pub stored: Option<StoredSize>,
}

#[derive(Debug, Default)]
struct CatalogState {
    tables: BTreeMap<String, TableMeta>,
    /// Monotonic data-version per table name. Never removed — a table
    /// dropped and recreated continues its old counter, so a cached
    /// result keyed on the pre-drop version can never match the
    /// recreated table.
    versions: BTreeMap<String, u64>,
}

/// The Metastore: a name → [`TableMeta`] map plus the warehouse layout.
///
/// Like Hive's Metastore it stores *metadata only*; the rows live in the
/// DFS under [`TableStorage`]'s `warehouse/<table>/part-N` convention.
/// Clones share the same catalog state.
#[derive(Debug, Clone, Default)]
pub struct Metastore {
    state: Arc<RwLock<CatalogState>>,
    /// Warehouse directory layout.
    pub storage: TableStorage,
}

impl Metastore {
    /// An empty metastore with the default warehouse root.
    pub fn new() -> Metastore {
        Metastore::default()
    }

    /// Register a new table. Bumps the table's data version.
    ///
    /// # Errors
    /// [`HdmError::Plan`] if the name is taken (unless `if_not_exists`).
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<(String, DataType)>,
        format: FormatKind,
        if_not_exists: bool,
    ) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let mut state = self.state.write();
        if state.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(HdmError::Plan(format!("table already exists: {name}")));
        }
        let schema = Schema::new(columns);
        state.tables.insert(
            key.clone(),
            TableMeta {
                name: key.clone(),
                schema,
                format,
                stored: None,
            },
        );
        *state.versions.entry(key).or_insert(0) += 1;
        Ok(())
    }

    /// Look up a table (an owned snapshot of its metadata).
    ///
    /// # Errors
    /// [`HdmError::Plan`] if missing.
    pub fn table(&self, name: &str) -> Result<TableMeta> {
        self.state
            .read()
            .tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| HdmError::Plan(format!("no such table: {name}")))
    }

    /// True if the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.state
            .read()
            .tables
            .contains_key(&name.to_ascii_lowercase())
    }

    /// Drop a table's metadata and its data files. Bumps the version.
    ///
    /// # Errors
    /// [`HdmError::Plan`] if missing (unless `if_exists`).
    pub fn drop_table(&self, dfs: &Dfs, name: &str, if_exists: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        {
            let mut state = self.state.write();
            if state.tables.remove(&key).is_none() && !if_exists {
                return Err(HdmError::Plan(format!("no such table: {name}")));
            }
            *state.versions.entry(key.clone()).or_insert(0) += 1;
        }
        self.storage.drop_table(dfs, &key);
        Ok(())
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.state.read().tables.keys().cloned().collect()
    }

    /// The current data version of `name` (0 if never written).
    pub fn version(&self, name: &str) -> u64 {
        self.state
            .read()
            .versions
            .get(&name.to_ascii_lowercase())
            .copied()
            .unwrap_or(0)
    }

    /// Record a data change on `name` that nobody measured: increments
    /// its version counter and forgets the recorded size.
    pub fn bump_version(&self, name: &str) {
        self.data_changed(name, |_| None);
    }

    /// Record a finished write to `name`: increments its version counter
    /// and records what the DFS now holds for it. Both happen under one
    /// catalog write lock, so a reader never pairs a version with the
    /// size of an older one.
    pub fn record_write(&self, dfs: &Dfs, name: &str) {
        self.data_changed(name, |table| {
            Some(StoredSize {
                bytes: self.storage.table_bytes(dfs, table).ok()?,
                block_size: dfs.config().block_size as u64,
            })
        });
    }

    fn data_changed(&self, name: &str, measure: impl FnOnce(&str) -> Option<StoredSize>) {
        let key = name.to_ascii_lowercase();
        let mut state = self.state.write();
        let stored = measure(&key);
        if let Some(meta) = state.tables.get_mut(&key) {
            meta.stored = stored;
        }
        *state.versions.entry(key).or_insert(0) += 1;
    }

    /// Snapshot `(name, version)` pairs for the given tables, in input
    /// order. Unknown tables report version 0.
    pub fn versions_of(&self, names: &[String]) -> Vec<(String, u64)> {
        let state = self.state.read();
        names
            .iter()
            .map(|n| {
                let key = n.to_ascii_lowercase();
                let v = state.versions.get(&key).copied().unwrap_or(0);
                (key, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_dfs::DfsConfig;

    #[test]
    fn create_lookup_drop() {
        let ms = Metastore::new();
        ms.create_table(
            "Orders",
            vec![("o_orderkey".into(), DataType::Long)],
            FormatKind::Text,
            false,
        )
        .unwrap();
        assert!(ms.contains("ORDERS"));
        let meta = ms.table("orders").unwrap();
        assert_eq!(meta.schema.len(), 1);
        // Duplicate fails unless IF NOT EXISTS.
        assert!(ms
            .create_table(
                "orders",
                vec![("x".into(), DataType::Long)],
                FormatKind::Text,
                false
            )
            .is_err());
        ms.create_table(
            "orders",
            vec![("x".into(), DataType::Long)],
            FormatKind::Text,
            true,
        )
        .unwrap();
        // Original schema kept.
        assert_eq!(
            ms.table("orders").unwrap().schema.index_of("o_orderkey"),
            Some(0)
        );

        let dfs = Dfs::new(DfsConfig {
            block_size: 64,
            replication: 1,
            num_nodes: 1,
        });
        ms.drop_table(&dfs, "orders", false).unwrap();
        assert!(!ms.contains("orders"));
        assert!(ms.drop_table(&dfs, "orders", false).is_err());
        ms.drop_table(&dfs, "orders", true).unwrap();
    }

    #[test]
    fn table_names_sorted() {
        let ms = Metastore::new();
        for n in ["zeta", "alpha"] {
            ms.create_table(
                n,
                vec![("c".into(), DataType::Long)],
                FormatKind::Orc,
                false,
            )
            .unwrap();
        }
        assert_eq!(
            ms.table_names(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );
    }

    #[test]
    fn clones_share_catalog_state() {
        let ms = Metastore::new();
        let view = ms.clone();
        ms.create_table(
            "shared",
            vec![("c".into(), DataType::Long)],
            FormatKind::Text,
            false,
        )
        .unwrap();
        assert!(view.contains("shared"));
        view.bump_version("shared");
        assert_eq!(ms.version("shared"), 2);
    }

    #[test]
    fn versions_are_monotonic_across_drop_and_recreate() {
        let ms = Metastore::new();
        let dfs = Dfs::new(DfsConfig {
            block_size: 64,
            replication: 1,
            num_nodes: 1,
        });
        assert_eq!(ms.version("t"), 0);
        ms.create_table(
            "t",
            vec![("c".into(), DataType::Long)],
            FormatKind::Text,
            false,
        )
        .unwrap();
        let v1 = ms.version("t");
        ms.bump_version("t"); // e.g. an INSERT
        let v2 = ms.version("t");
        ms.drop_table(&dfs, "t", false).unwrap();
        let v3 = ms.version("t");
        ms.create_table(
            "t",
            vec![("c".into(), DataType::Long)],
            FormatKind::Text,
            false,
        )
        .unwrap();
        let v4 = ms.version("t");
        assert!(v1 < v2 && v2 < v3 && v3 < v4, "{v1} {v2} {v3} {v4}");
        assert_eq!(
            ms.versions_of(&["T".to_string(), "missing".to_string()]),
            vec![("t".to_string(), v4), ("missing".to_string(), 0)]
        );
    }

    #[test]
    fn a_recorded_write_measures_the_table_and_an_unmeasured_change_forgets() {
        let ms = Metastore::new();
        let dfs = Dfs::new(DfsConfig {
            block_size: 64,
            replication: 1,
            num_nodes: 1,
        });
        let schema = vec![("c".to_string(), DataType::Long)];
        ms.create_table("t", schema.clone(), FormatKind::Text, false)
            .unwrap();
        assert_eq!(ms.table("t").unwrap().stored, None);
        let write_part = |part: usize, bytes: usize| {
            let mut w = dfs
                .create(&ms.storage.part_path("t", part), hdm_dfs::NodeId(0))
                .unwrap();
            w.write(&vec![b'x'; bytes]).unwrap();
            w.close().unwrap();
        };
        // Part files add up, and the size lands with the version bump.
        write_part(0, 40);
        let v0 = ms.version("t");
        ms.record_write(&dfs, "T");
        let size = ms.table("t").unwrap().stored.unwrap();
        assert_eq!((size.bytes, size.block_size), (40, 64));
        assert!(size.fits_one_block());
        assert_eq!(ms.version("t"), v0 + 1);
        write_part(1, 25);
        ms.record_write(&dfs, "t");
        let size = ms.table("t").unwrap().stored.unwrap();
        assert_eq!(size.bytes, 65);
        assert!(!size.fits_one_block());
        // A change nobody measured: the version moves, the size goes.
        ms.bump_version("t");
        assert_eq!(ms.table("t").unwrap().stored, None);
        assert_eq!(ms.version("t"), v0 + 3);
        // Drop + recreate starts unmeasured even though files were there.
        ms.record_write(&dfs, "t");
        ms.drop_table(&dfs, "t", false).unwrap();
        ms.create_table("t", schema, FormatKind::Text, false)
            .unwrap();
        assert_eq!(ms.table("t").unwrap().stored, None);
        // Recording a write to a table that does not exist only bumps.
        ms.record_write(&dfs, "ghost");
        assert_eq!(ms.version("ghost"), 1);
    }
}
