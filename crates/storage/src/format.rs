//! Format-independent reading/writing traits and table storage layout.

use crate::{orc, text};
use hdm_common::error::Result;
use hdm_common::row::{Row, Schema};
use hdm_common::value::Value;
use hdm_dfs::{Dfs, FileSplit, NodeId};

/// Which on-disk format a table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// Delimited text (Hive default).
    Text,
    /// ORC-like columnar.
    Orc,
}

impl FormatKind {
    /// Parse `"text"` / `"orc"` (case-insensitive).
    pub fn parse(s: &str) -> Option<FormatKind> {
        match s.to_ascii_lowercase().as_str() {
            "text" | "textfile" => Some(FormatKind::Text),
            "orc" | "orcfile" => Some(FormatKind::Orc),
            _ => None,
        }
    }

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FormatKind::Text => "text",
            FormatKind::Orc => "orc",
        }
    }
}

/// Streaming row writer bound to one output file.
pub trait RowSink {
    /// Append one row.
    ///
    /// # Errors
    /// Fails if the row does not match the schema or the file write fails.
    fn write_row(&mut self, row: &Row) -> Result<()>;
    /// Append one row the caller gives up: a sink that keeps cells (ORC's
    /// column buffers) moves them instead of copying. The default writes
    /// a borrow of it.
    ///
    /// # Errors
    /// As [`RowSink::write_row`].
    fn write_owned(&mut self, row: Row) -> Result<()> {
        self.write_row(&row)
    }
    /// Finish and publish the file.
    ///
    /// # Errors
    /// Propagates storage/DFS failures.
    fn close(self: Box<Self>) -> Result<u64>;
}

/// A fully-materialized read of one split: rows plus the bytes that were
/// actually fetched from the DFS to produce them (ORC column pruning
/// makes these differ from the split length).
#[derive(Debug, Clone, PartialEq)]
pub struct RowSource {
    /// Decoded rows (already projected if the format supports projection).
    pub rows: Vec<Row>,
    /// Bytes physically read from the DFS.
    pub bytes_read: u64,
    /// Rows the reader decoded far enough to test the pushed-down
    /// predicates on, and dropped because one failed; they are not in
    /// `rows`. Zero for formats that only prune whole stripes.
    pub rows_skipped: u64,
}

/// Split enumeration with planning-side pruning accounting: formats
/// that keep per-stripe statistics can drop whole stripes from the
/// split set before any task is scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedSplits {
    /// Splits covering the stripes that may contain matching rows.
    pub splits: Vec<FileSplit>,
    /// Stripes dropped at planning time by predicate statistics.
    pub pruned_stripes: u64,
    /// Rows contained in the pruned stripes.
    pub pruned_rows: u64,
}

/// One decoded stripe kept column-wise: `columns[c][r]` is row `r` of
/// projected column `c`. Row order matches the row-at-a-time read.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarStripe {
    /// Per-column value vectors, all of length `rows`.
    pub columns: Vec<Vec<Value>>,
    /// Rows in this stripe (kept explicitly for zero-width projections).
    pub rows: usize,
}

/// A columnar read of one split: stripes in file order plus the bytes
/// fetched. Transposing each stripe yields exactly [`RowSource::rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarSource {
    /// Decoded stripes in file order.
    pub stripes: Vec<ColumnarStripe>,
    /// Bytes physically read from the DFS.
    pub bytes_read: u64,
    /// As [`RowSource::rows_skipped`].
    pub rows_skipped: u64,
}

/// The one transpose: a columnar read as rows, cells moved, not cloned.
impl From<ColumnarSource> for RowSource {
    fn from(src: ColumnarSource) -> RowSource {
        let mut rows = Vec::with_capacity(src.stripes.iter().map(|s| s.rows).sum());
        for stripe in src.stripes {
            let mut cells: Vec<_> = stripe.columns.into_iter().map(Vec::into_iter).collect();
            rows.extend((0..stripe.rows).map(|_| {
                cells
                    .iter_mut()
                    .map(|c| c.next().unwrap_or(Value::Null))
                    .collect::<Row>()
            }));
        }
        RowSource {
            rows,
            bytes_read: src.bytes_read,
            rows_skipped: src.rows_skipped,
        }
    }
}

/// One file format: how rows get onto and off the simulated DFS.
pub trait FileFormat: Send + Sync {
    /// The format tag.
    fn kind(&self) -> FormatKind;

    /// Open a writer for `path`.
    ///
    /// # Errors
    /// Fails if the path already exists.
    fn create(
        &self,
        dfs: &Dfs,
        path: &str,
        schema: &Schema,
        node: NodeId,
    ) -> Result<Box<dyn RowSink>>;

    /// Read one split, optionally projecting columns and pushing down
    /// predicates. The predicates are a hint: a format may drop any row
    /// (or stripe) that fails one and must return every row that passes
    /// them all; the caller re-applies its full filter.
    ///
    /// # Errors
    /// Propagates DFS/decode failures.
    fn read_split(
        &self,
        dfs: &Dfs,
        split: &FileSplit,
        schema: &Schema,
        projection: Option<&[usize]>,
        predicates: &[orc::Predicate],
        reader_node: Option<NodeId>,
    ) -> Result<RowSource>;

    /// Input splits for one file of this format (text: block-aligned;
    /// ORC: stripe-aligned groups).
    ///
    /// # Errors
    /// Fails if the file is missing.
    fn splits(&self, dfs: &Dfs, path: &str) -> Result<Vec<FileSplit>>;

    /// Input splits with planning-side predicate pruning. Formats with
    /// per-stripe statistics (ORC) drop stripes no predicate admits and
    /// report how much was skipped; the default ignores the predicates.
    ///
    /// # Errors
    /// Fails if the file is missing.
    fn plan_splits(
        &self,
        dfs: &Dfs,
        path: &str,
        predicates: &[orc::Predicate],
    ) -> Result<PlannedSplits> {
        let _ = predicates;
        Ok(PlannedSplits {
            splits: self.splits(dfs, path)?,
            pruned_stripes: 0,
            pruned_rows: 0,
        })
    }

    /// Read one split column-wise, if the format can decode into columns
    /// (ORC, Text). Returns `Ok(None)` otherwise; callers must fall back
    /// to [`FileFormat::read_split`]. Projection and predicate semantics
    /// match `read_split` exactly (same rows, same order, same errors).
    ///
    /// # Errors
    /// Propagates DFS/decode failures.
    fn read_split_columns(
        &self,
        dfs: &Dfs,
        split: &FileSplit,
        schema: &Schema,
        projection: Option<&[usize]>,
        predicates: &[orc::Predicate],
        reader_node: Option<NodeId>,
    ) -> Result<Option<ColumnarSource>> {
        let _ = (dfs, split, schema, projection, predicates, reader_node);
        Ok(None)
    }
}

/// Construct the format implementation for a tag.
pub fn format_for(kind: FormatKind) -> Box<dyn FileFormat> {
    match kind {
        FormatKind::Text => Box::new(text::TextFormat::default()),
        FormatKind::Orc => Box::new(orc::OrcFormat::default()),
    }
}

/// The `warehouse/<table>/part-N` layout Hive uses for managed tables.
#[derive(Debug, Clone)]
pub struct TableStorage {
    /// Warehouse root, e.g. `/warehouse`.
    pub root: String,
}

impl Default for TableStorage {
    fn default() -> TableStorage {
        TableStorage {
            root: "/warehouse".to_string(),
        }
    }
}

impl TableStorage {
    /// Directory of one table.
    pub fn table_dir(&self, table: &str) -> String {
        format!("{}/{}/", self.root, table)
    }

    /// Path of one part file.
    pub fn part_path(&self, table: &str, part: usize) -> String {
        format!("{}part-{part:05}", self.table_dir(table))
    }

    /// All part files of a table, sorted.
    pub fn parts(&self, dfs: &Dfs, table: &str) -> Vec<String> {
        dfs.list(&self.table_dir(table))
    }

    /// Total stored bytes of a table.
    ///
    /// # Errors
    /// Propagates DFS failures.
    pub fn table_bytes(&self, dfs: &Dfs, table: &str) -> Result<u64> {
        Ok(dfs.bytes_under(&self.table_dir(table)))
    }

    /// Delete all part files of a table (used by `INSERT OVERWRITE` and
    /// temp-table cleanup).
    pub fn drop_table(&self, dfs: &Dfs, table: &str) -> usize {
        dfs.delete_prefix(&self.table_dir(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::value::{DataType, Value};
    use hdm_dfs::DfsConfig;

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 256,
            replication: 1,
            num_nodes: 2,
        })
    }

    fn schema() -> Schema {
        Schema::new(vec![("k", DataType::Long), ("s", DataType::String)])
    }

    #[test]
    fn format_kind_parse() {
        assert_eq!(FormatKind::parse("ORCFILE"), Some(FormatKind::Orc));
        assert_eq!(FormatKind::parse("text"), Some(FormatKind::Text));
        assert_eq!(FormatKind::parse("parquet"), None);
    }

    #[test]
    fn both_formats_round_trip_via_trait() {
        for kind in [FormatKind::Text, FormatKind::Orc] {
            let dfs = dfs();
            let fmt = format_for(kind);
            assert_eq!(fmt.kind(), kind);
            let mut w = fmt.create(&dfs, "/t/part-0", &schema(), NodeId(0)).unwrap();
            let rows: Vec<Row> = (0..50)
                .map(|i| Row::from(vec![Value::Long(i), Value::Str(format!("row{i}"))]))
                .collect();
            for r in &rows {
                w.write_row(r).unwrap();
            }
            w.close().unwrap();
            let mut got = Vec::new();
            for s in fmt.splits(&dfs, "/t/part-0").unwrap() {
                got.extend(
                    fmt.read_split(&dfs, &s, &schema(), None, &[], None)
                        .unwrap()
                        .rows,
                );
            }
            assert_eq!(got, rows, "format {kind:?}");
        }
    }

    #[test]
    fn table_storage_layout() {
        let ts = TableStorage::default();
        assert_eq!(
            ts.part_path("lineitem", 3),
            "/warehouse/lineitem/part-00003"
        );
        let dfs = dfs();
        let fmt = format_for(FormatKind::Text);
        for i in 0..2 {
            let mut w = fmt
                .create(&dfs, &ts.part_path("t", i), &schema(), NodeId(0))
                .unwrap();
            w.write_row(&Row::from(vec![Value::Long(1), Value::Str("x".into())]))
                .unwrap();
            w.close().unwrap();
        }
        assert_eq!(ts.parts(&dfs, "t").len(), 2);
        assert!(ts.table_bytes(&dfs, "t").unwrap() > 0);
        assert_eq!(ts.drop_table(&dfs, "t"), 2);
        assert!(ts.parts(&dfs, "t").is_empty());
    }
}
