//! Binary key-value sequence files (the `SequenceFile` analogue).
//!
//! Chained MapReduce stages exchange intermediate tables through these
//! files: the upstream job's reducers write serialized rows, the
//! downstream job's mappers read them back. Records are length-prefixed
//! [`KvPair`]s behind a small magic header; records never span DFS block
//! boundaries in the read path because the writer records per-block
//! record counts — instead we keep it simple and robust: the file is
//! *block-aligned*, i.e. the writer pads nothing but splits are generated
//! per *record run* so a record is always read from the split that
//! contains its first byte (readers extend past the end exactly like the
//! text reader).

use crate::format::{FileFormat, FormatKind, RowSink, RowSource};
use crate::orc::Predicate;
use hdm_common::codec;
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{self, KvPair};
use hdm_common::row::{Row, Schema};
use hdm_dfs::{Dfs, DfsWriter, FileSplit, NodeId};

/// Magic bytes at the start of every sequence file.
pub const SEQ_MAGIC: &[u8; 4] = b"HSEQ";

/// Writer for raw key-value records.
#[derive(Debug)]
pub struct SeqWriter {
    writer: DfsWriter,
    records: u64,
    /// The record being appended, encoded; reused.
    buf: Vec<u8>,
}

impl SeqWriter {
    /// Open a new sequence file.
    ///
    /// # Errors
    /// Fails if the path exists.
    pub fn create(dfs: &Dfs, path: &str, node: NodeId) -> Result<SeqWriter> {
        let mut writer = dfs.create(path, node)?;
        writer.write(SEQ_MAGIC)?;
        Ok(SeqWriter {
            writer,
            records: 0,
            buf: Vec::new(),
        })
    }

    /// Append one key-value record.
    ///
    /// # Errors
    /// Propagates DFS failures.
    pub fn append(&mut self, kv: &KvPair) -> Result<()> {
        self.append_slices(&kv.key, &kv.value)
    }

    /// Append one key-value record given as slices.
    ///
    /// # Errors
    /// Propagates DFS failures.
    pub fn append_slices(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.buf.clear();
        kv::encode(&mut self.buf, key, value);
        self.writer.write(&self.buf)?;
        self.records += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Finish and publish.
    ///
    /// # Errors
    /// Propagates DFS failures.
    pub fn close(self) -> Result<u64> {
        let n = self.writer.bytes_written();
        self.writer.close()?;
        Ok(n)
    }
}

/// Read every record of a sequence file.
///
/// # Errors
/// Fails on a missing file, bad magic, or a corrupt record.
pub fn read_all(dfs: &Dfs, path: &str) -> Result<Vec<KvPair>> {
    let raw = dfs.read_all(path)?;
    let Some(mut cursor) = raw.strip_prefix(SEQ_MAGIC.as_slice()) else {
        return Err(HdmError::Storage(format!("bad sequence magic in {path}")));
    };
    let mut out = Vec::new();
    while !cursor.is_empty() {
        out.push(KvPair::decode(&mut cursor)?);
    }
    Ok(out)
}

/// Decode the rows of a sequence file's bytes `raw` — each record's
/// value; the keys are row indexes — passing each to `f` in order. The
/// records are read in place.
///
/// # Errors
/// Bad magic, a corrupt record, or `f`'s error.
fn decode_rows(raw: &[u8], path: &str, mut f: impl FnMut(Row) -> Result<()>) -> Result<()> {
    let Some(records) = raw.strip_prefix(SEQ_MAGIC.as_slice()) else {
        return Err(HdmError::Storage(format!("bad sequence magic in {path}")));
    };
    let mut pos = 0;
    while pos < records.len() {
        let (_, value) = kv::pair_at(records, pos)?;
        let mut cells = records.get(value.clone()).unwrap_or_default();
        f(Row::decode(&mut cells)?)?;
        pos = value.end;
    }
    Ok(())
}

/// Append the rows of a sequence file written by [`SeqFormat`] to `out`.
///
/// # Errors
/// Fails on a missing file, bad magic, or a corrupt record.
pub fn read_rows(dfs: &Dfs, path: &str, out: &mut Vec<Row>) -> Result<()> {
    let raw = dfs.read_all(path)?;
    decode_rows(&raw, path, |row| {
        out.push(row);
        Ok(())
    })
}

/// The sequence format as a row-oriented [`FileFormat`]: rows are stored
/// as `(row_index, serialized_row)` pairs; the key is ignored on read.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqFormat;

/// Row-oriented sink over [`SeqWriter`].
#[derive(Debug)]
pub struct SeqSink {
    writer: SeqWriter,
    /// The record's key and value, encoded; reused.
    key: Vec<u8>,
    value: Vec<u8>,
}

impl RowSink for SeqSink {
    fn write_row(&mut self, row: &Row) -> Result<()> {
        self.value.clear();
        row.encode(&mut self.value);
        self.key.clear();
        codec::write_varint(&mut self.key, self.writer.records());
        self.writer.append_slices(&self.key, &self.value)
    }

    fn close(self: Box<Self>) -> Result<u64> {
        self.writer.close()
    }
}

impl FileFormat for SeqFormat {
    fn kind(&self) -> FormatKind {
        // Sequence files are an internal format; report as Text for the
        // purposes of user-facing format selection.
        FormatKind::Text
    }

    fn create(
        &self,
        dfs: &Dfs,
        path: &str,
        _schema: &Schema,
        node: NodeId,
    ) -> Result<Box<dyn RowSink>> {
        Ok(Box::new(SeqSink {
            writer: SeqWriter::create(dfs, path, node)?,
            key: Vec::new(),
            value: Vec::new(),
        }))
    }

    fn read_split(
        &self,
        dfs: &Dfs,
        split: &FileSplit,
        _schema: &Schema,
        projection: Option<&[usize]>,
        _predicates: &[Predicate],
        reader_node: Option<NodeId>,
    ) -> Result<RowSource> {
        // Sequence files are read whole-file per split run (we generate a
        // single split covering the file; see `splits`).
        if split.offset != 0 {
            return Ok(RowSource {
                rows: Vec::new(),
                bytes_read: 0,
                rows_skipped: 0,
            });
        }
        let len = dfs.len(&split.path)?;
        let raw = dfs.read_range(&split.path, 0, len, reader_node)?;
        let mut rows = Vec::new();
        decode_rows(&raw, &split.path, |row| {
            rows.push(match projection {
                Some(idx) => {
                    if let Some(c) = idx.iter().find(|&&c| c >= row.len()) {
                        return Err(HdmError::Storage(format!("column {c} out of range")));
                    }
                    row.project(idx)
                }
                None => row,
            });
            Ok(())
        })?;
        Ok(RowSource {
            rows,
            bytes_read: raw.len() as u64,
            rows_skipped: 0,
        })
    }

    fn splits(&self, dfs: &Dfs, path: &str) -> Result<Vec<FileSplit>> {
        // One split per file: intermediate files are reducer-sized, so one
        // downstream map task per upstream reducer output — matching how
        // Hive chains stages through per-reducer part files.
        let len = dfs.len(path)?;
        let hosts = dfs
            .splits(path)?
            .first()
            .map(|s| s.hosts.clone())
            .unwrap_or_default();
        Ok(vec![FileSplit {
            path: path.to_string(),
            offset: 0,
            len,
            hosts,
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::value::{DataType, Value};
    use hdm_dfs::DfsConfig;

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 64,
            replication: 1,
            num_nodes: 2,
        })
    }

    #[test]
    fn kv_round_trip() {
        let dfs = dfs();
        let mut w = SeqWriter::create(&dfs, "/s", NodeId(0)).unwrap();
        let kvs: Vec<KvPair> = (0..20)
            .map(|i| KvPair::new(vec![i as u8], vec![i as u8; (i % 7) as usize]))
            .collect();
        for kv in &kvs {
            w.append(kv).unwrap();
        }
        assert_eq!(w.records(), 20);
        w.close().unwrap();
        assert_eq!(read_all(&dfs, "/s").unwrap(), kvs);
    }

    #[test]
    fn bad_magic_rejected() {
        let dfs = dfs();
        let mut w = dfs.create("/junk", NodeId(0)).unwrap();
        w.write(b"not a sequence file").unwrap();
        w.close().unwrap();
        assert!(read_all(&dfs, "/junk").is_err());
    }

    #[test]
    fn row_format_round_trip() {
        let dfs = dfs();
        let schema = Schema::new(vec![("a", DataType::Long), ("b", DataType::String)]);
        let fmt = SeqFormat;
        let mut sink = fmt.create(&dfs, "/rows", &schema, NodeId(1)).unwrap();
        let rows: Vec<Row> = (0..30)
            .map(|i| Row::from(vec![Value::Long(i), Value::Str(format!("v{i}"))]))
            .collect();
        for r in &rows {
            sink.write_row(r).unwrap();
        }
        Box::new(sink).close().unwrap();
        let splits = fmt.splits(&dfs, "/rows").unwrap();
        assert_eq!(splits.len(), 1);
        let src = fmt
            .read_split(&dfs, &splits[0], &schema, None, &[], None)
            .unwrap();
        assert_eq!(src.rows, rows);
        assert_eq!(src.bytes_read, dfs.len("/rows").unwrap());
    }

    #[test]
    fn empty_file_reads_empty() {
        let dfs = dfs();
        let w = SeqWriter::create(&dfs, "/empty", NodeId(0)).unwrap();
        w.close().unwrap();
        assert!(read_all(&dfs, "/empty").unwrap().is_empty());
    }
}
