//! A miniature ORCFile: stripes, columnar encodings, statistics, and
//! predicate pushdown.
//!
//! The paper's Section V-C attributes a ~22% improvement to ORCFile
//! because it "uses highly efficient way to store Hive data". The
//! mechanisms responsible are all present here:
//!
//! * **Stripes** — rows are buffered and flushed in row groups; a reader
//!   can process any subset of stripes, which is what makes column
//!   statistics useful for skipping.
//! * **Columnar layout** — each stripe stores one contiguous byte chunk
//!   per column, and the footer records each chunk's `(offset, len)`, so
//!   a projected read fetches only the projected columns' bytes.
//! * **Encodings** — integers/dates choose between direct zigzag varints
//!   and run-length encoding (whichever is smaller); strings choose
//!   between a dictionary and direct encoding; booleans are bit-packed;
//!   every column carries a null bitmap only when it has nulls.
//! * **Statistics + pushdown** — per-stripe min/max/null counts; a
//!   [`Predicate`] conjunction lets the reader prove a stripe empty and
//!   skip its bytes entirely.

use crate::format::{
    ColumnarSource, ColumnarStripe, FileFormat, FormatKind, PlannedSplits, RowSink, RowSource,
};
use hdm_common::codec;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::{decode_value, encode_value, Row, Schema};
use hdm_common::value::{DataType, Value};
use hdm_dfs::{Dfs, DfsWriter, FileSplit, NodeId};

/// Magic trailer bytes.
pub const ORC_MAGIC: &[u8; 4] = b"HORC";

/// The most rows one stripe holds: the writer flushes by then, and a
/// reader refuses a footer that claims more rather than allocate for it.
const MAX_STRIPE_ROWS: usize = 1 << 20;

/// Comparison operator for pushed-down predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `col = lit`
    Eq,
    /// `col < lit`
    Lt,
    /// `col <= lit`
    Le,
    /// `col > lit`
    Gt,
    /// `col >= lit`
    Ge,
}

impl CmpOp {
    /// Does `cell <op> literal` hold, given how the two compared?
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// One pushed-down comparison: `column <op> literal`. A slice of these is
/// interpreted as a conjunction.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column index in the *table* schema.
    pub col: usize,
    /// Operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl Predicate {
    /// Whether a row failing this predicate's comparison because the
    /// column is NULL can still satisfy it. Every comparison operator is
    /// null-rejecting under SQL three-valued logic (`NULL <op> lit` is
    /// never true); a future `IS NULL` pushdown must return `false`
    /// here, which is what gates the all-null pruning in [`Self::admits`].
    pub fn is_null_rejecting(&self) -> bool {
        match self.op {
            CmpOp::Eq | CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => true,
        }
    }

    /// Does this cell satisfy the comparison? The row-level twin of
    /// [`Self::admits`], and the same [`Value::sql_cmp`] the engine's
    /// filter evaluates `column <op> literal` with — a row a reader drops
    /// on `!matches` is a row the filter would have dropped.
    pub fn matches(&self, cell: &Value) -> bool {
        cell.sql_cmp(&self.value)
            .is_some_and(|ord| self.op.holds(ord))
    }

    /// Could any row in a stripe with these column statistics satisfy
    /// this predicate? Conservative: returns `true` when unsure.
    ///
    /// An all-null column (`null_count >= rows`, which also covers an
    /// empty stripe) is prunable *only* when the predicate is
    /// null-rejecting — an unconditional skip would be unsound the
    /// moment a non-null-rejecting predicate (e.g. `IS NULL`) is pushed
    /// down.
    pub fn admits(&self, stats: &ColumnStats, rows: u64) -> bool {
        if self.value.is_null() {
            // `col <op> NULL` is never true for any row.
            return false;
        }
        if stats.null_count >= rows {
            return !self.is_null_rejecting();
        }
        let (min, max) = match (&stats.min, &stats.max) {
            (Some(mn), Some(mx)) => (mn, mx),
            _ => return true,
        };
        // Min/max are kept in `total_cmp` order, which is the order rows
        // are compared in only while the cells themselves are not
        // coerced: string cells against a date literal prove nothing.
        if matches!((min, &self.value), (Value::Str(_), Value::Date(_))) {
            return true;
        }
        // A bound the literal does not compare with proves nothing either.
        let (Some(lo), Some(hi)) = (min.sql_cmp(&self.value), max.sql_cmp(&self.value)) else {
            return true;
        };
        match self.op {
            CmpOp::Eq => CmpOp::Le.holds(lo) && CmpOp::Ge.holds(hi),
            CmpOp::Lt | CmpOp::Le => self.op.holds(lo),
            CmpOp::Gt | CmpOp::Ge => self.op.holds(hi),
        }
    }
}

/// Per-column, per-stripe statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Smallest non-null value (total order), if any non-null was seen.
    pub min: Option<Value>,
    /// Largest non-null value (total order), if any non-null was seen.
    pub max: Option<Value>,
    /// Number of NULLs in the stripe's column.
    pub null_count: u64,
}

impl ColumnStats {
    fn update(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        match &self.min {
            Some(m) if m.total_cmp(v) != std::cmp::Ordering::Greater => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if m.total_cmp(v) != std::cmp::Ordering::Less => {}
            _ => self.max = Some(v.clone()),
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        codec::write_varint(buf, self.null_count);
        match (&self.min, &self.max) {
            (Some(mn), Some(mx)) => {
                buf.push(1);
                encode_value(buf, mn);
                encode_value(buf, mx);
            }
            _ => buf.push(0),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<ColumnStats> {
        let null_count = codec::read_varint(buf)?;
        let (&has, rest) = buf
            .split_first()
            .ok_or_else(|| HdmError::Storage("truncated stats".into()))?;
        *buf = rest;
        let (min, max) = if has == 1 {
            (Some(decode_value(buf)?), Some(decode_value(buf)?))
        } else {
            (None, None)
        };
        Ok(ColumnStats {
            min,
            max,
            null_count,
        })
    }
}

/// One column chunk's location within the file.
#[derive(Debug, Clone, PartialEq)]
struct ChunkInfo {
    offset: u64,
    len: u64,
    stats: ColumnStats,
}

/// One stripe's metadata.
#[derive(Debug, Clone, PartialEq)]
struct StripeInfo {
    /// Absolute offset of the stripe's first chunk (for split assignment).
    offset: u64,
    rows: u64,
    chunks: Vec<ChunkInfo>,
}

/// The ORC format. Stripes flush every `stripe_rows` rows.
#[derive(Debug, Clone, Copy)]
pub struct OrcFormat {
    /// Rows per stripe.
    pub stripe_rows: usize,
}

impl Default for OrcFormat {
    fn default() -> OrcFormat {
        OrcFormat { stripe_rows: 5000 }
    }
}

// ---------------------------------------------------------------------------
// Column chunk encoding
// ---------------------------------------------------------------------------

const ENC_LONG_DIRECT: u8 = 0;
const ENC_LONG_RLE: u8 = 1;
const ENC_DOUBLE: u8 = 2;
const ENC_STR_DIRECT: u8 = 3;
const ENC_STR_DICT: u8 = 4;
const ENC_BOOL: u8 = 5;

/// Encode one column of a stripe. `values` has one entry per row.
fn encode_chunk(ty: DataType, values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    // Null bitmap.
    let null_count = values.iter().filter(|v| v.is_null()).count();
    if null_count == 0 {
        out.push(0u8);
    } else {
        out.push(1u8);
        out.extend(pack_bits(values.iter().map(Value::is_null)));
    }
    let present: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    match ty {
        DataType::Long | DataType::Date => {
            let ints: Vec<i64> = present.iter().map(|v| v.as_i64().unwrap_or(0)).collect();
            let direct = encode_longs_direct(&ints);
            let rle = encode_longs_rle(&ints);
            if rle.len() < direct.len() {
                out.push(ENC_LONG_RLE);
                out.extend_from_slice(&rle);
            } else {
                out.push(ENC_LONG_DIRECT);
                out.extend_from_slice(&direct);
            }
        }
        DataType::Double => {
            out.push(ENC_DOUBLE);
            for v in &present {
                out.extend_from_slice(&v.as_f64().unwrap_or(0.0).to_le_bytes());
            }
        }
        DataType::String => {
            let strs: Vec<&str> = present.iter().map(|v| v.as_str().unwrap_or("")).collect();
            let mut dict: Vec<&str> = strs.clone();
            dict.sort_unstable();
            dict.dedup();
            if dict.len() * 2 < strs.len().max(1) {
                out.push(ENC_STR_DICT);
                codec::write_varint(&mut out, dict.len() as u64);
                for s in &dict {
                    codec::write_str(&mut out, s);
                }
                for s in &strs {
                    // Every string is in the sorted dictionary: its
                    // partition point is its index.
                    let idx = dict.partition_point(|d| d < s);
                    codec::write_varint(&mut out, idx as u64);
                }
            } else {
                out.push(ENC_STR_DIRECT);
                for s in &strs {
                    codec::write_str(&mut out, s);
                }
            }
        }
        DataType::Boolean => {
            out.push(ENC_BOOL);
            out.extend(pack_bits(
                present.iter().map(|v| v.as_bool().unwrap_or(false)),
            ));
        }
    }
    out
}

/// Pack flags eight to a byte, least significant bit first.
fn pack_bits(flags: impl Iterator<Item = bool>) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, flag) in flags.enumerate() {
        if i % 8 == 0 {
            out.push(0);
        }
        if flag {
            if let Some(byte) = out.last_mut() {
                *byte |= 1 << (i % 8);
            }
        }
    }
    out
}

/// The flags [`pack_bits`] packed into `bytes`, in order.
fn unpack_bits(bytes: &[u8]) -> impl Iterator<Item = bool> + '_ {
    bytes
        .iter()
        .flat_map(|&b| (0..8).map(move |k| b & (1 << k) != 0))
}

fn encode_longs_direct(ints: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ints.len() * 2);
    for &v in ints {
        codec::write_signed_varint(&mut out, v);
    }
    out
}

fn encode_longs_rle(ints: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    for run in ints.chunk_by(|a, b| a == b) {
        if let Some(&v) = run.first() {
            codec::write_varint(&mut out, run.len() as u64);
            codec::write_signed_varint(&mut out, v);
        }
    }
    out
}

/// Decode one column chunk back into per-row values.
fn decode_chunk(ty: DataType, rows: usize, raw: &[u8]) -> Result<Vec<Value>> {
    let (&has_nulls, mut buf) = raw
        .split_first()
        .ok_or_else(|| HdmError::Storage("empty chunk".into()))?;
    let mut nulls = vec![false; rows];
    if has_nulls == 1 {
        let (bitmap, rest) = buf
            .split_at_checked(rows.div_ceil(8))
            .ok_or_else(|| HdmError::Storage("truncated null bitmap".into()))?;
        for (null, bit) in nulls.iter_mut().zip(unpack_bits(bitmap)) {
            *null = bit;
        }
        buf = rest;
    }
    let present = nulls.iter().filter(|&&n| !n).count();
    let enc = match buf.split_first() {
        Some((&enc, rest)) => {
            buf = rest;
            enc
        }
        None if present > 0 => {
            return Err(HdmError::Storage("truncated chunk body".into()));
        }
        None => ENC_LONG_DIRECT,
    };
    let mut data: Vec<Value> = Vec::with_capacity(present);
    match enc {
        ENC_LONG_DIRECT => {
            for _ in 0..present {
                let v = codec::read_signed_varint(&mut buf)?;
                data.push(mk_int(ty, v));
            }
        }
        ENC_LONG_RLE => {
            while data.len() < present {
                let run = codec::read_varint(&mut buf)?;
                let v = codec::read_signed_varint(&mut buf)?;
                if run > (present - data.len()) as u64 {
                    return Err(HdmError::Storage(format!(
                        "run of {run} overruns the chunk's {present} values"
                    )));
                }
                data.resize(data.len() + run as usize, mk_int(ty, v));
            }
        }
        ENC_DOUBLE => {
            for _ in 0..present {
                let (b, rest) = buf
                    .split_first_chunk::<8>()
                    .ok_or_else(|| HdmError::Storage("truncated double chunk".into()))?;
                buf = rest;
                data.push(Value::Double(f64::from_le_bytes(*b)));
            }
        }
        ENC_STR_DIRECT => {
            for _ in 0..present {
                data.push(Value::Str(codec::read_str(&mut buf)?));
            }
        }
        ENC_STR_DICT => {
            let ndv = codec::read_varint(&mut buf)? as usize;
            // Each entry takes at least one byte: a corrupt count cannot
            // reserve more than the chunk holds.
            let mut dict = Vec::with_capacity(ndv.min(buf.len()));
            for _ in 0..ndv {
                dict.push(codec::read_str(&mut buf)?);
            }
            for _ in 0..present {
                let idx = codec::read_varint(&mut buf)? as usize;
                let s = dict
                    .get(idx)
                    .ok_or_else(|| HdmError::Storage(format!("dict index {idx} out of range")))?;
                data.push(Value::Str(s.clone()));
            }
        }
        ENC_BOOL => {
            let bits = buf
                .get(..present.div_ceil(8))
                .ok_or_else(|| HdmError::Storage("truncated bool chunk".into()))?;
            data.extend(unpack_bits(bits).take(present).map(Value::Boolean));
        }
        other => return Err(HdmError::Storage(format!("unknown encoding {other}"))),
    }
    // Re-insert nulls.
    let mut out = Vec::with_capacity(rows);
    let mut it = data.into_iter();
    for null in nulls {
        if null {
            out.push(Value::Null);
        } else {
            out.push(
                it.next()
                    .ok_or_else(|| HdmError::Storage("chunk underflow".into()))?,
            );
        }
    }
    Ok(out)
}

fn mk_int(ty: DataType, v: i64) -> Value {
    match ty {
        DataType::Date => Value::Date(v as i32),
        _ => Value::Long(v),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming ORC writer.
pub struct OrcSink {
    writer: DfsWriter,
    schema: Schema,
    stripe_rows: usize,
    buffer: Vec<Vec<Value>>, // column-major
    buffered: usize,
    stripes: Vec<StripeInfo>,
    offset: u64,
}

impl std::fmt::Debug for OrcSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrcSink")
            .field("buffered", &self.buffered)
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl OrcSink {
    fn flush_stripe(&mut self) -> Result<()> {
        if self.buffered == 0 {
            return Ok(());
        }
        let stripe_offset = self.offset;
        let mut chunks = Vec::with_capacity(self.schema.len());
        for (field, values) in self.schema.fields().iter().zip(&self.buffer) {
            let mut stats = ColumnStats::default();
            for v in values {
                stats.update(v);
            }
            let encoded = encode_chunk(field.data_type, values);
            chunks.push(ChunkInfo {
                offset: self.offset,
                len: encoded.len() as u64,
                stats,
            });
            self.writer.write(&encoded)?;
            self.offset += encoded.len() as u64;
        }
        self.stripes.push(StripeInfo {
            offset: stripe_offset,
            rows: self.buffered as u64,
            chunks,
        });
        for col in &mut self.buffer {
            col.clear();
        }
        self.buffered = 0;
        Ok(())
    }
}

impl OrcSink {
    /// Buffer one row's cells, one per column, flushing a full stripe.
    fn buffer_row(&mut self, cells: impl ExactSizeIterator<Item = Value>) -> Result<()> {
        if cells.len() != self.schema.len() {
            return Err(HdmError::Storage(format!(
                "row arity {} does not match schema arity {}",
                cells.len(),
                self.schema.len()
            )));
        }
        for (column, v) in self.buffer.iter_mut().zip(cells) {
            column.push(v);
        }
        self.buffered += 1;
        if self.buffered >= self.stripe_rows {
            self.flush_stripe()?;
        }
        Ok(())
    }
}

impl RowSink for OrcSink {
    fn write_row(&mut self, row: &Row) -> Result<()> {
        self.buffer_row(row.values().iter().cloned())
    }

    fn write_owned(&mut self, row: Row) -> Result<()> {
        self.buffer_row(row.into_values().into_iter())
    }

    fn close(mut self: Box<Self>) -> Result<u64> {
        self.flush_stripe()?;
        // Footer.
        let mut footer = Vec::new();
        codec::write_varint(&mut footer, self.stripes.len() as u64);
        for s in &self.stripes {
            codec::write_varint(&mut footer, s.offset);
            codec::write_varint(&mut footer, s.rows);
            codec::write_varint(&mut footer, s.chunks.len() as u64);
            for c in &s.chunks {
                codec::write_varint(&mut footer, c.offset);
                codec::write_varint(&mut footer, c.len);
                c.stats.encode(&mut footer);
            }
        }
        self.writer.write(&footer)?;
        self.writer.write(&(footer.len() as u32).to_be_bytes())?;
        self.writer.write(ORC_MAGIC)?;
        let n = self.writer.bytes_written();
        self.writer.close()?;
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

fn read_footer(dfs: &Dfs, path: &str) -> Result<(Vec<StripeInfo>, u64)> {
    let file_len = dfs.len(path)?;
    if file_len < 8 {
        return Err(HdmError::Storage(format!("{path}: too short for ORC")));
    }
    // Planning-path reads (split enumeration happens in the driver, with
    // no task retry around it) — exempt from storage fault injection;
    // the stripes' chunk reads in `read_split` stay injected.
    let trailer = dfs.read_range_planning(path, file_len - 8, 8, None)?;
    let flen = match trailer.split_first_chunk::<4>() {
        Some((flen, magic)) if magic == ORC_MAGIC => u32::from_be_bytes(*flen) as u64,
        _ => return Err(HdmError::Storage(format!("{path}: bad ORC magic"))),
    };
    if flen + 8 > file_len {
        return Err(HdmError::Storage(format!("{path}: corrupt footer length")));
    }
    let raw = dfs.read_range_planning(path, file_len - 8 - flen, flen, None)?;
    let mut buf = raw.as_slice();
    // Every stripe and chunk entry takes bytes of the footer, so a corrupt
    // count cannot reserve more entries than the footer has bytes.
    let n_stripes = codec::read_varint(&mut buf)? as usize;
    let mut stripes = Vec::with_capacity(n_stripes.min(buf.len()));
    for _ in 0..n_stripes {
        let offset = codec::read_varint(&mut buf)?;
        let rows = codec::read_varint(&mut buf)?;
        if rows > MAX_STRIPE_ROWS as u64 {
            return Err(HdmError::Storage(format!(
                "{path}: stripe claims {rows} rows (at most {MAX_STRIPE_ROWS})"
            )));
        }
        let n_chunks = codec::read_varint(&mut buf)? as usize;
        let mut chunks = Vec::with_capacity(n_chunks.min(buf.len()));
        for _ in 0..n_chunks {
            let c_off = codec::read_varint(&mut buf)?;
            let c_len = codec::read_varint(&mut buf)?;
            let stats = ColumnStats::decode(&mut buf)?;
            chunks.push(ChunkInfo {
                offset: c_off,
                len: c_len,
                stats,
            });
        }
        stripes.push(StripeInfo {
            offset,
            rows,
            chunks,
        });
    }
    Ok((stripes, flen + 8))
}

impl OrcFormat {
    /// Shared core of `read_split` / `read_split_columns`: decode the
    /// split's admitted stripes column-wise. Stripe selection, predicate
    /// skipping, byte accounting, and row order are identical for both
    /// entry points by construction.
    fn read_stripes(
        &self,
        dfs: &Dfs,
        split: &FileSplit,
        schema: &Schema,
        projection: Option<&[usize]>,
        predicates: &[Predicate],
        reader_node: Option<NodeId>,
    ) -> Result<ColumnarSource> {
        let (stripes, footer_bytes) = read_footer(dfs, &split.path)?;
        let mut bytes_read = footer_bytes;
        let cols: Vec<usize> = match projection {
            Some(p) => p.to_vec(),
            None => (0..schema.len()).collect(),
        };
        let mut out = Vec::new();
        for stripe in &stripes {
            // A stripe belongs to the split containing its first byte.
            if stripe.offset < split.offset || stripe.offset >= split.end() {
                continue;
            }
            // Predicate pushdown: skip stripes the stats disprove. Split
            // planning already prunes these, but re-checking keeps the
            // reader sound when handed unpruned splits.
            let skip = predicates.iter().any(|p| {
                stripe
                    .chunks
                    .get(p.col)
                    .map(|c| !p.admits(&c.stats, stripe.rows))
                    .unwrap_or(false)
            });
            if skip {
                continue;
            }
            // Fetch only the projected columns' chunks.
            let mut columns: Vec<Vec<Value>> = Vec::with_capacity(cols.len());
            for &c in &cols {
                let chunk = stripe
                    .chunks
                    .get(c)
                    .ok_or_else(|| HdmError::Storage(format!("column {c} out of range")))?;
                let raw = dfs.read_range(&split.path, chunk.offset, chunk.len, reader_node)?;
                bytes_read += raw.len() as u64;
                let ty = schema.field(c).data_type;
                columns.push(decode_chunk(ty, stripe.rows as usize, &raw)?);
            }
            out.push(ColumnarStripe {
                columns,
                rows: stripe.rows as usize,
            });
        }
        Ok(ColumnarSource {
            stripes: out,
            bytes_read,
            rows_skipped: 0,
        })
    }
}

impl FileFormat for OrcFormat {
    fn kind(&self) -> FormatKind {
        FormatKind::Orc
    }

    fn create(
        &self,
        dfs: &Dfs,
        path: &str,
        schema: &Schema,
        node: NodeId,
    ) -> Result<Box<dyn RowSink>> {
        Ok(Box::new(OrcSink {
            writer: dfs.create(path, node)?,
            schema: schema.clone(),
            stripe_rows: self.stripe_rows.clamp(1, MAX_STRIPE_ROWS),
            buffer: vec![Vec::new(); schema.len()],
            buffered: 0,
            stripes: Vec::new(),
            offset: 0,
        }))
    }

    fn read_split(
        &self,
        dfs: &Dfs,
        split: &FileSplit,
        schema: &Schema,
        projection: Option<&[usize]>,
        predicates: &[Predicate],
        reader_node: Option<NodeId>,
    ) -> Result<RowSource> {
        self.read_stripes(dfs, split, schema, projection, predicates, reader_node)
            .map(RowSource::from)
    }

    fn splits(&self, dfs: &Dfs, path: &str) -> Result<Vec<FileSplit>> {
        Ok(self.plan_splits(dfs, path, &[])?.splits)
    }

    fn plan_splits(
        &self,
        dfs: &Dfs,
        path: &str,
        predicates: &[Predicate],
    ) -> Result<PlannedSplits> {
        let (stripes, _) = read_footer(dfs, path)?;
        let block_size = dfs.config().block_size as u64;
        let block_splits = dfs.splits(path)?;
        let data_end = |s: &StripeInfo| {
            s.chunks
                .last()
                .map(|c| c.offset.saturating_add(c.len))
                .unwrap_or(s.offset)
        };
        // Group admitted stripes into runs of ~block_size bytes. A pruned
        // stripe ends the current run so no split covers its bytes.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut run: Option<(u64, u64)> = None;
        let mut pruned_stripes = 0u64;
        let mut pruned_rows = 0u64;
        for s in &stripes {
            let admitted = predicates.iter().all(|p| {
                s.chunks
                    .get(p.col)
                    .map(|c| p.admits(&c.stats, s.rows))
                    .unwrap_or(true)
            });
            if !admitted {
                pruned_stripes += 1;
                pruned_rows += s.rows;
                if let Some(r) = run.take() {
                    runs.push(r);
                }
                continue;
            }
            let end = data_end(s);
            match &mut run {
                None => run = Some((s.offset, end)),
                Some((start, run_end)) => {
                    if end.saturating_sub(*start) > block_size && *run_end > *start {
                        runs.push((*start, *run_end));
                        run = Some((s.offset, end));
                    } else {
                        *run_end = end;
                    }
                }
            }
        }
        if let Some(r) = run {
            runs.push(r);
        }
        let splits = runs
            .into_iter()
            .map(|(lo, hi)| {
                // Borrow locality from the DFS block containing `lo`.
                let hosts = block_splits
                    .iter()
                    .find(|b| b.offset <= lo && lo < b.offset + b.len.max(1))
                    .map(|b| b.hosts.clone())
                    .unwrap_or_default();
                FileSplit {
                    path: path.to_string(),
                    offset: lo,
                    len: hi.saturating_sub(lo),
                    hosts,
                }
            })
            .collect();
        Ok(PlannedSplits {
            splits,
            pruned_stripes,
            pruned_rows,
        })
    }

    fn read_split_columns(
        &self,
        dfs: &Dfs,
        split: &FileSplit,
        schema: &Schema,
        projection: Option<&[usize]>,
        predicates: &[Predicate],
        reader_node: Option<NodeId>,
    ) -> Result<Option<ColumnarSource>> {
        self.read_stripes(dfs, split, schema, projection, predicates, reader_node)
            .map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_dfs::DfsConfig;

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 4096,
            replication: 1,
            num_nodes: 2,
        })
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", DataType::Long),
            ("flag", DataType::Boolean),
            ("name", DataType::String),
            ("price", DataType::Double),
            ("day", DataType::Date),
        ])
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::from(vec![
                    Value::Long(i as i64),
                    Value::Boolean(i % 3 == 0),
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("status-{}", i % 4)) // dictionary-friendly
                    },
                    Value::Double(i as f64 * 1.25),
                    Value::date_from_ymd(1994, 1 + (i % 12) as u32, 1 + (i % 28) as u32),
                ])
            })
            .collect()
    }

    fn write_file(dfs: &Dfs, path: &str, rows: &[Row], stripe_rows: usize) -> OrcFormat {
        let fmt = OrcFormat { stripe_rows };
        let mut sink = fmt.create(dfs, path, &schema(), NodeId(0)).unwrap();
        for r in rows {
            sink.write_row(r).unwrap();
        }
        Box::new(sink).close().unwrap();
        fmt
    }

    fn read_everything(fmt: &OrcFormat, dfs: &Dfs, path: &str) -> Vec<Row> {
        let mut out = Vec::new();
        for s in fmt.splits(dfs, path).unwrap() {
            out.extend(
                fmt.read_split(dfs, &s, &schema(), None, &[], None)
                    .unwrap()
                    .rows,
            );
        }
        out
    }

    #[test]
    fn round_trip_multiple_stripes() {
        let dfs = dfs();
        let rows = sample_rows(357);
        let fmt = write_file(&dfs, "/orc", &rows, 50);
        assert_eq!(read_everything(&fmt, &dfs, "/orc"), rows);
    }

    #[test]
    fn column_projection_reads_fewer_bytes() {
        let dfs = dfs();
        let rows = sample_rows(500);
        let fmt = write_file(&dfs, "/proj", &rows, 100);
        let splits = fmt.splits(&dfs, "/proj").unwrap();
        let mut full = 0u64;
        let mut narrow = 0u64;
        for s in &splits {
            full += fmt
                .read_split(&dfs, s, &schema(), None, &[], None)
                .unwrap()
                .bytes_read;
            let src = fmt
                .read_split(&dfs, s, &schema(), Some(&[0]), &[], None)
                .unwrap();
            narrow += src.bytes_read;
            for (i, r) in src.rows.iter().enumerate() {
                assert_eq!(r.values().len(), 1);
                assert!(matches!(r.get(0), Value::Long(_)), "row {i}");
            }
        }
        assert!(
            narrow * 2 < full,
            "projection should cut bytes: narrow={narrow}, full={full}"
        );
    }

    #[test]
    fn predicate_pushdown_skips_stripes() {
        let dfs = dfs();
        let rows = sample_rows(400); // ids 0..400, stripes of 100
        let fmt = write_file(&dfs, "/pred", &rows, 100);
        let splits = fmt.splits(&dfs, "/pred").unwrap();
        let pred = vec![Predicate {
            col: 0,
            op: CmpOp::Ge,
            value: Value::Long(350),
        }];
        let mut rows_read = 0usize;
        let mut pruned_bytes = 0u64;
        let mut full_bytes = 0u64;
        for s in &splits {
            let full = fmt.read_split(&dfs, s, &schema(), None, &[], None).unwrap();
            full_bytes += full.bytes_read;
            let src = fmt
                .read_split(&dfs, s, &schema(), None, &pred, None)
                .unwrap();
            pruned_bytes += src.bytes_read;
            rows_read += src.rows.len();
        }
        // Only the last stripe (ids 300..400) can match.
        assert_eq!(rows_read, 100);
        assert!(pruned_bytes < full_bytes);
    }

    #[test]
    fn pushdown_never_loses_matching_rows() {
        let dfs = dfs();
        let rows = sample_rows(300);
        let fmt = write_file(&dfs, "/sound", &rows, 64);
        let pred = vec![Predicate {
            col: 0,
            op: CmpOp::Eq,
            value: Value::Long(123),
        }];
        let mut got = Vec::new();
        for s in fmt.splits(&dfs, "/sound").unwrap() {
            got.extend(
                fmt.read_split(&dfs, &s, &schema(), None, &pred, None)
                    .unwrap()
                    .rows,
            );
        }
        // The stripe containing id 123 must be present; re-filtering gives
        // exactly one row.
        assert!(got.iter().any(|r| r.get(0) == &Value::Long(123)));
    }

    #[test]
    fn orc_is_smaller_than_text_for_repetitive_data() {
        let dfs = dfs();
        let rows: Vec<Row> = (0..2000)
            .map(|_| {
                Row::from(vec![
                    Value::Long(5), // constant: RLE shines
                    Value::Boolean(true),
                    Value::Str("AAAA".into()), // dictionary
                    Value::Double(1.0),
                    Value::date_from_ymd(1995, 1, 1),
                ])
            })
            .collect();
        let _ = write_file(&dfs, "/small.orc", &rows, 500);
        let text = crate::text::TextFormat::default();
        let mut sink = text.create(&dfs, "/big.txt", &schema(), NodeId(0)).unwrap();
        for r in &rows {
            sink.write_row(r).unwrap();
        }
        Box::new(sink).close().unwrap();
        let orc_len = dfs.len("/small.orc").unwrap();
        let txt_len = dfs.len("/big.txt").unwrap();
        assert!(
            orc_len * 2 < txt_len,
            "expected ORC much smaller: orc={orc_len}, text={txt_len}"
        );
    }

    #[test]
    fn all_null_column_round_trips() {
        let dfs = dfs();
        let s = Schema::new(vec![("x", DataType::String)]);
        let fmt = OrcFormat { stripe_rows: 10 };
        let mut sink = fmt.create(&dfs, "/nulls", &s, NodeId(0)).unwrap();
        for _ in 0..25 {
            sink.write_row(&Row::from(vec![Value::Null])).unwrap();
        }
        Box::new(sink).close().unwrap();
        let mut got = Vec::new();
        for sp in fmt.splits(&dfs, "/nulls").unwrap() {
            got.extend(fmt.read_split(&dfs, &sp, &s, None, &[], None).unwrap().rows);
        }
        assert_eq!(got.len(), 25);
        assert!(got.iter().all(|r| r.get(0).is_null()));
    }

    #[test]
    fn empty_file_has_no_splits() {
        let dfs = dfs();
        let fmt = OrcFormat::default();
        let sink = fmt.create(&dfs, "/empty", &schema(), NodeId(0)).unwrap();
        Box::new(sink).close().unwrap();
        assert!(fmt.splits(&dfs, "/empty").unwrap().is_empty());
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let dfs = dfs();
        let mut w = dfs.create("/fake", NodeId(0)).unwrap();
        w.write(b"definitely not orc data").unwrap();
        w.close().unwrap();
        assert!(OrcFormat::default().splits(&dfs, "/fake").is_err());
    }

    #[test]
    fn stats_track_min_max_nulls() {
        let mut st = ColumnStats::default();
        st.update(&Value::Long(5));
        st.update(&Value::Null);
        st.update(&Value::Long(-3));
        st.update(&Value::Long(10));
        assert_eq!(st.min, Some(Value::Long(-3)));
        assert_eq!(st.max, Some(Value::Long(10)));
        assert_eq!(st.null_count, 1);
        let mut buf = Vec::new();
        st.encode(&mut buf);
        assert_eq!(ColumnStats::decode(&mut &buf[..]).unwrap(), st);
    }

    #[test]
    fn predicate_admits_logic() {
        let stats = ColumnStats {
            min: Some(Value::Long(10)),
            max: Some(Value::Long(20)),
            null_count: 0,
        };
        let p = |op, v: i64| Predicate {
            col: 0,
            op,
            value: Value::Long(v),
        };
        assert!(p(CmpOp::Eq, 15).admits(&stats, 100));
        assert!(!p(CmpOp::Eq, 25).admits(&stats, 100));
        assert!(!p(CmpOp::Lt, 10).admits(&stats, 100));
        assert!(p(CmpOp::Le, 10).admits(&stats, 100));
        assert!(!p(CmpOp::Gt, 20).admits(&stats, 100));
        assert!(p(CmpOp::Ge, 20).admits(&stats, 100));
        // All-null stripe can never satisfy a comparison.
        let all_null = ColumnStats {
            min: None,
            max: None,
            null_count: 100,
        };
        assert!(!p(CmpOp::Eq, 0).admits(&all_null, 100));
    }

    #[test]
    fn row_matches_share_the_filter_comparison() {
        let p = |op, value| Predicate { col: 0, op, value };
        // NULL on either side is never a match, whatever the operator.
        assert!(!p(CmpOp::Le, Value::Long(5)).matches(&Value::Null));
        assert!(!p(CmpOp::Eq, Value::Null).matches(&Value::Null));
        // Mixed numerics compare numerically.
        assert!(p(CmpOp::Lt, Value::Long(24)).matches(&Value::Double(23.5)));
        assert!(!p(CmpOp::Lt, Value::Long(24)).matches(&Value::Double(24.0)));
        // A string literal against a date cell is coerced to a date; one
        // that is not a date matches nothing.
        let day = Value::date_from_ymd(1994, 1, 1);
        assert!(p(CmpOp::Ge, Value::Str("1994-01-01".into())).matches(&day));
        assert!(!p(CmpOp::Ge, Value::Str("later".into())).matches(&day));
        // NaN equals itself under the engine's total order.
        assert!(p(CmpOp::Eq, Value::Double(f64::NAN)).matches(&Value::Double(f64::NAN)));
    }

    #[test]
    fn string_bounds_prove_nothing_against_a_date_literal() {
        // String cells are coerced to dates row by row, and their
        // lexicographic min/max are not the date order's: "1995-1-1" sorts
        // after "1995-01-02" but is the earlier day.
        let stats = ColumnStats {
            min: Some(Value::Str("1995-01-02".into())),
            max: Some(Value::Str("1995-1-1".into())),
            null_count: 0,
        };
        let p = Predicate {
            col: 0,
            op: CmpOp::Lt,
            value: Value::date_from_ymd(1995, 1, 2),
        };
        assert!(p.matches(&Value::Str("1995-1-1".into())));
        assert!(p.admits(&stats, 2));
    }

    #[test]
    fn all_null_pruning_requires_null_rejecting_predicate() {
        // Regression: the all-null skip must be *derived from*
        // null-rejection, not hard-coded. Every comparison operator is
        // null-rejecting today, so all of them prune an all-null stripe —
        // but only because `is_null_rejecting` says so.
        let all_null = ColumnStats {
            min: None,
            max: None,
            null_count: 64,
        };
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let p = Predicate {
                col: 0,
                op,
                value: Value::Long(7),
            };
            assert!(p.is_null_rejecting(), "{op:?} must be null-rejecting");
            assert!(
                !p.admits(&all_null, 64),
                "{op:?} over an all-null stripe must prune"
            );
        }
        // An empty stripe (rows == 0, null_count == 0) is pruned by the
        // same check.
        let empty = ColumnStats::default();
        let p = Predicate {
            col: 0,
            op: CmpOp::Ge,
            value: Value::Long(0),
        };
        assert!(!p.admits(&empty, 0));
        // A NULL literal never matches any row, whatever the stats say.
        let populated = ColumnStats {
            min: Some(Value::Long(0)),
            max: Some(Value::Long(9)),
            null_count: 0,
        };
        let null_lit = Predicate {
            col: 0,
            op: CmpOp::Eq,
            value: Value::Null,
        };
        assert!(!null_lit.admits(&populated, 10));
    }

    #[test]
    fn plan_splits_prunes_and_matches_plain_splits() {
        let dfs = dfs();
        let rows = sample_rows(400); // ids 0..400, stripes of 100
        let fmt = write_file(&dfs, "/plan", &rows, 100);
        // No predicates: identical to splits().
        let plain = fmt.splits(&dfs, "/plan").unwrap();
        let planned = fmt.plan_splits(&dfs, "/plan", &[]).unwrap();
        assert_eq!(planned.splits, plain);
        assert_eq!(planned.pruned_stripes, 0);
        assert_eq!(planned.pruned_rows, 0);
        // id >= 350 admits only the last stripe; three stripes pruned at
        // planning time, and reading the planned splits still finds every
        // matching row.
        let pred = vec![Predicate {
            col: 0,
            op: CmpOp::Ge,
            value: Value::Long(350),
        }];
        let planned = fmt.plan_splits(&dfs, "/plan", &pred).unwrap();
        assert_eq!(planned.pruned_stripes, 3);
        assert_eq!(planned.pruned_rows, 300);
        let mut got = Vec::new();
        for s in &planned.splits {
            got.extend(
                fmt.read_split(&dfs, s, &schema(), None, &pred, None)
                    .unwrap()
                    .rows,
            );
        }
        let matching: Vec<&Row> = got
            .iter()
            .filter(|r| matches!(r.get(0), Value::Long(v) if *v >= 350))
            .collect();
        assert_eq!(matching.len(), 50);
    }

    #[test]
    fn columnar_read_transposes_to_row_read() {
        let dfs = dfs();
        let rows = sample_rows(357);
        let fmt = write_file(&dfs, "/cols", &rows, 50);
        for s in fmt.splits(&dfs, "/cols").unwrap() {
            let row_src = fmt
                .read_split(&dfs, &s, &schema(), Some(&[0, 2, 3]), &[], None)
                .unwrap();
            let col_src = fmt
                .read_split_columns(&dfs, &s, &schema(), Some(&[0, 2, 3]), &[], None)
                .unwrap()
                .expect("ORC reads columns natively");
            assert_eq!(col_src.bytes_read, row_src.bytes_read);
            let mut transposed = Vec::new();
            for stripe in &col_src.stripes {
                assert!(stripe.columns.iter().all(|c| c.len() == stripe.rows));
                for r in 0..stripe.rows {
                    transposed.push(Row::from(
                        stripe
                            .columns
                            .iter()
                            .map(|c| c[r].clone())
                            .collect::<Vec<_>>(),
                    ));
                }
            }
            assert_eq!(transposed, row_src.rows);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hdm_dfs::DfsConfig;
    use proptest::prelude::*;

    fn arb_value(ty: DataType) -> BoxedStrategy<Value> {
        match ty {
            DataType::Long => {
                prop_oneof![9 => any::<i64>().prop_map(Value::Long), 1 => Just(Value::Null)].boxed()
            }
            DataType::Double => {
                prop_oneof![9 => any::<f64>().prop_map(Value::Double), 1 => Just(Value::Null)]
                    .boxed()
            }
            DataType::String => {
                prop_oneof![9 => "[a-z]{0,12}".prop_map(Value::Str), 1 => Just(Value::Null)].boxed()
            }
            DataType::Date => {
                prop_oneof![9 => (-50_000i32..50_000).prop_map(Value::Date), 1 => Just(Value::Null)]
                    .boxed()
            }
            DataType::Boolean => {
                prop_oneof![9 => any::<bool>().prop_map(Value::Boolean), 1 => Just(Value::Null)]
                    .boxed()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn chunk_round_trips(
            ty in prop_oneof![
                Just(DataType::Long),
                Just(DataType::Double),
                Just(DataType::String),
                Just(DataType::Date),
                Just(DataType::Boolean)
            ],
            seed in any::<u64>(),
            n in 0usize..200,
        ) {
            let mut runner = proptest::test_runner::TestRunner::deterministic();
            let mut values = Vec::with_capacity(n);
            let strat = arb_value(ty);
            let _ = seed;
            for _ in 0..n {
                values.push(strat.new_tree(&mut runner).unwrap().current());
            }
            let encoded = encode_chunk(ty, &values);
            let decoded = decode_chunk(ty, n, &encoded).unwrap();
            prop_assert_eq!(decoded.len(), values.len());
            for (a, b) in decoded.iter().zip(&values) {
                prop_assert_eq!(a.total_cmp(b), std::cmp::Ordering::Equal);
            }
        }

        #[test]
        fn file_round_trips_across_stripe_sizes(
            n in 1usize..150,
            stripe_rows in 1usize..40,
        ) {
            let dfs = Dfs::new(DfsConfig { block_size: 512, replication: 1, num_nodes: 2 });
            let schema = Schema::new(vec![("a", DataType::Long), ("b", DataType::String)]);
            let fmt = OrcFormat { stripe_rows };
            let mut sink = fmt.create(&dfs, "/pt", &schema, NodeId(0)).unwrap();
            let rows: Vec<Row> = (0..n)
                .map(|i| Row::from(vec![Value::Long(i as i64), Value::Str(format!("s{}", i % 5))]))
                .collect();
            for r in &rows {
                sink.write_row(r).unwrap();
            }
            Box::new(sink).close().unwrap();
            let mut got = Vec::new();
            for s in fmt.splits(&dfs, "/pt").unwrap() {
                got.extend(fmt.read_split(&dfs, &s, &schema, None, &[], None).unwrap().rows);
            }
            prop_assert_eq!(got, rows);
        }
    }

    /// Ground truth for the soundness proptest: does a concrete row
    /// satisfy a pushed-down comparison? Mirrors SQL three-valued logic
    /// and the engine's `total_cmp`-based comparisons (NaN included),
    /// written out independently of [`Predicate::matches`].
    fn row_matches(p: &Predicate, row: &Row) -> bool {
        let v = row.get(p.col);
        if v.is_null() || p.value.is_null() {
            return false;
        }
        let ord = v.total_cmp(&p.value);
        match p.op {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }

    /// Cell strategies biased toward the pruning edge cases: repeated
    /// constants (min == max stripes), NaN doubles, and enough nulls
    /// that small stripes go all-null.
    fn soundness_cell(ty: DataType) -> BoxedStrategy<Value> {
        match ty {
            DataType::Long => prop_oneof![
                3 => Just(Value::Long(7)),
                4 => any::<i64>().prop_map(Value::Long),
                2 => Just(Value::Null),
            ]
            .boxed(),
            DataType::Double => prop_oneof![
                3 => Just(Value::Double(2.5)),
                2 => Just(Value::Double(f64::NAN)),
                3 => any::<f64>().prop_map(Value::Double),
                2 => Just(Value::Null),
            ]
            .boxed(),
            DataType::Date => prop_oneof![
                3 => Just(Value::Date(9000)),
                4 => (-20_000i32..20_000).prop_map(Value::Date),
                2 => Just(Value::Null),
            ]
            .boxed(),
            _ => Just(Value::Null).boxed(),
        }
    }

    fn soundness_pred(((col, op_idx, sel), (lv, dv, fv, is_null)): PredSpec) -> Predicate {
        let op = match op_idx {
            0 => CmpOp::Eq,
            1 => CmpOp::Lt,
            2 => CmpOp::Le,
            3 => CmpOp::Gt,
            _ => CmpOp::Ge,
        };
        // Bias literals toward the pool constants so Eq can actually hit.
        let value = if is_null {
            Value::Null
        } else {
            match col {
                0 => {
                    if sel < 2 {
                        Value::Long(7)
                    } else {
                        Value::Long(lv)
                    }
                }
                1 => match sel {
                    0 | 1 => Value::Double(2.5),
                    2 => Value::Double(f64::NAN),
                    _ => Value::Double(fv),
                },
                _ => {
                    if sel < 2 {
                        Value::Date(9000)
                    } else {
                        Value::Date(dv)
                    }
                }
            }
        };
        Predicate { col, op, value }
    }

    type PredSpec = ((usize, u8, u8), (i64, i32, f64, bool));

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn planning_prune_never_loses_matching_rows(
            cells in proptest::collection::vec(
                (
                    soundness_cell(DataType::Long),
                    soundness_cell(DataType::Double),
                    soundness_cell(DataType::Date),
                ),
                0..120,
            ),
            stripe_rows in 1usize..30,
            pred_specs in proptest::collection::vec(
                ((0usize..3, 0u8..5, 0u8..4),
                 (any::<i64>(), -20_000i32..20_000, any::<f64>(),
                  prop_oneof![1 => Just(true), 9 => Just(false)])),
                0..4,
            ),
        ) {
            let dfs = Dfs::new(DfsConfig { block_size: 512, replication: 1, num_nodes: 2 });
            let schema = Schema::new(vec![
                ("a", DataType::Long),
                ("b", DataType::Double),
                ("d", DataType::Date),
            ]);
            let rows: Vec<Row> = cells
                .into_iter()
                .map(|(a, b, d)| Row::from(vec![a, b, d]))
                .collect();
            let preds: Vec<Predicate> = pred_specs.into_iter().map(soundness_pred).collect();
            let fmt = OrcFormat { stripe_rows };
            let mut sink = fmt.create(&dfs, "/sound-prop", &schema, NodeId(0)).unwrap();
            for r in &rows {
                sink.write_row(r).unwrap();
            }
            Box::new(sink).close().unwrap();
            // The reader-side row check agrees with the ground truth.
            for (r, p) in rows.iter().flat_map(|r| preds.iter().map(move |p| (r, p))) {
                prop_assert_eq!(p.matches(r.get(p.col)), row_matches(p, r));
            }
            // Ground truth: filter the full file, no pruning anywhere.
            let expected: Vec<&Row> = rows
                .iter()
                .filter(|r| preds.iter().all(|p| row_matches(p, r)))
                .collect();
            // Planning-side pruning + reader-side pruning, then re-filter.
            let planned = fmt.plan_splits(&dfs, "/sound-prop", &preds).unwrap();
            prop_assert!(planned.pruned_rows <= rows.len() as u64);
            let mut got = Vec::new();
            for s in &planned.splits {
                got.extend(fmt.read_split(&dfs, s, &schema, None, &preds, None).unwrap().rows);
            }
            let got: Vec<&Row> = got
                .iter()
                .filter(|r| preds.iter().all(|p| row_matches(p, r)))
                .collect();
            // Compare via total order so NaN compares equal to itself.
            prop_assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!(g.values().len(), e.values().len());
                for (gv, ev) in g.values().iter().zip(e.values().iter()) {
                    prop_assert_eq!(gv.total_cmp(ev), std::cmp::Ordering::Equal);
                }
            }
        }
    }
}
