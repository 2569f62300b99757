//! Delimited text format with Hadoop `TextInputFormat` split semantics.
//!
//! Records are `\n`-terminated lines; fields are separated by a
//! configurable delimiter (`|` by default, matching TPC-H's dbgen output
//! and the hive-testbench table definitions). NULL is encoded as `\N`,
//! Hive's default null sequence.
//!
//! Split reading follows Hadoop exactly: a reader positioned at offset
//! `o > 0` discards bytes up to and including the first `\n` (that
//! partial record belongs to the previous split) and keeps reading past
//! its end until it finishes the record that straddles the boundary. The
//! property test below verifies that concatenating all splits of a file
//! yields exactly the original rows, once each.

use crate::format::{ColumnarSource, ColumnarStripe, FileFormat, FormatKind, RowSink, RowSource};
use crate::orc::Predicate;
use hdm_common::error::{HdmError, Result};
use hdm_common::row::{Row, Schema};
use hdm_common::value::{DataType, Value};
use hdm_dfs::{Dfs, DfsWriter, FileSplit, NodeId};
use std::fmt::Write as _;
use std::ops::Range;

/// Hive's default NULL escape in text tables.
pub const NULL_SEQUENCE: &str = "\\N";

/// The text format. `delimiter` defaults to `|`.
#[derive(Debug, Clone, Copy)]
pub struct TextFormat {
    /// Field separator: an ASCII byte, so that it can never fall inside
    /// a multi-byte character of a cell.
    pub delimiter: u8,
}

impl Default for TextFormat {
    fn default() -> TextFormat {
        TextFormat { delimiter: b'|' }
    }
}

fn check_delimiter(delimiter: u8) -> Result<()> {
    if delimiter.is_ascii() {
        Ok(())
    } else {
        Err(HdmError::Storage(format!(
            "text delimiter must be an ASCII byte, got 0x{delimiter:02x}"
        )))
    }
}

/// Append one row's delimited cells to `out` (no trailing newline).
fn write_cells(out: &mut String, row: &Row, delimiter: u8) {
    for (i, v) in row.values().iter().enumerate() {
        if i > 0 {
            out.push(delimiter as char);
        }
        match v {
            Value::Null => out.push_str(NULL_SEQUENCE),
            // Writing into a `String` cannot fail.
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
}

/// `0x7f` in every byte of a word.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// `b` in every byte of a word.
fn splat(b: u8) -> u64 {
    u64::from(b) * 0x0101_0101_0101_0101
}

/// The high bit of each byte of the result is set exactly where `word`
/// holds the byte `splat` repeats, and no other bit is: the per-byte
/// zero test of `word ^ splat` that cannot carry from one byte into the
/// next (each byte's `(x & 0x7f) + 0x7f` stays below 0x100).
fn byte_hits(word: u64, splat: u64) -> u64 {
    let x = word ^ splat;
    !((x & LOW7).wrapping_add(LOW7) | x | LOW7)
}

/// Position of the first `needle` in `haystack`, eight bytes a step.
fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let (words, tail) = haystack.as_chunks::<8>();
    let splat = splat(needle);
    for (w, word) in words.iter().enumerate() {
        let hits = byte_hits(u64::from_le_bytes(*word), splat);
        if hits != 0 {
            return Some(w * 8 + hits.trailing_zeros() as usize / 8);
        }
    }
    let done = words.len() * 8;
    tail.iter().position(|&b| b == needle).map(|p| done + p)
}

/// Append `i + 1` for every `i` with `bytes[i] == needle`, in order,
/// eight bytes a step: where the fields after each delimiter start.
fn push_field_starts(bytes: &[u8], needle: u8, starts: &mut Vec<usize>) {
    let (words, tail) = bytes.as_chunks::<8>();
    let splat = splat(needle);
    for (w, word) in words.iter().enumerate() {
        let mut hits = byte_hits(u64::from_le_bytes(*word), splat);
        while hits != 0 {
            starts.push(w * 8 + hits.trailing_zeros() as usize / 8 + 1);
            hits &= hits - 1;
        }
    }
    let done = words.len() * 8;
    let in_tail = tail.iter().enumerate().filter(|&(_, &b)| b == needle);
    starts.extend(in_tail.map(|(i, _)| done + i + 1));
}

/// Render one row as a delimited line (no trailing newline).
pub fn format_row(row: &Row, delimiter: u8) -> String {
    let mut out = String::new();
    write_cells(&mut out, row, delimiter);
    out
}

/// The one Text decoder, lazy per cell (Hive's `LazySimpleSerDe`).
///
/// [`LineDecoder::for_each_line`] walks a split's bytes once, a word at
/// a time, finding line ends and delimiters in the same step: per line
/// it records where the fields the reader needs start, counts the rest,
/// and checks the field count, then hands the line over; nothing is
/// parsed or allocated by it. ([`LineDecoder::index`] does the same for
/// one line.) After that [`field_value`] parses any one cell on its
/// own, so the caller decides which cells are worth parsing: the
/// predicates' first, the projection's only for rows that pass.
struct LineDecoder<'s> {
    schema: &'s Schema,
    delimiter: u8,
    /// `starts[i]` is the byte offset of field `i` in the indexed line,
    /// and one entry past the last field holds `line.len() + 1`: field
    /// `i` is `line[starts[i]..starts[i + 1] - 1]`. Reused across lines.
    starts: Vec<usize>,
}

/// The field-count check of one line of `schema` with `delimiters`
/// delimiters. A one-column schema takes the whole line as its cell,
/// delimiters included.
fn check_fields(schema: &Schema, line: &str, delimiters: usize) -> Result<()> {
    let fields = if schema.len() > 1 { delimiters + 1 } else { 1 };
    if fields != schema.len() {
        return Err(HdmError::Storage(format!(
            "field count mismatch: expected {}, got {fields} in {line:?}",
            schema.len(),
        )));
    }
    Ok(())
}

impl<'s> LineDecoder<'s> {
    fn new(schema: &'s Schema, delimiter: u8) -> Result<LineDecoder<'s>> {
        check_delimiter(delimiter)?;
        Ok(LineDecoder {
            schema,
            delimiter,
            starts: Vec::with_capacity(schema.len() + 1),
        })
    }

    /// Record the field boundaries of `line`.
    fn index(&mut self, line: &str) -> Result<()> {
        self.starts.clear();
        self.starts.push(0);
        if self.schema.len() > 1 {
            // The delimiter is ASCII, and no byte of a multi-byte UTF-8
            // character is: every hit is a real delimiter.
            push_field_starts(line.as_bytes(), self.delimiter, &mut self.starts);
        }
        check_fields(self.schema, line, self.starts.len() - 1)?;
        self.starts.push(line.len() + 1);
        Ok(())
    }

    /// Walk `text` once, eight bytes a step, taking `\n` and the
    /// delimiter in the same step, and hand every non-empty line to
    /// `each` with its field starts: those of the first `need` fields
    /// (`need` at most the schema's width), laid out as
    /// [`Self::starts`] is for them. The delimiters after them are only
    /// counted, for the field-count check, whose errors come in line
    /// order as [`Self::index`] would raise them.
    fn for_each_line(
        &mut self,
        text: &str,
        need: usize,
        mut each: impl FnMut(&str, &[usize]),
    ) -> Result<()> {
        let schema = self.schema;
        let stride = need + 1;
        let starts = &mut self.starts;
        starts.clear();
        starts.push(0);
        let (mut line_start, mut delimiters) = (0, 0);
        let mut hit = |pos: usize, is_newline: bool| -> Result<()> {
            if !is_newline {
                delimiters += 1;
                if starts.len() < stride {
                    starts.push(pos - line_start + 1);
                }
                return Ok(());
            }
            if pos > line_start {
                let line = text.get(line_start..pos).unwrap_or_default();
                check_fields(schema, line, delimiters)?;
                if starts.len() < stride {
                    // Every field was recorded: close the last one.
                    starts.push(line.len() + 1);
                }
                each(line, starts);
            }
            (line_start, delimiters) = (pos + 1, 0);
            starts.truncate(1);
            Ok(())
        };
        let bytes = text.as_bytes();
        let newline = splat(b'\n');
        // One column: delimiters are cell bytes, never field ends.
        let delimiter = (schema.len() > 1).then_some(self.delimiter);
        let (words, tail) = bytes.as_chunks::<8>();
        for (w, word) in words.iter().enumerate() {
            let word = u64::from_le_bytes(*word);
            let newlines = byte_hits(word, newline);
            let mut hits = newlines | delimiter.map_or(0, |d| byte_hits(word, splat(d)));
            while hits != 0 {
                let bit = hits & hits.wrapping_neg();
                hit(
                    w * 8 + hits.trailing_zeros() as usize / 8,
                    newlines & bit != 0,
                )?;
                hits ^= bit;
            }
        }
        let done = words.len() * 8;
        for (i, &b) in tail.iter().enumerate() {
            if b == b'\n' || Some(b) == delimiter {
                hit(done + i, b == b'\n')?;
            }
        }
        // The last line ends where the text does.
        hit(bytes.len(), true)
    }

    /// Parse cell `col` of the line last passed to [`Self::index`].
    fn value(&self, line: &str, col: usize) -> Value {
        field_value(self.schema, line, &self.starts, col)
    }
}

/// Parse cell `col` of `line`, whose field starts are `starts` (laid out
/// as [`LineDecoder::starts`]): `\N` is NULL, and so is a cell that does
/// not parse as the column's type (Hive's lenient semantics). Callers
/// check `col` against the schema first; a column the line does not
/// have reads as NULL.
fn field_value(schema: &Schema, line: &str, starts: &[usize], col: usize) -> Value {
    let raw = match starts.get(col..=col + 1) {
        Some(&[start, next]) => line.get(start..next - 1),
        _ => None,
    };
    let Some(raw) = raw else {
        return Value::Null;
    };
    if raw == NULL_SEQUENCE {
        return Value::Null;
    }
    let Some(field) = schema.fields().get(col) else {
        return Value::Null;
    };
    match field.data_type {
        DataType::Long => raw
            .trim()
            .parse::<i64>()
            .map(Value::Long)
            .unwrap_or(Value::Null),
        DataType::Double => raw
            .trim()
            .parse::<f64>()
            .map(Value::Double)
            .unwrap_or(Value::Null),
        DataType::String => Value::Str(raw.to_string()),
        DataType::Date => Value::parse_date(raw).unwrap_or(Value::Null),
        DataType::Boolean => {
            let t = raw.trim();
            if t.eq_ignore_ascii_case("true") || t == "1" {
                Value::Boolean(true)
            } else if t.eq_ignore_ascii_case("false") || t == "0" {
                Value::Boolean(false)
            } else {
                Value::Null
            }
        }
    }
}

/// Parse one delimited line against a schema.
///
/// # Errors
/// Returns [`HdmError::Storage`] if the field count mismatches; cells that
/// fail to parse become NULL (Hive's lenient semantics).
pub fn parse_row(line: &str, schema: &Schema, delimiter: u8) -> Result<Row> {
    let mut decoder = LineDecoder::new(schema, delimiter)?;
    decoder.index(line)?;
    Ok((0..schema.len()).map(|c| decoder.value(line, c)).collect())
}

/// More bytes fetched at a time past a split's end, to finish the
/// record that crosses it.
const LOOKAHEAD: u64 = 4096;

/// Fetch every record that *starts* inside `split`, with Hadoop's
/// `LineRecordReader` rules: a split at offset `o > 0` starts reading one
/// byte early (so a record beginning exactly at `o` is kept) and skips
/// up to its first `\n` (that partial record belongs to the previous
/// split), and the record crossing the split's end is read to its end.
/// Returns the bytes fetched and the range of them the split's records
/// span, `\n`-separated with no final `\n`.
fn fetch_records(
    dfs: &Dfs,
    split: &FileSplit,
    reader_node: Option<NodeId>,
) -> Result<(Vec<u8>, Range<usize>)> {
    let file_len = dfs.len(&split.path)?;
    let base = split.offset.saturating_sub(1);
    let limit = (split.end() - base) as usize; // records starting before this are ours
    let mut raw = dfs.read_range(&split.path, base, split.end() - base, reader_node)?;
    // The first '\n' at or after `from`, fetching more until there is one
    // or the file ends.
    let newline_from = |raw: &mut Vec<u8>, mut from: usize| -> Result<Option<usize>> {
        loop {
            if let Some(p) = raw.get(from..).and_then(|tail| find_byte(tail, b'\n')) {
                return Ok(Some(from + p));
            }
            from = from.max(raw.len());
            let fetched_until = base + raw.len() as u64;
            if fetched_until >= file_len {
                return Ok(None);
            }
            let want = LOOKAHEAD.min(file_len - fetched_until);
            raw.extend(dfs.read_range(&split.path, fetched_until, want, reader_node)?);
        }
    };
    let start = if split.offset > 0 {
        match newline_from(&mut raw, 0)? {
            Some(nl) => nl + 1,
            // The split is the interior of one huge record: no rows.
            None => return Ok((raw, 0..0)),
        }
    } else {
        0
    };
    if start >= limit {
        return Ok((raw, 0..0));
    }
    // Our last record starts at or before `limit - 1`, and no '\n' lies
    // between its start and `limit - 1` (another record of ours would
    // start after it): the first '\n' at or after `limit - 1` ends it.
    let end = newline_from(&mut raw, limit - 1)?.unwrap_or(raw.len());
    Ok((raw, start..end))
}

/// Writer for one text part file.
#[derive(Debug)]
pub struct TextSink {
    writer: DfsWriter,
    delimiter: u8,
    columns: usize,
    /// The current line, reused across rows.
    line: String,
}

impl RowSink for TextSink {
    fn write_row(&mut self, row: &Row) -> Result<()> {
        if row.len() != self.columns {
            return Err(HdmError::Storage(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.columns
            )));
        }
        self.line.clear();
        write_cells(&mut self.line, row, self.delimiter);
        self.line.push('\n');
        self.writer.write(self.line.as_bytes())
    }

    fn close(self: Box<Self>) -> Result<u64> {
        let n = self.writer.bytes_written();
        self.writer.close()?;
        Ok(n)
    }
}

impl TextFormat {
    /// The one Text read: each kept line's projected cells are decoded
    /// straight into column vectors, one stripe per split. Every
    /// predicate whose column the schema has is tested on its own cell as
    /// soon as the line's field count is known; a line that fails one is
    /// counted in `rows_skipped` with nothing else of it parsed. The
    /// caller's residual filter stays correct either way.
    fn read_columns(
        &self,
        dfs: &Dfs,
        split: &FileSplit,
        schema: &Schema,
        projection: Option<&[usize]>,
        predicates: &[Predicate],
        reader_node: Option<NodeId>,
    ) -> Result<ColumnarSource> {
        let mut decoder = LineDecoder::new(schema, self.delimiter)?;
        let all: Vec<usize>;
        let cols: &[usize] = match projection {
            Some(p) => p,
            None => {
                all = (0..schema.len()).collect();
                &all
            }
        };
        if let Some(c) = cols.iter().find(|&&c| c >= schema.len()) {
            return Err(HdmError::Storage(format!("column {c} out of range")));
        }
        let predicates: Vec<&Predicate> =
            predicates.iter().filter(|p| p.col < schema.len()).collect();
        let non_utf8 = |e| HdmError::Storage(format!("non-utf8 text data in {}: {e}", split.path));

        let (raw, records) = fetch_records(dfs, split, reader_node)?;
        let bytes = raw.get(records).unwrap_or_default();
        // One UTF-8 check for the whole buffer. On a bad byte, the lines
        // before the one holding it are walked as usual, and that line
        // then fails exactly as it would have on its own: earlier lines'
        // errors come first, and the message is the same.
        let (text, bad_line) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = bytes.get(..e.valid_up_to()).unwrap_or_default();
                let line_start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let (good, rest) = bytes.split_at(line_start);
                let text = std::str::from_utf8(good).map_err(non_utf8)?;
                (text, rest.split(|&b| b == b'\n').next())
            }
        };
        // Cells are parsed by column index, only of the fields the walk
        // recorded.
        let need = cols.iter().chain(predicates.iter().map(|p| &p.col));
        let need = need.max().map_or(0, |&c| c + 1);
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
        // A predicate's cell, parsed once per line and handed to the
        // projection if it reads the same column (at its last read).
        let mut parsed: Vec<Option<Value>> = vec![None; need];
        let last_read: Vec<bool> = (cols.iter().enumerate())
            .map(|(i, c)| !cols.get(i + 1..).unwrap_or_default().contains(c))
            .collect();
        let (mut rows, mut rows_skipped) = (0, 0);
        decoder.for_each_line(text, need, |line, starts| {
            let cell = |c: usize| field_value(schema, line, starts, c);
            if rows == 0 && predicates.is_empty() {
                // Every line is a row: size the columns from the split,
                // as many rows as the first line's length divides it into.
                let lines = text.len() / (line.len() + 1) + 1;
                columns.iter_mut().for_each(|c| c.reserve(lines));
            }
            for p in &predicates {
                if let Some(slot) = parsed.get_mut(p.col) {
                    *slot = None;
                }
            }
            let keep = predicates.iter().all(|p| match parsed.get_mut(p.col) {
                Some(slot) => p.matches(slot.get_or_insert_with(|| cell(p.col))),
                None => p.matches(&cell(p.col)),
            });
            if !keep {
                rows_skipped += 1;
                return;
            }
            for ((column, &c), &last) in columns.iter_mut().zip(cols).zip(&last_read) {
                let slot = parsed.get_mut(c);
                let held = if last {
                    slot.and_then(Option::take)
                } else {
                    slot.and_then(|held| held.clone())
                };
                column.push(held.unwrap_or_else(|| cell(c)));
            }
            rows += 1;
        })?;
        if let Some(line) = bad_line {
            std::str::from_utf8(line).map_err(non_utf8)?;
        }
        Ok(ColumnarSource {
            stripes: vec![ColumnarStripe { columns, rows }],
            bytes_read: raw.len() as u64,
            rows_skipped,
        })
    }
}

impl FileFormat for TextFormat {
    fn kind(&self) -> FormatKind {
        FormatKind::Text
    }

    fn create(
        &self,
        dfs: &Dfs,
        path: &str,
        schema: &Schema,
        node: NodeId,
    ) -> Result<Box<dyn RowSink>> {
        check_delimiter(self.delimiter)?;
        Ok(Box::new(TextSink {
            writer: dfs.create(path, node)?,
            delimiter: self.delimiter,
            columns: schema.len(),
            line: String::new(),
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
        self.read_columns(dfs, split, schema, projection, predicates, reader_node)
            .map(RowSource::from)
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
        self.read_columns(dfs, split, schema, projection, predicates, reader_node)
            .map(Some)
    }

    fn splits(&self, dfs: &Dfs, path: &str) -> Result<Vec<FileSplit>> {
        dfs.splits(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orc::CmpOp;
    use hdm_dfs::DfsConfig;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", DataType::Long),
            ("name", DataType::String),
            ("price", DataType::Double),
            ("day", DataType::Date),
        ])
    }

    fn sample(i: i64) -> Row {
        Row::from(vec![
            Value::Long(i),
            Value::Str(format!("name-{i}")),
            Value::Double(i as f64 + 0.5),
            Value::date_from_ymd(1995, 1, (1 + (i % 28)) as u32),
        ])
    }

    #[test]
    fn line_round_trip() {
        let r = sample(7);
        let line = format_row(&r, b'|');
        assert_eq!(parse_row(&line, &schema(), b'|').unwrap(), r);
    }

    #[test]
    fn null_round_trip() {
        let r = Row::from(vec![
            Value::Null,
            Value::Str("x".into()),
            Value::Null,
            Value::Null,
        ]);
        let line = format_row(&r, b'|');
        assert_eq!(line, "\\N|x|\\N|\\N");
        assert_eq!(parse_row(&line, &schema(), b'|').unwrap(), r);
    }

    #[test]
    fn unparseable_cells_become_null() {
        let row = parse_row("abc|ok|xyz|baddate", &schema(), b'|').unwrap();
        assert_eq!(row.get(0), &Value::Null);
        assert_eq!(row.get(1), &Value::Str("ok".into()));
        assert_eq!(row.get(2), &Value::Null);
        assert_eq!(row.get(3), &Value::Null);
    }

    #[test]
    fn arity_mismatch_is_error() {
        assert!(parse_row("1|2", &schema(), b'|').is_err());
    }

    #[test]
    fn split_reading_covers_file_exactly_once() {
        // Small blocks force records to straddle split boundaries.
        let dfs = Dfs::new(DfsConfig {
            block_size: 37,
            replication: 1,
            num_nodes: 2,
        });
        let fmt = TextFormat::default();
        let mut sink = fmt.create(&dfs, "/f", &schema(), NodeId(0)).unwrap();
        let rows: Vec<Row> = (0..40).map(sample).collect();
        for r in &rows {
            sink.write_row(r).unwrap();
        }
        Box::new(sink).close().unwrap();

        let splits = fmt.splits(&dfs, "/f").unwrap();
        assert!(
            splits.len() > 3,
            "need multiple splits for the test to bite"
        );
        // Row-wise and column-wise, which must agree split by split.
        let read_all = |projection: Option<&[usize]>, predicates: &[Predicate]| {
            let mut got = Vec::new();
            let mut skipped = 0;
            for s in &splits {
                let src = fmt
                    .read_split(&dfs, s, &schema(), projection, predicates, None)
                    .unwrap();
                let columns = fmt
                    .read_split_columns(&dfs, s, &schema(), projection, predicates, None)
                    .unwrap()
                    .expect("Text reads columns");
                assert_eq!(columns.stripes.len(), 1, "one stripe per split");
                assert_eq!(RowSource::from(columns), src);
                got.extend(src.rows);
                skipped += src.rows_skipped;
            }
            (got, skipped)
        };
        assert_eq!(read_all(None, &[]), (rows.clone(), 0));

        // The same straddling records, projected and filtered in the reader.
        let predicates = [
            Predicate {
                col: 0,
                op: CmpOp::Ge,
                value: Value::Long(10),
            },
            Predicate {
                col: 3,
                op: CmpOp::Lt,
                value: Value::Str("1995-01-20".into()),
            },
        ];
        let day20 = Value::date_from_ymd(1995, 1, 20);
        let kept: Vec<Row> = rows
            .iter()
            .filter(|r| *r.get(0) >= Value::Long(10) && *r.get(3) < day20)
            .map(|r| r.project(&[3, 1, 1]))
            .collect();
        assert!(!kept.is_empty() && kept.len() < rows.len());
        let skipped = (rows.len() - kept.len()) as u64;
        assert_eq!(read_all(Some(&[3, 1, 1]), &predicates), (kept, skipped));
    }

    /// A split's bytes are checked for UTF-8 once, yet the errors are the
    /// ones a check per line raises, in line order: a field-count error
    /// on an earlier line wins over a bad byte on a later one, and a bad
    /// byte in the record crossing the split's end, or cut short at the
    /// end of the file, fails with the message that line alone gives.
    #[test]
    fn utf8_errors_come_in_line_order() {
        let read = |block_size: usize, lines: &[&[u8]]| -> Vec<Result<usize>> {
            let dfs = Dfs::new(DfsConfig {
                block_size,
                replication: 1,
                num_nodes: 1,
            });
            let mut w = dfs.create("/u", NodeId(0)).unwrap();
            w.write(&lines.concat()).unwrap();
            w.close().unwrap();
            let fmt = TextFormat::default();
            let splits = fmt.splits(&dfs, "/u").unwrap();
            let read = |s| fmt.read_split(&dfs, s, &schema(), None, &[], None);
            splits
                .iter()
                .map(|s| read(s).map(|src| src.rows.len()))
                .collect()
        };
        let err = |msg: &str| Err(HdmError::Storage(msg.into()));
        let good: &[u8] = b"1|a|1.5|1995-01-01\n"; // 19 bytes
        let short: &[u8] = b"2|b\n";
        let bad: &[u8] = b"3|c|2.5|19\xff95-01-03\n";
        assert_eq!(
            read(1024, &[good, short, bad]),
            [err(r#"field count mismatch: expected 4, got 2 in "2|b""#)]
        );
        let bad_at_10 = "non-utf8 text data in /u: invalid utf-8 sequence of 1 bytes from index 10";
        assert_eq!(read(1024, &[good, bad, short]), [err(bad_at_10)]);
        // 40-byte blocks: the third record starts at byte 38 in the first
        // split and has its bad byte at 48, in the second.
        assert_eq!(read(40, &[good, good, bad, good]), [err(bad_at_10), Ok(1)]);
        let cut: &[u8] = b"4|d|1|1995-01-0\xc3";
        assert_eq!(
            read(40, &[good, good, cut]),
            [
                err("non-utf8 text data in /u: incomplete utf-8 byte sequence from index 15"),
                Ok(0)
            ]
        );
    }

    #[test]
    fn predicates_reject_nulls_and_coerce_like_the_filter() {
        let s = Schema::new(vec![("price", DataType::Double), ("day", DataType::Date)]);
        let dfs = Dfs::new(DfsConfig {
            block_size: 1024,
            replication: 1,
            num_nodes: 1,
        });
        let mut w = dfs.create("/n", NodeId(0)).unwrap();
        w.write(b"1.5|1995-03-01\n\\N|1995-03-02\n3|\\N\nabc|soon\n2|1995-02-01\n")
            .unwrap();
        w.close().unwrap();
        let fmt = TextFormat::default();
        let split = &fmt.splits(&dfs, "/n").unwrap()[0];
        let read = |col, op, value| {
            let src = fmt
                .read_split(
                    &dfs,
                    split,
                    &s,
                    Some(&[0]),
                    &[Predicate { col, op, value }],
                    None,
                )
                .unwrap();
            assert_eq!(src.rows.len() as u64 + src.rows_skipped, 5);
            src.rows
                .iter()
                .map(|r| r.get(0).clone())
                .collect::<Vec<_>>()
        };
        // A Long literal against a Double column compares numerically;
        // NULL and unparseable cells never pass.
        assert_eq!(
            read(0, CmpOp::Ge, Value::Long(2)),
            vec![Value::Double(3.0), Value::Double(2.0)]
        );
        // A Str literal against a Date column is coerced to a date.
        assert_eq!(
            read(1, CmpOp::Lt, Value::Str("1995-03-02".into())),
            vec![Value::Double(1.5), Value::Double(2.0)]
        );
        // A literal that is NULL, or does not coerce, matches nothing.
        assert_eq!(read(0, CmpOp::Eq, Value::Null), vec![]);
        assert_eq!(read(1, CmpOp::Ge, Value::Str("soon".into())), vec![]);
        // A predicate on a column the schema lacks is not the reader's to apply.
        assert_eq!(read(7, CmpOp::Eq, Value::Long(0)).len(), 5);
    }

    #[test]
    fn written_bytes_are_golden() {
        let s = Schema::new(vec![
            ("l", DataType::Long),
            ("d", DataType::Double),
            ("s", DataType::String),
            ("t", DataType::Date),
            ("b", DataType::Boolean),
        ]);
        let row = |d: f64, text: &str| {
            Row::from(vec![
                Value::Long(-7),
                Value::Double(d),
                Value::Str(text.into()),
                Value::date_from_ymd(1992, 2, 29),
                Value::Boolean(true),
            ])
        };
        let rows = vec![
            row(-0.0, ""),
            row(f64::NAN, "a b"),
            row(f64::INFINITY, "x"),
            row(f64::NEG_INFINITY, "x"),
            row(4.0, "x"),
            row(0.1, "x"),
            row(1e15, "x"),
            Row::from(vec![Value::Null; 5]),
        ];
        let golden = "-7|-0.0||1992-02-29|true\n\
                      -7|NaN|a b|1992-02-29|true\n\
                      -7|inf|x|1992-02-29|true\n\
                      -7|-inf|x|1992-02-29|true\n\
                      -7|4.0|x|1992-02-29|true\n\
                      -7|0.1|x|1992-02-29|true\n\
                      -7|1000000000000000|x|1992-02-29|true\n\
                      \\N|\\N|\\N|\\N|\\N\n";
        let dfs = Dfs::new(DfsConfig {
            block_size: 1 << 20,
            replication: 1,
            num_nodes: 1,
        });
        let fmt = TextFormat::default();
        let write = |path: &str, schema: &Schema, rows: &[Row]| {
            let mut sink = fmt.create(&dfs, path, schema, NodeId(0)).unwrap();
            for r in rows {
                sink.write_row(r).unwrap();
            }
            let n = sink.close().unwrap();
            let bytes = dfs.read_range(path, 0, n, None).unwrap();
            String::from_utf8(bytes).unwrap()
        };
        assert_eq!(write("/g", &s, &rows), golden);
        // One reused line buffer must not leak a longer row into a shorter one.
        let one = Schema::new(vec![("line", DataType::String)]);
        let lines = [
            Row::from(vec![Value::Str("a|b|c".into())]),
            Row::from(vec![Value::Null]),
            Row::from(vec![Value::Str("z".into())]),
        ];
        assert_eq!(write("/g1", &one, &lines), "a|b|c\n\\N\nz\n");
    }

    #[test]
    fn non_ascii_delimiter_is_rejected() {
        let err = parse_row("1", &schema(), 0xa7).unwrap_err();
        assert!(err.to_string().contains("ASCII"), "{err}");
    }

    #[test]
    fn projection_applies() {
        let dfs = Dfs::new(DfsConfig {
            block_size: 1024,
            replication: 1,
            num_nodes: 1,
        });
        let fmt = TextFormat::default();
        let mut sink = fmt.create(&dfs, "/p", &schema(), NodeId(0)).unwrap();
        sink.write_row(&sample(1)).unwrap();
        Box::new(sink).close().unwrap();
        let s = &fmt.splits(&dfs, "/p").unwrap()[0];
        let src = fmt
            .read_split(&dfs, s, &schema(), Some(&[1]), &[], None)
            .unwrap();
        assert_eq!(src.rows[0].values(), &[Value::Str("name-1".into())]);
    }

    #[test]
    fn single_column_schema_keeps_delimiters_in_value() {
        let s = Schema::new(vec![("line", DataType::String)]);
        let row = parse_row("a|b|c", &s, b'|').unwrap();
        assert_eq!(row.get(0), &Value::Str("a|b|c".into()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::orc::CmpOp;
    use hdm_dfs::DfsConfig;
    use proptest::prelude::*;

    /// Raw cells the generated lines are built from: every type's good,
    /// bad and edge spellings, so any cell can land under any column type.
    const CELLS: &[&str] = &[
        "\\N",
        "",
        "abc",
        "12",
        " 7 ",
        "-3",
        "99999999999999999999",
        "1.5",
        "NaN",
        "inf",
        "-0.0",
        "1e400",
        "1995-03-01",
        " 1995-02-28",
        "1995-13-01",
        "true",
        "FALSE",
        "1",
        "0",
        "\u{e9}t\u{e9}",
    ];

    const TYPES: [DataType; 5] = [
        DataType::Long,
        DataType::Double,
        DataType::String,
        DataType::Date,
        DataType::Boolean,
    ];

    fn literals() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Long(1),
            Value::Long(12),
            Value::Double(1.5),
            Value::Double(f64::NAN),
            Value::Str("abc".into()),
            Value::Str("1995-03-01".into()),
            Value::Str("soon".into()),
            Value::date_from_ymd(1995, 3, 1),
            Value::Boolean(true),
        ]
    }

    const OPS: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// What `read_split` must return for the whole file, by the eager
    /// route: every line through `parse_row`, then filter, then project.
    fn eager(
        lines: &[Vec<u8>],
        schema: &Schema,
        projection: Option<&[usize]>,
        predicates: &[Predicate],
    ) -> Result<(Vec<Row>, u64)> {
        let mut rows = Vec::new();
        let mut skipped = 0;
        for raw in lines.iter().filter(|l| !l.is_empty()) {
            let line = std::str::from_utf8(raw)
                .map_err(|e| HdmError::Storage(format!("non-utf8 text data in /lazy: {e}")))?;
            let row = parse_row(line, schema, b'|')?;
            let keep = predicates
                .iter()
                .filter(|p| p.col < schema.len())
                .all(|p| p.matches(row.get(p.col)));
            if keep {
                rows.push(projection.map_or(row.clone(), |idx| row.project(idx)));
            } else {
                skipped += 1;
            }
        }
        Ok((rows, skipped))
    }

    /// One generated Text file and one read of it.
    struct ReadCase {
        schema: Schema,
        lines: Vec<Vec<u8>>,
        projection: Option<Vec<usize>>,
        predicates: Vec<Predicate>,
        /// Holds the file at `/lazy`, in blocks small enough that records
        /// straddle them.
        dfs: Dfs,
    }

    impl ReadCase {
        fn splits(&self) -> Vec<FileSplit> {
            TextFormat::default().splits(&self.dfs, "/lazy").unwrap()
        }
    }

    /// Random schemas (1–6 columns of any type), 0–39 raw lines built
    /// from [`CELLS`] with up to two faults, projections with repeats and
    /// empty ones, predicates with any operator and literal, and 8–95-byte
    /// blocks so that records straddle splits.
    fn read_case() -> impl Strategy<Value = ReadCase> {
        let file = (
            collection::vec(0usize..5, 1..7),
            collection::vec(collection::vec(0usize..CELLS.len(), 8..9), 0..40),
            // (kind, line, byte): a line made non-UTF-8 at that byte, one
            // delimiter short, or one over.
            collection::vec((0u8..3, 0usize..64, 0usize..64), 0..3),
            8usize..96,
            any::<bool>(),
        );
        let read = (
            (any::<bool>(), collection::vec(0usize..64, 0..8)),
            collection::vec((0usize..64, 0usize..5, 0usize..10), 0..3),
        );
        (file, read).prop_map(|(file, read)| {
            let (types, cells, faults, block_size, trailing_newline) = file;
            let (projection, predicates) = read;
            let n = types.len();
            let schema = Schema::new(
                types
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (format!("c{i}"), TYPES[t]))
                    .collect(),
            );
            let mut widths = vec![n; cells.len()];
            let mut garbled = vec![None; cells.len()];
            if !cells.is_empty() {
                for &(kind, at, byte) in &faults {
                    let at = at % cells.len();
                    match kind {
                        0 => garbled[at] = Some(byte),
                        1 => widths[at] = n - 1,
                        _ => widths[at] = n + 1,
                    }
                }
            }
            let lines: Vec<Vec<u8>> = cells
                .iter()
                .enumerate()
                .map(|(i, picks)| {
                    let mut line = picks[..widths[i]]
                        .iter()
                        .map(|&c| CELLS[c])
                        .collect::<Vec<_>>()
                        .join("|")
                        .into_bytes();
                    if let Some(byte) = garbled[i] {
                        let at = byte % (line.len() + 1);
                        line.splice(at..at, *b"\xff\xfe");
                    }
                    line
                })
                .collect();
            let mut file = lines.join(&b'\n');
            if trailing_newline && !file.is_empty() {
                file.push(b'\n');
            }
            let projection: Option<Vec<usize>> = projection
                .0
                .then(|| projection.1.iter().map(|c| c % n).collect());
            let literals = literals();
            // Column `n` does not exist: the reader must leave it to the caller.
            let predicates: Vec<Predicate> = predicates
                .into_iter()
                .map(|(col, op, lit)| Predicate {
                    col: col % (n + 1),
                    op: OPS[op],
                    value: literals[lit].clone(),
                })
                .collect();
            let dfs = Dfs::new(DfsConfig {
                block_size,
                replication: 1,
                num_nodes: 2,
            });
            let mut w = dfs.create("/lazy", NodeId(0)).unwrap();
            w.write(&file).unwrap();
            w.close().unwrap();
            ReadCase {
                schema,
                lines,
                projection,
                predicates,
                dfs,
            }
        })
    }

    proptest! {
        #[test]
        fn all_splits_union_to_original(
            n_rows in 1usize..80,
            block_size in 16usize..120,
            seed in any::<u64>(),
        ) {
            let schema = Schema::new(vec![("k", DataType::Long), ("v", DataType::String)]);
            let dfs = Dfs::new(DfsConfig { block_size, replication: 1, num_nodes: 2 });
            let fmt = TextFormat::default();
            let mut sink = fmt.create(&dfs, "/x", &schema, NodeId(0)).unwrap();
            let mut rows = Vec::new();
            let mut state = seed | 1;
            for i in 0..n_rows {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let len = (state % 17) as usize;
                let s: String = "abcdefghijklmnopq"[..len].to_string();
                let r = Row::from(vec![Value::Long(i as i64), Value::Str(s)]);
                sink.write_row(&r).unwrap();
                rows.push(r);
            }
            Box::new(sink).close().unwrap();
            let mut got = Vec::new();
            for s in fmt.splits(&dfs, "/x").unwrap() {
                got.extend(fmt.read_split(&dfs, &s, &schema, None, &[], None).unwrap().rows);
            }
            prop_assert_eq!(got, rows);
        }

        /// The word-at-a-time walkers find what a byte loop finds, in
        /// any bytes (UTF-8 lead and continuation bytes included), with
        /// the needle at every offset mod 8 and inputs shorter than a word.
        #[test]
        fn word_walkers_equal_the_byte_loop(
            bytes in collection::vec(
                prop_oneof![any::<u8>(), Just(b'|'), Just(b'\n'), Just(0x80u8), Just(0xfcu8)],
                0..40,
            ),
            needle in prop_oneof![Just(b'|'), Just(b'\n'), Just(b','), Just(0u8), Just(0x7fu8)],
        ) {
            let hits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == needle).collect();
            prop_assert_eq!(find_byte(&bytes, needle), hits.first().copied());
            let mut starts = vec![0];
            push_field_starts(&bytes, needle, &mut starts);
            let want: Vec<usize> = std::iter::once(0).chain(hits.iter().map(|i| i + 1)).collect();
            prop_assert_eq!(starts, want);
        }

        /// `LineDecoder::index` over UTF-8 lines — multi-byte characters,
        /// empty fields, delimiters at every offset mod 8, lines shorter
        /// than a word — records the boundaries, or raises the field-count
        /// error, a byte loop does.
        #[test]
        fn index_equals_the_byte_loop(
            atoms in collection::vec(0usize..5, 0..30),
            width in 1usize..8,
        ) {
            const ATOMS: [&str; 5] = ["|", "a", "\u{e9}", "\u{20ac}", "\u{1f600}"];
            let line: String = atoms.iter().map(|&a| ATOMS[a]).collect();
            let schema = Schema::new(
                (0..width).map(|i| (format!("c{i}"), DataType::String)).collect(),
            );
            let mut decoder = LineDecoder::new(&schema, b'|').unwrap();
            let got = decoder.index(&line).map(|()| decoder.starts.clone());
            let mut starts = vec![0];
            if width > 1 {
                let ends = line.bytes().enumerate().filter(|&(_, b)| b == b'|');
                starts.extend(ends.map(|(i, _)| i + 1));
            }
            let want = if starts.len() == width {
                starts.push(line.len() + 1);
                Ok(starts)
            } else {
                Err(HdmError::Storage(format!(
                    "field count mismatch: expected {width}, got {} in {line:?}",
                    starts.len()
                )))
            };
            prop_assert_eq!(got, want);
        }

        /// The lazy reader is the eager one: for any schema, raw lines,
        /// projection and predicates it returns `parse_row(..).project(..)`
        /// of the rows every predicate matches, or the identical error.
        #[test]
        fn lazy_read_equals_parse_project_filter(case in read_case()) {
            let ReadCase { schema, lines, projection, predicates, dfs } = &case;
            let fmt = TextFormat::default();
            let lazy: Result<(Vec<Row>, u64)> = case.splits().iter().try_fold(
                (Vec::new(), 0u64),
                |(mut rows, skipped), split| {
                    let src = fmt.read_split(
                        dfs, split, schema, projection.as_deref(), predicates, None,
                    )?;
                    rows.extend(src.rows);
                    Ok((rows, skipped + src.rows_skipped))
                },
            );
            prop_assert_eq!(lazy, eager(lines, schema, projection.as_deref(), predicates));
        }

        /// The columnar read is the row read: per split, its stripes have
        /// the projection's width and their stated row count, and
        /// transposing them gives `read_split`'s rows, `rows_skipped` and
        /// `bytes_read` — or both fail with the identical error.
        #[test]
        fn columnar_read_equals_row_read(case in read_case()) {
            let ReadCase { schema, projection, predicates, dfs, .. } = &case;
            let width = projection.as_ref().map_or(schema.len(), Vec::len);
            let fmt = TextFormat::default();
            for split in case.splits() {
                let read = |columnar: bool| -> Result<RowSource> {
                    let (projection, node) = (projection.as_deref(), None);
                    if !columnar {
                        return fmt.read_split(dfs, &split, schema, projection, predicates, node);
                    }
                    let src = fmt
                        .read_split_columns(dfs, &split, schema, projection, predicates, node)?
                        .expect("Text reads columns");
                    let mut rows = Vec::new();
                    for stripe in &src.stripes {
                        assert_eq!(stripe.columns.len(), width);
                        assert!(stripe.columns.iter().all(|c| c.len() == stripe.rows));
                        rows.extend((0..stripe.rows).map(|r| {
                            stripe.columns.iter().map(|c| c[r].clone()).collect::<Row>()
                        }));
                    }
                    Ok(RowSource { rows, bytes_read: src.bytes_read, rows_skipped: src.rows_skipped })
                };
                prop_assert_eq!(read(true), read(false));
            }
        }
    }
}
