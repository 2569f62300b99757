//! Relational rows and schemas.

use crate::codec;
use crate::error::{HdmError, Result};
use crate::value::{DataType, Value};
use bytes::{Buf, BufMut};
use std::fmt;
use std::sync::Arc;

/// One named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (lower-cased at schema construction).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

/// An ordered list of [`Field`]s describing a row layout.
///
/// Schemas are cheap to clone (the field list is shared).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs. Names are lower-cased.
    pub fn new<S: Into<String>>(fields: Vec<(S, DataType)>) -> Schema {
        Schema {
            fields: Arc::new(
                fields
                    .into_iter()
                    .map(|(n, t)| Field {
                        name: n.into().to_ascii_lowercase(),
                        data_type: t,
                    })
                    .collect(),
            ),
        }
    }

    /// Empty schema.
    pub fn empty() -> Schema {
        Schema {
            fields: Arc::new(Vec::new()),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff there are no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Index of a column by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.fields.iter().position(|f| f.name == lower)
    }

    /// The field at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// A new schema with only the given column indices, in the given order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: Arc::new(indices.iter().map(|&i| self.fields[i].clone()).collect()),
        }
    }

    /// Concatenate two schemas (used when joining).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields: Vec<Field> = self.fields.as_ref().clone();
        fields.extend(other.fields.iter().cloned());
        Schema {
            fields: Arc::new(fields),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fld) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", fld.name, fld.data_type)?;
        }
        write!(f, ")")
    }
}

/// One relational row: a vector of [`Value`]s.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row { values: Vec::new() }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The cell at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All cells.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into the cell vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Append a cell.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// A new row with only the given column indices, in order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        Row { values }
    }

    /// Approximate wire size in bytes (sum of cell sizes).
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }

    /// Serialize into a buffer using the binary row codec.
    pub fn encode(&self, buf: &mut impl BufMut) {
        encode_cells(buf, self.values.iter());
    }

    /// Serialized length in bytes.
    pub fn encoded_len(&self) -> usize {
        let mut buf = Vec::with_capacity(16 + self.wire_size());
        self.encode(&mut buf);
        buf.len()
    }

    /// Deserialize a row previously written by [`Row::encode`].
    ///
    /// # Errors
    /// Returns [`HdmError::Codec`] on malformed input.
    pub fn decode(buf: &mut impl Buf) -> Result<Row> {
        let n = codec::read_varint(buf)? as usize;
        // Every value takes at least its tag byte: a corrupt count cannot
        // reserve more than the buffer holds.
        let mut values = Vec::with_capacity(n.min(buf.remaining()));
        for _ in 0..n {
            values.push(decode_value(buf)?);
        }
        Ok(Row { values })
    }

    /// Decode a row written by [`Row::encode`] into `self`, replacing its
    /// cells: slots already there are overwritten in place (a string
    /// slot that receives a string keeps its buffer), so a row reused
    /// across values allocates only when a value outgrows it. Succeeds
    /// and fails exactly as [`Row::decode`] does; after an error the
    /// cells are unspecified.
    ///
    /// # Errors
    /// Returns [`HdmError::Codec`] on malformed input.
    pub fn decode_into(&mut self, buf: &mut impl Buf) -> Result<()> {
        let n = codec::read_varint(buf)? as usize;
        self.decode_cells_into(n, buf)
    }

    /// Decode `n` cells into `self`, reusing its slots: the body of
    /// [`Row::decode_into`], for values whose cell count comes from a
    /// head of their own (a join's tagged values).
    ///
    /// # Errors
    /// Returns [`HdmError::Codec`] on malformed input.
    pub fn decode_cells_into(&mut self, n: usize, buf: &mut impl Buf) -> Result<()> {
        // Slots past the reused ones grow one decoded cell at a time: a
        // corrupt count cannot reserve more than the buffer holds.
        self.values.truncate(n);
        for slot in self.values.iter_mut() {
            decode_value_into(slot, buf)?;
        }
        for _ in self.values.len()..n {
            self.values.push(decode_value(buf)?);
        }
        Ok(())
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row { values }
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Row {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<Value> for Row {
    fn extend<T: IntoIterator<Item = Value>>(&mut self, iter: T) {
        self.values.extend(iter);
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str("\t")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_LONG: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_DATE: u8 = 6;

/// Serialize cells as [`Row::encode`] would the row holding them — for
/// writers whose cells live in columns and that would otherwise clone
/// them into a `Row` only to encode it.
pub fn encode_cells<'a>(buf: &mut impl BufMut, cells: impl ExactSizeIterator<Item = &'a Value>) {
    codec::write_varint(buf, cells.len() as u64);
    for v in cells {
        encode_value(buf, v);
    }
}

/// Encode a single [`Value`] with a 1-byte type tag.
pub fn encode_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Boolean(false) => buf.put_u8(TAG_BOOL_FALSE),
        Value::Boolean(true) => buf.put_u8(TAG_BOOL_TRUE),
        Value::Long(x) => {
            buf.put_u8(TAG_LONG);
            codec::write_signed_varint(buf, *x);
        }
        Value::Double(x) => {
            buf.put_u8(TAG_DOUBLE);
            buf.put_f64(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            codec::write_str(buf, s);
        }
        Value::Date(d) => {
            buf.put_u8(TAG_DATE);
            codec::write_signed_varint(buf, *d as i64);
        }
    }
}

/// Decode a [`Value`] written by [`encode_value`] over `slot`: a string
/// slot that receives a string reuses its buffer. Fails exactly as
/// [`decode_value`] does.
///
/// # Errors
/// Returns [`HdmError::Codec`] on malformed input.
fn decode_value_into(slot: &mut Value, buf: &mut impl Buf) -> Result<()> {
    if let (Value::Str(s), Some(&TAG_STR)) = (&mut *slot, buf.chunk().first()) {
        buf.advance(1);
        return codec::read_str_into(buf, s);
    }
    *slot = decode_value(buf)?;
    Ok(())
}

/// Decode a [`Value`] written by [`encode_value`].
///
/// # Errors
/// Returns [`HdmError::Codec`] on malformed input.
pub fn decode_value(buf: &mut impl Buf) -> Result<Value> {
    if !buf.has_remaining() {
        return Err(HdmError::Codec("truncated value".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL_FALSE => Value::Boolean(false),
        TAG_BOOL_TRUE => Value::Boolean(true),
        TAG_LONG => Value::Long(codec::read_signed_varint(buf)?),
        TAG_DOUBLE => {
            if buf.remaining() < 8 {
                return Err(HdmError::Codec("truncated double".into()));
            }
            Value::Double(buf.get_f64())
        }
        TAG_STR => Value::Str(codec::read_str(buf)?),
        TAG_DATE => Value::Date(codec::read_signed_varint(buf)? as i32),
        other => return Err(HdmError::Codec(format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        Row::from(vec![
            Value::Long(42),
            Value::Str("BUILDING".into()),
            Value::Double(3.25),
            Value::Null,
            Value::Boolean(true),
            Value::date_from_ymd(1995, 3, 15),
        ])
    }

    #[test]
    fn row_encode_decode_round_trip() {
        let row = sample_row();
        let mut buf = Vec::new();
        row.encode(&mut buf);
        let back = Row::decode(&mut &buf[..]).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn encode_cells_writes_the_row_layout() {
        let row = sample_row();
        let mut want = Vec::new();
        row.encode(&mut want);
        // Cells gathered from anywhere, in row order.
        let cells: Vec<&Value> = row.values().iter().collect();
        let mut got = Vec::new();
        encode_cells(&mut got, cells.iter().copied());
        assert_eq!(got, want);
    }

    #[test]
    fn schema_lookup_is_case_insensitive() {
        let s = Schema::new(vec![
            ("L_OrderKey", DataType::Long),
            ("l_comment", DataType::String),
        ]);
        assert_eq!(s.index_of("l_orderkey"), Some(0));
        assert_eq!(s.index_of("L_COMMENT"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn projection_reorders() {
        let row = sample_row();
        let p = row.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Double(3.25), Value::Long(42)]);
        let s = Schema::new(vec![("a", DataType::Long), ("b", DataType::String)]);
        let sp = s.project(&[1]);
        assert_eq!(sp.field(0).name, "b");
    }

    #[test]
    fn concat_joins_schemas_and_rows() {
        let a = Schema::new(vec![("x", DataType::Long)]);
        let b = Schema::new(vec![("y", DataType::String)]);
        let ab = a.concat(&b);
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.index_of("y"), Some(1));
        let r = Row::from(vec![Value::Long(1)]).concat(&Row::from(vec![Value::Str("s".into())]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn display_is_tab_separated() {
        let r = Row::from(vec![Value::Long(1), Value::Str("a".into()), Value::Null]);
        assert_eq!(r.to_string(), "1\ta\tNULL");
    }

    #[test]
    fn decode_rejects_garbage() {
        let garbage = [9u8, 1, 2, 3];
        assert!(Row::decode(&mut &garbage[..]).is_err());
    }

    #[test]
    fn encoded_len_matches_encode() {
        let row = sample_row();
        let mut buf = Vec::new();
        row.encode(&mut buf);
        assert_eq!(buf.len(), row.encoded_len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Boolean),
            any::<i64>().prop_map(Value::Long),
            any::<f64>().prop_map(Value::Double),
            ".{0,40}".prop_map(Value::Str),
            (-100_000i32..100_000).prop_map(Value::Date),
        ]
    }

    proptest! {
        #[test]
        fn any_row_round_trips(values in proptest::collection::vec(arb_value(), 0..24)) {
            let row = Row::from(values);
            let mut buf = Vec::new();
            row.encode(&mut buf);
            let back = Row::decode(&mut &buf[..]).unwrap();
            // NaN-safe comparison via total ordering equality.
            prop_assert_eq!(back.len(), row.len());
            for (a, b) in back.values().iter().zip(row.values()) {
                prop_assert_eq!(a.total_cmp(b), std::cmp::Ordering::Equal);
            }
        }

        /// Decoding a run of rows into one reused row gives what a fresh
        /// `Row::decode` gives for each, byte for byte consumed: cell
        /// counts grow and shrink, and string slots receive non-strings
        /// and the reverse.
        #[test]
        fn decoding_into_a_reused_row_equals_a_fresh_decode(
            rows in proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![3 => ".{0,12}".prop_map(Value::Str), 2 => arb_value()],
                    0..8,
                ),
                0..12,
            ),
        ) {
            let mut buf = Vec::new();
            for cells in &rows {
                Row::from(cells.clone()).encode(&mut buf);
            }
            let (mut fresh, mut reused) = (&buf[..], &buf[..]);
            let mut row = Row::new();
            for _ in &rows {
                let want = Row::decode(&mut fresh).unwrap();
                row.decode_into(&mut reused).unwrap();
                prop_assert_eq!(format!("{row:?}"), format!("{want:?}"));
                prop_assert_eq!(reused.len(), fresh.len());
            }
        }

        /// On any bytes — truncated, overwritten, garbage — decoding into
        /// a reused row (here one holding strings and other cells)
        /// succeeds or fails exactly as a fresh decode does: same cells,
        /// same bytes consumed, or the same typed error.
        #[test]
        fn a_reused_decode_fails_as_a_fresh_one(
            junk in proptest::collection::vec(arb_value(), 0..6),
            cells in proptest::collection::vec(arb_value(), 0..6),
            edits in proptest::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 0..4),
        ) {
            let mut bytes = Vec::new();
            Row::from(cells).encode(&mut bytes);
            for (kind, at, byte) in edits {
                if bytes.is_empty() {
                    break;
                }
                let at = at % bytes.len();
                match kind {
                    0 => bytes[at] = byte,
                    1 => bytes[at] ^= 1 << (byte % 8),
                    _ => bytes.truncate(at),
                }
            }
            let (mut fresh, mut reused) = (&bytes[..], &bytes[..]);
            let mut row = Row::from(junk);
            let want = Row::decode(&mut fresh);
            let got = row.decode_into(&mut reused);
            match (want, got) {
                (Ok(want), Ok(())) => {
                    prop_assert_eq!(format!("{row:?}"), format!("{want:?}"));
                    prop_assert_eq!(reused.len(), fresh.len());
                }
                (Err(want), Err(got)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (want, got) => prop_assert!(false, "fresh {want:?}, reused {got:?}"),
            }
        }

        #[test]
        fn consecutive_rows_decode_in_order(
            a in proptest::collection::vec(arb_value(), 0..8),
            b in proptest::collection::vec(arb_value(), 0..8),
        ) {
            let (ra, rb) = (Row::from(a), Row::from(b));
            let mut buf = Vec::new();
            ra.encode(&mut buf);
            rb.encode(&mut buf);
            let mut cursor = &buf[..];
            let da = Row::decode(&mut cursor).unwrap();
            let db = Row::decode(&mut cursor).unwrap();
            prop_assert_eq!(da.len(), ra.len());
            prop_assert_eq!(db.len(), rb.len());
            prop_assert_eq!(cursor.len(), 0);
        }
    }
}
