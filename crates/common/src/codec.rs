//! Byte-level codecs: varints, zigzag, length-prefixed slices.
//!
//! These are the primitives every serialized representation in the stack is
//! built from: the binary row codec ([`crate::kv`]), the sequence
//! intermediate format, and the ORC-like columnar encodings.

use crate::error::{HdmError, Result};
use bytes::{Buf, BufMut};

/// Encode an unsigned integer as a LEB128 varint.
pub fn write_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decode a LEB128 varint.
///
/// # Errors
/// Returns [`HdmError::Codec`] on truncated input or overlong encoding.
pub fn read_varint(buf: &mut impl Buf) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(HdmError::Codec("truncated varint".into()));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(HdmError::Codec("varint overflow".into()));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-encode a signed integer so small magnitudes stay small.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Write a signed integer as a zigzag varint.
pub fn write_signed_varint(buf: &mut impl BufMut, v: i64) {
    write_varint(buf, zigzag_encode(v));
}

/// Read a zigzag varint.
///
/// # Errors
/// Propagates [`read_varint`] failures.
pub fn read_signed_varint(buf: &mut impl Buf) -> Result<i64> {
    Ok(zigzag_decode(read_varint(buf)?))
}

/// Write a length-prefixed byte slice.
pub fn write_bytes(buf: &mut impl BufMut, data: &[u8]) {
    write_varint(buf, data.len() as u64);
    buf.put_slice(data);
}

/// Read a length-prefixed byte slice.
///
/// # Errors
/// Returns [`HdmError::Codec`] on truncated input.
pub fn read_bytes(buf: &mut impl Buf) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    read_bytes_into(buf, &mut out)?;
    Ok(out)
}

/// Read a length-prefixed byte slice into `out`, replacing what it
/// held and keeping its capacity: the bytes are appended chunk by
/// chunk, never zero-filled first.
///
/// # Errors
/// Returns [`HdmError::Codec`] on truncated input (`out` is then left
/// empty).
fn read_bytes_into(buf: &mut impl Buf, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let len = read_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(HdmError::Codec(format!(
            "truncated byte slice: want {len}, have {}",
            buf.remaining()
        )));
    }
    out.reserve(len);
    while out.len() < len {
        let chunk = buf.chunk();
        let take = chunk.len().min(len - out.len());
        if take == 0 {
            return Err(HdmError::Codec("byte slice source stalled".into()));
        }
        out.extend_from_slice(chunk.get(..take).unwrap_or_default());
        buf.advance(take);
    }
    Ok(())
}

/// Write a length-prefixed UTF-8 string.
pub fn write_str(buf: &mut impl BufMut, s: &str) {
    write_bytes(buf, s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
///
/// # Errors
/// Returns [`HdmError::Codec`] on truncation or invalid UTF-8.
pub fn read_str(buf: &mut impl Buf) -> Result<String> {
    let mut out = String::new();
    read_str_into(buf, &mut out)?;
    Ok(out)
}

/// Read a length-prefixed UTF-8 string into `out`, reusing its
/// capacity. Fails exactly as [`read_str`] does; `out` is then empty.
///
/// # Errors
/// Returns [`HdmError::Codec`] on truncation or invalid UTF-8.
pub(crate) fn read_str_into(buf: &mut impl Buf, out: &mut String) -> Result<()> {
    let mut raw = std::mem::take(out).into_bytes();
    read_bytes_into(buf, &mut raw)?;
    *out = String::from_utf8(raw).map_err(|e| HdmError::Codec(format!("invalid utf-8: {e}")))?;
    Ok(())
}

/// Number of bytes [`write_varint`] will produce for `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip_u64(v: u64) -> u64 {
        let mut b = BytesMut::new();
        write_varint(&mut b, v);
        assert_eq!(b.len(), varint_len(v));
        read_varint(&mut b.freeze()).unwrap()
    }

    #[test]
    fn varint_round_trip_edges() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX, u32::MAX as u64] {
            assert_eq!(round_trip_u64(v), v);
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        for v in [-1_000_000i64, -1, 0, 1, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let data: &[u8] = &[0x80, 0x80];
        assert!(read_varint(&mut &data[..]).is_err());
    }

    #[test]
    fn bytes_round_trip() {
        let mut b = BytesMut::new();
        write_bytes(&mut b, b"hello");
        write_str(&mut b, "world");
        let mut r = b.freeze();
        assert_eq!(read_bytes(&mut r).unwrap(), b"hello");
        assert_eq!(read_str(&mut r).unwrap(), "world");
    }

    #[test]
    fn truncated_bytes_errors() {
        let mut b = BytesMut::new();
        write_varint(&mut b, 100);
        b.put_slice(b"short");
        assert!(read_bytes(&mut b.freeze()).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn varint_round_trips(v in any::<u64>()) {
            let mut b = BytesMut::new();
            write_varint(&mut b, v);
            prop_assert_eq!(read_varint(&mut b.freeze()).unwrap(), v);
        }

        #[test]
        fn signed_varint_round_trips(v in any::<i64>()) {
            let mut b = BytesMut::new();
            write_signed_varint(&mut b, v);
            prop_assert_eq!(read_signed_varint(&mut b.freeze()).unwrap(), v);
        }

        #[test]
        fn byte_slices_round_trip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut b = BytesMut::new();
            write_bytes(&mut b, &data);
            prop_assert_eq!(read_bytes(&mut b.freeze()).unwrap(), data);
        }

        #[test]
        fn concatenated_slices_parse_in_order(
            a in proptest::collection::vec(any::<u8>(), 0..64),
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut buf = BytesMut::new();
            write_bytes(&mut buf, &a);
            write_bytes(&mut buf, &b);
            let mut r = buf.freeze();
            prop_assert_eq!(read_bytes(&mut r).unwrap(), a);
            prop_assert_eq!(read_bytes(&mut r).unwrap(), b);
            prop_assert_eq!(r.len(), 0);
        }
    }
}
