//! A mutated shuffle or result frame never panics a decoder.
//!
//! Each case encodes random rows into every frame the engines put on a
//! wire or in a buffer — a row, a sort key, a join's tagged value, a
//! run of key-value pairs, and a DataMPI `DATA` payload of per-partition
//! segments — then overwrites, flips or truncates a few bytes of each
//! and feeds the result to every decoder a reduce side or a reader
//! calls. Each call must return a value or an `HdmError`: it runs under
//! `catch_unwind`, so a panic anywhere fails the case. The case count
//! comes from `PROPTEST_CASES` (CI runs 512).

use bytes::Bytes;
use hdm_common::kv::{self, BytesComparator, KvPair, ReduceInput};
use hdm_common::row::Row;
use hdm_common::sortkey;
use hdm_common::value::Value;
use hdm_core::operators::{decode_tagged, decode_tagged_into, encode_tagged, peek_tag};
use hdm_datampi::shuffle;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arb_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        any::<i64>().prop_map(Value::Long),
        any::<f64>().prop_map(Value::Double),
        "[a-z\u{e9}\u{1f600}]{0,6}".prop_map(Value::Str),
        any::<i32>().prop_map(Value::Date),
    ]
    .boxed()
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_cell(), 0..5).prop_map(Row::from),
        1..6,
    )
}

/// One byte-level edit: `(kind, position, byte)`.
type Mutation = (u8, u64, u8);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..5)
}

fn mutate(mut bytes: Vec<u8>, mutations: &[Mutation]) -> Vec<u8> {
    for &(kind, pos, byte) in mutations {
        if bytes.is_empty() {
            break;
        }
        let at = (pos % bytes.len() as u64) as usize;
        match kind {
            0 => bytes[at] = byte,
            1 => bytes[at] ^= 1 << (byte % 8),
            _ => bytes.truncate(at),
        }
    }
    bytes
}

/// Every pristine frame the rows make, by name.
fn frames(rows: &[Row], ascending: &[bool], range_len: usize) -> Vec<(&'static str, Vec<u8>)> {
    let mut row = Vec::new();
    let mut key = Vec::new();
    let mut tagged = Vec::new();
    let mut pairs = Vec::new();
    let mut segments = vec![Vec::new(); range_len];
    for (i, r) in rows.iter().enumerate() {
        r.encode(&mut row);
        key.extend(sortkey::encode_row_directed(r, ascending));
        encode_tagged(&mut tagged, (i % 2) as u8, r.values().iter());
        let mut value = Vec::new();
        r.encode(&mut value);
        let k = sortkey::encode_row_directed(r, ascending);
        kv::encode(&mut pairs, &k, &value);
        if let Some(segment) = segments.get_mut(i % range_len) {
            kv::encode(segment, &k, &value);
        }
    }
    let framed: Vec<(usize, Bytes)> = segments
        .into_iter()
        .enumerate()
        .map(|(local, s)| (local, Bytes::from(s)))
        .collect();
    vec![
        ("row", row),
        ("key", key),
        ("tagged", tagged),
        ("pairs", pairs),
        ("data", shuffle::frame(&framed).to_vec()),
    ]
}

/// Feed `bytes` to every decoder. Errors are fine; only a panic fails.
fn decode_everything(bytes: &[u8], ascending: &[bool], range_len: usize) {
    let shared = Bytes::from(bytes.to_vec());
    let _ = Row::decode(&mut &bytes[..]);
    let _ = KvPair::decode(&mut &bytes[..]);
    let _ = kv::decode_all(&shared);
    let _ = sortkey::decode_row_directed(bytes, ascending);
    let _ = peek_tag(bytes);
    let _ = decode_tagged(bytes);
    // The reduce sides' reusing decoders, into a row holding cells.
    let mut reused = Row::from(vec![Value::Str("held".into()), Value::Long(1)]);
    let _ = reused.decode_into(&mut &bytes[..]);
    let _ = decode_tagged_into(bytes, &mut reused);
    let mut input = ReduceInput::default();
    if input.push(0, 0, shared.clone(), &BytesComparator).is_ok() {
        let mut groups = input.into_groups(&BytesComparator);
        while let Some((key, values)) = groups.next_group() {
            let _ = sortkey::decode_row_directed(key, ascending);
            for mut value in values {
                let _ = peek_tag(value);
                let _ = decode_tagged_into(value, &mut reused);
                let _ = Row::decode(&mut value);
            }
        }
    }
    if let Ok(segments) = shuffle::segments(shared, range_len) {
        for (_, segment) in segments {
            let _ = kv::decode_all(&segment);
        }
    }
}

#[test]
fn pristine_frames_decode() {
    let rows: Vec<Row> = vec![
        Row::from(vec![Value::Long(7), Value::Str("x".into()), Value::Null]),
        Row::from(vec![Value::Double(-1.5), Value::Date(9_000)]),
    ];
    let ascending = [false, true];
    let frames = frames(&rows, &ascending, 2);
    let frame = |name| &frames.iter().find(|(n, _)| *n == name).unwrap().1;
    let mut row = &frame("row")[..];
    assert_eq!(Row::decode(&mut row).unwrap(), rows[0]);
    assert_eq!(Row::decode(&mut row).unwrap(), rows[1]);
    let pairs = kv::decode_all(&Bytes::from(frame("pairs").clone())).unwrap();
    assert_eq!(pairs.len(), 2);
    let key = sortkey::decode_row_directed(&pairs[1].key, &ascending).unwrap();
    assert_eq!(key, rows[1]);
    assert_eq!(peek_tag(&encoded_tagged(&rows[1], 1)).unwrap(), 1);
    let data = shuffle::segments(Bytes::from(frame("data").clone()), 2).unwrap();
    assert_eq!(data.len(), 2);
    assert_eq!(kv::decode_all(&data[1].1).unwrap(), pairs[1..]);
}

fn encoded_tagged(row: &Row, tag: u8) -> Vec<u8> {
    let mut out = Vec::new();
    encode_tagged(&mut out, tag, row.values().iter());
    out
}

proptest! {
    /// The reusing decoders the reduce sides call (`Row::decode_into`,
    /// `decode_tagged_into`), into a row already holding cells, return
    /// what the fresh decoders return on every mutated frame: the same
    /// cells, or the same typed error.
    #[test]
    fn reusing_decoders_fail_as_fresh_ones(
        rows in arb_rows(),
        held in arb_rows(),
        ascending in proptest::collection::vec(any::<bool>(), 0..5),
        edits in mutations(),
    ) {
        for (name, pristine) in frames(&rows, &ascending, 1) {
            let bytes = mutate(pristine, &edits);
            let mut reused = held[0].clone();
            let got = reused.decode_into(&mut &bytes[..]).map(|()| format!("{reused:?}"));
            let want = Row::decode(&mut &bytes[..]).map(|r| format!("{r:?}"));
            prop_assert_eq!(
                got.map_err(|e| e.to_string()), want.map_err(|e| e.to_string()), "{} frame", name
            );
            let mut reused = held[0].clone();
            let got = decode_tagged_into(&bytes, &mut reused).map(|t| format!("{t} {reused:?}"));
            let want = decode_tagged(&bytes).map(|(t, r)| format!("{t} {r:?}"));
            prop_assert_eq!(
                got.map_err(|e| e.to_string()), want.map_err(|e| e.to_string()), "{} frame", name
            );
        }
    }

    #[test]
    fn mutated_frames_never_panic(
        rows in arb_rows(),
        ascending in proptest::collection::vec(any::<bool>(), 0..5),
        range_len in 1usize..4,
        edits in mutations(),
    ) {
        for (name, pristine) in frames(&rows, &ascending, range_len) {
            let bytes = mutate(pristine, &edits);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                decode_everything(&bytes, &ascending, range_len);
            }));
            prop_assert!(
                outcome.is_ok(),
                "a decoder panicked on a mutated {} frame: {:?}",
                name,
                bytes
            );
        }
    }
}
