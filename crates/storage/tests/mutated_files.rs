//! A mutated file never panics a reader.
//!
//! Small ORC, Text and Seq files holding NULLs, strings, doubles and
//! dates are written once; every case overwrites, flips or truncates a
//! few of their bytes and reads the result through every entry point a
//! scan uses. Each call must return rows or an `HdmError` — checked
//! under `catch_unwind`, so a panic anywhere in the reader fails the
//! case. The case count comes from `PROPTEST_CASES` (CI runs 512).

use hdm_common::row::{Row, Schema};
use hdm_common::value::{DataType, Value};
use hdm_dfs::{Dfs, DfsConfig, NodeId};
use hdm_storage::orc::OrcFormat;
use hdm_storage::seq::{self, SeqFormat};
use hdm_storage::text::TextFormat;
use hdm_storage::{CmpOp, FileFormat, Predicate};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const PATH: &str = "/t/part-00000";

fn dfs() -> Dfs {
    // Small blocks, so that splits and range reads cross block edges.
    Dfs::new(DfsConfig {
        block_size: 256,
        replication: 1,
        num_nodes: 2,
    })
}

fn schema() -> Schema {
    Schema::new(vec![
        ("id", DataType::Long),
        ("name", DataType::String),
        ("price", DataType::Double),
        ("day", DataType::Date),
        ("flag", DataType::Boolean),
    ])
}

fn rows() -> Vec<Row> {
    (0..40i64)
        .map(|i| {
            let null_or = |keep: bool, v: Value| if keep { v } else { Value::Null };
            Row::from(vec![
                Value::Long(i / 3),
                null_or(i % 5 != 0, Value::Str(format!("name-{}", i % 4))),
                null_or(i % 7 != 0, Value::Double(i as f64 * 1.25)),
                null_or(i % 6 != 0, Value::Date(9_000 + i as i32)),
                Value::Boolean(i % 2 == 0),
            ])
        })
        .collect()
}

/// The pristine bytes of one file written by `format`.
fn pristine(format: &dyn FileFormat) -> Vec<u8> {
    let dfs = dfs();
    let mut sink = format
        .create(&dfs, PATH, &schema(), NodeId(0))
        .expect("create");
    for row in rows() {
        sink.write_row(&row).expect("write");
    }
    sink.close().expect("close");
    dfs.read_all(PATH).expect("read back")
}

/// One byte-level edit: `(kind, position, byte)`.
type Mutation = (u8, u64, u8);

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

/// Store `bytes` as a fresh file and read it every way a scan does.
/// Errors are fine; only a panic fails.
fn read_everything(format: &dyn FileFormat, bytes: &[u8]) {
    let dfs = dfs();
    let mut writer = dfs.create(PATH, NodeId(0)).expect("create");
    writer.write(bytes).expect("write");
    writer.close().expect("close");
    let schema = schema();
    let predicates = [
        Predicate {
            col: 0,
            op: CmpOp::Ge,
            value: Value::Long(4),
        },
        Predicate {
            col: 1,
            op: CmpOp::Lt,
            value: Value::Str("name-3".into()),
        },
    ];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = format.plan_splits(&dfs, PATH, &predicates);
        let Ok(splits) = format.splits(&dfs, PATH) else {
            return;
        };
        for split in &splits {
            let _ = format.read_split(&dfs, split, &schema, None, &[], Some(NodeId(1)));
            let _ = format.read_split(&dfs, split, &schema, Some(&[2, 0]), &predicates, None);
            let _ = format.read_split_columns(&dfs, split, &schema, None, &predicates, None);
            let _ = format.read_split_columns(&dfs, split, &schema, Some(&[4, 3, 1]), &[], None);
        }
        let _ = seq::read_all(&dfs, PATH);
    }));
    assert!(
        outcome.is_ok(),
        "a reader panicked on {} mutated bytes",
        bytes.len()
    );
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..5)
}

#[test]
fn pristine_files_read_back() {
    for format in [
        &OrcFormat { stripe_rows: 8 } as &dyn FileFormat,
        &TextFormat::default(),
        &SeqFormat,
    ] {
        let dfs = dfs();
        let mut writer = dfs.create(PATH, NodeId(0)).unwrap();
        writer.write(&pristine(format)).unwrap();
        writer.close().unwrap();
        let mut got = Vec::new();
        for split in format.splits(&dfs, PATH).unwrap() {
            let source = format
                .read_split(&dfs, &split, &schema(), None, &[], None)
                .unwrap();
            got.extend(source.rows);
        }
        assert_eq!(got, rows(), "{:?} did not round-trip", format.kind());
    }
}

proptest! {
    #[test]
    fn mutated_orc_never_panics(edits in mutations()) {
        let format = OrcFormat { stripe_rows: 8 };
        read_everything(&format, &mutate(pristine(&format), &edits));
    }

    #[test]
    fn mutated_text_never_panics(edits in mutations()) {
        let format = TextFormat::default();
        read_everything(&format, &mutate(pristine(&format), &edits));
    }

    #[test]
    fn mutated_seq_never_panics(edits in mutations()) {
        read_everything(&SeqFormat, &mutate(pristine(&SeqFormat), &edits));
    }
}
