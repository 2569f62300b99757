//! A synthetic two-branch join DAG — the scheduler's overlap workload.
//!
//! The SQL planner emits left-deep linear chains (each stage reads the
//! previous stage's intermediate, join right sides are base-table scans
//! folded into the join stage), so compiled TPC-H plans never expose
//! two *stages* that can run at the same time. This module hand-builds
//! the diamond the paper's Q9-style supplier/part subtrees would
//! compile to under a branch-aware planner:
//!
//! ```text
//!   stage 0: filter-scan of `branch_left`  ─┐
//!                                           ├─→ stage 2: join (collect)
//!   stage 1: filter-scan of `branch_right` ─┘
//! ```
//!
//! Stages 0 and 1 are independent roots; with two or more scheduler
//! threads they overlap, and because each scans its full table while the
//! selective filter keeps only ~1/`FILTER_MODULUS` of the rows, the
//! branch scans dominate the join — a two-worker schedule approaches 2×
//! the sequential wall clock. The scheduler differential tests, the
//! chaos sibling-isolation property, and the `sched_overlap` bench all
//! run this plan through [`Driver::execute_raw_plan`].
//!
//! The module also builds the *opposite* shape: [`deep_chain_plan`], a
//! strictly linear scan → aggregate → … → aggregate → sort chain with
//! no sibling parallelism at all. A barrier scheduler can never overlap
//! any of its stages; every second it saves must come from
//! `hive.exec.pipelined` streaming partitions across the stage
//! boundaries — which makes it the discriminating workload for the
//! pipelined-execution differential tests and the `pipeline` bench.

use hdm_common::error::Result;
use hdm_common::row::{Row, Schema};
use hdm_common::value::{DataType, Value};
use hdm_core::ast::{BinOp, JoinKind};
use hdm_core::expr::RExpr;
use hdm_core::logical::AggFunc;
use hdm_core::physical::{
    AggSpec, InputSource, MapInput, QueryPlan, StageKind, StageOutput, StagePlan,
};
use hdm_core::Driver;

/// Left branch table.
pub const LEFT_TABLE: &str = "branch_left";
/// Right branch table.
pub const RIGHT_TABLE: &str = "branch_right";
/// A branch keeps the rows whose key is divisible by this.
pub const FILTER_MODULUS: i64 = 40;

/// Create and populate both branch tables with `rows_per_side`
/// deterministic rows each: `(k, v)` with `k` cycling a shared key
/// space so the join matches on every filter survivor.
///
/// # Errors
/// Table creation / load failures.
pub fn load(driver: &mut Driver, rows_per_side: usize) -> Result<()> {
    driver.execute(&format!("CREATE TABLE {LEFT_TABLE} (k BIGINT, v DOUBLE)"))?;
    driver.execute(&format!("CREATE TABLE {RIGHT_TABLE} (k BIGINT, w DOUBLE)"))?;
    let mk = |offset: f64| -> Vec<Row> {
        (0..rows_per_side)
            .map(|i| {
                Row::from(vec![
                    Value::Long(i as i64),
                    Value::Double(i as f64 * 0.5 + offset),
                ])
            })
            .collect()
    };
    driver.load_rows(LEFT_TABLE, &mk(0.0))?;
    driver.load_rows(RIGHT_TABLE, &mk(1000.0))?;
    Ok(())
}

/// One filter-scan branch stage: `SELECT k, col1 WHERE k % modulus = 0`
/// over `table`, written as an intermediate for the join to read.
fn branch_stage(id: usize, table: &str, value_name: &str) -> StagePlan {
    let filter = RExpr::Binary {
        op: BinOp::Eq,
        left: Box::new(RExpr::Binary {
            op: BinOp::Mod,
            left: Box::new(RExpr::Column(0)),
            right: Box::new(RExpr::Literal(Value::Long(FILTER_MODULUS))),
        }),
        right: Box::new(RExpr::Literal(Value::Long(0))),
    };
    StagePlan {
        id,
        inputs: vec![MapInput {
            source: InputSource::Table(table.to_string()),
            tag: 0,
            read_projection: None,
            read_schema: Schema::new(vec![
                ("k".to_string(), DataType::Long),
                (value_name.to_string(), DataType::Double),
            ]),
            pushdown: Vec::new(),
            filter: Some(filter),
            map_joins: Vec::new(),
            key_exprs: Vec::new(),
            value_exprs: vec![RExpr::Column(0), RExpr::Column(1)],
        }],
        kind: StageKind::MapOnly,
        output: StageOutput::Intermediate,
        out_names: vec!["k".to_string(), value_name.to_string()],
        out_types: vec![DataType::Long, DataType::Double],
        is_last: false,
    }
}

/// One tagged join input reading a branch stage's intermediate.
fn join_input(stage: usize, tag: u8, value_name: &str) -> MapInput {
    MapInput {
        source: InputSource::Stage(stage),
        tag,
        read_projection: None,
        read_schema: Schema::new(vec![
            ("k".to_string(), DataType::Long),
            (value_name.to_string(), DataType::Double),
        ]),
        pushdown: Vec::new(),
        filter: None,
        map_joins: Vec::new(),
        key_exprs: vec![RExpr::Column(0)],
        value_exprs: vec![RExpr::Column(0), RExpr::Column(1)],
    }
}

/// The three-stage diamond plan over the tables [`load`] creates.
pub fn diamond_plan() -> QueryPlan {
    let join = StagePlan {
        id: 2,
        inputs: vec![join_input(0, 0, "v"), join_input(1, 1, "w")],
        kind: StageKind::Join {
            kind: JoinKind::Inner,
            left_width: 2,
            right_width: 2,
            residual: None,
            // Concatenated row is [k, v, k, w].
            project: vec![RExpr::Column(0), RExpr::Column(1), RExpr::Column(3)],
        },
        output: StageOutput::Collect,
        out_names: vec!["k".to_string(), "v".to_string(), "w".to_string()],
        out_types: vec![DataType::Long, DataType::Double, DataType::Double],
        is_last: true,
    };
    QueryPlan {
        stages: vec![
            branch_stage(0, LEFT_TABLE, "v"),
            branch_stage(1, RIGHT_TABLE, "w"),
            join,
        ],
    }
}

/// Deep-chain table.
pub const DEEP_TABLE: &str = "deep_chain";

/// Create and populate the deep-chain table with `rows` deterministic
/// `(k, v)` rows whose keys are unique — every aggregate stage of
/// [`deep_chain_plan`] therefore preserves the full row count, keeping
/// data volume (and reduce parallelism) constant down the chain.
///
/// # Errors
/// Table creation / load failures.
pub fn load_deep(driver: &mut Driver, rows: usize) -> Result<()> {
    driver.execute(&format!("CREATE TABLE {DEEP_TABLE} (k BIGINT, v DOUBLE)"))?;
    let data: Vec<Row> = (0..rows)
        .map(|i| Row::from(vec![Value::Long(i as i64), Value::Double(i as f64 * 0.5)]))
        .collect();
    driver.load_rows(DEEP_TABLE, &data)?;
    Ok(())
}

/// The `(k, v)` schema every deep-chain stage boundary carries.
fn kv_schema(value_name: &str) -> Schema {
    Schema::new(vec![
        ("k".to_string(), DataType::Long),
        (value_name.to_string(), DataType::Double),
    ])
}

/// One chained aggregate stage: group the previous stage's `(k, v)`
/// intermediate by `k`, `SUM(v)`, and shift the result by +0.5 so every
/// link transforms the data (no stage is a pass-through the engine
/// could skip).
fn chain_aggregate(id: usize) -> StagePlan {
    StagePlan {
        id,
        inputs: vec![MapInput {
            source: InputSource::Stage(id - 1),
            tag: 0,
            read_projection: None,
            read_schema: kv_schema("v"),
            pushdown: Vec::new(),
            filter: None,
            map_joins: Vec::new(),
            key_exprs: vec![RExpr::Column(0)],
            value_exprs: vec![RExpr::Column(1)],
        }],
        kind: StageKind::Aggregate {
            num_keys: 1,
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                distinct: false,
            }],
            having: None,
            // Over the [k, sum] virtual row: (k, sum + 0.5).
            project: vec![
                RExpr::Column(0),
                RExpr::Binary {
                    op: BinOp::Add,
                    left: Box::new(RExpr::Column(1)),
                    right: Box::new(RExpr::Literal(Value::Double(0.5))),
                },
            ],
        },
        output: StageOutput::Intermediate,
        out_names: vec!["k".to_string(), "v".to_string()],
        out_types: vec![DataType::Long, DataType::Double],
        is_last: false,
    }
}

/// A strictly linear chain over [`DEEP_TABLE`]:
///
/// ```text
///   stage 0: map-only scan
///     → stage 1..=aggregates: group-by-k SUM(v) + 0.5
///       → stage aggregates+1: global sort by k (collect)
/// ```
///
/// `aggregates` is clamped to ≥ 2, so the plan always has at least four
/// dependent stages and three intermediate hand-offs. Every edge has
/// exactly one non-map-only consumer — with `hive.exec.pipelined` on
/// the DataMPI engine streams all of them.
pub fn deep_chain_plan(aggregates: usize) -> QueryPlan {
    let aggregates = aggregates.max(2);
    let mut stages = vec![StagePlan {
        id: 0,
        inputs: vec![MapInput {
            source: InputSource::Table(DEEP_TABLE.to_string()),
            tag: 0,
            read_projection: None,
            read_schema: kv_schema("v"),
            pushdown: Vec::new(),
            filter: None,
            map_joins: Vec::new(),
            key_exprs: Vec::new(),
            value_exprs: vec![RExpr::Column(0), RExpr::Column(1)],
        }],
        kind: StageKind::MapOnly,
        output: StageOutput::Intermediate,
        out_names: vec!["k".to_string(), "v".to_string()],
        out_types: vec![DataType::Long, DataType::Double],
        is_last: false,
    }];
    for id in 1..=aggregates {
        stages.push(chain_aggregate(id));
    }
    stages.push(StagePlan {
        id: aggregates + 1,
        inputs: vec![MapInput {
            source: InputSource::Stage(aggregates),
            tag: 0,
            read_projection: None,
            read_schema: kv_schema("v"),
            pushdown: Vec::new(),
            filter: None,
            map_joins: Vec::new(),
            key_exprs: vec![RExpr::Column(0)],
            value_exprs: vec![RExpr::Column(0), RExpr::Column(1)],
        }],
        kind: StageKind::Sort {
            ascending: vec![true],
            limit: None,
        },
        output: StageOutput::Collect,
        out_names: vec!["k".to_string(), "v".to_string()],
        out_types: vec![DataType::Long, DataType::Double],
        is_last: true,
    });
    QueryPlan { stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_core::EngineKind;

    #[test]
    fn diamond_has_two_roots_and_a_join() {
        let plan = diamond_plan();
        assert_eq!(plan.dag(), vec![vec![], vec![], vec![0, 1]]);
    }

    #[test]
    fn deep_chain_is_a_strict_line_of_at_least_four_stages() {
        let plan = deep_chain_plan(3);
        assert_eq!(plan.dag(), vec![vec![], vec![0], vec![1], vec![2], vec![3]]);
        // Clamp: even a degenerate request keeps four dependent stages.
        assert_eq!(deep_chain_plan(0).stages.len(), 4);
    }

    #[test]
    fn deep_chain_results_agree_on_both_engines() {
        let mut d = Driver::in_memory();
        load_deep(&mut d, 300).unwrap();
        let aggregates = 3;
        let plan = deep_chain_plan(aggregates);
        for engine in [EngineKind::Hadoop, EngineKind::DataMpi] {
            let r = d.execute_raw_plan(&plan, engine).unwrap();
            assert_eq!(r.rows.len(), 300, "{engine:?}");
            // Keys are unique, so each SUM passes v through and each
            // stage adds 0.5: row k is (k, 0.5·k + 0.5·aggregates).
            for (i, line) in r.to_lines().iter().enumerate() {
                let mut cells = line.split('\t');
                let k: i64 = cells.next().unwrap().parse().unwrap();
                let v: f64 = cells.next().unwrap().parse().unwrap();
                assert_eq!(k, i as i64, "{engine:?} row {i}");
                let expected = i as f64 * 0.5 + 0.5 * aggregates as f64;
                assert!(
                    (v - expected).abs() < 1e-9,
                    "{engine:?} row {i}: {v} != {expected}"
                );
            }
        }
    }

    #[test]
    fn diamond_joins_filter_survivors_on_both_engines() {
        let mut d = Driver::in_memory();
        load(&mut d, 400).unwrap();
        let plan = diamond_plan();
        let expected = 400 / FILTER_MODULUS as usize; // k ∈ {0, 40, …, 360}
        for engine in [EngineKind::Hadoop, EngineKind::DataMpi] {
            let r = d.execute_raw_plan(&plan, engine).unwrap();
            assert_eq!(r.rows.len(), expected, "{engine:?}");
            assert_eq!(r.columns, vec!["k", "v", "w"]);
            let mut lines = r.to_lines();
            lines.sort();
            assert!(lines.iter().all(|l| {
                let k: i64 = l.split('\t').next().unwrap().parse().unwrap();
                k % FILTER_MODULUS == 0
            }));
        }
    }
}
