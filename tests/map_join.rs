//! Map-side joins (DESIGN.md §23): which joins the planner converts,
//! and that a converted join returns exactly what the shuffle join it
//! replaced returns.
//!
//! The lever for "the same query, all shuffle joins" is the Metastore's
//! own: `bump_version` records a data change nobody measured, which
//! forgets the table's recorded size, and a table with no recorded size
//! is never hashed. No conf key selects the path.

use hdm_common::row::Row;
use hdm_common::value::Value;
use hdm_core::ast::{JoinKind, Statement};
use hdm_core::logical::analyze;
use hdm_core::parser::parse_script;
use hdm_core::physical::{plan_select, QueryPlan, StageKind, StageOutput};
use hdm_core::{Driver, EngineKind};
use hdm_dfs::{Dfs, DfsConfig};
use hdm_storage::FormatKind;
use hdm_workloads::{hibench, tpch};
use proptest::prelude::*;

/// Compile the last statement of `script` (a `SELECT`) the way the
/// driver does.
fn plan(d: &Driver, script: &str) -> QueryPlan {
    let mut stmts = parse_script(script).expect("parse");
    let Some(Statement::Select(query)) = stmts.pop() else {
        panic!("script does not end in a SELECT: {script}");
    };
    let qb = analyze(&query, d.metastore()).expect("analyze");
    plan_select(&qb, StageOutput::Collect).expect("plan")
}

/// `(stages, join stages, map-side join steps)` of a plan.
fn shape(plan: &QueryPlan) -> (usize, usize, usize) {
    let joins = plan.stages.iter().filter(|s| s.kind.name() == "join");
    let steps = plan.stages.iter().flat_map(|s| &s.inputs);
    (
        plan.stages.len(),
        joins.count(),
        steps.map(|i| i.map_joins.len()).sum(),
    )
}

/// Forget every table's recorded size: the next statement plans shuffle
/// joins only.
fn forget_sizes(d: &Driver) {
    for table in d.metastore().table_names() {
        d.metastore().bump_version(&table);
    }
}

/// Sorted lines with fractional fields rounded (partitions are summed in
/// different orders by different plans), as the other TPC-H suites do.
fn normalize(mut lines: Vec<String>) -> Vec<String> {
    for line in &mut lines {
        let fields: Vec<String> = line
            .split('\t')
            .map(|f| match f.parse::<f64>() {
                Ok(x) if f.contains('.') => format!("{x:.5e}"),
                _ => f.to_string(),
            })
            .collect();
        *line = fields.join("\t");
    }
    lines.sort();
    lines
}

/// Sum of a per-stage counter over the last statement's stages.
fn counter(d: &Driver, name: &str) -> u64 {
    let snap = d.last_obs_snapshot().expect("obs snapshot");
    let hits = snap.counters.iter().filter(|(n, _, _)| n == name);
    hits.map(|(_, _, v)| *v).sum()
}

// ---- (a) the planner -------------------------------------------------------

/// The benchmark's data: TPC-H at scale 0.01, clustered ORC.
fn benchmark_tpch() -> Driver {
    let mut d = Driver::in_memory();
    tpch::load_clustered(&mut d, 0.01, 101, FormatKind::Orc).expect("load tpch");
    d
}

#[test]
fn one_block_tables_join_map_side_and_larger_ones_shuffle() {
    let d = benchmark_tpch();
    // Q9: supplier and nation fit one 64 KB block; part, lineitem,
    // partsupp and orders do not.
    assert_eq!(shape(&plan(&d, tpch::queries::query(9))), (5, 3, 2));
    // Q3 (customer 153 KB) and Q12 (orders 967 KB) keep their shape.
    assert_eq!(shape(&plan(&d, tpch::queries::query(3))), (4, 2, 0));
    let q12 = plan(&d, tpch::queries::query(12));
    assert_eq!(shape(&q12), (3, 1, 0));
    assert!(matches!(q12.stages[0].kind, StageKind::Join { .. }));
    assert_eq!(q12.stages[0].inputs.len(), 2);
    // Q21's SELECT: supplier, nation and both CTAS temp tables are
    // hashed inside the aggregate's map pipeline.
    d.execute_on(tpch::queries::query(21), EngineKind::DataMpi)
        .expect("Q21");
    let q21 = plan(&d, tpch::queries::query(21));
    assert_eq!(shape(&q21), (3, 1, 4));
    assert!(matches!(q21.stages[1].kind, StageKind::Aggregate { .. }));
    let steps = &q21.stages[1].inputs[0].map_joins;
    // A build row carries only what is read after its join: supplier's
    // name and nation key; nothing of nation (filtered at its scan) or
    // of the temp tables (joined on, never read).
    let carried: Vec<usize> = steps.iter().map(|s| s.build.value_exprs.len()).collect();
    assert_eq!(carried, [2, 0, 0, 0]);

    // HiBench JOIN at the benchmark's size: rankings (~72 KB) is just
    // over a block.
    let mut h = Driver::in_memory();
    let cfg = hibench::HiBenchConfig {
        rankings: 4_000,
        uservisits: 60_000,
        ips: 15_000,
        theta: 1.0,
        seed: 101,
    };
    hibench::load(&mut h, &cfg).expect("load hibench");
    assert_eq!(shape(&plan(&h, hibench::join_query())), (3, 1, 0));
}

#[test]
fn without_recorded_sizes_every_join_is_a_shuffle_stage() {
    let d = benchmark_tpch();
    for n in tpch::queries::all() {
        // Create the query's temp tables, then forget what was measured.
        d.execute_on(tpch::queries::query(n), EngineKind::Hadoop)
            .unwrap_or_else(|e| panic!("Q{n}: {e}"));
        forget_sizes(&d);
        let sql = tpch::queries::query(n);
        let joins = sql.rsplit(';').find(|p| !p.trim().is_empty());
        let joins = joins.map_or(0, |select| select.matches("JOIN").count());
        let (_, join_stages, steps) = shape(&plan(&d, sql));
        assert_eq!((join_stages, steps), (joins, 0), "Q{n}");
    }
}

fn small_and_large() -> Driver {
    let d = Driver::in_memory();
    d.execute(
        "CREATE TABLE small (k BIGINT, s STRING); CREATE TABLE large (k BIGINT, v STRING); \
         INSERT INTO small VALUES (1, 'a'), (2, 'b')",
    )
    .expect("setup");
    let filler = "x".repeat(100);
    let rows: Vec<Row> = (0..1000)
        .map(|i| Row::from(vec![Value::Long(i % 50), Value::Str(filler.clone())]))
        .collect();
    d.load_rows("large", &rows).expect("load");
    d
}

#[test]
fn outer_semi_and_anti_joins_convert_only_on_a_small_right_side() {
    let d = small_and_large();
    for (kind, sql_kind) in [
        (JoinKind::Inner, "JOIN"),
        (JoinKind::LeftOuter, "LEFT OUTER JOIN"),
        (JoinKind::LeftSemi, "LEFT SEMI JOIN"),
        (JoinKind::LeftAnti, "LEFT ANTI JOIN"),
    ] {
        // Small on the right: every kind hashes it.
        let p = plan(
            &d,
            &format!("SELECT l.k FROM large l {sql_kind} small s ON l.k = s.k"),
        );
        assert_eq!(shape(&p), (1, 0, 1), "{kind:?}, small right");
        let step = &p.stages[0].inputs[0].map_joins[0];
        assert_eq!((step.kind, step.build_is_left), (kind, false));
        // Small on the left: only an inner join can swap sides.
        let p = plan(
            &d,
            &format!("SELECT s.k FROM small s {sql_kind} large l ON s.k = l.k"),
        );
        if kind == JoinKind::Inner {
            assert_eq!(shape(&p), (1, 0, 1));
            assert!(p.stages[0].inputs[0].map_joins[0].build_is_left);
        } else {
            assert_eq!(shape(&p), (1, 1, 0), "{kind:?}, small left");
        }
    }
    // The left side of a later join is a joined relation, never hashed.
    let p = plan(
        &d,
        "SELECT a.k FROM large a JOIN large b ON a.k = b.k JOIN small s ON b.k = s.k",
    );
    assert_eq!(shape(&p), (2, 1, 1));
    assert!(matches!(p.stages[1].kind, StageKind::MapOnly));
}

#[test]
fn a_table_that_outgrows_its_block_stops_converting() {
    let d = Driver::new(Dfs::new(DfsConfig {
        block_size: 256,
        replication: 1,
        num_nodes: 2,
    }));
    d.execute(
        "CREATE TABLE probe (k BIGINT); CREATE TABLE t (k BIGINT, s STRING); \
         INSERT INTO probe VALUES (1), (2); INSERT INTO t VALUES (1, 'a')",
    )
    .expect("setup");
    let sql = "SELECT t.s FROM probe p JOIN t ON p.k = t.k";
    let stored = |d: &Driver| d.metastore().table("t").unwrap().stored.unwrap();
    assert_eq!(stored(&d).block_size, 256);
    assert_eq!(shape(&plan(&d, sql)).2, 1);
    // Part files add up: the statement after the INSERT that takes `t`
    // past one block plans a shuffle join (probe is the left side of a
    // join with a non-hashable right, still small: an inner join swaps).
    let mut grew = false;
    for i in 0..40 {
        let before = stored(&d).bytes;
        d.execute(&format!("INSERT INTO t VALUES ({i}, '{}')", "y".repeat(20)))
            .expect("insert");
        assert!(stored(&d).bytes > before);
        let step = plan(&d, sql).stages[0].inputs[0].map_joins.first().cloned();
        let t_hashed = step.is_some_and(|s| !s.build_is_left);
        assert_eq!(t_hashed, stored(&d).fits_one_block(), "after insert {i}");
        grew |= !t_hashed;
    }
    assert!(grew, "t never outgrew a 256-byte block");
    // INSERT OVERWRITE re-measures; DROP + CREATE forgets.
    d.execute("INSERT OVERWRITE TABLE t SELECT k, 'z' AS s FROM probe")
        .expect("overwrite");
    assert!(stored(&d).fits_one_block());
    d.execute("DROP TABLE t; CREATE TABLE t (k BIGINT, s STRING)")
        .expect("recreate");
    assert!(d.metastore().table("t").unwrap().stored.is_none());
}

// ---- (b) the 22 TPC-H queries, map-side against all-shuffle ------------------

/// Run a script one statement at a time; returns the last statement's
/// lines and the script's `join.map.steps` / `join.map.probe.rows`.
/// With `all_shuffle`, every recorded size is forgotten before each
/// statement: the temp tables a script creates are measured by their
/// CTAS, so the sizes have to go again before the next statement plans.
fn run_script(
    d: &Driver,
    script: &str,
    engine: EngineKind,
    all_shuffle: bool,
) -> (Vec<String>, u64, u64) {
    let (mut last, mut steps, mut probed) = (Vec::new(), 0, 0);
    // No TPC-H statement text has a `;` inside a literal.
    for piece in script.split(';').filter(|p| !p.trim().is_empty()) {
        if all_shuffle {
            forget_sizes(d);
        }
        let r = d.execute_on(piece, engine);
        let r = r.unwrap_or_else(|e| panic!("{engine:?} failed on {piece}: {e}"));
        if !r.stages.is_empty() {
            steps += counter(d, "join.map.steps");
            probed += counter(d, "join.map.probe.rows");
        }
        last = r.to_lines();
    }
    (last, steps, probed)
}

#[test]
fn tpch_results_do_not_depend_on_which_side_of_the_shuffle_a_join_ran() {
    // Queries that must take the map-side path when sizes are known.
    const MAP_SIDE: [usize; 9] = [2, 5, 7, 8, 9, 10, 11, 20, 21];
    for format in [FormatKind::Text, FormatKind::Orc] {
        // Same data twice: one warehouse keeps its measured sizes, the
        // other has them forgotten before every statement.
        let load = || {
            let mut d = Driver::in_memory();
            tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
            d.conf_mut().set(hdm_common::conf::KEY_OBS_ENABLED, true);
            d
        };
        let (sized, forgetful) = (load(), load());
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            for n in tpch::queries::all() {
                let sql = tpch::queries::query(n);
                let (map_side, steps, probed) = run_script(&sized, sql, engine, false);
                if MAP_SIDE.contains(&n) {
                    assert!(
                        steps > 0 && probed > 0,
                        "Q{n} {format:?} {engine:?} never joined map-side"
                    );
                }
                let (shuffled, steps, _) = run_script(&forgetful, sql, engine, true);
                assert_eq!(steps, 0, "Q{n}: a join was hashed without a recorded size");
                assert_eq!(
                    normalize(map_side),
                    normalize(shuffled),
                    "Q{n} {format:?} {engine:?}: map-side and shuffle joins disagree"
                );
            }
        }
    }
}

/// The joins that still shuffle say how much of each group they never
/// decoded.
#[test]
fn shuffle_joins_count_the_groups_they_skip() {
    let mut d = small_and_large();
    d.conf_mut().set(hdm_common::conf::KEY_OBS_ENABLED, true);
    forget_sizes(&d);
    // Keys 0..50 on the left, 1 and 2 on the right: 48 groups have no
    // right row, none lacks a left one.
    let r = d
        .execute_on(
            "SELECT l.k, s.s FROM large l JOIN small s ON l.k = s.k",
            EngineKind::DataMpi,
        )
        .expect("join");
    assert_eq!(r.rows.len(), 40);
    assert_eq!(counter(&d, "join.map.steps"), 0);
    assert_eq!(counter(&d, "join.reduce.groups.skipped"), 48);
    assert_eq!(counter(&d, "join.reduce.rows.undecoded"), 48 * 20);
}

// ---- (c) random small tables --------------------------------------------------

fn arb_long_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        // Skew: half of all keys are 0 or 1.
        4 => (0i64..2).prop_map(Value::Long),
        4 => (0i64..12).prop_map(Value::Long),
    ]
}

fn arb_double_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(0.0)),
        Just(Value::Double(-0.0)),
        (0i64..4).prop_map(|x| Value::Double(x as f64 * 0.5)),
    ]
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let row = (arb_long_key(), arb_double_key(), -20i64..20)
        .prop_map(|(k, d, v)| Row::from(vec![k, d, Value::Long(v)]));
    proptest::collection::vec(row, 0..max)
}

const JOIN_KINDS: [&str; 4] = [
    "JOIN",
    "LEFT OUTER JOIN",
    "LEFT SEMI JOIN",
    "LEFT ANTI JOIN",
];
const JOIN_CONDITIONS: [&str; 4] = [
    "a.k = b.k",
    "a.d = b.d",
    "a.k = b.k AND a.d = b.d",
    "a.k = b.k AND a.v < b.v",
];

proptest! {
    // PROPTEST_CASES raises the count (CI runs 512 in release).
    #[test]
    fn map_side_joins_equal_shuffle_joins_on_random_tables(
        a in arb_rows(40),
        b in arb_rows(40),
        kind in 0usize..JOIN_KINDS.len(),
        on in 0usize..JOIN_CONDITIONS.len(),
        orc in any::<bool>(),
        hadoop in any::<bool>(),
        aggregate in any::<bool>(),
    ) {
        let mut d = Driver::in_memory();
        d.conf_mut().set(hdm_common::conf::KEY_OBS_ENABLED, true);
        let stored = if orc { "ORC" } else { "TEXTFILE" };
        for (name, rows) in [("a", &a), ("b", &b)] {
            d.execute(&format!(
                "CREATE TABLE {name} (k BIGINT, d DOUBLE, v BIGINT) STORED AS {stored}"
            )).expect("ddl");
            d.load_rows(name, rows).expect("load");
        }
        let engine = if hadoop { EngineKind::Hadoop } else { EngineKind::DataMpi };
        let (kind, on) = (JOIN_KINDS[kind], JOIN_CONDITIONS[on]);
        // Semi and anti joins expose the left side only.
        let right_col = if kind.contains("SEMI") || kind.contains("ANTI") { "a.v" } else { "b.v" };
        let sql = if aggregate {
            format!("SELECT a.k, COUNT(*) AS n, SUM({right_col}) AS s \
                     FROM a {kind} b ON {on} GROUP BY a.k")
        } else {
            format!("SELECT a.k, a.d, a.v, {right_col} AS w FROM a {kind} b ON {on}")
        };
        let run = |d: &Driver, want_steps: u64| {
            let r = d.execute_on(&sql, engine);
            let mut lines = r.unwrap_or_else(|e| panic!("{sql}: {e}")).to_lines();
            assert_eq!(counter(d, "join.map.steps"), want_steps, "{sql}");
            lines.sort();
            lines
        };
        // Both tables measured: `b` is hashed.
        let build_right = run(&d, 1);
        // Only `a` measured: an inner join hashes it instead; every
        // other kind shuffles.
        d.metastore().bump_version("b");
        let build_left = run(&d, u64::from(kind == "JOIN"));
        // Neither: the shuffle join.
        d.metastore().bump_version("a");
        let shuffled = run(&d, 0);
        prop_assert_eq!(&build_right, &shuffled, "b hashed vs shuffled: {}", &sql);
        prop_assert_eq!(&build_left, &shuffled, "a hashed vs shuffled: {}", &sql);
    }
}

// ---- streamed input into a map-only stage --------------------------------------

/// `plan_streams` used to refuse a stream whose consumer is a map-only
/// stage. A fused plan ends in one whenever an unaggregated query's last
/// join is map-side, so the refusal is gone; this is its worst case —
/// 16 producer partitions through a one-partition buffer into 8 map-only
/// workers — under a watchdog.
#[test]
fn a_map_only_stage_consumes_a_bounded_stream_without_deadlock() {
    use hdm_common::conf as keys;
    let mut d = small_and_large();
    d.execute("CREATE TABLE other (k BIGINT, w BIGINT)")
        .expect("ddl");
    let rows: Vec<Row> = (0..2000)
        .map(|i| Row::from(vec![Value::Long(i % 50), Value::Long(i)]))
        .collect();
    d.load_rows("other", &rows).expect("load");
    let sql = "SELECT o.w, s.s FROM large l JOIN other o ON l.k = o.k JOIN small s ON o.k = s.k \
               WHERE o.w < 100";
    // No recorded size for `other`: the first join shuffles (`large` is
    // over a block anyway); `small` is hashed in the final map-only stage.
    d.metastore().bump_version("other");
    let p = plan(&d, sql);
    assert_eq!(shape(&p), (2, 1, 1));
    assert!(matches!(p.stages[1].kind, StageKind::MapOnly));
    let conf = d.conf_mut();
    conf.set(keys::KEY_OBS_ENABLED, true);
    conf.set(keys::KEY_BYTES_PER_REDUCER, 1);
    conf.set(keys::KEY_EXEC_PIPELINED_BUFFER, 1);
    conf.set(keys::KEY_LOCAL_THREADS, 8);
    let want = {
        let mut lines = d
            .execute_on(sql, EngineKind::Hadoop)
            .expect("hadoop")
            .to_lines();
        lines.sort();
        lines
    };
    assert!(!want.is_empty());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let r = d.execute_on(sql, EngineKind::DataMpi).map(|r| {
            let mut lines = r.to_lines();
            lines.sort();
            (
                lines,
                r.stages[0].reduce_tasks,
                counter(&d, "pipe.partitions.committed"),
            )
        });
        tx.send(r).ok();
    });
    let (got, partitions, streamed) = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("streamed map-only consumer hung")
        .expect("datampi");
    assert_eq!(got, want);
    assert_eq!(partitions, 16);
    assert_eq!(streamed, 16, "the join's output was not streamed");
}
