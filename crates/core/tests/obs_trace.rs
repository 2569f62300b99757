//! End-to-end check of the `hive.obs.*` wiring: an enabled query run
//! must emit a Perfetto-loadable Chrome trace plus the deterministic
//! summary sidecar, and the disabled default must emit nothing.

use hdm_core::{Driver, EngineKind};

fn seeded_driver() -> Driver {
    let d = Driver::in_memory();
    d.execute(
        "CREATE TABLE orders (ok BIGINT, cust BIGINT, total DOUBLE); \
         CREATE TABLE customer (ck BIGINT, seg STRING)",
    )
    .unwrap();
    let orders: Vec<hdm_common::row::Row> = (0..400)
        .map(|i| {
            hdm_common::row::Row::from(vec![
                hdm_common::value::Value::Long(i),
                hdm_common::value::Value::Long(i % 40),
                hdm_common::value::Value::Double(f64::from(i as u32) * 1.5),
            ])
        })
        .collect();
    d.load_rows("orders", &orders).unwrap();
    let customers: Vec<hdm_common::row::Row> = (0..40)
        .map(|i| {
            hdm_common::row::Row::from(vec![
                hdm_common::value::Value::Long(i),
                hdm_common::value::Value::Str(format!("seg{}", i % 3)),
            ])
        })
        .collect();
    d.load_rows("customer", &customers).unwrap();
    d
}

const QUERY: &str = "SELECT seg, COUNT(*) AS n, SUM(total) AS rev \
     FROM orders JOIN customer c ON orders.cust = c.ck \
     GROUP BY seg ORDER BY rev DESC";

#[test]
fn enabled_run_emits_loadable_trace_and_summary() {
    let trace_path = std::env::temp_dir().join(format!(
        "hdm-obs-trace-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    let trace_str = trace_path.to_string_lossy().to_string();

    let mut d = seeded_driver();
    d.conf_mut().set(hdm_common::conf::KEY_OBS_ENABLED, true);
    d.conf_mut()
        .set(hdm_common::conf::KEY_OBS_TRACE_PATH, trace_str.as_str());
    let result = d.execute_on(QUERY, EngineKind::DataMpi).unwrap();
    assert_eq!(result.rows.len(), 3);

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let events = hdm_obs::chrome::validate_chrome_trace(&trace).unwrap();
    assert!(
        events > 10,
        "expected a populated trace, got {events} events"
    );
    // The bipartite engine's task spans and the driver's stage phases
    // must both be present.
    assert!(trace.contains("\"o-task\""), "missing O task span");
    assert!(trace.contains("\"a-task\""), "missing A task span");
    // `customer` fits one DFS block, so its join runs inside the
    // aggregate stage's map pipeline: no join stage, and the summary
    // says which path ran.
    assert!(trace.contains("\"aggregate\""), "missing driver stage span");
    assert!(!trace.contains("\"join\""), "the join took a stage");

    let summary = std::fs::read_to_string(format!("{trace_str}.summary.txt")).unwrap();
    assert!(
        summary.contains("spl.flushes"),
        "summary lacks SPL counters"
    );
    for counter in [
        "join.map.steps",
        "join.map.build.rows",
        "join.map.probe.rows",
    ] {
        assert!(summary.contains(counter), "summary lacks {counter}");
    }
    // What the DataMPI wire carried, per stage and by kind: every A rank
    // of a stage got exactly one DONE.
    for kind in ["data", "commit", "done"] {
        let counter = format!("mpi.messages.{kind}{{stage=");
        assert!(summary.contains(&counter), "summary lacks {counter}");
    }
    let done: u64 = summary
        .lines()
        .filter_map(|l| l.trim().strip_prefix("mpi.messages.done{stage="))
        .filter_map(|l| l.split(" = ").nth(1)?.parse::<u64>().ok())
        .sum();
    let a_tasks: usize = result.stages.iter().map(|s| s.reduce_tasks).sum();
    assert_eq!(done, a_tasks as u64, "one DONE per A rank");

    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(format!("{trace_str}.summary.txt")).ok();
}

#[test]
fn disabled_default_writes_nothing() {
    let trace_path = std::env::temp_dir().join(format!(
        "hdm-obs-off-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    let trace_str = trace_path.to_string_lossy().to_string();

    let mut d = seeded_driver();
    // Trace path set but obs disabled (the default): no file appears.
    d.conf_mut()
        .set(hdm_common::conf::KEY_OBS_TRACE_PATH, trace_str.as_str());
    d.execute_on(QUERY, EngineKind::Hadoop).unwrap();
    assert!(!trace_path.exists(), "disabled obs must not write a trace");
}

#[test]
fn both_engines_report_the_same_group_count() {
    let mut d = seeded_driver();
    d.conf_mut().set(hdm_common::conf::KEY_OBS_ENABLED, true);
    let groups = |engine, counter: &str| {
        d.execute_on(QUERY, engine).unwrap();
        let snap = d.last_obs_snapshot().expect("obs snapshot");
        let counted = snap.counters.iter().filter(|(name, _, _)| name == counter);
        counted.map(|(_, _, v)| *v).sum::<u64>()
    };
    let a_side = groups(EngineKind::DataMpi, "a.groups");
    let reducers = groups(EngineKind::Hadoop, "reduce.groups");
    // Three segments, grouped once by the aggregate and once by the sort.
    assert_eq!(a_side, 6);
    assert_eq!(a_side, reducers);
}

/// A `lineitem`-shaped Text table of `rows` rows: two flag columns
/// with four combinations, and three measures.
fn lineitem_driver(rows: i64) -> Driver {
    use hdm_common::row::Row;
    use hdm_common::value::Value;
    let d = Driver::in_memory();
    d.execute(
        "CREATE TABLE lineitem (l_returnflag STRING, l_linestatus STRING, \
         l_quantity DOUBLE, l_extendedprice DOUBLE, l_discount DOUBLE)",
    )
    .unwrap();
    let flags = ["A", "N", "R"];
    let lines: Vec<Row> = (0..rows)
        .map(|i| {
            Row::from(vec![
                Value::Str(flags[(i % 3) as usize].into()),
                Value::Str(if i % 7 < 3 { "F" } else { "O" }.into()),
                Value::Double((i % 50) as f64 + 1.0),
                Value::Double(900.0 + (i % 1000) as f64 * 1.25),
                Value::Double((i % 11) as f64 / 100.0),
            ])
        })
        .collect();
    d.load_rows("lineitem", &lines).unwrap();
    d
}

/// Q1's shape over a Text table of many splits: the scan runs as at
/// most `2·W` map tasks however many splits there are, and the few
/// hundred bytes its partial aggregates shuffle go to one reduce/A task
/// that runs all 16 partitions — so each O task sends one DATA message
/// (at most one per O task and A task).
#[test]
fn a_q1_shaped_scan_runs_few_tasks_and_one_reduce_task() {
    let q1 = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
              SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, COUNT(*) AS n \
              FROM lineitem GROUP BY l_returnflag, l_linestatus \
              ORDER BY l_returnflag, l_linestatus";
    let mut d = lineitem_driver(80_000);
    d.conf_mut().set(hdm_common::conf::KEY_OBS_ENABLED, true);
    let mut rows = Vec::new();
    for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
        rows.push(d.execute_on(q1, engine).unwrap().to_lines());
        let snap = d.last_obs_snapshot().expect("obs snapshot");
        let scan = |name: &str| -> u64 {
            let hits = snap.counters.iter();
            let hits = hits.filter(|(n, labels, _)| n == name && labels == "stage=0");
            hits.map(|(_, _, v)| *v).sum()
        };
        let (tasks, units) = (scan("stage.map.tasks"), scan("stage.map.units"));
        assert!(units > 16, "{engine:?}: the table spans {units} splits");
        assert!(tasks <= 16, "{engine:?}: {tasks} map tasks");
        assert_eq!(scan("stage.partitions"), 16, "{engine:?}");
        assert_eq!(scan("stage.reduce.tasks"), 1, "{engine:?}");
        if engine == EngineKind::DataMpi {
            let data = scan("mpi.messages.data");
            assert!(data <= 16 * 16, "{data} DATA messages");
            assert_eq!(data, tasks, "one DATA per O task");
        }
    }
    assert_eq!(rows[0], rows[1]);
    assert_eq!(rows[0].len(), 6);
}
