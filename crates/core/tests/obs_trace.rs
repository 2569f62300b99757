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
