//! Concurrent stage-scheduler harness.
//!
//! Three layers of evidence that the stage-scheduler thread cap
//! (`hive.exec.parallel.thread.number`) never changes results:
//!
//! 1. **Differential sweep** — all 22 TPC-H queries × both engines ×
//!    thread caps {1, 8} must produce *byte-identical* collected rows
//!    and identical per-stage record volumes (scheduling must not
//!    perturb any stage's work, only when it runs).
//! 2. **Property tests** — proptest-generated random DAGs (≤16 stages)
//!    scheduled under thread caps 1/2/8: every execution is a valid
//!    topological order, the `sched.max.concurrent` gauge never
//!    exceeds the cap, and outputs are deterministic.
//! 3. **Chaos interplay** — seeded `hive.ft.*` fault injection over a
//!    genuinely branching (diamond) plan: a crashed stage retries (or
//!    the whole plan falls back) without corrupting concurrently
//!    running sibling stages' outputs.

use hdm_common::conf as keys;
use hdm_core::sched::run_dag;
use hdm_core::{Driver, EngineKind, QueryResult};
use hdm_obs::ObsHandle;
use hdm_storage::FormatKind;
use hdm_workloads::{branch, tpch};
use proptest::prelude::*;
use std::sync::Mutex;

fn fresh_tpch_driver() -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, FormatKind::Text).expect("load tpch");
    d
}

fn set_threads(d: &mut Driver, threads: usize) {
    d.conf_mut().set(keys::KEY_EXEC_PARALLEL_THREADS, threads);
}

fn set_pipelined(d: &mut Driver, on: bool) {
    d.conf_mut().set(keys::KEY_EXEC_PIPELINED, on);
}

/// Canonicalize a result for comparison *across* pipelining arms.
///
/// Within one arm the scheduler guarantees byte-identical rows, but
/// between `hive.exec.pipelined` on and off the consumer's task count
/// heuristic sees different input-size estimates (streamed partitions
/// carry no byte sizes), so reduce partitioning — and with it row order
/// and float accumulation order — may legitimately differ. Sort the
/// lines and canonicalize float cells before comparing.
fn normalize(r: &QueryResult) -> Vec<String> {
    let mut lines: Vec<String> = r
        .to_lines()
        .iter()
        .map(|l| {
            l.split('\t')
                .map(
                    |cell| match cell.contains('.').then(|| cell.parse::<f64>()) {
                        Some(Ok(v)) => format!("{v:.5e}"),
                        _ => cell.to_string(),
                    },
                )
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    lines.sort();
    lines
}

/// Per-stage `(map task records, reduce task records)` — the volume
/// signature that must be untouched by scheduling.
fn stage_record_volumes(r: &QueryResult) -> Vec<(Vec<u64>, Vec<u64>)> {
    r.stages
        .iter()
        .map(|s| {
            (
                s.volumes.maps.iter().map(|m| m.records).collect(),
                s.volumes.reduces.iter().map(|a| a.records).collect(),
            )
        })
        .collect()
}

/// The differential sweep: 22 queries × {DataMPI, MapReduce} ×
/// thread caps {1, 8}. Rows must be byte-identical (not
/// merely set-equal): the scheduler may only reorder stage *wall-clock*
/// placement, never any stage's inputs, outputs, or the id-indexed
/// result order.
#[test]
fn all_22_queries_identical_parallel_vs_sequential_on_both_engines() {
    let mut d = fresh_tpch_driver();
    for n in tpch::queries::all() {
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            set_threads(&mut d, 1);
            let sequential = d
                .execute_on(tpch::queries::query(n), engine)
                .unwrap_or_else(|e| panic!("Q{n} sequential failed on {engine:?}: {e}"));
            set_threads(&mut d, 8);
            let parallel = d
                .execute_on(tpch::queries::query(n), engine)
                .unwrap_or_else(|e| panic!("Q{n} parallel failed on {engine:?}: {e}"));
            assert_eq!(
                sequential.to_lines(),
                parallel.to_lines(),
                "Q{n} on {engine:?}: rows diverge between parallel and sequential"
            );
            assert_eq!(
                stage_record_volumes(&sequential),
                stage_record_volumes(&parallel),
                "Q{n} on {engine:?}: per-stage record volumes diverge"
            );
        }
    }
}

/// A genuinely branching DAG (two filter-scan roots feeding a join)
/// agrees across engines and parallel modes, and its trace shows the
/// scheduler at work: per-stage span tracks and a concurrency peak
/// that never exceeds the configured cap.
#[test]
fn diamond_plan_identical_across_modes_with_capped_overlap() {
    let mut d = Driver::in_memory();
    branch::load(&mut d, 2000).expect("load branch tables");
    let plan = branch::diamond_plan();
    let sorted = |r: &QueryResult| {
        let mut lines = r.to_lines();
        lines.sort();
        lines
    };

    let mut baseline: Option<Vec<String>> = None;
    for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
        set_threads(&mut d, 1);
        let sequential = d.execute_raw_plan(&plan, engine).expect("sequential run");
        set_threads(&mut d, 2);
        d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
        let parallel = d.execute_raw_plan(&plan, engine).expect("parallel run");
        d.conf_mut().set(keys::KEY_OBS_ENABLED, false);

        // Same engine: byte-identical. Across engines: same sorted set
        // (join output order is engine-specific).
        assert_eq!(sequential.to_lines(), parallel.to_lines(), "{engine:?}");
        let lines = sorted(&parallel);
        assert!(!lines.is_empty());
        if let Some(first) = &baseline {
            assert_eq!(first, &lines, "engines disagree on the diamond join");
        } else {
            baseline = Some(lines);
        }

        let snap = d.last_obs_snapshot().expect("obs snapshot");
        let peak = snap
            .gauges
            .iter()
            .find(|(n, _, _)| n == "sched.max.concurrent")
            .map(|(_, _, v)| *v)
            .expect("scheduler gauge recorded");
        assert!(
            (1..=2).contains(&peak),
            "{engine:?}: peak concurrency {peak} out of [1, 2]"
        );
        // Scheduler + phase spans live on per-stage tracks.
        for stage in 0..3 {
            let track = format!("stage{stage}");
            let names: Vec<&str> = snap
                .spans
                .iter()
                .filter(|s| s.track == track)
                .map(|s| s.name.as_str())
                .collect();
            assert!(
                names.contains(&"sched.run"),
                "{engine:?} {track}: {names:?}"
            );
            let phase = if stage == 2 { "join" } else { "map-only" };
            assert!(names.contains(&phase), "{engine:?} {track}: {names:?}");
        }
    }
}

/// The pipelined differential sweep: 22 queries × {DataMPI, MapReduce}
/// × {`hive.exec.pipelined` on, off}. Streaming intermediates across
/// stage boundaries may repartition downstream work but must never
/// change the result set (on the Hadoop engine the knob is a no-op and
/// both arms are the barrier scheduler).
#[test]
fn all_22_queries_identical_pipelined_vs_materialized_on_both_engines() {
    let mut d = fresh_tpch_driver();
    set_threads(&mut d, 8);
    for n in tpch::queries::all() {
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            set_pipelined(&mut d, false);
            let materialized = d
                .execute_on(tpch::queries::query(n), engine)
                .unwrap_or_else(|e| panic!("Q{n} materialized failed on {engine:?}: {e}"));
            set_pipelined(&mut d, true);
            let pipelined = d
                .execute_on(tpch::queries::query(n), engine)
                .unwrap_or_else(|e| panic!("Q{n} pipelined failed on {engine:?}: {e}"));
            assert_eq!(
                normalize(&materialized),
                normalize(&pipelined),
                "Q{n} on {engine:?}: rows diverge between pipelined and materialized"
            );
        }
    }
}

/// The deep linear chain (scan → 4 aggregates → sort) produces one
/// canonical result set across engines × pipelining × thread caps —
/// the workload where pipelining streams *every* stage boundary, so
/// any buffering/replay/ordering bug shows up as a row diff here.
#[test]
fn deep_chain_identical_across_engines_and_pipelining_modes() {
    let mut d = Driver::in_memory();
    branch::load_deep(&mut d, 500).expect("load deep chain table");
    let plan = branch::deep_chain_plan(4);
    let mut baseline: Option<Vec<String>> = None;
    for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
        for pipelined in [false, true] {
            for threads in [1, 8] {
                set_threads(&mut d, threads);
                set_pipelined(&mut d, pipelined);
                let r = d.execute_raw_plan(&plan, engine).unwrap_or_else(|e| {
                    panic!("deep chain failed on {engine:?} pipelined={pipelined} threads={threads}: {e}")
                });
                let lines = normalize(&r);
                assert_eq!(lines.len(), 500);
                if let Some(first) = &baseline {
                    assert_eq!(
                        first, &lines,
                        "{engine:?} pipelined={pipelined} threads={threads} diverges"
                    );
                } else {
                    baseline = Some(lines);
                }
            }
        }
    }
}

/// Structural evidence that pipelining actually streams: on the DataMPI
/// engine every intermediate stage of the deep chain hands its
/// partitions over in memory (no part files) and the stream counters
/// record the traffic.
#[test]
fn pipelined_deep_chain_streams_partitions_without_files() {
    let mut d = Driver::in_memory();
    branch::load_deep(&mut d, 400).expect("load deep chain table");
    set_threads(&mut d, 8);
    d.conf_mut().set(keys::KEY_OBS_ENABLED, true);
    let plan = branch::deep_chain_plan(3);
    let r = d
        .execute_raw_plan(&plan, EngineKind::DataMpi)
        .expect("pipelined deep chain");
    assert_eq!(r.rows.len(), 400);
    let last = r.stages.len() - 1;
    for stage in &r.stages[..last] {
        assert!(
            stage.output_paths.is_empty(),
            "streamed stage wrote part files: {:?}",
            stage.output_paths
        );
    }
    assert!(
        r.stages[last].output_paths.is_empty(),
        "the collect stage hands its result to the driver in memory"
    );
    let snap = d.last_obs_snapshot().expect("obs snapshot");
    let counter = |name: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
            .sum()
    };
    assert!(counter("pipe.partitions.committed") > 0);
    assert!(
        counter("pipe.rows.streamed") >= 400 * 4,
        "four streamed boundaries × 400 rows"
    );
}

/// A pipelined DataMPI `SELECT` hands its result to the driver in
/// memory (DESIGN.md §31): for every TPC-H query on Text and ORC it
/// returns the rows Hadoop and pipelined-off return (both read part
/// files back), its collect stage writes no part file, and no query
/// leaves anything under `/tmp/q`.
#[test]
fn in_memory_result_matches_file_result_on_both_formats() {
    for format in [FormatKind::Text, FormatKind::Orc] {
        let mut d = Driver::in_memory();
        tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
        for n in tpch::queries::all() {
            let mut run = |engine, pipelined| {
                set_pipelined(&mut d, pipelined);
                let r = d
                    .execute_on(tpch::queries::query(n), engine)
                    .unwrap_or_else(|e| panic!("Q{n} {format:?} {engine:?} {pipelined}: {e}"));
                assert_eq!(
                    d.dfs().list("/tmp/q"),
                    Vec::<String>::new(),
                    "Q{n} {format:?}"
                );
                r
            };
            let in_memory = run(EngineKind::DataMpi, true);
            let last = in_memory.stages.last().expect("a stage");
            assert!(last.output_paths.is_empty(), "Q{n} {format:?}");
            let bytes: u64 = last.volumes.reduces.iter().map(|r| r.output_bytes).sum();
            assert_eq!(bytes, 0, "Q{n} {format:?}: the result was written");
            let files = run(EngineKind::DataMpi, false);
            assert!(!files
                .stages
                .last()
                .expect("a stage")
                .output_paths
                .is_empty());
            let hadoop = run(EngineKind::Hadoop, true);
            let want = normalize(&hadoop);
            assert_eq!(normalize(&in_memory), want, "Q{n} {format:?} vs Hadoop");
            assert_eq!(normalize(&files), want, "Q{n} {format:?} pipelined off");
        }
    }
}

/// A table whose one-stage `GROUP BY` is its collect stage: each key's
/// row appears once in the result.
fn grouped_driver(rows: i64) -> Driver {
    use hdm_common::row::Row;
    use hdm_common::value::Value;
    let d = Driver::in_memory();
    d.execute("CREATE TABLE big (k BIGINT, v DOUBLE)").unwrap();
    let rows: Vec<Row> = (0..rows)
        .map(|i| Row::from(vec![Value::Long(i % 97), Value::Double(i as f64)]))
        .collect();
    d.load_rows("big", &rows).unwrap();
    d
}

const GROUPED: &str = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM big GROUP BY k";

fn arm_faults(d: &mut Driver, seed: u64) {
    let c = d.conf_mut();
    c.set(keys::KEY_OBS_ENABLED, true);
    c.set(keys::KEY_FT_ENABLED, true);
    c.set(keys::KEY_FT_SEED, seed);
    c.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
    c.set(keys::KEY_FT_RECV_TIMEOUT_MS, 400);
}

/// Sum of counter `name` over the labels containing `label`.
fn counter_of(d: &Driver, name: &str, label: &str) -> u64 {
    let snap = d.last_obs_snapshot().expect("obs snapshot");
    snap.counters
        .iter()
        .filter(|(n, labels, _)| n == name && labels.contains(label))
        .map(|(_, _, v)| *v)
        .sum()
}

/// A DataMPI run whose task recovery is exhausted falls back to Hadoop,
/// which writes the result to part files: the driver reads those back
/// and returns the fault-free rows, and the abandoned result stream
/// leaves nothing behind.
#[test]
fn fallback_from_an_in_memory_result_returns_the_clean_rows() {
    use hdm_faults::{FaultPlan, Site};
    let mut d = grouped_driver(7000);
    // Combiner off: every row is one O-task send, so a crash countdown
    // (< 512) fires inside a task.
    d.conf_mut().set(keys::KEY_COMBINER, false);
    let clean = d.execute_on(GROUPED, EngineKind::DataMpi).unwrap();
    let records: Vec<u64> = clean.stages[0]
        .volumes
        .maps
        .iter()
        .map(|m| m.records)
        .collect();
    d.conf_mut().set(keys::KEY_FT_MAX_ATTEMPTS, 1);
    let crashing = (0..4096u64).filter(|&seed| {
        let probe = FaultPlan::with_seed(seed);
        records.iter().enumerate().any(|(rank, &n)| {
            probe
                .crash_after(Site::OTask, rank, 0)
                .is_some_and(|c| c < n)
        })
    });
    let mut fell_back = false;
    for seed in crashing.take(8) {
        arm_faults(&mut d, seed);
        // The seed may fault the Hadoop run too; the next one is tried.
        let Ok(r) = d.execute_on(GROUPED, EngineKind::DataMpi) else {
            assert_eq!(d.dfs().list("/tmp/q"), Vec::<String>::new());
            continue;
        };
        assert_eq!(d.dfs().list("/tmp/q"), Vec::<String>::new());
        if counter_of(&d, "ft.fallbacks", "from=datampi") == 0 {
            continue;
        }
        assert_eq!(normalize(&r), normalize(&clean), "seed {seed}");
        assert!(
            !r.stages[0].output_paths.is_empty(),
            "Hadoop wrote part files"
        );
        fell_back = true;
        break;
    }
    assert!(fell_back, "no candidate seed completed via fallback");
}

/// An A task of the collect stage that crashes is replayed; its
/// partition lands in the result stream once, so each result row (one
/// per key) appears exactly once.
#[test]
fn replayed_a_task_commits_each_result_row_once() {
    let mut d = grouped_driver(7000);
    let clean = d.execute_on(GROUPED, EngineKind::DataMpi).unwrap();
    assert_eq!(clean.rows.len(), 97);
    let mut replayed = false;
    for seed in 0..64u64 {
        arm_faults(&mut d, seed);
        let r = d
            .execute_on(GROUPED, EngineKind::DataMpi)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let a_retries = counter_of(&d, "ft.retries", "site=a-task");
        let fallbacks = counter_of(&d, "ft.fallbacks", "");
        if a_retries == 0 || fallbacks > 0 {
            continue;
        }
        let keys: std::collections::BTreeSet<String> =
            r.rows.iter().map(|row| row.get(0).to_string()).collect();
        assert_eq!(keys.len(), r.rows.len(), "seed {seed}: a key came twice");
        assert_eq!(normalize(&r), normalize(&clean), "seed {seed}");
        assert_eq!(counter_of(&d, "result.rows", ""), 97);
        assert!(r.stages[0].output_paths.is_empty());
        replayed = true;
        break;
    }
    assert!(replayed, "no seed replayed an A task without falling back");
}

/// Cancelling a query while its collect stage runs (the query has no
/// other stage) ends in the typed `Cancelled`, under a watchdog, and
/// leaves nothing under `/tmp/q`. Every arm ends cancelled or with the
/// clean rows; the early ones must be cancelled mid-run.
#[test]
fn cancel_during_the_collect_stage_is_typed_and_leaves_no_scratch() {
    use hdm_common::CancelToken;
    use std::time::Duration;
    let d = grouped_driver(60_000);
    let clean = normalize(&d.execute_on(GROUPED, EngineKind::DataMpi).unwrap());
    let mut cancelled = 0;
    for delay_ms in [1u64, 2, 4, 8, 16] {
        let token = CancelToken::new();
        let (started_tx, started) = std::sync::mpsc::channel();
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = {
            let session = d.session();
            let token = token.clone();
            std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                let out = session.execute_on_cancellable(GROUPED, EngineKind::DataMpi, &token);
                let _ = tx.send(out);
            })
        };
        started.recv().unwrap();
        std::thread::sleep(Duration::from_millis(delay_ms));
        token.cancel("test: cancel the collect stage");
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the cancelled query hung");
        runner.join().unwrap();
        match outcome {
            Ok(r) => assert_eq!(normalize(&r), clean, "{delay_ms} ms"),
            Err(e) => {
                assert!(e.is_cancelled(), "{delay_ms} ms: {e}");
                cancelled += 1;
            }
        }
        assert_eq!(
            d.dfs().list("/tmp/q"),
            Vec::<String>::new(),
            "{delay_ms} ms"
        );
    }
    assert!(cancelled > 0, "no arm was cancelled mid-run");
}

/// The in-order-wave hazard, head on: a join over two streamed inputs of
/// 16 partitions each runs its 32 O tasks on 8 slots, the streams buffer
/// one partition, and the producers — one thread per partition, as A
/// ranks are — commit the far stream first and the highest partitions
/// first. Every resident task then waits on a partition whose commit
/// arrives while the buffer is full; unless commits of awaited
/// partitions skip the backpressure wait, nothing ever moves.
#[test]
fn bounded_slots_over_two_backpressured_streams_finish() {
    use hdm_common::row::Row;
    use hdm_common::value::Value;
    use hdm_core::engine::{execute_stage, read_seq_outputs, StageContext};
    use hdm_core::stream::StreamedIntermediate;
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    const PARTITIONS: usize = 16;
    const KEYS_PER_PARTITION: usize = 10;
    let mut d = Driver::in_memory();
    d.conf_mut().set(keys::KEY_LOCAL_THREADS, 8);
    let plan = branch::diamond_plan();
    let join = &plan.stages[2];
    let obs = ObsHandle::disabled();
    let streams: HashMap<usize, StreamedIntermediate> = (0..2)
        .map(|id| {
            let stream = StreamedIntermediate::new(&format!("stage{id}"), 1, &obs);
            stream.declare(PARTITIONS, 64 << 10);
            stream.attach();
            (id, stream)
        })
        .collect();
    let partition_rows = |side: usize, part: usize| -> Arc<Vec<Row>> {
        let keys = part * KEYS_PER_PARTITION..(part + 1) * KEYS_PER_PARTITION;
        Arc::new(
            keys.map(|k| {
                let cell = Value::Double((side * 1000 + k) as f64);
                Row::from(vec![Value::Long(k as i64), cell])
            })
            .collect(),
        )
    };

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let joined = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let ctx = StageContext {
                dfs: d.dfs(),
                metastore: d.metastore(),
                conf: d.conf(),
                engine: EngineKind::DataMpi,
                intermediates: &HashMap::new(),
                dag_intermediates: &HashMap::new(),
                in_streams: &streams,
                out_stream: None,
                query_id: 4_000_000,
                obs: obs.clone(),
                cancel: hdm_common::CancelToken::default(),
            };
            let result = execute_stage(join, &ctx);
            done_tx.send(()).expect("watchdog alive");
            result
        });
        for side in [1, 0] {
            for part in (0..PARTITIONS).rev() {
                let stream = &streams[&side];
                let rows = partition_rows(side, part);
                scope.spawn(move || stream.commit(part, 0, rows));
                // Let this commit reach the stream before the next lower one.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if done_rx.recv_timeout(Duration::from_secs(10)).is_err() {
            // Unblock every parked commit and take so the scope can join.
            for stream in streams.values() {
                stream.cancel("watchdog: consumer made no progress for 10 s");
            }
        }
        consumer.join().expect("consumer thread")
    });
    let joined = joined.expect("join over two backpressured streams");
    assert_eq!(joined.map_tasks, 2 * PARTITIONS);
    let rows = read_seq_outputs(d.dfs(), &joined.output_paths).expect("result rows");
    assert_eq!(rows.len(), PARTITIONS * KEYS_PER_PARTITION);
}

/// Misconfigured scheduler knobs fail queries loudly instead of
/// silently running sequentially.
#[test]
fn invalid_parallel_conf_is_an_error() {
    let mut d = Driver::in_memory();
    d.execute("CREATE TABLE t (k BIGINT)").unwrap();
    d.conf_mut().set(keys::KEY_EXEC_PARALLEL_THREADS, 0);
    assert!(d.execute("SELECT k FROM t").is_err());
    d.conf_mut().set(keys::KEY_EXEC_PARALLEL_THREADS, 4);
    assert!(d.execute("SELECT k FROM t").is_ok());
}

/// Scheduler events: interleaving-accurate start/finish log. A start
/// push happens strictly after every dependency's finish push (the
/// dispatcher only readies a child after retiring its last dep), so
/// scanning the log validates topological execution.
#[derive(Clone, Copy, PartialEq)]
enum Ev {
    Start(usize),
    Finish(usize),
}

fn assert_topological(deps: &[Vec<usize>], events: &[Ev]) {
    let mut finished = vec![false; deps.len()];
    for ev in events {
        match *ev {
            Ev::Start(s) => {
                for &dep in deps.get(s).map(Vec::as_slice).unwrap_or(&[]) {
                    assert!(
                        finished[dep],
                        "stage {s} started before its dependency {dep} finished"
                    );
                }
            }
            Ev::Finish(s) => finished[s] = true,
        }
    }
    assert!(finished.iter().all(|&f| f), "not every stage ran");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs of up to 16 stages with random back-edges, under
    /// thread caps 1/2/8: the schedule is a valid topological
    /// execution, the `sched.max.concurrent` gauge never exceeds the
    /// cap, and the id-indexed outputs are identical on every run.
    #[test]
    fn random_dags_schedule_topologically_under_caps(
        raw in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 0..4),
            1..17,
        )
    ) {
        // Stage i may only depend on stages < i: acyclic by construction
        // (run_dag re-validates independently).
        let deps: Vec<Vec<usize>> = raw
            .iter()
            .enumerate()
            .map(|(i, ds)| {
                if i == 0 {
                    Vec::new()
                } else {
                    ds.iter().map(|d| d % i).collect()
                }
            })
            .collect();
        let expected: Vec<usize> = (0..deps.len()).map(|s| s * 7 + 1).collect();
        for threads in [1usize, 2, 8] {
            let obs = ObsHandle::enabled_with_stride(1);
            let events: Mutex<Vec<Ev>> = Mutex::new(Vec::new());
            let out = run_dag(&deps, threads, &obs, &hdm_common::CancelToken::default(), |stage| {
                events.lock().unwrap().push(Ev::Start(stage));
                // A touch of work so schedules genuinely interleave.
                std::thread::yield_now();
                events.lock().unwrap().push(Ev::Finish(stage));
                Ok(stage * 7 + 1)
            })
            .unwrap();
            prop_assert_eq!(&out, &expected, "threads={}", threads);
            assert_topological(&deps, &events.into_inner().unwrap());
            let peak = obs
                .snapshot()
                .gauges
                .iter()
                .find(|(n, _, _)| n == "sched.max.concurrent")
                .map(|(_, _, v)| *v)
                .unwrap_or(0);
            prop_assert!(
                peak >= 1 && peak <= threads as i64,
                "cap {} exceeded: peak {}", threads, peak
            );
        }
    }

    /// Chaos interplay: seeded fault injection over the branching
    /// diamond plan. Whatever the seed crashes — one branch mid-stream,
    /// the join, storage reads — the run must recover (task retries,
    /// then engine fallback) and match the fault-free result set:
    /// a crashed stage never corrupts its concurrently-running
    /// sibling's output.
    #[test]
    fn chaos_diamond_preserves_sibling_outputs(seed in 0u64..1_000_000) {
        let mut d = Driver::in_memory();
        branch::load(&mut d, 600).unwrap();
        set_threads(&mut d, 4);
        let plan = branch::diamond_plan();
        let sorted = |r: QueryResult| {
            let mut lines = r.to_lines();
            lines.sort();
            lines
        };
        let clean = sorted(d.execute_raw_plan(&plan, EngineKind::DataMpi).unwrap());
        let c = d.conf_mut();
        c.set(keys::KEY_OBS_ENABLED, true);
        c.set(keys::KEY_FT_ENABLED, true);
        c.set(keys::KEY_FT_SEED, seed);
        c.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
        c.set(keys::KEY_FT_RECV_TIMEOUT_MS, 400);
        let chaotic = d
            .execute_raw_plan(&plan, EngineKind::DataMpi)
            .unwrap_or_else(|e| panic!("diamond failed under fault seed {seed}: {e}"));
        prop_assert_eq!(clean, sorted(chaotic), "diamond diverged under fault seed {}", seed);
    }

    /// Chaos × pipelining: fault injection over the fully-streamed deep
    /// chain. A crashed task's retry must *replay* its partition into
    /// the live stream (attempt-aware commit) — or the whole plan falls
    /// back — without the downstream consumer ever observing a mix of
    /// attempts. The clean arm runs pipelined too, so this is
    /// stream-replay vs stream, not stream vs files.
    #[test]
    fn chaos_deep_chain_replays_streamed_partitions(seed in 0u64..1_000_000) {
        let mut d = Driver::in_memory();
        branch::load_deep(&mut d, 300).unwrap();
        set_threads(&mut d, 4);
        let plan = branch::deep_chain_plan(3);
        let clean = normalize(&d.execute_raw_plan(&plan, EngineKind::DataMpi).unwrap());
        let c = d.conf_mut();
        c.set(keys::KEY_FT_ENABLED, true);
        c.set(keys::KEY_FT_SEED, seed);
        c.set(keys::KEY_FT_BACKOFF_BASE_MS, 1);
        c.set(keys::KEY_FT_RECV_TIMEOUT_MS, 400);
        let chaotic = d
            .execute_raw_plan(&plan, EngineKind::DataMpi)
            .unwrap_or_else(|e| panic!("deep chain failed under fault seed {seed}: {e}"));
        prop_assert_eq!(
            clean,
            normalize(&chaotic),
            "deep chain diverged under fault seed {}", seed
        );
    }
}
