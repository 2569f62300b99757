//! How many tasks a stage runs is measured, and the measurement must not
//! move a result or a volume: every TPC-H query on both engines, both
//! formats, with and without pipelining, returns the rows and moves the
//! per-split and per-partition volumes pinned in `task_shape.pins` — the
//! values a run with one map task per split and one reduce task per
//! partition measured. Then the task shapes themselves: a scanned input
//! runs as at most `2·W` map tasks, and a stage that shuffles under a
//! kilobyte runs one reduce task. Last, the engines on their own: the
//! ranges of partitions their reduce/A tasks run move no group, value
//! or volume.

use hdm_common::conf;
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{BytesComparator, KvPair};
use hdm_common::partition::HashPartitioner;
use hdm_core::{Driver, EngineKind, QueryResult};
use hdm_datampi::{run_bipartite, AContext, DataMpiConfig, OContext};
use hdm_faults::{FaultPlan, RecoveryPolicy, Site};
use hdm_mapred::{run_mapreduce, MapContext, MapRedConfig, ReduceContext};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;
use proptest::prelude::*;
use std::fmt::Write;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// FNV-1a, 64 bits: a digest that does not depend on the toolchain.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every volume of every stage that a run determines. A map-side join's
/// build table is read by whichever task gets to it first, so only the
/// stage's input bytes are pinned, not each split's; and DataMPI's
/// per-link bytes carry the `DONE` of whichever O task ended last, so
/// for that engine only the per-partition totals are.
fn volumes_text(result: &QueryResult, engine: EngineKind) -> String {
    let mut out = String::new();
    for (i, stage) in result.stages.iter().enumerate() {
        let v = &stage.volumes;
        let maps: Vec<(u64, u64, String)> = v
            .maps
            .iter()
            .map(|m| (m.records, m.spill_bytes, format!("{:.6}", m.local_fraction)))
            .collect();
        let input = v.total_input_bytes();
        writeln!(out, "stage {i} input {input} maps {maps:?}").unwrap();
        if engine == EngineKind::Hadoop {
            let links: Vec<&Vec<u64>> = v.maps.iter().map(|m| &m.shuffle_bytes_per_dst).collect();
            writeln!(out, "stage {i} links {links:?}").unwrap();
        }
        let reduces: Vec<(u64, u64, u64, String)> = v
            .reduces
            .iter()
            .map(|r| {
                let spilled = format!("{:.6}", r.spilled_fraction);
                (r.shuffle_bytes(), r.records, r.output_bytes, spilled)
            })
            .collect();
        writeln!(out, "stage {i} reduces {reduces:?}").unwrap();
    }
    out
}

fn driver(format: FormatKind) -> Driver {
    let mut d = Driver::in_memory();
    tpch::load(&mut d, 0.002, 20150701, format).expect("load tpch");
    d
}

fn format_name(format: FormatKind) -> &'static str {
    match format {
        FormatKind::Text => "text",
        _ => "orc",
    }
}

/// A stage that shuffles less than this runs one reduce/A task.
const SMALL_SHUFFLE: u64 = 1 << 10;

/// Run TPC-H query `n`, checking the reduce side's task count: a stage
/// that shuffled under a kilobyte ran one reduce/A task.
fn run_checked(d: &mut Driver, n: usize, engine: EngineKind) -> QueryResult {
    let r = d
        .execute_on(tpch::queries::query(n), engine)
        .unwrap_or_else(|e| panic!("q{n} on {engine:?}: {e}"));
    for (i, stage) in r.stages.iter().enumerate() {
        let shuffled = stage.volumes.total_shuffle_bytes();
        if shuffled < SMALL_SHUFFLE {
            let tasks = stage.reduce_tasks;
            assert!(
                tasks <= 1,
                "q{n} {engine:?} stage {i}: {shuffled} B on {tasks} tasks"
            );
        }
    }
    r
}

/// `q{n} {engine} {format} {pipelined} rows={digest} volumes={digest}`,
/// one line per run, in a fixed order.
fn shapes() -> String {
    let mut out = String::new();
    for format in [FormatKind::Text, FormatKind::Orc] {
        let mut d = driver(format);
        for pipelined in [true, false] {
            d.conf_mut().set(conf::KEY_EXEC_PIPELINED, pipelined);
            for n in tpch::queries::all() {
                for engine in [EngineKind::Hadoop, EngineKind::DataMpi] {
                    let r = run_checked(&mut d, n, engine);
                    let rows = fnv(&r.to_lines().join("\n"));
                    let volumes = volumes_text(&r, engine);
                    if std::env::var_os("TASK_SHAPE_PRINT").is_some() {
                        eprintln!("q{n} {} {pipelined}\n{volumes}", engine.name());
                    }
                    writeln!(
                        out,
                        "q{n} {} {} {} rows={rows:016x} volumes={:016x}",
                        engine.name(),
                        format_name(format),
                        if pipelined { "pipelined" } else { "staged" },
                        fnv(&volumes),
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// What one task per split and one reduce task per partition returned
/// and moved.
const PINNED: &str = include_str!("task_shape.pins");

#[test]
fn rows_and_volumes_are_those_of_one_task_per_split_and_partition() {
    let got = shapes();
    if std::env::var_os("TASK_SHAPE_PRINT").is_some() {
        print!("{got}");
    }
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), PINNED.lines().collect());
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
}

/// The inputs of every stage of TPC-H query `n`, as the driver plans
/// it: `None` for a table, else the id of the stage whose output it is.
fn stage_inputs(d: &Driver, n: usize) -> Vec<Vec<Option<usize>>> {
    let stmts = hdm_core::parser::parse_script(tpch::queries::query(n)).expect("parse");
    let Some(hdm_core::ast::Statement::Select(q)) = stmts.last() else {
        return Vec::new();
    };
    let qb = hdm_core::logical::analyze(q, d.metastore()).expect("analyze");
    let plan = hdm_core::physical::plan_select(&qb, hdm_core::physical::StageOutput::Collect)
        .expect("plan");
    let source = |input: &hdm_core::physical::MapInput| match &input.source {
        hdm_core::physical::InputSource::Table(_) => None,
        hdm_core::physical::InputSource::Stage(id) => Some(*id),
    };
    let inputs = |s: &hdm_core::physical::StagePlan| s.inputs.iter().map(source).collect();
    plan.stages.iter().map(inputs).collect()
}

/// With two threads a scanned input runs as at most four map tasks (a
/// streamed one as its producer's reduce tasks) — and the rows and
/// volumes are still those of one task per split.
#[test]
fn a_narrow_runner_groups_every_input_into_two_w_tasks_and_moves_nothing() {
    const W: usize = 2;
    let mut d = driver(FormatKind::Text);
    d.conf_mut().set(conf::KEY_LOCAL_THREADS, W);
    let pinned: Vec<&str> = PINNED
        .lines()
        .filter(|l| l.contains(" text pipelined "))
        .collect();
    let mut grouped = 0;
    for (i, n) in tpch::queries::all().enumerate() {
        for (j, engine) in [EngineKind::Hadoop, EngineKind::DataMpi]
            .into_iter()
            .enumerate()
        {
            let r = run_checked(&mut d, n, engine);
            // Planned after the run: a script's SELECT may read tables
            // its earlier statements create.
            let inputs = stage_inputs(&d, n);
            let line = format!(
                "q{n} {} text pipelined rows={:016x} volumes={:016x}",
                engine.name(),
                fnv(&r.to_lines().join("\n")),
                fnv(&volumes_text(&r, engine)),
            );
            assert_eq!(Some(&line.as_str()), pinned.get(2 * i + j));
            // The final statement's stages, when it is the planned SELECT.
            if inputs.len() == r.stages.len() {
                for (stage, sources) in r.stages.iter().zip(&inputs) {
                    let producer = |id: usize| r.stages.get(id).map_or(0, |p| p.reduce_tasks);
                    let bound: usize = (sources.iter())
                        .map(|s| s.map_or(2 * W, |id| producer(id).max(2 * W)))
                        .sum();
                    let tasks = stage.map_tasks;
                    assert!(tasks <= bound.max(1), "q{n} {engine:?}: {tasks} > {bound}");
                    grouped += usize::from(tasks < stage.volumes.maps.len());
                }
            }
        }
    }
    assert!(grouped > 0, "no stage read more units than it ran tasks");
}

/// The serving workload's inserts: parts no line item refers to. They
/// move bytes — a new part file, a table whose size is no longer on
/// record — but must not move Q14's result by a bit.
#[test]
fn inserts_that_join_nothing_leave_q14_bit_identical() {
    let mut d = driver(FormatKind::Orc);
    for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
        let before = run_checked(&mut d, 14, engine).to_lines();
        for key in 0..3 {
            let sql = format!(
                "INSERT INTO part VALUES ({}, 'insert', 'Manufacturer#1', 'Brand#11', \
                 'PROMO BRUSHED TIN', 1, 'SM BOX', 1.0, 'insert')",
                90_000_000 + key + 10 * engine as usize
            );
            d.execute(&sql).expect("insert");
            assert_eq!(
                run_checked(&mut d, 14, engine).to_lines(),
                before,
                "{engine:?}"
            );
        }
    }
}

/// One map/O task's pairs: a key of one or two bytes, and a value that
/// names its task and position, so the order values reach a group in is
/// visible.
type Pairs = Vec<Vec<u8>>;

fn tasks() -> impl Strategy<Value = Vec<Pairs>> {
    let key = proptest::collection::vec(any::<u8>(), 1..3);
    proptest::collection::vec(proptest::collection::vec(key, 0..40), 1..6)
}

/// A partition's groups, copied out: `(key, values)`.
type Groups = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

/// Per partition: its groups, records and bytes received.
type PerPartition = Vec<(Groups, u64, u64)>;

/// A seed under which no message of a small job is dropped and no task
/// crashes on every attempt: its injected crashes are all recovered.
fn recoverable_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        (0..100_000u64)
            .find(|&s| {
                let p = FaultPlan::with_seed(s);
                let sites = [Site::OTask, Site::ATask, Site::MapTask, Site::ReduceTask];
                let exhausted = |site, r| (0..3).all(|a| p.would_crash(site, r, a));
                (0..16).all(|r| sites.iter().all(|&site| !exhausted(site, r)))
                    && (0..16).all(|r| (0..256).all(|q| !p.should_drop(Site::MpiSend, r, q)))
            })
            .expect("a recoverable seed")
    })
}

fn faults(ft: bool) -> FaultPlan {
    if ft {
        FaultPlan::with_seed(recoverable_seed())
    } else {
        FaultPlan::disabled()
    }
}

fn recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        backoff_base: Duration::from_millis(1),
        ..RecoveryPolicy::default()
    }
}

/// A partition's groups, as the A function saw them.
fn drain_a(ctx: &mut AContext) -> Groups {
    let mut groups = Vec::new();
    while let Some((key, values)) = ctx.next_group() {
        groups.push((key.to_vec(), values.iter().map(<[u8]>::to_vec).collect()));
    }
    groups
}

/// A partition's groups, as the reduce function saw them.
fn drain_r(ctx: &mut ReduceContext) -> Groups {
    let mut groups = Vec::new();
    while let Some((key, values)) = ctx.next_group() {
        groups.push((key.to_vec(), values.iter().map(<[u8]>::to_vec).collect()));
    }
    groups
}

/// The pairs of O/map task `rank`: value `[rank, i]` for its `i`-th.
fn emit(data: &[Pairs], rank: usize, mut send: impl FnMut(KvPair) -> Result<()>) -> Result<()> {
    for (i, key) in data.get(rank).into_iter().flatten().enumerate() {
        send(KvPair::new(key.clone(), vec![rank as u8, i as u8]))?;
    }
    Ok(())
}

/// A DataMPI job over `data` into `partitions`; its per-partition
/// outcome and the A tasks' ranges.
fn bipartite(
    data: &Arc<Vec<Pairs>>,
    partitions: usize,
    spl: usize,
    ft: bool,
    per_task: Option<u64>,
) -> (PerPartition, Vec<std::ops::Range<usize>>) {
    let config = DataMpiConfig {
        o_tasks: data.len(),
        a_tasks: partitions,
        bytes_per_a_task: per_task,
        o_slots: 2,
        send_partition_bytes: spl,
        faults: faults(ft),
        recovery: recovery(),
        ..DataMpiConfig::default()
    };
    let o_data = Arc::clone(data);
    let outcome = run_bipartite(
        &config,
        Arc::new(BytesComparator),
        Arc::new(HashPartitioner),
        Arc::new(move |rank, ctx: &mut OContext| emit(&o_data, rank, |kv| ctx.send(kv))),
        Arc::new(|_, ctx: &mut AContext| Ok(drain_a(ctx))),
    )
    .expect("job");
    let stats = outcome.report.a_tasks.iter();
    let per = (outcome.a_results.into_iter().zip(stats))
        .map(|(groups, s)| (groups, s.records, s.bytes))
        .collect();
    (per, outcome.report.a_ranges)
}

/// A MapReduce job over `data` into `partitions`.
fn mapreduce(
    data: &Arc<Vec<Pairs>>,
    partitions: usize,
    buffer: usize,
    ft: bool,
    per_task: Option<u64>,
) -> (PerPartition, Vec<std::ops::Range<usize>>) {
    let config = MapRedConfig {
        map_tasks: data.len(),
        reduce_tasks: partitions,
        bytes_per_reduce_task: per_task,
        sort_buffer_bytes: buffer,
        concurrency: 2,
        faults: faults(ft),
        recovery: recovery(),
        ..MapRedConfig::default()
    };
    let m_data = Arc::clone(data);
    let outcome = run_mapreduce(
        &config,
        Arc::new(BytesComparator),
        Arc::new(HashPartitioner),
        Arc::new(move |rank, ctx: &mut MapContext| emit(&m_data, rank, |kv| ctx.collect(kv))),
        Arc::new(|_, ctx: &mut ReduceContext| Ok(drain_r(ctx))),
    )
    .expect("job");
    let stats = outcome.report.reduce_tasks.iter();
    let per = (outcome.reduce_results.into_iter().zip(stats))
        .map(|(groups, s)| (groups, s.records, s.shuffled_bytes()))
        .collect();
    (per, outcome.report.reduce_ranges)
}

/// Partitions some pair was routed to.
fn non_empty(per: &PerPartition) -> usize {
    per.iter().filter(|(_, records, _)| *records > 0).count()
}

proptest! {
    /// One A task per non-empty partition, one A task for everything,
    /// and one per partition fixed up front: the same groups, values in
    /// the same order, and the same records and bytes per partition —
    /// with fault tolerance's aborts and replays, and whether the
    /// partitions fill (one A task per partition) or stay held until
    /// the last O task ends (measured ranges).
    #[test]
    fn datampi_ranges_move_no_group_value_or_volume(
        data in tasks(),
        partitions in 1usize..8,
        spl in prop_oneof![Just(48usize), Just(1usize << 20)],
        ft in any::<bool>(),
    ) {
        let data = Arc::new(data);
        let (fixed, fixed_ranges) = bipartite(&data, partitions, spl, ft, None);
        let (one, one_ranges) = bipartite(&data, partitions, spl, ft, Some(1));
        let (all, all_ranges) = bipartite(&data, partitions, spl, ft, Some(u64::MAX));
        prop_assert_eq!(&one, &fixed);
        prop_assert_eq!(&all, &fixed);
        prop_assert_eq!(fixed_ranges.len(), partitions);
        if spl > 1 << 16 {
            // Nothing fills: the ranges are cut from the held bytes.
            prop_assert_eq!(one_ranges.len(), non_empty(&fixed).max(1));
            prop_assert_eq!(all_ranges.len(), 1);
        }
    }

    /// The same for Hadoop's reducers, whose ranges are cut once the
    /// maps are done, over sort buffers that spill or do not.
    #[test]
    fn mapreduce_ranges_move_no_group_value_or_volume(
        data in tasks(),
        partitions in 1usize..8,
        buffer in prop_oneof![Just(32usize), Just(1usize << 20)],
        ft in any::<bool>(),
    ) {
        let data = Arc::new(data);
        let (fixed, fixed_ranges) = mapreduce(&data, partitions, buffer, ft, None);
        let (one, one_ranges) = mapreduce(&data, partitions, buffer, ft, Some(1));
        let (all, all_ranges) = mapreduce(&data, partitions, buffer, ft, Some(u64::MAX));
        prop_assert_eq!(&one, &fixed);
        prop_assert_eq!(&all, &fixed);
        prop_assert_eq!(fixed_ranges.len(), partitions);
        prop_assert_eq!(one_ranges.len(), non_empty(&fixed).max(1));
        prop_assert_eq!(all_ranges.len(), 1);
    }
}

/// A cancel that fires while the O tasks' outputs are held (nothing has
/// filled a send partition, so no A task exists yet) ends the job as
/// cancelled, without a hang, on both shuffle styles.
#[test]
fn a_cancel_while_outputs_are_held_ends_the_job() {
    for style in [
        hdm_datampi::ShuffleStyle::NonBlocking,
        hdm_datampi::ShuffleStyle::Blocking,
    ] {
        let cancel = hdm_common::CancelToken::new();
        let config = DataMpiConfig {
            o_tasks: 6,
            a_tasks: 4,
            bytes_per_a_task: Some(1),
            o_slots: 1,
            shuffle_style: style,
            send_partition_bytes: 1 << 20,
            cancel: cancel.clone(),
            ..DataMpiConfig::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let job = std::thread::spawn(move || {
            let outcome = run_bipartite::<(), ()>(
                &config,
                Arc::new(BytesComparator),
                Arc::new(HashPartitioner),
                Arc::new(move |rank, ctx: &mut OContext| {
                    for i in 0..8u8 {
                        if rank == 3 && i == 4 {
                            cancel.cancel("cancelled while outputs are held");
                        }
                        ctx.send(KvPair::new(vec![rank as u8, i], vec![1]))?;
                    }
                    Ok(())
                }),
                Arc::new(|_, _| Ok(())),
            );
            tx.send(outcome.map(|_| ())).expect("test alive");
        });
        let err = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the job hung")
            .expect_err("cancelled");
        job.join().expect("job thread");
        assert!(err.is_cancelled(), "{style:?}: {err}");
    }
}

/// A job whose O function fails while its output is held still ends on
/// the wire: the error surfaces, and nothing waits for an A task.
#[test]
fn a_failed_task_while_outputs_are_held_is_an_error_not_a_hang() {
    let config = DataMpiConfig {
        o_tasks: 5,
        a_tasks: 3,
        bytes_per_a_task: Some(1 << 10),
        o_slots: 2,
        send_partition_bytes: 1 << 20,
        ..DataMpiConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = run_bipartite::<(), ()>(
            &config,
            Arc::new(BytesComparator),
            Arc::new(HashPartitioner),
            Arc::new(|rank, ctx: &mut OContext| {
                ctx.send(KvPair::new(vec![rank as u8], vec![1]))?;
                if rank == 2 {
                    return Err(HdmError::Other("O2 fails".into()));
                }
                Ok(())
            }),
            Arc::new(|_, _| Ok(())),
        );
        tx.send(outcome.map(|_| ())).expect("test alive");
    });
    let err = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the job hung")
        .expect_err("failed");
    assert!(err.message().contains("O2 fails"), "{err}");
}
