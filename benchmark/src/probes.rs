//! Layer probes: repeated calls into one layer's public API over data
//! the workloads use, timed from outside.
//!
//! Every probe runs [`REPS`] repetitions of "call until the slice is
//! used up" and reports the median rate. The inputs are real: TPC-H
//! `lineitem`/`orders` and HiBench `uservisits` loaded into a private
//! in-memory cluster, the expressions of Q1/Q6/Q12 as the planner
//! compiles them, and the shuffle pairs of the `repartition` statement
//! rebuilt with the engine's own public map-side operators.

use crate::spec::TPCH_SCALE;
use crate::workloads::{hibench_config, REPARTITION_SQL};
use bytes::Bytes;
use hdm_common::conf::JobConf;
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{BytesComparator, ComparatorRef, KvPair};
use hdm_common::partition::{HashPartitioner, Partitioner, PartitionerRef};
use hdm_common::row::{Row, Schema};
use hdm_common::sortkey;
use hdm_common::value::Value;
use hdm_core::ast::Statement;
use hdm_core::batch::{filter_batch, project_batch, GroupTable, RowBatch};
use hdm_core::logical::analyze;
use hdm_core::operators::{process_join_group, project_row, Aggregator};
use hdm_core::optimizer::optimize_stage;
use hdm_core::parser::parse_script;
use hdm_core::physical::{plan_select, MapInput, QueryPlan, StageKind, StageOutput};
use hdm_core::sched::run_dag_pipelined;
use hdm_core::stream::StreamedIntermediate;
use hdm_core::{Driver, EngineKind};
use hdm_datampi::buffer::{SendPartition, SendPartitionList};
use hdm_datampi::{run_bipartite, DataMpiConfig};
use hdm_dfs::{FileSplit, NodeId};
use hdm_mapred::{run_mapreduce, MapRedConfig};
use hdm_mpi::{Tag, World, WorldConfig};
use hdm_server::AdmissionGate;
use hdm_storage::seq::{self, SeqWriter};
use hdm_storage::{format_for, FileFormat};
use hdm_workloads::{hibench, tpch};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;
/// Timed probes (some report a second, derived metric).
const PROBES: u32 = 31;
/// Shortest repetition, however little time is left.
const MIN_SLICE: Duration = Duration::from_millis(1);

/// Median over [`REPS`] repetitions of units of work per second, where
/// one repetition calls `call` (which returns the units it did) until
/// `slice` has passed.
fn rate(slice: Duration, mut call: impl FnMut() -> Result<f64>) -> Result<f64> {
    let mut rates = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let mut units = 0.0;
        loop {
            units += call()?;
            if start.elapsed() >= slice {
                break;
            }
        }
        rates.push(units / start.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&rates))
}

/// Microseconds per unit, from a rate in units per second.
fn us_per(rate_per_s: f64) -> f64 {
    1e6 / rate_per_s
}

/// Compile a lone `SELECT` the way the driver does.
fn plan(driver: &Driver, sql: &str) -> Result<QueryPlan> {
    let mut stmts = parse_script(sql)?;
    let Some(Statement::Select(query)) = stmts.pop() else {
        return Err(HdmError::Plan(format!(
            "probe query is not a SELECT: {sql}"
        )));
    };
    let qb = analyze(&query, driver.metastore())?;
    let mut plan = plan_select(&qb, StageOutput::Collect)?;
    plan.stages.iter_mut().for_each(optimize_stage);
    Ok(plan)
}

fn first_input(plan: &QueryPlan) -> Result<&MapInput> {
    plan.stages
        .first()
        .and_then(|s| s.inputs.first())
        .ok_or_else(|| HdmError::Plan("probe plan has no input".into()))
}

/// One table of the fixture, as the scan path sees it.
struct Scan {
    format: Box<dyn FileFormat>,
    schema: Schema,
    paths: Vec<String>,
}

impl Scan {
    fn of(driver: &Driver, table: &str) -> Result<Scan> {
        let meta = driver.metastore().table(table)?;
        Ok(Scan {
            format: format_for(meta.format),
            paths: driver.metastore().storage.parts(driver.dfs(), table),
            schema: meta.schema,
        })
    }

    fn splits(&self, driver: &Driver, input: Option<&MapInput>) -> Result<Vec<FileSplit>> {
        let preds = input.map_or(&[][..], |i| i.pushdown.as_slice());
        let mut splits = Vec::new();
        for path in &self.paths {
            splits.extend(self.format.plan_splits(driver.dfs(), path, preds)?.splits);
        }
        Ok(splits)
    }

    /// Read every split row-wise with `input`'s projection and pushdown.
    fn read_rows(&self, driver: &Driver, input: Option<&MapInput>) -> Result<(Vec<Row>, u64)> {
        let preds = input.map_or(&[][..], |i| i.pushdown.as_slice());
        let projection = input.and_then(|i| i.read_projection.as_deref());
        let (mut rows, mut bytes) = (Vec::new(), 0);
        for split in self.splits(driver, input)? {
            let node = split.hosts.first().copied();
            let src = self.format.read_split(
                driver.dfs(),
                &split,
                &self.schema,
                projection,
                preds,
                node,
            )?;
            bytes += src.bytes_read;
            rows.extend(src.rows);
        }
        Ok((rows, bytes))
    }
}

/// The probes' private data: a fresh in-memory cluster holding
/// `lineitem` (ORC, clustered by ship date like the workloads'),
/// `orders` (ORC), `lineitem_text` and the HiBench tables (Text).
pub struct Fixture {
    driver: Driver,
    lineitem: Vec<Row>,
    uservisits: Vec<Row>,
}

impl Fixture {
    pub fn build(seed: u64) -> Result<Fixture> {
        let mut driver = Driver::in_memory();
        let mut generated = tpch::dbgen::generate(TPCH_SCALE, seed);
        let mut lineitem = generated.remove("lineitem").unwrap_or_default();
        lineitem.sort_by(|a, b| a.get(10).total_cmp(b.get(10)));
        let orders = generated.remove("orders").unwrap_or_default();
        hibench::load(&mut driver, &hibench_config(seed))?;
        let uservisits = hibench::generate_uservisits(&hibench_config(seed));
        let ddl = |table: &str, like: &str, stored: &str| {
            let cols: Vec<String> = tpch::schema_of(like)
                .into_iter()
                .map(|(n, t)| format!("{n} {t}"))
                .collect();
            format!(
                "CREATE TABLE {table} ({}) STORED AS {stored}",
                cols.join(", ")
            )
        };
        driver.execute(&ddl("lineitem", "lineitem", "ORC"))?;
        driver.execute(&ddl("lineitem_text", "lineitem", "TEXTFILE"))?;
        driver.execute(&ddl("orders", "orders", "ORC"))?;
        driver.load_rows("lineitem", &lineitem)?;
        driver.load_rows("lineitem_text", &lineitem)?;
        driver.load_rows("orders", &orders)?;
        Ok(Fixture {
            driver,
            lineitem,
            uservisits,
        })
    }
}

/// The shuffle input of the `repartition` statement's aggregate stage,
/// per map task: what each O/map task hands its collector. Rebuilt from
/// outside with the engine's public operators — row filter and
/// projection, map-side hash aggregation, sort-key encoding — because
/// the collector itself cannot be tapped from here.
struct RecordedShuffle {
    /// `pairs[task]`, in emit order.
    pairs: Vec<Vec<KvPair>>,
    /// The key rows behind the pairs, for the sort-key probes.
    keys: Vec<Row>,
    /// Task counts the real statement ran with.
    o_tasks: usize,
    a_tasks: usize,
}

impl RecordedShuffle {
    fn record(fx: &Fixture) -> Result<RecordedShuffle> {
        let driver = &fx.driver;
        let plan = plan(driver, REPARTITION_SQL)?;
        let stage = plan
            .stages
            .first()
            .ok_or_else(|| HdmError::Plan("repartition plan is empty".into()))?;
        let StageKind::Aggregate { aggs, .. } = &stage.kind else {
            return Err(HdmError::Plan(
                "repartition stage 0 is not an aggregate".into(),
            ));
        };
        let agg = Aggregator::new(aggs.clone());
        let input = first_input(&plan)?;
        let scan = Scan::of(driver, "uservisits")?;
        let (mut pairs, mut keys) = (Vec::new(), Vec::new());
        for split in scan.splits(driver, Some(input))? {
            let src = scan.format.read_split(
                driver.dfs(),
                &split,
                &scan.schema,
                input.read_projection.as_deref(),
                &input.pushdown,
                None,
            )?;
            let mut table = GroupTable::new();
            for row in &src.rows {
                if let Some(f) = &input.filter {
                    if !f.eval_predicate(row)? {
                        continue;
                    }
                }
                let key = project_row(&input.key_exprs, row)?;
                table.update_row(&agg, key, &project_row(&input.value_exprs, row)?);
            }
            let mut task = Vec::new();
            for (key, states) in table.into_groups() {
                let value = agg.states_to_row(&states);
                let mut vb = Vec::with_capacity(value.wire_size() + 4);
                value.encode(&mut vb);
                task.push(KvPair::new(sortkey::encode_row(&key), vb));
                keys.push(key);
            }
            pairs.push(task);
        }
        // The task counts of the statement itself, from one real run.
        let real = driver.execute_on(REPARTITION_SQL, EngineKind::DataMpi)?;
        let first = real
            .stages
            .first()
            .ok_or_else(|| HdmError::Plan("repartition ran no stage".into()))?;
        Ok(RecordedShuffle {
            o_tasks: first.map_tasks.max(1),
            a_tasks: first.reduce_tasks.max(1),
            pairs,
            keys,
        })
    }

    fn total_pairs(&self) -> usize {
        self.pairs.iter().map(Vec::len).sum()
    }

    fn wire_bytes(&self) -> u64 {
        self.pairs
            .iter()
            .flatten()
            .map(|kv| kv.wire_size() as u64)
            .sum()
    }
}

/// Run every probe within about `budget`: building the inputs counts
/// against it, and four fifths of what is left is split evenly over the
/// repetitions (a repetition ends with a whole call, so it overshoots).
/// Returns `(metric name, value)` for every probe metric of the manifest.
pub fn run_all(seed: u64, budget: Duration) -> Result<Vec<(&'static str, f64)>> {
    let start = Instant::now();
    let fx = Fixture::build(seed)?;
    let shuffle = RecordedShuffle::record(&fx)?;
    let left = budget.saturating_sub(start.elapsed()).mul_f64(0.8);
    let slice = (left / (PROBES * REPS as u32)).max(MIN_SLICE);
    let mut out = Vec::new();
    storage_probes(&fx, &shuffle, slice, &mut out)?;
    operator_probes(&fx, slice, &mut out)?;
    shuffle_probes(&shuffle, slice, &mut out)?;
    control_probes(slice, &mut out)?;
    Ok(out)
}

type Out = Vec<(&'static str, f64)>;
const MB: f64 = 1e6;

fn storage_probes(
    fx: &Fixture,
    shuffle: &RecordedShuffle,
    slice: Duration,
    out: &mut Out,
) -> Result<()> {
    let driver = &fx.driver;
    let dfs = driver.dfs();
    let orc = Scan::of(driver, "lineitem")?;
    let text = Scan::of(driver, "lineitem_text")?;
    let visits = Scan::of(driver, "uservisits")?;

    // Split planning with Q6's pushed-down predicates.
    let q6 = plan(driver, tpch::queries::query(6))?;
    let q6_in = first_input(&q6)?;
    let mut pruned_rows = 0;
    let calls = rate(slice, || {
        pruned_rows = 0;
        for path in &orc.paths {
            pruned_rows +=
                black_box(orc.format.plan_splits(dfs, path, &q6_in.pushdown)?).pruned_rows;
        }
        Ok(1.0)
    })?;
    out.push(("storage.orc.plan_splits_us", us_per(calls)));
    // Stripes hold equal row counts, so the pruned-row share is the
    // pruned-stripe share.
    out.push((
        "storage.orc.pruned_stripe_share",
        pruned_rows as f64 / fx.lineitem.len().max(1) as f64,
    ));

    // ORC reads with Q1's projection, columnar and row-wise.
    let q1 = plan(driver, tpch::queries::query(1))?;
    let q1_in = first_input(&q1)?;
    let splits = orc.splits(driver, Some(q1_in))?;
    let projection = q1_in.read_projection.as_deref();
    let bytes = rate(slice, || {
        let mut bytes = 0;
        for split in &splits {
            let node = split.hosts.first().copied();
            let src = orc
                .format
                .read_split_columns(dfs, split, &orc.schema, projection, &q1_in.pushdown, node)?
                .ok_or_else(|| HdmError::Storage("ORC gave no columnar read".into()))?;
            bytes += black_box(src).bytes_read;
        }
        Ok(bytes as f64)
    })?;
    out.push(("storage.orc.read_columns_mb_s", bytes / MB));
    let bytes = rate(slice, || {
        Ok(black_box(orc.read_rows(driver, Some(q1_in))?).1 as f64)
    })?;
    out.push(("storage.orc.read_rows_mb_s", bytes / MB));

    // Writes: a sink over a third of the rows (the delete that makes the
    // path free again is a map removal).
    let write = |format: &dyn FileFormat, schema: &Schema, rows: &[Row]| -> Result<f64> {
        let path = "/probe/write/part-00000";
        let mut sink = format.create(dfs, path, schema, NodeId(0))?;
        for row in rows {
            sink.write_row(row)?;
        }
        let written = sink.close()?;
        dfs.delete(path);
        Ok(written as f64)
    };
    let third = &fx.lineitem[..fx.lineitem.len() / 3];
    let bytes = rate(slice, || write(orc.format.as_ref(), &orc.schema, third))?;
    out.push(("storage.orc.write_mb_s", bytes / MB));

    // Text: lineitem and uservisits, read whole and written in part.
    let bytes = rate(slice, || {
        let a = black_box(text.read_rows(driver, None)?).1;
        let b = black_box(visits.read_rows(driver, None)?).1;
        Ok((a + b) as f64)
    })?;
    out.push(("storage.text.read_rows_mb_s", bytes / MB));
    let visits_third = &fx.uservisits[..fx.uservisits.len() / 3];
    let bytes = rate(slice, || {
        Ok(write(text.format.as_ref(), &text.schema, third)?
            + write(visits.format.as_ref(), &visits.schema, visits_third)?)
    })?;
    out.push(("storage.text.write_mb_s", bytes / MB));

    // Sequence files (the file intermediates) over the recorded pairs.
    let seq_path = "/probe/seq/part-00000";
    let bytes = rate(slice, || {
        dfs.delete(seq_path);
        let mut w = SeqWriter::create(dfs, seq_path, NodeId(0))?;
        for kv in shuffle.pairs.iter().flatten() {
            w.append(kv)?;
        }
        Ok(w.close()? as f64)
    })?;
    out.push(("storage.seq.write_mb_s", bytes / MB));
    let seq_len = dfs.len(seq_path)? as f64;
    let bytes = rate(slice, || {
        black_box(seq::read_all(dfs, seq_path)?);
        Ok(seq_len)
    })?;
    out.push(("storage.seq.read_mb_s", bytes / MB));

    // The filesystem under all of them, in 64 KB pieces.
    const PIECE: u64 = 64 * 1024;
    let file = orc
        .paths
        .first()
        .ok_or_else(|| HdmError::Storage("lineitem has no part file".into()))?;
    let len = dfs.len(file)?;
    let bytes = rate(slice, || {
        let mut offset = 0;
        while offset < len {
            let n = PIECE.min(len - offset);
            black_box(dfs.read_range(file, offset, n, None)?);
            offset += n;
        }
        Ok(len as f64)
    })?;
    out.push(("dfs.read_range_mb_s", bytes / MB));
    let piece = vec![0x5au8; PIECE as usize];
    let bytes = rate(slice, || {
        let path = "/probe/dfs/blob";
        let mut w = dfs.create(path, NodeId(0))?;
        for _ in 0..16 {
            w.write(&piece)?;
        }
        w.close()?;
        dfs.delete(path);
        Ok(16.0 * PIECE as f64)
    })?;
    out.push(("dfs.write_mb_s", bytes / MB));
    Ok(())
}

/// The columns of one decoded stripe set, for the batch kernels.
fn decode_columns(fx: &Fixture, input: &MapInput) -> Result<Vec<Vec<Vec<Value>>>> {
    let driver = &fx.driver;
    let scan = Scan::of(driver, "lineitem")?;
    let mut stripes = Vec::new();
    // No pushdown: the kernels should see every row.
    for split in scan.splits(driver, None)? {
        let src = scan
            .format
            .read_split_columns(
                driver.dfs(),
                &split,
                &scan.schema,
                input.read_projection.as_deref(),
                &[],
                None,
            )?
            .ok_or_else(|| HdmError::Storage("ORC gave no columnar read".into()))?;
        stripes.extend(src.stripes.into_iter().map(|s| s.columns));
    }
    Ok(stripes)
}

/// Call `f` on every batch of every stripe; returns rows visited.
fn for_each_batch(
    stripes: &[Vec<Vec<Value>>],
    batch_size: usize,
    mut f: impl FnMut(&RowBatch<'_>) -> Result<()>,
) -> Result<f64> {
    let mut rows = 0;
    for columns in stripes {
        let len = columns.first().map_or(0, Vec::len);
        let mut start = 0;
        while start < len {
            let end = (start + batch_size).min(len);
            let slices = columns.iter().map(|c| &c[start..end]).collect();
            f(&RowBatch::new(slices, end - start)?)?;
            rows += end - start;
            start = end;
        }
    }
    Ok(rows as f64)
}

fn operator_probes(fx: &Fixture, slice: Duration, out: &mut Out) -> Result<()> {
    const MROWS: f64 = 1e6;
    let driver = &fx.driver;
    let batch_size = JobConf::new().vectorized_batch_size()?;

    // Batch kernels: Q6's filter, Q1's projection and grouping.
    let q6 = plan(driver, tpch::queries::query(6))?;
    let q6_in = first_input(&q6)?;
    let q6_stripes = decode_columns(fx, q6_in)?;
    let rows = rate(slice, || {
        for_each_batch(&q6_stripes, batch_size, |rb| {
            black_box(filter_batch(q6_in.filter.as_ref(), rb)?);
            Ok(())
        })
    })?;
    out.push(("core.batch.filter_mrows_s", rows / MROWS));

    let q1 = plan(driver, tpch::queries::query(1))?;
    let q1_in = first_input(&q1)?;
    let StageKind::Aggregate { aggs, .. } = &q1.stages[0].kind else {
        return Err(HdmError::Plan("Q1 stage 0 is not an aggregate".into()));
    };
    let agg = Aggregator::new(aggs.clone());
    let q1_stripes = decode_columns(fx, q1_in)?;
    let rows = rate(slice, || {
        for_each_batch(&q1_stripes, batch_size, |rb| {
            let sel: Vec<usize> = (0..rb.rows()).collect();
            black_box(project_batch(&q1_in.value_exprs, rb, &sel)?);
            Ok(())
        })
    })?;
    out.push(("core.batch.project_mrows_s", rows / MROWS));

    // Grouping over pre-projected key and value columns.
    let mut projected = Vec::new();
    for_each_batch(&q1_stripes, batch_size, |rb| {
        let sel: Vec<usize> = (0..rb.rows()).collect();
        projected.push((
            project_batch(&q1_in.key_exprs, rb, &sel)?,
            project_batch(&q1_in.value_exprs, rb, &sel)?,
            sel.len(),
        ));
        Ok(())
    })?;
    let rows = rate(slice, || {
        let mut table = GroupTable::new();
        let mut rows = 0;
        for (keys, values, n) in &projected {
            table.update_batch(&agg, keys, values, *n);
            rows += n;
        }
        black_box(table.into_groups());
        Ok(rows as f64)
    })?;
    out.push(("core.batch.group_mrows_s", rows / MROWS));

    // The row-at-a-time path over the same rows.
    let scan = Scan::of(driver, "lineitem")?;
    let unpruned = |input: &MapInput| -> Result<Vec<Row>> {
        let mut all = input.clone();
        all.pushdown.clear();
        Ok(scan.read_rows(driver, Some(&all))?.0)
    };
    let q6_rows = unpruned(q6_in)?;
    let filter = q6_in
        .filter
        .as_ref()
        .ok_or_else(|| HdmError::Plan("Q6 has no residual filter".into()))?;
    let rows = rate(slice, || {
        let mut kept = 0;
        for row in &q6_rows {
            kept += usize::from(filter.eval_predicate(row)?);
        }
        black_box(kept);
        Ok(q6_rows.len() as f64)
    })?;
    out.push(("core.expr.row_filter_mrows_s", rows / MROWS));

    let q1_rows = unpruned(q1_in)?;
    let mut keyed = Vec::with_capacity(q1_rows.len());
    for row in &q1_rows {
        keyed.push((
            project_row(&q1_in.key_exprs, row)?,
            project_row(&q1_in.value_exprs, row)?,
        ));
    }
    let rows = rate(slice, || {
        let mut table = GroupTable::new();
        for (key, value) in &keyed {
            table.update_row(&agg, key.clone(), value);
        }
        black_box(table.into_groups());
        Ok(keyed.len() as f64)
    })?;
    out.push(("core.operators.row_group_mrows_s", rows / MROWS));

    // Q12's reduce-side join, one call per order key.
    let q12 = plan(driver, tpch::queries::query(12))?;
    let stage = &q12.stages[0];
    let StageKind::Join {
        kind,
        right_width,
        residual,
        project,
        ..
    } = &stage.kind
    else {
        return Err(HdmError::Plan("Q12 stage 0 is not a join".into()));
    };
    let mut groups: HashMap<Row, (Vec<Row>, Vec<Row>)> = HashMap::new();
    for input in &stage.inputs {
        let hdm_core::physical::InputSource::Table(table) = &input.source else {
            return Err(HdmError::Plan("Q12 join input is not a table".into()));
        };
        let mut all = input.clone();
        all.pushdown.clear();
        for row in Scan::of(driver, table)?.read_rows(driver, Some(&all))?.0 {
            if let Some(f) = &input.filter {
                if !f.eval_predicate(&row)? {
                    continue;
                }
            }
            let sides = groups
                .entry(project_row(&input.key_exprs, &row)?)
                .or_default();
            let value = project_row(&input.value_exprs, &row)?;
            if input.tag == 0 {
                sides.0.push(value);
            } else {
                sides.1.push(value);
            }
        }
    }
    let groups: Vec<(Vec<Row>, Vec<Row>)> = groups.into_values().collect();
    let group_rows: usize = groups.iter().map(|(l, r)| l.len() + r.len()).sum();
    let rows = rate(slice, || {
        let mut joined = Vec::new();
        for (lefts, rights) in &groups {
            process_join_group(
                *kind,
                *right_width,
                residual.as_ref(),
                project,
                lefts,
                rights,
                &mut joined,
            )?;
        }
        black_box(joined);
        Ok(group_rows as f64)
    })?;
    out.push(("core.operators.join_group_mrows_s", rows / MROWS));
    Ok(())
}

fn shuffle_probes(shuffle: &RecordedShuffle, slice: Duration, out: &mut Out) -> Result<()> {
    const MPAIRS: f64 = 1e6;
    let conf = JobConf::new();
    let n_pairs = shuffle.total_pairs() as f64;
    let wire_mb = shuffle.wire_bytes() as f64 / MB;
    let (o_tasks, a_tasks) = (shuffle.o_tasks, shuffle.a_tasks);
    let comparator: ComparatorRef = Arc::new(BytesComparator);
    let partitioner: PartitionerRef = Arc::new(HashPartitioner);

    // Sort-key codec over the recorded key rows.
    let mut buf = Vec::new();
    let keys = rate(slice, || {
        for key in &shuffle.keys {
            buf.clear();
            sortkey::encode_row_into(&mut buf, key, &[]);
            black_box(&buf);
        }
        Ok(shuffle.keys.len() as f64)
    })?;
    out.push(("common.sortkey.encode_mkeys_s", keys / MPAIRS));
    let encoded: Vec<Vec<u8>> = shuffle.keys.iter().map(sortkey::encode_row).collect();
    let keys = rate(slice, || {
        for key in &encoded {
            black_box(sortkey::decode_row(key)?);
        }
        Ok(encoded.len() as f64)
    })?;
    out.push(("common.sortkey.decode_mkeys_s", keys / MPAIRS));

    // SPL buffering at the engine's 16 KB partition size, then decode.
    const SPL_BYTES: usize = 16 << 10;
    let routed: Vec<(usize, &KvPair)> = shuffle
        .pairs
        .iter()
        .flatten()
        .map(|kv| (HashPartitioner.partition(&kv.key, a_tasks), kv))
        .collect();
    let mut payloads: Vec<Bytes> = Vec::new();
    let pairs = rate(slice, || {
        payloads.clear();
        let mut spl = SendPartitionList::new(a_tasks, SPL_BYTES);
        for (dst, kv) in &routed {
            payloads.extend(spl.push(*dst, kv)?);
        }
        payloads.extend(spl.flush().into_iter().map(|(_, p)| p));
        Ok(n_pairs)
    })?;
    out.push(("datampi.buffer.spl_push_mpairs_s", pairs / MPAIRS));
    let pairs = rate(slice, || {
        for payload in &payloads {
            black_box(SendPartition::decode_payload(payload)?);
        }
        Ok(n_pairs)
    })?;
    out.push(("datampi.buffer.decode_mpairs_s", pairs / MPAIRS));

    // Whole jobs at the statement's task counts, configured as
    // `core::engine` configures them from a default conf: empty (the
    // paper's "startup" bar), then replaying the recorded pairs.
    let per_task = Arc::new(shuffle.pairs.clone());
    let datampi = DataMpiConfig {
        o_tasks,
        a_tasks,
        send_partition_bytes: SPL_BYTES,
        send_queue_len: conf.send_queue_len()?,
        mem_budget_bytes: ((64u64 << 20) as f64 * conf.mem_used_percent()?) as usize,
        ..DataMpiConfig::default()
    };
    let drain_a = |_: usize, ctx: &mut hdm_datampi::AContext| {
        let mut groups = 0u64;
        while ctx.next_group().is_some() {
            groups += 1;
        }
        Ok(groups)
    };
    let bipartite = |send: bool| -> Result<f64> {
        let pairs = Arc::clone(&per_task);
        let outcome = run_bipartite(
            &datampi,
            Arc::clone(&comparator),
            Arc::clone(&partitioner),
            Arc::new(move |rank, ctx: &mut hdm_datampi::OContext| {
                for kv in pairs.get(rank).filter(|_| send).into_iter().flatten() {
                    ctx.send(kv.clone())?;
                }
                Ok(())
            }),
            Arc::new(drain_a),
        )?;
        black_box(outcome.a_results);
        Ok(1.0)
    };
    out.push((
        "datampi.job.startup_ms",
        us_per(rate(slice, || bipartite(false))?) / 1e3,
    ));
    out.push((
        "datampi.job.shuffle_mb_s",
        rate(slice, || bipartite(true))? * wire_mb,
    ));

    let mapred = MapRedConfig {
        map_tasks: o_tasks,
        reduce_tasks: a_tasks,
        sort_buffer_bytes: 1 << 20,
        concurrency: 8,
        ..MapRedConfig::default()
    };
    let drain_r = |_: usize, ctx: &mut hdm_mapred::ReduceContext| {
        let mut groups = 0u64;
        while ctx.next_group().is_some() {
            groups += 1;
        }
        Ok(groups)
    };
    let mapreduce = |send: bool| -> Result<f64> {
        let pairs = Arc::clone(&per_task);
        let outcome = run_mapreduce(
            &mapred,
            Arc::clone(&comparator),
            Arc::clone(&partitioner),
            Arc::new(move |rank, ctx: &mut hdm_mapred::MapContext| {
                for kv in pairs.get(rank).filter(|_| send).into_iter().flatten() {
                    ctx.collect(kv.clone())?;
                }
                Ok(())
            }),
            Arc::new(drain_r),
        )?;
        black_box(outcome.reduce_results);
        Ok(1.0)
    };
    out.push((
        "mapred.job.startup_ms",
        us_per(rate(slice, || mapreduce(false))?) / 1e3,
    ));
    out.push((
        "mapred.job.shuffle_mb_s",
        rate(slice, || mapreduce(true))? * wire_mb,
    ));

    // The map-side sort buffer and the reduce-side merge on their own.
    let sort = |pairs: &[(usize, &KvPair)]| {
        let mut buffer = hdm_mapred::sort::SortBuffer::new(1 << 20, Arc::clone(&comparator), None);
        for (dst, kv) in pairs {
            buffer.collect(*dst, (*kv).clone());
        }
        buffer.finish(a_tasks)
    };
    let pairs = rate(slice, || {
        black_box(sort(&routed));
        Ok(n_pairs)
    })?;
    out.push(("mapred.sort.sort_mpairs_s", pairs / MPAIRS));
    // Eight sorted runs, as eight map tasks would leave for one reducer.
    let runs: Vec<Vec<KvPair>> = routed
        .chunks(routed.len().div_ceil(8).max(1))
        .map(|chunk| sort(chunk).into_iter().flatten().collect())
        .collect();
    let pairs = rate(slice, || {
        black_box(hdm_mapred::sort::merge_sorted_runs(
            runs.clone(),
            &comparator,
        ));
        Ok(n_pairs)
    })?;
    out.push(("mapred.sort.merge_mpairs_s", pairs / MPAIRS));
    Ok(())
}

fn control_probes(slice: Duration, out: &mut Out) -> Result<()> {
    let conf = JobConf::new();

    // Two ranks: blocking round trips, then a window of non-blocking sends.
    const ROUND_TRIPS: usize = 2_000;
    let trips = rate(slice, || {
        let world = World::new(2, WorldConfig::default())?;
        let results = world.run(|mut ep| -> Result<()> {
            let peer = 1 - ep.rank();
            let ball = Bytes::from_static(b"ping");
            for _ in 0..ROUND_TRIPS {
                if ep.rank() == 0 {
                    ep.send(peer, Tag(1), ball.clone())?;
                    ep.recv(Some(peer), Some(Tag(1)))?;
                } else {
                    let m = ep.recv(Some(peer), Some(Tag(1)))?;
                    ep.send(peer, Tag(1), m.payload)?;
                }
            }
            Ok(())
        });
        results.into_iter().collect::<Result<Vec<()>>>()?;
        Ok(ROUND_TRIPS as f64)
    })?;
    out.push(("mpisim.pingpong_us", us_per(trips)));
    const WINDOW: usize = 256;
    const PAYLOAD: usize = 16 << 10;
    let bytes = rate(slice, || {
        let world = World::new(2, WorldConfig::default())?;
        let results = world.run(|mut ep| -> Result<()> {
            if ep.rank() == 0 {
                let payload = Bytes::from(vec![7u8; PAYLOAD]);
                let mut reqs = Vec::with_capacity(WINDOW);
                for _ in 0..WINDOW {
                    reqs.push(ep.isend(1, Tag(2), payload.clone())?);
                }
                ep.waitall(&mut reqs)?;
            } else {
                for _ in 0..WINDOW {
                    black_box(ep.recv(Some(0), Some(Tag(2)))?);
                }
            }
            Ok(())
        });
        results.into_iter().collect::<Result<Vec<()>>>()?;
        Ok((WINDOW * PAYLOAD) as f64)
    })?;
    out.push(("mpisim.isend_mb_s", bytes / MB));

    // The stage scheduler over a seven-stage chain of no-ops (Q9's
    // depth), at the default worker count.
    const CHAIN: usize = 7;
    let hard: Vec<Vec<usize>> = (0..CHAIN)
        .map(|i| i.checked_sub(1).into_iter().collect())
        .collect();
    let soft = vec![Vec::new(); CHAIN];
    let threads = conf.exec_parallel_threads()?;
    let obs = hdm_obs::ObsHandle::disabled();
    let cancel = hdm_common::CancelToken::default();
    let stages = rate(slice, || {
        black_box(run_dag_pipelined(&hard, &soft, threads, &obs, &cancel, Ok)?);
        Ok(CHAIN as f64)
    })?;
    out.push(("core.sched.dispatch_us_per_stage", us_per(stages)));

    // One streamed hand-off: declare, then commit and take 16 partitions.
    const PARTITIONS: usize = 16;
    let cap = conf.exec_pipelined_buffer()?;
    let empty = Arc::new(Vec::new());
    let partitions = rate(slice, || {
        let stream = StreamedIntermediate::new("probe", cap, &obs);
        stream.declare(PARTITIONS, 0);
        for p in 0..PARTITIONS {
            stream.commit(p, 0, Arc::clone(&empty))?;
            black_box(stream.take(p)?);
        }
        stream.finish();
        Ok(PARTITIONS as f64)
    })?;
    out.push(("core.stream.handoff_us_per_partition", us_per(partitions)));

    // An uncontended admission: admit, then drop the permit.
    let gate = AdmissionGate::new(conf.server_pool_size()?, conf.server_queue_max()?);
    let admits = rate(slice, || {
        for _ in 0..100 {
            black_box(gate.admit("t0")?);
        }
        Ok(100.0)
    })?;
    out.push(("server.admission.admit_us", us_per(admits)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    /// Every probe runs on real (small-slice) data and reports a finite
    /// positive value under a name the manifest lists.
    #[test]
    fn every_probe_reports_a_manifest_metric() {
        let got = run_all(7, Duration::ZERO).unwrap();
        assert_eq!(got.len(), 32);
        for (name, value) in &got {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        let share = got
            .iter()
            .find(|(n, _)| *n == "storage.orc.pruned_stripe_share")
            .unwrap()
            .1;
        assert!(
            share > 0.3 && share < 1.0,
            "Q6 keeps one year of seven: {share}"
        );
    }

    #[test]
    fn recorded_shuffle_matches_the_real_statement() {
        let fx = Fixture::build(7).unwrap();
        let shuffle = RecordedShuffle::record(&fx).unwrap();
        // One task per split, and as many pairs as the statement has
        // groups per task — near-unique keys, so close to one per row.
        assert_eq!(shuffle.pairs.len(), shuffle.o_tasks);
        assert!(shuffle.total_pairs() > fx.uservisits.len() / 2);
        assert_eq!(shuffle.keys.len(), shuffle.total_pairs());
        let real = fx
            .driver
            .execute_on(REPARTITION_SQL, EngineKind::Hadoop)
            .unwrap();
        assert_eq!(
            real.stages[0].volumes.total_shuffle_bytes(),
            shuffle.wire_bytes()
        );
    }
}
