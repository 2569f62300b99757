//! Vectorized columnar scan kernels vs the row-at-a-time path, measured.
//!
//! This PR's tentpole: with `hive.vectorized.execution.enabled` the
//! engines decode ORC stripes column-wise and run filter / projection /
//! aggregate-update kernels over ~1024-row [`hdm_core::batch::RowBatch`]
//! slices, and planning-side predicate pushdown prunes whole stripes
//! before a split is ever enumerated.
//!
//! Methodology: Q1 and Q6 are compiled by the *real* planner
//! (`analyze` → `plan_select` → `optimize_stage`) against a
//! date-clustered ORC lineitem, and their scan stage — the batched hot
//! path — is then replayed directly against the stored table bytes
//! on both arms:
//!
//! - **row arm** (pre-PR engine path): `plan_splits` without planning
//!   predicates, `read_split` (transpose to rows, read-time stripe
//!   skipping still active), per-row `eval_predicate` / expression
//!   eval / `Aggregator::update_raw`;
//! - **batched arm** (vectorized path): `plan_splits` *with* the
//!   compiled pushdown predicates (pruned-stripe counts disclosed),
//!   `read_split_columns`, `filter_batch` / `project_batch` /
//!   `update_group` over 1024-row batches.
//!
//! Both arms must produce identical aggregate groups before anything is
//! timed. Q9 — a multi-stage join chain where scan kernels are a
//! smaller fraction — runs end-to-end through the driver with the knob
//! on and off for full disclosure, as do Q1/Q6; the vectorized-off arm
//! runs the identical pre-PR row code and pins its baseline cost.

use hdm_core::ast::Statement;
use hdm_core::batch::{filter_batch, project_batch, GroupTable, RowBatch};
use hdm_core::logical::analyze;
use hdm_core::operators::{AggState, Aggregator};
use hdm_core::optimizer::optimize_stage;
use hdm_core::parser::parse_statement;
use hdm_core::physical::{plan_select, InputSource, MapInput, StageKind, StageOutput};
use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Harness scale for the scan replay: big enough that per-row overheads
/// dominate fixed costs, small enough for a CI smoke.
const SCALE: f64 = 0.01;
const SEED: u64 = 20150701;
const BATCH_SIZE: usize = 1024;
const REPLAY_ITERATIONS: usize = 5;
const E2E_ITERATIONS: usize = 3;

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn normalize(mut lines: Vec<String>) -> Vec<String> {
    for l in lines.iter_mut() {
        *l = l
            .split('\t')
            .map(|f| match f.contains('.').then(|| f.parse::<f64>()) {
                Some(Ok(x)) => format!("{x:.5e}"),
                _ => f.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\t");
    }
    lines.sort();
    lines
}

/// Compile a query with the real planner and return its scan stage's
/// map input plus the aggregate specs of the partial-aggregation phase.
fn compiled_scan(d: &Driver, sql: &str) -> (MapInput, Aggregator) {
    let stmt = parse_statement(sql).expect("parse");
    let Statement::Select(query) = stmt else {
        panic!("not a SELECT")
    };
    let qb = analyze(&query, d.metastore()).expect("analyze");
    let mut plan = plan_select(&qb, StageOutput::Collect).expect("plan");
    for stage in &mut plan.stages {
        optimize_stage(stage);
    }
    let scan = &plan.stages[0];
    let StageKind::Aggregate { aggs, .. } = &scan.kind else {
        panic!("expected an aggregate scan stage")
    };
    let input = scan.inputs[0].clone();
    assert!(matches!(input.source, InputSource::Table(_)));
    (input, Aggregator::new(aggs.clone()))
}

/// Grouped partial-aggregation states, keyed by the group-key row —
/// the same keying the engine's partial-aggregation hash map uses.
type Groups = HashMap<Row, Vec<AggState>>;

fn groups_to_lines(agg: &Aggregator, groups: &Groups) -> Vec<String> {
    normalize(
        groups
            .iter()
            .map(|(k, states)| format!("{k}\t{}", agg.states_to_row(states)))
            .collect(),
    )
}

/// The pre-PR row path: transpose every stripe to rows, then per-row
/// filter / project / aggregate-update.
fn run_row_arm(d: &Driver, input: &MapInput, agg: &Aggregator) -> Groups {
    let meta = d.metastore().table(table_of(input)).expect("table meta");
    let fmt = hdm_storage::format_for(meta.format);
    let mut groups: Groups = HashMap::new();
    for path in d.metastore().storage.parts(d.dfs(), table_of(input)) {
        let planned = fmt.plan_splits(d.dfs(), &path, &[]).expect("splits");
        for split in &planned.splits {
            let src = fmt
                .read_split(
                    d.dfs(),
                    split,
                    &meta.schema,
                    input.read_projection.as_deref(),
                    &input.pushdown,
                    None,
                )
                .expect("read split");
            for row in &src.rows {
                if let Some(f) = &input.filter {
                    if !f.eval_predicate(row).expect("filter") {
                        continue;
                    }
                }
                let mut key = Row::new();
                for e in &input.key_exprs {
                    key.push(e.eval(row).expect("key expr"));
                }
                let mut value = Row::new();
                for e in &input.value_exprs {
                    value.push(e.eval(row).expect("value expr"));
                }
                let states = groups.entry(key).or_insert_with(|| agg.new_states());
                agg.update_raw(states, &value);
            }
        }
    }
    groups
}

use hdm_common::row::Row;

/// The vectorized path: planning-side stripe pruning, columnar decode,
/// batch kernels. Returns the groups plus pruned-stripe/row counts.
fn run_batched_arm(d: &Driver, input: &MapInput, agg: &Aggregator) -> (Groups, u64, u64) {
    let meta = d.metastore().table(table_of(input)).expect("table meta");
    let fmt = hdm_storage::format_for(meta.format);
    let mut table = GroupTable::new();
    let (mut pruned_stripes, mut pruned_rows) = (0u64, 0u64);
    for path in d.metastore().storage.parts(d.dfs(), table_of(input)) {
        let planned = fmt
            .plan_splits(d.dfs(), &path, &input.pushdown)
            .expect("planned splits");
        pruned_stripes += planned.pruned_stripes;
        pruned_rows += planned.pruned_rows;
        for split in &planned.splits {
            let src = fmt
                .read_split_columns(
                    d.dfs(),
                    split,
                    &meta.schema,
                    input.read_projection.as_deref(),
                    &input.pushdown,
                    None,
                )
                .expect("read columns")
                .expect("ORC must produce a columnar source");
            for stripe in &src.stripes {
                let mut start = 0usize;
                while start < stripe.rows {
                    let end = (start + BATCH_SIZE).min(stripe.rows);
                    let rb = RowBatch::new(
                        stripe
                            .columns
                            .iter()
                            .map(|c| c.get(start..end).unwrap_or(&[]))
                            .collect(),
                        end - start,
                    )
                    .expect("batch");
                    start = end;
                    let sel = filter_batch(input.filter.as_ref(), &rb).expect("batch filter");
                    if sel.is_empty() {
                        continue;
                    }
                    let key_cols = project_batch(&input.key_exprs, &rb, &sel).expect("batch keys");
                    let value_cols =
                        project_batch(&input.value_exprs, &rb, &sel).expect("batch values");
                    table.update_batch(agg, &key_cols, &value_cols, sel.len());
                }
            }
        }
    }
    (
        table.into_groups().into_iter().collect(),
        pruned_stripes,
        pruned_rows,
    )
}

fn table_of(input: &MapInput) -> &str {
    match &input.source {
        InputSource::Table(name) => name,
        InputSource::Stage(_) => panic!("scan stage reads a table"),
    }
}

struct ScanCase {
    name: &'static str,
    what: String,
    row_ns: u128,
    batched_ns: u128,
    pruned_stripes: u64,
    pruned_rows: u64,
    groups: usize,
}

impl ScanCase {
    fn speedup(&self) -> f64 {
        self.row_ns as f64 / self.batched_ns.max(1) as f64
    }
}

fn measure_scan(d: &Driver, name: &'static str, what: String, sql: &str) -> ScanCase {
    let (input, agg) = compiled_scan(d, sql);
    // Correctness gate before timing anything.
    let row_groups = run_row_arm(d, &input, &agg);
    let (batch_groups, pruned_stripes, pruned_rows) = run_batched_arm(d, &input, &agg);
    assert_eq!(
        groups_to_lines(&agg, &row_groups),
        groups_to_lines(&agg, &batch_groups),
        "{name}: batched scan diverged from row scan"
    );
    let mut row = Vec::with_capacity(REPLAY_ITERATIONS);
    let mut batched = Vec::with_capacity(REPLAY_ITERATIONS);
    for _ in 0..REPLAY_ITERATIONS {
        let t = Instant::now();
        let g = run_row_arm(d, &input, &agg);
        row.push(t.elapsed().as_nanos());
        assert_eq!(g.len(), row_groups.len());
        let t = Instant::now();
        let (g, _, _) = run_batched_arm(d, &input, &agg);
        batched.push(t.elapsed().as_nanos());
        assert_eq!(g.len(), row_groups.len());
    }
    ScanCase {
        name,
        what,
        row_ns: median_ns(row),
        batched_ns: median_ns(batched),
        pruned_stripes,
        pruned_rows,
        groups: row_groups.len(),
    }
}

/// End-to-end medians through the driver with the knob on and off; rows
/// must be byte-identical (the knob is a pure performance setting).
fn measure_end_to_end(d: &mut Driver, q: usize) -> (u128, u128) {
    let sql = tpch::queries::query(q);
    d.conf_mut().set(hdm_common::conf::KEY_VECTORIZED, false);
    let off_rows = d.execute_on(sql, EngineKind::DataMpi).expect("vec-off run");
    d.conf_mut().set(hdm_common::conf::KEY_VECTORIZED, true);
    let on_rows = d.execute_on(sql, EngineKind::DataMpi).expect("vec-on run");
    assert_eq!(
        off_rows.to_lines(),
        on_rows.to_lines(),
        "Q{q}: vectorization changed rows"
    );
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for i in 0..E2E_ITERATIONS {
        for &vec_on in if i % 2 == 0 {
            &[false, true]
        } else {
            &[true, false]
        } {
            d.conf_mut().set(hdm_common::conf::KEY_VECTORIZED, vec_on);
            let t = Instant::now();
            d.execute_on(sql, EngineKind::DataMpi).expect("e2e run");
            let ns = t.elapsed().as_nanos();
            if vec_on {
                on.push(ns);
            } else {
                off.push(ns);
            }
        }
    }
    (median_ns(off), median_ns(on))
}

fn main() {
    let mut d = Driver::in_memory();
    tpch::load_clustered(&mut d, SCALE, SEED, FormatKind::Orc).expect("clustered orc load");

    let q1 = measure_scan(
        &d,
        "q1_scan",
        format!(
            "TPC-H Q1 scan+partial-aggregate stage over date-clustered ORC lineitem \
             (scale {SCALE}), compiled by the real planner, replayed row-at-a-time vs \
             {BATCH_SIZE}-row batch kernels"
        ),
        tpch::queries::query(1),
    );
    let q6 = measure_scan(
        &d,
        "q6_scan",
        format!(
            "TPC-H Q6 scan+partial-aggregate stage over date-clustered ORC lineitem \
             (scale {SCALE}): the 1994 shipdate window is pushed into split planning, \
             so the batched arm also prunes whole stripes"
        ),
        tpch::queries::query(6),
    );

    let e2e: Vec<(usize, u128, u128)> = [1usize, 6, 9]
        .into_iter()
        .map(|q| {
            let (off, on) = measure_end_to_end(&mut d, q);
            (q, off, on)
        })
        .collect();

    let scan_cases = [&q1, &q6];
    let rows: Vec<Vec<String>> = scan_cases
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{}", c.groups),
                format!("{}", c.pruned_stripes),
                format!("{:.1} ms", c.row_ns as f64 / 1e6),
                format!("{:.1} ms", c.batched_ns as f64 / 1e6),
                format!("{:.2}x", c.speedup()),
            ]
        })
        .collect();
    hdm_bench::print_table(
        "Vectorized scan kernels vs row-at-a-time (scan-stage replay medians)",
        &[
            "workload",
            "groups",
            "stripes pruned",
            "row (ms)",
            "batched (ms)",
            "speedup",
        ],
        &rows,
    );
    let e2e_rows: Vec<Vec<String>> = e2e
        .iter()
        .map(|(q, off, on)| {
            vec![
                format!("tpch_q{q}"),
                format!("{:.1} ms", *off as f64 / 1e6),
                format!("{:.1} ms", *on as f64 / 1e6),
                format!("{:.2}x", *off as f64 / (*on).max(1) as f64),
            ]
        })
        .collect();
    hdm_bench::print_table(
        "End-to-end through the driver (DataMPI, medians)",
        &[
            "query",
            "vectorized off (ms)",
            "vectorized on (ms)",
            "ratio",
        ],
        &e2e_rows,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"description\": \"Median times for the vectorized columnar operator pipeline \
         (cargo run --release -p hdm-bench --bin vectorized). Q1/Q6 are compiled by the real \
         planner against a date-clustered ORC lineitem and their scan+partial-aggregate stage \
         is replayed directly over the stored bytes: 'before' = the pre-PR row path \
         (read_split transpose, per-row eval_predicate/eval/update_raw; read-time stripe \
         skipping active), 'after' = the vectorized path (plan_splits with the compiled \
         pushdown predicates, read_split_columns, filter_batch/project_batch/update_group \
         over 1024-row batches). Both arms must produce identical aggregate groups before \
         timing. pruned_stripes/pruned_rows disclose how much the batched arm's \
         planning-side pushdown skipped (zero stripes are ever pruned on the row arm's \
         plan). end_to_end_ns records full driver runs with hive.vectorized.execution.enabled \
         off vs on; the off arm executes the identical pre-PR row code path, so it doubles \
         as the pre-PR baseline disclosure.\",\n",
    );
    json.push_str("  \"units\": \"nanoseconds per run\",\n");
    json.push_str("  \"host\": \"container CI runner (single core), release profile\",\n");
    json.push_str("  \"groups\": {\n");
    for c in scan_cases {
        let _ = write!(
            json,
            "    \"{}\": {{\n      \"what\": \"{}\",\n      \"before\": {{\n        \"bench\": \"row_scan_replay\",\n        \"median_ns\": {}\n      }},\n      \"after\": {{\n        \"bench\": \"batched_scan_replay\",\n        \"median_ns\": {}\n      }},\n      \"speedup\": {:.2},\n      \"pruned_stripes\": {},\n      \"pruned_rows\": {},\n      \"groups\": {}\n    }},\n",
            c.name,
            c.what,
            c.row_ns,
            c.batched_ns,
            c.speedup(),
            c.pruned_stripes,
            c.pruned_rows,
            c.groups,
        );
    }
    for (i, (q, off, on)) in e2e.iter().enumerate() {
        let _ = write!(
            json,
            "    \"tpch_q{}_end_to_end\": {{\n      \"what\": \"TPC-H Q{} end-to-end, DataMPI, clustered ORC, scale {}\",\n      \"before\": {{\n        \"bench\": \"vectorized_off\",\n        \"median_ns\": {}\n      }},\n      \"after\": {{\n        \"bench\": \"vectorized_on\",\n        \"median_ns\": {}\n      }},\n      \"speedup\": {:.2}\n    }}{}\n",
            q,
            q,
            SCALE,
            off,
            on,
            *off as f64 / (*on).max(1) as f64,
            if i + 1 < e2e.len() { "," } else { "" }
        );
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_vectorized.json", &json).expect("write BENCH_vectorized.json");
    println!("\nwrote BENCH_vectorized.json");

    // Acceptance floors: the batch kernels must carry their weight on
    // the scan shapes they exist for, and Q6's pushed-down date window
    // must actually prune clustered stripes.
    for c in scan_cases {
        assert!(
            c.speedup() >= 2.0,
            "{}: speedup {:.2}x below the 2x floor",
            c.name,
            c.speedup()
        );
    }
    assert!(
        q6.pruned_stripes > 0,
        "Q6 must prune clustered stripes via pushdown"
    );
}
