//! The four single-client batch workloads: a fixed statement schedule
//! run through the real `Driver` on default configuration.
//!
//! The harness sets no `hive.*` key anywhere; the engine is passed
//! through `execute_on`. The program sees only generated rows and SQL.

use crate::check::{self, LineitemFacts};
use crate::spec::TPCH_SCALE;
use hdm_common::row::Row;
use hdm_core::{Driver, EngineKind, QueryResult};
use hdm_storage::FormatKind;
use hdm_workloads::{hibench, tpch};
use std::time::{Duration, Instant};

/// A named statement template.
pub struct Kind {
    pub name: &'static str,
    pub sql: String,
    /// Whether the statement fixes its row order (`ORDER BY`).
    pub ordered: bool,
    /// Run untimed after the statement, so the next pass can repeat it.
    pub cleanup: Option<&'static str>,
}

impl Kind {
    fn query(name: &'static str, sql: &str) -> Kind {
        Kind {
            name,
            sql: sql.to_string(),
            ordered: check::is_ordered(sql),
            cleanup: None,
        }
    }
}

/// One timed statement.
pub struct StmtSample {
    /// Index into the workload's kinds.
    pub kind: usize,
    pub latency: Duration,
    pub ok: bool,
}

/// One run of a workload's fixed statement schedule.
pub struct PassOutcome {
    /// Wall time of the pass. Single client: the sum of its statement
    /// latencies (the harness's own checking between statements is not
    /// the program's time). Two clients: first start to last finish.
    pub wall: Duration,
    pub stmts: Vec<StmtSample>,
    /// What went wrong, one line per failed statement.
    pub failures: Vec<String>,
}

/// Delete what finished queries left under `/tmp/`. The driver keeps
/// every query's `/tmp/q{id}/result/` files for good (README, first
/// findings); left alone, memory would grow with the number of passes,
/// and `peak_rss_mb` would measure how long the run was. Untimed, and
/// only called when no statement is in flight.
pub fn release_results(driver: &Driver) {
    driver.dfs().delete_prefix("/tmp/");
}

pub const REPARTITION_SQL: &str = "SELECT sourceip, desturl, SUM(adrevenue), COUNT(*) \
     FROM uservisits GROUP BY sourceip, desturl";
const CTAS_ORC_SQL: &str = "CREATE TABLE uv_slim STORED AS ORC AS \
     SELECT sourceip, desturl, visitdate, adrevenue, duration FROM uservisits WHERE duration > 2";

pub fn hibench_config(seed: u64) -> hibench::HiBenchConfig {
    hibench::HiBenchConfig {
        rankings: 4_000,
        uservisits: 60_000,
        ips: 15_000,
        theta: 1.0,
        seed,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Data {
    Tpch(FormatKind),
    HiBench,
}

/// The static shape of a batch workload.
struct BatchShape {
    data: Data,
    engine: EngineKind,
    kinds: Vec<Kind>,
}

const TPCH_ORC_KINDS: [(&str, usize); 6] = [
    ("q1", 1),
    ("q3", 3),
    ("q6", 6),
    ("q9", 9),
    ("q12", 12),
    ("q21", 21),
];

fn tpch_kinds(queries: &[(&'static str, usize)]) -> Vec<Kind> {
    queries
        .iter()
        .map(|&(name, n)| Kind::query(name, tpch::queries::query(n)))
        .collect()
}

fn shape(name: &str) -> Option<BatchShape> {
    Some(match name {
        "tpch_orc_datampi" => BatchShape {
            data: Data::Tpch(FormatKind::Orc),
            engine: EngineKind::DataMpi,
            kinds: tpch_kinds(&TPCH_ORC_KINDS),
        },
        "tpch_orc_hadoop" => BatchShape {
            data: Data::Tpch(FormatKind::Orc),
            engine: EngineKind::Hadoop,
            kinds: tpch_kinds(&TPCH_ORC_KINDS),
        },
        "tpch_text_scan" => BatchShape {
            data: Data::Tpch(FormatKind::Text),
            engine: EngineKind::DataMpi,
            kinds: tpch_kinds(&[("q1", 1), ("q6", 6), ("q12", 12), ("q14", 14)]),
        },
        "hibench_shuffle" => BatchShape {
            data: Data::HiBench,
            engine: EngineKind::DataMpi,
            kinds: vec![
                Kind::query("aggregate", hibench::aggregate_query()),
                Kind::query("join", hibench::join_query()),
                Kind::query("repartition", REPARTITION_SQL),
                Kind {
                    cleanup: Some("DROP TABLE uv_slim"),
                    ..Kind::query("ctas_orc", CTAS_ORC_SQL)
                },
            ],
        },
        _ => return None,
    })
}

/// A loaded batch workload: data in a fresh in-memory cluster, and the
/// digest every later pass must reproduce.
pub struct Batch {
    pub driver: Driver,
    pub engine: EngineKind,
    pub kinds: Vec<Kind>,
    data: Data,
    seed: u64,
    /// Per-kind digests of the warm-up pass.
    reference: Vec<u64>,
    /// Per-kind results of the warm-up pass, kept until [`Batch::verify`].
    warmup: Vec<QueryResult>,
}

impl Batch {
    /// Set-up: generate, load, and one untimed warm-up pass. `None` when
    /// `name` is not a batch workload.
    pub fn setup(name: &str, seed: u64) -> Option<Result<Batch, String>> {
        let shape = shape(name)?;
        Some(Batch::load(shape, seed))
    }

    fn load(shape: BatchShape, seed: u64) -> Result<Batch, String> {
        let mut driver = Driver::in_memory();
        match shape.data {
            Data::Tpch(format) => {
                tpch::load_clustered(&mut driver, TPCH_SCALE, seed, format)
                    .map_err(|e| format!("tpch load: {e}"))?;
            }
            Data::HiBench => {
                hibench::load(&mut driver, &hibench_config(seed))
                    .map_err(|e| format!("hibench load: {e}"))?;
            }
        }
        let mut batch = Batch {
            driver,
            engine: shape.engine,
            kinds: shape.kinds,
            data: shape.data,
            seed,
            reference: Vec::new(),
            warmup: Vec::new(),
        };
        for idx in 0..batch.kinds.len() {
            let (_, result) = batch.execute(idx);
            let result = result?;
            batch
                .reference
                .push(check::digest(&result, batch.kinds[idx].ordered));
            batch.warmup.push(result);
        }
        Ok(batch)
    }

    /// One timed `execute` call of kind `idx`, then its untimed cleanup.
    fn execute(&self, idx: usize) -> (Duration, Result<QueryResult, String>) {
        let kind = &self.kinds[idx];
        let start = Instant::now();
        let result = self.driver.execute_on(&kind.sql, self.engine);
        let latency = start.elapsed();
        let mut result = result.map_err(|e| format!("{}: {e}", kind.name));
        if let Some(cleanup) = kind.cleanup {
            if let Err(e) = self.driver.execute_on(cleanup, self.engine) {
                result = Err(format!("{} cleanup: {e}", kind.name));
            }
        }
        (latency, result)
    }

    /// Check the warm-up results against everything independent of them:
    /// the harness oracles, and the other engine. Every timed pass is
    /// then held to the warm-up digests, so it inherits these checks.
    pub fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let warmup = std::mem::take(&mut self.warmup);
        let rows_of = |name: &str| -> Option<&[Row]> {
            let idx = self.kinds.iter().position(|k| k.name == name)?;
            Some(warmup.get(idx)?.rows.as_slice())
        };
        match self.data {
            Data::Tpch(_) => {
                let generated = tpch::dbgen::generate(TPCH_SCALE, self.seed);
                let facts = LineitemFacts::from_rows(&generated["lineitem"]);
                if let Some(rows) = rows_of("q6") {
                    failures.extend(facts.check_q6(rows, 1994, 24.0).err());
                }
                if let Some(rows) = rows_of("q1") {
                    failures.extend(facts.check_q1(rows).err());
                }
            }
            Data::HiBench => {
                let uservisits = hibench::generate_uservisits(&hibench_config(self.seed));
                if let Some(rows) = rows_of("aggregate") {
                    failures.extend(check::check_hibench_aggregate(&uservisits, rows).err());
                }
                failures.extend(self.verify_ctas(&uservisits).err());
            }
        }
        // Cross-engine check: the other engine must produce the same
        // digests from the same data (TPC-H ORC pair only; its ratio is
        // the paper's headline comparison, so both sides must agree).
        if self.data == Data::Tpch(FormatKind::Orc) {
            let other = match self.engine {
                EngineKind::DataMpi => EngineKind::Hadoop,
                EngineKind::Hadoop => EngineKind::DataMpi,
            };
            for (kind, want) in self.kinds.iter().zip(&self.reference) {
                match self.driver.execute_on(&kind.sql, other) {
                    Ok(r) if check::digest(&r, kind.ordered) == *want => {}
                    Ok(_) => failures.push(format!(
                        "{}: {} and {} disagree",
                        kind.name,
                        self.engine.name(),
                        other.name()
                    )),
                    Err(e) => failures.push(format!("{} on {}: {e}", kind.name, other.name())),
                }
            }
        }
        failures
    }

    /// `ctas_orc` returns no rows, so read back what it wrote once and
    /// compare with the generated rows it should have kept.
    fn verify_ctas(&self, uservisits: &[Row]) -> Result<(), String> {
        let kept = uservisits
            .iter()
            .filter(|r| r.get(8).as_i64().is_some_and(|d| d > 2));
        let (want_n, want_sum) = kept.fold((0i64, 0.0f64), |(n, sum), r| {
            (n + 1, sum + r.get(3).as_f64().unwrap_or(f64::NAN))
        });
        let run = |sql: &str| {
            self.driver
                .execute_on(sql, self.engine)
                .map_err(|e| format!("ctas_orc check: {e}"))
        };
        run(CTAS_ORC_SQL)?;
        let got = run("SELECT COUNT(*), SUM(adrevenue) FROM uv_slim");
        run("DROP TABLE uv_slim")?;
        match got?.rows.as_slice() {
            [row]
                if row.get(0).as_i64() == Some(want_n)
                    && check::close(row.get(1).as_f64().unwrap_or(f64::NAN), want_sum) =>
            {
                Ok(())
            }
            rows => Err(format!(
                "ctas_orc: oracle ({want_n}, {want_sum}), table holds {:?}",
                rows.iter().map(Row::to_string).collect::<Vec<_>>()
            )),
        }
    }

    /// Run the fixed schedule once: every kind, in order.
    pub fn pass(&self) -> PassOutcome {
        let mut out = PassOutcome {
            wall: Duration::ZERO,
            stmts: Vec::with_capacity(self.kinds.len()),
            failures: Vec::new(),
        };
        for idx in 0..self.kinds.len() {
            let (latency, result) = self.execute(idx);
            let checked = result.and_then(|r| {
                if check::digest(&r, self.kinds[idx].ordered) == self.reference[idx] {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: result differs from the warm-up pass",
                        self.kinds[idx].name
                    ))
                }
            });
            out.wall += latency;
            out.stmts.push(StmtSample {
                kind: idx,
                latency,
                ok: checked.is_ok(),
            });
            out.failures.extend(checked.err());
        }
        release_results(&self.driver);
        out
    }

    /// The reference digest of kind `idx` (what a staged replay must
    /// reproduce).
    pub fn reference(&self, idx: usize) -> u64 {
        self.reference[idx]
    }
}
