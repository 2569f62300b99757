//! `serving_mixed`: two closed-loop sessions behind `HdmServer`.
//!
//! Per pass each session issues [`STATEMENTS_PER_SESSION`] statements
//! from a seeded schedule: 60 % `dash` (TPC-H Q1/Q6/Q12/Q14 verbatim —
//! result-cache hits unless invalidated), 30 % `adhoc` (a Q6-shaped scan
//! with a literal never used before — always plans and scans, hits the
//! ORC byte cache), 10 % `insert` (one row into `orders` or `part` with
//! a key that joins nothing, so `dash` rows stay equal to the solo
//! baseline while the version bump invalidates Q12/Q14).
//!
//! Sizes relative to the program's caches, on purpose: the result cache
//! holds 256 entries and sees thousands of distinct `adhoc` texts, so it
//! evicts; the ORC byte cache holds 64 MB and the scanned columns are a
//! few MB, so it fits.
//!
//! Single writer: only session `t0` inserts; `t1` issues an `adhoc` in
//! that slot. Two sessions inserting into one table race on the next
//! part index (`Dfs("file exists: /warehouse/orders/part-000NN")`) — a
//! program bug this benchmark records (README) and does not paper over.

use crate::check::{self, LineitemFacts};
use crate::spec::TPCH_SCALE;
use crate::workloads::{release_results, PassOutcome, StmtSample};
use hdm_core::{Driver, EngineKind};
use hdm_server::{HdmServer, Session};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;
use std::time::{Duration, Instant};

pub const KINDS: [&str; 3] = ["dash", "adhoc", "insert"];
pub const STATEMENTS_PER_SESSION: usize = 50;
/// Client threads; the registry's `clients` for this workload.
pub const CLIENTS: usize = 2;
const DASH_QUERIES: [usize; 4] = [1, 6, 12, 14];
/// Keys from here up join nothing in the generated data.
const INSERT_KEY_BASE: u64 = 90_000_000;

/// One scheduled statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheduled {
    /// Index into [`DASH_QUERIES`].
    Dash(usize),
    /// Q6 over `year` with `l_quantity < quantity_below`; the limit's
    /// fractional digits make the text unique without changing which
    /// (integer-valued) quantities pass.
    Adhoc { year: i32, quantity_below: f64 },
    /// The `n`-th insert of the run; alternates `orders` and `part`.
    Insert(u64),
}

impl Scheduled {
    /// Index into [`KINDS`].
    fn kind(&self) -> usize {
        match self {
            Scheduled::Dash(_) => 0,
            Scheduled::Adhoc { .. } => 1,
            Scheduled::Insert(_) => 2,
        }
    }

    pub fn kind_name(&self) -> &'static str {
        KINDS[self.kind()]
    }

    pub fn sql(&self) -> String {
        match self {
            Scheduled::Dash(i) => tpch::queries::query(DASH_QUERIES[*i]).to_string(),
            Scheduled::Adhoc {
                year,
                quantity_below,
            } => format!(
                "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
                 WHERE l_shipdate >= DATE '{year}-01-01' AND l_shipdate < DATE '{}-01-01' \
                 AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < {quantity_below:.6}",
                year + 1
            ),
            Scheduled::Insert(n) => {
                let key = INSERT_KEY_BASE + n;
                if n % 2 == 0 {
                    format!(
                        "INSERT INTO orders VALUES ({key}, 1, 'O', 1.0, DATE '1995-01-01', \
                         '5-LOW', 'Clerk#000000001', 0, 'benchmark insert')"
                    )
                } else {
                    format!(
                        "INSERT INTO part VALUES ({key}, 'benchmark insert', 'Manufacturer#1', \
                         'Brand#11', 'PROMO BRUSHED TIN', 1, 'SM BOX', 1.0, 'benchmark insert')"
                    )
                }
            }
        }
    }
}

/// splitmix64: the schedule's only source of randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The statements session `session` issues in pass `pass`: a pure
/// function of `(seed, pass, session)`.
pub fn schedule(seed: u64, pass: u64, session: usize) -> Vec<Scheduled> {
    let mut rng = seed ^ (pass << 8) ^ (session as u64 + 1).wrapping_mul(0x5851_f42d_4c95_7f2d);
    let mut inserts = 0u64;
    (0..STATEMENTS_PER_SESSION)
        .map(|i| {
            // Unique across passes, sessions and slots, so no adhoc text
            // ever repeats within a run.
            let serial =
                (pass * CLIENTS as u64 + session as u64) * STATEMENTS_PER_SESSION as u64 + i as u64;
            let adhoc = Scheduled::Adhoc {
                year: 1993 + (serial % 5) as i32,
                quantity_below: (10 + serial % 30) as f64 + (serial % 1_000_000) as f64 * 1e-6,
            };
            match splitmix64(&mut rng) % 100 {
                0..=59 => Scheduled::Dash((splitmix64(&mut rng) % 4) as usize),
                60..=89 => adhoc,
                _ if session == 0 => {
                    inserts += 1;
                    // Room for 64 inserts per pass keeps keys unique.
                    Scheduled::Insert(pass * 64 + inserts)
                }
                _ => adhoc,
            }
        })
        .collect()
}

/// The loaded serving workload.
pub struct Serving {
    pub server: HdmServer,
    sessions: Vec<Session>,
    seed: u64,
    /// Digests of the four `dash` queries on a solo `Driver`, taken
    /// before the server existed.
    baseline: Vec<u64>,
    /// Adhoc answers not yet checked against the oracle.
    adhoc_answers: Vec<(i32, f64, Vec<hdm_common::row::Row>)>,
    next_pass: u64,
}

impl Serving {
    /// Set-up: generate, load, solo baseline of the `dash` queries,
    /// stand the server up, one untimed warm-up pass.
    pub fn setup(seed: u64) -> Result<Serving, String> {
        let mut driver = Driver::in_memory();
        tpch::load_clustered(&mut driver, TPCH_SCALE, seed, FormatKind::Orc)
            .map_err(|e| format!("tpch load: {e}"))?;
        let mut baseline = Vec::new();
        for n in DASH_QUERIES {
            let sql = tpch::queries::query(n);
            let r = driver
                .execute_on(sql, EngineKind::DataMpi)
                .map_err(|e| format!("solo baseline q{n}: {e}"))?;
            baseline.push(check::digest(&r, check::is_ordered(sql)));
        }
        let server = HdmServer::over(driver).map_err(|e| format!("server start: {e}"))?;
        let sessions = (0..CLIENTS)
            .map(|i| {
                let mut s = server.session(&format!("t{i}"));
                s.set_engine(EngineKind::DataMpi);
                s
            })
            .collect();
        let mut serving = Serving {
            server,
            sessions,
            seed,
            baseline,
            adhoc_answers: Vec::new(),
            next_pass: 0,
        };
        let warmup = serving.pass();
        match warmup.failures.first() {
            Some(failure) => Err(format!("warm-up pass: {failure}")),
            None => Ok(serving),
        }
    }

    /// The base driver's view of the data, for the staged run.
    pub fn driver(&self) -> &Driver {
        self.sessions[0].driver()
    }

    /// Run the next pass of the schedule on both sessions at once.
    pub fn pass(&mut self) -> PassOutcome {
        let pass = self.next_pass;
        self.next_pass += 1;
        let (seed, baseline) = (self.seed, &self.baseline);
        let start = Instant::now();
        let per_session: Vec<SessionOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .iter()
                .enumerate()
                .map(|(i, session)| {
                    scope.spawn(move || run_session(session, schedule(seed, pass, i), baseline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = start.elapsed();
        release_results(self.driver());
        let mut out = PassOutcome {
            wall,
            stmts: Vec::new(),
            failures: Vec::new(),
        };
        for s in per_session {
            out.stmts.extend(s.stmts);
            out.failures.extend(s.failures);
            self.adhoc_answers.extend(s.adhoc_answers);
        }
        out
    }

    /// Check every adhoc answer collected so far against the oracle.
    /// Deferred to after the timed passes: on two cores the check would
    /// otherwise take time from the other session. Returns failures.
    pub fn verify_adhoc(&mut self) -> Vec<String> {
        let generated = tpch::dbgen::generate(TPCH_SCALE, self.seed);
        let facts = LineitemFacts::from_rows(&generated["lineitem"]);
        std::mem::take(&mut self.adhoc_answers)
            .into_iter()
            .filter_map(|(year, below, rows)| facts.check_q6(&rows, year, below).err())
            .collect()
    }
}

struct SessionOutcome {
    stmts: Vec<StmtSample>,
    failures: Vec<String>,
    adhoc_answers: Vec<(i32, f64, Vec<hdm_common::row::Row>)>,
}

fn run_session(session: &Session, schedule: Vec<Scheduled>, baseline: &[u64]) -> SessionOutcome {
    let mut out = SessionOutcome {
        stmts: Vec::with_capacity(schedule.len()),
        failures: Vec::new(),
        adhoc_answers: Vec::new(),
    };
    for item in schedule {
        let sql = item.sql();
        let start = Instant::now();
        let result = session.execute(&sql);
        let latency: Duration = start.elapsed();
        let checked = match (result, &item) {
            (Err(e), _) => Err(format!("{} {}: {e}", session.tenant(), item.kind_name())),
            (Ok(r), Scheduled::Dash(i)) => {
                if check::digest(&r, check::is_ordered(&sql)) == baseline[*i] {
                    Ok(())
                } else {
                    Err(format!(
                        "dash q{}: served rows differ from the solo baseline",
                        DASH_QUERIES[*i]
                    ))
                }
            }
            (
                Ok(r),
                Scheduled::Adhoc {
                    year,
                    quantity_below,
                },
            ) => {
                out.adhoc_answers.push((*year, *quantity_below, r.rows));
                Ok(())
            }
            (Ok(_), Scheduled::Insert(_)) => Ok(()),
        };
        out.stmts.push(StmtSample {
            kind: item.kind(),
            latency,
            ok: checked.is_ok(),
        });
        out.failures.extend(checked.err());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schedule_is_a_pure_function_of_seed_pass_session() {
        assert_eq!(schedule(7, 3, 0), schedule(7, 3, 0));
        assert_ne!(schedule(7, 3, 0), schedule(8, 3, 0));
        assert_ne!(schedule(7, 3, 0), schedule(7, 4, 0));
        assert_ne!(schedule(7, 3, 0), schedule(7, 3, 1));
        assert_eq!(schedule(7, 3, 1).len(), STATEMENTS_PER_SESSION);
    }

    #[test]
    fn only_session_zero_inserts_and_the_mix_is_60_30_10() {
        let mut counts = [0usize; 3];
        for pass in 0..200 {
            for item in schedule(20150701, pass, 0) {
                counts[item.kind()] += 1;
            }
            assert!(schedule(20150701, pass, 1)
                .iter()
                .all(|s| !matches!(s, Scheduled::Insert(_))));
        }
        let share = |n: usize| n as f64 / 10_000.0;
        assert!((share(counts[0]) - 0.6).abs() < 0.03, "{counts:?}");
        assert!((share(counts[1]) - 0.3).abs() < 0.03, "{counts:?}");
        assert!((share(counts[2]) - 0.1).abs() < 0.02, "{counts:?}");
    }

    #[test]
    fn adhoc_texts_and_insert_keys_never_repeat() {
        let mut texts = HashSet::new();
        for pass in 0..100 {
            for session in 0..CLIENTS {
                for item in schedule(1, pass, session) {
                    if !matches!(item, Scheduled::Dash(_)) {
                        assert!(texts.insert(item.sql()), "repeated: {}", item.sql());
                    }
                }
            }
        }
    }

    #[test]
    fn every_scheduled_statement_parses() {
        for item in [
            Scheduled::Dash(3),
            Scheduled::Adhoc {
                year: 1994,
                quantity_below: 24.000123,
            },
            Scheduled::Insert(2),
            Scheduled::Insert(3),
        ] {
            let stmts = hdm_core::parser::parse_script(&item.sql()).unwrap();
            assert_eq!(stmts.len(), 1, "{}", item.sql());
        }
    }
}
