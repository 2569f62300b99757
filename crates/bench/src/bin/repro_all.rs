//! Run every reproduction experiment in sequence — the one-shot
//! regeneration of the paper's evaluation. Output is what
//! EXPERIMENTS.md records. Expect a few minutes in release mode.
//!
//! `--only <substr>` (repeatable) filters the experiment list to the
//! binaries whose name contains the substring — e.g. `--only fig01`
//! runs just the Figure 1 breakdown (the CI smoke path). Every selected
//! experiment runs even if an earlier one fails; the exit code is
//! nonzero iff any failed.
//!
//! `--faults <seed>` (repeatable) switches to the chaos smoke instead
//! of the experiment list: for each seed, all 22 TPC-H queries run once
//! fault-free and once with `hive.ft.*` armed on that seed, and the
//! normalized result sets must match. Exit code is nonzero iff any
//! query errors out or diverges, or leaves scratch files under `/tmp/q`
//! once it has returned.
//!
//! `--only q<N>` (e.g. `--only q9`) switches to the parallel-scheduler
//! smoke: query N runs on both engines with
//! `hive.exec.parallel.thread.number` 1 and 8, and the collected rows
//! must be byte-identical. The DataMPI runs also print, per stage, the
//! messages the wire carried by kind (DATA / COMMIT / DONE), so a return
//! of an O×A end-of-stream storm shows. Mixing
//! `q<N>` selectors with experiment substrings is an error.
//!
//! `--faults <seed> --cancel` switches the chaos smoke to the
//! cancellation arm: for each seed, every TPC-H query runs on both
//! engines, pipelined off and on, with a cancel token fired at a
//! seeded random point. Each arm must finish under a watchdog (no
//! hang), end in exactly Ok(baseline rows) or the typed cancelled
//! error, and — when cancelled — a clean rerun must still match the
//! baseline (no partial warehouse output, no cache poisoning). No arm,
//! however it ended, may leave scratch files under `/tmp/q`.
//!
//! Everything printed is also appended to `target/repro_output.txt`
//! (honoring `CARGO_TARGET_DIR`); the log is regenerated per run, not
//! checked in.

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;

const BINS: [&str; 14] = [
    "table01_datasets",
    "fig01_breakdown",
    "fig02_comm_pattern",
    "fig06_blocking_vs_nonblocking",
    "fig08_tuning",
    "fig09_hibench",
    "fig10_hibench_breakdown",
    "table02_formats",
    "fig11_parallelism",
    "fig12_scalability",
    "fig13_resources",
    "table03_productivity",
    "ablations",
    "future_dag",
];

/// Sorted-line comparison with float canonicalization (same convention
/// as the end-to-end suites): summation order differs across retried
/// attempts and engines, so float cells can differ in last ulps.
fn normalize(mut lines: Vec<String>) -> Vec<String> {
    for line in &mut lines {
        let fields: Vec<String> = line
            .split('\t')
            .map(|f| {
                if f.contains('.') {
                    match f.parse::<f64>() {
                        Ok(x) => format!("{x:.5e}"),
                        Err(_) => f.to_string(),
                    }
                } else {
                    f.to_string()
                }
            })
            .collect();
        *line = fields.join("\t");
    }
    lines.sort();
    lines
}

/// The run log under `target/` (or `CARGO_TARGET_DIR`). Everything the
/// driver binary prints is duplicated here so a full reproduction run
/// leaves a reviewable transcript without checking artifacts into git.
struct RunLog(Option<std::fs::File>);

impl RunLog {
    fn create() -> (RunLog, PathBuf) {
        let dir = PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()),
        );
        let path = dir.join("repro_output.txt");
        let file = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .ok();
        if file.is_none() {
            eprintln!("note: could not open {} for writing", path.display());
        }
        (RunLog(file), path)
    }

    fn say(&mut self, line: &str) {
        println!("{line}");
        self.append(line);
    }

    fn warn(&mut self, line: &str) {
        eprintln!("{line}");
        self.append(line);
    }

    fn append(&mut self, line: &str) {
        if let Some(f) = &mut self.0 {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Parallel-scheduler smoke: each selected TPC-H query must produce
/// byte-identical rows with `hive.exec.parallel.thread.number` 1 and 8
/// (both arms pipelined, the default), plus the same normalized result
/// set with `hive.exec.pipelined` off (streaming may repartition
/// downstream tasks, so that arm is compared order-insensitively).
/// Returns the number of failures.
fn parallel_smoke(queries: &[usize], log: &mut RunLog) -> usize {
    let mut d = Driver::in_memory();
    if let Err(e) = tpch::load(&mut d, 0.002, 20150701, FormatKind::Text) {
        log.warn(&format!("tpch load failed: {e}"));
        return 1;
    }
    let mut failures = 0usize;
    for &n in queries {
        for engine in [EngineKind::DataMpi, EngineKind::Hadoop] {
            let run = |d: &mut Driver, threads: usize, pipelined: bool| {
                let c = d.conf_mut();
                c.set(hdm_common::conf::KEY_OBS_ENABLED, true);
                c.set(hdm_common::conf::KEY_EXEC_PARALLEL_THREADS, threads);
                c.set(hdm_common::conf::KEY_EXEC_PIPELINED, pipelined);
                d.execute_on(tpch::queries::query(n), engine)
                    .map(|r| (r.to_lines(), r.stages.len()))
            };
            match (
                run(&mut d, 1, true),
                run(&mut d, 8, true),
                run(&mut d, 8, false),
            ) {
                (Ok((seq, stages)), Ok((par, _)), Ok((mat, _))) => {
                    if seq != par {
                        log.warn(&format!("Q{n} {engine:?}: parallel run DIVERGED"));
                        failures += 1;
                    } else if normalize(par.clone()) != normalize(mat) {
                        log.warn(&format!("Q{n} {engine:?}: pipelined run DIVERGED"));
                        failures += 1;
                    } else {
                        log.say(&format!(
                            "Q{n:02} {engine:?}: parallel == sequential, pipelined == materialized \
                             ({} rows, {stages} stages in the final statement)",
                            seq.len()
                        ));
                        print_shape(&d, log);
                        if engine == EngineKind::DataMpi {
                            print_wire(&d, log);
                        }
                    }
                }
                (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                    log.warn(&format!("Q{n} {engine:?}: FAILED: {e}"));
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Print how each stage of the driver's last statement ran: map tasks
/// over the units (splits or stream partitions) they read, and reduce
/// tasks over the partitions (`stage.map.tasks`, `stage.map.units`,
/// `stage.reduce.tasks`, `stage.partitions`).
fn print_shape(d: &Driver, log: &mut RunLog) {
    let Some(snap) = d.last_obs_snapshot() else {
        return;
    };
    let mut stages: std::collections::BTreeMap<String, [u64; 4]> = Default::default();
    for (name, labels, value) in &snap.counters {
        let kind = match name.as_str() {
            "stage.map.tasks" => 0,
            "stage.map.units" => 1,
            "stage.reduce.tasks" => 2,
            "stage.partitions" => 3,
            _ => continue,
        };
        if let Some(slot) = stages.entry(labels.clone()).or_default().get_mut(kind) {
            *slot += value;
        }
    }
    for (stage, [maps, units, reduces, partitions]) in stages {
        log.say(&format!(
            "    {stage}: {maps} map tasks over {units} units, \
             {reduces} reduce tasks over {partitions} partitions"
        ));
    }
}

/// Print the messages the DataMPI wire carried in each stage of the
/// driver's last statement, by kind (`mpi.messages.*{stage=N}`).
fn print_wire(d: &Driver, log: &mut RunLog) {
    let Some(snap) = d.last_obs_snapshot() else {
        return;
    };
    let mut stages: std::collections::BTreeMap<String, [u64; 3]> = Default::default();
    for (name, labels, value) in &snap.counters {
        let kind = match name.as_str() {
            "mpi.messages.data" => 0,
            "mpi.messages.commit" => 1,
            "mpi.messages.done" => 2,
            _ => continue,
        };
        if let Some(slot) = stages.entry(labels.clone()).or_default().get_mut(kind) {
            *slot += value;
        }
    }
    for (stage, [data, commit, done]) in stages {
        log.say(&format!(
            "    {stage}: {data} DATA + {commit} COMMIT + {done} DONE messages"
        ));
    }
}

/// Scratch audit: a query that has returned, whether OK, failed or
/// cancelled, leaves nothing under `/tmp/q`. A leak counts as one
/// divergence.
fn scratch_leaks(d: &Driver, arm: &str, log: &mut RunLog) -> usize {
    let left = d.dfs().list("/tmp/q");
    if left.is_empty() {
        return 0;
    }
    log.warn(&format!("{arm}: LEFT SCRATCH FILES {left:?}"));
    1
}

/// Chaos smoke: every TPC-H query under every given fault seed must
/// match its fault-free result set. Returns the number of failures.
fn chaos_smoke(seeds: &[u64], log: &mut RunLog) -> usize {
    let mut d = Driver::in_memory();
    if let Err(e) = tpch::load(&mut d, 0.002, 20150701, FormatKind::Text) {
        log.warn(&format!("tpch load failed: {e}"));
        return 1;
    }
    // Vectorized arm: the batched columnar read path shares
    // `dfs.read_range` with the row path, so storage faults must be
    // survivable there too — and with identical results whether the
    // batch kernels are on or off.
    let mut orc = Driver::in_memory();
    if let Err(e) = tpch::load(&mut orc, 0.002, 20150701, FormatKind::Orc) {
        log.warn(&format!("tpch orc load failed: {e}"));
        return 1;
    }
    let mut failures = 0usize;
    for &seed in seeds {
        log.say(&format!(
            "\n######## chaos smoke, fault seed {seed} ########"
        ));
        for n in tpch::queries::all() {
            d.conf_mut().set(hdm_common::conf::KEY_FT_ENABLED, false);
            let clean = d.execute_on(tpch::queries::query(n), EngineKind::DataMpi);
            failures += scratch_leaks(&d, &format!("Q{n} fault-free"), log);
            let clean = match clean {
                Ok(r) => normalize(r.to_lines()),
                Err(e) => {
                    log.warn(&format!("Q{n} FAILED fault-free: {e}"));
                    failures += 1;
                    continue;
                }
            };
            let c = d.conf_mut();
            c.set(hdm_common::conf::KEY_FT_ENABLED, true);
            c.set(hdm_common::conf::KEY_FT_SEED, seed);
            c.set(hdm_common::conf::KEY_FT_BACKOFF_BASE_MS, 1);
            c.set(hdm_common::conf::KEY_FT_RECV_TIMEOUT_MS, 400);
            let run = d.execute_on(tpch::queries::query(n), EngineKind::DataMpi);
            failures += scratch_leaks(&d, &format!("Q{n} fault seed {seed}"), log);
            match run {
                Ok(r) if normalize(r.to_lines()) == clean => {
                    log.say(&format!("Q{n:02}: ok ({} rows)", clean.len()));
                }
                Ok(_) => {
                    log.warn(&format!("Q{n} DIVERGED under fault seed {seed}"));
                    failures += 1;
                }
                Err(e) => {
                    log.warn(&format!("Q{n} FAILED under fault seed {seed}: {e}"));
                    failures += 1;
                }
            }
        }
        log.say(&format!(
            "---- vectorized (ORC) arm, fault seed {seed} ----"
        ));
        for n in tpch::queries::all() {
            let c = orc.conf_mut();
            c.set(hdm_common::conf::KEY_FT_ENABLED, false);
            c.set(hdm_common::conf::KEY_VECTORIZED, true);
            let clean = orc.execute_on(tpch::queries::query(n), EngineKind::DataMpi);
            failures += scratch_leaks(&orc, &format!("Q{n} (orc) fault-free"), log);
            let clean = match clean {
                Ok(r) => normalize(r.to_lines()),
                Err(e) => {
                    log.warn(&format!("Q{n} (orc) FAILED fault-free: {e}"));
                    failures += 1;
                    continue;
                }
            };
            for vectorized in [true, false] {
                let c = orc.conf_mut();
                c.set(hdm_common::conf::KEY_FT_ENABLED, true);
                c.set(hdm_common::conf::KEY_FT_SEED, seed);
                c.set(hdm_common::conf::KEY_FT_BACKOFF_BASE_MS, 1);
                c.set(hdm_common::conf::KEY_FT_RECV_TIMEOUT_MS, 400);
                c.set(hdm_common::conf::KEY_VECTORIZED, vectorized);
                let run = orc.execute_on(tpch::queries::query(n), EngineKind::DataMpi);
                let arm = format!("Q{n} vectorized={vectorized} fault seed {seed}");
                failures += scratch_leaks(&orc, &arm, log);
                match run {
                    Ok(r) if normalize(r.to_lines()) == clean => {
                        log.say(&format!(
                            "Q{n:02} vectorized={vectorized}: ok ({} rows)",
                            clean.len()
                        ));
                    }
                    Ok(_) => {
                        log.warn(&format!(
                            "Q{n} vectorized={vectorized} DIVERGED under fault seed {seed}"
                        ));
                        failures += 1;
                    }
                    Err(e) => {
                        log.warn(&format!(
                            "Q{n} vectorized={vectorized} FAILED under fault seed {seed}: {e}"
                        ));
                        failures += 1;
                    }
                }
            }
        }
    }
    failures
}

/// Deterministic per-arm PRNG stream (splitmix64 finalizer): the cancel
/// fire point for an arm depends only on (seed, query, engine,
/// pipelined), so a failing arm replays exactly.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Cancellation chaos smoke: fire a token at a seeded random point into
/// every (query, engine, pipelined, vectorized) arm and require a
/// bounded, typed, state-clean outcome. Tables are loaded as ORC so the
/// vectorized arms genuinely run the batched columnar path. Returns the
/// number of failures.
fn cancel_chaos_smoke(seeds: &[u64], log: &mut RunLog) -> usize {
    use std::time::Duration;

    let mut d = Driver::in_memory();
    if let Err(e) = tpch::load(&mut d, 0.002, 20150701, FormatKind::Orc) {
        log.warn(&format!("tpch load failed: {e}"));
        return 1;
    }
    let mut failures = 0usize;
    for &seed in seeds {
        log.say(&format!(
            "\n######## cancellation chaos smoke, seed {seed} ########"
        ));
        let (mut cancelled, mut completed) = (0usize, 0usize);
        for n in tpch::queries::all() {
            for (ei, engine) in [EngineKind::DataMpi, EngineKind::Hadoop]
                .into_iter()
                .enumerate()
            {
                for (pipelined, vectorized) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    let arm =
                        format!("Q{n:02} {engine:?} pipelined={pipelined} vectorized={vectorized}");
                    let run = |d: &Driver, token: &hdm_common::CancelToken| {
                        let mut s = d.session();
                        s.conf_mut()
                            .set(hdm_common::conf::KEY_EXEC_PIPELINED, pipelined);
                        s.conf_mut()
                            .set(hdm_common::conf::KEY_VECTORIZED, vectorized);
                        s.execute_on_cancellable(tpch::queries::query(n), engine, token)
                            .map(|r| r.to_lines())
                    };
                    let baseline = run(&d, &hdm_common::CancelToken::default());
                    failures += scratch_leaks(&d, &format!("{arm} baseline"), log);
                    let baseline = match baseline {
                        Ok(lines) => normalize(lines),
                        Err(e) => {
                            log.warn(&format!("{arm}: FAILED fault-free: {e}"));
                            failures += 1;
                            continue;
                        }
                    };
                    // Fire point: 0..40ms into the run — straddling the
                    // runtime of a scale-0.002 query, so across the sweep
                    // arms land before, during, and after execution.
                    let delay_us = mix64(
                        seed ^ (n as u64) << 8
                            ^ (ei as u64) << 4
                            ^ (pipelined as u64) << 1
                            ^ vectorized as u64,
                    ) % 40_000;
                    let token = hdm_common::CancelToken::new();
                    let (tx, rx) = std::sync::mpsc::channel();
                    let runner = {
                        let session = d.session();
                        let token = token.clone();
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            let mut s = session;
                            s.conf_mut()
                                .set(hdm_common::conf::KEY_EXEC_PIPELINED, pipelined);
                            s.conf_mut()
                                .set(hdm_common::conf::KEY_VECTORIZED, vectorized);
                            let out = s
                                .execute_on_cancellable(tpch::queries::query(n), engine, &token)
                                .map(|r| r.to_lines());
                            if tx.send(out).is_err() {
                                // Watchdog already gave up on this arm.
                            }
                        })
                    };
                    std::thread::sleep(Duration::from_micros(delay_us));
                    token.cancel("chaos: seeded cancellation point");
                    // Watchdog: a cooperative cancel must unwind promptly;
                    // a hang here is exactly the regression this smoke exists
                    // to catch.
                    let outcome = rx.recv_timeout(Duration::from_secs(60));
                    if outcome.is_ok() {
                        failures += scratch_leaks(&d, &arm, log);
                    }
                    match outcome {
                        Ok(Ok(lines)) if normalize(lines.clone()) == baseline => completed += 1,
                        Ok(Ok(_)) => {
                            log.warn(&format!("{arm}: completed-under-cancel run DIVERGED"));
                            failures += 1;
                        }
                        Ok(Err(e)) if e.is_cancelled() => {
                            cancelled += 1;
                            // State check: a clean rerun after the cancel
                            // must still match the baseline.
                            let rerun = run(&d, &hdm_common::CancelToken::default());
                            failures += scratch_leaks(&d, &format!("{arm} rerun"), log);
                            match rerun.map(normalize) {
                                Ok(lines) if lines == baseline => {}
                                Ok(_) => {
                                    log.warn(&format!("{arm}: post-cancel rerun DIVERGED"));
                                    failures += 1;
                                }
                                Err(e) => {
                                    log.warn(&format!("{arm}: post-cancel rerun FAILED: {e}"));
                                    failures += 1;
                                }
                            }
                        }
                        Ok(Err(e)) => {
                            log.warn(&format!("{arm}: non-cancelled error under cancel: {e}"));
                            failures += 1;
                        }
                        Err(_) => {
                            log.warn(&format!("{arm}: HANG (no result within watchdog)"));
                            failures += 1;
                            // Leak the runner thread: joining a hung arm
                            // would hang the smoke itself.
                            continue;
                        }
                    }
                    if runner.join().is_err() {
                        log.warn(&format!("{arm}: runner thread panicked"));
                        failures += 1;
                    }
                }
            }
        }
        log.say(&format!(
            "seed {seed}: {cancelled} arm(s) cancelled mid-flight, {completed} completed clean"
        ));
    }
    failures
}

fn main() {
    let mut only: Vec<String> = Vec::new();
    let mut fault_seeds: Vec<u64> = Vec::new();
    let mut cancel_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => match args.next() {
                Some(f) => only.push(f),
                None => {
                    eprintln!("--only requires a value (e.g. --only fig01)");
                    std::process::exit(2);
                }
            },
            "--faults" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(seed)) => fault_seeds.push(seed),
                _ => {
                    eprintln!("--faults requires a u64 seed (e.g. --faults 42)");
                    std::process::exit(2);
                }
            },
            "--cancel" => cancel_mode = true,
            "--help" | "-h" => {
                println!("usage: repro_all [--only <substr>]... [--faults <seed>]... [--cancel]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if cancel_mode && fault_seeds.is_empty() {
        eprintln!("--cancel requires at least one --faults <seed>");
        std::process::exit(2);
    }
    let (mut log, log_path) = RunLog::create();
    if !fault_seeds.is_empty() {
        let failures = if cancel_mode {
            cancel_chaos_smoke(&fault_seeds, &mut log)
        } else {
            chaos_smoke(&fault_seeds, &mut log)
        };
        let kind = if cancel_mode {
            "cancellation chaos"
        } else {
            "chaos"
        };
        if failures == 0 {
            log.say(&format!(
                "\n{kind} smoke passed: 22 queries x {} seed(s), all correct",
                fault_seeds.len()
            ));
        } else {
            log.warn(&format!("\n{kind} smoke: {failures} FAILURE(S)"));
            std::process::exit(1);
        }
        return;
    }
    // `--only q<N>` selectors switch to the parallel-scheduler smoke.
    let query_nums: Vec<usize> = only
        .iter()
        .filter_map(|f| f.strip_prefix('q').and_then(|n| n.parse().ok()))
        .collect();
    if !query_nums.is_empty() {
        if query_nums.len() != only.len() {
            eprintln!("cannot mix q<N> selectors with experiment filters: {only:?}");
            std::process::exit(2);
        }
        if let Some(bad) = query_nums.iter().find(|&&n| !(1..=22).contains(&n)) {
            eprintln!("q{bad} is not a TPC-H query (expected q1..q22)");
            std::process::exit(2);
        }
        let failures = parallel_smoke(&query_nums, &mut log);
        if failures == 0 {
            log.say(&format!(
                "\nparallel smoke passed: {} query(ies), both engines, 1 thread == 8 threads",
                query_nums.len()
            ));
        } else {
            log.warn(&format!("\nparallel smoke: {failures} FAILURE(S)"));
            std::process::exit(1);
        }
        return;
    }
    let selected: Vec<&str> = BINS
        .iter()
        .copied()
        .filter(|b| only.is_empty() || only.iter().any(|f| b.contains(f.as_str())))
        .collect();
    if selected.is_empty() {
        eprintln!("no experiment matches {only:?}; known: {BINS:?}");
        std::process::exit(2);
    }
    // Running as separate processes keeps each experiment's memory
    // bounded and its output self-contained; captured output is relayed
    // to the console and the run log.
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let mut failures: Vec<String> = Vec::new();
    for bin in &selected {
        log.say(&format!("\n######## {bin} ########"));
        let path = dir.join(bin);
        match Command::new(&path).output() {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                log.append(String::from_utf8_lossy(&out.stdout).trim_end());
                if !out.stderr.is_empty() {
                    log.append(String::from_utf8_lossy(&out.stderr).trim_end());
                }
                if !out.status.success() {
                    log.warn(&format!("{bin} FAILED with {}", out.status));
                    failures.push(format!("{bin} ({})", out.status));
                }
            }
            Err(e) => {
                log.warn(&format!("failed to launch {bin}: {e}"));
                failures.push(format!("{bin} (launch: {e})"));
            }
        }
    }
    if failures.is_empty() {
        log.say(&format!(
            "\nall {} selected experiment(s) completed (log: {})",
            selected.len(),
            log_path.display()
        ));
    } else {
        log.warn(&format!(
            "\n{} of {} experiment(s) FAILED: {}",
            failures.len(),
            selected.len(),
            failures.join(", ")
        ));
        std::process::exit(1);
    }
}
