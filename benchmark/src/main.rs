//! The repository's benchmark: five workloads through the real `Driver`
//! and `hdm-server` on wall-clock time, with per-layer attribution.
//!
//! ```text
//! hdm-benchmark run [--seed N] [--seconds S] [--workload W] [--quick]
//!     every workload (or W) in a child process each: end-to-end run,
//!     then traced run; prints every metric by name with its unit and
//!     rewrites benchmark/RESULTS.json (latest + previous)
//! hdm-benchmark run --workload W --seed N --seconds S --trace 0|1
//!     one run in this process; the last line printed is its result
//!     (this is the form BENCHMARK.json's command takes)
//! hdm-benchmark spread [--runs N] [--seed N] [--seconds S] [--workload W]
//!     N end-to-end runs per workload on consecutive seeds; prints each
//!     metric's quartile spread against its bound, records it
//! hdm-benchmark compare A.json B.json
//! hdm-benchmark manifest          prints BENCHMARK.json
//! ```
//!
//! Run it from the repository root.

mod check;
mod probes;
mod report;
mod run;
mod serving;
mod spec;
mod staged;
mod stats;
mod sys;
mod trace;
mod workloads;

use hdm_obs::json::JsonValue;
use report::ChildResult;
use spec::{BENCH_DIR, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

/// `--quick`: the fewest passes and the shortest probes, for smoke use.
const QUICK_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    runs: usize,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        quick: false,
        runs: 10,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(name).is_none() {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name}; known: {known:?}"));
                }
                out.workload = Some(name.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--runs" => {
                out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if out.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--quick" => out.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => out.files.push(file.to_string()),
        }
    }
    if out.quick {
        out.seconds = QUICK_SECONDS;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    let outcome = parse_args(rest).and_then(|args| match command {
        "run" if args.trace.is_some() => run_one(&args),
        "run" => run_all(&args),
        "spread" => spread(&args),
        "compare" => compare(&args),
        "manifest" => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        _ => {
            Err("usage: hdm-benchmark run|spread|compare|manifest (see benchmark/README.md)".into())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hdm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run in this process. `Ok(false)` when a result was wrong.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--trace needs --workload")?;
    let report = match args.trace {
        Some(true) => run::traced(name, args.seed, args.seconds)?,
        _ => run::end_to_end(name, args.seed, args.seconds)?,
    };
    for note in &report.notes {
        println!("{note}");
    }
    for (metric, value, unit) in &report.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    println!("{}", report.to_json());
    Ok(report.correct())
}

/// Re-execute this program for one run, so memory high-water marks and
/// allocator state do not leak between workloads. Echoes the child's
/// notes; returns its parsed result line.
fn child(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| {
        format!(
            "{name} (trace {}) printed no result; {}",
            u8::from(trace),
            output.status
        )
    })?;
    if echo {
        // Metric lines are printed again as tables; keep the notes.
        for line in lines.iter().filter(|l| !l.starts_with(&format!("{name} "))) {
            println!("  {line}");
        }
    }
    report::parse_result_line(last)
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

fn value_of(result: &ChildResult, metric: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _)| n == metric)
        .map_or(0.0, |(_, v)| *v)
}

/// Every selected workload: end-to-end run, then traced run, each in
/// its own child process; tables; `RESULTS.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let names = selected(args);
    let mut results: Vec<(&str, ChildResult, ChildResult)> = Vec::new();
    for name in &names {
        println!(
            "== {name}: end-to-end run, seed {}, {} s",
            args.seed, args.seconds
        );
        let e2e = child(name, args.seed, args.seconds, false, true)?;
        println!("== {name}: traced run");
        let traced = child(name, args.seed, args.seconds, true, true)?;
        results.push((name, e2e, traced));
    }

    println!("\n== end-to-end metrics (tracing off)");
    print!("{:<18} {:>5}", "metric", "unit");
    for name in &names {
        print!(" {name:>17}");
    }
    println!();
    for m in &END_TO_END {
        print!("{:<18} {:>5}", m.name, m.unit);
        for (_, e2e, _) in &results {
            print!(" {:>17.4}", value_of(e2e, m.name));
        }
        println!();
    }
    print!("{:<24}", "failed / attempted");
    for (_, e2e, traced) in &results {
        let cell = format!(
            "{} / {}",
            e2e.failed + traced.failed,
            e2e.attempted + traced.attempted
        );
        print!(" {cell:>17}");
    }
    println!("\n\n== per-layer metrics (traced run; 0 = layer not used by the workload)");
    print!("{:<38} {:>8}", "metric", "unit");
    for name in &names {
        print!(" {name:>17}");
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<38} {:>8}", m.name, m.unit);
        for (_, _, traced) in &results {
            print!(" {:>17.4}", value_of(traced, m.name));
        }
        println!();
    }

    let find = |name: &str| results.iter().find(|(n, _, _)| *n == name);
    if let (Some((_, d, _)), Some((_, h, _))) = (find("tpch_orc_datampi"), find("tpch_orc_hadoop"))
    {
        let (d, h) = (value_of(d, "pass_ms_p50"), value_of(h, "pass_ms_p50"));
        println!(
            "\nengine ratio: tpch_orc_datampi / tpch_orc_hadoop pass_ms_p50 = {d:.1} / {h:.1} = {:.3}",
            d / h
        );
    }

    let all_correct = results.iter().all(|(_, a, b)| a.correct && b.correct);
    if args.quick {
        println!("--quick: {BENCH_DIR}/RESULTS.json left as it is");
        return Ok(all_correct);
    }
    let info = report::RunInfo {
        seed: args.seed,
        seconds: args.seconds,
        nproc: sys::nproc(),
        rustc: sys::rustc_version(),
    };
    let blocks = results
        .iter()
        .map(|(n, e2e, traced)| (n.to_string(), report::workload_block(e2e, traced)))
        .collect();
    write_results("latest", report::results_block(&info, blocks))?;
    Ok(all_correct)
}

fn results_path() -> String {
    format!("{BENCH_DIR}/RESULTS.json")
}

fn write_results(key: &str, value: JsonValue) -> Result<(), String> {
    let path = results_path();
    let doc = report::store(report::load(&path).ok(), key, value);
    std::fs::write(&path, report::render(&doc, 0) + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: {key} updated");
    Ok(())
}

/// The acceptance measurement: `--runs` end-to-end runs per workload on
/// consecutive seeds, each metric's quartile spread against its bound.
fn spread(args: &Args) -> Result<bool, String> {
    let mut recorded = Vec::new();
    let mut steady = true;
    println!(
        "{:<18} {:<18} {:>11} {:>11} {:>11} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for name in selected(args) {
        let mut runs = Vec::with_capacity(args.runs);
        for i in 0..args.runs as u64 {
            let r = child(name, args.seed + i, args.seconds, false, false)?;
            if !r.correct {
                return Err(format!(
                    "{name} seed {}: {} failed",
                    args.seed + i,
                    r.failed
                ));
            }
            runs.push(r);
        }
        let mut members = Vec::new();
        for ((metric, med, q1, q3, spread), m) in
            report::spread_rows(&runs).into_iter().zip(&END_TO_END)
        {
            // The set-up time's spread is exempt; only its drift counts.
            let verdict = match spread {
                _ if metric == "setup_s" => "exempt",
                s if s < m.bound / 3.0 => "steady",
                s if s <= m.bound => "within bound",
                _ => "wider than bound",
            };
            steady &= verdict != "wider than bound";
            println!(
                "{name:<18} {metric:<18} {med:>11.4} {q1:>11.4} {q3:>11.4} {:>7.1}% {:>5.0}%  {verdict}",
                spread * 100.0,
                m.bound * 100.0
            );
            members.push((metric.to_string(), JsonValue::Num(spread)));
        }
        recorded.push((name.to_string(), JsonValue::Obj(members)));
    }
    if args.workload.is_none() && !args.quick {
        write_results("spread", JsonValue::Obj(recorded))?;
    }
    Ok(steady)
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let (rows, regressed) = report::compare(&report::load(a)?, &report::load(b)?);
    for row in rows {
        println!("{row}");
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_flags_parse() {
        let a = args(&[
            "--workload",
            "serving_mixed",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serving_mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, Some(true)));
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, RUN_SECONDS as f64, None)
        );
        assert_eq!(args(&["--quick"]).unwrap().seconds, QUICK_SECONDS);
        assert_eq!(args(&["a.json", "b.json"]).unwrap().files.len(), 2);
    }

    #[test]
    fn bad_flags_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--runs", "1"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
