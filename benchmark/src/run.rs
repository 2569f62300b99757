//! One workload in this process: set-up, result checks, the timed
//! passes with tracing off — or, for a traced run, a shorter untraced
//! section, the staged passes and the layer probes.

use crate::probes;
use crate::serving::{self, Serving};
use crate::spec::{self, BENCH_DIR, P99_KINDS};
use crate::staged::{self, Volumes};
use crate::stats::{geomean, median, percentile};
use crate::sys;
use crate::trace::Recorder;
use crate::workloads::{Batch, PassOutcome};
use hdm_core::EngineKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes, however short the run.
const MIN_PASSES: usize = 3;
/// Staged passes per traced run, budget allowing.
const MAX_STAGED_PASSES: usize = 3;

/// What one run reports: the last line of its standard output.
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable notes (failures first), printed above the result.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    json_number(*value)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; non-finite values (which JSON
/// cannot carry) and the empty sum's `-0` read as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A loaded workload of either shape.
enum Loaded {
    Batch(Box<Batch>),
    Serving(Box<Serving>),
}

impl Loaded {
    fn setup(name: &str, seed: u64) -> Result<Loaded, String> {
        match Batch::setup(name, seed) {
            Some(batch) => Ok(Loaded::Batch(Box::new(batch?))),
            None if name == "serving_mixed" => Ok(Loaded::Serving(Box::new(Serving::setup(seed)?))),
            None => Err(format!("unknown workload {name}")),
        }
    }

    fn kinds(&self) -> Vec<&'static str> {
        match self {
            Loaded::Batch(b) => b.kinds.iter().map(|k| k.name).collect(),
            Loaded::Serving(_) => serving::KINDS.to_vec(),
        }
    }

    /// Checks made once, after the last set-up and before timing.
    fn verify(&mut self) -> Vec<String> {
        match self {
            Loaded::Batch(b) => b.verify(),
            Loaded::Serving(_) => Vec::new(),
        }
    }

    fn pass(&mut self) -> PassOutcome {
        match self {
            Loaded::Batch(b) => b.pass(),
            Loaded::Serving(s) => s.pass(),
        }
    }

    /// Checks deferred until timing is over.
    fn verify_after(&mut self) -> Vec<String> {
        match self {
            Loaded::Batch(_) => Vec::new(),
            Loaded::Serving(s) => s.verify_adhoc(),
        }
    }
}

/// Samples of a sequence of timed passes.
#[derive(Default)]
struct Timed {
    pass_ms: Vec<f64>,
    /// Statement latencies in ms, per kind index.
    by_kind: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    cpu: sys::CpuTime,
}

impl Timed {
    /// Run whole passes until `budget` has passed (and at least
    /// [`MIN_PASSES`]).
    fn run(loaded: &mut Loaded, budget: Duration) -> Timed {
        let mut t = Timed {
            by_kind: vec![Vec::new(); loaded.kinds().len()],
            ..Timed::default()
        };
        let cpu_before = sys::cpu_time();
        let start = Instant::now();
        while t.pass_ms.len() < MIN_PASSES || start.elapsed() < budget {
            let pass = loaded.pass();
            t.pass_ms.push(pass.wall.as_secs_f64() * 1e3);
            for s in &pass.stmts {
                t.by_kind[s.kind].push(s.latency.as_secs_f64() * 1e3);
                t.attempted += 1;
                t.failed += u64::from(!s.ok);
            }
            t.failures.extend(pass.failures);
        }
        t.cpu = sys::cpu_time().since(cpu_before);
        t
    }

    fn wall_s(&self) -> f64 {
        self.pass_ms.iter().sum::<f64>() / 1e3
    }

    fn kind_medians(&self) -> Vec<f64> {
        self.by_kind.iter().map(|v| median(v)).collect()
    }
}

/// Keep the first few failure lines; say how many more there were.
fn failure_notes(failures: &[String]) -> Vec<String> {
    const SHOWN: usize = 10;
    let mut notes: Vec<String> = failures
        .iter()
        .take(SHOWN)
        .map(|f| format!("FAILED {f}"))
        .collect();
    if failures.len() > SHOWN {
        notes.push(format!("FAILED ... and {} more", failures.len() - SHOWN));
    }
    notes
}

/// The end-to-end run (`--trace 0`): every end-to-end metric of the
/// manifest, measured with tracing off.
pub fn end_to_end(name: &str, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut loaded = None;
    for _ in 0..SETUPS {
        // Free the previous cluster first, so memory holds one at a time.
        drop(loaded.take());
        let start = Instant::now();
        loaded = Some(Loaded::setup(name, seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut loaded = loaded.ok_or("no set-up ran")?;
    let mut failures = loaded.verify();
    let timed = Timed::run(&mut loaded, Duration::from_secs_f64(seconds));
    failures.extend(loaded.verify_after());
    failures.extend(timed.failures.iter().cloned());

    let pooled: Vec<f64> = timed.by_kind.iter().flatten().copied().collect();
    // A failed check outside the timed statements taints the run too.
    let failed =
        (timed.failed + (failures.len() - timed.failures.len()) as u64).min(timed.attempted);
    let correct = (timed.attempted - failed) as f64;
    let values = [
        ("setup_s", median(&setups)),
        ("pass_ms_p50", median(&timed.pass_ms)),
        ("geomean_query_ms", geomean(&timed.kind_medians())),
        ("stmt_ms_p90", percentile(&pooled, 90.0)),
        ("queries_per_s", correct / timed.wall_s()),
        (
            "cpu_ms_per_query",
            timed.cpu.total().as_secs_f64() * 1e3 / timed.attempted as f64,
        ),
        ("peak_rss_mb", sys::peak_rss_mb()),
    ];
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |v| v.1);
            (m.name.to_string(), value, m.unit)
        })
        .collect();
    let mut notes = failure_notes(&failures);
    notes.push(format!(
        "{name}: {} passes, {} statements, kinds {:?}, medians ms {:?}",
        timed.pass_ms.len(),
        timed.attempted,
        loaded.kinds(),
        timed.kind_medians()
    ));
    notes.push(format!(
        "{name}: cpu user {:.2}s sys {:.2}s over {:.2}s of passes; set-ups {:?}",
        timed.cpu.user.as_secs_f64(),
        timed.cpu.sys.as_secs_f64(),
        timed.wall_s(),
        setups
    ));
    Ok(RunReport {
        attempted: timed.attempted,
        failed,
        metrics,
        notes,
    })
}

/// What the staged passes measured.
#[derive(Default)]
struct Staged {
    passes: usize,
    statements: usize,
    wall_ms: Vec<f64>,
    volumes: Volumes,
    failures: Vec<String>,
}

impl Staged {
    /// One staged pass: the workload's schedule, driven from outside.
    fn pass(&mut self, loaded: &Loaded, rec: &mut Recorder, seed: u64) {
        let start = Instant::now();
        match loaded {
            Loaded::Batch(b) => {
                for (idx, kind) in b.kinds.iter().enumerate() {
                    self.statements += 1;
                    self.failures.extend(staged::run_checked(
                        rec,
                        &b.driver,
                        b.engine,
                        kind.name,
                        &kind.sql,
                        kind.ordered,
                        Some(b.reference(idx)),
                        &mut self.volumes,
                    ));
                    if let Some(cleanup) = kind.cleanup {
                        if let Err(e) = b.driver.execute_on(cleanup, b.engine) {
                            self.failures
                                .push(format!("staged {} cleanup: {e}", kind.name));
                        }
                    }
                }
            }
            Loaded::Serving(s) => {
                // Session t0's schedule for a pass far beyond any timed
                // one (fresh adhoc texts and insert keys), on the base
                // driver: no admission, no result cache, one thread.
                let far = (1 << 20) + self.passes as u64;
                for item in serving::schedule(seed, far, 0) {
                    self.statements += 1;
                    self.failures.extend(staged::run_checked(
                        rec,
                        s.driver(),
                        EngineKind::DataMpi,
                        item.kind_name(),
                        &item.sql(),
                        false,
                        None,
                        &mut self.volumes,
                    ));
                }
            }
        }
        self.passes += 1;
        self.wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
}

/// The traced run (`--trace 1`): every per-layer metric of the manifest.
pub fn traced(name: &str, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let run_start = Instant::now();
    let mut loaded = Loaded::setup(name, seed)?;
    let mut failures = loaded.verify();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();

    // ---- untraced section: per-kind latencies and server counters ----
    let stats_before = match &loaded {
        Loaded::Serving(s) => Some((s.server.stats(), s.server.result_cache_stats())),
        Loaded::Batch(_) => None,
    };
    let timed = Timed::run(&mut loaded, Duration::from_secs_f64(seconds * 0.3));
    failures.extend(timed.failures.iter().cloned());
    failures.extend(loaded.verify_after());
    for ((kind, median), samples) in loaded
        .kinds()
        .iter()
        .zip(timed.kind_medians())
        .zip(&timed.by_kind)
    {
        values.insert(format!("core.driver.query_ms.{kind}"), median);
        if P99_KINDS.contains(kind) {
            values.insert(
                format!("core.driver.query_ms_p99.{kind}"),
                percentile(samples, 99.0),
            );
        }
    }
    if let (Loaded::Serving(s), Some((before, rc_before))) = (&loaded, stats_before) {
        let after = s.server.stats();
        let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
        let hits = after.result_hits - before.result_hits;
        let misses = after.result_misses - before.result_misses;
        values.insert(
            "server.result_cache.hit_share".into(),
            share(hits, hits + misses),
        );
        let (rc, rc0) = (s.server.result_cache_stats(), rc_before);
        if let (Some(rc), Some(rc0)) = (rc, rc0) {
            values.insert(
                "server.result_cache.invalidations".into(),
                (rc.invalidations - rc0.invalidations) as f64,
            );
            values.insert("server.result_cache.entries".into(), rc.entries as f64);
        }
        if let (Some(io), Some(io0)) = (after.io, before.io) {
            let (h, m) = (io.hits - io0.hits, io.misses - io0.misses);
            values.insert("storage.cache.hit_share".into(), share(h, h + m));
            values.insert(
                "storage.cache.evictions".into(),
                (io.evictions - io0.evictions) as f64,
            );
            values.insert("storage.cache.bytes".into(), io.bytes as f64 / 1e6);
        }
        let admitted = after.admitted - before.admitted;
        values.insert(
            "server.admission.queued_share".into(),
            share(after.queued - before.queued, admitted),
        );
        values.insert(
            "server.admission.rejected".into(),
            (after.rejected - before.rejected) as f64,
        );
    }

    // ---- staged passes: spans around the calls into each layer ----
    let mut rec = Recorder::new();
    let mut staged = Staged::default();
    let staged_budget = Duration::from_secs_f64(seconds * 0.2);
    let staged_start = Instant::now();
    while staged.passes == 0
        || (staged.passes < MAX_STAGED_PASSES && staged_start.elapsed() < staged_budget)
    {
        staged.pass(&loaded, &mut rec, seed);
    }
    failures.extend(staged.failures.iter().cloned());
    let (passes, statements) = (staged.passes as f64, staged.statements as f64);
    let per_stmt_us = |span: &str| rec.total_us(span) / statements;
    values.insert(
        "core.parser.parse_us".into(),
        per_stmt_us(staged::SPAN_PARSE),
    );
    values.insert(
        "core.logical.analyze_us".into(),
        per_stmt_us(staged::SPAN_ANALYZE),
    );
    values.insert(
        "core.physical.plan_us".into(),
        per_stmt_us(staged::SPAN_PLAN),
    );
    for kind in ["map-only", "join", "aggregate", "sort"] {
        let span = format!("{}{kind}", staged::SPAN_STAGE_PREFIX);
        values.insert(
            format!("core.engine.stage_ms.{kind}"),
            rec.total_us(&span) / 1e3 / passes,
        );
    }
    values.insert(
        "core.engine.collect_ms".into(),
        rec.total_us(staged::SPAN_COLLECT) / 1e3 / passes,
    );
    let v = staged.volumes;
    for (metric, total) in [
        ("core.engine.input_mb", v.input_bytes as f64 / 1e6),
        ("core.engine.shuffle_mb", v.shuffle_bytes as f64 / 1e6),
        ("core.engine.output_mb", v.output_bytes as f64 / 1e6),
        ("core.engine.map_tasks", v.map_tasks as f64),
        ("core.engine.reduce_tasks", v.reduce_tasks as f64),
    ] {
        values.insert(metric.into(), total / passes);
    }
    values.insert(
        "core.driver.staged_over_e2e".into(),
        median(&staged.wall_ms) / median(&timed.pass_ms),
    );
    values.insert("bench.span_overhead_us".into(), staged::span_overhead_us());

    // How much of each statement's wall time its child spans explain.
    let (mut roots_us, mut root_self_us) = (0.0, 0.0);
    for (idx, span) in rec.spans().iter().enumerate() {
        if span.parent.is_none() {
            roots_us += span.dur_us();
            root_self_us += rec.self_time_us(idx);
        }
    }
    let trace_path = format!("{BENCH_DIR}/out/trace-{name}.json");
    let written = std::fs::create_dir_all(format!("{BENCH_DIR}/out"))
        .and_then(|()| std::fs::write(&trace_path, rec.chrome_trace(&format!("staged {name}"))));

    // ---- layer probes: whatever is left of the run, split evenly ----
    let left = Duration::from_secs_f64((seconds - run_start.elapsed().as_secs_f64()).max(0.0));
    let probe_start = Instant::now();
    for (metric, value) in probes::run_all(seed, left).map_err(|e| format!("probes: {e}"))? {
        values.insert(metric.to_string(), value);
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            // A layer this workload does not use reads 0.
            let value = values.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), value, m.unit)
        })
        .collect();
    let attempted = timed.attempted + staged.statements as u64;
    let failed = (failures.len() as u64).min(attempted);
    let mut notes = failure_notes(&failures);
    notes.push(format!(
        "{name}: untraced {} passes; staged {} passes of {} statements; child spans cover {:.1}% of staged statement time",
        timed.pass_ms.len(),
        staged.passes,
        staged.statements / staged.passes.max(1),
        100.0 * (1.0 - root_self_us / roots_us.max(1.0))
    ));
    // Per kind: staged statement time over untraced latency. Below 1,
    // what default scheduling (parallel stages, streamed edges) adds.
    let ratios: Vec<String> = loaded
        .kinds()
        .iter()
        .zip(timed.kind_medians())
        .map(|(kind, untraced_ms)| {
            let name = format!("{}{kind}", staged::SPAN_STATEMENT_PREFIX);
            let staged_ms: Vec<f64> = rec
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us() / 1e3)
                .collect();
            format!("{kind} {:.2}", median(&staged_ms) / untraced_ms)
        })
        .collect();
    notes.push(format!(
        "{name}: staged over untraced, per kind: {}",
        ratios.join(", ")
    ));
    for (span, self_us) in rec.self_time_by_name() {
        notes.push(format!(
            "{name}: self time {span} {:.3} ms/pass",
            self_us / 1e3 / passes
        ));
    }
    notes.push(match written {
        Ok(()) => format!("{name}: staged trace written to {trace_path}"),
        Err(e) => format!("{name}: could not write {trace_path}: {e}"),
    });
    notes.push(format!(
        "{name}: probes took {:.1}s of the {:.1}s left",
        probe_start.elapsed().as_secs_f64(),
        left.as_secs_f64()
    ));
    Ok(RunReport {
        attempted,
        failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = RunReport {
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("latency_ms".into(), 1.2034, "ms"),
                ("broken".into(), f64::NAN, "ms"),
            ],
            notes: Vec::new(),
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let doc = hdm_obs::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms").unwrap().get("value").unwrap().as_f64(),
            Some(1.2034)
        );
        assert_eq!(
            m.get("latency_ms").unwrap().get("unit").unwrap().as_str(),
            Some("ms")
        );
        assert_eq!(
            m.get("broken").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(Loaded::setup("nope", 1).is_err());
    }
}
