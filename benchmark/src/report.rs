//! Result files: `benchmark/RESULTS.json` (latest results with the
//! previous ones kept beside them, plus the observed run-to-run
//! spread), and `compare` between two such files.

use crate::run::json_number;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread, quartiles};
use crate::trace::json_string;
use hdm_obs::json::JsonValue;

/// One child run's parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Parse the contract's result line (the last line a run prints).
pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = hdm_obs::json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("result line has no number {key:?}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .ok_or("result line has no metrics object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(JsonValue::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(JsonValue::Bool(true))),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Render a JSON tree, two-space indented, objects in source order.
pub fn render(v: &JsonValue, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => json_number(*n),
        JsonValue::Str(s) => json_string(s),
        JsonValue::Arr(items) if items.is_empty() => "[]".to_string(),
        JsonValue::Arr(items) => {
            let body: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", render(i, indent + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        JsonValue::Obj(members) if members.is_empty() => "{}".to_string(),
        JsonValue::Obj(members) => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", json_string(k), render(v, indent + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
    }
}

fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_map(metrics: &[(String, f64)]) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|(n, v)| (n.clone(), JsonValue::Num(*v)))
            .collect(),
    )
}

/// One workload's block of a results file.
pub fn workload_block(end_to_end: &ChildResult, per_layer: &ChildResult) -> JsonValue {
    obj(vec![
        (
            "attempted",
            JsonValue::Num((end_to_end.attempted + per_layer.attempted) as f64),
        ),
        (
            "failed",
            JsonValue::Num((end_to_end.failed + per_layer.failed) as f64),
        ),
        ("end_to_end", metric_map(&end_to_end.metrics)),
        ("per_layer", metric_map(&per_layer.metrics)),
    ])
}

/// Facts about the run that produced a results block.
pub struct RunInfo {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub rustc: String,
}

/// A results block: where and how it was measured, then the workloads.
pub fn results_block(info: &RunInfo, workloads: Vec<(String, JsonValue)>) -> JsonValue {
    obj(vec![
        ("seed", JsonValue::Num(info.seed as f64)),
        ("seconds", JsonValue::Num(info.seconds)),
        ("nproc", JsonValue::Num(info.nproc as f64)),
        ("rustc", JsonValue::Str(info.rustc.clone())),
        ("workloads", JsonValue::Obj(workloads)),
    ])
}

/// Put `value` under `key` of a results document, keeping the rest.
/// Storing `latest` moves the old `latest` to `previous`, so the
/// trajectory lives in the file.
pub fn store(doc: Option<JsonValue>, key: &str, value: JsonValue) -> JsonValue {
    let mut members = match doc {
        Some(JsonValue::Obj(members)) => members,
        _ => Vec::new(),
    };
    if key == "latest" {
        if let Some(pos) = members.iter().position(|(k, _)| k == "latest") {
            let (_, old) = members.remove(pos);
            members.retain(|(k, _)| k != "previous");
            members.push(("previous".to_string(), old));
        }
    }
    match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = value,
        None => members.insert(0, (key.to_string(), value)),
    }
    JsonValue::Obj(members)
}

pub fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    hdm_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Spread of each end-to-end metric over several runs of one workload:
/// rows of `(metric, median, q1, q3, spread)`.
pub fn spread_rows(runs: &[ChildResult]) -> Vec<(&'static str, f64, f64, f64, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let (q1, q3) = quartiles(&values).unwrap_or((0.0, 0.0));
            (m.name, median(&values), q1, q3, quartile_spread(&values))
        })
        .collect()
}

/// How a metric of B stands against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The recorded run-to-run spread is wider than the bound, so a
    /// difference inside the bound shows nothing either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(worse_by: f64, bound: f64, spread: Option<f64>) -> Verdict {
    if worse_by > bound {
        Verdict::Regressed
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn lookup<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(doc, |v, key| v.get(key))
}

/// `compare A.json B.json`: one row per workload and end-to-end metric,
/// B against A, then the exact-count layer metrics that differ.
/// Returns the printed rows and whether anything regressed.
pub fn compare(a: &JsonValue, b: &JsonValue) -> (Vec<String>, bool) {
    let mut rows = vec![format!(
        "{:<18} {:<18} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    )];
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let value = |doc| {
                lookup(doc, &["latest", "workloads", w.name, "end_to_end", m.name])
                    .and_then(JsonValue::as_f64)
            };
            let (Some(va), Some(vb)) = (value(a), value(b)) else {
                continue;
            };
            let spread = [a, b]
                .iter()
                .filter_map(|doc| lookup(doc, &["spread", w.name, m.name])?.as_f64())
                .reduce(f64::max);
            let worse = worse_by(va, vb, m.better);
            let v = verdict(worse, m.bound, spread);
            regressed |= v == Verdict::Regressed;
            rows.push(format!(
                "{:<18} {:<18} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}% {:>8}  {}",
                w.name,
                m.name,
                va,
                vb,
                worse * 100.0,
                m.bound * 100.0,
                spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
                v.as_str()
            ));
        }
        // Counts repeat exactly only with a single client: with two, what
        // the tables hold when the staged pass runs depends on timing.
        let exact = PER_LAYER
            .iter()
            .filter(|m| w.clients == 1 && is_exact_count(m.name));
        for m in exact {
            let value = |doc| {
                lookup(doc, &["latest", "workloads", w.name, "per_layer", m.name])
                    .and_then(JsonValue::as_f64)
            };
            if let (Some(va), Some(vb)) = (value(a), value(b)) {
                if va != vb {
                    rows.push(format!(
                        "{:<18} {:<30} exact count differs: {va} vs {vb}",
                        w.name, m.name
                    ));
                }
            }
        }
        for doc in [a, b] {
            let failed = lookup(doc, &["latest", "workloads", w.name, "failed"])
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            if failed > 0.0 {
                regressed = true;
                rows.push(format!("{:<18} {failed} statements failed", w.name));
            }
        }
    }
    (rows, regressed)
}

/// Layer metrics that are counts made by the program on a single client,
/// so two runs of one commit must agree exactly.
pub fn is_exact_count(metric: &str) -> bool {
    matches!(
        metric,
        "core.engine.input_mb"
            | "core.engine.shuffle_mb"
            | "core.engine.output_mb"
            | "core.engine.map_tasks"
            | "core.engine.reduce_tasks"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let r = parse_result_line(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (1000, 0));
        assert_eq!(
            r.metrics,
            vec![
                ("latency_ms".to_string(), 1.2034),
                ("setup_s".to_string(), 0.8127)
            ]
        );
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line(r#"{"correct": true}"#).is_err());
    }

    #[test]
    fn rendered_trees_parse_back() {
        let tree = obj(vec![
            ("a", JsonValue::Num(1.5)),
            (
                "b",
                JsonValue::Arr(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
            ("c \"quoted\"", obj(vec![])),
            ("d", JsonValue::Arr(vec![])),
        ]);
        assert_eq!(hdm_obs::json::parse(&render(&tree, 0)).unwrap(), tree);
    }

    #[test]
    fn storing_latest_keeps_exactly_one_previous() {
        let n = JsonValue::Num;
        let doc = store(None, "latest", n(1.0));
        assert_eq!(doc.get("previous"), None);
        let doc = store(Some(doc), "spread", n(9.0));
        let doc = store(Some(doc), "latest", n(2.0));
        let doc = store(Some(doc), "latest", n(3.0));
        assert_eq!(doc.get("latest"), Some(&n(3.0)));
        assert_eq!(doc.get("previous"), Some(&n(2.0)));
        assert_eq!(doc.get("spread"), Some(&n(9.0)));
        assert_eq!(doc.as_obj().unwrap().len(), 3);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert!((worse_by(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 88.0, Better::Higher) - 0.12).abs() < 1e-12);
        assert!(worse_by(100.0, 88.0, Better::Lower) < 0.0);
        assert_eq!(verdict(0.12, 0.10, None), Verdict::Regressed);
        assert_eq!(verdict(0.12, 0.10, Some(0.5)), Verdict::Regressed);
        assert_eq!(verdict(0.05, 0.10, Some(0.02)), Verdict::Ok);
        assert_eq!(verdict(0.05, 0.10, Some(0.2)), Verdict::Unresolved);
        assert_eq!(verdict(-0.3, 0.10, None), Verdict::Ok);
    }

    fn results(pass_ms: f64, map_tasks: f64) -> JsonValue {
        let e2e = ChildResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("pass_ms_p50".into(), pass_ms)],
        };
        let layer = ChildResult {
            metrics: vec![("core.engine.map_tasks".into(), map_tasks)],
            ..e2e.clone()
        };
        let info = RunInfo {
            seed: 1,
            seconds: 1.0,
            nproc: 2,
            rustc: "rustc".into(),
        };
        let block = results_block(
            &info,
            vec![("tpch_orc_hadoop".to_string(), workload_block(&e2e, &layer))],
        );
        store(None, "latest", block)
    }

    #[test]
    fn compare_flags_regressions_and_differing_counts() {
        let (rows, regressed) = compare(&results(100.0, 7.0), &results(104.0, 7.0));
        assert!(!regressed);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].ends_with("ok"), "{}", rows[1]);
        let (rows, regressed) = compare(&results(100.0, 7.0), &results(140.0, 8.0));
        assert!(regressed);
        assert!(rows[1].ends_with("regressed"), "{}", rows[1]);
        assert!(
            rows[2].contains("exact count differs: 7 vs 8"),
            "{}",
            rows[2]
        );
    }

    #[test]
    fn spread_rows_use_python_quartiles() {
        let runs: Vec<ChildResult> = (1..=10)
            .map(|i| ChildResult {
                correct: true,
                attempted: 1,
                failed: 0,
                metrics: vec![("setup_s".into(), f64::from(i))],
            })
            .collect();
        let rows = spread_rows(&runs);
        let (name, med, q1, q3, spread) = rows[0];
        assert_eq!(name, "setup_s");
        assert_eq!((med, q1, q3), (5.5, 2.75, 8.25));
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
