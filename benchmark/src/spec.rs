//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics, and the `BENCHMARK.json`
//! manifest rendered from them.

use crate::trace::json_string;

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 20;
/// Default workload seed (the paper's publication date, as elsewhere in
/// this repository).
pub const DEFAULT_SEED: u64 = 20150701;
/// TPC-H generator scale of every TPC-H workload (60 k `lineitem` rows).
pub const TPCH_SCALE: f64 = 0.01;
/// The directory that holds the benchmark and nothing else.
pub const BENCH_DIR: &str = "benchmark";

/// One set of inputs the benchmark runs.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Closed-loop client threads; never more than the runner's cores.
    pub clients: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "tpch_orc_datampi",
        clients: 1,
        why: "The paper's system on its best format: vectorized ORC scans with stripe pruning, join chains through the pipelined scheduler and streamed intermediates, CTAS and DISTINCT (q1 q3 q6 q9 q12 q21).",
    },
    WorkloadSpec {
        name: "tpch_orc_hadoop",
        clients: 1,
        why: "Same data, plans and operators with datampi, mpisim, streams and soft-edge scheduling bypassed: a DataMPI-side change predicts no move here; a mapred or shared-operator change shows.",
    },
    WorkloadSpec {
        name: "tpch_text_scan",
        clients: 1,
        why: "Text line decode and the row-at-a-time pipeline do most of the work (q1 q6 q12 q14); ORC decode, stripe pruning and batch kernels are bypassed. Table II's Text-vs-ORC contrast.",
    },
    WorkloadSpec {
        name: "hibench_shuffle",
        clients: 1,
        why: "The paper's Fig. 9 workload, the most shuffle-weighted: Zipf AGGREGATE and JOIN, a near-unique-key repartition nothing combines map-side, and an ORC CTAS as the write-side use of storage.",
    },
    WorkloadSpec {
        name: "serving_mixed",
        clients: 2,
        why: "Two closed-loop sessions behind hdm-server: 60% repeated dashboard queries (result-cache hits), 30% never-seen ad-hoc scans (ORC byte-cache hits), 10% one-row inserts that invalidate results.",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. `bound` is the share of the
/// parent commit's median by which it may worsen before a change counts
/// as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports all of these, measured with tracing off.
///
/// There is deliberately no failure-share metric here: it is expected to
/// be exactly 0, and a bound that is a share of 0 cannot be checked.
/// Failures (errors and wrong results) are reported as `failed` out of
/// `attempted` in every run's result line instead.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "geomean_query_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stmt_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A metric of a single layer (a crate or module of this repository).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The kinds whose p99 is also reported (only `serving_mixed` has the
/// thousands of samples a p99 needs).
pub const P99_KINDS: [&str; 3] = ["dash", "adhoc", "insert"];

/// Every traced run reports all of these; a metric of a layer the
/// workload does not use reads 0.
pub const PER_LAYER: [PerLayer; 72] = [
    // ---- staged traced run: spans around the calls into each layer ----
    lower("core.parser.parse_us", "us"),
    lower("core.logical.analyze_us", "us"),
    lower("core.physical.plan_us", "us"),
    lower("core.engine.stage_ms.map-only", "ms"),
    lower("core.engine.stage_ms.join", "ms"),
    lower("core.engine.stage_ms.aggregate", "ms"),
    lower("core.engine.stage_ms.sort", "ms"),
    lower("core.engine.collect_ms", "ms"),
    lower("core.engine.input_mb", "MB"),
    lower("core.engine.shuffle_mb", "MB"),
    lower("core.engine.output_mb", "MB"),
    lower("core.engine.map_tasks", "count"),
    lower("core.engine.reduce_tasks", "count"),
    lower("core.driver.query_ms.q1", "ms"),
    lower("core.driver.query_ms.q3", "ms"),
    lower("core.driver.query_ms.q6", "ms"),
    lower("core.driver.query_ms.q9", "ms"),
    lower("core.driver.query_ms.q12", "ms"),
    lower("core.driver.query_ms.q14", "ms"),
    lower("core.driver.query_ms.q21", "ms"),
    lower("core.driver.query_ms.aggregate", "ms"),
    lower("core.driver.query_ms.join", "ms"),
    lower("core.driver.query_ms.repartition", "ms"),
    lower("core.driver.query_ms.ctas_orc", "ms"),
    lower("core.driver.query_ms.dash", "ms"),
    lower("core.driver.query_ms.adhoc", "ms"),
    lower("core.driver.query_ms.insert", "ms"),
    lower("core.driver.query_ms_p99.dash", "ms"),
    lower("core.driver.query_ms_p99.adhoc", "ms"),
    lower("core.driver.query_ms_p99.insert", "ms"),
    lower("core.driver.staged_over_e2e", "ratio"),
    lower("bench.span_overhead_us", "us"),
    // ---- layer probes: repeated calls into one layer's public API ----
    lower("storage.orc.plan_splits_us", "us"),
    higher("storage.orc.pruned_stripe_share", "ratio"),
    higher("storage.orc.read_columns_mb_s", "MB/s"),
    higher("storage.orc.read_rows_mb_s", "MB/s"),
    higher("storage.orc.write_mb_s", "MB/s"),
    higher("storage.text.read_rows_mb_s", "MB/s"),
    higher("storage.text.write_mb_s", "MB/s"),
    higher("storage.seq.write_mb_s", "MB/s"),
    higher("storage.seq.read_mb_s", "MB/s"),
    higher("dfs.read_range_mb_s", "MB/s"),
    higher("dfs.write_mb_s", "MB/s"),
    higher("core.batch.filter_mrows_s", "Mrows/s"),
    higher("core.batch.project_mrows_s", "Mrows/s"),
    higher("core.batch.group_mrows_s", "Mrows/s"),
    higher("core.expr.row_filter_mrows_s", "Mrows/s"),
    higher("core.operators.row_group_mrows_s", "Mrows/s"),
    higher("core.operators.join_group_mrows_s", "Mrows/s"),
    higher("common.sortkey.encode_mkeys_s", "Mkeys/s"),
    higher("common.sortkey.decode_mkeys_s", "Mkeys/s"),
    higher("datampi.buffer.spl_push_mpairs_s", "Mpairs/s"),
    higher("datampi.buffer.decode_mpairs_s", "Mpairs/s"),
    lower("datampi.job.startup_ms", "ms"),
    higher("datampi.job.shuffle_mb_s", "MB/s"),
    lower("mpisim.pingpong_us", "us"),
    higher("mpisim.isend_mb_s", "MB/s"),
    lower("mapred.job.startup_ms", "ms"),
    higher("mapred.job.shuffle_mb_s", "MB/s"),
    higher("mapred.sort.sort_mpairs_s", "Mpairs/s"),
    higher("mapred.sort.merge_mpairs_s", "Mpairs/s"),
    lower("core.sched.dispatch_us_per_stage", "us"),
    lower("core.stream.handoff_us_per_partition", "us"),
    lower("server.admission.admit_us", "us"),
    // ---- server counters: deltas over the untraced timed passes ----
    higher("server.result_cache.hit_share", "ratio"),
    lower("server.result_cache.invalidations", "count"),
    lower("server.result_cache.entries", "count"),
    higher("storage.cache.hit_share", "ratio"),
    lower("storage.cache.evictions", "count"),
    lower("storage.cache.bytes", "MB"),
    lower("server.admission.queued_share", "ratio"),
    lower("server.admission.rejected", "count"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract lists.
pub fn manifest_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    r#"{{"name": {}, "why": {}}}"#,
                    json_string(w.name),
                    json_string(w.why)
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    r#"{{"name": {}, "unit": {}, "better": {}, "bound": {}}}"#,
                    json_string(m.name),
                    json_string(m.unit),
                    json_string(m.better.as_str()),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    r#"{{"name": {}, "unit": {}, "better": {}}}"#,
                    json_string(m.name),
                    json_string(m.unit),
                    json_string(m.better.as_str())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {per_layer}\n  ]\n}}\n",
        command.map(json_string).join(", "),
        json_string(BENCH_DIR),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every statement kind any workload runs, in manifest order.
    const KINDS: [&str; 14] = [
        "q1",
        "q3",
        "q6",
        "q9",
        "q12",
        "q14",
        "q21",
        "aggregate",
        "join",
        "repartition",
        "ctas_orc",
        "dash",
        "adhoc",
        "insert",
    ];

    /// The manifest's rule for names: starts with a letter or digit, at most
    /// 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// The manifest's rule for units: 1..=16 of letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn name_charset() {
        for good in ["q1", "core.engine.stage_ms.map-only", "a_b", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "a/b",
            "caf\u{e9}",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("MB/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn registry_obeys_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "name used twice: {name}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let serving = workload("serving_mixed").unwrap();
        assert_eq!(serving.clients, crate::serving::CLIENTS);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // Every kind has its latency metric.
        for kind in KINDS {
            let name = format!("core.driver.query_ms.{kind}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let text = manifest_json();
        assert!(text.len() <= 64 * 1024);
        let doc = hdm_obs::json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("per_layer").unwrap().as_arr().unwrap().len(), 72);
    }

    /// The checked-in manifest is this registry, rendered.
    #[test]
    fn checked_in_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `run manifest > BENCHMARK.json`"
        );
    }
}
