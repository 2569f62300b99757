//! The paper's future work (§VII.3), implemented and measured:
//! "reduce the overhead of intermediate files storing by supporting DAG
//! (Directed Acyclic Graph) distributed computing models."
//!
//! With `hive.exec.pipelined = true` (the session default), a DataMPI
//! stage with one consumer commits each output partition to a
//! `StreamedIntermediate` the consumer takes from memory, instead of
//! materializing sequence files in the DFS. The figure harness pins the
//! knob off, as the paper's system ran; this binary turns it back on
//! and measures the saved intermediate I/O and the simulated end-to-end
//! effect on multi-stage queries.

use hdm_bench::{improvement_pct, pct, print_table, s1, simulate, total_secs, Workload};
use hdm_cluster::DataMpiSimOptions;
use hdm_core::EngineKind;
use hdm_storage::FormatKind;
use hdm_workloads::{hibench, tpch};

fn main() {
    let mut rows = Vec::new();
    let cases: Vec<(&str, String)> = vec![
        ("HiBench JOIN", hibench::join_query().to_string()),
        ("TPC-H Q3", tpch::queries::query(3).to_string()),
        ("TPC-H Q9", tpch::queries::query(9).to_string()),
        ("TPC-H Q18", tpch::queries::query(18).to_string()),
    ];
    for (name, sql) in cases {
        let mut w = if name.starts_with("HiBench") {
            Workload::hibench()
        } else {
            Workload::tpch(FormatKind::Orc)
        };
        let gb = if name.starts_with("HiBench") {
            20.0
        } else {
            40.0
        };

        let file_mode = w.run(&sql, EngineKind::DataMpi);
        w.driver
            .conf_mut()
            .set(hdm_common::conf::KEY_EXEC_PIPELINED, true);
        let dag_mode = w.run(&sql, EngineKind::DataMpi);
        w.driver
            .conf_mut()
            .set(hdm_common::conf::KEY_EXEC_PIPELINED, false);

        // Intermediate bytes that streamed hand-offs never materialize.
        let file_io: u64 = file_mode
            .stages
            .iter()
            .take(file_mode.stages.len().saturating_sub(1))
            .map(|s| s.volumes.total_output_bytes())
            .sum();
        let scale = w.scale_for_gb(gb);
        let file_s = total_secs(&simulate(
            &file_mode.stages,
            EngineKind::DataMpi,
            DataMpiSimOptions::default(),
            scale,
        ));
        let dag_s = total_secs(&simulate(
            &dag_mode.stages,
            EngineKind::DataMpi,
            DataMpiSimOptions::default(),
            scale,
        ));
        rows.push(vec![
            name.to_string(),
            format!("{:.2} GB", file_io as f64 * scale / 1e9),
            s1(file_s),
            s1(dag_s),
            pct(improvement_pct(file_s, dag_s)),
        ]);
    }
    print_table(
        "Future work (§VII.3): streamed intermediates vs intermediate files (DataMPI)",
        &[
            "query",
            "intermediate I/O saved",
            "files (s)",
            "streamed (s)",
            "improvement",
        ],
        &rows,
    );
    println!(
        "(results verified identical between modes by tests/scheduler.rs's pipelined arms, \
         e.g. all_22_queries_identical_pipelined_vs_materialized_on_both_engines)"
    );
}
