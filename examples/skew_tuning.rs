//! Section IV-D in action: data skew on TPC-H Q9 and the
//! `hive.datampi.parallelism` knob. The paper observes that with
//! Hive's default 16 A tasks, the most loaded task processes 13x the
//! records of the least loaded; raising the parallelism to the slot
//! count cuts the stage time to ~27%.
//!
//! ```text
//! cargo run --release -p hdm-apps --example skew_tuning
//! ```

use hdm_cluster::{ClusterSpec, DataMpiSimOptions};
use hdm_core::driver::simulate_query;
use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut driver = Driver::in_memory();
    let stats = tpch::load_with_stats(&mut driver, 0.002, 7, FormatKind::Orc)?;
    let scale = 40.0e9 / stats.text_bytes as f64;
    let sql = tpch::queries::query(9);

    for mode in ["default", "enhanced"] {
        driver
            .conf_mut()
            .set(hdm_common::conf::KEY_PARALLELISM, mode);
        let result = driver.execute_on(sql, EngineKind::DataMpi)?;
        // Find the most skewed stage of the query.
        let (_worst_stage, skew, a_tasks) = result
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let max = s
                    .volumes
                    .reduces
                    .iter()
                    .map(|r| r.records)
                    .max()
                    .unwrap_or(0);
                let min = s
                    .volumes
                    .reduces
                    .iter()
                    .map(|r| r.records)
                    .min()
                    .unwrap_or(0);
                // Per partition: the unit the cluster model replays as
                // one A task at paper scale, however many tasks ran here.
                (i, max as f64 / min.max(1) as f64, s.volumes.reduces.len())
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("stages");
        let timelines = simulate_query(
            &result.stages,
            EngineKind::DataMpi,
            &ClusterSpec::default(),
            DataMpiSimOptions::default(),
            scale,
        );
        let total: f64 = timelines.iter().map(|t| t.total()).sum();
        println!(
            "parallelism={mode:<8}  worst-stage skew {skew:>5.1}x over {a_tasks:>2} partitions  \
             simulated Q9 @40GB: {total:.1}s"
        );
    }
    println!(
        "(paper: 13x skew at 16 tasks; enhanced parallelism cuts the stage to ~27% of its time)"
    );
    Ok(())
}
