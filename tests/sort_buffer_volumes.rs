//! The Hadoop engine's map-side sort buffer under pressure: a TPC-H
//! join and aggregate query with a sort buffer of a few kilobytes spills
//! many times per map task, must still return the DataMPI engine's
//! rows, and must move exactly the bytes, records and groups pinned
//! below. The pins are the volumes the timing model replays (spills,
//! spill bytes, per-reducer shuffled bytes, records, groups); a change
//! to the sort buffer's layout must not move any of them.

use hdm_common::conf;
use hdm_core::{Driver, EngineKind};
use hdm_storage::FormatKind;
use hdm_workloads::tpch;
use std::fmt::Write;

/// Q3: a shuffle join of `orders` and `lineitem` feeding a grouped
/// aggregate and a sort.
const QUERY: usize = 3;

/// The volumes the parent commit (a `KvPair` per collected pair) moved.
const PINNED: &str = "\
stage 0: spill bytes [4107, 103291, 103350, 37206] \
shuffled [15589, 18054, 15457, 16831, 15550, 16282, 14585, 15969, 17521, 17635, 17950, 14267, 14819, 13636, 16444, 16205] \
records [404, 467, 401, 437, 405, 425, 379, 417, 455, 459, 466, 372, 388, 357, 429, 419]
stage 1: spill bytes [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] shuffled [840] records [24]
stage 2: spill bytes [0] shuffled [839] records [24]
spills 60 spill bytes 247954 groups 1932
";

fn normalize(lines: Vec<String>) -> Vec<String> {
    let mut lines: Vec<String> = lines
        .into_iter()
        .map(|line| {
            let cells = line.split('\t').map(|f| match f.parse::<f64>() {
                Ok(x) if f.contains('.') => format!("{x:.5e}"),
                _ => f.to_string(),
            });
            cells.collect::<Vec<_>>().join("\t")
        })
        .collect();
    lines.sort();
    lines
}

fn counter_total(driver: &Driver, name: &str) -> u64 {
    let snapshot = driver.last_obs_snapshot().expect("obs enabled");
    let counters = snapshot.counters.iter().filter(|(n, _, _)| n == name);
    counters.map(|(_, _, v)| *v).sum()
}

#[test]
fn a_tiny_sort_buffer_spills_and_moves_the_pinned_volumes() {
    let mut driver = Driver::in_memory();
    tpch::load(&mut driver, 0.002, 20150701, FormatKind::Orc).expect("load tpch");
    let datampi = driver
        .execute_on(tpch::queries::query(QUERY), EngineKind::DataMpi)
        .expect("datampi");
    let c = driver.conf_mut();
    c.set(conf::KEY_SORT_BUFFER_BYTES, 4096);
    c.set(conf::KEY_OBS_ENABLED, true);
    let hadoop = driver
        .execute_on(tpch::queries::query(QUERY), EngineKind::Hadoop)
        .expect("hadoop");
    assert_eq!(normalize(hadoop.to_lines()), normalize(datampi.to_lines()));

    let mut got = String::new();
    for (i, stage) in hadoop.stages.iter().enumerate() {
        let v = &stage.volumes;
        let spill: Vec<u64> = v.maps.iter().map(|m| m.spill_bytes).collect();
        let shuffled: Vec<u64> = v
            .reduces
            .iter()
            .map(|r| r.shuffle_bytes_from.iter().sum())
            .collect();
        let records: Vec<u64> = v.reduces.iter().map(|r| r.records).collect();
        writeln!(
            got,
            "stage {i}: spill bytes {spill:?} shuffled {shuffled:?} records {records:?}"
        )
        .unwrap();
    }
    let spills = counter_total(&driver, "map.spills");
    writeln!(
        got,
        "spills {spills} spill bytes {} groups {}",
        counter_total(&driver, "map.spill.bytes"),
        counter_total(&driver, "reduce.groups")
    )
    .unwrap();
    print!("{got}");
    assert!(spills > 10, "a 4 KB buffer should spill: {spills}");
    assert_eq!(got, PINNED);
}
