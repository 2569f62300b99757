//! Parked ranks cost nothing. Alone in its own test binary: the check
//! reads the whole process's CPU time, which any neighbouring test would
//! add to.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdm_mpi::{Tag, World, WorldConfig};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// User + system CPU time of this process so far, from `/proc/self/stat`.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let after_comm = stat.rsplit_once(')').expect("stat format").1;
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    // USER_HZ is 100 on every Linux ABI: one tick is 10 ms.
    Duration::from_millis(ticks * 10)
}

#[test]
fn thirty_two_parked_ranks_burn_no_cpu() {
    const RANKS: usize = 32;
    let cancel = hdm_common::CancelToken::default();
    let world = World::new(
        RANKS,
        WorldConfig {
            cancel: cancel.clone(),
            ..WorldConfig::default()
        },
    )
    .unwrap();
    let about_to_park = Arc::new(Barrier::new(RANKS + 1));
    let ranks = std::thread::spawn({
        let about_to_park = Arc::clone(&about_to_park);
        move || {
            world.run(move |mut ep| {
                about_to_park.wait();
                // Nobody ever sends: only the cancel below ends this.
                ep.recv(None, Some(Tag(1))).unwrap_err().is_cancelled()
            })
        }
    });
    about_to_park.wait();
    // Let every rank get from the barrier into its park.
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu();
    std::thread::sleep(Duration::from_millis(300));
    let burned = process_cpu() - before;
    cancel.cancel("measured");
    assert!(ranks.join().unwrap().into_iter().all(|cancelled| cancelled));
    assert!(
        burned < Duration::from_millis(10),
        "32 ranks parked for 300 ms burned {burned:?} of CPU"
    );
}
