//! The A-side receive engine.
//!
//! An A process receives partitions the whole time O tasks run —
//! "receiving processes in DataMPI have threads responsible for
//! collecting and merging data … without any O tasks finished. In this
//! way, DataMPI can cache most of the intermediate data in memory by
//! default" (Section IV-B). Received pairs accumulate in an in-memory
//! cache bounded by the `hive.datampi.memusedpercent` budget; when the
//! budget is exceeded the cache is sorted and sealed as a *spill run*
//! (the disk-spill analogue, with bytes tracked for the timing model).
//! Once the `DONE` arrives (every O task has ended, see
//! [`crate::shuffle::Completion`]), the runs and the live cache are
//! merged into sorted key groups for the A function.

use crate::buffer::SendPartition;
use crate::report::ATaskStats;
use crate::shuffle::{read_count, tags};
use crate::ShuffleStyle;
use bytes::Bytes;
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{ComparatorRef, KvPair};
use hdm_faults::{FaultPlan, Site};
use hdm_mpi::Endpoint;
use std::time::Instant;

/// Sorted key groups produced by the merge: `(key, values)` in key order.
pub type KeyGroups = Vec<(Bytes, Vec<Bytes>)>;

/// A cached pair tagged with its provenance — `(source O rank, position
/// in that source's stream)`. The tag breaks comparator ties in the
/// spill sorts and the final merge, making the merged order a pure
/// function of what each O task sent: MPI arrival interleaving across
/// sources must never reorder a key's values, or float aggregation
/// accumulates in a different order on every run and results drift at
/// the ULP level between runs (and between scheduler modes).
type Tagged = ((usize, u64), KvPair);

/// `(key, provenance)` ordering over tagged pairs.
fn cmp_tagged(a: &Tagged, b: &Tagged, comparator: &ComparatorRef) -> std::cmp::Ordering {
    comparator
        .compare(&a.1.key, &b.1.key)
        .then_with(|| a.0.cmp(&b.0))
}

/// Per-O-source staging used when fault tolerance is enabled. A source's
/// pairs are committed to the shared cache only once its `COMMIT` proves
/// the attempt's stream arrived complete; an ABORT (or a higher-attempt
/// replay) discards the staged partials of the aborted attempt, and so
/// does the end of the job for a source that never committed here.
#[derive(Default)]
struct StagedSrc {
    pairs: Vec<KvPair>,
    bytes: u64,
    msgs: u32,
    attempt: u32,
}

/// The in-memory cache: admitted pairs with their provenance, and the
/// sorted runs spilled once the cache outgrew its budget.
struct Cache<'c> {
    live: Vec<Tagged>,
    bytes: u64,
    runs: Vec<Vec<Tagged>>,
    /// Next provenance sequence number per O source.
    seqs: Vec<u64>,
    budget: u64,
    comparator: &'c ComparatorRef,
}

impl Cache<'_> {
    /// Admit `src`'s `pairs` (`bytes` of payload); returns whether the
    /// cache then spilled as a sorted run.
    fn admit(
        &mut self,
        src: usize,
        pairs: Vec<KvPair>,
        bytes: u64,
        stats: &mut ATaskStats,
    ) -> Result<bool> {
        let seq = self.seqs.get_mut(src).ok_or_else(|| {
            HdmError::DataMpi(format!(
                "A{} received data from unexpected rank {src}",
                stats.rank
            ))
        })?;
        stats.records += pairs.len() as u64;
        stats.bytes += bytes;
        self.bytes += bytes;
        for kv in pairs {
            self.live.push(((src, *seq), kv));
            *seq += 1;
        }
        stats.cache_peak = stats.cache_peak.max(self.bytes);
        if self.bytes <= self.budget {
            return Ok(false);
        }
        let mut run = std::mem::take(&mut self.live);
        run.sort_by(|a, b| cmp_tagged(a, b, self.comparator));
        stats.spill.record_spill(self.bytes);
        self.bytes = 0;
        self.runs.push(run);
        Ok(true)
    }
}

/// Receive until the `DONE`, then merge into key groups.
///
/// When `faults` is enabled, incoming data is staged per source and
/// committed on `COMMIT`; the commit's message count is checked against
/// what actually arrived, and the `DONE`'s commit count against the
/// commits that arrived, so a dropped message surfaces as an error
/// instead of silent data loss.
///
/// # Errors
/// [`HdmError::DataMpi`] if the stream is malformed, a drop is detected,
/// or MPI fails.
#[allow(clippy::too_many_arguments)] // thin task entry point; mirrors the engine's knobs
pub fn run_receiver(
    ep: &mut Endpoint,
    o_tasks: usize,
    style: ShuffleStyle,
    mem_budget_bytes: usize,
    comparator: &ComparatorRef,
    stats: &mut ATaskStats,
    faults: &FaultPlan,
    obs: &hdm_obs::ObsHandle,
) -> Result<KeyGroups> {
    let start = Instant::now();
    let ft = faults.is_enabled();
    let mut staged: Vec<StagedSrc> = Vec::new();
    if ft {
        staged.resize_with(o_tasks, StagedSrc::default);
    }
    // Buffer-manager probe handles, fetched once: cache occupancy gauge
    // plus stride-sampled counter points for the resource trace.
    let track = format!("A{}", stats.rank);
    let label = format!("rank={}", stats.rank);
    let obs_cache = obs.gauge("a.cache.bytes", &label);
    let obs_spills = obs.counter("a.spills", &label);
    let recv_span = obs.span(&track, "phase", "receive");
    let mut msgs = 0u64;
    let mut cache = Cache {
        live: Vec::new(),
        bytes: 0,
        runs: Vec::new(),
        seqs: vec![0; o_tasks],
        budget: mem_budget_bytes as u64,
        comparator,
    };
    let admit = |cache: &mut Cache<'_>, src, pairs, bytes, stats: &mut ATaskStats| {
        let spilled = cache.admit(src, pairs, bytes, stats)?;
        if obs.is_enabled() {
            obs_cache.set(cache.bytes as i64);
            if spilled {
                obs_spills.add(1);
            }
        }
        Ok::<(), HdmError>(())
    };
    let mut commits = 0u32;
    let expected_commits = loop {
        let msg = ep.recv(None, None).map_err(|e| {
            HdmError::DataMpi(format!(
                "A{} receive failed: {e} (the O side never sent DONE?)",
                stats.rank
            ))
        })?;
        let (base, attempt) = tags::split(msg.tag);
        stats.wire.count(base);
        let src = msg.src;
        match base {
            tags::DATA if ft => {
                // The blocking sender waits on acks even for rounds the
                // receiver will discard, so acknowledge before judging.
                if style == ShuffleStyle::Blocking {
                    ep.send(src, tags::ACK, Bytes::new())?;
                }
                let Some(slot) = staged.get_mut(src) else {
                    return Err(HdmError::DataMpi(format!(
                        "A{} received DATA from unexpected rank {src}",
                        stats.rank
                    )));
                };
                if attempt < slot.attempt {
                    continue; // stale replay of an aborted attempt
                }
                if attempt > slot.attempt {
                    // First message of a replay whose ABORT we have not
                    // seen (it may have been dropped): discard the
                    // aborted attempt's partials.
                    *slot = StagedSrc {
                        attempt,
                        ..StagedSrc::default()
                    };
                }
                let pairs = SendPartition::decode_payload(&msg.payload)?;
                slot.bytes += msg.payload.len() as u64;
                slot.msgs += 1;
                slot.pairs.extend(pairs);
                msgs += 1;
                if obs.is_enabled() && obs.should_sample(msgs) {
                    obs.sample(&track, "staged_bytes", slot.bytes);
                }
            }
            tags::DATA => {
                let pairs = SendPartition::decode_payload(&msg.payload)?;
                admit(&mut cache, src, pairs, msg.payload.len() as u64, stats)?;
                msgs += 1;
                if obs.should_sample(msgs) {
                    obs.sample(&track, "cache_bytes", cache.bytes);
                }
                if style == ShuffleStyle::Blocking {
                    ep.send(src, tags::ACK, Bytes::new())?;
                }
            }
            tags::ABORT if ft => {
                let Some(slot) = staged.get_mut(src) else {
                    return Err(HdmError::DataMpi(format!(
                        "A{} received ABORT from unexpected rank {src}",
                        stats.rank
                    )));
                };
                if attempt >= slot.attempt {
                    *slot = StagedSrc {
                        attempt: attempt + 1,
                        ..StagedSrc::default()
                    };
                    faults.note_detected(Site::OTask);
                }
            }
            tags::COMMIT if ft => {
                let expected = read_count(&msg.payload).ok_or_else(|| {
                    HdmError::DataMpi(format!(
                        "A{} received COMMIT from O{src} without a message count",
                        stats.rank
                    ))
                })?;
                let Some(slot) = staged.get_mut(src) else {
                    return Err(HdmError::DataMpi(format!(
                        "A{} received COMMIT from unexpected rank {src}",
                        stats.rank
                    )));
                };
                // Only a task's final attempt commits, and only where it
                // wrote: an attempt this rank holds no DATA of lost them.
                if attempt != slot.attempt || expected != slot.msgs {
                    faults.note_detected(Site::MpiSend);
                    let got = if attempt == slot.attempt {
                        slot.msgs
                    } else {
                        0
                    };
                    return Err(HdmError::DataMpi(format!(
                        "A{} detected dropped message(s) from O{src}: got {got} of {expected} \
                         DATA messages (attempt {attempt})",
                        stats.rank
                    )));
                }
                let done = std::mem::take(slot);
                admit(&mut cache, src, done.pairs, done.bytes, stats)?;
                commits += 1;
            }
            tags::COMMIT => commits += 1,
            tags::DONE => {
                break read_count(&msg.payload).ok_or_else(|| {
                    HdmError::DataMpi(format!(
                        "A{} received DONE without a commit count",
                        stats.rank
                    ))
                })?;
            }
            other => {
                return Err(HdmError::DataMpi(format!(
                    "A{} received unexpected tag {other:?}",
                    stats.rank
                )))
            }
        }
    };
    // Every commit sent here was in this inbox before the DONE (see
    // `Completion`): one that is missing now was dropped.
    if commits != expected_commits {
        faults.note_detected(Site::MpiSend);
        return Err(HdmError::DataMpi(format!(
            "A{} detected dropped commit(s): got {commits} of {expected_commits}",
            stats.rank
        )));
    }
    stats.receive_elapsed = start.elapsed();
    drop(recv_span);

    // Final merge: spill runs + live cache, globally sorted, grouped.
    let _merge_span = obs.span(&track, "phase", "merge");
    let Cache {
        mut live, mut runs, ..
    } = cache;
    live.sort_by(|a, b| cmp_tagged(a, b, comparator));
    runs.push(live);
    let merged = merge_runs(runs, comparator);
    let groups = group_sorted(merged, comparator);
    stats.groups = groups.len() as u64;
    Ok(groups)
}

/// K-way merge of individually sorted runs, driven by the comparator
/// with the provenance tag as tie-break. Runs are few (spill count + 1),
/// so repeated selection beats the bookkeeping cost of a comparator-keyed
/// heap here.
fn merge_runs(runs: Vec<Vec<Tagged>>, comparator: &ComparatorRef) -> Vec<KvPair> {
    let total: usize = runs.iter().map(Vec::len).sum();
    // Reverse once so each run's head is its `last()` element: heads can
    // then be compared in place and consumed by `pop`, with no per-element
    // key clone or Option churn in the selection loop.
    let mut rev: Vec<Vec<Tagged>> = runs
        .into_iter()
        .map(|mut r| {
            r.reverse();
            r
        })
        .collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<usize> = None;
        for (r, run) in rev.iter().enumerate() {
            let Some(head) = run.last() else { continue };
            // Equal keys order by `(src, seq)` — which run a pair landed
            // in (an artifact of spill timing) never affects the output.
            let better = match best.and_then(|b| rev.get(b)).and_then(|b| b.last()) {
                Some(cur) => cmp_tagged(head, cur, comparator) == std::cmp::Ordering::Less,
                None => true,
            };
            if better {
                best = Some(r);
            }
        }
        match best.and_then(|r| rev.get_mut(r)).and_then(Vec::pop) {
            Some((_, kv)) => out.push(kv),
            None => break,
        }
    }
    out
}

/// Group consecutive comparator-equal keys of a sorted stream.
fn group_sorted(sorted: Vec<KvPair>, comparator: &ComparatorRef) -> KeyGroups {
    let mut groups: KeyGroups = Vec::new();
    for kv in sorted {
        match groups.last_mut() {
            Some((key, values))
                if comparator.compare(key, &kv.key) == std::cmp::Ordering::Equal =>
            {
                values.push(kv.value);
            }
            _ => groups.push((kv.key, vec![kv.value])),
        }
    }
    groups
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;
    use hdm_common::kv::BytesComparator;
    use std::sync::Arc;

    fn cmp() -> ComparatorRef {
        Arc::new(BytesComparator)
    }

    fn kv(k: &[u8], v: &[u8]) -> KvPair {
        KvPair::new(k.to_vec(), v.to_vec())
    }

    fn tag(src: usize, seq: u64, p: KvPair) -> Tagged {
        ((src, seq), p)
    }

    #[test]
    fn merge_runs_interleaves_sorted_inputs() {
        let runs = vec![
            vec![
                tag(0, 0, kv(b"a", b"1")),
                tag(0, 1, kv(b"c", b"1")),
                tag(0, 2, kv(b"e", b"1")),
            ],
            vec![tag(1, 0, kv(b"b", b"2")), tag(1, 1, kv(b"c", b"2"))],
            vec![],
        ];
        let merged = merge_runs(runs, &cmp());
        let keys: Vec<&[u8]> = merged.iter().map(|p| p.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b", b"c", b"c", b"e"]);
    }

    #[test]
    fn merge_runs_orders_ties_by_provenance_not_run() {
        // The same three pairs split across runs two different ways — as
        // if spills cut the stream at different points — must merge
        // identically: by (src, seq), not by which run they sat in.
        let cuts = [
            vec![
                vec![
                    tag(1, 0, kv(b"k", b"src1-a")),
                    tag(1, 1, kv(b"k", b"src1-b")),
                ],
                vec![tag(0, 0, kv(b"k", b"src0"))],
            ],
            vec![
                vec![tag(1, 0, kv(b"k", b"src1-a"))],
                vec![tag(0, 0, kv(b"k", b"src0")), tag(1, 1, kv(b"k", b"src1-b"))],
            ],
        ];
        for runs in cuts {
            let merged = merge_runs(runs, &cmp());
            let values: Vec<&[u8]> = merged.iter().map(|p| p.value.as_ref()).collect();
            assert_eq!(values, vec![b"src0".as_ref(), b"src1-a", b"src1-b"]);
        }
    }

    #[test]
    fn group_sorted_collects_values() {
        let sorted = vec![kv(b"a", b"1"), kv(b"a", b"2"), kv(b"b", b"3")];
        let groups = group_sorted(sorted, &cmp());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0.as_ref(), b"a");
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].1.len(), 1);
    }

    #[test]
    fn empty_input_empty_groups() {
        assert!(group_sorted(Vec::new(), &cmp()).is_empty());
        assert!(merge_runs(vec![vec![], vec![]], &cmp()).is_empty());
    }
}
