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

use crate::report::{ATaskStats, WireCounts};
use crate::shuffle::{read_count, segments, tags};
use crate::ShuffleStyle;
use bytes::Bytes;
use hdm_common::error::{HdmError, Result};
use hdm_common::kv::{Comparator, ComparatorRef, KeyGroups, ReduceInput};
use hdm_faults::{FaultPlan, Site};
use hdm_mpi::Endpoint;
use std::time::Instant;

/// Per-O-source staging used when fault tolerance is enabled. A source's
/// pairs are committed to the shared caches only once its `COMMIT` proves
/// the attempt's stream arrived complete; an ABORT (or a higher-attempt
/// replay) discards the staged partials of the aborted attempt, and so
/// does the end of the job for a source that never committed here. Each
/// message is indexed as it arrives, so a corrupt one fails at once.
#[derive(Default)]
struct StagedSrc {
    /// Per partition of the task: the staged pairs and their bytes.
    parts: Vec<(ReduceInput, u64)>,
    msgs: u32,
    attempt: u32,
}

impl StagedSrc {
    fn attempt(attempt: u32, partitions: usize) -> StagedSrc {
        StagedSrc {
            parts: (0..partitions).map(|_| Default::default()).collect(),
            msgs: 0,
            attempt,
        }
    }
}

/// The in-memory cache of one partition: every admitted pair, indexed
/// in the payload it arrived in, with its provenance — `(source O rank,
/// position in that source's stream)`. The provenance breaks comparator
/// ties in the spill sorts and the final merge, making the merged order
/// a pure function of what each O task sent: MPI arrival interleaving
/// across sources must never reorder a key's values, or float
/// aggregation accumulates in a different order on every run and
/// results drift at the ULP level between runs (and between scheduler
/// modes).
struct Cache<'c> {
    input: ReduceInput,
    /// Payload bytes admitted since the last spill.
    bytes: u64,
    /// Next provenance sequence number per O source.
    seqs: Vec<u64>,
    budget: u64,
    comparator: &'c dyn Comparator,
}

impl Cache<'_> {
    /// `src`'s next sequence number.
    fn seq(&self, src: usize, rank: usize) -> Result<u64> {
        self.seqs.get(src).copied().ok_or_else(|| {
            HdmError::DataMpi(format!("A{rank} received data from unexpected rank {src}"))
        })
    }

    /// Admit one DATA segment of `src`.
    fn admit_payload(
        &mut self,
        src: usize,
        payload: Bytes,
        stats: &mut ATaskStats,
    ) -> Result<bool> {
        let bytes = payload.len() as u64;
        let seq = self.seq(src, stats.rank)?;
        let pairs = self.input.push(src, seq, payload, self.comparator)?;
        Ok(self.admitted(src, pairs, bytes, stats))
    }

    /// Admit a committed source's staged pairs.
    fn admit_staged(
        &mut self,
        src: usize,
        (pairs, bytes): (ReduceInput, u64),
        stats: &mut ATaskStats,
    ) -> Result<bool> {
        let seq = self.seq(src, stats.rank)?;
        let n = pairs.len() as u64;
        self.input.append(pairs, seq)?;
        Ok(self.admitted(src, n, bytes, stats))
    }

    /// Account for `src`'s `pairs` (`bytes` of payload) just admitted;
    /// returns whether the cache then spilled as a sorted run.
    fn admitted(&mut self, src: usize, pairs: u64, bytes: u64, stats: &mut ATaskStats) -> bool {
        if let Some(seq) = self.seqs.get_mut(src) {
            *seq += pairs;
        }
        stats.records += pairs;
        stats.bytes += bytes;
        self.bytes += bytes;
        stats.cache_peak = stats.cache_peak.max(self.bytes);
        if self.bytes <= self.budget {
            return false;
        }
        self.input.seal_run(self.comparator);
        stats.spill.record_spill(self.bytes);
        self.bytes = 0;
        true
    }
}

/// Receive until the `DONE`, then merge each partition of the task into
/// its key groups.
///
/// `stats` has one entry per partition the A task runs, in order; each
/// partition has its own cache, budget and provenance, so a partition's
/// groups, spills and counts are what an A task of it alone would have.
/// A task of several partitions is sent [`crate::shuffle::frame`]d
/// payloads; the messages it took off the wire are counted in
/// `stats[0]`.
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
    stats: &mut [ATaskStats],
    faults: &FaultPlan,
    obs: &hdm_obs::ObsHandle,
) -> Result<Vec<KeyGroups>> {
    let start = Instant::now();
    let ft = faults.is_enabled();
    let partitions = stats.len();
    let rank = stats.first().map_or(0, |s| s.rank);
    let mut staged: Vec<StagedSrc> = Vec::new();
    if ft {
        staged.resize_with(o_tasks, || StagedSrc::attempt(0, partitions));
    }
    // Buffer-manager probe handles, fetched once: cache occupancy gauge
    // plus stride-sampled counter points for the resource trace.
    let track = format!("A{rank}");
    let label = format_args!("rank={rank}");
    let obs_cache = obs.gauge("a.cache.bytes", &label);
    let obs_spills = obs.counter("a.spills", &label);
    let recv_span = obs.span(&track, "phase", "receive");
    let mut msgs = 0u64;
    let mut caches: Vec<Cache<'_>> = (0..partitions)
        .map(|_| Cache {
            input: ReduceInput::default(),
            bytes: 0,
            seqs: vec![0; o_tasks],
            budget: mem_budget_bytes as u64,
            comparator: &**comparator,
        })
        .collect();
    let observe = |caches: &[Cache<'_>], spilled| {
        obs_cache.set(caches.iter().map(|c| c.bytes).sum::<u64>() as i64);
        if spilled {
            obs_spills.add(1);
        }
    };
    let mut wire = WireCounts::default();
    let mut commits = 0u32;
    let expected_commits = loop {
        let msg = ep.recv(None, None).map_err(|e| {
            HdmError::DataMpi(format!(
                "A{rank} receive failed: {e} (the O side never sent DONE?)"
            ))
        })?;
        let (base, attempt) = tags::split(msg.tag);
        wire.count(base);
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
                        "A{rank} received DATA from unexpected rank {src}"
                    )));
                };
                if attempt < slot.attempt {
                    continue; // stale replay of an aborted attempt
                }
                if attempt > slot.attempt {
                    // First message of a replay whose ABORT we have not
                    // seen (it may have been dropped): discard the
                    // aborted attempt's partials.
                    *slot = StagedSrc::attempt(attempt, partitions);
                }
                let mut staged_bytes = 0;
                for (p, segment) in segments(msg.payload, partitions)? {
                    if let Some((pairs, bytes)) = slot.parts.get_mut(p) {
                        *bytes += segment.len() as u64;
                        pairs.push(src, pairs.len() as u64, segment, &**comparator)?;
                        staged_bytes += *bytes;
                    }
                }
                slot.msgs += 1;
                msgs += 1;
                if obs.should_sample(msgs) {
                    obs.sample(&track, "staged_bytes", staged_bytes);
                }
            }
            tags::DATA => {
                let mut spilled = false;
                for (p, segment) in segments(msg.payload, partitions)? {
                    if let (Some(cache), Some(st)) = (caches.get_mut(p), stats.get_mut(p)) {
                        spilled |= cache.admit_payload(src, segment, st)?;
                    }
                }
                observe(&caches, spilled);
                msgs += 1;
                if obs.should_sample(msgs) {
                    let bytes = caches.iter().map(|c| c.bytes).sum();
                    obs.sample(&track, "cache_bytes", bytes);
                }
                if style == ShuffleStyle::Blocking {
                    ep.send(src, tags::ACK, Bytes::new())?;
                }
            }
            tags::ABORT if ft => {
                let Some(slot) = staged.get_mut(src) else {
                    return Err(HdmError::DataMpi(format!(
                        "A{rank} received ABORT from unexpected rank {src}"
                    )));
                };
                if attempt >= slot.attempt {
                    *slot = StagedSrc::attempt(attempt + 1, partitions);
                    faults.note_detected(Site::OTask);
                }
            }
            tags::COMMIT if ft => {
                let expected = read_count(&msg.payload).ok_or_else(|| {
                    HdmError::DataMpi(format!(
                        "A{rank} received COMMIT from O{src} without a message count"
                    ))
                })?;
                let Some(slot) = staged.get_mut(src) else {
                    return Err(HdmError::DataMpi(format!(
                        "A{rank} received COMMIT from unexpected rank {src}"
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
                        "A{rank} detected dropped message(s) from O{src}: got {got} of {expected} \
                         DATA messages (attempt {attempt})"
                    )));
                }
                let done = std::mem::replace(slot, StagedSrc::attempt(0, partitions));
                let mut spilled = false;
                for ((part, cache), st) in done.parts.into_iter().zip(&mut caches).zip(&mut *stats)
                {
                    spilled |= cache.admit_staged(src, part, st)?;
                }
                observe(&caches, spilled);
                commits += 1;
            }
            tags::COMMIT => commits += 1,
            tags::DONE => {
                break read_count(&msg.payload).ok_or_else(|| {
                    HdmError::DataMpi(format!("A{rank} received DONE without a commit count"))
                })?;
            }
            other => {
                return Err(HdmError::DataMpi(format!(
                    "A{rank} received unexpected tag {other:?}"
                )))
            }
        }
    };
    // Every commit sent here was in this inbox before the DONE (see
    // `Completion`): one that is missing now was dropped.
    if commits != expected_commits {
        faults.note_detected(Site::MpiSend);
        return Err(HdmError::DataMpi(format!(
            "A{rank} detected dropped commit(s): got {commits} of {expected_commits}"
        )));
    }
    drop(recv_span);
    if let Some(first) = stats.first_mut() {
        first.wire = wire;
    }
    for st in stats.iter_mut() {
        st.receive_elapsed = start.elapsed();
    }

    // Final merge, per partition: spill runs + live cache, globally
    // sorted, grouped.
    let _merge_span = obs.span(&track, "phase", "merge");
    let mut out = Vec::with_capacity(partitions);
    for (cache, st) in caches.into_iter().zip(stats.iter_mut()) {
        let groups = cache.input.into_groups(&**comparator);
        st.groups = groups.len() as u64;
        obs.count("a.groups", &format_args!("rank={}", st.rank), st.groups);
        out.push(groups);
    }
    Ok(out)
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
    use hdm_common::kv::{self, BytesComparator, KvPair};
    use hdm_mpi::{World, WorldConfig};
    use std::sync::Arc;

    /// One DATA payload's pairs.
    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    /// One message an O rank sends the A rank under test.
    #[derive(Debug, Clone)]
    enum Sent {
        Data(Pairs),
        Abort,
        Commit(u32),
    }

    /// `(source O rank, attempt, message)`, in the order they are sent.
    type Script = Vec<(usize, u32, Sent)>;

    /// A task's groups, copied out.
    type Owned = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

    fn cmp() -> ComparatorRef {
        Arc::new(BytesComparator)
    }

    fn payload(pairs: &Pairs) -> Bytes {
        let mut buf = Vec::new();
        for (k, v) in pairs {
            kv::encode(&mut buf, k, v);
        }
        Bytes::from(buf)
    }

    fn owned(mut groups: KeyGroups) -> Owned {
        let mut out = Vec::new();
        while let Some((key, values)) = groups.next_group() {
            out.push((key.to_vec(), values.iter().map(<[u8]>::to_vec).collect()));
        }
        out
    }

    /// Send `script` from `o` O ranks, then the `DONE`, and run the
    /// receiver of the one A rank over it.
    fn receive(o: usize, budget: usize, ft: bool, script: &Script) -> (Owned, ATaskStats) {
        let config = WorldConfig {
            channel_capacity: 1 << 16,
            ..WorldConfig::default()
        };
        let mut eps = World::new(o + 1, config).unwrap().into_endpoints();
        let mut a = eps.pop().unwrap();
        let mut commits = 0u32;
        for (src, attempt, sent) in script {
            let (tag, body) = match sent {
                Sent::Data(pairs) => (tags::DATA, payload(pairs)),
                Sent::Abort => (tags::ABORT, Bytes::new()),
                Sent::Commit(n) => {
                    commits += 1;
                    (tags::COMMIT, Bytes::from(n.to_le_bytes().to_vec()))
                }
            };
            let tag = tags::with_attempt(tag, *attempt);
            eps[*src].send(o, tag, body).unwrap();
        }
        let done = Bytes::from(commits.to_le_bytes().to_vec());
        eps[0].send(o, tags::DONE, done).unwrap();
        let faults = if ft {
            FaultPlan::with_seed(1)
        } else {
            FaultPlan::disabled()
        };
        let mut stats = [ATaskStats::new(0)];
        let mut groups = run_receiver(
            &mut a,
            o,
            ShuffleStyle::NonBlocking,
            budget,
            &cmp(),
            &mut stats,
            &faults,
            &hdm_obs::ObsHandle::default(),
        )
        .unwrap();
        let [stats] = stats;
        (owned(groups.remove(0)), stats)
    }

    fn data(pairs: &[(&[u8], &[u8])]) -> Sent {
        Sent::Data(
            pairs
                .iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect(),
        )
    }

    fn group(key: &[u8], values: &[&[u8]]) -> (Vec<u8>, Vec<Vec<u8>>) {
        (key.to_vec(), values.iter().map(|v| v.to_vec()).collect())
    }

    #[test]
    fn merge_runs_interleaves_sorted_inputs() {
        // A 1-byte budget seals every message as its own run.
        let script = vec![
            (0, 0, data(&[(b"e", b"1"), (b"a", b"1"), (b"c", b"1")])),
            (1, 0, data(&[(b"c", b"2"), (b"b", b"2")])),
            (0, 0, Sent::Commit(1)),
            (1, 0, Sent::Commit(1)),
        ];
        let (groups, stats) = receive(2, 1, false, &script);
        assert_eq!(stats.spill.spills, 2);
        let keys: Vec<&[u8]> = groups.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b", b"c", b"e"]);
        assert_eq!(groups[2], group(b"c", &[b"1", b"2"]));
    }

    #[test]
    fn merge_runs_orders_ties_by_provenance_not_run() {
        // The same pairs cut into runs at different points — as if spills
        // fell differently — and arriving interleaved differently merge
        // identically: by (src, seq), not by run or arrival.
        let src1 = |v: &'static [u8]| (1, 0, data(&[(b"k", v)]));
        let src0 = (0, 0, data(&[(b"k", b"src0")]));
        let scripts = [
            vec![src1(b"src1-a"), src1(b"src1-b"), src0.clone()],
            vec![src1(b"src1-a"), src0.clone(), src1(b"src1-b")],
            vec![src0, src1(b"src1-a"), src1(b"src1-b")],
        ];
        for script in scripts {
            for budget in [1, 4, 1 << 20] {
                let (groups, _) = receive(2, budget, false, &script);
                assert_eq!(groups, vec![group(b"k", &[b"src0", b"src1-a", b"src1-b"])]);
            }
        }
    }

    #[test]
    fn group_sorted_collects_values() {
        let script = vec![(0, 0, data(&[(b"a", b"1"), (b"b", b"3"), (b"a", b"2")]))];
        let (groups, stats) = receive(1, 1 << 20, false, &script);
        assert_eq!(
            groups,
            vec![group(b"a", &[b"1", b"2"]), group(b"b", &[b"3"])]
        );
        assert_eq!((stats.groups, stats.records), (2, 3));
    }

    #[test]
    fn empty_input_empty_groups() {
        for ft in [false, true] {
            let (groups, stats) = receive(3, 1, ft, &Vec::new());
            assert!(groups.is_empty());
            assert_eq!((stats.groups, stats.spill.spills), (0, 0));
        }
    }

    #[test]
    fn a_corrupt_staged_message_fails_when_it_arrives() {
        let mut eps = World::new(2, WorldConfig::default())
            .unwrap()
            .into_endpoints();
        let mut a = eps.pop().unwrap();
        // Claims a 5-byte key and holds 1 byte; no COMMIT or DONE follows.
        eps[0]
            .send(1, tags::DATA, Bytes::from(vec![5u8, 0]))
            .unwrap();
        let mut stats = [ATaskStats::new(0)];
        let err = run_receiver(
            &mut a,
            1,
            ShuffleStyle::NonBlocking,
            1 << 20,
            &cmp(),
            &mut stats,
            &FaultPlan::with_seed(1),
            &hdm_obs::ObsHandle::default(),
        )
        .unwrap_err();
        assert_eq!(err.subsystem(), "codec", "{err}");
    }

    /// The A side before received pairs stayed in their payloads: every
    /// pair a `KvPair` tagged with its provenance, spills sorting whole
    /// tagged pairs, a selection merge of the runs, and the merged pairs
    /// grouped into `(key, values)` vectors.
    mod oracle {
        use super::*;

        type Tagged = ((usize, u64), KvPair);

        fn cmp_tagged(a: &Tagged, b: &Tagged, comparator: &ComparatorRef) -> std::cmp::Ordering {
            comparator
                .compare(&a.1.key, &b.1.key)
                .then_with(|| a.0.cmp(&b.0))
        }

        #[derive(Default)]
        struct Staged {
            pairs: Vec<KvPair>,
            bytes: u64,
            msgs: u32,
            attempt: u32,
        }

        struct Cache {
            live: Vec<Tagged>,
            bytes: u64,
            runs: Vec<Vec<Tagged>>,
            seqs: Vec<u64>,
            budget: u64,
            comparator: ComparatorRef,
            stats: ATaskStats,
        }

        impl Cache {
            fn admit(&mut self, src: usize, pairs: Vec<KvPair>, bytes: u64) {
                let seq = &mut self.seqs[src];
                self.stats.records += pairs.len() as u64;
                self.stats.bytes += bytes;
                self.bytes += bytes;
                for kv in pairs {
                    self.live.push(((src, *seq), kv));
                    *seq += 1;
                }
                self.stats.cache_peak = self.stats.cache_peak.max(self.bytes);
                if self.bytes <= self.budget {
                    return;
                }
                let mut run = std::mem::take(&mut self.live);
                run.sort_by(|a, b| cmp_tagged(a, b, &self.comparator));
                self.stats.spill.record_spill(self.bytes);
                self.bytes = 0;
                self.runs.push(run);
            }
        }

        fn merge_runs(runs: Vec<Vec<Tagged>>, comparator: &ComparatorRef) -> Vec<KvPair> {
            let total: usize = runs.iter().map(Vec::len).sum();
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

        fn group_sorted(
            sorted: Vec<KvPair>,
            comparator: &ComparatorRef,
        ) -> Vec<(Bytes, Vec<Bytes>)> {
            let mut groups: Vec<(Bytes, Vec<Bytes>)> = Vec::new();
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

        /// What the pre-index receiver made of `script`.
        pub(super) fn receive(
            o: usize,
            budget: usize,
            ft: bool,
            script: &Script,
        ) -> (Owned, ATaskStats) {
            let comparator = cmp();
            let mut cache = Cache {
                live: Vec::new(),
                bytes: 0,
                runs: Vec::new(),
                seqs: vec![0; o],
                budget: budget as u64,
                comparator: Arc::clone(&comparator),
                stats: ATaskStats::new(0),
            };
            let mut staged: Vec<Staged> = (0..o).map(|_| Staged::default()).collect();
            for (src, attempt, sent) in script {
                let (src, attempt) = (*src, *attempt);
                match sent {
                    Sent::Data(pairs) => {
                        let body = payload(pairs);
                        let pairs = kv::decode_all(&body).unwrap();
                        let bytes = body.len() as u64;
                        if !ft {
                            cache.admit(src, pairs, bytes);
                            continue;
                        }
                        let slot = &mut staged[src];
                        if attempt < slot.attempt {
                            continue;
                        }
                        if attempt > slot.attempt {
                            *slot = Staged {
                                attempt,
                                ..Staged::default()
                            };
                        }
                        slot.bytes += bytes;
                        slot.msgs += 1;
                        slot.pairs.extend(pairs);
                    }
                    Sent::Abort => {
                        let slot = &mut staged[src];
                        if attempt >= slot.attempt {
                            *slot = Staged {
                                attempt: attempt + 1,
                                ..Staged::default()
                            };
                        }
                    }
                    Sent::Commit(_) if ft => {
                        let done = std::mem::take(&mut staged[src]);
                        cache.admit(src, done.pairs, done.bytes);
                    }
                    Sent::Commit(_) => {}
                }
            }
            let Cache {
                mut live,
                mut runs,
                mut stats,
                ..
            } = cache;
            live.sort_by(|a, b| cmp_tagged(a, b, &comparator));
            runs.push(live);
            let groups = group_sorted(merge_runs(runs, &comparator), &comparator);
            stats.groups = groups.len() as u64;
            let groups = groups
                .into_iter()
                .map(|(k, vs)| (k.to_vec(), vs.iter().map(|v| v.to_vec()).collect()))
                .collect();
            (groups, stats)
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Keys built to stress the cached prefix: long shared heads (16+
        /// bytes tie the prefix), strict prefixes of each other, trailing
        /// `0x00` runs (`ab` and `ab\0` share a prefix), and empty keys.
        fn key() -> impl Strategy<Value = Vec<u8>> {
            let head = prop_oneof![Just(0usize), Just(14usize), Just(16usize), Just(19usize)];
            let tail =
                proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), any::<u8>()], 0..4);
            (head, tail).prop_map(|(n, tail)| [vec![b'k'; n], tail].concat())
        }

        fn message() -> impl Strategy<Value = Pairs> {
            let value = proptest::collection::vec(any::<u8>(), 0..6);
            proptest::collection::vec((key(), value), 0..8)
        }

        /// One O task's attempts as seen by one A rank: each attempt's
        /// DATA messages, and for the attempts before the last whether
        /// an `ABORT` announced the replay. The last attempt commits if
        /// it wrote here.
        type Task = Vec<(Vec<Pairs>, bool)>;

        fn task() -> impl Strategy<Value = Task> {
            let attempt = (proptest::collection::vec(message(), 0..5), any::<bool>());
            proptest::collection::vec(attempt, 1..4)
        }

        /// Interleave the tasks' messages (each task's in its own order)
        /// by `picks`. Without fault tolerance only the last attempt is
        /// sent.
        fn script(tasks: &[Task], ft: bool, picks: &[usize]) -> Script {
            let mut streams: Vec<std::collections::VecDeque<(usize, u32, Sent)>> = tasks
                .iter()
                .enumerate()
                .map(|(src, attempts)| {
                    let skip = if ft { 0 } else { attempts.len() - 1 };
                    let mut out = std::collections::VecDeque::new();
                    for (a, (msgs, abort)) in attempts.iter().enumerate().skip(skip) {
                        let attempt = if ft { a as u32 } else { 0 };
                        for m in msgs {
                            out.push_back((src, attempt, Sent::Data(m.clone())));
                        }
                        if a + 1 < attempts.len() {
                            if *abort {
                                out.push_back((src, attempt, Sent::Abort));
                            }
                        } else if !msgs.is_empty() {
                            out.push_back((src, attempt, Sent::Commit(msgs.len() as u32)));
                        }
                    }
                    out
                })
                .collect();
            let mut out = Vec::new();
            let mut picks = picks.iter().cycle();
            while streams.iter().any(|s| !s.is_empty()) {
                let live: Vec<usize> = (0..streams.len())
                    .filter(|&s| !streams[s].is_empty())
                    .collect();
                let s = live[picks.next().copied().unwrap_or(0) % live.len()];
                out.push(streams[s].pop_front().unwrap());
            }
            out
        }

        proptest! {
            /// The A side against the pre-index oracle: the same groups,
            /// values in the same order, and the same spill, record, byte
            /// and cache-peak accounting, with and without fault
            /// tolerance's staging, aborts and replays.
            #[test]
            fn receiver_matches_the_tagged_pair_oracle(
                tasks in proptest::collection::vec(task(), 1..4),
                picks in proptest::collection::vec(any::<usize>(), 1..16),
                budget in prop_oneof![1usize..64, 64usize..8192],
                ft in any::<bool>(),
            ) {
                let script = script(&tasks, ft, &picks);
                let (got, stats) = receive(tasks.len(), budget, ft, &script);
                let (want, expect) = oracle::receive(tasks.len(), budget, ft, &script);
                prop_assert_eq!(got, want);
                prop_assert_eq!(stats.spill, expect.spill);
                prop_assert_eq!(
                    (stats.records, stats.bytes, stats.cache_peak, stats.groups),
                    (expect.records, expect.bytes, expect.cache_peak, expect.groups)
                );
            }
        }
    }
}
