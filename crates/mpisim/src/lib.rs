#![warn(missing_docs)]

//! # hdm-mpi
//!
//! An in-process MPI-like message-passing library.
//!
//! The paper's DataMPI engine is built on MVAPICH2 and uses exactly the
//! point-to-point subset of MPI: `MPI_Isend`, `MPI_Irecv`, `MPI_Test`,
//! `MPI_Wait`, `MPI_Waitall`, plus blocking `MPI_Send`/`MPI_Recv`
//! (Section IV-C). This crate reproduces those semantics over
//! threads-and-channels so the DataMPI shuffle engine above it is a
//! faithful port:
//!
//! * A [`World`] of `n` ranks; each rank owns an [`Endpoint`] moved into
//!   its thread ([`World::run`] is the `mpirun` analogue).
//! * **Buffered, ordered delivery** per (source, destination) pair —
//!   MPI's non-overtaking guarantee.
//! * **Non-blocking operations with a progress engine**: [`Endpoint::isend`]
//!   enqueues into a bounded per-destination channel; when the channel is
//!   full the message parks in a pending queue that
//!   [`Endpoint::progress`] drains. `test`/`wait`/`recv` all drive
//!   progress, like a real MPI progress engine, so backpressure creates
//!   genuine blocking-style synchronization stalls — the effect behind
//!   the paper's Figure 6.
//! * **Tag + source matching** on receive, with an out-of-order mailbox.
//! * **Per-link byte accounting** ([`WorldMetrics`]) consumed by the
//!   discrete-event cluster model to charge network time.
//! * **Fault awareness**: a [`WorldConfig`] can carry an
//!   [`hdm_faults::FaultPlan`] (message drops/delays on `isend`) and a
//!   receive deadline; a crashed rank **poisons** its endpoint so peers
//!   fail fast with `HdmError::RankFailed` instead of blocking forever.
//! * **Parked ranks sleep**: a rank in `recv` with nothing to push
//!   blocks on its inbox until a message, its deadline, a peer's
//!   `poison()` or the world's cancel token wakes it.
//!
//! # Example
//!
//! ```
//! use hdm_mpi::{World, Tag};
//!
//! let world = World::new(2, Default::default()).unwrap();
//! let outputs = world.run(|mut ep| {
//!     if ep.rank() == 0 {
//!         ep.send(1, Tag(7), b"ping".as_ref().into()).unwrap();
//!         0u64
//!     } else {
//!         let msg = ep.recv(Some(0), Some(Tag(7))).unwrap();
//!         msg.payload.len() as u64
//!     }
//! });
//! assert_eq!(outputs, vec![0, 4]);
//! ```

mod endpoint;
mod metrics;

pub use endpoint::{Endpoint, Msg, RecvRequest, SendRequest};
pub use metrics::WorldMetrics;

use crossbeam::channel::{bounded, Receiver, Sender};
use endpoint::Packet;
use hdm_common::error::{HdmError, Result};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Message tag (matching key), like MPI's `tag` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

/// Rank of a process within a [`World`].
pub type Rank = usize;

/// World-construction options.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Channel capacity per destination, in messages. Small capacities
    /// increase backpressure (more pending-queue parking); `None` means
    /// effectively unbounded (2^20).
    pub channel_capacity: usize,
    /// Observability sink for world-level traffic metrics. Defaults to a
    /// disabled handle, whose counters are inert.
    pub obs: hdm_obs::ObsHandle,
    /// Fault plan injecting message drops/delays at the `isend` site.
    /// Defaults to a disabled plan: one relaxed atomic load per send.
    pub faults: hdm_faults::FaultPlan,
    /// Default deadline for blocking `recv`/`wait` calls. `None` (the
    /// default) keeps the historical block-forever semantics; recovery
    /// layers set it from `hive.ft.recv.timeout.ms` so a crashed peer
    /// surfaces as [`HdmError::Timeout`] instead of a hang.
    pub recv_timeout: Option<Duration>,
    /// Cooperative cancellation token. The world registers a waker on it
    /// that posts a wake-up to every rank's inbox, so a rank parked in
    /// `recv` returns `HdmError::Cancelled` as soon as it fires —
    /// *without* poisoning any endpoint, so a cancelled query tears down
    /// its world while sibling queries sharing the process stay healthy.
    /// Defaults to a token that never fires.
    pub cancel: hdm_common::CancelToken,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            channel_capacity: 1024,
            obs: hdm_obs::ObsHandle::default(),
            faults: hdm_faults::FaultPlan::default(),
            recv_timeout: None,
            cancel: hdm_common::CancelToken::default(),
        }
    }
}

/// What every rank of one world shares, behind one `Arc`.
pub(crate) struct Links {
    /// Inbox sender of every rank, indexed by rank. Shared with the
    /// cancel waker, which outlives no endpoint: it is deregistered when
    /// the last `Arc<Links>` drops.
    pub(crate) senders: Arc<[Sender<Packet>]>,
    /// Per-rank failure flags: a crashed rank raises its own flag so
    /// peers blocked on it fail fast instead of waiting out a timeout.
    pub(crate) poisoned: Box<[AtomicBool]>,
    pub(crate) metrics: Arc<WorldMetrics>,
    pub(crate) barrier: std::sync::Barrier,
    pub(crate) faults: hdm_faults::FaultPlan,
    /// Default deadline applied by blocking `recv`/`wait`; `None` blocks
    /// until a message or a wake-up arrives.
    pub(crate) recv_timeout: Option<Duration>,
    pub(crate) cancel: hdm_common::CancelToken,
    _cancel_waker: hdm_common::WakerRegistration,
}

/// Post a [`Packet::Wake`] to every inbox. A full inbox refuses it, and
/// needs none: its rank has packets to read, so it is not parked, and it
/// re-reads the poison flags and the token after each one.
pub(crate) fn wake_all(senders: &[Sender<Packet>]) {
    for tx in senders {
        // hdm-allow(swallowed-error): a refused wake-up is the full-inbox case above, or a rank that already dropped its receiver
        let _ = tx.try_send(Packet::Wake);
    }
}

/// A communicator: `n` ranks with all-to-all channels.
pub struct World {
    links: Arc<Links>,
    /// Every rank's inbox receiver, in rank order.
    receivers: Vec<Receiver<Packet>>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World").field("size", &self.size()).finish()
    }
}

impl World {
    /// Create a world of `size` ranks.
    ///
    /// # Errors
    /// [`HdmError::Mpi`] if `size` is zero — an empty communicator has
    /// no rank to run.
    pub fn new(size: usize, config: WorldConfig) -> Result<World> {
        if size == 0 {
            return Err(HdmError::Mpi(
                "world size must be positive (got 0 ranks)".to_string(),
            ));
        }
        let cap = config.channel_capacity.max(1);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..size).map(|_| bounded(cap)).unzip();
        let senders: Arc<[Sender<Packet>]> = senders.into();
        let cancel_waker = config.cancel.on_cancel({
            let senders = Arc::clone(&senders);
            move || wake_all(&senders)
        });
        Ok(World {
            links: Arc::new(Links {
                senders,
                poisoned: (0..size).map(|_| AtomicBool::new(false)).collect(),
                metrics: Arc::new(WorldMetrics::new(size, config.obs)),
                barrier: std::sync::Barrier::new(size),
                faults: config.faults,
                recv_timeout: config.recv_timeout,
                cancel: config.cancel,
                _cancel_waker: cancel_waker,
            }),
            receivers,
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.links.senders.len()
    }

    /// Traffic counters.
    pub fn metrics(&self) -> Arc<WorldMetrics> {
        Arc::clone(&self.links.metrics)
    }

    /// The endpoints of all ranks, in rank order — for a caller that runs
    /// the ranks on threads of its own instead of [`World::run`]'s thread
    /// per rank.
    pub fn into_endpoints(self) -> Vec<Endpoint> {
        let links = self.links;
        let inboxes = self.receivers.into_iter().enumerate();
        inboxes
            .map(|(rank, rx)| Endpoint::new(rank, rx, Arc::clone(&links)))
            .collect()
    }

    /// Spawn one thread per rank running `f`, join them all, and return
    /// their outputs in rank order — the `mpirun` of this library.
    ///
    /// # Panics
    /// Propagates panics from rank threads.
    pub fn run<T, F>(self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Endpoint) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = self
            .into_endpoints()
            .into_iter()
            .map(|ep| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f(ep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                // Re-raise the rank thread's panic payload in the caller,
                // preserving the original message for the test harness.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
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
    use bytes::Bytes;

    #[test]
    fn ping_pong() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                ep.send(1, Tag(1), Bytes::from_static(b"hello")).unwrap();
                let m = ep.recv(Some(1), Some(Tag(2))).unwrap();
                m.payload
            } else {
                let m = ep.recv(Some(0), Some(Tag(1))).unwrap();
                ep.send(0, Tag(2), m.payload.clone()).unwrap();
                m.payload
            }
        });
        assert_eq!(out[0], Bytes::from_static(b"hello"));
        assert_eq!(out[1], Bytes::from_static(b"hello"));
    }

    #[test]
    fn ordered_delivery_per_pair() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                for i in 0..100u32 {
                    ep.send(1, Tag(0), Bytes::from(i.to_be_bytes().to_vec()))
                        .unwrap();
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| {
                        let m = ep.recv(Some(0), Some(Tag(0))).unwrap();
                        u32::from_be_bytes(m.payload.as_ref().try_into().unwrap())
                    })
                    .collect()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn tag_matching_leaves_other_messages() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                ep.send(1, Tag(1), Bytes::from_static(b"first")).unwrap();
                ep.send(1, Tag(2), Bytes::from_static(b"second")).unwrap();
                Vec::new()
            } else {
                // Receive tag 2 first even though tag 1 arrived earlier.
                let b = ep.recv(Some(0), Some(Tag(2))).unwrap();
                let a = ep.recv(Some(0), Some(Tag(1))).unwrap();
                vec![b.payload, a.payload]
            }
        });
        assert_eq!(out[1][0], Bytes::from_static(b"second"));
        assert_eq!(out[1][1], Bytes::from_static(b"first"));
    }

    #[test]
    fn all_to_all_with_tiny_capacity_does_not_deadlock() {
        // Capacity 1 forces the progress engine to park pending sends.
        let n = 6;
        let world = World::new(
            n,
            WorldConfig {
                channel_capacity: 1,
                ..WorldConfig::default()
            },
        )
        .unwrap();
        let out = world.run(move |mut ep| {
            let me = ep.rank();
            let mut reqs = Vec::new();
            for dst in 0..ep.world_size() {
                for k in 0..20u32 {
                    let payload = Bytes::from(format!("{me}->{dst}:{k}"));
                    reqs.push(ep.isend(dst, Tag(9), payload).unwrap());
                }
            }
            let mut got = 0;
            while got < 20 * ep.world_size() {
                ep.recv(None, Some(Tag(9))).unwrap();
                got += 1;
            }
            ep.waitall(&mut reqs).unwrap();
            got
        });
        assert!(out.iter().all(|&g| g == 20 * n));
    }

    #[test]
    fn isend_completion_via_test() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                let mut req = ep.isend(1, Tag(0), Bytes::from_static(b"x")).unwrap();
                while !ep.test_send(&mut req) {
                    std::thread::yield_now();
                }
                true
            } else {
                ep.recv(Some(0), Some(Tag(0))).unwrap();
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn irecv_completes_when_message_arrives() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 1 {
                let mut rr = ep.irecv(Some(0), Some(Tag(4)));
                // Busy-test until completion.
                loop {
                    if let Some(msg) = ep.test_recv(&mut rr).unwrap() {
                        return msg.payload;
                    }
                    std::thread::yield_now();
                }
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ep.send(1, Tag(4), Bytes::from_static(b"late")).unwrap();
                Bytes::new()
            }
        });
        assert_eq!(out[1], Bytes::from_static(b"late"));
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let world = World::new(4, WorldConfig::default()).unwrap();
        let out = world.run(move |ep| {
            c2.fetch_add(1, Ordering::SeqCst);
            ep.barrier();
            // After the barrier every rank must observe all increments.
            c2.load(Ordering::SeqCst)
        });
        assert!(out.iter().all(|&v| v == 4), "{out:?}");
    }

    #[test]
    fn metrics_count_bytes_per_link() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let metrics = world.metrics();
        world.run(|mut ep| {
            if ep.rank() == 0 {
                ep.send(1, Tag(0), Bytes::from(vec![0u8; 100])).unwrap();
            } else {
                ep.recv(Some(0), Some(Tag(0))).unwrap();
            }
        });
        assert_eq!(metrics.bytes_on_link(0, 1), 100);
        assert_eq!(metrics.bytes_on_link(1, 0), 0);
        assert_eq!(metrics.total_bytes(), 100);
        assert_eq!(metrics.total_messages(), 1);
    }

    #[test]
    fn self_send_works() {
        let world = World::new(1, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            ep.send(0, Tag(0), Bytes::from_static(b"me")).unwrap();
            ep.recv(Some(0), Some(Tag(0))).unwrap().payload
        });
        assert_eq!(out[0], Bytes::from_static(b"me"));
    }

    #[test]
    fn random_traffic_stress_delivers_exactly_once() {
        // Randomized all-to-all with tiny channel capacity: every
        // message must arrive exactly once, in per-pair order.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in [3u64, 17, 99] {
            let n = 5;
            let world = World::new(
                n,
                WorldConfig {
                    channel_capacity: 2,
                    ..WorldConfig::default()
                },
            )
            .unwrap();
            let out = world.run(move |mut ep| {
                let me = ep.rank();
                let mut rng = StdRng::seed_from_u64(seed ^ (me as u64) << 8);
                let mut sent = vec![0u32; ep.world_size()];
                let mut reqs = Vec::new();
                let msgs = 40 + rng.random_range(0..40);
                for _ in 0..msgs {
                    let dst = rng.random_range(0..ep.world_size());
                    let payload = Bytes::from(sent[dst].to_be_bytes().to_vec());
                    sent[dst] += 1;
                    reqs.push(ep.isend(dst, Tag(1), payload).unwrap());
                }
                // Tell everyone how many to expect.
                let counts: Vec<u32> = sent.clone();
                for (dst, count) in counts.iter().enumerate() {
                    reqs.push(
                        ep.isend(dst, Tag(2), Bytes::from(count.to_be_bytes().to_vec()))
                            .unwrap(),
                    );
                }
                // Receive counts + data from everyone.
                let mut expect: Vec<Option<u32>> = vec![None; ep.world_size()];
                let mut got: Vec<u32> = vec![0; ep.world_size()];
                let mut next_seq: Vec<u32> = vec![0; ep.world_size()];
                loop {
                    let done = expect
                        .iter()
                        .zip(&got)
                        .all(|(e, g)| e.map(|e| e == *g).unwrap_or(false));
                    if done {
                        break;
                    }
                    let msg = ep.recv(None, None).unwrap();
                    let v = u32::from_be_bytes(msg.payload.as_ref().try_into().unwrap());
                    match msg.tag {
                        Tag(1) => {
                            assert_eq!(v, next_seq[msg.src], "per-pair order violated");
                            next_seq[msg.src] += 1;
                            got[msg.src] += 1;
                        }
                        Tag(2) => expect[msg.src] = Some(v),
                        other => panic!("unexpected tag {other:?}"),
                    }
                }
                ep.waitall(&mut reqs).unwrap();
                got.iter().sum::<u32>()
            });
            assert!(out.iter().all(|&g| g > 0));
        }
    }

    #[test]
    fn zero_rank_world_is_an_error() {
        let err = match World::new(0, WorldConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("size 0 must be rejected"),
        };
        assert_eq!(err.subsystem(), "mpi");
        assert!(err.message().contains("0 ranks"), "{err}");
    }

    #[test]
    fn recv_deadline_times_out_instead_of_hanging() {
        let world = World::new(
            2,
            WorldConfig {
                recv_timeout: Some(Duration::from_millis(30)),
                ..WorldConfig::default()
            },
        )
        .unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                // Never send: rank 1's recv must hit its deadline.
                String::new()
            } else {
                let start = std::time::Instant::now();
                let err = ep.recv(Some(0), Some(Tag(1))).unwrap_err();
                assert!(start.elapsed() >= Duration::from_millis(30));
                err.subsystem().to_string()
            }
        });
        assert_eq!(out[1], "timeout");
    }

    #[test]
    fn explicit_deadline_overrides_endpoint_default() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                true
            } else {
                ep.recv_deadline(Some(0), None, Some(Duration::from_millis(10)))
                    .is_err()
            }
        });
        assert!(out[1]);
    }

    type Fire = Box<dyn Fn(&Endpoint) + Send + Sync>;

    /// Park rank 1 in a `recv` on rank 0, let rank 0 `fire` after a
    /// pause, and return rank 1's error kind plus how long after the fire
    /// it was back — with a deadline far away and with none at all.
    fn wake_latency(
        setup: impl Fn(Option<Duration>) -> (WorldConfig, Fire),
    ) -> Vec<(String, Duration)> {
        [Some(Duration::from_secs(30)), None]
            .into_iter()
            .map(|deadline| {
                let (config, fire) = setup(deadline);
                let world = World::new(2, config).unwrap();
                let fired_at = Arc::new(std::sync::Mutex::new(None));
                let mut out = world.run(move |mut ep| {
                    if ep.rank() == 0 {
                        // Never send; give rank 1 time to park first.
                        std::thread::sleep(Duration::from_millis(30));
                        *fired_at.lock().unwrap() = Some(std::time::Instant::now());
                        fire(&ep);
                        None
                    } else {
                        let err = ep.recv(Some(0), Some(Tag(1))).unwrap_err();
                        let late = fired_at.lock().unwrap().expect("woke before the fire");
                        // Interrupted, never poisoned by the waiter itself.
                        assert!(!ep.is_poisoned(1));
                        Some((err.subsystem().to_string(), late.elapsed()))
                    }
                });
                out.pop().flatten().unwrap()
            })
            .collect()
    }

    #[test]
    fn poisoned_peer_wakes_a_parked_recv() {
        let woken = wake_latency(|recv_timeout| {
            let config = WorldConfig {
                recv_timeout,
                ..WorldConfig::default()
            };
            // Crash without sending anything.
            (config, Box::new(|ep| ep.poison()))
        });
        for (kind, late) in woken {
            assert_eq!(kind, "rank-failed");
            assert!(late < Duration::from_millis(20), "woke {late:?} late");
        }
    }

    #[test]
    fn poison_does_not_eat_already_delivered_messages() {
        let world = World::new(2, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| {
            if ep.rank() == 0 {
                ep.send(1, Tag(1), Bytes::from_static(b"last words"))
                    .unwrap();
                ep.poison();
                Bytes::new()
            } else {
                // Delivered-before-crash data must still match.
                ep.recv(Some(0), Some(Tag(1))).unwrap().payload
            }
        });
        assert_eq!(out[1], Bytes::from_static(b"last words"));
    }

    #[test]
    fn fault_plan_drops_messages_deterministically() {
        use hdm_faults::{FaultPlan, Site};
        // Find a (seed, seq) whose send is dropped, then check the wire.
        let plan = (0..256u64)
            .map(FaultPlan::with_seed)
            .find(|p| (0..64).any(|seq| p.should_drop(Site::MpiSend, 0, seq)))
            .expect("no dropping seed in 256 candidates");
        let sends: u64 = 64;
        let expected: u64 = (0..sends)
            .filter(|&seq| !plan.should_drop(Site::MpiSend, 0, seq))
            .count() as u64;
        assert!(expected < sends, "at least one message must drop");
        let world = World::new(
            2,
            WorldConfig {
                faults: plan,
                recv_timeout: Some(Duration::from_millis(200)),
                ..WorldConfig::default()
            },
        )
        .unwrap();
        let out = world.run(move |mut ep| {
            if ep.rank() == 0 {
                for _ in 0..sends {
                    ep.send(1, Tag(3), Bytes::from_static(b"x")).unwrap();
                }
                0
            } else {
                let mut got = 0u64;
                while ep.recv(Some(0), Some(Tag(3))).is_ok() {
                    got += 1;
                }
                got
            }
        });
        assert_eq!(out[1], expected);
    }

    #[test]
    fn cancel_wakes_a_parked_recv_without_poisoning() {
        let woken = wake_latency(|recv_timeout| {
            let cancel = hdm_common::CancelToken::default();
            let config = WorldConfig {
                recv_timeout,
                cancel: cancel.clone(),
                ..WorldConfig::default()
            };
            let fire = move |ep: &Endpoint| {
                cancel.cancel("query abandoned");
                // Sibling queries sharing the process must see clean
                // endpoints.
                assert!(!ep.is_poisoned(0));
            };
            (config, Box::new(fire))
        });
        for (kind, late) in woken {
            assert_eq!(kind, "cancelled");
            assert!(late < Duration::from_millis(20), "woke {late:?} late");
        }
    }

    #[test]
    fn send_to_an_ended_rank_fails_instead_of_waiting_forever() {
        let config = WorldConfig {
            channel_capacity: 1,
            recv_timeout: Some(Duration::from_millis(20)),
            ..WorldConfig::default()
        };
        let mut eps = World::new(3, config).unwrap().into_endpoints();
        drop(eps.pop()); // rank 2 ends: its inbox closes
        let _live = eps.pop().unwrap();
        let mut ep = eps.pop().unwrap();
        let err = ep.send(2, Tag(0), Bytes::new()).unwrap_err();
        assert_eq!(err.subsystem(), "rank-failed");
        assert!(err.message().contains("peer rank 2 is gone"), "{err}");
        // The failure belongs to that request alone: nothing stays parked
        // on the dead peer, and a full but live inbox is still a timeout.
        assert!(format!("{ep:?}").contains("pending: 0"), "{ep:?}");
        ep.send(1, Tag(0), Bytes::new()).unwrap();
        let err = ep.send(1, Tag(0), Bytes::new()).unwrap_err();
        assert_eq!(err.subsystem(), "timeout", "{err}");
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let world = World::new(1, WorldConfig::default()).unwrap();
        let out = world.run(|mut ep| ep.send(5, Tag(0), Bytes::new()).is_err());
        assert!(out[0]);
    }
}
