#![warn(missing_docs)]

//! # hdm-faults
//!
//! Deterministic fault injection and the recovery policy shared by both
//! execution engines.
//!
//! The paper buys its speedups by replacing Hadoop MapReduce with
//! DataMPI, and inherits MPI's classic weakness in the trade: one failed
//! rank kills the whole job, where Hadoop re-executes individual task
//! attempts. This crate supplies the two halves of the answer:
//!
//! * [`FaultPlan`] — a seed-deterministic chaos source. Every decision
//!   (crash this task attempt? drop this message? stall this node? fail
//!   this read?) is a pure function of `(seed, site, rank, attempt/seq)`,
//!   hashed splitmix64-style and fed through the vendored xorshift-family
//!   [`rand::rngs::StdRng`]. No wall clock, no global state: the same
//!   seed replays the same faults regardless of thread interleaving, so
//!   recovery is testable and chaos runs are reproducible.
//! * [`RecoveryPolicy`] — the knobs recovery consults: attempts per
//!   task, bounded exponential backoff, and the receive deadline that
//!   turns "blocks forever on a dead peer" into
//!   [`HdmError::Timeout`](hdm_common::error::HdmError::Timeout).
//! * [`supervise`] — the one attempt loop every task of both engines
//!   runs under: retry until success or `max_attempts`, with stall
//!   injection, jittered cancel-aware backoff and the `ft.*` counters.
//!
//! When `hive.ft.enabled` is false (the default) every injection site
//! reduces to a single relaxed atomic load — the same discipline
//! `hdm-obs` holds itself to, and pinned by the `ft_overhead` criterion
//! group.
//!
//! Injection is suppressed once a task reaches attempt
//! [`INJECT_HORIZON`]: with the default `hive.ft.max.attempts = 4` a
//! task's final attempt is always fault-free, so task-level recovery
//! converges; configuring fewer attempts makes exhaustion (and the
//! driver's fallback-engine path) reachable on purpose.

use hdm_common::conf::JobConf;
use hdm_common::error::{HdmError, Result};
use hdm_common::CancelToken;
use hdm_obs::ObsHandle;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Attempt index from which injection is suppressed: a task that reaches
/// this attempt runs fault-free, so recovery always converges when
/// `hive.ft.max.attempts > INJECT_HORIZON`.
pub const INJECT_HORIZON: u32 = 3;

/// Crash probability (permille) for a task's first attempt; halves on
/// each retry.
const CRASH_PERMILLE: u64 = 200;
/// Upper bound (exclusive) on the "crash after N records" countdown.
const CRASH_WINDOW: u64 = 512;
/// Per-message drop probability (permille) on the MPI wire.
const DROP_PERMILLE: u64 = 1;
/// Per-message delay probability (permille) on the MPI wire.
const DELAY_PERMILLE: u64 = 5;
/// Injected message delay range (milliseconds, inclusive).
const DELAY_MS: std::ops::RangeInclusive<u64> = 1..=3;
/// Straggler-stall probability (permille) at task start.
const STRAGGLER_PERMILLE: u64 = 50;
/// Injected straggler stall range (milliseconds, inclusive).
const STALL_MS: std::ops::RangeInclusive<u64> = 2..=15;
/// Probability (permille) that a DFS path is transiently flaky.
const STORAGE_FLAKY_PERMILLE: u64 = 25;
/// Cap on the exponential-backoff shift so the delay cannot overflow.
const BACKOFF_MAX_SHIFT: u32 = 6;
/// Ceiling on a single backoff delay.
const BACKOFF_CAP: Duration = Duration::from_secs(1);

/// A named injection point. Decisions are keyed by site so the same
/// `(rank, attempt)` draws independent faults at each layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A DataMPI O (communication-attached map) task attempt.
    OTask,
    /// A DataMPI A (communication-attached reduce) task attempt.
    ATask,
    /// A MapReduce map task attempt.
    MapTask,
    /// A MapReduce reduce task attempt.
    ReduceTask,
    /// One message handed to `Endpoint::isend` in the MPI layer.
    MpiSend,
    /// One ranged read served by the simulated DFS.
    StorageRead,
}

impl Site {
    /// Stable mixing key; part of the on-disk contract of a seed.
    const fn key(self) -> u64 {
        match self {
            Site::OTask => 0x4f54_4153,
            Site::ATask => 0x4154_4153,
            Site::MapTask => 0x4d41_5054,
            Site::ReduceTask => 0x5244_4354,
            Site::MpiSend => 0x4d50_4953,
            Site::StorageRead => 0x5354_4f52,
        }
    }

    /// Prefix of the obs track a task of this site records on (`O3`,
    /// `R0`); empty for sites that are not tasks.
    const fn track_prefix(self) -> &'static str {
        match self {
            Site::OTask => "O",
            Site::ATask => "A",
            Site::MapTask => "M",
            Site::ReduceTask => "R",
            Site::MpiSend | Site::StorageRead => "",
        }
    }

    /// Short label used in obs counter labels and error messages.
    pub const fn label(self) -> &'static str {
        match self {
            Site::OTask => "o-task",
            Site::ATask => "a-task",
            Site::MapTask => "map-task",
            Site::ReduceTask => "reduce-task",
            Site::MpiSend => "mpi-send",
            Site::StorageRead => "storage-read",
        }
    }
}

#[derive(Debug)]
struct PlanInner {
    seed: u64,
    /// Injected read failures already delivered, per path: a flaky path
    /// fails its first k reads, then heals (a *transient* fault — the
    /// retrying attempt must be able to succeed).
    storage_failures: Mutex<HashMap<String, u32>>,
}

/// The seed-deterministic chaos source. Cheap to clone; all clones share
/// the same seed and transient-failure bookkeeping. A disabled plan
/// holds no schedule at all (`inner` is `None`), so building one
/// allocates nothing; both kinds record detections into their obs
/// handle.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
    obs: ObsHandle,
}

impl FaultPlan {
    fn build(enabled: bool, seed: u64, obs: ObsHandle) -> FaultPlan {
        let inner = enabled.then(|| {
            Arc::new(PlanInner {
                seed,
                storage_failures: Mutex::new(HashMap::new()),
            })
        });
        FaultPlan { inner, obs }
    }

    /// A plan that injects nothing; every probe is one `Option` check.
    pub fn disabled() -> FaultPlan {
        FaultPlan::build(false, 0, ObsHandle::disabled())
    }

    /// An enabled plan over `seed` with no obs recording (tests).
    pub fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan::build(true, seed, ObsHandle::disabled())
    }

    /// Build from `hive.ft.*`, recording injection/recovery counters into
    /// `obs`.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if a `hive.ft.*` value is malformed.
    pub fn from_conf(conf: &JobConf, obs: &ObsHandle) -> Result<FaultPlan> {
        Ok(FaultPlan::build(
            conf.ft_enabled()?,
            conf.ft_seed()?,
            obs.clone(),
        ))
    }

    /// Whether injection is active — one `Option` check, the full cost
    /// of a disabled injection site.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The seed this plan replays.
    pub fn seed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.seed)
    }

    /// One decision stream per `(site, a, b)`: splitmix64-style mixing
    /// into the vendored xorshift-family `StdRng`.
    fn rng(&self, site: Site, a: u64, b: u64) -> StdRng {
        let mut x = self.seed() ^ site.key().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = x.wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        x = x.wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
        StdRng::seed_from_u64(x)
    }

    fn permille_hit(&self, site: Site, a: u64, b: u64, permille: u64) -> bool {
        permille > 0 && self.rng(site, a, b).random_range(0..1000u64) < permille
    }

    /// Should `(site, rank)` attempt `attempt` crash — and if so, after
    /// how many records? Decays by attempt; `None` at or past
    /// [`INJECT_HORIZON`] or when the plan is disabled.
    pub fn crash_after(&self, site: Site, rank: usize, attempt: u32) -> Option<u64> {
        if !self.is_enabled() || attempt >= INJECT_HORIZON {
            return None;
        }
        let mut rng = self.rng(site, rank as u64, attempt as u64);
        if rng.random_range(0..1000u64) < (CRASH_PERMILLE >> attempt) {
            Some(rng.random_range(0..CRASH_WINDOW))
        } else {
            None
        }
    }

    /// Pure decision form of [`FaultPlan::crash_after`], for tests that
    /// search seeds with a particular fault shape.
    pub fn would_crash(&self, site: Site, rank: usize, attempt: u32) -> bool {
        self.crash_after(site, rank, attempt).is_some()
    }

    /// Should message `seq` out of `src` be dropped on the wire?
    pub fn should_drop(&self, site: Site, src: usize, seq: u64) -> bool {
        self.is_enabled() && self.permille_hit(site, src as u64 ^ 0xd807, seq, DROP_PERMILLE)
    }

    /// Artificial network delay for message `seq` out of `src`, if any.
    pub fn send_delay(&self, site: Site, src: usize, seq: u64) -> Option<Duration> {
        if !self.is_enabled() || !self.permille_hit(site, src as u64 ^ 0x3a11, seq, DELAY_PERMILLE)
        {
            return None;
        }
        let ms = self
            .rng(site, src as u64 ^ 0x3a12, seq)
            .random_range(DELAY_MS);
        Some(Duration::from_millis(ms))
    }

    /// Slow-node straggler stall at the start of `(site, rank, attempt)`,
    /// if any. Stalls slow a task without failing it.
    fn stall(&self, site: Site, rank: usize, attempt: u32) -> Option<Duration> {
        if !self.is_enabled()
            || !self.permille_hit(
                site,
                rank as u64 ^ 0x57a1,
                attempt as u64,
                STRAGGLER_PERMILLE,
            )
        {
            return None;
        }
        let ms = self
            .rng(site, rank as u64 ^ 0x57a2, attempt as u64)
            .random_range(STALL_MS);
        Some(Duration::from_millis(ms))
    }

    /// Transient read failure for `path`, if the plan marked it flaky and
    /// its failure budget is not yet spent. A flaky path fails its first
    /// 1–2 reads then heals, so a retried attempt succeeds.
    pub fn storage_error(&self, path: &str) -> Option<HdmError> {
        let inner = self.inner.as_ref()?;
        let h = fnv1a(path.as_bytes());
        let mut rng = self.rng(Site::StorageRead, h, 0);
        if rng.random_range(0..1000u64) >= STORAGE_FLAKY_PERMILLE {
            return None;
        }
        let budget = rng.random_range(1..=2u32);
        let nth = {
            let mut delivered = inner.storage_failures.lock();
            let count = delivered.entry(path.to_string()).or_insert(0);
            if *count >= budget {
                return None;
            }
            *count += 1;
            *count
        };
        self.note_injected(Site::StorageRead);
        Some(HdmError::Dfs(format!(
            "injected transient read error on {path} ({nth} of {budget})"
        )))
    }

    fn bump(&self, name: &str, labels: std::fmt::Arguments<'_>) {
        self.obs.count(name, &labels, 1);
    }

    /// Record one injected fault (obs counter `ft.injected`).
    pub fn note_injected(&self, site: Site) {
        self.bump("ft.injected", format_args!("site={}", site.label()));
    }

    /// Record one detected fault (obs counter `ft.detected`).
    pub fn note_detected(&self, site: Site) {
        self.bump("ft.detected", format_args!("site={}", site.label()));
    }

    /// Record one task retry (obs counter `ft.retries`).
    fn note_retry(&self, site: Site) {
        self.bump("ft.retries", format_args!("site={}", site.label()));
    }

    /// Record one engine fallback (obs counter `ft.fallbacks`).
    pub fn note_fallback(&self, from: &str, to: &str) {
        self.bump("ft.fallbacks", format_args!("from={from},to={to}"));
    }

    /// Record time a recovery site spent sleeping in backoff (obs timer
    /// `ft.backoff.ms`).
    fn observe_backoff(&self, site: Site, waited: Duration) {
        if let Some(width) = std::num::NonZeroU64::new(5) {
            let labels = format_args!("site={}", site.label());
            let timer = self.obs.timer("ft.backoff.ms", &labels, width);
            timer.observe(waited.as_millis() as u64);
        }
    }

    /// The obs handle injections are recorded into.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }
}

/// FNV-1a over a byte string; keys per-path storage decisions.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The recovery knobs consulted by retry supervisors and the MPI layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Attempts per task before the job is declared failed
    /// (`hive.ft.max.attempts`).
    pub max_attempts: u32,
    /// Base of the bounded exponential backoff
    /// (`hive.ft.backoff.base.ms`).
    pub backoff_base: Duration,
    /// Receive/wait deadline once fault tolerance is on
    /// (`hive.ft.recv.timeout.ms`).
    pub recv_timeout: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_millis(10),
            recv_timeout: Duration::from_millis(2000),
        }
    }
}

impl RecoveryPolicy {
    /// Build from `hive.ft.*`.
    ///
    /// # Errors
    /// Returns [`HdmError::Config`] if a value is malformed or out of
    /// range.
    pub fn from_conf(conf: &JobConf) -> Result<RecoveryPolicy> {
        Ok(RecoveryPolicy {
            max_attempts: conf.ft_max_attempts()?,
            backoff_base: Duration::from_millis(conf.ft_backoff_base_ms()?),
            recv_timeout: Duration::from_millis(conf.ft_recv_timeout_ms()?),
        })
    }

    /// Delay before re-running attempt `attempt + 1`:
    /// `base * 2^attempt`, shift-capped and bounded by one second.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        let shifted = self.backoff_base * (1u32 << attempt.min(BACKOFF_MAX_SHIFT));
        shifted.min(BACKOFF_CAP)
    }

    /// [`Self::backoff_delay`] with seed-deterministic jitter, so tasks
    /// that fail together do not all retry on the same beat. `key` mixes
    /// in whatever identifies the retrier (fault seed, site, rank); the
    /// same `(key, attempt)` always draws the same delay, keeping chaos
    /// runs replayable. The jittered delay lands in
    /// `[backoff_delay / 2, backoff_delay]`: staggered, but never past
    /// the pinned schedule bound.
    fn backoff_delay_jittered(&self, attempt: u32, key: u64) -> Duration {
        let full = self.backoff_delay(attempt);
        let micros = full.as_micros() as u64;
        if micros < 2 {
            return full;
        }
        // splitmix64 finalizer over (key, attempt) — no wall clock, no
        // shared RNG state.
        let mut z = key.wrapping_add((u64::from(attempt) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let span = micros / 2;
        Duration::from_micros(micros - span + z % (span + 1))
    }
}

/// Run one task under the recovery policy: call `body` until it
/// succeeds, fails terminally, or `max_attempts` are spent, and return
/// its last result. `body` receives the attempt number (0 first) and
/// whether a later attempt may still run, so it can keep its replay
/// input only while a retry could need it.
///
/// Attempts beyond the first exist only under an enabled fault plan;
/// with fault tolerance off this is one direct call of `body`. Under an
/// enabled plan every attempt may first draw a straggler stall, a
/// [`HdmError::Cancelled`] failure is terminal (a torn-down query is
/// never replayed), and a retry is counted (`ft.detected`,
/// `ft.retries`), spanned (`<site>-retry` on the task's track) and
/// preceded by a seed-deterministic jittered backoff (`ft.backoff.ms`)
/// keyed by `(site, rank)` that returns early if `cancel` fires.
///
/// `between` is for a task whose failed attempt left state at a peer:
/// it runs before each retry to roll that state back, and a `false`
/// return (the peer is gone) stops retrying with the attempt's error.
/// The peer that sees the rollback counts the detection, so
/// `ft.detected` is only bumped here when `between` is `None`.
///
/// # Errors
/// The last attempt's error, or [`HdmError::Cancelled`] if the token
/// fired during a backoff.
pub fn supervise<T>(
    faults: &FaultPlan,
    recovery: &RecoveryPolicy,
    cancel: &CancelToken,
    site: Site,
    rank: usize,
    mut between: Option<&mut dyn FnMut() -> bool>,
    mut body: impl FnMut(u32, bool) -> Result<T>,
) -> Result<T> {
    if !faults.is_enabled() {
        return body(0, false);
    }
    let max_attempts = recovery.max_attempts.max(1);
    let jitter_key = faults.seed() ^ (site.key() << 32) ^ rank as u64;
    let mut attempt = 0u32;
    loop {
        let _retry_span = (attempt > 0).then(|| {
            faults.obs().span(
                &format!("{}{rank}", site.track_prefix()),
                "recovery",
                &format!("{}-retry", site.label()),
            )
        });
        if let Some(stall) = faults.stall(site, rank, attempt) {
            faults.note_injected(site);
            std::thread::sleep(stall);
        }
        let more = attempt + 1 < max_attempts;
        let err = match body(attempt, more) {
            Ok(value) => return Ok(value),
            Err(e) if !more || e.is_cancelled() => return Err(e),
            Err(e) => e,
        };
        match between.as_mut() {
            Some(roll_back) => {
                if !roll_back() {
                    return Err(err);
                }
            }
            None => faults.note_detected(site),
        }
        faults.note_retry(site);
        let delay = recovery.backoff_delay_jittered(attempt, jitter_key);
        attempt += 1;
        wait_unless_cancelled(cancel, delay)?;
        faults.observe_backoff(site, delay);
    }
}

/// Sleep for `delay`, or until `cancel` fires: a query cancelled during
/// a backoff must not sit the delay out only to fail its next attempt.
fn wait_unless_cancelled(cancel: &CancelToken, delay: Duration) -> Result<()> {
    // Nothing is ever sent; the waker drops the sender, so the receive
    // ends early exactly when the token fires.
    let (wake_tx, wake_rx) = channel::<()>();
    let _waker = cancel.on_cancel(move || drop(wake_tx));
    match wake_rx.recv_timeout(delay) {
        Err(RecvTimeoutError::Timeout) => Ok(()),
        _ => Err(cancel.as_error()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use hdm_common::conf::{
        KEY_FT_BACKOFF_BASE_MS, KEY_FT_ENABLED, KEY_FT_MAX_ATTEMPTS, KEY_FT_SEED,
    };

    #[test]
    fn disabled_plan_injects_nothing() {
        let p = FaultPlan::disabled();
        assert!(!p.is_enabled());
        for rank in 0..64 {
            for attempt in 0..4 {
                assert_eq!(p.crash_after(Site::OTask, rank, attempt), None);
                assert!(p.stall(Site::MapTask, rank, attempt).is_none());
            }
            for seq in 0..256 {
                assert!(!p.should_drop(Site::MpiSend, rank, seq));
                assert!(p.send_delay(Site::MpiSend, rank, seq).is_none());
            }
        }
        assert!(p.storage_error("/warehouse/lineitem/part-0").is_none());
    }

    /// However a disabled plan is made — `disabled()`, `Default`, or
    /// `from_conf` with fault tolerance off but a seed that would crash
    /// tasks when on — it holds no schedule (no `Arc`, no failure map),
    /// injects nothing at any site, and still records detections into
    /// its obs handle.
    #[test]
    fn a_disabled_plan_holds_no_inner_state_and_injects_nothing() {
        let sites = [
            Site::OTask,
            Site::ATask,
            Site::MapTask,
            Site::ReduceTask,
            Site::MpiSend,
            Site::StorageRead,
        ];
        let crashing = (0..256u64)
            .find(|&seed| {
                (0..16).any(|rank| FaultPlan::with_seed(seed).would_crash(Site::OTask, rank, 0))
            })
            .expect("a seed that crashes some task");
        let obs = ObsHandle::enabled_with_stride(1);
        let conf = JobConf::new().with(KEY_FT_SEED, crashing);
        let plans = [
            FaultPlan::disabled(),
            FaultPlan::default(),
            FaultPlan::from_conf(&conf, &obs).unwrap(),
        ];
        for p in &plans {
            assert!(p.inner.is_none());
            assert!(!p.is_enabled());
            assert_eq!(p.seed(), 0);
            for site in sites {
                for rank in 0..16 {
                    for attempt in 0..4 {
                        assert_eq!(p.crash_after(site, rank, attempt), None);
                        assert!(p.stall(site, rank, attempt).is_none());
                    }
                    for seq in 0..64 {
                        assert!(!p.should_drop(site, rank, seq));
                        assert!(p.send_delay(site, rank, seq).is_none());
                    }
                }
            }
            for i in 0..256 {
                assert!(p
                    .storage_error(&format!("/warehouse/t/part-{i:05}"))
                    .is_none());
            }
            let mut calls = 0;
            let pol = RecoveryPolicy::from_conf(&JobConf::new()).unwrap();
            let cancel = CancelToken::default();
            let out = supervise(p, &pol, &cancel, Site::OTask, 0, None, |attempt, more| {
                calls += 1;
                assert_eq!((attempt, more), (0, false));
                Err::<(), _>(HdmError::Storage("boom".into()))
            });
            assert!(out.is_err());
            assert_eq!(calls, 1);
        }
        plans[2].note_detected(Site::MpiSend);
        let snap = obs.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(n, _, v)| n == "ft.detected" && *v == 1));
        assert!(!snap
            .counters
            .iter()
            .any(|(n, _, _)| n == "ft.injected" || n == "ft.retries"));
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::with_seed(7);
        let b = FaultPlan::with_seed(7);
        let c = FaultPlan::with_seed(8);
        let mut diverged = false;
        for rank in 0..32 {
            for attempt in 0..INJECT_HORIZON {
                assert_eq!(
                    a.crash_after(Site::OTask, rank, attempt),
                    b.crash_after(Site::OTask, rank, attempt)
                );
                if a.would_crash(Site::OTask, rank, attempt)
                    != c.would_crash(Site::OTask, rank, attempt)
                {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "seeds 7 and 8 should not share a fault plan");
    }

    #[test]
    fn injection_stops_at_the_horizon() {
        for seed in 0..64u64 {
            let p = FaultPlan::with_seed(seed);
            for rank in 0..32 {
                for attempt in INJECT_HORIZON..INJECT_HORIZON + 4 {
                    assert_eq!(p.crash_after(Site::OTask, rank, attempt), None);
                    assert_eq!(p.crash_after(Site::MapTask, rank, attempt), None);
                }
            }
        }
    }

    #[test]
    fn some_seed_crashes_some_task() {
        let hit = (0..64u64).any(|seed| {
            let p = FaultPlan::with_seed(seed);
            (0..8).any(|rank| p.would_crash(Site::OTask, rank, 0))
        });
        assert!(hit, "crash probability is too low to ever fire");
    }

    #[test]
    fn storage_faults_are_transient() {
        // Find a path the plan marks flaky, then check it heals.
        let p = FaultPlan::with_seed(3);
        let flaky = (0..512)
            .map(|i| format!("/warehouse/t/part-{i}"))
            .find(|path| p.storage_error(path).is_some());
        let Some(path) = flaky else {
            panic!("no flaky path in 512 candidates; probability too low");
        };
        // The budget is at most 2, and one failure was already delivered.
        let mut failures = 1;
        while p.storage_error(&path).is_some() {
            failures += 1;
            assert!(failures <= 2, "storage fault on {path} never heals");
        }
        assert!(p.storage_error(&path).is_none(), "path must stay healed");
    }

    #[test]
    fn backoff_schedule_is_bounded_exponential() {
        let pol = RecoveryPolicy {
            backoff_base: Duration::from_millis(10),
            ..RecoveryPolicy::default()
        };
        assert_eq!(pol.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(pol.backoff_delay(1), Duration::from_millis(20));
        assert_eq!(pol.backoff_delay(2), Duration::from_millis(40));
        assert_eq!(pol.backoff_delay(3), Duration::from_millis(80));
        // Capped: the shift saturates and the delay never passes 1s.
        assert_eq!(pol.backoff_delay(31), pol.backoff_delay(BACKOFF_MAX_SHIFT));
        assert!(pol.backoff_delay(31) <= Duration::from_secs(1));
        let big = RecoveryPolicy {
            backoff_base: Duration::from_millis(900),
            ..RecoveryPolicy::default()
        };
        assert_eq!(big.backoff_delay(4), Duration::from_secs(1));
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let pol = RecoveryPolicy {
            backoff_base: Duration::from_millis(10),
            ..RecoveryPolicy::default()
        };
        let mut diverged = false;
        for attempt in 0..8u32 {
            let full = pol.backoff_delay(attempt);
            for key in 0..64u64 {
                let d = pol.backoff_delay_jittered(attempt, key);
                // Replayable: the same (key, attempt) draws the same delay.
                assert_eq!(d, pol.backoff_delay_jittered(attempt, key));
                // Bounded: staggered within [full/2, full], never past the
                // pinned exponential schedule.
                assert!(d <= full, "attempt {attempt} key {key}: {d:?} > {full:?}");
                assert!(
                    d >= full / 2,
                    "attempt {attempt} key {key}: {d:?} < {:?}",
                    full / 2
                );
                if d != pol.backoff_delay_jittered(attempt, key + 1) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "jitter never separated any two keys");
        let zero = RecoveryPolicy {
            backoff_base: Duration::ZERO,
            ..RecoveryPolicy::default()
        };
        assert_eq!(zero.backoff_delay_jittered(3, 9), Duration::ZERO);
    }

    /// A plan (on or off) recording into a fresh obs handle, 4 attempts,
    /// 1 ms backoff base.
    fn supervised(enabled: bool) -> (FaultPlan, RecoveryPolicy, ObsHandle) {
        let obs = ObsHandle::enabled_with_stride(1);
        let conf = JobConf::new()
            .with(KEY_FT_ENABLED, enabled)
            .with(KEY_FT_BACKOFF_BASE_MS, 1);
        let plan = FaultPlan::from_conf(&conf, &obs).unwrap();
        (plan, RecoveryPolicy::from_conf(&conf).unwrap(), obs)
    }

    fn counter(obs: &ObsHandle, name: &str) -> u64 {
        let snap = obs.snapshot();
        let hits = snap.counters.iter().filter(|(n, _, _)| n == name);
        hits.map(|(_, _, v)| *v).sum()
    }

    fn boom(attempt: u32) -> HdmError {
        HdmError::RankFailed(format!("attempt {attempt} failed"))
    }

    #[test]
    fn supervise_retries_until_success() {
        let (plan, pol, obs) = supervised(true);
        let mut seen = Vec::new();
        let out = supervise(
            &plan,
            &pol,
            &CancelToken::new(),
            Site::MapTask,
            3,
            None,
            |attempt, more| {
                seen.push((attempt, more));
                if attempt < 2 {
                    Err(boom(attempt))
                } else {
                    Ok(attempt * 10)
                }
            },
        );
        assert_eq!(out.unwrap(), 20);
        assert_eq!(seen, vec![(0, true), (1, true), (2, true)]);
        assert_eq!(counter(&obs, "ft.detected"), 2);
        assert_eq!(counter(&obs, "ft.retries"), 2);
        let snap = obs.snapshot();
        assert!(snap.timers.iter().any(|(n, _, _)| n == "ft.backoff.ms"));
        let retries = snap.spans.iter().filter(|s| s.name == "map-task-retry");
        assert_eq!(retries.filter(|s| s.track == "M3").count(), 2);
    }

    #[test]
    fn supervise_returns_the_last_error_when_attempts_run_out() {
        let (plan, pol, obs) = supervised(true);
        let mut last_more = true;
        let err = supervise(
            &plan,
            &pol,
            &CancelToken::new(),
            Site::ReduceTask,
            0,
            None,
            |attempt, more| -> Result<()> {
                last_more = more;
                Err(boom(attempt))
            },
        )
        .unwrap_err();
        assert!(err.message().contains("attempt 3 failed"), "{err}");
        assert!(!last_more, "the final attempt must be told it is final");
        assert_eq!(counter(&obs, "ft.retries"), 3);
    }

    #[test]
    fn supervise_never_retries_a_cancelled_attempt() {
        let (plan, pol, obs) = supervised(true);
        let mut attempts = 0;
        let err = supervise(
            &plan,
            &pol,
            &CancelToken::new(),
            Site::ATask,
            1,
            None,
            |_, _| -> Result<()> {
                attempts += 1;
                Err(HdmError::Cancelled("deadline".into()))
            },
        )
        .unwrap_err();
        assert!(err.is_cancelled());
        assert_eq!(attempts, 1);
        assert_eq!(counter(&obs, "ft.retries"), 0);
        assert_eq!(counter(&obs, "ft.detected"), 0);
    }

    #[test]
    fn supervise_is_one_plain_call_with_fault_tolerance_off() {
        let (plan, pol, obs) = supervised(false);
        let mut seen = Vec::new();
        let mut rolled_back = false;
        let err = supervise(
            &plan,
            &pol,
            &CancelToken::new(),
            Site::OTask,
            0,
            Some(&mut || {
                rolled_back = true;
                true
            }),
            |attempt, more| -> Result<()> {
                seen.push((attempt, more));
                Err(boom(attempt))
            },
        )
        .unwrap_err();
        assert!(err.message().contains("attempt 0 failed"), "{err}");
        assert_eq!(seen, vec![(0, false)]);
        assert!(!rolled_back);
        let snap = obs.snapshot();
        assert!(snap.counters.is_empty() && snap.timers.is_empty() && snap.spans.is_empty());
    }

    #[test]
    fn supervise_stops_when_the_rollback_fails() {
        let (plan, pol, obs) = supervised(true);
        let mut attempts = 0;
        let mut rollbacks = 0;
        let err = supervise(
            &plan,
            &pol,
            &CancelToken::new(),
            Site::OTask,
            2,
            Some(&mut || {
                rollbacks += 1;
                rollbacks < 2
            }),
            |attempt, _| -> Result<()> {
                attempts += 1;
                Err(boom(attempt))
            },
        )
        .unwrap_err();
        assert!(err.message().contains("attempt 1 failed"), "{err}");
        assert_eq!((attempts, rollbacks), (2, 2));
        assert_eq!(counter(&obs, "ft.retries"), 1);
        // The peer that sees the rollback counts the detection.
        assert_eq!(counter(&obs, "ft.detected"), 0);
    }

    #[test]
    fn cancel_during_backoff_returns_at_once() {
        let plan = FaultPlan::with_seed(5);
        let pol = RecoveryPolicy {
            backoff_base: Duration::from_secs(1),
            ..RecoveryPolicy::default()
        };
        let cancel = CancelToken::new();
        let (failed_tx, failed_rx) = channel::<()>();
        let fired_at = std::thread::scope(|scope| {
            let killer_token = cancel.clone();
            let killer = scope.spawn(move || {
                // Fire 10 ms into the backoff that follows attempt 0.
                failed_rx.recv().unwrap();
                std::thread::sleep(Duration::from_millis(10));
                killer_token.cancel("killed mid-backoff");
                std::time::Instant::now()
            });
            let mut attempts = 0;
            let err = supervise(
                &plan,
                &pol,
                &cancel,
                Site::MapTask,
                0,
                None,
                |attempt, _| -> Result<()> {
                    attempts += 1;
                    failed_tx.send(()).unwrap();
                    Err(boom(attempt))
                },
            )
            .unwrap_err();
            assert!(err.is_cancelled(), "{err}");
            assert!(err.message().contains("killed mid-backoff"), "{err}");
            assert_eq!(attempts, 1, "the wait must not run out into attempt 1");
            killer.join().unwrap()
        });
        // The jittered delay is at least 500 ms; a plain sleep would
        // still be sitting in it.
        assert!(fired_at.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn conf_round_trip() {
        let conf = JobConf::new()
            .with(KEY_FT_ENABLED, "true")
            .with(KEY_FT_SEED, 99)
            .with(KEY_FT_MAX_ATTEMPTS, 2)
            .with(KEY_FT_BACKOFF_BASE_MS, 1);
        let plan = FaultPlan::from_conf(&conf, &ObsHandle::disabled()).unwrap();
        assert!(plan.is_enabled());
        assert_eq!(plan.seed(), 99);
        let pol = RecoveryPolicy::from_conf(&conf).unwrap();
        assert_eq!(pol.max_attempts, 2);
        assert_eq!(pol.backoff_base, Duration::from_millis(1));
        assert_eq!(pol.recv_timeout, Duration::from_millis(2000));

        let off = FaultPlan::from_conf(&JobConf::new(), &ObsHandle::disabled()).unwrap();
        assert!(!off.is_enabled());
    }

    #[test]
    fn injection_counters_reach_obs() {
        let obs = ObsHandle::enabled_with_stride(1);
        let conf = JobConf::new()
            .with(KEY_FT_ENABLED, "true")
            .with(KEY_FT_SEED, 1);
        let plan = FaultPlan::from_conf(&conf, &obs).unwrap();
        plan.note_injected(Site::OTask);
        plan.note_detected(Site::MpiSend);
        plan.note_retry(Site::OTask);
        plan.note_fallback("datampi", "mapreduce");
        plan.observe_backoff(Site::OTask, Duration::from_millis(12));
        let snap = obs.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(get("ft.injected"), Some(1));
        assert_eq!(get("ft.detected"), Some(1));
        assert_eq!(get("ft.retries"), Some(1));
        assert_eq!(get("ft.fallbacks"), Some(1));
        assert!(snap.timers.iter().any(|(n, _, _)| n == "ft.backoff.ms"));
    }
}
