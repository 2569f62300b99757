#![warn(missing_docs)]

//! # hdm-obs
//!
//! Unified tracing, metrics, and profiling for the Hive-on-DataMPI
//! reproduction.
//!
//! The paper's whole evaluation rests on observability signals: phase
//! breakdowns (Fig. 1/10), communication characteristics (Fig. 2), and
//! dstat resource curves (Fig. 13). Before this crate those signals were
//! collected by four disconnected ad-hoc modules; `hdm-obs` gives every
//! layer one low-overhead instrumentation surface:
//!
//! * **Hierarchical spans** (job → phase → task → operator) recorded
//!   into a thread-safe bounded recorder, keyed by *track* (one Chrome
//!   trace row per task rank / subsystem).
//! * **A metrics registry** of named counters, gauges, and
//!   [`Histogram`](hdm_common::stats::Histogram)-backed timers, labeled
//!   by task rank / node.
//! * **A sampling resource probe** — our dstat analogue: bytes moved,
//!   queue depths, memory-in-use, sampled every
//!   [`hive.obs.sample.rate`](hdm_common::conf::KEY_OBS_SAMPLE_RATE)-th
//!   event and exported as Chrome counter tracks.
//! * **Exporters**: Chrome-trace/Perfetto JSON ([`chrome`]), a
//!   byte-deterministic plaintext summary ([`summary`]), and the shared
//!   report types ([`report`], [`probe`]) the `fig01`/`fig10`/`fig13`
//!   harnesses consume.
//!
//! Everything hangs off a cheaply-cloneable [`ObsHandle`], and the
//! handle alone decides whether anything is recorded. A disabled handle
//! (the default — `hive.obs.enabled=false`) holds no recorder: its
//! [`counter`](ObsHandle::counter) / [`gauge`](ObsHandle::gauge) /
//! [`timer`](ObsHandle::timer) return inert handles and
//! [`span`](ObsHandle::span) an inert guard, with no lock and no
//! allocation, and labels (a reference to any `Display` value, e.g.
//! `&format_args!("rank={rank}")`) are only formatted when something is
//! recorded. Callers never gate a recording call on
//! [`ObsHandle::is_enabled`]; they ask it only to skip work that is not
//! recording (a snapshot, an export, a clock read).

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod span;
pub mod summary;

pub use metrics::{Counter, Gauge, Timer};
pub use probe::{Resource, ResourceTrace, UsageInterval};
pub use report::{
    CollectProfile, PhaseBreakdown, SpillStats, COLLECT_SAMPLE_STRIDE, KV_HIST_BUCKET,
    TIMER_US_BUCKET,
};
pub use span::{SpanEvent, SpanGuard};

use hdm_common::conf::JobConf;
use hdm_common::error::Result;
use hdm_common::stats::Histogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on recorded span events; further spans bump a drop counter
/// instead of growing without bound.
pub const MAX_SPANS: usize = 1 << 16;
/// Hard cap on recorded probe samples.
pub const MAX_SAMPLES: usize = 1 << 16;
/// The probe stride a disabled handle reports (`hive.obs.sample.rate`'s
/// default).
const DEFAULT_STRIDE: u64 = 64;

/// One probe observation: a Chrome counter-track point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleEvent {
    /// Track (Chrome trace row) the sample belongs to.
    pub track: String,
    /// Counter name within the track.
    pub name: String,
    /// Microseconds since the handle's epoch.
    pub t_us: u64,
    /// Observed value.
    pub value: u64,
}

/// A point-in-time copy of everything a handle has recorded, in
/// deterministic (sorted-registry) order for the metric sections.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Span events in recording order.
    pub spans: Vec<SpanEvent>,
    /// Spans discarded because the recorder was full.
    pub dropped_spans: u64,
    /// `(name, labels, value)` for every registered counter, sorted.
    pub counters: Vec<(String, String, u64)>,
    /// `(name, labels, value)` for every registered gauge, sorted.
    pub gauges: Vec<(String, String, i64)>,
    /// `(name, labels, histogram)` for every registered timer, sorted.
    pub timers: Vec<(String, String, Histogram)>,
    /// Probe samples in recording order.
    pub samples: Vec<SampleEvent>,
    /// Samples discarded because the probe buffer was full.
    pub dropped_samples: u64,
}

#[derive(Debug, Default)]
struct SpanStore {
    events: Vec<SpanEvent>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct SampleStore {
    events: Vec<SampleEvent>,
    dropped: u64,
}

/// Registry map keyed by `(metric name, label string)`.
type Registry<T> = Mutex<BTreeMap<(String, String), Arc<T>>>;

#[derive(Debug)]
pub(crate) struct ObsInner {
    stride: u64,
    epoch: Instant,
    spans: Mutex<SpanStore>,
    counters: Registry<AtomicU64>,
    gauges: Registry<AtomicI64>,
    timers: Registry<Mutex<Histogram>>,
    samples: Mutex<SampleStore>,
}

/// Fetch (registering on first use) the slot `name{labels}` of one
/// registry.
fn slot<T>(
    reg: &Registry<T>,
    name: &str,
    labels: &(impl Display + ?Sized),
    new: impl FnOnce() -> T,
) -> Arc<T> {
    let mut reg = reg.lock();
    Arc::clone(
        reg.entry((name.to_string(), labels.to_string()))
            .or_insert_with(|| Arc::new(new())),
    )
}

/// Cheaply-cloneable handle to one observation session (typically one
/// query). All clones share the same recorder, registry, and epoch; a
/// disabled handle has none of them.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<ObsInner>>,
}

impl ObsHandle {
    /// A handle that records nothing: it holds no recorder, so every
    /// call on it returns at once and every metric handle it vends is
    /// inert.
    pub fn disabled() -> ObsHandle {
        ObsHandle { inner: None }
    }

    /// A recording handle with the given probe sampling stride.
    pub fn enabled_with_stride(stride: u64) -> ObsHandle {
        ObsHandle {
            inner: Some(Arc::new(ObsInner {
                stride: stride.max(1),
                epoch: Instant::now(),
                spans: Mutex::new(SpanStore::default()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                timers: Mutex::new(BTreeMap::new()),
                samples: Mutex::new(SampleStore::default()),
            })),
        }
    }

    /// Build a handle from the registered conf knobs
    /// (`hive.obs.enabled`, `hive.obs.sample.rate`).
    ///
    /// # Errors
    /// [`hdm_common::error::HdmError::Config`] on malformed knob values.
    pub fn from_conf(conf: &JobConf) -> Result<ObsHandle> {
        let enabled = conf.obs_enabled()?;
        let stride = conf.obs_sample_stride()?;
        Ok(if enabled {
            ObsHandle::enabled_with_stride(stride)
        } else {
            ObsHandle::disabled()
        })
    }

    /// Whether this handle records anything. Only work beyond recording
    /// (a snapshot, an export, a clock read) needs to ask: recording
    /// calls on a disabled handle are already free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured probe sampling stride (the default 64 on a
    /// disabled handle).
    pub fn stride(&self) -> u64 {
        self.inner.as_ref().map_or(DEFAULT_STRIDE, |i| i.stride)
    }

    /// True on every `stride`-th event (and for the first event), so a
    /// hot loop can gate probe samples on its own monotone counter:
    /// `if obs.should_sample(n) { obs.sample(...) }`. Always false when
    /// disabled.
    #[inline]
    pub fn should_sample(&self, n: u64) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| n % i.stride == 1 % i.stride)
    }

    /// Microseconds elapsed between this handle's epoch and `at` (0 when
    /// disabled).
    pub fn micros_since_epoch(&self, at: Instant) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            at.saturating_duration_since(i.epoch).as_micros() as u64
        })
    }

    /// Open a span on `track`; the span is recorded when the returned
    /// guard drops. Inert (no allocation, no lock) when disabled.
    pub fn span(&self, track: &str, cat: &'static str, name: &str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard::inert();
        }
        SpanGuard::active(self.clone(), track.to_string(), cat, name.to_string())
    }

    /// Record a span with explicit timestamps (µs since epoch). Used by
    /// instrumentation that already measured a duration, and by the
    /// deterministic exporter tests.
    pub fn record_span_at(
        &self,
        track: &str,
        cat: &'static str,
        name: &str,
        start_us: u64,
        dur_us: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push_span(SpanEvent {
            track: track.to_string(),
            cat,
            name: name.to_string(),
            start_us,
            dur_us,
        });
    }

    pub(crate) fn push_span(&self, ev: SpanEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut store = inner.spans.lock();
        if store.events.len() < MAX_SPANS {
            store.events.push(ev);
        } else {
            store.dropped += 1;
        }
    }

    /// Fetch (registering on first use) the counter `name{labels}`.
    /// Returns a clone of the shared slot, or an inert counter when
    /// disabled (`labels` is then never formatted): fetch once at setup,
    /// then `add` from the hot path.
    pub fn counter(&self, name: &str, labels: &(impl Display + ?Sized)) -> Counter {
        Counter::new(
            self.inner
                .as_ref()
                .map(|i| slot(&i.counters, name, labels, || AtomicU64::new(0))),
        )
    }

    /// Add `n` to the counter `name{labels}` once — the form for a site
    /// that records a count a single time rather than from a loop.
    pub fn count(&self, name: &str, labels: &(impl Display + ?Sized), n: u64) {
        self.counter(name, labels).add(n);
    }

    /// Fetch (registering on first use) the gauge `name{labels}`; inert
    /// when disabled.
    pub fn gauge(&self, name: &str, labels: &(impl Display + ?Sized)) -> Gauge {
        Gauge::new(
            self.inner
                .as_ref()
                .map(|i| slot(&i.gauges, name, labels, || AtomicI64::new(0))),
        )
    }

    /// Fetch (registering on first use) the timer `name{labels}` with
    /// the given histogram bucket width (first registration wins); inert
    /// when disabled.
    pub fn timer(
        &self,
        name: &str,
        labels: &(impl Display + ?Sized),
        bucket_width: NonZeroU64,
    ) -> Timer {
        Timer::new(self.inner.as_ref().map(|i| {
            slot(&i.timers, name, labels, || {
                Mutex::new(Histogram::with_width(bucket_width))
            })
        }))
    }

    /// Record one probe observation at "now" on `track` (formatted only
    /// when enabled). No-op when disabled.
    pub fn sample(&self, track: &(impl Display + ?Sized), name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let t_us = self.micros_since_epoch(Instant::now());
        self.sample_at(&track.to_string(), name, t_us, value);
    }

    /// Record one probe observation with an explicit timestamp (µs since
    /// epoch). No-op when disabled.
    pub fn sample_at(&self, track: &str, name: &str, t_us: u64, value: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut store = inner.samples.lock();
        if store.events.len() < MAX_SAMPLES {
            store.events.push(SampleEvent {
                track: track.to_string(),
                name: name.to_string(),
                t_us,
                value,
            });
        } else {
            store.dropped += 1;
        }
    }

    /// Copy out everything recorded so far (empty when disabled).
    pub fn snapshot(&self) -> ObsSnapshot {
        let Some(inner) = &self.inner else {
            return ObsSnapshot::default();
        };
        let spans = inner.spans.lock();
        let samples = inner.samples.lock();
        ObsSnapshot {
            spans: spans.events.clone(),
            dropped_spans: spans.dropped,
            counters: inner
                .counters
                .lock()
                .iter()
                .map(|((n, l), v)| (n.clone(), l.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .iter()
                .map(|((n, l), v)| (n.clone(), l.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            timers: inner
                .timers
                .lock()
                .iter()
                .map(|((n, l), h)| (n.clone(), l.clone(), h.lock().clone()))
                .collect(),
            samples: samples.events.clone(),
            dropped_samples: samples.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = ObsHandle::disabled();
        assert!(!obs.is_enabled());
        {
            let _g = obs.span("t", "cat", "noop");
        }
        obs.record_span_at("t", "cat", "explicit", 0, 5);
        obs.sample("t", "bytes", 7);
        let snap = obs.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.samples.is_empty());
    }

    #[test]
    fn spans_record_when_enabled() {
        let obs = ObsHandle::enabled_with_stride(1);
        {
            let _g = obs.span("O0", "task", "o-task");
        }
        obs.record_span_at("O0", "op", "open", 10, 3);
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped_spans, 0);
        assert!(snap.spans.iter().any(|s| s.name == "open" && s.dur_us == 3));
    }

    #[test]
    fn metric_registry_dedupes_and_accumulates() {
        let obs = ObsHandle::enabled_with_stride(1);
        let a = obs.counter("spl.flushes", "rank=0");
        let b = obs.counter("spl.flushes", "rank=0");
        a.add(2);
        b.add(3);
        obs.gauge("mem.in.use", "rank=1").set(42);
        obs.timer("queue.wait.us", "rank=0", KV_HIST_BUCKET)
            .observe(9);
        let snap = obs.snapshot();
        assert_eq!(
            snap.counters,
            vec![("spl.flushes".to_string(), "rank=0".to_string(), 5)]
        );
        assert_eq!(snap.gauges.first().map(|g| g.2), Some(42));
        assert_eq!(snap.timers.first().map(|t| t.2.count()), Some(1));
    }

    #[test]
    fn sampling_stride_gates_probe() {
        let obs = ObsHandle::enabled_with_stride(4);
        let fired: Vec<u64> = (1..=9).filter(|&n| obs.should_sample(n)).collect();
        assert_eq!(fired, vec![1, 5, 9]);
        let every = ObsHandle::enabled_with_stride(1);
        assert!((1..=5).all(|n| every.should_sample(n)));
        assert!(!ObsHandle::disabled().should_sample(1));
    }

    #[test]
    fn span_recorder_is_bounded() {
        let obs = ObsHandle::enabled_with_stride(1);
        for i in 0..(MAX_SPANS as u64 + 10) {
            obs.record_span_at("t", "cat", "s", i, 1);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), MAX_SPANS);
        assert_eq!(snap.dropped_spans, 10);
    }

    /// A label that counts how often it is formatted.
    struct CountingLabel(std::sync::atomic::AtomicUsize);

    impl Display for CountingLabel {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.fetch_add(1, Ordering::Relaxed);
            f.write_str("rank=0")
        }
    }

    #[test]
    fn disabled_handle_vends_inert_handles_and_an_empty_snapshot() {
        let obs = ObsHandle::disabled();
        let label = CountingLabel(Default::default());
        let c = obs.counter("c", &label);
        c.add(3);
        assert_eq!(c.value(), 0);
        let g = obs.gauge("g", &label);
        g.set(5);
        g.add(2);
        g.record_max(9);
        assert_eq!(g.value(), 0);
        let t = obs.timer("t", &label, KV_HIST_BUCKET);
        t.observe(4);
        assert_eq!(t.histogram().count(), 0);
        obs.count("n", &label, 7);
        obs.sample(&label, "bytes", 1);
        obs.sample_at("t", "bytes", 0, 1);
        drop(obs.span("t", "cat", "s"));
        obs.record_span_at("t", "cat", "s", 0, 1);
        assert!(!obs.should_sample(1));
        assert_eq!(
            label.0.load(Ordering::Relaxed),
            0,
            "a disabled handle formatted a label"
        );
        let snap = obs.snapshot();
        assert!(snap.spans.is_empty() && snap.samples.is_empty());
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.timers.is_empty());
        assert_eq!((snap.dropped_spans, snap.dropped_samples), (0, 0));
    }

    #[test]
    fn lazy_labels_register_the_keys_eager_ones_did() {
        let (lazy, eager) = (
            ObsHandle::enabled_with_stride(1),
            ObsHandle::enabled_with_stride(1),
        );
        for rank in [0usize, 3] {
            lazy.counter("spl.flushes", &format_args!("rank={rank}"))
                .add(2);
            eager.counter("spl.flushes", &format!("rank={rank}")).add(2);
            lazy.count("a.groups", &format_args!("rank={rank}"), 5);
            eager.counter("a.groups", &format!("rank={rank}")).add(5);
            lazy.gauge("a.cache.bytes", &format_args!("rank={rank}"))
                .set(9);
            eager.gauge("a.cache.bytes", &format!("rank={rank}")).set(9);
            lazy.timer("wait.us", &format_args!("rank={rank}"), KV_HIST_BUCKET)
                .observe(1);
            eager
                .timer("wait.us", &format!("rank={rank}"), KV_HIST_BUCKET)
                .observe(1);
            lazy.sample(&format_args!("A{rank}"), "bytes", 4);
            eager.sample(&format!("A{rank}"), "bytes", 4);
        }
        lazy.count("mpi.bytes", "", 1);
        eager.counter("mpi.bytes", "").add(1);
        let (l, e) = (lazy.snapshot(), eager.snapshot());
        assert_eq!(l.counters, e.counters);
        assert_eq!(l.gauges, e.gauges);
        let keys = |s: &ObsSnapshot| -> Vec<(String, String, u64)> {
            s.timers
                .iter()
                .map(|(n, lb, h)| (n.clone(), lb.clone(), h.count()))
                .collect()
        };
        assert_eq!(keys(&l), keys(&e));
        let tracks = |s: &ObsSnapshot| -> Vec<String> {
            s.samples.iter().map(|x| x.track.clone()).collect()
        };
        assert_eq!(tracks(&l), tracks(&e));
        assert_eq!(l.counters.len(), 5);
    }

    #[test]
    fn from_conf_respects_knobs() {
        let off = ObsHandle::from_conf(&JobConf::new()).unwrap();
        assert!(!off.is_enabled());
        let on = ObsHandle::from_conf(
            &JobConf::new()
                .with(hdm_common::conf::KEY_OBS_ENABLED, "true")
                .with(hdm_common::conf::KEY_OBS_SAMPLE_RATE, 8),
        )
        .unwrap();
        assert!(on.is_enabled());
        assert_eq!(on.stride(), 8);
        assert!(ObsHandle::from_conf(
            &JobConf::new().with(hdm_common::conf::KEY_OBS_SAMPLE_RATE, 0)
        )
        .is_err());
    }
}
