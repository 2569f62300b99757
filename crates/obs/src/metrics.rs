//! Metric handles vended by the [`ObsHandle`](crate::ObsHandle)
//! registry.
//!
//! Handles are fetched once at task setup (taking the registry lock) and
//! then updated lock-free from hot paths — a counter `add` is one relaxed
//! `fetch_add`. A disabled handle vends *inert* handles, which hold no
//! slot: every update on them is a branch on `None`, with no lock, no
//! allocation and no atomic. The handle decides; callers never gate a
//! recording call on [`ObsHandle::is_enabled`](crate::ObsHandle::is_enabled).

use hdm_common::stats::Histogram;
use parking_lot::Mutex;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone event/byte counter. The default is inert.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    pub(crate) fn new(slot: Option<Arc<AtomicU64>>) -> Counter {
        Counter(slot)
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for an inert counter).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Instantaneous level (queue depth, memory-in-use). The default is inert.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    pub(crate) fn new(slot: Option<Arc<AtomicI64>>) -> Gauge {
        Gauge(slot)
    }

    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Move the gauge by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` exceeds the current value — a
    /// lock-free high-water mark (e.g. peak scheduler concurrency).
    #[inline]
    pub fn record_max(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for an inert gauge).
    pub fn value(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Duration distribution backed by a fixed-width [`Histogram`]. The default is inert.
#[derive(Debug, Clone, Default)]
pub struct Timer(Option<Arc<Mutex<Histogram>>>);

impl Timer {
    pub(crate) fn new(slot: Option<Arc<Mutex<Histogram>>>) -> Timer {
        Timer(slot)
    }

    /// Record one observation (typically microseconds).
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().record(v);
        }
    }

    /// Copy of the underlying histogram (empty for an inert timer).
    pub fn histogram(&self) -> Histogram {
        self.0.as_ref().map_or_else(
            || Histogram::with_width(NonZeroU64::MIN),
            |h| h.lock().clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::ObsHandle;

    #[test]
    fn handles_share_slots_across_clones_and_threads() {
        let obs = ObsHandle::enabled_with_stride(1);
        let c = obs.counter("x", "");
        let g = obs.gauge("y", "");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        c.add(1);
                        g.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 400);
        assert_eq!(g.value(), 400);
        g.set(-5);
        assert_eq!(g.value(), -5);
    }

    #[test]
    fn gauge_record_max_keeps_high_water_mark() {
        let obs = ObsHandle::enabled_with_stride(1);
        let g = obs.gauge("peak", "");
        for v in [3, 1, 7, 2, 7, -9] {
            g.record_max(v);
        }
        assert_eq!(g.value(), 7);
        // Concurrent racers never lower the mark.
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let g = g.clone();
                s.spawn(move || {
                    for v in 0..100 {
                        g.record_max(t * 100 + v);
                    }
                });
            }
        });
        assert_eq!(g.value(), 399);
    }

    #[test]
    fn timer_accumulates_histogram() {
        let obs = ObsHandle::enabled_with_stride(1);
        let t = obs.timer("lat.us", "rank=0", crate::KV_HIST_BUCKET);
        for v in [1, 2, 3, 3] {
            t.observe(v);
        }
        let h = t.histogram();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Some(3));
    }
}
