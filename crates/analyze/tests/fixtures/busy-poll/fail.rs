//! Seeded violation for `busy-poll`: a parked receiver that wakes 5 000
//! times a second to re-check a flag someone could have signalled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub trait Channel {
    type Item;
    fn recv_timeout(&self, timeout: Duration) -> Option<Self::Item>;
}

pub fn park<C: Channel<Item = u64>>(rx: &C, cancelled: &AtomicBool) -> Option<u64> {
    while !cancelled.load(Ordering::Acquire) {
        if let Some(v) = rx.recv_timeout(Duration::from_micros(200)) {
            return Some(v);
        }
    }
    None
}
