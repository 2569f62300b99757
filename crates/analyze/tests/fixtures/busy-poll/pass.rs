//! Clean waits: a real deadline inside a loop, a one-off short sleep
//! outside any loop, and an audited slice that has no event to block on.

use std::time::Duration;

pub trait Channel {
    type Item;
    fn recv_timeout(&self, timeout: Duration) -> Option<Self::Item>;
    fn try_send(&self, item: Self::Item) -> Result<(), Self::Item>;
}

pub struct Waiter;

impl Drop for Waiter {
    fn drop(&mut self) {
        // `impl .. for ..` is not a loop.
        std::thread::sleep(Duration::from_micros(10));
    }
}

pub fn drain<C: Channel<Item = u64>>(rx: &C, deadline: Duration) -> u64 {
    let mut sum = 0;
    // One timed wait per message, bounded by the caller's deadline.
    while let Some(v) = rx.recv_timeout(deadline) {
        sum += v;
    }
    std::thread::sleep(Duration::from_micros(50));
    sum
}

pub fn push<C: Channel<Item = u64>>(tx: &C, mut item: u64) {
    loop {
        match tx.try_send(item) {
            Ok(()) => return,
            Err(back) => item = back,
        }
        // hdm-allow(busy-poll): the receiver cannot signal "room again"; runs only while the channel is full
        std::thread::sleep(Duration::from_micros(50));
    }
}
