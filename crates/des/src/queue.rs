//! Bounded byte queues with occupancy accounting.
//!
//! Streaming stages exchange *quantities of data* rather than discrete
//! customers (the Mercator queues of §4.1 collect and redistribute
//! work items; the bump-in-the-wire FIFOs carry byte streams). A
//! [`ByteQueue`] tracks an integer byte level against a capacity and
//! keeps the statistics the paper reads off its simulator: peak
//! occupancy and the time-weighted average.
//!
//! The queue is passive — wake-up logic lives in the model that owns it
//! (see `nc-streamsim`), which keeps the borrow structure simple and
//! the queue reusable.

use serde::Serialize;

use crate::stats::TimeWeighted;
use crate::time::Time;

/// A FIFO byte store with optional capacity.
#[derive(Debug, Serialize)]
pub struct ByteQueue {
    capacity: Option<u64>,
    level: u64,
    total_out: u64,
    occupancy: TimeWeighted,
}

impl ByteQueue {
    /// Unbounded queue.
    pub fn unbounded(t0: Time) -> ByteQueue {
        ByteQueue {
            capacity: None,
            level: 0,
            total_out: 0,
            occupancy: TimeWeighted::new(t0, 0.0),
        }
    }

    /// Bounded queue holding at most `capacity` bytes.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn bounded(t0: Time, capacity: u64) -> ByteQueue {
        assert!(capacity > 0, "queue capacity must be > 0");
        ByteQueue {
            capacity: Some(capacity),
            level: 0,
            total_out: 0,
            occupancy: TimeWeighted::new(t0, 0.0),
        }
    }

    /// Current byte level.
    pub fn level(&self) -> u64 {
        self.level
    }

    /// Free space (`u64::MAX` when unbounded).
    pub fn free(&self) -> u64 {
        match self.capacity {
            None => u64::MAX,
            Some(c) => c - self.level,
        }
    }

    /// `true` iff `amount` more bytes fit.
    pub fn can_put(&self, amount: u64) -> bool {
        self.free() >= amount
    }

    /// `true` iff `amount` bytes are available.
    pub fn can_get(&self, amount: u64) -> bool {
        self.level >= amount
    }

    /// Deposit `amount` bytes at time `t`.
    ///
    /// # Panics
    /// Panics if the queue would overflow — callers must gate on
    /// [`ByteQueue::can_put`] (that is the backpressure protocol).
    pub fn put(&mut self, t: Time, amount: u64) {
        assert!(self.can_put(amount), "ByteQueue overflow");
        self.level += amount;
        self.occupancy.set(t, self.level as f64);
    }

    /// Withdraw `amount` bytes at time `t`.
    ///
    /// # Panics
    /// Panics if fewer than `amount` bytes are present — callers must
    /// gate on [`ByteQueue::can_get`].
    pub fn get(&mut self, t: Time, amount: u64) {
        assert!(self.can_get(amount), "ByteQueue underflow");
        self.level -= amount;
        self.total_out += amount;
        self.occupancy.set(t, self.level as f64);
    }

    /// Total bytes ever withdrawn.
    pub fn total_out(&self) -> u64 {
        self.total_out
    }

    /// Peak occupancy in bytes.
    pub fn peak(&self) -> f64 {
        self.occupancy.max()
    }

    /// Time-averaged occupancy over `[t0, t]`.
    pub fn avg_occupancy(&self, t: Time) -> f64 {
        self.occupancy.time_avg(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut q = ByteQueue::bounded(Time::ZERO, 100);
        assert!(q.can_put(100));
        assert!(!q.can_put(101));
        q.put(Time::secs(1.0), 60);
        assert_eq!(q.level(), 60);
        assert_eq!(q.free(), 40);
        assert!(q.can_get(60));
        assert!(!q.can_get(61));
        q.get(Time::secs(2.0), 20);
        assert_eq!(q.level(), 40);
        assert_eq!(q.total_out(), 20);
        assert_eq!(q.peak(), 60.0);
    }

    #[test]
    fn unbounded_never_blocks() {
        let mut q = ByteQueue::unbounded(Time::ZERO);
        assert!(q.can_put(u64::MAX / 2));
        q.put(Time::secs(1.0), 1 << 40);
        assert_eq!(q.level(), 1 << 40);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = ByteQueue::bounded(Time::ZERO, 10);
        q.put(Time::secs(1.0), 11);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut q = ByteQueue::bounded(Time::ZERO, 10);
        q.get(Time::secs(1.0), 1);
    }

    #[test]
    fn time_weighted_occupancy() {
        let mut q = ByteQueue::bounded(Time::ZERO, 100);
        q.put(Time::secs(0.0), 10);
        q.get(Time::secs(5.0), 10);
        // Level 10 for 5 s, then 0 for 5 s → average 5.
        assert!((q.avg_occupancy(Time::secs(10.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = ByteQueue::bounded(Time::ZERO, 0);
    }
}
