//! The discrete-event simulation kernel.
//!
//! Functionally equivalent to the SimPy core the paper uses \[29\]: a
//! time-ordered event calendar with deterministic FIFO tie-breaking,
//! driven to completion. Events are boxed closures over the user's
//! world state `S`; higher-level process abstractions (the streaming
//! pipeline nodes of `nc-streamsim`'s reference engine) are built on
//! top.
//!
//! Determinism: two events at the same timestamp fire in scheduling
//! order (a strictly monotone sequence number breaks ties), so a run
//! with a fixed RNG seed is exactly reproducible.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::{Span, Time};

/// A scheduled action on the world state.
type Action<S> = Box<dyn FnOnce(&mut Sim<S>)>;

/// A calendar entry. Its `(time, seq)` key is unique (`seq` is
/// strictly monotone), so the pop order is total: earliest time first,
/// FIFO within a timestamp.
struct Entry<S: 'static> {
    at: Time,
    seq: u64,
    run: Action<S>,
}

impl<S: 'static> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S: 'static> Eq for Entry<S> {}
impl<S: 'static> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S: 'static> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// A discrete-event simulation over world state `S`.
pub struct Sim<S: 'static> {
    now: Time,
    seq: u64,
    processed: u64,
    calendar: BinaryHeap<Reverse<Entry<S>>>,
    /// The user's world state (queues, node status, statistics…).
    pub state: S,
}

impl<S: 'static> Sim<S> {
    /// Create a simulation at time zero.
    pub fn new(state: S) -> Sim<S> {
        Sim {
            now: Time::ZERO,
            seq: 0,
            processed: 0,
            calendar: BinaryHeap::new(),
            state,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: Time, event: impl FnOnce(&mut Sim<S>) + 'static) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.calendar.push(Reverse(Entry {
            at,
            seq,
            run: Box::new(event),
        }));
    }

    /// Schedule `event` after `delay`.
    pub fn schedule_in(&mut self, delay: Span, event: impl FnOnce(&mut Sim<S>) + 'static) {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Execute the single next event. Returns `false` when the
    /// calendar is empty.
    pub fn step(&mut self) -> bool {
        match self.calendar.pop() {
            None => false,
            Some(Reverse(e)) => {
                debug_assert!(e.at >= self.now);
                self.now = e.at;
                self.processed += 1;
                (e.run)(self);
                true
            }
        }
    }

    /// Run until the calendar is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let mut sim = Sim::new(());
        for (t, id) in [(3.0, 3u32), (1.0, 1), (2.0, 2)] {
            let log = log.clone();
            sim.schedule_at(Time::secs(t), move |_| log.borrow_mut().push(id));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let mut sim = Sim::new(());
        for id in 0..10u32 {
            let log = log.clone();
            sim.schedule_at(Time::secs(5.0), move |_| log.borrow_mut().push(id));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        // A ping-pong chain: each event schedules the next.
        let mut sim = Sim::new(0u32);
        fn chain(sim: &mut Sim<u32>) {
            sim.state += 1;
            if sim.state < 5 {
                sim.schedule_in(Span::secs(1.0), chain);
            }
        }
        sim.schedule_at(Time::ZERO, chain);
        sim.run();
        assert_eq!(sim.state, 5);
        assert_eq!(sim.now(), Time::secs(4.0));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_at(Time::secs(1.0), |s| {
            s.schedule_at(Time::secs(0.5), |_| {});
        });
        sim.run();
    }

    #[test]
    fn oversized_closures_fall_back_to_boxing() {
        // Large captures run correctly (and drop correctly when
        // discarded — see below).
        let big = [7u64; 16];
        let mut sim = Sim::new(0u64);
        sim.schedule_at(Time::secs(1.0), move |s: &mut Sim<u64>| {
            s.state = big.iter().sum();
        });
        sim.run();
        assert_eq!(sim.state, 7 * 16);
    }

    #[test]
    fn discarded_events_drop_their_payload() {
        // Small and large captures own an Rc; tearing down a sim with
        // pending events must release them (no leak, no double drop).
        let token: Rc<()> = Rc::new(());
        {
            let mut sim = Sim::new(());
            let t1 = token.clone();
            let t2 = token.clone();
            let big = [0u64; 16];
            sim.schedule_at(Time::secs(1.0), move |_| drop(t1));
            sim.schedule_at(Time::secs(2.0), move |_| {
                let _ = big;
                drop(t2);
            });
            assert_eq!(Rc::strong_count(&token), 3);
            // Dropped without running.
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
