//! The discrete-event simulation kernel.
//!
//! Functionally equivalent to the SimPy core the paper uses [29]: a
//! time-ordered event calendar with deterministic FIFO tie-breaking,
//! driven to completion or to a horizon. Events are closures over the
//! user's world state `S`; higher-level process abstractions (the
//! streaming pipeline nodes of `nc-streamsim`) are built on top.
//!
//! Determinism: two events at the same timestamp fire in scheduling
//! order (a strictly monotone sequence number breaks ties), so a run
//! with a fixed RNG seed is exactly reproducible.
//!
//! ## Allocation behavior
//!
//! Scheduling is allocation-free on the hot path: an [`Event`] stores
//! its closure inline in the calendar entry when it fits in
//! [`INLINE_WORDS`] machine words (every closure the streaming
//! simulation schedules does — fn pointers and a captured index), and
//! falls back to a single box only for larger captures. A calendar
//! entry is five words total (time, sequence number, vtable pointer,
//! payload), keeping binary-heap sifts cheap.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};

use crate::time::{Span, Time};

/// Words of inline closure storage in a calendar entry.
pub const INLINE_WORDS: usize = 2;

type Inline = [MaybeUninit<usize>; INLINE_WORDS];

/// The two type-erased operations on a stored payload. One static
/// table exists per `(S, F)` instantiation (via inline-const
/// promotion), so an [`Event`] carries a single pointer.
struct EventVTable<S: 'static> {
    /// Consumes the payload in `data` and runs it.
    call: unsafe fn(&mut Inline, &mut Sim<S>),
    /// Drops the payload without running it (event discarded).
    drop_payload: unsafe fn(&mut Inline),
}

/// A scheduled action: a type-erased `FnOnce(&mut Sim<S>)`.
///
/// Closures up to [`INLINE_WORDS`] words with word alignment are stored
/// inline (no allocation); larger ones cost one box. The whole event is
/// three words — vtable pointer plus payload — so calendar entries stay
/// small enough that heap sifts are cheap. Built implicitly by
/// [`Sim::schedule_at`]/[`Sim::schedule_in`], or explicitly with
/// [`Event::new`] to park an action outside the calendar.
pub struct Event<S: 'static> {
    /// `Some` while `data` holds a payload: the pointer niche doubles
    /// as the live flag.
    vtable: Option<&'static EventVTable<S>>,
    data: Inline,
    /// The erased closure need not be `Send`/`Sync`, so neither is the
    /// event (mirroring `Box<dyn FnOnce(..)>`).
    _not_send: PhantomData<*mut ()>,
}

impl<S: 'static> Event<S> {
    /// Wrap a closure, storing it inline when it fits.
    pub fn new<F: FnOnce(&mut Sim<S>) + 'static>(f: F) -> Event<S> {
        let mut data: Inline = [MaybeUninit::uninit(); INLINE_WORDS];
        if size_of::<F>() <= size_of::<Inline>() && align_of::<F>() <= align_of::<Inline>() {
            // SAFETY: `data` is large and aligned enough for `F` (just
            // checked); the slot is uninitialized and the `Some` vtable
            // marks it as holding exactly one `F` until
            // `call`/`drop_payload` reads it back out.
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            Event {
                vtable: Some(
                    const {
                        &EventVTable {
                            call: call_inline::<S, F>,
                            drop_payload: drop_inline::<F>,
                        }
                    },
                ),
                data,
                _not_send: PhantomData,
            }
        } else {
            // SAFETY: a thin raw pointer always fits the first word.
            unsafe {
                data.as_mut_ptr()
                    .cast::<*mut F>()
                    .write(Box::into_raw(Box::new(f)))
            };
            Event {
                vtable: Some(
                    const {
                        &EventVTable {
                            call: call_boxed::<S, F>,
                            drop_payload: drop_boxed::<F>,
                        }
                    },
                ),
                data,
                _not_send: PhantomData,
            }
        }
    }

    /// Run the wrapped closure.
    fn run(mut self, sim: &mut Sim<S>) {
        let vt = self.vtable.take();
        debug_assert!(vt.is_some());
        // SAFETY: the vtable was `Some`, so `data` holds the payload
        // `call` expects; clearing it first keeps `Drop` from touching
        // the now-consumed slot (including during an unwind out of
        // `call`).
        if let Some(vt) = vt {
            unsafe { (vt.call)(&mut self.data, sim) };
        }
    }
}

impl<S: 'static> Drop for Event<S> {
    fn drop(&mut self) {
        if let Some(vt) = self.vtable.take() {
            // SAFETY: the payload was written in `new` and never
            // consumed (the vtable was still `Some`).
            unsafe { (vt.drop_payload)(&mut self.data) };
        }
    }
}

unsafe fn call_inline<S, F: FnOnce(&mut Sim<S>)>(data: &mut Inline, sim: &mut Sim<S>) {
    // SAFETY (all four helpers): the caller guarantees `data` holds the
    // payload written by `Event::new` for this exact `F`, exactly once.
    let f = unsafe { data.as_mut_ptr().cast::<F>().read() };
    f(sim);
}

unsafe fn drop_inline<F>(data: &mut Inline) {
    unsafe { std::ptr::drop_in_place(data.as_mut_ptr().cast::<F>()) };
}

unsafe fn call_boxed<S, F: FnOnce(&mut Sim<S>)>(data: &mut Inline, sim: &mut Sim<S>) {
    let f = unsafe { Box::from_raw(data.as_mut_ptr().cast::<*mut F>().read()) };
    (*f)(sim);
}

unsafe fn drop_boxed<F>(data: &mut Inline) {
    drop(unsafe { Box::from_raw(data.as_mut_ptr().cast::<*mut F>().read()) });
}

struct Entry<S: 'static> {
    at: Time,
    seq: u64,
    run: Event<S>,
}

impl<S> Entry<S> {
    /// Scheduling key: earliest time first, FIFO within a timestamp.
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
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

/// Pending-set size beyond which the calendar spills into a heap.
const SPILL_AT: usize = 64;

/// The pending-event set, adaptive to its size.
///
/// A streaming simulation keeps only a handful of events pending (one
/// finish per busy node plus the next source emission), and there an
/// unsorted vector with scan-for-min beats a binary heap: pushes are
/// plain appends and pops move nothing. Past [`SPILL_AT`] pending
/// events the calendar spills into a binary heap (burst workloads that
/// pre-schedule long schedules), returning to scan mode once it
/// drains. The pop order is identical in both modes because the
/// `(time, seq)` key is unique.
enum Calendar<S: 'static> {
    Scan(Vec<Reverse<Entry<S>>>),
    Heap(BinaryHeap<Reverse<Entry<S>>>),
}

impl<S> Calendar<S> {
    fn new() -> Calendar<S> {
        Calendar::Scan(Vec::new())
    }

    fn len(&self) -> usize {
        match self {
            Calendar::Scan(v) => v.len(),
            Calendar::Heap(h) => h.len(),
        }
    }

    /// Index of the earliest entry (the key is unique: `seq` is
    /// strictly monotone).
    fn scan_min(v: &[Reverse<Entry<S>>]) -> Option<usize> {
        let mut it = v.iter().enumerate();
        let (mut at, first) = it.next()?;
        let mut best = first.0.key();
        for (i, e) in it {
            let k = e.0.key();
            if k < best {
                best = k;
                at = i;
            }
        }
        Some(at)
    }

    fn push(&mut self, e: Entry<S>) {
        match self {
            Calendar::Scan(v) => {
                v.push(Reverse(e));
                if v.len() > SPILL_AT {
                    *self = Calendar::Heap(BinaryHeap::from(std::mem::take(v)));
                }
            }
            Calendar::Heap(h) => h.push(Reverse(e)),
        }
    }

    fn pop(&mut self) -> Option<Entry<S>> {
        match self {
            Calendar::Scan(v) => Self::scan_min(v).map(|i| v.swap_remove(i).0),
            Calendar::Heap(h) => {
                let e = h.pop()?.0;
                if h.is_empty() {
                    // Drained: reclaim scan mode (keeps the allocation).
                    *self = Calendar::Scan(std::mem::take(h).into_vec());
                }
                Some(e)
            }
        }
    }

    fn peek(&self) -> Option<Time> {
        match self {
            Calendar::Scan(v) => Self::scan_min(v).map(|i| v[i].0.at),
            Calendar::Heap(h) => h.peek().map(|Reverse(e)| e.at),
        }
    }
}

/// A discrete-event simulation over world state `S`.
pub struct Sim<S: 'static> {
    now: Time,
    seq: u64,
    processed: u64,
    calendar: Calendar<S>,
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
            calendar: Calendar::new(),
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

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.calendar.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: Time, event: impl FnOnce(&mut Sim<S>) + 'static) {
        self.schedule_event_at(at, Event::new(event));
    }

    /// Schedule `event` after `delay`.
    pub fn schedule_in(&mut self, delay: Span, event: impl FnOnce(&mut Sim<S>) + 'static) {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Schedule an already-wrapped [`Event`] at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_event_at(&mut self, at: Time, event: Event<S>) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.calendar.push(Entry {
            at,
            seq,
            run: event,
        });
    }

    /// Schedule an already-wrapped [`Event`] after `delay`.
    pub fn schedule_event_in(&mut self, delay: Span, event: Event<S>) {
        let at = self.now + delay;
        self.schedule_event_at(at, event);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_next(&self) -> Option<Time> {
        self.calendar.peek()
    }

    /// Execute the single next event. Returns `false` when the
    /// calendar is empty.
    pub fn step(&mut self) -> bool {
        match self.calendar.pop() {
            None => false,
            Some(e) => {
                debug_assert!(e.at >= self.now);
                self.now = e.at;
                self.processed += 1;
                e.run.run(self);
                true
            }
        }
    }

    /// Run until the calendar is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run every event scheduled at or before `horizon`, then set the
    /// clock to `horizon`. Later events stay pending.
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(next) = self.peek_next() {
            if next > horizon {
                break;
            }
            self.step();
        }
        if self.now < horizon {
            self.now = horizon;
        }
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
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new(Vec::<f64>::new());
        for t in [1.0, 2.0, 3.0, 4.0] {
            sim.schedule_at(Time::secs(t), move |s: &mut Sim<Vec<f64>>| {
                let now = s.now().as_secs();
                s.state.push(now);
            });
        }
        sim.run_until(Time::secs(2.5));
        assert_eq!(sim.state, vec![1.0, 2.0]);
        assert_eq!(sim.now(), Time::secs(2.5));
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(sim.state, vec![1.0, 2.0, 3.0, 4.0]);
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
    fn peek_next_reports_earliest() {
        let mut sim = Sim::new(());
        assert_eq!(sim.peek_next(), None);
        sim.schedule_at(Time::secs(7.0), |_| {});
        sim.schedule_at(Time::secs(2.0), |_| {});
        assert_eq!(sim.peek_next(), Some(Time::secs(2.0)));
    }

    #[test]
    fn oversized_closures_fall_back_to_boxing() {
        // Captures larger than the inline slot must still run correctly
        // (and drop correctly when discarded — see below).
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
        // Both inline and boxed payloads own an Rc; tearing down a sim
        // with pending events must release them (no leak, no double
        // drop). Miri-friendly check via strong counts.
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
