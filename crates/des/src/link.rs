//! SPSC message links with batched publication and a park/wake gate.
//!
//! A [`link`] connects exactly one producer thread to one consumer
//! thread. The producer sends messages and finally closes the link; the
//! consumer polls, pops, and learns from [`LinkRx::exhausted`] that
//! nothing more can arrive. `nc-serve` feeds each shard worker over a
//! pair of links (requests in, responses out).
//!
//! Design points:
//!
//! * **Batched handoff.** The producer accumulates messages in a local
//!   buffer and publishes them under one mutex acquisition per
//!   [`LinkTx::flush`], so per-message cost stays lock-free. The
//!   auto-flush threshold is the link's *batch* ([`LinkTx::set_batch`])
//!   — the consumer-visible publication quantum. Producers must flush
//!   before blocking — an unpublished batch can deadlock a consumer
//!   waiting for it.
//! * **Lock-free steady state.** The shared side keeps two
//!   cache-line-padded atomics next to the mutex-protected queue: the
//!   published message `depth` and the `closed` flag. An idle
//!   consumer's [`LinkRx::poll`] and a producer's [`LinkTx::backlogged`]
//!   read only the atomics; the mutex is touched only when messages
//!   actually change hands. The closed store is `Release` inside the
//!   producer's critical section and the consumer's fast path loads it
//!   `Acquire` *before* the depth, so a close can never be observed
//!   ahead of the messages sent before it (those would make the
//!   subsequently-loaded depth nonzero).
//! * **Soft capacity.** `capacity` bounds *wall-clock memory*:
//!   [`LinkTx::backlogged`] reports when the consumer has fallen
//!   behind, and the driving loop parks the producer until the consumer
//!   drains. A full link never drops or blocks inside `send`.
//! * **Progress gate.** All parties share one [`ProgressGate`] — an
//!   atomic generation counter with a spin-then-park waiter. Any
//!   publication (flush, close, consumer drain) bumps the generation; a
//!   blocked thread re-polls its inputs and waits for the generation to
//!   move past the value it saw before polling. The waiter spins
//!   (bounded, 20 µs, exponentially growing
//!   spin-hint batches) before parking on a condvar, so short waits
//!   never pay a syscall; the parked path counts waiters so an
//!   uncontested [`ProgressGate::bump`] is two uncontended atomics and
//!   no mutex.
//! * **Closing on drop.** A producer dropped without
//!   [`LinkTx::close`] — a thread that panicked, say — closes the link,
//!   so its consumer sees the stream end instead of waiting forever.
//!
//! Message content and order on a link are set by its one producer;
//! the batch size changes only *when* the consumer sees them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default auto-flush threshold of [`LinkTx::send`] (messages buffered
/// before one mutex-protected publication). Override per link with
/// [`LinkTx::set_batch`].
const BATCH: usize = 256;

/// Pads (and aligns) a value to a 64-byte cache line so two hot
/// fields written by different threads never share a line (false
/// sharing turns every write into cross-core traffic).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// Bounded spin budget before a [`ProgressGate`] waiter parks.
const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Process-wide count of link publications (flushes and closes that
/// made new state visible). Instrumentation for the ring batching
/// measurements; one relaxed increment per publication.
static PUBLISHES: AtomicU64 = AtomicU64::new(0);

/// Read and reset the process-wide publication counter.
pub fn take_publish_count() -> u64 {
    PUBLISHES.swap(0, Ordering::Relaxed)
}

/// A shared generation counter + condvar: the "something changed
/// somewhere" signal for a set of LPs connected by links.
#[derive(Debug, Default)]
pub struct ProgressGate {
    generation: CachePadded<AtomicU64>,
    waiters: AtomicU32,
    lock: Mutex<()>,
    cond: Condvar,
}

impl ProgressGate {
    /// A fresh gate at generation 0.
    pub fn new() -> Arc<ProgressGate> {
        Arc::new(ProgressGate::default())
    }

    /// The current generation. Read this *before* polling inputs; pass
    /// it to [`ProgressGate::wait_past`] if the poll found nothing.
    pub fn generation(&self) -> u64 {
        self.generation.0.load(Ordering::Acquire)
    }

    /// Announce progress: bump the generation and wake every waiter.
    /// With nobody parked this is two uncontended atomics — no mutex.
    pub fn bump(&self) {
        self.generation.0.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) != 0 {
            // Notify while holding the lock: a waiter is either already
            // in `cond.wait` (woken now) or will re-check the
            // generation under the lock and see this bump.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cond.notify_all();
        }
    }

    /// Block until the generation differs from `seen`. Returns
    /// immediately if progress already happened since `seen` was read —
    /// publications between the caller's poll and this wait are never
    /// missed. Spins (bounded by 20 µs, exponentially growing
    /// spin batches with a yield once the batch saturates) before
    /// parking on the condvar.
    pub fn wait_past(&self, seen: u64) {
        // Spin phase: cheap for the short waits of a balanced run.
        let start = Instant::now();
        let mut batch: u32 = 1;
        loop {
            for _ in 0..batch {
                std::hint::spin_loop();
            }
            if self.generation.0.load(Ordering::Acquire) != seen {
                return;
            }
            if batch < 1 << 10 {
                batch <<= 1;
            } else {
                // Saturated: be polite to an oversubscribed host.
                std::thread::yield_now();
            }
            if start.elapsed() >= SPIN_BUDGET {
                break;
            }
        }
        // Park phase. The waiter count is raised before the locked
        // re-check, and `bump` increments the generation before loading
        // the count (both SeqCst), so either `bump` sees a waiter and
        // notifies under the lock, or this thread's re-check sees the
        // new generation — a wakeup is never lost.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.generation.0.load(Ordering::SeqCst) == seen {
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        drop(g);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

#[derive(Debug)]
struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    /// Published-but-undrained message count (consistent with `queue`
    /// whenever the mutex is held; lock-free readers may see it stale,
    /// which only delays them by one poll).
    depth: CachePadded<AtomicUsize>,
    /// Set once, by the producer's closing publication.
    closed: CachePadded<AtomicBool>,
}

/// Producer half of a link.
#[derive(Debug)]
pub struct LinkTx<T> {
    shared: Arc<Shared<T>>,
    gate: Arc<ProgressGate>,
    buf: Vec<T>,
    capacity: usize,
    batch: usize,
    closed: bool,
}

/// Consumer half of a link.
#[derive(Debug)]
pub struct LinkRx<T> {
    shared: Arc<Shared<T>>,
    gate: Arc<ProgressGate>,
    /// Drained messages, consumed without locking.
    local: VecDeque<T>,
    closed: bool,
}

/// Create a producer/consumer pair sharing `gate`. `capacity` is the
/// soft in-flight message bound reported by [`LinkTx::backlogged`].
pub fn link<T>(capacity: usize, gate: &Arc<ProgressGate>) -> (LinkTx<T>, LinkRx<T>) {
    assert!(capacity > 0, "link capacity must be positive");
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        depth: CachePadded(AtomicUsize::new(0)),
        closed: CachePadded(AtomicBool::new(false)),
    });
    (
        LinkTx {
            shared: Arc::clone(&shared),
            gate: Arc::clone(gate),
            buf: Vec::with_capacity(BATCH),
            capacity,
            batch: BATCH,
            closed: false,
        },
        LinkRx {
            shared,
            gate: Arc::clone(gate),
            local: VecDeque::new(),
            closed: false,
        },
    )
}

impl<T> LinkTx<T> {
    /// Enqueue one message (auto-publishing a full batch). Never blocks.
    pub fn send(&mut self, msg: T) {
        debug_assert!(!self.closed, "send on a closed link");
        self.buf.push(msg);
        if self.buf.len() >= self.batch {
            self.flush();
        }
    }

    /// Set the auto-flush threshold of [`LinkTx::send`] — the
    /// publication quantum. `1` publishes every message; larger values
    /// amortize the mutex and the gate bump over the batch. Clamped to
    /// `[1, capacity]`.
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.clamp(1, self.capacity);
    }

    /// Publish buffered messages, announcing progress if any were
    /// buffered.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.publish();
        }
    }

    /// Move the buffer into the shared queue (and the closed flag, once
    /// closing) under one lock, then bump the gate. Never panics on a
    /// poisoned lock: it also runs from `Drop` while a thread unwinds.
    fn publish(&mut self) {
        {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let k = self.buf.len();
            q.extend(self.buf.drain(..));
            if k > 0 {
                self.shared.depth.0.fetch_add(k, Ordering::Release);
            }
            if self.closed {
                // Release inside the critical section: a consumer that
                // Acquire-loads `closed` observes the messages (and
                // depth) published before it.
                self.shared.closed.0.store(true, Ordering::Release);
            }
        }
        PUBLISHES.fetch_add(1, Ordering::Relaxed);
        self.gate.bump();
    }

    /// `true` when in-flight messages exceed the soft capacity; the
    /// producer should flush and park until the consumer drains.
    /// Lock-free (reads the published depth).
    pub fn backlogged(&self) -> bool {
        self.shared.depth.0.load(Ordering::Relaxed) + self.buf.len() >= self.capacity
    }

    /// Publish everything buffered and mark the link closed: no further
    /// messages. Always publishes, even with nothing buffered, so a
    /// consumer parked on the gate wakes to see the close. Idempotent.
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.publish();
    }
}

/// A producer dropped without [`LinkTx::close`] — say, by a thread
/// that panicked — closes the link, so its consumer sees the end of
/// the stream instead of waiting for messages that will never come.
impl<T> Drop for LinkTx<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> LinkRx<T> {
    /// Drain newly published messages into the local buffer and refresh
    /// the cached closed state. Returns `true` if any message was taken
    /// (which also wakes a producer parked on backlog). When nothing
    /// was published since the last poll this is two atomic loads — no
    /// lock.
    pub fn poll(&mut self) -> bool {
        let s = &*self.shared;
        // Closed first, depth second (both Acquire, not reorderable):
        // any message sent before the observed close was published
        // before it and would make this depth load nonzero.
        let closed = s.closed.0.load(Ordering::Acquire);
        if s.depth.0.load(Ordering::Acquire) == 0 {
            self.closed |= closed;
            return false;
        }
        let took;
        {
            let mut q = s.queue.lock().expect("link poisoned");
            let k = q.len();
            took = k > 0;
            if took {
                self.local.extend(q.drain(..));
                s.depth.0.fetch_sub(k, Ordering::Release);
            }
            // Under the lock, the flag and the queue are mutually
            // consistent (the producer stores both in its critical
            // section).
            self.closed |= s.closed.0.load(Ordering::Acquire);
        }
        if took {
            // A backlogged producer may be parked on the gate.
            self.gate.bump();
        }
        took
    }

    /// Remove and return the next message (after the last `poll`).
    pub fn pop(&mut self) -> Option<T> {
        self.local.pop_front()
    }

    /// `true` once the producer closed the link and every message it
    /// sent has been popped: none is buffered and none can arrive.
    pub fn exhausted(&self) -> bool {
        self.closed && self.local.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that reset the process-wide publish counter.
    static COUNTER: Mutex<()> = Mutex::new(());

    #[test]
    fn messages_arrive_in_order_after_flush() {
        let gate = ProgressGate::new();
        let (mut tx, mut rx) = link::<u32>(1024, &gate);
        tx.send(1);
        tx.send(2);
        assert!(!rx.poll(), "nothing visible before flush");
        tx.flush();
        assert!(rx.poll());
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn close_after_send_drains_then_exhausts() {
        let gate = ProgressGate::new();
        let (mut tx, mut rx) = link::<u32>(1024, &gate);
        tx.send(7);
        tx.close();
        rx.poll();
        assert!(!rx.exhausted(), "one message still buffered");
        assert_eq!(rx.pop(), Some(7));
        assert!(rx.exhausted());
        tx.close(); // idempotent
    }

    #[test]
    fn close_with_nothing_buffered_still_publishes() {
        // A shard worker and `ShardPool::join` in `nc-serve` both end
        // on a close whose publication carries no messages; the
        // consumer must still see it, and a parked one must wake.
        let _counter = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let gate = ProgressGate::new();
        let (mut tx, mut rx) = link::<u32>(1024, &gate);
        take_publish_count();
        let seen = gate.generation();
        tx.close();
        assert!(!rx.poll(), "a bare close carries no messages");
        assert!(rx.exhausted());
        assert!(take_publish_count() >= 1, "the close was published");
        assert_ne!(gate.generation(), seen, "the close bumped the gate");
    }

    #[test]
    fn a_dropped_producer_closes_the_link() {
        let gate = ProgressGate::new();
        let (mut tx, mut rx) = link::<u32>(1024, &gate);
        let seen = gate.generation();
        let producer = std::thread::spawn(move || {
            tx.send(5);
            panic!("producer dies without closing");
        });
        assert!(producer.join().is_err());
        assert_ne!(gate.generation(), seen, "the drop bumped the gate");
        rx.poll();
        assert_eq!(rx.pop(), Some(5), "buffered messages are published");
        assert!(rx.exhausted());
    }

    #[test]
    fn backlog_reflects_unconsumed_depth() {
        let gate = ProgressGate::new();
        let (mut tx, mut rx) = link::<u32>(4, &gate);
        for i in 0..4 {
            tx.send(i);
        }
        tx.flush();
        assert!(tx.backlogged());
        rx.poll(); // consumer drains the shared queue
        assert!(!tx.backlogged());
    }

    #[test]
    fn batch_of_one_publishes_every_send() {
        let gate = ProgressGate::new();
        let _counter = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let (mut tx, mut rx) = link::<u32>(1024, &gate);
        tx.set_batch(1);
        take_publish_count();
        tx.send(1);
        tx.send(2);
        assert!(rx.poll(), "batch=1 publishes without an explicit flush");
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert!(take_publish_count() >= 2, "one publication per send");
    }

    #[test]
    fn gate_wait_past_never_misses_a_bump() {
        let gate = ProgressGate::new();
        let seen = gate.generation();
        gate.bump();
        // Progress happened after `seen` was read: wait returns at once.
        gate.wait_past(seen);
        assert_ne!(gate.generation(), seen);
    }

    #[test]
    fn threaded_producer_consumer_round_trip() {
        let gate = ProgressGate::new();
        let (mut tx, mut rx) = link::<u64>(1 << 12, &gate);
        const N: u64 = 10_000;
        let g2 = Arc::clone(&gate);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(i);
            }
            tx.close();
            drop(g2);
        });
        let mut got = Vec::new();
        loop {
            let seen = gate.generation();
            rx.poll();
            while let Some(x) = rx.pop() {
                got.push(x);
            }
            if rx.exhausted() {
                break;
            }
            gate.wait_past(seen);
        }
        producer.join().expect("producer");
        assert_eq!(got.len() as u64, N);
        assert!(got.iter().copied().eq(0..N));
    }

    #[test]
    fn threaded_parked_consumer_is_woken() {
        // Force the park path (no spin budget would need env control;
        // instead outlast it): the consumer waits on a gate while the
        // producer sleeps past any reasonable spin budget, then
        // publishes. The wait must return.
        let gate = ProgressGate::new();
        let (mut tx, mut rx) = link::<u32>(64, &gate);
        let seen = gate.generation();
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            tx.send(9);
            tx.flush();
        });
        gate.wait_past(seen);
        assert!(rx.poll());
        assert_eq!(rx.pop(), Some(9));
        producer.join().expect("producer");
    }
}
