//! A fixed-slot event agenda for models with one pending event per
//! process.
//!
//! Streaming-pipeline simulations keep at most one future event per
//! stage (its next completion) plus one for the source (its next
//! emission). A general calendar pays for that shape: every job costs a
//! push, a pop, and a type-erased closure dispatch. A [`SlotAgenda`]
//! stores the pending set as a dense array of `(time, seq)` tokens
//! indexed by process id — arming is a store, popping is a scan over a
//! handful of slots, and dispatch is a direct `match` in the caller.
//!
//! Ordering is identical to [`Sim`](crate::Sim)'s calendar: earliest
//! time first, FIFO within a timestamp via a strictly monotone sequence
//! number assigned at arm time. A model that mirrors its `schedule`
//! calls with `arm` calls therefore replays the exact event order of
//! the calendar-based engine — the property the `nc-streamsim` engine
//! equivalence tests assert.
//!
//! The agenda is generic over the time type so the same structure
//! drives both the `f64`-seconds stochastic engine and the
//! integer-tick deterministic engine (whose cycle-jump fast-forward
//! needs [`SlotAgenda::shift_armed`] to translate every pending event
//! by a whole number of periods).

/// Dense one-event-per-slot pending set with calendar-identical
/// ordering.
#[derive(Clone, Debug)]
pub struct SlotAgenda<T> {
    slots: Vec<Option<(T, u64)>>,
    seq: u64,
}

impl<T> Default for SlotAgenda<T> {
    /// An empty zero-slot agenda (resize with [`SlotAgenda::reset`]).
    fn default() -> SlotAgenda<T> {
        SlotAgenda {
            slots: Vec::new(),
            seq: 0,
        }
    }
}

impl<T: Copy + Ord> SlotAgenda<T> {
    /// An agenda with `n` empty slots and the sequence counter at zero.
    pub fn new(n: usize) -> SlotAgenda<T> {
        SlotAgenda {
            slots: vec![None; n],
            seq: 0,
        }
    }

    /// Reset to `n` empty slots (reusing storage) and a zero sequence
    /// counter.
    pub fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, None);
        self.seq = 0;
    }

    /// Sequence number of `slot`'s pending event, if armed.
    pub fn seq_of(&self, slot: usize) -> Option<u64> {
        self.slots[slot].map(|(_, s)| s)
    }

    /// Time of `slot`'s pending event, if armed.
    pub fn time_of(&self, slot: usize) -> Option<T> {
        self.slots[slot].map(|(t, _)| t)
    }

    /// Schedule `slot`'s next event at `t`, consuming the next sequence
    /// number (exactly as a calendar `schedule` call would).
    ///
    /// # Panics
    /// Panics if the slot is already armed — a process has at most one
    /// pending event.
    pub fn arm(&mut self, slot: usize, t: T) {
        assert!(self.slots[slot].is_none(), "slot {slot} already armed");
        self.slots[slot] = Some((t, self.seq));
        self.seq += 1;
    }

    /// Remove and return the earliest pending `(slot, time)` — ties
    /// break FIFO by arm order, matching the calendar's `(time, seq)`
    /// key.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let i = self.min_slot()?;
        let (t, _) = self.slots[i].take().expect("armed");
        Some((i, t))
    }

    /// Translate every armed event's time by `f` (the deterministic
    /// fast-forward shifts all pending events by a whole number of
    /// cycle periods). Sequence numbers — and therefore tie order — are
    /// unchanged.
    pub fn shift_armed(&mut self, mut f: impl FnMut(T) -> T) {
        for s in self.slots.iter_mut().flatten() {
            s.0 = f(s.0);
        }
    }

    /// Index of the earliest armed slot by `(time, seq)`.
    fn min_slot(&self) -> Option<usize> {
        let mut best: Option<(usize, (T, u64))> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(key) = *s {
                match best {
                    Some((_, k)) if k <= key => {}
                    _ => best = Some((i, key)),
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut a: SlotAgenda<u64> = SlotAgenda::new(3);
        a.arm(0, 30);
        a.arm(1, 10);
        a.arm(2, 20);
        assert_eq!(a.pop(), Some((1, 10)));
        assert_eq!(a.pop(), Some((2, 20)));
        assert_eq!(a.pop(), Some((0, 30)));
        assert_eq!(a.pop(), None);
    }

    #[test]
    fn ties_break_fifo_by_arm_order() {
        let mut a: SlotAgenda<u64> = SlotAgenda::new(3);
        a.arm(2, 5);
        a.arm(0, 5);
        a.arm(1, 5);
        assert_eq!(a.pop(), Some((2, 5)));
        assert_eq!(a.pop(), Some((0, 5)));
        assert_eq!(a.pop(), Some((1, 5)));
    }

    #[test]
    fn rearm_after_pop_loses_tie_to_older() {
        let mut a: SlotAgenda<u64> = SlotAgenda::new(2);
        a.arm(0, 5);
        a.arm(1, 5);
        assert_eq!(a.pop(), Some((0, 5)));
        a.arm(0, 5); // re-armed: newer seq than slot 1's pending event
        assert_eq!(a.pop(), Some((1, 5)));
        assert_eq!(a.pop(), Some((0, 5)));
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn double_arm_panics() {
        let mut a: SlotAgenda<u64> = SlotAgenda::new(1);
        a.arm(0, 1);
        a.arm(0, 2);
    }

    #[test]
    fn shift_preserves_order() {
        let mut a: SlotAgenda<u64> = SlotAgenda::new(3);
        a.arm(0, 5);
        a.arm(1, 5);
        a.arm(2, 9);
        a.shift_armed(|t| t + 100);
        assert_eq!(a.pop(), Some((0, 105)));
        assert_eq!(a.pop(), Some((1, 105)));
        assert_eq!(a.pop(), Some((2, 109)));
    }

    #[test]
    fn reset_clears_slots_and_seq() {
        let mut a: SlotAgenda<u64> = SlotAgenda::new(2);
        a.arm(0, 1);
        a.reset(4);
        assert_eq!(a.pop(), None);
        a.arm(3, 2);
        assert_eq!(a.seq_of(3), Some(0));
    }
}
