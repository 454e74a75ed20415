//! A prunable stairstep buffer with stable absolute indexing.
//!
//! The simulation engines record one `(time, cumulative-input)` step per
//! source emission and look steps up later — by *absolute index* — to
//! answer "when did cumulative level `L` enter the system?" for the
//! virtual-delay statistic. The lookup cursor is monotone (output levels
//! only grow), so steps behind the cursor are dead. A [`StepRing`] is a
//! `VecDeque` plus a base offset: indices behave exactly like a
//! `Vec`'s, but [`StepRing::prune_to`] drops the dead prefix, bounding
//! live memory by the data in flight (O(pipeline) in stable regimes)
//! instead of O(events) for the whole run.
//!
//! When tracing is on, the engines simply never prune, and
//! [`StepRing::iter`] replays the full stairstep for `trace_in`.

use std::collections::VecDeque;

/// Append-only step sequence with absolute indices and prefix pruning.
#[derive(Clone, Debug, Default)]
pub(crate) struct StepRing<T> {
    buf: VecDeque<T>,
    /// Absolute index of `buf[0]` — the number of pruned entries.
    base: usize,
}

impl<T: Copy> StepRing<T> {
    /// An empty ring.
    pub fn new() -> StepRing<T> {
        StepRing {
            buf: VecDeque::new(),
            base: 0,
        }
    }

    /// Remove all entries and reset indices (keeps the allocation).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.base = 0;
    }

    /// Append one entry at absolute index `self.len()`.
    pub fn push(&mut self, x: T) {
        self.buf.push_back(x);
    }

    /// One past the last absolute index ever pushed (pruning does not
    /// shrink this).
    pub fn len(&self) -> usize {
        self.base + self.buf.len()
    }

    /// `true` when nothing was ever pushed (or everything was pruned).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The entry at absolute index `i`.
    ///
    /// # Panics
    /// Panics if `i` was pruned or never pushed.
    pub fn get(&self, i: usize) -> T {
        self.buf[i - self.base]
    }

    /// Drop every entry with absolute index `< i` (no-op when already
    /// pruned that far).
    pub fn prune_to(&mut self, i: usize) {
        while self.base < i {
            self.buf.pop_front();
            self.base += 1;
        }
    }

    /// Entries the buffer has room for without reallocating.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Live entries in index order (all entries when never pruned).
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.buf.iter().copied()
    }

    /// Apply `f` to every live entry in place (the deterministic
    /// fast-forward translates times and cumulative levels by whole
    /// cycles).
    pub fn shift(&mut self, mut f: impl FnMut(&mut T)) {
        for x in self.buf.iter_mut() {
            f(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_survive_pruning() {
        let mut r: StepRing<u32> = StepRing::new();
        for v in 0..10 {
            r.push(v * 10);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.get(3), 30);
        r.prune_to(4);
        assert_eq!(r.len(), 10, "len is absolute, not live count");
        assert_eq!(r.get(4), 40);
        assert_eq!(r.get(9), 90);
        r.prune_to(2); // backwards: no-op
        assert_eq!(r.get(4), 40);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![40, 50, 60, 70, 80, 90]);
    }

    #[test]
    fn shift_applies_to_live_entries() {
        let mut r: StepRing<(u64, u64)> = StepRing::new();
        r.push((1, 10));
        r.push((2, 20));
        r.prune_to(1);
        r.shift(|e| {
            e.0 += 100;
            e.1 += 5;
        });
        assert_eq!(r.get(1), (102, 25));
    }

    #[test]
    fn clear_resets_base() {
        let mut r: StepRing<u32> = StepRing::new();
        r.push(1);
        r.prune_to(1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        r.push(7);
        assert_eq!(r.get(0), 7);
    }
}
