//! Statistics collectors for simulation runs.
//!
//! Two kinds of collector cover what the paper reports from its
//! simulator: observation tallies (delays: "the longest observed delay
//! … and the shortest") and time-weighted levels (backlog: "the maximum
//! amount of data in system backlog accounting for all nodes and
//! queues").

use serde::Serialize;

use crate::time::Time;

/// Tally of independent observations: count/min/max/mean/variance and
/// quantiles (samples retained).
#[derive(Clone, Debug, Default, Serialize)]
pub struct Tally {
    samples: Vec<f64>,
    sum: f64,
    sum_sq: f64,
}

impl Tally {
    /// Empty tally.
    pub fn new() -> Tally {
        Tally::default()
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.samples.push(x);
        self.sum += x;
        self.sum_sq += x * x;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Sample mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> Option<f64> {
        let n = self.samples.len();
        if n < 2 {
            return None;
        }
        let mean = self.sum / n as f64;
        Some((self.sum_sq - n as f64 * mean * mean) / (n as f64 - 1.0))
    }

    /// Empirical quantile `q ∈ [0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        Some(sorted[idx])
    }
}

/// Constant-memory observation tally: count, min, max, mean, variance —
/// no samples retained.
///
/// Drop-in for [`Tally`] where quantiles are not needed: `record` keeps
/// the identical running `sum`/`sum_sq` accumulation order, and the
/// running `min`/`max` equal `Tally`'s insertion-order `f64::min`/`max`
/// reductions bit for bit, so swapping a `Tally` for a
/// `StreamingTally` does not perturb reported statistics. This is what
/// lets the simulation engines record one delay per job over multi-GiB
/// inputs in O(1) memory.
#[derive(Clone, Debug, Serialize)]
pub struct StreamingTally {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingTally {
    fn default() -> Self {
        StreamingTally::new()
    }
}

impl StreamingTally {
    /// Empty tally.
    pub fn new() -> StreamingTally {
        StreamingTally {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        Some((self.sum_sq - n * mean * mean) / (n - 1.0))
    }
}

/// A piecewise-constant level tracked over time (queue depth, backlog):
/// records the time integral, time average, and running maximum.
#[derive(Clone, Debug, Serialize)]
pub struct TimeWeighted {
    level: f64,
    max: f64,
    integral: f64,
    last_change: f64,
    start: f64,
}

impl TimeWeighted {
    /// Start tracking at `t0` with `initial` level.
    pub fn new(t0: Time, initial: f64) -> TimeWeighted {
        TimeWeighted {
            level: initial,
            max: initial,
            integral: 0.0,
            last_change: t0.as_secs(),
            start: t0.as_secs(),
        }
    }

    /// Set the level at time `t` (must not precede previous updates).
    pub fn set(&mut self, t: Time, level: f64) {
        let ts = t.as_secs();
        debug_assert!(ts >= self.last_change, "time went backwards");
        self.integral += self.level * (ts - self.last_change);
        self.last_change = ts;
        self.level = level;
        if level > self.max {
            self.max = level;
        }
    }

    /// Add `delta` to the level at time `t`.
    pub fn add(&mut self, t: Time, delta: f64) {
        let next = self.level + delta;
        self.set(t, next);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Running maximum level.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time average over `[start, t]`.
    pub fn time_avg(&self, t: Time) -> f64 {
        let ts = t.as_secs();
        debug_assert!(ts >= self.last_change);
        let total = ts - self.start;
        if total <= 0.0 {
            return self.level;
        }
        (self.integral + self.level * (ts - self.last_change)) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
        assert_eq!(t.mean(), Some(5.0));
        // Known dataset: population variance 4 → sample variance 32/7.
        assert!((t.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.quantile(0.0), Some(2.0));
        assert_eq!(t.quantile(1.0), Some(9.0));
        // Nearest-rank: index round(0.5 · 7) = 4 → the fifth sample.
        assert_eq!(t.quantile(0.5), Some(5.0));
    }

    #[test]
    fn tally_empty() {
        let t = Tally::new();
        assert_eq!(t.mean(), None);
        assert_eq!(t.min(), None);
        assert_eq!(t.quantile(0.5), None);
        assert_eq!(t.variance(), None);
    }

    #[test]
    fn streaming_tally_matches_tally_bitwise() {
        let xs = [2.5, 4.0, 4.25, 4.0, 5.5, 5.0, 7.125, 9.0, 0.375];
        let mut a = Tally::new();
        let mut b = StreamingTally::new();
        for &x in &xs {
            a.record(x);
            b.record(x);
        }
        assert_eq!(b.count(), xs.len() as u64);
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.variance(), b.variance());
    }

    #[test]
    fn streaming_tally_empty() {
        let t = StreamingTally::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
        assert_eq!(t.mean(), None);
        assert_eq!(t.variance(), None);
    }

    #[test]
    fn time_weighted_integral_and_max() {
        let mut tw = TimeWeighted::new(Time::ZERO, 0.0);
        tw.set(Time::secs(1.0), 10.0); // level 0 on [0,1)
        tw.set(Time::secs(3.0), 4.0); // level 10 on [1,3)
        tw.add(Time::secs(4.0), -4.0); // level 4 on [3,4), then 0
                                       // Integral: 0·1 + 10·2 + 4·1 = 24; over 5 s → 4.8.
        assert!((tw.time_avg(Time::secs(5.0)) - 24.0 / 5.0).abs() < 1e-12);
        assert_eq!(tw.max(), 10.0);
        assert_eq!(tw.level(), 0.0);
    }
}
