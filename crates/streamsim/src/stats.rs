//! Deterministic streaming quantile estimation over replica outputs.
//!
//! The Monte Carlo harnesses (the `montecarlo` and `tail` bins of
//! `nc-bench`) reduce thousands of seeded replica observations to
//! empirical quantiles that are compared against closed-form tail
//! bounds. Those comparisons are gated in CI, so the estimator must be
//! *exact* and *deterministic*: the nearest-rank quantile of the
//! collected sample, independent of insertion order and worker count
//! (replicas arrive in seed order after the striped merge, but the
//! estimator does not even rely on that — it sorts).
//!
//! Nearest-rank definition: for `0 < q ≤ 1` over `n` samples, the
//! q-quantile is the `⌈q·n⌉`-th smallest sample (1-indexed); `q = 0`
//! returns the minimum. This is the inverse of the empirical CDF, so
//! `P(X ≤ quantile(q)) ≥ q` holds exactly on the sample — the right
//! side for containment checks against analytic `P(d > x) ≤ 1 − q`
//! bounds.

/// Exact nearest-rank quantile accumulator. `push` observations, then
/// read any quantile; `O(n log n)` on first read after an insert.
#[derive(Clone, Debug, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// An empty accumulator.
    pub fn new() -> Quantiles {
        Quantiles::default()
    }

    /// Build from a batch of observations.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Quantiles {
        let mut q = Quantiles::new();
        for s in samples {
            q.push(s);
        }
        q
    }

    /// Add one observation. Non-finite samples are rejected: the
    /// simulators never produce them, and silently ranking a NaN would
    /// poison every quantile.
    ///
    /// # Panics
    /// Panics if `sample` is NaN or infinite.
    pub fn push(&mut self, sample: f64) {
        assert!(sample.is_finite(), "quantile samples must be finite");
        self.samples.push(sample);
        self.sorted = false;
    }

    /// The nearest-rank `q`-quantile of the sample, `None` when empty.
    /// `q = 0` is the minimum, `q = 1` the maximum; ties are handled
    /// by rank (duplicates occupy adjacent ranks).
    ///
    /// # Panics
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile level must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            // Samples are finite by construction: total order exists.
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            self.sorted = true;
        }
        let n = self.samples.len();
        // ⌈q·n⌉ clamped to [1, n]; q = 0 maps to rank 1 (the minimum).
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_quantiles() {
        let mut q = Quantiles::new();
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.quantile(0.0), None);
        assert_eq!(q.quantile(1.0), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut q = Quantiles::from_samples([42.0]);
        for level in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(q.quantile(level), Some(42.0));
        }
    }

    #[test]
    fn nearest_rank_on_a_known_sample() {
        // Classic nearest-rank example: n = 5.
        let mut q = Quantiles::from_samples([15.0, 20.0, 35.0, 40.0, 50.0]);
        assert_eq!(q.quantile(0.30), Some(20.0)); // ⌈1.5⌉ = rank 2
        assert_eq!(q.quantile(0.40), Some(20.0)); // ⌈2.0⌉ = rank 2
        assert_eq!(q.quantile(0.50), Some(35.0)); // ⌈2.5⌉ = rank 3
        assert_eq!(q.quantile(1.00), Some(50.0));
        assert_eq!(q.quantile(0.0), Some(15.0));
    }

    #[test]
    fn ties_occupy_adjacent_ranks() {
        let mut q = Quantiles::from_samples([1.0, 2.0, 2.0, 2.0, 3.0]);
        assert_eq!(q.quantile(0.2), Some(1.0));
        assert_eq!(q.quantile(0.4), Some(2.0));
        assert_eq!(q.quantile(0.6), Some(2.0));
        assert_eq!(q.quantile(0.8), Some(2.0));
        assert_eq!(q.quantile(1.0), Some(3.0));
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let mut fwd = Quantiles::from_samples([1.0, 2.0, 3.0, 4.0]);
        let mut rev = Quantiles::from_samples([4.0, 3.0, 2.0, 1.0]);
        for level in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(fwd.quantile(level), rev.quantile(level));
        }
    }

    #[test]
    fn interleaved_push_and_read() {
        let mut q = Quantiles::new();
        q.push(5.0);
        assert_eq!(q.quantile(1.0), Some(5.0));
        q.push(1.0); // re-sort after the read
        assert_eq!(q.quantile(0.5), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_samples_are_rejected() {
        Quantiles::new().push(f64::NAN);
    }
}
