//! Service/arrival time distributions for simulation models.
//!
//! The paper's simulator draws execution times "from a uniform random
//! distribution using the minimum and maximum times as bounds"; the
//! queueing baseline assumes exponential (Markovian) stages. Both are
//! provided, plus deterministic and empirical distributions for
//! measured traces. All sampling is through a caller-supplied seeded
//! RNG so runs are reproducible.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over non-negative durations (seconds).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always exactly `value`.
    Constant(f64),
    /// Uniform on `[lo, hi]` — the paper's simulation model.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Exponential with the given mean — the M/M/1 baseline's stages.
    Exponential {
        /// Mean (= 1/λ).
        mean: f64,
    },
    /// Resample uniformly from measured values.
    Empirical(Vec<f64>),
}

impl Dist {
    /// Validate parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Dist::Constant(v) => {
                if !v.is_finite() || *v < 0.0 {
                    return Err(format!("Constant({v}) must be finite and >= 0"));
                }
            }
            Dist::Uniform { lo, hi } => {
                if !(lo.is_finite() && hi.is_finite() && *lo >= 0.0 && lo <= hi) {
                    return Err(format!("Uniform[{lo}, {hi}] must satisfy 0 <= lo <= hi"));
                }
            }
            Dist::Exponential { mean } => {
                if !(mean.is_finite() && *mean > 0.0) {
                    return Err(format!("Exponential mean {mean} must be > 0"));
                }
            }
            Dist::Empirical(vs) => {
                if vs.is_empty() {
                    return Err("Empirical distribution needs >= 1 sample".into());
                }
                if vs.iter().any(|v| !v.is_finite() || *v < 0.0) {
                    return Err("Empirical samples must be finite and >= 0".into());
                }
            }
        }
        Ok(())
    }

    /// Draw one sample.
    ///
    /// # Panics
    /// Panics (in debug builds) on invalid parameters; call
    /// [`Dist::validate`] first for a recoverable error.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        debug_assert!(self.validate().is_ok());
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => {
                if lo == hi {
                    *lo
                } else {
                    rng.gen_range(*lo..=*hi)
                }
            }
            Dist::Exponential { mean } => {
                // Inverse CDF; guard against ln(0).
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -mean * u.ln()
            }
            Dist::Empirical(vs) => vs[rng.gen_range(0..vs.len())],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn validation() {
        assert!(Dist::Constant(1.0).validate().is_ok());
        assert!(Dist::Constant(-1.0).validate().is_err());
        assert!(Dist::Uniform { lo: 1.0, hi: 2.0 }.validate().is_ok());
        assert!(Dist::Uniform { lo: 3.0, hi: 2.0 }.validate().is_err());
        assert!(Dist::Exponential { mean: 0.0 }.validate().is_err());
        assert!(Dist::Empirical(vec![]).validate().is_err());
        assert!(Dist::Empirical(vec![1.0, 2.0]).validate().is_ok());
    }

    #[test]
    fn uniform_within_bounds_and_mean() {
        let d = Dist::Uniform { lo: 2.0, hi: 6.0 };
        let mut r = rng();
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut r);
            assert!((2.0..=6.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "uniform mean {mean}");
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::Exponential { mean: 3.0 };
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "exponential mean {mean}");
    }

    #[test]
    fn constant_and_empirical() {
        let mut r = rng();
        assert_eq!(Dist::Constant(5.0).sample(&mut r), 5.0);
        let e = Dist::Empirical(vec![1.0, 2.0, 4.0]);
        for _ in 0..100 {
            let x = e.sample(&mut r);
            assert!(x == 1.0 || x == 2.0 || x == 4.0);
        }
    }

    #[test]
    fn reproducible_with_seed() {
        let d = Dist::Uniform { lo: 0.0, hi: 1.0 };
        let a: Vec<f64> = {
            let mut r = rng();
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng();
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
