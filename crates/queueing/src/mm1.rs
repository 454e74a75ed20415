//! The M/M/1 queue: Poisson arrivals, exponential service, one server.
//!
//! This is the building block of the baseline model the paper compares
//! against (Faber et al. \[12\] use M/M/1 queueing networks): it yields
//! the steady-state mean flow quantities but — as the paper argues in
//! §1 — no worst-case bounds, no data-bundling effects, and optimistic
//! throughput when stages are not Markovian.

use serde::Serialize;

/// Steady-state metrics of a stable M/M/1 queue.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Mm1 {
    /// Arrival rate λ (jobs or bytes per second).
    pub lambda: f64,
    /// Service rate µ.
    pub mu: f64,
    /// Utilization ρ = λ/µ.
    pub rho: f64,
    /// Mean number in system `L = ρ/(1−ρ)`.
    pub l: f64,
    /// Mean number in queue `Lq = ρ²/(1−ρ)`.
    pub lq: f64,
    /// Mean time in system `W = 1/(µ−λ)`.
    pub w: f64,
    /// Mean waiting time `Wq = ρ/(µ−λ)`.
    pub wq: f64,
}

/// Errors for unstable or invalid queue parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum QueueError {
    /// λ or µ not finite and positive.
    BadParameters,
    /// ρ ≥ 1: the queue grows without bound — the same divergence the
    /// network-calculus model reports for `R_α > R_β` (paper §3).
    Unstable,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::BadParameters => write!(f, "rates must be finite and > 0"),
            QueueError::Unstable => write!(f, "unstable queue (rho >= 1)"),
        }
    }
}

impl std::error::Error for QueueError {}

impl Mm1 {
    /// Analyze an M/M/1 queue with arrival rate `lambda` and service
    /// rate `mu`.
    pub fn new(lambda: f64, mu: f64) -> Result<Mm1, QueueError> {
        if !(lambda.is_finite() && mu.is_finite() && lambda > 0.0 && mu > 0.0) {
            return Err(QueueError::BadParameters);
        }
        let rho = lambda / mu;
        if rho >= 1.0 {
            return Err(QueueError::Unstable);
        }
        let l = rho / (1.0 - rho);
        let w = 1.0 / (mu - lambda);
        Ok(Mm1 {
            lambda,
            mu,
            rho,
            l,
            lq: rho * rho / (1.0 - rho),
            w,
            wq: rho / (mu - lambda),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        let q = Mm1::new(2.0, 5.0).unwrap();
        assert!((q.rho - 0.4).abs() < 1e-12);
        assert!((q.l - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.w - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.wq - q.w + 1.0 / q.mu).abs() < 1e-12);
        assert!((q.lq - q.l + q.rho).abs() < 1e-12);
    }

    #[test]
    fn littles_law() {
        let q = Mm1::new(3.0, 4.0).unwrap();
        assert!((q.l - q.lambda * q.w).abs() < 1e-12);
        assert!((q.lq - q.lambda * q.wq).abs() < 1e-12);
    }

    #[test]
    fn instability_detected() {
        assert_eq!(Mm1::new(5.0, 5.0).unwrap_err(), QueueError::Unstable);
        assert_eq!(Mm1::new(6.0, 5.0).unwrap_err(), QueueError::Unstable);
        assert_eq!(Mm1::new(-1.0, 5.0).unwrap_err(), QueueError::BadParameters);
        assert_eq!(
            Mm1::new(1.0, f64::NAN).unwrap_err(),
            QueueError::BadParameters
        );
    }
}
