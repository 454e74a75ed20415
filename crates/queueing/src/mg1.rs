//! M/G/1 queues via the Pollaczek–Khinchine formula, with M/D/1 and
//! M/U/1 (uniform service) specializations.
//!
//! The paper's criticism of the M/M/1 baseline is precisely that real
//! stages are not Markovian: the measured kernels have tightly bounded
//! service times (uniform between min and max in the simulator). M/G/1
//! quantifies how much of the queueing-prediction error comes from the
//! exponential-service assumption alone.

use serde::Serialize;

use crate::mm1::QueueError;

/// Steady-state metrics of a stable M/G/1 queue.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Mg1 {
    /// Arrival rate λ.
    pub lambda: f64,
    /// Mean service time `E[S]`.
    pub mean_service: f64,
    /// Squared coefficient of variation `c² = Var[S]/E[S]²`.
    pub scv: f64,
    /// Utilization `ρ = λ·E[S]`.
    pub rho: f64,
    /// Mean number in system.
    pub l: f64,
    /// Mean number waiting.
    pub lq: f64,
    /// Mean time in system.
    pub w: f64,
    /// Mean waiting time.
    pub wq: f64,
}

impl Mg1 {
    /// Analyze an M/G/1 queue from the first two moments of the
    /// service-time distribution.
    pub fn new(lambda: f64, mean_service: f64, service_variance: f64) -> Result<Mg1, QueueError> {
        if !(lambda.is_finite()
            && mean_service.is_finite()
            && service_variance.is_finite()
            && lambda > 0.0
            && mean_service > 0.0
            && service_variance >= 0.0)
        {
            return Err(QueueError::BadParameters);
        }
        let rho = lambda * mean_service;
        if rho >= 1.0 {
            return Err(QueueError::Unstable);
        }
        let scv = service_variance / (mean_service * mean_service);
        // Pollaczek–Khinchine: Lq = ρ²(1 + c²) / (2(1 − ρ)).
        let lq = rho * rho * (1.0 + scv) / (2.0 * (1.0 - rho));
        let wq = lq / lambda;
        let w = wq + mean_service;
        let l = lambda * w;
        Ok(Mg1 {
            lambda,
            mean_service,
            scv,
            rho,
            l,
            lq,
            w,
            wq,
        })
    }

    /// M/D/1: deterministic service of length `service`.
    pub fn deterministic(lambda: f64, service: f64) -> Result<Mg1, QueueError> {
        Mg1::new(lambda, service, 0.0)
    }

    /// M/U/1: service uniform on `[lo, hi]` — the paper's simulator
    /// model. Variance `(hi − lo)² / 12`.
    pub fn uniform(lambda: f64, lo: f64, hi: f64) -> Result<Mg1, QueueError> {
        if !(lo.is_finite() && hi.is_finite() && lo >= 0.0 && lo <= hi) {
            return Err(QueueError::BadParameters);
        }
        let mean = 0.5 * (lo + hi);
        let var = (hi - lo) * (hi - lo) / 12.0;
        Mg1::new(lambda, mean, var)
    }

    /// M/M/1 expressed through P-K (c² = 1), for cross-checks.
    pub fn exponential(lambda: f64, mean_service: f64) -> Result<Mg1, QueueError> {
        Mg1::new(lambda, mean_service, mean_service * mean_service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1::Mm1;

    #[test]
    fn md1_half_the_mm1_queue() {
        // Classic result: M/D/1 waiting is half of M/M/1 at equal ρ.
        let md1 = Mg1::deterministic(2.0, 0.2).unwrap(); // ρ=0.4
        let mm1 = Mm1::new(2.0, 5.0).unwrap();
        assert!((md1.wq - 0.5 * mm1.wq).abs() < 1e-12);
        assert!((md1.lq - 0.5 * mm1.lq).abs() < 1e-12);
    }

    #[test]
    fn exponential_matches_mm1() {
        let pk = Mg1::exponential(2.0, 0.2).unwrap();
        let mm1 = Mm1::new(2.0, 5.0).unwrap();
        assert!((pk.l - mm1.l).abs() < 1e-12);
        assert!((pk.w - mm1.w).abs() < 1e-12);
    }

    #[test]
    fn uniform_between_deterministic_and_exponential() {
        let lo_hi = (0.1, 0.3); // mean 0.2
        let uni = Mg1::uniform(2.0, lo_hi.0, lo_hi.1).unwrap();
        let det = Mg1::deterministic(2.0, 0.2).unwrap();
        let exp = Mg1::exponential(2.0, 0.2).unwrap();
        assert!(det.wq < uni.wq && uni.wq < exp.wq);
    }

    #[test]
    fn stability_and_validation() {
        assert_eq!(
            Mg1::deterministic(5.0, 0.2).unwrap_err(),
            QueueError::Unstable
        );
        assert_eq!(
            Mg1::uniform(1.0, 0.3, 0.1).unwrap_err(),
            QueueError::BadParameters
        );
        assert_eq!(
            Mg1::new(1.0, 0.1, -1.0).unwrap_err(),
            QueueError::BadParameters
        );
    }

    #[test]
    fn littles_law() {
        let q = Mg1::uniform(2.0, 0.1, 0.3).unwrap();
        assert!((q.l - q.lambda * q.w).abs() < 1e-12);
    }
}
