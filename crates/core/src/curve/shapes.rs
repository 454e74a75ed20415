//! Constructors for the standard network-calculus curve shapes.
//!
//! These are the building blocks used throughout the paper: leaky-bucket
//! arrival curves, rate-latency service curves, pure delays `δ_T`, and
//! the piecewise combinations derived from them.

use crate::num::{Rat, Value};

use super::pwl::{Breakpoint, Curve};

/// The zero curve `f(t) = 0`.
pub fn zero() -> Curve {
    Curve::from_breakpoints_unchecked(vec![Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ZERO)])
}

/// The constant curve `f(t) = c` for all `t ≥ 0`.
pub fn constant(c: Rat) -> Curve {
    Curve::from_breakpoints_unchecked(vec![Breakpoint::cont(
        Rat::ZERO,
        Value::finite(c),
        Rat::ZERO,
    )])
}

/// The pure-rate curve `f(t) = R·t` (a leaky bucket with zero burst).
pub fn constant_rate(rate: Rat) -> Curve {
    assert!(!rate.is_negative(), "constant_rate needs R >= 0");
    Curve::from_breakpoints_unchecked(vec![Breakpoint::cont(Rat::ZERO, Value::ZERO, rate)])
}

/// The leaky-bucket arrival curve of the paper's §2:
///
/// ```text
/// α(t) = Rα · t + b   for t > 0,   α(0) = 0.
/// ```
///
/// `rate` is `Rα` (data per unit time) and `burst` is `b` (instantaneous
/// data). The discontinuity at `t = 0` is represented exactly.
pub fn leaky_bucket(rate: Rat, burst: Rat) -> Curve {
    assert!(!rate.is_negative(), "leaky_bucket needs R >= 0");
    assert!(!burst.is_negative(), "leaky_bucket needs b >= 0");
    if burst.is_zero() {
        return constant_rate(rate);
    }
    Curve::from_breakpoints_unchecked(vec![Breakpoint {
        x: Rat::ZERO,
        v: Value::ZERO,
        v_right: Value::finite(burst),
        slope: rate,
    }])
}

/// The rate-latency service curve of the paper's §2:
///
/// ```text
/// β(t) = Rβ · (t − T)   for t > T,   0 otherwise.
/// ```
pub fn rate_latency(rate: Rat, latency: Rat) -> Curve {
    assert!(!rate.is_negative(), "rate_latency needs R >= 0");
    assert!(!latency.is_negative(), "rate_latency needs T >= 0");
    if latency.is_zero() {
        return constant_rate(rate);
    }
    Curve::from_breakpoints_unchecked(vec![
        Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ZERO),
        Breakpoint::cont(latency, Value::ZERO, rate),
    ])
}

/// The burst-delay (pure delay) curve `δ_T`: `0` on `[0, T]`, `+∞`
/// after. `f ⊗ δ_T` delays `f` by `T`; `δ_0` is the identity of `⊗`.
pub fn delta(latency: Rat) -> Curve {
    assert!(!latency.is_negative(), "delta needs T >= 0");
    if latency.is_zero() {
        return Curve::from_breakpoints_unchecked(vec![Breakpoint {
            x: Rat::ZERO,
            v: Value::ZERO,
            v_right: Value::Infinity,
            slope: Rat::ZERO,
        }]);
    }
    Curve::from_breakpoints_unchecked(vec![
        Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ZERO),
        Breakpoint {
            x: latency,
            v: Value::ZERO,
            v_right: Value::Infinity,
            slope: Rat::ZERO,
        },
    ])
}

/// A truncated staircase curve: jumps of `step` at `0, τ, 2τ, …,
/// (steps−1)·τ`, then continues at the average rate `step/τ`.
///
/// This models packetized flows (the paper's §3 `P^L` discussion): data
/// leaves a packetizer in whole packets of `step` bytes every `τ`. The
/// exact staircase has infinitely many breakpoints; after `steps`
/// periods we continue with the affine envelope, which is exact for all
/// bound computations whose horizon lies within `steps·τ` and
/// conservative beyond.
pub fn truncated_staircase(step: Rat, period: Rat, steps: usize) -> Curve {
    assert!(step.is_positive() && period.is_positive());
    assert!(steps >= 1);
    let mut bps = Vec::with_capacity(steps + 1);
    for k in 0..steps {
        let x = period * Rat::int(k as i64);
        let v = Value::finite(step * Rat::int(k as i64));
        let v_right = Value::finite(step * Rat::int(k as i64 + 1));
        bps.push(Breakpoint {
            x,
            v,
            v_right,
            slope: Rat::ZERO,
        });
    }
    // Affine continuation at the sustained rate step/τ from the last jump.
    let x = period * Rat::int(steps as i64);
    let v = Value::finite(step * Rat::int(steps as i64));
    bps.push(Breakpoint {
        x,
        v,
        v_right: v,
        slope: step / period,
    });
    Curve::from_breakpoints_unchecked(bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::rat;

    #[test]
    fn zero_and_constant() {
        assert_eq!(zero().eval(Rat::int(100)), Value::ZERO);
        assert_eq!(constant(Rat::int(7)).eval(Rat::ZERO), Value::from(7));
        assert_eq!(constant(Rat::int(7)).eval(Rat::int(9)), Value::from(7));
    }

    #[test]
    fn leaky_bucket_zero_burst_is_rate() {
        let c = leaky_bucket(Rat::int(3), Rat::ZERO);
        assert_eq!(c.eval_right(Rat::ZERO), Value::ZERO);
        assert_eq!(c.eval(Rat::int(2)), Value::from(6));
    }

    #[test]
    fn rate_latency_zero_latency_is_rate() {
        let c = rate_latency(Rat::int(3), Rat::ZERO);
        assert_eq!(c.eval(Rat::int(2)), Value::from(6));
    }

    #[test]
    fn delta_zero_is_top() {
        let d = delta(Rat::ZERO);
        assert_eq!(d.eval(Rat::ZERO), Value::ZERO);
        assert_eq!(d.eval(rat(1, 1000)), Value::Infinity);
    }

    #[test]
    fn staircase_values() {
        let s = truncated_staircase(Rat::int(4), Rat::int(2), 3);
        assert_eq!(s.eval(Rat::ZERO), Value::ZERO);
        assert_eq!(s.eval(Rat::ONE), Value::from(4));
        assert_eq!(s.eval(Rat::int(2)), Value::from(4));
        assert_eq!(s.eval_right(Rat::int(2)), Value::from(8));
        assert_eq!(s.eval(Rat::int(3)), Value::from(8));
        // Affine tail: slope 2 from (6, 12).
        assert_eq!(s.eval(Rat::int(8)), Value::from(16));
        assert!(s.is_wide_sense_increasing());
    }
}
