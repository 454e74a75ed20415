//! Flow-controlled network calculus: closed-form service curves for
//! pipelines with bounded (backpressured) inter-stage queues.
//!
//! The paper's model assumes unbounded queues between stages; real
//! deployments cap them, and a full queue *blocks the producer* —
//! hop-by-hop window flow control. Following Zippo & Stea
//! (arXiv:2203.02497), each bounded queue is modeled as a window
//! flow-control element: traffic entering the subsystem behind a queue
//! of window `W` is gated to `a = min(x, ack + W)`, where `ack` is the
//! downstream consumption. If the gated subsystem offers service `N`,
//! the classic feedback fixpoint gives the *closed-loop* service
//!
//! ```text
//! N ⊗ (N + W)*        ((·)* = sub-additive closure)
//! ```
//!
//! which this module evaluates with a closed-form fast path for
//! rate-latency `N` (the closure is an exact staircase) and the general
//! iterated-convolution path of [`crate::ops::closure`] otherwise, with
//! sound lower/upper caps when the iteration is truncated.
//!
//! Bounds are then produced in the *admitted-arrival* formulation: the
//! source gate (bounded queue 0) throttles what enters the system, so
//! delay/backlog are computed for the admitted flow
//! `α_eq = min(α, U₀ + cap₀)` against the end-to-end closed-loop
//! service `E₀`, where `U₀` is a max-consumption envelope chained
//! backwards through the windows. This keeps the bounds finite in
//! overload — exactly the regime where backpressure engages — and
//! matches what the discrete-event simulator measures (delay from
//! admission to delivery, backlog as bytes in system).
//!
//! Bouillard (arXiv:2010.09263) supplies the tightness framing used by
//! the per-stage ablation: summing per-stage delays (each stage with
//! its own gate) is never tighter than the end-to-end bound ("pay
//! bursts only once"); [`FlowCtlModel::per_stage_sum`] quantifies the
//! gap.

use crate::cache::CurveOps;
use crate::curve::pwl::Breakpoint;
use crate::curve::{shapes, Curve};
use crate::num::{Rat, Value};

/// Iteration budget for the general sub-additive closure path. `K =
/// 2^CLOSURE_ITERS` convolution powers are covered exactly; beyond
/// that the truncation caps of [`window_closure`] take over.
pub const CLOSURE_ITERS: usize = 6;

/// Number of staircase periods materialized exactly by the
/// rate-latency fast path before switching to the affine tail bounds.
pub const RL_PERIODS: usize = 64;

/// Denominator cap for the [`Curve::relax_up`]/[`Curve::relax_down`]
/// safety valves threaded through the backward recursion and the
/// general closure path. Convolving the staircase closures of
/// successive bounded queues compounds breakpoint denominators
/// multiplicatively; relaxing service floors down and envelopes up
/// keeps the exact `i128` arithmetic in range while every bound stays
/// sound. The grid is deliberately coarse (a power of two, so the
/// dyadic job-size normalization factors reduce against it): curve
/// *values* are input-referred bytes that reach `~1e13`, and the
/// convolution envelope compares line intersections whose numerators
/// scale with `value · den²` — a 2^10 grid keeps the worst case well
/// inside `i128` while costing at most one grid step (~1 ms / ~1 mB)
/// of looseness per relaxed coordinate.
const RELAX_DEN: i128 = 1 << 10;

/// Breakpoint budget for the general closure iteration: each
/// self-convolution can square the piece count of a non-convex
/// accumulator, so the iteration stops refining (and falls back to
/// the truncation caps plus the rate-latency stair brackets) once
/// either accumulator outgrows this.
const CLOSURE_BP_BUDGET: usize = 96;

/// A bounded queue viewed as a window flow-control element. Both
/// fields are input-referred (normalized to source bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowWindow {
    /// Queue capacity — the *most open* view of the gate (the queue
    /// level never exceeds it). Used for the admission upper bound.
    pub cap: Rat,
    /// Capacity minus the producer's block size — the *most
    /// restrictive* view (the producer blocks as soon as a whole block
    /// no longer fits). Used for the closed-loop service lower bound.
    pub slack: Rat,
}

/// Per-stage inputs to the flow-control analysis, input-referred.
#[derive(Clone, Debug)]
pub struct FlowStage {
    /// Lower service curve `β_i` of the stage.
    pub service: Curve,
    /// Maximum consumption rate of the stage (jobs started per unit
    /// time × normalized job size) — the rate of the max-consumption
    /// envelope `γ_i`.
    pub rate_up: Rat,
    /// Normalized job-input size `b_i` — the burst of `γ_i` and the
    /// producer-side granularity of the downstream window.
    pub burst: Rat,
}

/// Lower/upper bounds on the sub-additive closure `(N + W)*`.
///
/// When `exact`, both curves are the true closure. Otherwise the true
/// closure lies between `lower` and `upper` everywhere (the two agree
/// on a prefix and bracket the tail).
#[derive(Clone, Debug)]
pub struct WindowClosure {
    /// Sound lower bound on `(N + W)*` — safe as a service curve.
    pub lower: Curve,
    /// Sound upper bound on `(N + W)*`.
    pub upper: Curve,
    /// `lower == upper == (N + W)*` everywhere.
    pub exact: bool,
    /// The window is transparent: `N ⊗ (N+W)* = N`, i.e. flow control
    /// costs nothing (window at least a bandwidth-delay product).
    pub transparent: bool,
}

/// Bounds for a backpressured pipeline: the equivalent end-to-end
/// service curve and the closed-form delay/backlog bounds, plus the
/// per-stage (Bouillard) ablation.
#[derive(Clone, Debug)]
pub struct FlowCtlModel {
    /// End-to-end closed-loop service `E₀` (admitted arrival → sink),
    /// input-referred. A sound lower service curve.
    pub equiv_service: Curve,
    /// Delay bound `h(α_eq, E₀)` for admitted data (admission → sink),
    /// where `α_eq = min(α, U₀ + cap₀)` is the arrival envelope of the
    /// *admitted* flow (`α` when queue 0 is unbounded).
    pub delay: Value,
    /// Backlog bound `v(α_eq, E₀)` — bytes admitted but not delivered.
    pub backlog: Value,
    /// Per-stage delay bounds `h(α_i, F_i)` with `F_i = β_i ⊗ (N_i +
    /// W_{i+1})*` and `α_{i+1} = α_i ⊘ F_i` (output bound cascade).
    pub per_stage_delay: Vec<Value>,
    /// Sum of the per-stage delays — the hop-by-hop bound that "pays
    /// the burst at every stage"; never tighter than `delay`.
    pub per_stage_sum: Value,
    /// All window closures were computed exactly.
    pub exact: bool,
    /// Every window was transparent: the bounds coincide with the
    /// unbounded-queue analysis.
    pub transparent: bool,
}

/// The exact closure staircase of a rate-latency curve behind a window
/// `0 < w < R·T`:
///
/// ```text
/// (RL(R,T) + w)*(t) = min(δ₀, min_{k≥1} [k·w + R(t − k·T)⁺])
/// ```
///
/// i.e. value `0` at `0`, a jump to `w`, flat to `T`, then per period
/// `k`: a rise at slope `R` on `[kT, kT + w/R]` from `k·w` to
/// `(k+1)·w`, flat to `(k+1)T`. Materializes `periods` periods.
fn stair_prefix(rate: Rat, latency: Rat, window: Rat, periods: usize) -> Vec<Breakpoint> {
    debug_assert!(window.is_positive() && window < rate * latency);
    let mut bps = Vec::with_capacity(2 * periods + 2);
    bps.push(Breakpoint {
        x: Rat::ZERO,
        v: Value::ZERO,
        v_right: Value::finite(window),
        slope: Rat::ZERO,
    });
    let rise = window / rate;
    for k in 1..=periods {
        let kk = Rat::int(k as i64);
        let x0 = latency * kk;
        bps.push(Breakpoint::cont(x0, Value::finite(window * kk), rate));
        bps.push(Breakpoint::cont(
            x0 + rise,
            Value::finite(window * (kk + Rat::ONE)),
            Rat::ZERO,
        ));
    }
    bps
}

/// Closure bounds for a rate-latency `N = RL(R, T)` with window `w`,
/// `0 < w < R·T`: the exact staircase for [`RL_PERIODS`] periods, then
/// an affine tail at the long-run rate `w/T` anchored so that the
/// upper tail passes through the staircase's *top* corners (hence ≥
/// everywhere, by convexity of each flat-then-rise piece) and the
/// lower tail through its *bottom* corners (hence ≤ everywhere).
fn stair_bounds(rate: Rat, latency: Rat, window: Rat) -> (Curve, Curve) {
    let long_run = window / latency;
    let mut upper_bps = stair_prefix(rate, latency, window, RL_PERIODS);
    if let Some(last) = upper_bps.last_mut() {
        last.slope = long_run;
    }
    let mut lower_bps = stair_prefix(rate, latency, window, RL_PERIODS);
    let k1 = Rat::int(RL_PERIODS as i64 + 1);
    lower_bps.push(Breakpoint::cont(
        latency * k1,
        Value::finite(window * k1),
        long_run,
    ));
    let lower = Curve::from_breakpoints(lower_bps).expect("staircase lower bound is a valid curve");
    let upper = Curve::from_breakpoints(upper_bps).expect("staircase upper bound is a valid curve");
    (lower, upper)
}

/// Smallest rate-latency majorant `M = RL(ρ, T) ≥ service` with `ρ` the
/// steepest segment slope, or `None` when no finite majorant exists.
/// The result is re-verified exactly by the caller before use.
fn rl_majorant(service: &Curve) -> Option<(Rat, Rat)> {
    let bps = service.breakpoints();
    let mut rho = Rat::ZERO;
    for bp in bps {
        if !bp.v.is_finite() || !bp.v_right.is_finite() {
            return None;
        }
        rho = rho.max(bp.slope);
    }
    if !rho.is_positive() {
        return None;
    }
    // On each segment `[x_j, ·)` the gap `t − N(t)/ρ` is non-decreasing
    // (segment slopes ≤ ρ), so the binding constraint sits at the
    // segment's left endpoint with its right value.
    let mut latency: Option<Rat> = None;
    for bp in bps {
        let cand = bp.x - bp.v_right.unwrap_finite() / rho;
        latency = Some(match latency {
            Some(t) => t.min(cand),
            None => cand,
        });
    }
    Some((rho, latency.unwrap_or(Rat::ZERO).max(Rat::ZERO)))
}

/// A rate-latency minorant candidate `m = RL(ρ, T) ≤ service` with `ρ`
/// the ultimate slope, or `None` when the curve has no positive
/// ultimate slope. The result is re-verified exactly by the caller.
fn rl_minorant(service: &Curve) -> Option<(Rat, Rat)> {
    let rho = match service.ultimate_slope() {
        Value::Finite(r) if r.is_positive() => r,
        _ => return None,
    };
    // T must dominate sup_t (t − N(t)/ρ); candidates are breakpoint
    // values and segment-end left limits.
    let bps = service.breakpoints();
    let mut latency = Rat::ZERO;
    for (j, bp) in bps.iter().enumerate() {
        let v = bp.v.as_finite()?;
        latency = latency.max(bp.x - v / rho);
        if let Some(next) = bps.get(j + 1) {
            let left_limit = bp.v_right.as_finite()? + bp.slope * (next.x - bp.x);
            latency = latency.max(next.x - left_limit / rho);
        }
    }
    Some((rho, latency))
}

/// Closure bounds for `(RL(rate, latency) + window)*` given `0 ≤
/// window ≥ rate·latency` is *not* required — handles every window
/// regime of a rate-latency curve in closed form.
fn rl_window_closure(rate: Rat, latency: Rat, window: Rat, service: &Curve) -> WindowClosure {
    if window >= rate * latency {
        // Window at least a bandwidth-delay product: `N + w` is already
        // sub-additive beyond the origin, the closure is exactly
        // `min(δ₀, N + w)` and convolving it back into `N` is a no-op.
        let exact = shapes::delta(Rat::ZERO).min(&service.shift_up(window));
        return WindowClosure {
            lower: exact.clone(),
            upper: exact,
            exact: true,
            transparent: true,
        };
    }
    if !window.is_positive() {
        // Zero window under positive latency: nothing is ever acked
        // inside one round-trip, the closed-loop service collapses.
        let z = shapes::zero();
        return WindowClosure {
            lower: z.clone(),
            upper: z,
            exact: true,
            transparent: false,
        };
    }
    let (lower, upper) = stair_bounds(rate, latency, window);
    WindowClosure {
        lower,
        upper,
        exact: false,
        transparent: false,
    }
}

/// Bounds on the sub-additive closure `(service + window)*` — the
/// feedback term of a window flow-control element.
///
/// Dispatches to the closed-form staircase when `service` is
/// rate-latency, and to the general iterated-convolution closure
/// otherwise; [`window_closure_general`] is the latter path, exposed
/// separately so property tests can cross-check the two.
pub fn window_closure(
    ops: &mut dyn CurveOps,
    service: &Curve,
    window: Rat,
    max_iter: usize,
) -> WindowClosure {
    if let Some((rate, latency)) = service.as_rate_latency() {
        return rl_window_closure(rate, latency, window, service);
    }
    window_closure_general(ops, service, window, max_iter)
}

/// General-path closure bounds: run the iterated-convolution closure
/// on `service + window`; if it converges the result is exact, else
/// the truncated accumulator (an upper bound covering convolution
/// powers `k ≤ 2^iterations`) is bracketed with sound caps:
///
/// * upper: `min(acc, stair_upper(M + window))` for an exactly
///   verified rate-latency majorant `M ≥ service` (closure is
///   antitone-in-reverse: bigger operand, bigger closure);
/// * lower: `max(min(acc, (K+1)·window), stair_lower(m + window))` —
///   powers beyond `K = 2^iterations` sit above `(K+1)·window`, and a
///   verified minorant `m ≤ service` closes below the true closure.
///
/// Iterated convolution compounds breakpoint denominators, so each
/// round passes through the [`Curve::relax_up`]/[`Curve::relax_down`]
/// safety valve: while the coordinates stay small the iteration is the
/// exact one (and can still converge to the exact closure); once a
/// relaxation fires the accumulator splits into a dominated/dominating
/// pair and the result is reported as a bracket, never as exact.
pub fn window_closure_general(
    ops: &mut dyn CurveOps,
    service: &Curve,
    window: Rat,
    max_iter: usize,
) -> WindowClosure {
    let f = service.shift_up(window);
    let mut lo = shapes::delta(Rat::ZERO).min(&f);
    let mut hi = lo.clone();
    let mut iterations = 0;
    let mut converged = false;
    for i in 0..max_iter {
        if lo == hi {
            let next = hi.min(&ops.conv(&hi, &hi));
            if next == hi {
                converged = true;
                break;
            }
            hi = next.relax_up(RELAX_DEN);
            lo = next.relax_down(RELAX_DEN);
        } else {
            hi = hi.min(&ops.conv(&hi, &hi)).relax_up(RELAX_DEN);
            lo = lo.min(&ops.conv(&lo, &lo)).relax_down(RELAX_DEN);
        }
        iterations = i + 1;
        // Self-convolution squares the piece count of a non-convex
        // accumulator; stop refining once the representation outgrows
        // the budget — the truncation caps and the verified
        // rate-latency stair brackets below stay sound regardless of
        // where the iteration stopped.
        if lo.len().max(hi.len()) > CLOSURE_BP_BUDGET {
            break;
        }
    }
    if converged {
        let transparent = ops.conv(service, &hi) == *service;
        return WindowClosure {
            lower: hi.clone(),
            upper: hi,
            exact: true,
            transparent,
        };
    }
    let k_covered = 1u64 << iterations.min(62);
    let cap = window * Rat::int(k_covered as i64 + 1);
    let mut lower = lo.min(&shapes::constant(cap.max(Rat::ZERO)));
    let mut upper = hi;
    if let Some((rho, lat)) = rl_majorant(service) {
        let m = shapes::rate_latency(rho, lat);
        if service.max(&m) == m {
            upper = upper.min(&rl_window_closure(rho, lat, window, &m).upper);
        }
    }
    if let Some((rho, lat)) = rl_minorant(service) {
        let m = shapes::rate_latency(rho, lat);
        if service.min(&m) == m {
            lower = lower.max(&rl_window_closure(rho, lat, window, &m).lower);
        }
    }
    WindowClosure {
        lower,
        upper,
        exact: false,
        transparent: false,
    }
}

/// Flow-control analysis of a pipeline with (some) bounded queues.
///
/// `stages[i]` describes stage `i`; `windows[i]` is the queue feeding
/// stage `i` (`windows[0]` is the source-side queue), `None` when
/// unbounded. All curves and windows are input-referred.
///
/// The backward recursion computes, per stage, the service `E_i` from
/// arrival-at-stage-`i` to the sink:
///
/// ```text
/// E_{n-1} = β_{n-1}
/// N_i     = β_i ⊗ E_{i+1}
/// E_i     = N_i ⊗ (N_i + W_{i+1})*   (queue i+1 bounded, else N_i)
/// ```
///
/// and, in parallel, the max-consumption envelopes `U_i` used by the
/// admission bound: `U_{n-1} = γ_{n-1}`, `U_i = min(γ_i, U_{i+1} +
/// cap_{i+1} + b_i)` when queue `i+1` is bounded (the queue level
/// never exceeds its capacity, so stage `i`'s consumption can outrun
/// downstream consumption by at most `cap_{i+1}` plus one in-flight
/// job).
pub fn flowctl_model(
    ops: &mut dyn CurveOps,
    arrival: &Curve,
    stages: &[FlowStage],
    windows: &[Option<FlowWindow>],
    max_iter: usize,
) -> FlowCtlModel {
    assert!(!stages.is_empty(), "flowctl_model needs >= 1 stage");
    assert_eq!(
        stages.len(),
        windows.len(),
        "one window slot per stage (None when the queue is unbounded)"
    );
    let n = stages.len();
    let gamma = |s: &FlowStage| shapes::leaky_bucket(s.rate_up, s.burst);

    let mut equiv = stages[n - 1].service.clone();
    let mut consumption = gamma(&stages[n - 1]);
    let mut per_stage_service = vec![stages[n - 1].service.clone()];
    let mut exact = true;
    let mut transparent = true;
    // Convolving the staircase closure of one bounded queue into the
    // service of the next compounds breakpoint denominators, so every
    // curve that survives an iteration passes through the relaxation
    // safety valve: service floors down, consumption envelopes up —
    // both directions keep the derived bounds sound. A relaxation that
    // actually changes a curve clears `exact`.
    let relax_floor = |c: Curve, exact: &mut bool| {
        let r = c.relax_down(RELAX_DEN);
        *exact &= r == c;
        r
    };
    for i in (0..n - 1).rev() {
        let coupled = relax_floor(ops.conv(&stages[i].service, &equiv), &mut exact);
        match &windows[i + 1] {
            Some(w) => {
                let wc = window_closure(ops, &coupled, w.slack, max_iter);
                let lower = relax_floor(wc.lower, &mut exact);
                equiv = relax_floor(ops.conv(&coupled, &lower), &mut exact);
                per_stage_service.push(relax_floor(
                    ops.conv(&stages[i].service, &lower),
                    &mut exact,
                ));
                let env = gamma(&stages[i]).min(&consumption.shift_up(w.cap + stages[i].burst));
                let env_relaxed = env.relax_up(RELAX_DEN);
                exact &= env_relaxed == env;
                consumption = env_relaxed;
                exact &= wc.exact;
                transparent &= wc.transparent;
            }
            None => {
                equiv = coupled;
                per_stage_service.push(stages[i].service.clone());
                consumption = gamma(&stages[i]);
            }
        }
    }
    per_stage_service.reverse();

    let admitted = match &windows[0] {
        Some(w) => arrival.min(&consumption.shift_up(w.cap)),
        None => arrival.clone(),
    };

    let delay = ops.delay(&admitted, &equiv);
    let backlog = ops.backlog(&admitted, &equiv);

    let mut per_stage_delay = Vec::with_capacity(n);
    let mut cascade = admitted;
    for (i, f) in per_stage_service.iter().enumerate() {
        per_stage_delay.push(ops.delay(&cascade, f));
        if i + 1 < n {
            cascade = ops.deconv(&cascade, f).relax_up(1_000_000);
        }
    }
    let per_stage_sum = per_stage_delay.iter().fold(Value::ZERO, |acc, &d| acc + d);

    FlowCtlModel {
        equiv_service: equiv,
        delay,
        backlog,
        per_stage_delay,
        per_stage_sum,
        exact,
        transparent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CurveCache, DirectOps};
    use crate::num::rat;
    use crate::ops::min_plus_conv;

    /// Brute-force `(RL(R,T) + w)*` at a point: `min(δ₀, min_k [k·w +
    /// R(t − kT)⁺])` with enough terms to be exact at `t`.
    fn rl_closure_at(rate: Rat, latency: Rat, window: Rat, t: Rat) -> Value {
        if t.is_zero() {
            return Value::ZERO;
        }
        let k_max = (t / latency).ceil() + 2;
        let mut best = Value::Infinity;
        for k in 1..=k_max {
            let kk = Rat::new(k, 1);
            let tail = (t - latency * kk).max(Rat::ZERO);
            best = best.min(Value::finite(window * kk + rate * tail));
        }
        best
    }

    #[test]
    fn transparent_window_leaves_service_unchanged() {
        let mut ops = DirectOps;
        let beta = shapes::rate_latency(Rat::int(10), Rat::int(2));
        // w = 30 ≥ R·T = 20.
        let wc = window_closure(&mut ops, &beta, Rat::int(30), CLOSURE_ITERS);
        assert!(wc.exact && wc.transparent);
        assert_eq!(min_plus_conv(&beta, &wc.lower), beta);
    }

    #[test]
    fn tight_window_staircase_matches_brute_force() {
        let mut ops = DirectOps;
        let (r, t, w) = (Rat::int(10), Rat::int(2), Rat::int(7));
        let beta = shapes::rate_latency(r, t);
        let wc = window_closure(&mut ops, &beta, w, CLOSURE_ITERS);
        assert!(!wc.transparent);
        // Exact on the materialized prefix, sandwich everywhere.
        for n in 0..200 {
            let x = rat(n, 3);
            let truth = rl_closure_at(r, t, w, x);
            assert!(wc.lower.eval(x) <= truth, "lower violated at t={x:?}");
            assert!(wc.upper.eval(x) >= truth, "upper violated at t={x:?}");
            if x < t * Rat::int(RL_PERIODS as i64) {
                assert_eq!(wc.lower.eval(x), truth, "prefix not exact at t={x:?}");
            }
        }
    }

    #[test]
    fn zero_window_collapses_service() {
        let mut ops = DirectOps;
        let beta = shapes::rate_latency(Rat::int(10), Rat::int(2));
        let wc = window_closure(&mut ops, &beta, Rat::ZERO, CLOSURE_ITERS);
        assert!(wc.exact);
        assert_eq!(wc.lower, shapes::zero());
    }

    #[test]
    fn general_path_brackets_fast_path() {
        let mut ops = CurveCache::new();
        let (r, t, w) = (Rat::int(8), Rat::int(3), Rat::int(5));
        let beta = shapes::rate_latency(r, t);
        let fast = window_closure(&mut ops, &beta, w, CLOSURE_ITERS);
        let gen = window_closure_general(&mut ops, &beta, w, CLOSURE_ITERS);
        // Both bracket the truth, so general.lower ≤ fast.upper and
        // fast.lower ≤ general.upper; on the shared exact prefix the
        // two lower bounds agree with brute force.
        for n in 0..120 {
            let x = rat(n, 2);
            let truth = rl_closure_at(r, t, w, x);
            assert!(gen.lower.eval(x) <= truth);
            assert!(gen.upper.eval(x) >= truth);
            assert!(fast.lower.eval(x) <= truth);
            assert!(fast.upper.eval(x) >= truth);
        }
    }

    #[test]
    fn general_path_exact_when_transparent() {
        let mut ops = CurveCache::new();
        let beta = shapes::rate_latency(Rat::int(10), Rat::int(2));
        let gen = window_closure_general(&mut ops, &beta, Rat::int(30), CLOSURE_ITERS);
        assert!(gen.exact && gen.transparent);
        let fast = window_closure(&mut ops, &beta, Rat::int(30), CLOSURE_ITERS);
        assert_eq!(gen.lower, fast.lower);
    }

    #[test]
    fn single_stage_model_matches_plain_bounds_when_transparent() {
        let mut ops = DirectOps;
        let alpha = shapes::leaky_bucket(Rat::int(2), Rat::int(5));
        let beta = shapes::rate_latency(Rat::int(3), Rat::int(4));
        let stages = [FlowStage {
            service: beta.clone(),
            rate_up: Rat::int(3),
            burst: Rat::ONE,
        }];
        // Huge source queue: gate never binds.
        let windows = [Some(FlowWindow {
            cap: Rat::int(1_000_000),
            slack: Rat::int(999_999),
        })];
        let m = flowctl_model(&mut ops, &alpha, &stages, &windows, CLOSURE_ITERS);
        assert_eq!(m.delay, crate::bounds::delay_bound(&alpha, &beta));
        assert_eq!(m.backlog, crate::bounds::backlog_bound(&alpha, &beta));
        assert_eq!(m.per_stage_sum, m.delay);
    }

    #[test]
    fn overloaded_source_gate_keeps_bounds_finite() {
        let mut ops = DirectOps;
        // Offered 16 > service rate 10: unbounded analysis diverges,
        // the admission gate keeps the closed form finite.
        let alpha = shapes::leaky_bucket(Rat::int(16), Rat::ONE);
        let beta = shapes::rate_latency(Rat::int(10), rat(1, 2));
        let stages = [FlowStage {
            service: beta.clone(),
            rate_up: Rat::int(10),
            burst: Rat::ONE,
        }];
        let windows = [Some(FlowWindow {
            cap: Rat::int(40),
            slack: Rat::int(39),
        })];
        let m = flowctl_model(&mut ops, &alpha, &stages, &windows, CLOSURE_ITERS);
        assert!(m.delay.is_finite(), "delay should be finite: {:?}", m.delay);
        assert!(m.backlog.is_finite());
        assert_eq!(
            crate::bounds::delay_bound(&alpha, &beta),
            Value::Infinity,
            "sanity: the ungated bound diverges"
        );
        // Backlog is capped near the queue size, delay near cap/R.
        let b = m.backlog.unwrap_finite();
        assert!(b <= Rat::int(50), "backlog {b:?} should be ~cap");
    }

    #[test]
    fn two_stage_bounded_queue_degrades_service() {
        let mut ops = CurveCache::new();
        let alpha = shapes::leaky_bucket(Rat::int(4), Rat::ONE);
        let stages = [
            FlowStage {
                service: shapes::rate_latency(Rat::int(6), Rat::ONE),
                rate_up: Rat::int(8),
                burst: Rat::ONE,
            },
            FlowStage {
                service: shapes::rate_latency(Rat::int(5), Rat::ONE),
                rate_up: Rat::int(6),
                burst: Rat::ONE,
            },
        ];
        // A tight inter-stage queue (slack 2 < bandwidth-delay
        // product) must cost service vs the unbounded pipeline.
        let tight = [
            None,
            Some(FlowWindow {
                cap: Rat::int(3),
                slack: Rat::int(2),
            }),
        ];
        let open = [None, None];
        let m_tight = flowctl_model(&mut ops, &alpha, &stages, &tight, CLOSURE_ITERS);
        let m_open = flowctl_model(&mut ops, &alpha, &stages, &open, CLOSURE_ITERS);
        assert!(!m_tight.transparent);
        assert!(m_tight.delay >= m_open.delay);
        // The equivalent service stays a genuine lower bound: it never
        // exceeds the unbounded concatenation.
        for n in 0..60 {
            let x = rat(n, 2);
            assert!(m_tight.equiv_service.eval(x) <= m_open.equiv_service.eval(x));
        }
        // Per-stage sum pays the burst twice: never tighter.
        assert!(m_tight.per_stage_sum >= m_tight.delay);
    }
}
