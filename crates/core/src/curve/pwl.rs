//! Piecewise-linear, ultimately-affine functions on `[0, ∞)`.
//!
//! This is the common representation for every network-calculus curve in
//! the crate: arrival curves `α`, service curves `β`, maximum service
//! curves `γ`, and all derived bounds. The representation supports
//! upward jumps (bursts such as the leaky-bucket discontinuity at `t=0`,
//! and packetizer steps) and regions where the function is `+∞` (pure
//! delay elements `δ_T`).
//!
//! # Representation
//!
//! A curve is a sorted list of [`Breakpoint`]s. Breakpoint `i` states:
//!
//! * the exact value at its abscissa: `f(x_i) = v_i`;
//! * the behaviour on the open interval to the next breakpoint (or to
//!   `∞` for the last one): `f(t) = v_right_i + slope_i · (t − x_i)` for
//!   `t ∈ (x_i, x_{i+1})`.
//!
//! `v_right_i` is the right-limit at `x_i`, so `v_right_i > v_i` encodes
//! a jump *after* `x_i`, and a next breakpoint with `v_{i+1}` above the
//! left-limit encodes a jump *at* `x_{i+1}`. An infinite `v_right`
//! makes the rest of the curve `+∞` (enforced by construction).

use core::fmt;

use crate::num::{Rat, Value};

/// One breakpoint of a piecewise-linear curve; see the module docs for
/// the exact semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Breakpoint {
    /// Abscissa. The first breakpoint always has `x = 0`.
    pub x: Rat,
    /// Exact value `f(x)`.
    pub v: Value,
    /// Right-limit `f(x⁺)`; the affine piece to the right starts here.
    pub v_right: Value,
    /// Slope of the affine piece on `(x, next_x)` (ignored while
    /// `v_right` is `+∞`).
    pub slope: Rat,
}

impl Breakpoint {
    /// Convenience constructor for a continuous breakpoint (no jump).
    pub fn cont(x: Rat, v: Value, slope: Rat) -> Breakpoint {
        Breakpoint {
            x,
            v,
            v_right: v,
            slope,
        }
    }
}

/// Errors detected when validating a breakpoint list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CurveError {
    /// The breakpoint list was empty.
    Empty,
    /// The first breakpoint does not start at `x = 0`.
    DoesNotStartAtZero,
    /// Breakpoint abscissas are not strictly increasing.
    NonMonotoneAbscissa,
    /// A value was `-∞`, which curves never hold.
    NegInfiniteValue,
    /// A finite value follows an infinite `v_right` region.
    FiniteAfterInfinity,
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CurveError::Empty => "curve must have at least one breakpoint",
            CurveError::DoesNotStartAtZero => "first breakpoint must be at x = 0",
            CurveError::NonMonotoneAbscissa => "breakpoint abscissas must strictly increase",
            CurveError::NegInfiniteValue => "curve values must not be -inf",
            CurveError::FiniteAfterInfinity => "curve cannot become finite again after +inf",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CurveError {}

/// A piecewise-linear, ultimately-affine function on `[0, ∞)`.
///
/// Equality and hashing are structural over the simplified breakpoint
/// list, so two curves compare (and hash) equal exactly when they are
/// the same function — the property the hash-consing interner in
/// [`crate::cache`] relies on.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Curve {
    bps: Vec<Breakpoint>,
}

impl Curve {
    /// Build a curve from breakpoints, validating the representation
    /// invariants (see [`CurveError`]). The list is simplified: redundant
    /// collinear breakpoints are merged.
    pub fn from_breakpoints(bps: Vec<Breakpoint>) -> Result<Curve, CurveError> {
        if bps.is_empty() {
            return Err(CurveError::Empty);
        }
        if !bps[0].x.is_zero() {
            return Err(CurveError::DoesNotStartAtZero);
        }
        let mut seen_inf = false;
        for (i, bp) in bps.iter().enumerate() {
            if bp.v == Value::NegInfinity || bp.v_right == Value::NegInfinity {
                return Err(CurveError::NegInfiniteValue);
            }
            if i > 0 && bps[i - 1].x >= bp.x {
                return Err(CurveError::NonMonotoneAbscissa);
            }
            if seen_inf && (bp.v.is_finite() || bp.v_right.is_finite()) {
                return Err(CurveError::FiniteAfterInfinity);
            }
            if bp.v_right.is_infinite() {
                seen_inf = true;
            }
        }
        let mut c = Curve { bps };
        c.simplify();
        Ok(c)
    }

    /// Build a curve, panicking on invalid input. Intended for curve
    /// shapes whose validity is structural.
    pub(crate) fn from_breakpoints_unchecked(bps: Vec<Breakpoint>) -> Curve {
        match Curve::from_breakpoints(bps) {
            Ok(c) => c,
            Err(e) => panic!("invalid curve construction: {e}"),
        }
    }

    /// The breakpoints, sorted by abscissa.
    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.bps
    }

    /// Number of breakpoints.
    pub fn len(&self) -> usize {
        self.bps.len()
    }

    /// Always `false`: a valid curve has at least one breakpoint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the breakpoint governing `t`: the last `i` with `x_i ≤ t`.
    fn seg_index(&self, t: Rat) -> usize {
        debug_assert!(!t.is_negative(), "curves are defined on [0, inf)");
        // Binary search over breakpoint abscissas.
        match self.bps.binary_search_by(|bp| bp.x.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Evaluate `f(t)` exactly.
    ///
    /// # Panics
    /// Panics (in debug builds) if `t < 0`.
    pub fn eval(&self, t: Rat) -> Value {
        let i = self.seg_index(t);
        let bp = &self.bps[i];
        if bp.x == t {
            bp.v
        } else {
            match bp.v_right {
                Value::Infinity => Value::Infinity,
                v => v + Value::finite(bp.slope * (t - bp.x)),
            }
        }
    }

    /// Right-limit `f(t⁺)`.
    pub fn eval_right(&self, t: Rat) -> Value {
        let i = self.seg_index(t);
        let bp = &self.bps[i];
        if bp.x == t {
            bp.v_right
        } else {
            self.eval(t)
        }
    }

    /// Left-limit `f(t⁻)` for `t > 0`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `t ≤ 0`.
    pub fn eval_left(&self, t: Rat) -> Value {
        debug_assert!(t.is_positive(), "left limit needs t > 0");
        let i = self.seg_index(t);
        let bp = &self.bps[i];
        if bp.x == t {
            // Limit from the previous segment.
            let prev = &self.bps[i - 1];
            match prev.v_right {
                Value::Infinity => Value::Infinity,
                v => v + Value::finite(prev.slope * (t - prev.x)),
            }
        } else {
            self.eval(t)
        }
    }

    /// Value at `0`.
    pub fn at_zero(&self) -> Value {
        self.bps[0].v
    }

    /// Largest breakpoint abscissa. Beyond it the curve is a single
    /// affine piece (or constant `+∞`).
    pub fn last_breakpoint_x(&self) -> Rat {
        self.bps[self.bps.len() - 1].x
    }

    /// Ultimate growth rate: the slope of the final affine piece, or
    /// `+∞` if the curve ends at `+∞`.
    pub fn ultimate_slope(&self) -> Value {
        let last = &self.bps[self.bps.len() - 1];
        if last.v_right.is_infinite() {
            Value::Infinity
        } else {
            Value::finite(last.slope)
        }
    }

    /// Recognize the rate-latency shape `β(t) = [R·(t − T)]⁺` and
    /// return `(R, T)` (a pure rate `R·t` reports `T = 0`).
    ///
    /// This is exactly the shape [`crate::curve::shapes::rate_latency`]
    /// and the packetizer `[R(t − T) − l]⁺ = RL(R, T + l/R)` produce,
    /// so it covers every service curve a pipeline stage feeds into the
    /// bounds — the detector behind the closed-form deviation fast
    /// paths and the admission engine's scalar decision lane.
    pub fn as_rate_latency(&self) -> Option<(Rat, Rat)> {
        let zero = |bp: &Breakpoint| bp.v == Value::ZERO && bp.v_right == Value::ZERO;
        match self.breakpoints() {
            [b0] if b0.x.is_zero() && zero(b0) && !b0.slope.is_negative() => {
                Some((b0.slope, Rat::ZERO))
            }
            [b0, b1] if b0.x.is_zero() && zero(b0) && b0.slope.is_zero() && zero(b1) => {
                Some((b1.slope, b1.x))
            }
            _ => None,
        }
    }

    /// `true` iff the curve is finite for every `t ≥ 0`.
    pub fn is_finite_everywhere(&self) -> bool {
        self.bps
            .iter()
            .all(|bp| bp.v.is_finite() && bp.v_right.is_finite())
    }

    /// `true` iff the curve is wide-sense increasing (never decreases),
    /// the standing assumption for arrival and service curves.
    pub fn is_wide_sense_increasing(&self) -> bool {
        for (i, bp) in self.bps.iter().enumerate() {
            if bp.v > bp.v_right {
                return false;
            }
            if bp.v_right.is_finite() && bp.slope.is_negative() {
                return false;
            }
            if i > 0 {
                let left = self.eval_left(bp.x);
                if left > bp.v {
                    return false;
                }
            }
        }
        true
    }

    /// `true` iff `f(0) = 0`, required of arrival and service curves.
    pub fn starts_at_zero(&self) -> bool {
        self.bps[0].v == Value::ZERO
    }

    /// Merge redundant breakpoints: a breakpoint is redundant when it is
    /// exactly the continuation of its predecessor's affine piece.
    pub fn simplify(&mut self) {
        let mut out: Vec<Breakpoint> = Vec::with_capacity(self.bps.len());
        for bp in self.bps.drain(..) {
            if let Some(prev) = out.last() {
                let redundant = match prev.v_right {
                    Value::Infinity => bp.v.is_infinite() && bp.v_right.is_infinite(),
                    pv => {
                        let cont = pv + Value::finite(prev.slope * (bp.x - prev.x));
                        bp.v == cont && bp.v_right == cont && bp.slope == prev.slope
                    }
                };
                if redundant {
                    continue;
                }
            }
            out.push(bp);
        }
        self.bps = out;
    }

    /// Pointwise addition `f + g`.
    pub fn add(&self, g: &Curve) -> Curve {
        combine(self, g, CombineOp::Add)
    }

    /// Pointwise subtraction `f − g`.
    ///
    /// # Panics
    /// Panics if the result would be `-∞` anywhere (i.e. `g` is `+∞`
    /// where `f` is finite); use the deviation operators for bounds that
    /// must tolerate infinities.
    pub fn sub(&self, g: &Curve) -> Curve {
        combine(self, g, CombineOp::Sub)
    }

    /// Pointwise minimum `min(f, g)`.
    pub fn min(&self, g: &Curve) -> Curve {
        combine(self, g, CombineOp::Min)
    }

    /// Pointwise maximum `max(f, g)`.
    pub fn max(&self, g: &Curve) -> Curve {
        combine(self, g, CombineOp::Max)
    }

    /// Positive part `[f]⁺ = max(f, 0)`.
    pub fn pos(&self) -> Curve {
        self.max(&crate::curve::shapes::zero())
    }

    /// Vertical scaling `t ↦ k · f(t)` for `k ≥ 0`.
    ///
    /// Used for the paper's data normalization: a stage that processes
    /// compressed data at rate `R` serves input-referred data at rate
    /// `c · R` for compression ratio `c` (§5).
    pub fn scale_y(&self, k: Rat) -> Curve {
        assert!(!k.is_negative(), "scale_y needs k >= 0");
        let bps = self
            .bps
            .iter()
            .map(|bp| Breakpoint {
                x: bp.x,
                v: bp.v.scale(k),
                v_right: bp.v_right.scale(k),
                slope: bp.slope * k,
            })
            .collect();
        Curve::from_breakpoints_unchecked(bps)
    }

    /// Vertical shift `f + c` (may make `f(0)` non-zero).
    pub fn shift_up(&self, c: Rat) -> Curve {
        let cv = Value::finite(c);
        let bps = self
            .bps
            .iter()
            .map(|bp| Breakpoint {
                x: bp.x,
                v: bp.v + cv,
                v_right: bp.v_right + cv,
                slope: bp.slope,
            })
            .collect();
        Curve::from_breakpoints_unchecked(bps)
    }

    /// Right shift by `T ≥ 0` under min-plus semantics: the result
    /// equals `f ⊗ δ_T`, i.e. `f(t − T)` for `t ≥ T` and `f(0)` before.
    pub fn shift_right(&self, t_shift: Rat) -> Curve {
        assert!(!t_shift.is_negative(), "shift_right needs T >= 0");
        if t_shift.is_zero() {
            return self.clone();
        }
        let f0 = self.at_zero();
        let mut bps = Vec::with_capacity(self.bps.len() + 1);
        bps.push(Breakpoint {
            x: Rat::ZERO,
            v: f0,
            v_right: f0,
            slope: Rat::ZERO,
        });
        for (i, bp) in self.bps.iter().enumerate() {
            let x = bp.x + t_shift;
            if i == 0 {
                // f(T) must equal f(0) (the plateau's right end), then
                // jump to f(0⁺).
                bps.push(Breakpoint {
                    x,
                    v: f0,
                    v_right: bp.v_right,
                    slope: bp.slope,
                });
            } else {
                bps.push(Breakpoint { x, ..*bp });
            }
        }
        Curve::from_breakpoints_unchecked(bps)
    }

    /// Lower pseudo-inverse `f⁻(y) = inf { t ≥ 0 : f(t) ≥ y }`, the tool
    /// behind horizontal deviations (delay bounds).
    ///
    /// Returns `+∞` when `f` never reaches `y`.
    pub fn lower_pseudo_inverse(&self, y: Value) -> Value {
        if self.eval(Rat::ZERO) >= y {
            return Value::ZERO;
        }
        // Scan segments for the first time the curve reaches y.
        for (i, bp) in self.bps.iter().enumerate() {
            if bp.v >= y {
                return Value::finite(bp.x);
            }
            // Within (x_i, x_{i+1}): v_right + slope (t - x) >= y.
            let end = self.bps.get(i + 1).map(|n| n.x);
            match bp.v_right {
                Value::Infinity => {
                    // Jump to +inf right after x_i reaches any finite y,
                    // but no finite t < x_i did; inf of {t > x_i} = x_i
                    // (not attained).
                    return Value::finite(bp.x);
                }
                vr => {
                    if vr >= y {
                        return Value::finite(bp.x);
                    }
                    if bp.slope.is_positive() {
                        let y_f = match y {
                            Value::Finite(r) => r,
                            Value::Infinity => continue,
                            Value::NegInfinity => return Value::ZERO,
                        };
                        let t = bp.x + (y_f - vr.unwrap_finite()) / bp.slope;
                        let within = match end {
                            Some(e) => t < e,
                            None => true,
                        };
                        if within {
                            return Value::finite(t);
                        }
                    }
                }
            }
        }
        Value::Infinity
    }

    /// Conservative coordinate relaxation: returns a curve that is
    /// everywhere `≥ self`, with every coordinate's denominator bounded
    /// by `max_den`. Returns an unmodified clone when all coordinates
    /// already fit (so exact models stay exact).
    ///
    /// Sound for curves used as *upper* bounds (arrival curves, output
    /// bounds): loosening an upper envelope keeps every derived bound
    /// valid. Chained operations (the per-node cascade of a long
    /// pipeline) multiply denominators; without this safety valve the
    /// exact `i128` arithmetic could overflow on measured, near-coprime
    /// rates.
    pub fn relax_up(&self, max_den: i128) -> Curve {
        assert!(max_den >= 1);
        let fits = |r: Rat| r.denom() <= max_den;
        let all_fit = self.bps.iter().all(|bp| {
            fits(bp.x)
                && bp.v.as_finite().is_none_or(fits)
                && bp.v_right.as_finite().is_none_or(fits)
                && fits(bp.slope)
        });
        if all_fit {
            return self.clone();
        }
        // Round abscissas down, values and slopes up: every segment of
        // the result dominates the original pointwise.
        let down = |r: Rat| {
            let scaled = r * Rat::new(max_den, 1);
            Rat::new(scaled.floor(), max_den)
        };
        let up = |r: Rat| {
            let scaled = r * Rat::new(max_den, 1);
            Rat::new(scaled.ceil(), max_den)
        };
        let up_v = |v: Value| match v {
            Value::Finite(r) => Value::finite(up(r)),
            other => other,
        };
        let mut bps: Vec<Breakpoint> = Vec::with_capacity(self.bps.len());
        for bp in &self.bps {
            let x = down(bp.x).max(Rat::ZERO);
            let cand = Breakpoint {
                x,
                v: up_v(bp.v),
                v_right: up_v(bp.v_right),
                slope: up(bp.slope),
            };
            match bps.last_mut() {
                Some(prev) if prev.x == cand.x => {
                    // Collided on the coarser grid: keep the upper
                    // envelope of the two.
                    prev.v = prev.v.max(cand.v);
                    prev.v_right = prev.v_right.max(cand.v_right);
                    prev.slope = prev.slope.max(cand.slope);
                }
                _ => bps.push(cand),
            }
        }
        // Restore wide-sense monotonicity: a rounded-up slope may make
        // a segment end above the next breakpoint's (rounded) value;
        // lifting the later values keeps the curve both increasing and
        // `≥` the original.
        for i in 1..bps.len() {
            let prev = bps[i - 1];
            if let Value::Finite(pv) = prev.v_right {
                let end = Value::finite(pv + prev.slope * (bps[i].x - prev.x));
                bps[i].v = bps[i].v.max(end);
            } else {
                bps[i].v = Value::Infinity;
            }
            bps[i].v_right = bps[i].v_right.max(bps[i].v);
        }
        Curve::from_breakpoints_unchecked(bps)
    }

    /// Mirror of [`Curve::relax_up`] for *lower* bounds: returns a
    /// curve that is everywhere `≤ self`, with every coordinate's
    /// denominator bounded by `max_den`. Returns an unmodified clone
    /// when all coordinates already fit (so exact models stay exact).
    ///
    /// Sound for curves used as lower bounds (service curves, window
    /// flow-control closure terms): loosening a service floor keeps
    /// every derived delay/backlog bound valid, just looser. The
    /// flow-control backward recursion convolves the staircase
    /// closures of successive bounded queues, whose exact coordinates
    /// otherwise compound denominators multiplicatively.
    ///
    /// Requires (and preserves) a wide-sense increasing curve — the
    /// only kind the relaxation is applied to.
    pub fn relax_down(&self, max_den: i128) -> Curve {
        assert!(max_den >= 1);
        let fits = |r: Rat| r.denom() <= max_den;
        let all_fit = self.bps.iter().all(|bp| {
            fits(bp.x)
                && bp.v.as_finite().is_none_or(fits)
                && bp.v_right.as_finite().is_none_or(fits)
                && fits(bp.slope)
        });
        if all_fit {
            return self.clone();
        }
        // Round abscissas up, values and slopes down: every segment of
        // the result starts later, lower, and grows slower than the
        // original's, so the result is dominated pointwise.
        let down = |r: Rat| {
            let scaled = r * Rat::new(max_den, 1);
            Rat::new(scaled.floor(), max_den)
        };
        let up = |r: Rat| {
            let scaled = r * Rat::new(max_den, 1);
            Rat::new(scaled.ceil(), max_den)
        };
        let down_v = |v: Value| match v {
            Value::Finite(r) => Value::finite(down(r)),
            other => other,
        };
        let mut bps: Vec<Breakpoint> = Vec::with_capacity(self.bps.len());
        for bp in &self.bps {
            let cand = Breakpoint {
                x: up(bp.x),
                v: down_v(bp.v),
                v_right: down_v(bp.v_right),
                slope: down(bp.slope).max(Rat::ZERO),
            };
            match bps.last_mut() {
                Some(prev) if prev.x == cand.x => {
                    // Collided on the coarser grid: keep the lower
                    // envelope of the two.
                    prev.v = prev.v.min(cand.v);
                    prev.v_right = prev.v_right.min(cand.v_right);
                    prev.slope = prev.slope.min(cand.slope);
                }
                _ => bps.push(cand),
            }
        }
        // Restore wide-sense monotonicity: a segment whose endpoints
        // rounded unevenly may overshoot the next breakpoint's rounded
        // value. Capping its slope at the rounded-*down* secant keeps
        // the segment under both the original line and the next value
        // (a chord between two points under a line stays under it),
        // without growing denominators.
        for i in 1..bps.len() {
            let prev = bps[i - 1];
            let (Value::Finite(pv), Value::Finite(nv)) = (prev.v_right, bps[i].v) else {
                continue;
            };
            let run = bps[i].x - prev.x;
            if pv + prev.slope * run > nv {
                bps[i - 1].slope = down((nv - pv) / run).max(Rat::ZERO);
            }
        }
        Curve::from_breakpoints_unchecked(bps)
    }

    /// Upper pseudo-inverse `f⁻⁺(y) = inf { t ≥ 0 : f(t) > y }`, the
    /// right-continuous companion of [`Curve::lower_pseudo_inverse`].
    /// Needed for exact horizontal deviations: the delay supremum can
    /// be approached through levels just above a service-curve jump.
    ///
    /// Returns `+∞` when `f` never exceeds `y`.
    pub fn upper_pseudo_inverse(&self, y: Value) -> Value {
        if y.is_infinite() {
            return Value::Infinity;
        }
        if self.eval(Rat::ZERO) > y {
            return Value::ZERO;
        }
        for (i, bp) in self.bps.iter().enumerate() {
            if bp.v > y {
                return Value::finite(bp.x);
            }
            match bp.v_right {
                Value::Infinity => return Value::finite(bp.x),
                vr => {
                    if vr > y {
                        return Value::finite(bp.x);
                    }
                    if bp.slope.is_positive() {
                        let y_f = match y {
                            Value::Finite(r) => r,
                            _ => unreachable!("infinite y handled above"),
                        };
                        let t = bp.x + (y_f - vr.unwrap_finite()) / bp.slope;
                        let end = self.bps.get(i + 1).map(|n| n.x);
                        let within = match end {
                            Some(e) => t < e,
                            None => true,
                        };
                        if within {
                            return Value::finite(t.max(bp.x));
                        }
                    }
                }
            }
        }
        Value::Infinity
    }

    /// Sample the curve at evenly spaced points on `[0, t_max]` for
    /// export/plotting. Returns `(t, f(t))` pairs.
    pub fn sample(&self, t_max: Rat, n: usize) -> Vec<(Rat, Value)> {
        assert!(n >= 2);
        let step = t_max / Rat::int(n as i64 - 1);
        (0..n)
            .map(|i| {
                let t = step * Rat::int(i as i64);
                (t, self.eval(t))
            })
            .collect()
    }
}

/// Amortized-`O(1)` evaluation over a non-decreasing sequence of query
/// abscissas.
///
/// [`Curve::eval`] binary-searches the breakpoint list on every call;
/// grid sweeps (pointwise combination, convolution candidate scans,
/// sampling) evaluate at sorted abscissas, where remembering the last
/// segment makes the whole sweep linear. Queries that move backwards
/// fall back to a binary search, so the cursor is always correct.
pub struct EvalCursor<'a> {
    curve: &'a Curve,
    idx: usize,
}

impl<'a> EvalCursor<'a> {
    /// Start a cursor at the first segment.
    pub fn new(curve: &'a Curve) -> EvalCursor<'a> {
        EvalCursor { curve, idx: 0 }
    }

    /// Position `idx` on the segment governing `t`.
    fn seek(&mut self, t: Rat) {
        debug_assert!(!t.is_negative(), "curves are defined on [0, inf)");
        let bps = &self.curve.bps;
        if bps[self.idx].x > t {
            // Backwards query: restart with a binary search.
            self.idx = self.curve.seg_index(t);
            return;
        }
        while self.idx + 1 < bps.len() && bps[self.idx + 1].x <= t {
            self.idx += 1;
        }
    }

    /// Evaluate `f(t)` exactly; equal to [`Curve::eval`].
    pub fn eval(&mut self, t: Rat) -> Value {
        self.seek(t);
        let bp = &self.curve.bps[self.idx];
        if bp.x == t {
            bp.v
        } else {
            match bp.v_right {
                Value::Infinity => Value::Infinity,
                v => v + Value::finite(bp.slope * (t - bp.x)),
            }
        }
    }

    /// Right-limit `f(t⁺)`; equal to [`Curve::eval_right`].
    pub fn eval_right(&mut self, t: Rat) -> Value {
        self.seek(t);
        let bp = &self.curve.bps[self.idx];
        if bp.x == t {
            bp.v_right
        } else {
            match bp.v_right {
                Value::Infinity => Value::Infinity,
                v => v + Value::finite(bp.slope * (t - bp.x)),
            }
        }
    }

    /// Slope of the affine piece governing `t` (to the right of it).
    pub fn slope(&mut self, t: Rat) -> Rat {
        self.seek(t);
        self.curve.bps[self.idx].slope
    }
}

impl fmt::Debug for Curve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Curve[")?;
        for (i, bp) in self.bps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if bp.v == bp.v_right {
                write!(f, "({:?}: {:?}, +{:?}/t)", bp.x, bp.v, bp.slope)?;
            } else {
                write!(
                    f,
                    "({:?}: {:?}^{:?}, +{:?}/t)",
                    bp.x, bp.v, bp.v_right, bp.slope
                )?;
            }
        }
        write!(f, "]")
    }
}

/// Pointwise combination operators used by [`combine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CombineOp {
    Add,
    Sub,
    Min,
    Max,
}

impl CombineOp {
    fn apply(self, a: Value, b: Value) -> Value {
        match self {
            CombineOp::Add => a + b,
            CombineOp::Sub => {
                let r = a - b;
                assert!(
                    r != Value::NegInfinity,
                    "Curve::sub would produce -inf; use deviation operators instead"
                );
                r
            }
            CombineOp::Min => a.min(b),
            CombineOp::Max => a.max(b),
        }
    }

    fn needs_crossings(self) -> bool {
        matches!(self, CombineOp::Min | CombineOp::Max)
    }
}

/// Pointwise combination of two curves on a merged breakpoint grid,
/// inserting intersection points for min/max so each output interval is
/// governed by a single operand.
pub(crate) fn combine(f: &Curve, g: &Curve, op: CombineOp) -> Curve {
    // 1. Merged abscissa grid.
    let mut xs: Vec<Rat> = f
        .breakpoints()
        .iter()
        .chain(g.breakpoints())
        .map(|bp| bp.x)
        .collect();
    xs.sort_unstable();
    xs.dedup();

    // 2. For min/max insert crossings of the affine pieces inside each
    //    open interval (including the unbounded tail). The grid is
    //    sorted, so cursors make the sweep linear.
    if op.needs_crossings() {
        let mut curf = EvalCursor::new(f);
        let mut curg = EvalCursor::new(g);
        let mut extra: Vec<Rat> = Vec::new();
        for (i, &a) in xs.iter().enumerate() {
            let b = xs.get(i + 1).copied();
            let (cf, sf) = (curf.eval_right(a), curf.slope(a));
            let (cg, sg) = (curg.eval_right(a), curg.slope(a));
            if let (Value::Finite(cf), Value::Finite(cg)) = (cf, cg) {
                if sf != sg && cf != cg {
                    // cf + sf (x - a) = cg + sg (x - a)
                    let x = a + (cg - cf) / (sf - sg);
                    let inside = x > a && b.is_none_or(|b| x < b);
                    if inside {
                        extra.push(x);
                    }
                }
            }
        }
        xs.extend(extra);
        xs.sort_unstable();
        xs.dedup();
    }

    // 3. Emit one breakpoint per grid abscissa; the slope on each open
    //    interval is reconstructed exactly from two interior samples
    //    (the interval contains no further breakpoints or crossings, so
    //    the result is affine there). Samples ascend with the grid, so
    //    one cursor pair serves the whole pass.
    let mut curf = EvalCursor::new(f);
    let mut curg = EvalCursor::new(g);
    let mut bps = Vec::with_capacity(xs.len());
    for (i, &x) in xs.iter().enumerate() {
        let v = op.apply(curf.eval(x), curg.eval(x));
        let next = xs.get(i + 1).copied();
        let (slope, v_right) = interval_line(x, next, |t| op.apply(curf.eval(t), curg.eval(t)));
        bps.push(Breakpoint {
            x,
            v,
            v_right,
            slope,
        });
    }
    Curve::from_breakpoints_unchecked(bps)
}

/// Reconstruct the affine piece on `(x, next)` (or `(x, ∞)`): returns
/// `(slope, v_right)` given an exact evaluator for interior points.
/// The evaluated function must be affine (or constant `+∞`) on the open
/// interval; the right-limit is recovered by exact extrapolation.
pub(crate) fn interval_line(
    x: Rat,
    next: Option<Rat>,
    mut eval: impl FnMut(Rat) -> Value,
) -> (Rat, Value) {
    // Two interior sample points.
    let (m1, m2) = match next {
        Some(n) => {
            let d = (n - x) / Rat::int(3);
            (x + d, x + d + d)
        }
        None => (x + Rat::ONE, x + Rat::int(2)),
    };
    let w1 = eval(m1);
    let w2 = eval(m2);
    match (w1, w2) {
        (Value::Finite(w1), Value::Finite(w2)) => {
            let slope = (w2 - w1) / (m2 - m1);
            // Extrapolate back to x to get the exact right-limit; this
            // agrees with the supplied v_right when the evaluator is
            // affine on the whole open interval.
            let vr = w1 - slope * (m1 - x);
            (slope, Value::finite(vr))
        }
        _ => (Rat::ZERO, Value::Infinity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::shapes;
    use crate::num::rat;

    fn lb(r: i64, b: i64) -> Curve {
        shapes::leaky_bucket(Rat::int(r), Rat::int(b))
    }
    fn rl(r: i64, t: i64) -> Curve {
        shapes::rate_latency(Rat::int(r), Rat::int(t))
    }

    #[test]
    fn eval_leaky_bucket() {
        let a = lb(2, 5);
        assert_eq!(a.eval(Rat::ZERO), Value::ZERO);
        assert_eq!(a.eval_right(Rat::ZERO), Value::from(5));
        assert_eq!(a.eval(Rat::int(3)), Value::from(11));
        assert_eq!(a.eval_left(Rat::int(3)), Value::from(11));
    }

    #[test]
    fn eval_rate_latency() {
        let b = rl(3, 2);
        assert_eq!(b.eval(Rat::ZERO), Value::ZERO);
        assert_eq!(b.eval(Rat::int(2)), Value::ZERO);
        assert_eq!(b.eval(Rat::int(4)), Value::from(6));
        assert_eq!(b.eval_right(Rat::int(2)), Value::ZERO);
    }

    #[test]
    fn eval_delta() {
        let d = shapes::delta(Rat::int(2));
        assert_eq!(d.eval(Rat::int(2)), Value::ZERO);
        assert_eq!(d.eval(rat(5, 2)), Value::Infinity);
        assert_eq!(d.eval_right(Rat::int(2)), Value::Infinity);
        assert_eq!(d.eval_left(Rat::int(2)), Value::ZERO);
        assert_eq!(d.ultimate_slope(), Value::Infinity);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            Curve::from_breakpoints(vec![]).unwrap_err(),
            CurveError::Empty
        );
        let bad_start = vec![Breakpoint::cont(Rat::ONE, Value::ZERO, Rat::ZERO)];
        assert_eq!(
            Curve::from_breakpoints(bad_start).unwrap_err(),
            CurveError::DoesNotStartAtZero
        );
        let dup = vec![
            Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ZERO),
            Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ONE),
        ];
        assert_eq!(
            Curve::from_breakpoints(dup).unwrap_err(),
            CurveError::NonMonotoneAbscissa
        );
        let finite_after_inf = vec![
            Breakpoint {
                x: Rat::ZERO,
                v: Value::ZERO,
                v_right: Value::Infinity,
                slope: Rat::ZERO,
            },
            Breakpoint::cont(Rat::ONE, Value::from(3), Rat::ZERO),
        ];
        assert_eq!(
            Curve::from_breakpoints(finite_after_inf).unwrap_err(),
            CurveError::FiniteAfterInfinity
        );
    }

    #[test]
    fn simplify_merges_collinear() {
        let c = Curve::from_breakpoints(vec![
            Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::int(2)),
            Breakpoint::cont(Rat::int(5), Value::from(10), Rat::int(2)),
            Breakpoint::cont(Rat::int(7), Value::from(14), Rat::int(3)),
        ])
        .unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.eval(Rat::int(6)), Value::from(12));
        assert_eq!(c.eval(Rat::int(8)), Value::from(17));
    }

    #[test]
    fn add_and_sub() {
        let a = lb(2, 5);
        let b = rl(3, 2);
        let s = a.add(&b);
        assert_eq!(s.eval(Rat::ZERO), Value::ZERO);
        assert_eq!(s.eval(Rat::int(4)), Value::from(13 + 6));
        let d = s.sub(&b);
        assert_eq!(d.eval(Rat::int(4)), a.eval(Rat::int(4)));
        assert_eq!(d.eval_right(Rat::ZERO), Value::from(5));
    }

    #[test]
    fn min_inserts_crossing() {
        // α = 2t + 5, β = 4t: cross at t = 2.5.
        let a = lb(2, 5);
        let b = shapes::constant_rate(Rat::int(4));
        let m = a.min(&b);
        assert_eq!(m.eval(Rat::ONE), Value::from(4));
        assert_eq!(m.eval(rat(5, 2)), Value::from(10));
        assert_eq!(m.eval(Rat::int(4)), Value::from(13));
        assert!(m.breakpoints().iter().any(|bp| bp.x == rat(5, 2)));
        // min of increasing curves is increasing.
        assert!(m.is_wide_sense_increasing());
    }

    #[test]
    fn max_tail_crossing() {
        // Tail crossing beyond every breakpoint.
        let a = lb(1, 10); // t + 10
        let b = shapes::constant_rate(Rat::int(2)); // 2t, crosses at t=10
        let m = a.max(&b);
        assert_eq!(m.eval(Rat::int(5)), Value::from(15));
        assert_eq!(m.eval(Rat::int(10)), Value::from(20));
        assert_eq!(m.eval(Rat::int(20)), Value::from(40));
        assert_eq!(m.ultimate_slope(), Value::from(2));
    }

    #[test]
    fn min_with_delta() {
        let d = shapes::delta(Rat::int(3));
        let a = lb(2, 1);
        let m = d.min(&a);
        // Before 3 the delta is 0.
        assert_eq!(m.eval(Rat::int(2)), Value::ZERO);
        // After 3 the delta is +inf, so the LB wins.
        assert_eq!(m.eval(Rat::int(4)), Value::from(9));
    }

    #[test]
    fn scale_and_shift() {
        let b = rl(4, 2);
        let half = b.scale_y(rat(1, 2));
        assert_eq!(half.eval(Rat::int(4)), Value::from(4));
        let up = b.shift_up(Rat::int(3));
        assert_eq!(up.eval(Rat::ZERO), Value::from(3));
        let right = b.shift_right(Rat::int(1));
        assert_eq!(right.eval(Rat::int(3)), Value::ZERO);
        assert_eq!(right.eval(Rat::int(4)), Value::from(4));
    }

    #[test]
    fn shift_right_preserves_burst() {
        let a = lb(2, 5);
        let s = a.shift_right(Rat::int(3));
        assert_eq!(s.eval(Rat::int(3)), Value::ZERO);
        assert_eq!(s.eval_right(Rat::int(3)), Value::from(5));
        assert_eq!(s.eval(Rat::int(4)), Value::from(7));
        assert_eq!(s.eval(Rat::ONE), Value::ZERO);
    }

    #[test]
    fn pseudo_inverse() {
        let b = rl(3, 2);
        assert_eq!(b.lower_pseudo_inverse(Value::ZERO), Value::ZERO);
        assert_eq!(b.lower_pseudo_inverse(Value::from(6)), Value::from(4));
        assert_eq!(
            shapes::constant_rate(Rat::int(2)).lower_pseudo_inverse(Value::from(5)),
            Value::finite(rat(5, 2))
        );
        // Bounded curve never reaches high values.
        let plateau = Curve::from_breakpoints(vec![
            Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ONE),
            Breakpoint::cont(Rat::int(5), Value::from(5), Rat::ZERO),
        ])
        .unwrap();
        assert_eq!(
            plateau.lower_pseudo_inverse(Value::from(9)),
            Value::Infinity
        );
        // Jump curves: inf of the preimage sits at the jump.
        let d = shapes::delta(Rat::int(2));
        assert_eq!(d.lower_pseudo_inverse(Value::from(100)), Value::from(2));
    }

    #[test]
    fn monotonicity_check() {
        assert!(lb(2, 5).is_wide_sense_increasing());
        assert!(rl(3, 2).is_wide_sense_increasing());
        assert!(shapes::delta(Rat::int(1)).is_wide_sense_increasing());
        let dec = Curve::from_breakpoints(vec![Breakpoint::cont(
            Rat::ZERO,
            Value::from(5),
            rat(-1, 1),
        )])
        .unwrap();
        assert!(!dec.is_wide_sense_increasing());
    }

    #[test]
    fn relax_up_exact_when_coords_small() {
        let c = lb(2, 5).min(&shapes::constant_rate(Rat::int(7)));
        assert_eq!(c.relax_up(1_000_000), c);
        let d = shapes::delta(Rat::int(3));
        assert_eq!(d.relax_up(10), d);
    }

    #[test]
    fn relax_up_dominates_and_bounds_denominators() {
        // Awkward coordinates: thirds and sevenths.
        let c = Curve::from_breakpoints(vec![
            Breakpoint {
                x: Rat::ZERO,
                v: Value::ZERO,
                v_right: Value::finite(rat(22, 7)),
                slope: rat(10, 3),
            },
            Breakpoint::cont(rat(13, 7), Value::finite(rat(100, 7)), rat(5, 3)),
        ])
        .unwrap();
        let r = c.relax_up(16);
        assert!(r.is_wide_sense_increasing());
        for bp in r.breakpoints() {
            assert!(bp.x.denom() <= 16);
            assert!(bp.slope.denom() <= 16);
            if let Value::Finite(v) = bp.v {
                assert!(v.denom() <= 16);
            }
        }
        // Pointwise domination.
        for num in 0..80 {
            let t = rat(num, 8);
            assert!(r.eval(t) >= c.eval(t), "t = {t:?}");
            assert!(r.eval_right(t) >= c.eval_right(t), "t = {t:?}");
        }
    }

    #[test]
    fn relax_up_merges_colliding_breakpoints() {
        // Two breakpoints 1/100 apart collapse on a den-10 grid.
        let c = Curve::from_breakpoints(vec![
            Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ONE),
            Breakpoint::cont(rat(101, 100), Value::finite(rat(101, 100)), Rat::int(2)),
            Breakpoint::cont(rat(105, 100), Value::finite(rat(109, 100)), Rat::int(3)),
        ])
        .unwrap();
        let r = c.relax_up(10);
        assert!(r.is_wide_sense_increasing());
        for num in 0..50 {
            let t = rat(num, 4);
            assert!(r.eval(t) >= c.eval(t), "t = {t:?}");
        }
    }

    #[test]
    fn relax_down_exact_when_coords_small() {
        let c = lb(2, 5).min(&shapes::constant_rate(Rat::int(7)));
        assert_eq!(c.relax_down(1_000_000), c);
        let d = shapes::delta(Rat::int(3));
        assert_eq!(d.relax_down(10), d);
    }

    #[test]
    fn relax_down_dominated_and_bounds_denominators() {
        // Awkward coordinates: thirds and sevenths.
        let c = Curve::from_breakpoints(vec![
            Breakpoint {
                x: Rat::ZERO,
                v: Value::ZERO,
                v_right: Value::finite(rat(22, 7)),
                slope: rat(10, 3),
            },
            Breakpoint::cont(rat(13, 7), Value::finite(rat(100, 7)), rat(5, 3)),
        ])
        .unwrap();
        let r = c.relax_down(16);
        assert!(r.is_wide_sense_increasing());
        for bp in r.breakpoints() {
            assert!(bp.x.denom() <= 16);
            assert!(bp.slope.denom() <= 16);
            if let Value::Finite(v) = bp.v {
                assert!(v.denom() <= 16);
            }
        }
        // Pointwise domination (from below).
        for num in 0..80 {
            let t = rat(num, 8);
            assert!(r.eval(t) <= c.eval(t), "t = {t:?}");
            assert!(r.eval_right(t) <= c.eval_right(t), "t = {t:?}");
        }
    }

    #[test]
    fn relax_down_merges_colliding_breakpoints() {
        // Two breakpoints 1/100 apart collapse on a den-10 grid.
        let c = Curve::from_breakpoints(vec![
            Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ONE),
            Breakpoint::cont(rat(101, 100), Value::finite(rat(101, 100)), Rat::int(2)),
            Breakpoint::cont(rat(105, 100), Value::finite(rat(109, 100)), Rat::int(3)),
        ])
        .unwrap();
        let r = c.relax_down(10);
        assert!(r.is_wide_sense_increasing());
        for num in 0..50 {
            let t = rat(num, 4);
            assert!(r.eval(t) <= c.eval(t), "t = {t:?}");
        }
    }

    #[test]
    fn relax_down_preserves_infinite_tail_soundly() {
        // δ-style curve with awkward latency: the relaxed curve stays
        // below, including around the jump to +∞.
        let c = shapes::delta(rat(22, 7)).min(&shapes::constant_rate(rat(31, 3)));
        let r = c.relax_down(8);
        assert!(r.is_wide_sense_increasing());
        for num in 0..64 {
            let t = rat(num, 8);
            assert!(r.eval(t) <= c.eval(t), "t = {t:?}");
        }
    }

    #[test]
    fn eval_cursor_matches_eval() {
        let c = lb(2, 5)
            .min(&shapes::constant_rate(Rat::int(4)))
            .max(&rl(3, 2));
        let d = shapes::delta(Rat::int(6)).min(&c);
        for curve in [&c, &d] {
            let mut cur = EvalCursor::new(curve);
            for num in 0..40 {
                let t = rat(num, 4);
                assert_eq!(cur.eval(t), curve.eval(t), "t = {t:?}");
                assert_eq!(cur.eval_right(t), curve.eval_right(t), "t = {t:?}");
            }
            // Backwards queries fall back to a binary search.
            let mut cur = EvalCursor::new(curve);
            assert_eq!(cur.eval(Rat::int(9)), curve.eval(Rat::int(9)));
            assert_eq!(cur.eval(Rat::ONE), curve.eval(Rat::ONE));
        }
    }

    #[test]
    fn sample_grid() {
        let a = lb(2, 1);
        let pts = a.sample(Rat::int(4), 5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], (Rat::ZERO, Value::ZERO));
        assert_eq!(pts[4], (Rat::int(4), Value::from(9)));
    }
}
