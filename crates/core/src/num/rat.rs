//! Exact rational arithmetic over `i128`.
//!
//! Network-calculus bounds are *guarantees*; computing them in floating
//! point turns exact statements ("the backlog never exceeds `b + R·T`")
//! into approximate ones. All curve coordinates in this crate are
//! therefore exact rationals. `i128` numerators/denominators, reduced
//! to lowest terms after every operation, comfortably cover the dynamic
//! range of the paper's workloads (rates up to tens of GiB/s, times
//! from nanoseconds to hours) without ever allocating.
//!
//! Reduction is the cost of exactness, so the gcd kernel is a binary
//! (Stein) gcd on unsigned magnitudes in three width lanes: a `u64`
//! loop when both operands fit in 64 bits (most calls on the
//! admission path), one `u128 %` step into that loop when only one
//! does, and a `u128` loop that drops to `u64` as soon as both fit.
//! Exact divisions by the gcd run in `i64` where the operands fit and
//! are skipped when the gcd is 1.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0`, always stored in
/// lowest terms.
///
/// Arithmetic panics on `i128` overflow (far outside the intended
/// dynamic range) and on division by zero, mirroring integer semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor of `|a|` and `|b|`. Every caller passes a
/// denominator, which bounds the result below `2^127`, so the cast back
/// to `i128` keeps it positive.
fn gcd(a: i128, b: i128) -> i128 {
    gcd_u128(a.unsigned_abs(), b.unsigned_abs()) as i128
}

/// Binary gcd in the narrowest lane that holds both operands.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    const NARROW: u128 = u64::MAX as u128;
    if a <= NARROW && b <= NARROW {
        return gcd_u64(a as u64, b as u64) as u128;
    }
    if a <= NARROW || b <= NARROW {
        // One wide operand: a single remainder step brings it below
        // the narrow one.
        let (wide, narrow) = if a > b { (a, b) } else { (b, a) };
        if narrow == 0 {
            return wide;
        }
        return gcd_u64(narrow as u64, (wide % narrow) as u64) as u128;
    }
    // Both wide (so both nonzero): strip the common power of two, then
    // subtract the smaller odd operand from the larger until both fit
    // the u64 lane. With `a` odd, the remaining twos in `b` never
    // divide the gcd.
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        if b <= NARROW {
            return (gcd_u64(a as u64, b as u64) as u128) << shift;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary (Stein) gcd on `u64`: shifts and subtractions only.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `x / g` for a positive exact divisor `g` of `x`, both in `i64`
/// range: an `i64` division, skipped when `g == 1`.
#[inline]
fn div_exact_i64(x: i128, g: i128) -> i128 {
    debug_assert!(g > 0 && x as i64 % g as i64 == 0);
    if g == 1 {
        x
    } else {
        (x as i64 / g as i64) as i128
    }
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Construct `num/den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`, or if the reduced value does not fit
    /// (`Rat::new(i128::MIN, -1)`).
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat::new: zero denominator");
        // Reduce the magnitudes, so `i128::MIN` components reduce
        // instead of overflowing a negation.
        let negative = (num < 0) != (den < 0);
        let g = gcd_u128(num.unsigned_abs(), den.unsigned_abs());
        let mag = num.unsigned_abs() / g;
        let num = if negative {
            0i128.checked_sub_unsigned(mag)
        } else {
            i128::try_from(mag).ok()
        };
        let den = i128::try_from(den.unsigned_abs() / g).ok();
        match (num, den) {
            (Some(num), Some(den)) => Rat { num, den },
            _ => panic!("Rat::new overflow"),
        }
    }

    /// Construct from an integer.
    pub const fn int(n: i64) -> Rat {
        Rat {
            num: n as i128,
            den: 1,
        }
    }

    /// Numerator (lowest terms; carries the sign).
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// Denominator (lowest terms; always positive).
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Best rational approximation of `x` with denominator at most
    /// `max_den`, via continued fractions.
    ///
    /// Used to ingest measured (floating-point) rates; the default
    /// `max_den = 10^6` (relative error well under 10⁻⁹ for typical
    /// magnitudes) keeps denominators small enough that long chains of
    /// curve operations stay inside `i128`. Use
    /// [`Rat::from_f64_with_den`] when more precision is genuinely
    /// needed.
    ///
    /// # Panics
    /// Panics if `x` is not finite.
    pub fn from_f64(x: f64) -> Rat {
        Rat::from_f64_with_den(x, 1_000_000)
    }

    /// As [`Rat::from_f64`] with an explicit denominator bound.
    pub fn from_f64_with_den(x: f64, max_den: i128) -> Rat {
        assert!(x.is_finite(), "Rat::from_f64: non-finite input {x}");
        assert!(max_den >= 1);
        let neg = x < 0.0;
        let mut x = x.abs();
        // Continued-fraction convergents p/q.
        let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
        loop {
            let a = x.floor();
            if a > i64::MAX as f64 {
                break;
            }
            let ai = a as i128;
            let p2 = match ai.checked_mul(p1).and_then(|v| v.checked_add(p0)) {
                Some(v) => v,
                None => break,
            };
            let q2 = match ai.checked_mul(q1).and_then(|v| v.checked_add(q0)) {
                Some(v) => v,
                None => break,
            };
            if q2 > max_den {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return Rat::ZERO;
        }
        let r = Rat::new(p1, q1);
        if neg {
            -r
        } else {
            r
        }
    }

    /// Convert to `f64` (may round).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Sign: `-1`, `0`, or `1`.
    pub fn signum(self) -> i32 {
        self.num.signum() as i32
    }

    /// `true` iff zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// `true` iff strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// `true` iff strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "Rat::recip of zero");
        // Lowest terms are preserved by swapping the components; only
        // the sign needs to move to the numerator.
        if self.num > 0 {
            Rat {
                num: self.den,
                den: self.num,
            }
        } else if self.num == i128::MIN {
            Rat::new(self.den, self.num)
        } else {
            Rat {
                num: -self.den,
                den: -self.num,
            }
        }
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamp into `[lo, hi]`.
    pub fn clamp(self, lo: Rat, hi: Rat) -> Rat {
        debug_assert!(lo <= hi);
        self.max(lo).min(hi)
    }

    /// Floor to integer.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling to integer.
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    /// `true` iff both components fit in `i64`, in which case every
    /// cross product in add/mul/cmp stays below `2^126` and `i128`
    /// arithmetic cannot overflow.
    #[inline]
    const fn fits_i64(self) -> bool {
        self.num as i64 as i128 == self.num && self.den as i64 as i128 == self.den
    }

    /// Normalize `num/den` when `den > 0` is already known, spending at
    /// most one gcd (vs. the sign handling in [`Rat::new`]).
    #[inline]
    fn reduced(num: i128, den: i128) -> Rat {
        debug_assert!(den > 0);
        if num == 0 {
            return Rat::ZERO;
        }
        if den == 1 {
            return Rat { num, den: 1 };
        }
        let g = gcd(num, den);
        let unreduced = Rat { num, den };
        if g == 1 {
            unreduced
        } else if unreduced.fits_i64() {
            Rat {
                num: div_exact_i64(num, g),
                den: div_exact_i64(den, g),
            }
        } else {
            Rat {
                num: num / g,
                den: den / g,
            }
        }
    }

    /// Overflow-checked addition.
    ///
    /// Always takes the full-width reference route that the operator
    /// fast lane falls back to, making it usable as an oracle for the
    /// fast lane in tests.
    pub fn checked_add(self, rhs: Rat) -> Option<Rat> {
        self.checked_add_impl(rhs)
    }

    /// Overflow-checked multiplication (reference route; see
    /// [`Rat::checked_add`]).
    pub fn checked_mul(self, rhs: Rat) -> Option<Rat> {
        self.checked_mul_impl(rhs)
    }

    fn checked_add_impl(self, rhs: Rat) -> Option<Rat> {
        // Reduce cross-terms first to delay overflow: a/b + c/d with
        // g = gcd(b, d): (a*(d/g) + c*(b/g)) / (b/g*d).
        let g = gcd(self.den, rhs.den);
        let lhs_scaled = self.num.checked_mul(rhs.den / g)?;
        let rhs_scaled = rhs.num.checked_mul(self.den / g)?;
        let num = lhs_scaled.checked_add(rhs_scaled)?;
        let den = (self.den / g).checked_mul(rhs.den)?;
        Some(Rat::new(num, den))
    }

    fn checked_mul_impl(self, rhs: Rat) -> Option<Rat> {
        // Cross-reduce before multiplying.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rat::new(num, den))
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // Fast lane: i64-sized components cross-multiply without any
        // gcds or overflow checks.
        if self.fits_i64() && other.fits_i64() {
            return (self.num * other.den).cmp(&(other.num * self.den));
        }
        // Differing signs (or two zeros) decide alone. Otherwise
        // a/b vs c/d  <=>  |a|*d vs |c|*b (b, d > 0) on cross-reduced
        // magnitudes, with the order flipped for negatives.
        let sign = self.num.signum().cmp(&other.num.signum());
        if sign != Ordering::Equal || self.num == 0 {
            return sign;
        }
        let (a, c) = (self.num.unsigned_abs(), other.num.unsigned_abs());
        let (b, d) = (self.den as u128, other.den as u128);
        let g1 = gcd_u128(a, c);
        let g2 = gcd_u128(b, d);
        let l = (a / g1).checked_mul(d / g2).expect("Rat::cmp overflow");
        let r = (c / g1).checked_mul(b / g2).expect("Rat::cmp overflow");
        if self.num > 0 {
            l.cmp(&r)
        } else {
            r.cmp(&l)
        }
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Fast lane: i64-sized operands need no overflow checks, and the
        // shape of the denominators decides how much gcd work remains.
        // Results wider than i64 are still valid `Rat`s; they simply take
        // the checked lane in later operations.
        if self.fits_i64() && rhs.fits_i64() {
            let Rat { num: a, den: b } = self;
            let Rat { num: c, den: d } = rhs;
            return if b == d {
                if b == 1 {
                    Rat { num: a + c, den: 1 }
                } else {
                    Rat::reduced(a + c, b)
                }
            } else if b == 1 {
                // gcd(a·d + c, d) = gcd(c, d) = 1: already lowest terms.
                Rat {
                    num: a * d + c,
                    den: d,
                }
            } else if d == 1 {
                Rat {
                    num: a + c * b,
                    den: b,
                }
            } else {
                Rat::reduced(a * d + c * b, b * d)
            };
        }
        self.checked_add_impl(rhs).expect("Rat add overflow")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        if self.fits_i64() && rhs.fits_i64() {
            // The add fast lane cannot overflow for i64-sized operands.
            return self + (-rhs);
        }
        self.checked_add_impl(-rhs).expect("Rat sub overflow")
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.fits_i64() && rhs.fits_i64() {
            let Rat { num: a, den: b } = self;
            let Rat { num: c, den: d } = rhs;
            if b == 1 && d == 1 {
                return Rat { num: a * c, den: 1 };
            }
            // Cross-reduce: (a/g1)·(c/g2) over (b/g2)·(d/g1) is already
            // in lowest terms, so no trailing normalization is needed.
            // Both gcds are positive (b, d ≥ 1) and fit in i64.
            let g1 = gcd(a, d);
            let g2 = gcd(c, b);
            return Rat {
                num: div_exact_i64(a, g1) * div_exact_i64(c, g2),
                den: div_exact_i64(b, g2) * div_exact_i64(d, g1),
            };
        }
        self.checked_mul_impl(rhs).expect("Rat mul overflow")
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        assert!(rhs.num != 0, "Rat division by zero");
        if self.fits_i64() && rhs.fits_i64() {
            return self * rhs.recip();
        }
        self.checked_mul_impl(rhs.recip())
            .expect("Rat div overflow")
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}
impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}
impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}
impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Rat {
        Rat::int(n as i64)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl serde::Serialize for Rat {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        // Serialize as f64 for downstream plotting/JSON consumers.
        s.serialize_f64(self.to_f64())
    }
}

impl<'de> serde::Deserialize<'de> for Rat {
    /// Accepts a JSON number (converted by continued-fraction
    /// approximation, exact for integers and dyadic fractions) or a
    /// two-element `[num, den]` array for exact rationals.
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Rat, D::Error> {
        use serde::de::{Error, SeqAccess, Visitor};
        struct RatVisitor;
        impl<'de> Visitor<'de> for RatVisitor {
            type Value = Rat;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a number or [numerator, denominator]")
            }
            fn visit_f64<E: Error>(self, v: f64) -> Result<Rat, E> {
                if !v.is_finite() {
                    return Err(E::custom("rational must be finite"));
                }
                Ok(Rat::from_f64(v))
            }
            fn visit_i64<E: Error>(self, v: i64) -> Result<Rat, E> {
                Ok(Rat::int(v))
            }
            fn visit_u64<E: Error>(self, v: u64) -> Result<Rat, E> {
                i64::try_from(v)
                    .map(Rat::int)
                    .map_err(|_| E::custom("integer out of range"))
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Rat, A::Error> {
                let num: i64 = seq
                    .next_element()?
                    .ok_or_else(|| Error::custom("missing numerator"))?;
                let den: i64 = seq
                    .next_element()?
                    .ok_or_else(|| Error::custom("missing denominator"))?;
                if den == 0 {
                    return Err(Error::custom("zero denominator"));
                }
                Ok(Rat::new(num as i128, den as i128))
            }
        }
        d.deserialize_any(RatVisitor)
    }
}

/// Convenience constructor: `rat(3, 4)` is `3/4`.
pub fn rat(num: i128, den: i128) -> Rat {
    Rat::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        assert_eq!(Rat::new(6, 4), Rat::new(3, 2));
        assert_eq!(Rat::new(-6, 4), Rat::new(-3, 2));
        assert_eq!(Rat::new(6, -4), Rat::new(-3, 2));
        assert_eq!(Rat::new(-6, -4), Rat::new(3, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = rat(1, 2);
        let b = rat(1, 3);
        assert_eq!(a + b, rat(5, 6));
        assert_eq!(a - b, rat(1, 6));
        assert_eq!(a * b, rat(1, 6));
        assert_eq!(a / b, rat(3, 2));
        assert_eq!(-a, rat(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert!(rat(2, 4) == rat(1, 2));
        assert_eq!(rat(7, 3).max(rat(5, 2)), rat(5, 2));
        assert_eq!(rat(7, 3).min(rat(5, 2)), rat(7, 3));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(rat(7, 2).floor(), 3);
        assert_eq!(rat(7, 2).ceil(), 4);
        assert_eq!(rat(-7, 2).floor(), -4);
        assert_eq!(rat(-7, 2).ceil(), -3);
        assert_eq!(rat(4, 2).floor(), 2);
        assert_eq!(rat(4, 2).ceil(), 2);
    }

    #[test]
    fn from_f64_exact_small() {
        assert_eq!(Rat::from_f64(0.5), rat(1, 2));
        assert_eq!(Rat::from_f64(0.25), rat(1, 4));
        assert_eq!(Rat::from_f64(3.0), Rat::int(3));
        assert_eq!(Rat::from_f64(-2.5), rat(-5, 2));
        assert_eq!(Rat::from_f64(0.0), Rat::ZERO);
    }

    #[test]
    fn from_f64_approximates() {
        let pi = Rat::from_f64(std::f64::consts::PI);
        assert!((pi.to_f64() - std::f64::consts::PI).abs() < 1e-9);
        // Measured-rate style number.
        let r = Rat::from_f64(2662.0 * 1024.0 * 1024.0);
        assert_eq!(r, Rat::int(2662 * 1024 * 1024));
    }

    #[test]
    fn recip_and_division_by_zero() {
        assert_eq!(rat(3, 4).recip(), rat(4, 3));
        assert_eq!(rat(-3, 4).recip(), rat(-4, 3));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Rat::ONE / Rat::ZERO;
    }

    #[test]
    fn fast_lane_matches_checked_reference() {
        // Components at and around the i64 boundary: the lane predicate
        // must route wide values to the checked path and the two paths
        // must agree wherever both are defined.
        let m = i64::MAX as i128;
        let vals = [
            Rat::ZERO,
            Rat::ONE,
            rat(-3, 7),
            rat(5, 6),
            rat(m, 1),
            rat(-m, 1),
            rat(m, m - 1),
            rat(m - 1, m),
            rat(1, m),
            rat(-1, m),
            rat(m, 2) * rat(m, 3), // wide: forces the checked lane
            rat(7, 3) * rat(m, 1),
        ];
        for &a in &vals {
            for &b in &vals {
                if let Some(s) = a.checked_add(b) {
                    assert_eq!(a + b, s, "{a} + {b}");
                    assert_eq!(a - (-b), s, "{a} - -{b}");
                }
                if let Some(p) = a.checked_mul(b) {
                    assert_eq!(a * b, p, "{a} * {b}");
                    if !b.is_zero() {
                        assert_eq!(p / b, a, "{a}*{b} / {b}");
                    }
                }
                // cmp agrees with the sign of the checked difference.
                if let Some(d) = a.checked_add(-b) {
                    assert_eq!(a.cmp(&b), d.signum().cmp(&0), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn fast_lane_results_stay_in_lowest_terms() {
        // Eq/Hash derive on the raw fields, so every lane must
        // normalize. Exercise each denominator shape.
        let cases = [
            (rat(1, 4) + rat(1, 4), rat(1, 2)),
            (rat(1, 6) + rat(1, 3), rat(1, 2)),
            (Rat::int(2) + rat(3, 4), rat(11, 4)),
            (rat(3, 4) + Rat::int(2), rat(11, 4)),
            (Rat::int(6) * rat(5, 3), Rat::int(10)),
            (rat(4, 9) * rat(3, 2), rat(2, 3)),
            (rat(5, 6) - rat(1, 6), rat(2, 3)),
            (rat(2, 3) / rat(4, 3), rat(1, 2)),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
            assert_eq!(got.numer(), want.numer());
            assert_eq!(got.denom(), want.denom());
        }
        assert_eq!(rat(-3, 4).recip(), rat(-4, 3));
        assert_eq!(rat(-3, 4).recip().denom(), 3);
    }

    /// Euclid's algorithm: the reference the binary kernel answers to.
    fn gcd_ref(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    #[test]
    fn gcd_matches_euclid_on_edge_grid() {
        let mut grid: Vec<i128> = vec![
            0,
            1,
            -1,
            3,
            i64::MIN as i128,
            i64::MAX as i128,
            u64::MAX as i128,
            u64::MAX as i128 + 1,
            i128::MAX,
            i128::MIN + 1,
            3 << 100,
            (u64::MAX as i128) * 3,
        ];
        for k in 1..127 {
            grid.push(1 << k);
            grid.push(-(1 << k));
        }
        for &a in &grid {
            for &b in &grid {
                let want = gcd_ref(a.unsigned_abs(), b.unsigned_abs());
                assert_eq!(gcd(a, b) as u128, want, "gcd({a}, {b})");
            }
        }
        // Unsigned magnitudes past i128, which only `Rat::new` and
        // `cmp` hand to the kernel.
        let wide = [0, 1, 1 << 64, 1 << 127, u128::MAX, u128::MAX - 1, 3 << 126];
        for &a in &wide {
            for &b in &wide {
                assert_eq!(gcd_u128(a, b), gcd_ref(a, b), "gcd_u128({a}, {b})");
            }
        }
    }

    #[test]
    fn gcd_matches_euclid_on_random_pairs_per_width() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x05ee_d9cd);
        let mut draw = |bits: u32, wide: bool| {
            let x = ((rng.next_u64() as u128) << 64 | rng.next_u64() as u128) >> (128 - bits);
            let x = if wide { x | 1 << 64 } else { x };
            let sign = if rng.next_u32() % 2 == 0 { 1 } else { -1 };
            (x, sign)
        };
        // (bits, ≥ 2^64) of each operand: both below 2^32, both below
        // 2^64, one at or above 2^64, both at or above 2^64.
        let classes = [
            ((32, false), (32, false)),
            ((64, false), (64, false)),
            ((127, true), (64, false)),
            ((127, true), (127, true)),
        ];
        for ((ba, wa), (bb, wb)) in classes {
            for i in 0..4000 {
                let (mut a, sa) = draw(ba, wa);
                let (mut b, sb) = draw(bb, wb);
                if i % 2 == 1 {
                    // Half the pairs share a factor, so the gcd is rarely 1.
                    let (g, _) = draw(1 + i % 24, false);
                    let g = g | 1 << (i % 24);
                    a -= a % g;
                    b -= b % g;
                }
                let (x, y) = (sa * a as i128, sb * b as i128);
                assert_eq!(gcd(x, y) as u128, gcd_ref(a, b), "gcd({x}, {y})");
                assert_eq!(gcd_u128(b, a), gcd_ref(b, a), "gcd_u128({b}, {a})");
            }
        }
    }

    #[test]
    fn new_reduces_an_i128_min_numerator() {
        let r = Rat::new(i128::MIN, 2);
        assert_eq!(r.numer(), -(1 << 126));
        assert_eq!(r.denom(), 1);
        assert_eq!(Rat::new(i128::MIN, i128::MIN), Rat::ONE);
        assert_eq!(Rat::new(0, i128::MIN), Rat::ZERO);
        assert_eq!(Rat::new(i128::MIN, -(1 << 126)), Rat::int(2));
    }

    #[test]
    fn wide_comparisons_order_by_magnitude_and_sign() {
        let min = Rat::new(i128::MIN, 1);
        assert!(min < Rat::ZERO);
        assert!(Rat::ZERO > min);
        assert!(min < Rat::new(i128::MIN + 1, 1));
        assert!(Rat::new(i128::MIN, 3) > min);
        assert!(Rat::new(i128::MAX, 3) < Rat::new(i128::MAX, 2));
        assert_eq!(
            Rat::new(i128::MAX, 7).cmp(&Rat::new(i128::MAX, 7)),
            Ordering::Equal
        );
    }

    #[test]
    fn large_values_no_overflow() {
        // 11 GiB/s in bytes/s times an hour in seconds.
        let rate = Rat::int(11) * Rat::int(1 << 30);
        let t = Rat::int(3600);
        let bytes = rate * t;
        assert_eq!(bytes, Rat::int(11 * 3600) * Rat::int(1 << 30));
    }
}
