//! Exact rational arithmetic over `i128`.
//!
//! Network-calculus bounds are *guarantees*; computing them in floating
//! point turns exact statements ("the backlog never exceeds `b + R·T`")
//! into approximate ones. All curve coordinates in this crate are
//! therefore exact rationals. `i128` numerators/denominators with
//! aggressive GCD reduction comfortably cover the dynamic range of the
//! paper's workloads (rates up to tens of GiB/s, times from nanoseconds
//! to hours) without ever allocating.

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

/// Greatest common divisor (always non-negative).
fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Construct `num/den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat::new: zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        Rat {
            num: sign * (num / g),
            den: (den / g).abs(),
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

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
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
        Rat {
            num: num / g,
            den: den / g,
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
        // a/b vs c/d  <=>  a*d vs c*b (b, d > 0). Cross-reduce first.
        let g1 = gcd(self.num, other.num);
        let g2 = gcd(self.den, other.den);
        if g1 != 0 {
            let l = (self.num / g1)
                .checked_mul(other.den / g2)
                .expect("Rat::cmp overflow");
            let r = (other.num / g1)
                .checked_mul(self.den / g2)
                .expect("Rat::cmp overflow");
            // Dividing both sides by positive g1 keeps order only if g1 > 0;
            // gcd is non-negative and nonzero here, so order is preserved.
            l.cmp(&r)
        } else {
            // Both numerators zero.
            Ordering::Equal
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
            let g1 = gcd(a, d);
            let g2 = gcd(c, b);
            return Rat {
                num: (a / g1) * (c / g2),
                den: (b / g2) * (d / g1),
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

    #[test]
    fn large_values_no_overflow() {
        // 11 GiB/s in bytes/s times an hour in seconds.
        let rate = Rat::int(11) * Rat::int(1 << 30);
        let t = Rat::int(3600);
        let bytes = rate * t;
        assert_eq!(bytes, Rat::int(11 * 3600) * Rat::int(1 << 30));
    }
}
