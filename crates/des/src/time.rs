//! Simulation time: finite, non-negative seconds with a total order.
//!
//! The engine orders events by `(time, sequence)`; a dedicated newtype
//! keeps NaN out of the calendar by construction and makes the unit
//! (seconds) explicit at API boundaries.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since simulation start.
///
/// Always finite and non-negative; constructors panic otherwise.
#[derive(Clone, Copy, PartialEq)]
pub struct Time(f64);

impl Time {
    /// Simulation epoch.
    pub const ZERO: Time = Time(0.0);

    /// A time `s` seconds after the epoch.
    ///
    /// # Panics
    /// Panics if `s` is negative, NaN, or infinite.
    pub fn secs(s: f64) -> Time {
        assert!(s.is_finite() && s >= 0.0, "invalid simulation time {s}");
        Time(s)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

/// A non-negative span of simulated time, in seconds.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Span(f64);

impl Span {
    /// Zero-length span.
    pub const ZERO: Span = Span(0.0);

    /// A span of `s` seconds.
    ///
    /// # Panics
    /// Panics if `s` is negative, NaN, or infinite.
    pub fn secs(s: f64) -> Span {
        assert!(s.is_finite() && s >= 0.0, "invalid time span {s}");
        Span(s)
    }

    /// Seconds in the span.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are finite by construction.
        self.0.total_cmp(&other.0)
    }
}

impl Add<Span> for Time {
    type Output = Time;
    fn add(self, rhs: Span) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Time {
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Span;
    /// # Panics
    /// Panics if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Span {
        Span::secs(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(Time::secs(1.5).as_secs(), 1.5);
        assert_eq!(Span::secs(1e-3).as_secs(), 1e-3);
    }

    #[test]
    #[should_panic(expected = "invalid simulation time")]
    fn negative_time_rejected() {
        let _ = Time::secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid time span")]
    fn nan_span_rejected() {
        let _ = Span::secs(f64::NAN);
    }

    #[test]
    fn arithmetic_and_order() {
        let t = Time::secs(1.0) + Span::secs(0.5);
        assert_eq!(t, Time::secs(1.5));
        assert!(Time::secs(1.0) < Time::secs(1.5));
        assert_eq!(Time::secs(2.0) - Time::secs(0.5), Span::secs(1.5));
    }

    #[test]
    #[should_panic]
    fn negative_difference_panics() {
        let _ = Time::secs(1.0) - Time::secs(2.0);
    }
}
