//! Unit helpers: bytes, binary data rates, and SI times as exact
//! rationals, plus human-readable formatting for reproduction tables.
//!
//! Internally every model works in **bytes** and **seconds**; these
//! helpers exist so application code can speak the paper's units
//! (MiB/s, GiB/s, ms, µs) without sprinkling conversion constants.

use crate::num::{Rat, Value};

/// Bytes per KiB.
pub const KIB: i64 = 1 << 10;
/// Bytes per MiB.
pub const MIB: i64 = 1 << 20;
/// Bytes per GiB.
pub const GIB: i64 = 1 << 30;

/// `n` KiB in bytes.
pub fn kib(n: i64) -> Rat {
    Rat::int(n * KIB)
}

/// `n` MiB in bytes.
pub fn mib(n: i64) -> Rat {
    Rat::int(n * MIB)
}

/// `x` MiB/s in bytes/s (accepts fractional measured rates).
pub fn mib_per_s(x: f64) -> Rat {
    Rat::from_f64(x) * Rat::int(MIB)
}

/// `x` GiB/s in bytes/s.
pub fn gib_per_s(x: f64) -> Rat {
    Rat::from_f64(x) * Rat::int(GIB)
}

/// `x` milliseconds in seconds.
pub fn millis(x: f64) -> Rat {
    Rat::from_f64(x) / Rat::int(1_000)
}

/// `x` microseconds in seconds.
pub fn micros(x: f64) -> Rat {
    Rat::from_f64(x) / Rat::int(1_000_000)
}

/// Render a byte count with a binary prefix (`20.6 MiB`).
pub fn fmt_bytes(v: Value) -> String {
    match v {
        Value::Infinity => "inf".to_string(),
        Value::NegInfinity => "-inf".to_string(),
        Value::Finite(r) => {
            let x = r.to_f64();
            let ax = x.abs();
            if ax >= GIB as f64 {
                format!("{:.2} GiB", x / GIB as f64)
            } else if ax >= MIB as f64 {
                format!("{:.2} MiB", x / MIB as f64)
            } else if ax >= KIB as f64 {
                format!("{:.2} KiB", x / KIB as f64)
            } else {
                format!("{x:.0} B")
            }
        }
    }
}

/// Render a rate in the paper's units (`355 MiB/s`, `10 GiB/s`).
pub fn fmt_rate(v: Value) -> String {
    match v {
        Value::Infinity => "inf".to_string(),
        Value::NegInfinity => "-inf".to_string(),
        Value::Finite(r) => {
            let x = r.to_f64();
            if x.abs() >= GIB as f64 {
                format!("{:.2} GiB/s", x / GIB as f64)
            } else {
                format!("{:.1} MiB/s", x / MIB as f64)
            }
        }
    }
}

/// Render a duration with an appropriate SI prefix (`46.9 ms`, `38 µs`).
pub fn fmt_time(v: Value) -> String {
    match v {
        Value::Infinity => "inf".to_string(),
        Value::NegInfinity => "-inf".to_string(),
        Value::Finite(r) => {
            let x = r.to_f64();
            let ax = x.abs();
            if ax >= 1.0 {
                format!("{x:.3} s")
            } else if ax >= 1e-3 {
                format!("{:.2} ms", x * 1e3)
            } else if ax >= 1e-6 {
                format!("{:.2} us", x * 1e6)
            } else {
                format!("{:.1} ns", x * 1e9)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_exact() {
        assert_eq!(mib(1), Rat::int(1 << 20));
        assert_eq!(mib_per_s(355.0), Rat::int(355 * (1 << 20)));
        assert_eq!(millis(46.9).to_f64(), 0.0469);
        assert_eq!(micros(38.0).to_f64(), 38.0e-6);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_rate(Value::finite(mib_per_s(355.0))), "355.0 MiB/s");
        assert_eq!(fmt_rate(Value::finite(gib_per_s(10.0))), "10.00 GiB/s");
        assert_eq!(fmt_bytes(Value::finite(kib(3))), "3.00 KiB");
        assert_eq!(fmt_time(Value::finite(millis(46.9))), "46.90 ms");
        assert_eq!(fmt_time(Value::finite(micros(38.0))), "38.00 us");
        assert_eq!(fmt_time(Value::Infinity), "inf");
        assert_eq!(fmt_bytes(Value::Infinity), "inf");
    }
}
