//! Property-based tests for the exact rational arithmetic: field
//! axioms, order compatibility, and float ingestion.

use nc_core::num::{Rat, Value};
use proptest::prelude::*;

fn arb_rat() -> impl Strategy<Value = Rat> {
    (-1000i128..=1000, 1i128..=200).prop_map(|(n, d)| Rat::new(n, d))
}

fn arb_nonzero_rat() -> impl Strategy<Value = Rat> {
    arb_rat().prop_filter("nonzero", |r| !r.is_zero())
}

/// Rationals whose components straddle the i64 boundary, so operations
/// land on both sides of the fast-lane predicate (and right at its
/// edge, where a wrong overflow analysis would show up).
fn arb_boundary_rat() -> impl Strategy<Value = Rat> {
    let m = i64::MAX as i128;
    prop_oneof![
        (-1000i128..=1000, 1i128..=200).prop_map(|(n, d)| Rat::new(n, d)),
        (m - 1000..=m, 1i128..=200).prop_map(|(n, d)| Rat::new(n, d)),
        (-m..=-m + 1000, 1i128..=200).prop_map(|(n, d)| Rat::new(n, d)),
        (-1000i128..=1000, m - 1000..=m).prop_map(|(n, d)| Rat::new(n, d)),
        // Wider than i64: always takes the checked reference lane.
        (-1000i128..=1000, 1i128..=200).prop_map(move |(n, d)| Rat::new(n, d) * Rat::new(m, 7)),
    ]
}

/// Pairs of rationals with components between 2^32 and 2^62 whose
/// denominators share a factor: add and mul cross products exceed 2^64,
/// so the gcd kernel's u128 lanes run, and sums reduce nontrivially.
fn arb_wide_pair() -> impl Strategy<Value = (Rat, Rat)> {
    let comp = || (1i128 << 32)..(1i128 << 42);
    (comp(), comp(), comp(), comp(), 1i128..(1 << 20), 0u8..4).prop_map(
        |(n1, d1, n2, d2, k, signs)| {
            let signed = |n: i128, bit: u8| if signs & bit != 0 { -n } else { n };
            (
                Rat::new(signed(n1, 1), d1 * k),
                Rat::new(signed(n2, 2), d2 * k),
            )
        },
    )
}

/// Euclid on the stored components: an oracle independent of the
/// crate's gcd kernel.
fn euclid(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutative_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutative_associative(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse(a in arb_rat()) {
        prop_assert_eq!(a + (-a), Rat::ZERO);
        prop_assert_eq!(a - a, Rat::ZERO);
    }

    #[test]
    fn multiplicative_inverse(a in arb_nonzero_rat()) {
        prop_assert_eq!(a * a.recip(), Rat::ONE);
        prop_assert_eq!(a / a, Rat::ONE);
    }

    #[test]
    fn order_total_and_compatible(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        // Totality.
        prop_assert!(a <= b || b <= a);
        // Translation invariance.
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
        // Positive scaling preserves order.
        if a <= b && c.is_positive() {
            prop_assert!(a * c <= b * c);
        }
    }

    #[test]
    fn ordering_matches_f64(a in arb_rat(), b in arb_rat()) {
        // For these small rationals the f64 conversion is exact enough
        // to agree with the rational order.
        let fa = a.to_f64();
        let fb = b.to_f64();
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn floor_ceil_bracket(a in arb_rat()) {
        let f = a.floor();
        let c = a.ceil();
        prop_assert!(Rat::new(f, 1) <= a);
        prop_assert!(a <= Rat::new(c, 1));
        prop_assert!(c - f <= 1);
    }

    #[test]
    fn from_f64_close(n in -100_000i64..100_000, d in 1i64..10_000) {
        let x = n as f64 / d as f64;
        let r = Rat::from_f64(x);
        prop_assert!((r.to_f64() - x).abs() <= 1e-9 * x.abs().max(1.0));
    }

    #[test]
    fn fast_lane_equals_checked_reference(a in arb_boundary_rat(), b in arb_boundary_rat()) {
        // The operators dispatch between an i64 fast lane and the
        // checked i128 reference; both must produce identical,
        // lowest-terms results wherever the reference is defined.
        if let Some(s) = a.checked_add(b) {
            prop_assert_eq!(a + b, s);
            prop_assert_eq!(a - (-b), s);
        }
        if let Some(p) = a.checked_mul(b) {
            prop_assert_eq!(a * b, p);
            if !b.is_zero() {
                prop_assert_eq!(p / b, a);
            }
        }
        if let Some(d) = a.checked_add(-b) {
            prop_assert_eq!(a.cmp(&b), d.signum().cmp(&0));
        }
    }

    #[test]
    fn wide_cross_products_match_checked_and_stay_lowest_terms((a, b) in arb_wide_pair()) {
        let sum = a + b;
        let product = a * b;
        prop_assert_eq!(Some(sum), a.checked_add(b));
        prop_assert_eq!(Some(product), a.checked_mul(b));
        prop_assert_eq!(a - b, a.checked_add(-b).unwrap());
        prop_assert_eq!(product / b, a);
        for r in [sum, product, a - b] {
            prop_assert!(r.denom() > 0);
            prop_assert_eq!(euclid(r.numer(), r.denom()), 1, "{} not in lowest terms", r);
        }
    }

    #[test]
    fn value_lattice(a in arb_rat(), b in arb_rat()) {
        let (va, vb) = (Value::finite(a), Value::finite(b));
        prop_assert_eq!(va.min(vb).max(va.max(vb)), va.max(vb));
        prop_assert!(Value::NegInfinity <= va);
        prop_assert!(va <= Value::Infinity);
        // Exact sum agrees with the float sum up to rounding.
        let diff = ((va + vb).to_f64() - (a.to_f64() + b.to_f64())).abs();
        prop_assert!(diff <= 1e-9);
    }
}
