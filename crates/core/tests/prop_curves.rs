//! Property-based tests for the exact min-plus algebra.
//!
//! Random wide-sense-increasing piecewise-linear curves are generated
//! from integer seeds (so all coordinates are exact rationals), and the
//! algebraic laws of network calculus are checked exactly.

use nc_core::curve::{shapes, Curve};
use nc_core::num::{rat, Rat, Value};
use nc_core::ops::{conv_at, deconv_at, min_plus_conv, min_plus_deconv};
use nc_core::ops::{horizontal_deviation, vertical_deviation};
use nc_core::ops::{min_plus_conv_general, min_plus_deconv_general, subadditive_closure};
use proptest::prelude::*;

/// Strategy: a random wide-sense increasing, ultimately affine curve
/// with small rational coordinates, possibly with jumps.
fn arb_curve() -> impl Strategy<Value = Curve> {
    // Each piece: (dx in 1..=8 quarters, jump in 0..=8 quarters,
    // slope in 0..=12 quarters).
    let piece = (1i64..=8, 0i64..=8, 0i64..=12);
    (proptest::collection::vec(piece, 1..5), 0i64..=6).prop_map(|(pieces, v0)| {
        use nc_core::curve::Breakpoint;
        let q = |n: i64| rat(n as i128, 4);
        let mut bps = Vec::new();
        let mut x = Rat::ZERO;
        let mut v = q(v0);
        for (i, (dx, jump, slope)) in pieces.iter().enumerate() {
            let v_right = v + q(*jump);
            bps.push(Breakpoint {
                x,
                v: Value::finite(v),
                v_right: Value::finite(v_right),
                slope: q(*slope),
            });
            let dxr = q(*dx);
            v = v_right + q(*slope) * dxr;
            x += dxr;
            let _ = i;
        }
        Curve::from_breakpoints(bps).expect("generated curve valid")
    })
}

/// Strategy: a curve that vanishes at zero (a valid arrival/service
/// curve shape).
fn arb_zero_curve() -> impl Strategy<Value = Curve> {
    arb_curve().prop_map(|c| {
        let v0 = c.at_zero().unwrap_finite();
        if v0.is_zero() {
            c
        } else {
            // Shift down exactly to zero at origin.
            c.shift_up(-v0).pos()
        }
    })
}

fn sample_ts() -> Vec<Rat> {
    (0..60).map(|n| rat(n, 3)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_curves_are_increasing(c in arb_curve()) {
        prop_assert!(c.is_wide_sense_increasing());
    }

    #[test]
    fn min_max_add_pointwise(f in arb_curve(), g in arb_curve()) {
        let mn = f.min(&g);
        let mx = f.max(&g);
        let sum = f.add(&g);
        for t in sample_ts() {
            let (fv, gv) = (f.eval(t), g.eval(t));
            prop_assert_eq!(mn.eval(t), fv.min(gv));
            prop_assert_eq!(mx.eval(t), fv.max(gv));
            prop_assert_eq!(sum.eval(t), fv + gv);
        }
    }

    #[test]
    fn conv_is_commutative(f in arb_curve(), g in arb_curve()) {
        prop_assert_eq!(min_plus_conv(&f, &g), min_plus_conv(&g, &f));
    }

    #[test]
    fn conv_curve_matches_pointwise_inf(f in arb_curve(), g in arb_curve()) {
        let c = min_plus_conv(&f, &g);
        for t in sample_ts() {
            let exact = conv_at(&f, &g, t);
            prop_assert_eq!(c.eval(t), exact, "t = {:?}", t);
            // Inf dominated by every sampled decomposition.
            for k in 0..=24 {
                let s = t * rat(k, 24);
                prop_assert!(exact <= f.eval(s) + g.eval(t - s));
            }
        }
    }

    #[test]
    fn conv_is_increasing_and_below_operands(
        f in arb_zero_curve(),
        g in arb_zero_curve(),
    ) {
        let c = min_plus_conv(&f, &g);
        prop_assert!(c.is_wide_sense_increasing());
        // With f(0)=g(0)=0, conv ≤ min(f, g).
        for t in sample_ts() {
            prop_assert!(c.eval(t) <= f.eval(t).min(g.eval(t)));
        }
    }

    #[test]
    fn conv_with_delta_shifts(f in arb_curve(), shift in 0i64..6) {
        let d = shapes::delta(Rat::int(shift));
        let c = min_plus_conv(&f, &d);
        for t in sample_ts() {
            let expect = if t >= Rat::int(shift) {
                f.eval(t - Rat::int(shift))
            } else {
                f.eval(Rat::ZERO)
            };
            prop_assert_eq!(c.eval(t), expect);
        }
    }

    #[test]
    fn deconv_curve_matches_pointwise_sup(f in arb_zero_curve(), g in arb_zero_curve()) {
        let c = min_plus_deconv(&f, &g);
        for t in sample_ts().into_iter().take(30) {
            let exact = deconv_at(&f, &g, t);
            prop_assert_eq!(c.eval(t), exact, "t = {:?}", t);
            for k in 0..=24 {
                let u = rat(k, 2);
                if g.eval(u).is_infinite() { continue; }
                prop_assert!(exact >= f.eval(t + u) - g.eval(u));
            }
        }
    }

    #[test]
    fn deconv_undoes_conv_domination(f in arb_zero_curve(), g in arb_zero_curve()) {
        // (f ⊗ g) ⊘ g ≤ f  (min-plus "division" law, both sides ≥ f⊗g).
        let fg = min_plus_conv(&f, &g);
        let q = min_plus_deconv(&fg, &g);
        for t in sample_ts() {
            prop_assert!(q.eval(t) <= f.eval(t).max(f.eval_right(t)),
                "duality violated at t = {:?}", t);
        }
    }

    #[test]
    fn deviations_dominate_samples(f in arb_zero_curve(), g in arb_zero_curve()) {
        let v = vertical_deviation(&f, &g);
        let h = horizontal_deviation(&f, &g);
        for t in sample_ts() {
            let gv = g.eval(t);
            if !gv.is_infinite() {
                prop_assert!(v >= (f.eval(t) - gv).pos());
            }
            if let Value::Finite(hf) = h {
                // f(t) ≤ g(t + h + ε) for any ε > 0 (h is an infimum,
                // so equality may only hold in the limit at jumps).
                let eps = rat(1, 1000);
                prop_assert!(f.eval(t) <= g.eval(t + hf + eps),
                    "delay bound violated at t = {:?}", t);
            }
        }
    }

    #[test]
    fn backlog_delay_scale_with_y(f in arb_zero_curve(), g in arb_zero_curve(), k in 1i64..5) {
        // Scaling both curves by k scales the backlog by k and keeps
        // the delay unchanged.
        let kf = Rat::int(k);
        let v1 = vertical_deviation(&f, &g);
        let v2 = vertical_deviation(&f.scale_y(kf), &g.scale_y(kf));
        prop_assert_eq!(v2, v1.scale(kf));
        let h1 = horizontal_deviation(&f, &g);
        let h2 = horizontal_deviation(&f.scale_y(kf), &g.scale_y(kf));
        prop_assert_eq!(h1, h2);
    }

    #[test]
    fn conv_distributes_over_min(
        f in arb_zero_curve(),
        g in arb_zero_curve(),
        h in arb_zero_curve(),
    ) {
        // (f ∧ g) ⊗ h = (f ⊗ h) ∧ (g ⊗ h) — min-plus distributivity.
        let lhs = min_plus_conv(&f.min(&g), &h);
        let rhs = min_plus_conv(&f, &h).min(&min_plus_conv(&g, &h));
        for t in sample_ts() {
            prop_assert_eq!(lhs.eval(t), rhs.eval(t), "t = {:?}", t);
        }
    }

    #[test]
    fn conv_is_isotone(f in arb_zero_curve(), g in arb_zero_curve(), bump in 0i64..5) {
        // f ≤ f + c  ⇒  f ⊗ g ≤ (f + c) ⊗ g.
        let f_up = f.shift_up(Rat::int(bump));
        let lo = min_plus_conv(&f, &g);
        let hi = min_plus_conv(&f_up, &g);
        for t in sample_ts() {
            prop_assert!(lo.eval(t) <= hi.eval(t));
        }
    }

    #[test]
    fn packetization_monotone_in_packet_size(
        f in arb_zero_curve(),
        l1 in 0i64..6,
        l2 in 6i64..12,
    ) {
        use nc_core::packetizer::{packetize_arrival, packetize_service};
        // Bigger packets: looser arrival envelope, tighter service.
        let (a1, a2) = (packetize_arrival(&f, Rat::int(l1)), packetize_arrival(&f, Rat::int(l2)));
        let (s1, s2) = (packetize_service(&f, Rat::int(l1)), packetize_service(&f, Rat::int(l2)));
        for t in sample_ts() {
            prop_assert!(a1.eval(t) <= a2.eval(t));
            prop_assert!(s1.eval(t) >= s2.eval(t));
        }
    }

    #[test]
    fn admissible_rate_is_sound(g in arb_zero_curve(), burst in 0i64..8, budget in 1i64..60) {
        use nc_core::bounds::max_admissible_rate;
        use nc_core::curve::shapes;
        use nc_core::ops::vertical_deviation;
        let (b, budget) = (Rat::int(burst), Rat::int(budget));
        if let Some(r) = max_admissible_rate(&g, b, budget) {
            let alpha = shapes::leaky_bucket(r, b);
            let x = vertical_deviation(&alpha, &g);
            prop_assert!(x <= Value::finite(budget),
                "rate {:?} gives backlog {:?} over budget {:?}", r, x, budget);
        } else {
            // Even a zero-rate source (pure burst) must overflow.
            let alpha = shapes::leaky_bucket(Rat::ZERO, b);
            let x = vertical_deviation(&alpha, &g);
            prop_assert!(x > Value::finite(budget) || b > budget);
        }
    }

    #[test]
    fn relax_up_sound_and_bounded(f in arb_curve(), max_den in 1i64..64) {
        let r = f.relax_up(max_den as i128);
        prop_assert!(r.is_wide_sense_increasing());
        for t in sample_ts() {
            prop_assert!(r.eval(t) >= f.eval(t), "t = {:?}", t);
        }
        for bp in r.breakpoints() {
            prop_assert!(bp.x.denom() <= max_den as i128);
        }
    }

    #[test]
    fn conv_fast_paths_equal_general(f in arb_curve(), g in arb_curve()) {
        // The dispatcher (convex/concave closed forms, pruned grid)
        // must be invisible: exact curve equality with the reference
        // envelope algorithm kept as the oracle.
        prop_assert_eq!(min_plus_conv(&f, &g), min_plus_conv_general(&f, &g));
    }

    #[test]
    fn deconv_fast_paths_equal_general(f in arb_zero_curve(), g in arb_zero_curve()) {
        prop_assert_eq!(min_plus_deconv(&f, &g), min_plus_deconv_general(&f, &g));
    }

    #[test]
    fn closure_fast_path_equals_general_iteration(f in arb_zero_curve()) {
        // Reference: the same fixpoint iteration driven by the general
        // convolution, with no up-front sub-additivity shortcut.
        let fast = subadditive_closure(&f, 8);
        let mut acc = shapes::delta(Rat::ZERO).min(&f);
        for _ in 0..8 {
            let next = acc.min(&min_plus_conv_general(&acc, &acc));
            if next == acc { break; }
            acc = next;
        }
        prop_assert_eq!(fast.curve, acc);
    }

    #[test]
    fn simplify_preserves_semantics(f in arb_curve(), g in arb_curve()) {
        // Any derived curve evaluates identically at dense points after
        // the internal simplification passes.
        let c = f.min(&g).add(&f).max(&g);
        for t in sample_ts() {
            let direct = f.eval(t).min(g.eval(t)) + f.eval(t);
            prop_assert_eq!(c.eval(t), direct.max(g.eval(t)));
        }
    }
}

// The cache-equivalence property runs in its own block with fewer
// cases: each case pays for two sub-additive closures on a random
// curve, by far the most expensive operator here, and 16 random
// operand pairs already exercise every memo map on both the miss and
// the hit path.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_ops_equal_uncached(
        f in arb_zero_curve(),
        g in arb_zero_curve(),
        rate in 1i64..=64,
        latency in 0i64..=16,
        l_out in 0i64..=8,
    ) {
        // The hash-consed cache must be semantically invisible: every
        // CurveOps method agrees exactly with the direct algorithms,
        // both on the miss (first call) and on the memo hit (second
        // call) — and interning must hand back the same function.
        use nc_core::cache::{CurveCache, CurveOps, DirectOps};
        let mut cache = CurveCache::new();
        let mut direct = DirectOps;
        for _round in 0..2 {
            prop_assert_eq!(cache.conv(&f, &g), direct.conv(&f, &g));
            prop_assert_eq!(cache.deconv(&f, &g), direct.deconv(&f, &g));
            let (r, t, l) = (
                rat(rate as i128, 4),
                rat(latency as i128, 4),
                rat(l_out as i128, 4),
            );
            prop_assert_eq!(
                cache.packetized_service(r, t, l),
                direct.packetized_service(r, t, l)
            );
            prop_assert_eq!(cache.backlog(&f, &g), direct.backlog(&f, &g));
            prop_assert_eq!(cache.delay(&f, &g), direct.delay(&f, &g));
        }
        // Closure: one direct reference, two cached calls (miss + hit).
        let reference = subadditive_closure(&f, 4).curve;
        prop_assert_eq!(&cache.closure(&f, 4).curve, &reference);
        prop_assert_eq!(&cache.closure(&f, 4).curve, &reference);
        // Two rounds of five memoizable ops + a repeated closure: the
        // second pass must be all hits.
        let stats = cache.stats();
        prop_assert!(stats.op_hits() >= 6, "second round should hit: {:?}", stats);
        prop_assert_eq!(*cache.intern(&f).curve(), f.clone());
    }
}
