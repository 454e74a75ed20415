//! Property-based tests for the stochastic tail-bound layer
//! (`nc_core::stoch`).
//!
//! Random small pipelines — random rate spreads, job sizes, and fault
//! hypotheses with random occurrence probabilities — are pushed through
//! [`Pipeline::tail_bounds`] and the exact laws checked: zero budget is
//! bit-equal to the deterministic concatenated bounds, bounds are
//! monotone non-increasing in the violation budget, and the cached
//! build is exactly the direct build.

use nc_core::fault::FaultModel;
use nc_core::num::{rat, Rat};
use nc_core::pipeline::{ModelCache, Node, NodeKind, Pipeline, Source, StageRates};
use nc_core::stoch::{service_level_rate, StochSpec};
use proptest::prelude::*;

/// Strategy: one stage with a valid rate spread `min ≤ avg ≤ max`,
/// a small job size, and an optional fault hypothesis.
fn arb_stage() -> impl Strategy<Value = (Node, Option<Rat>)> {
    // `fsel`: 0–2 = no fault, 3–5 = fault kind `fsel − 3`.
    // `qsel`: 0 = deterministic hypothesis, k ≥ 1 = probability 1/(8k).
    (
        1i64..=6,
        0i64..=4,
        0i64..=4,
        prop_oneof![Just(1i64), Just(2i64), Just(4i64)],
        (0u8..6, 0i128..=4),
    )
        .prop_map(|(min, da, dm, job, (fsel, qsel))| {
            let rates = StageRates::new(Rat::int(min), Rat::int(min + da), Rat::int(min + da + dm));
            let (model, prob) = if fsel < 3 {
                (None, None)
            } else {
                let m = match fsel - 3 {
                    0 => FaultModel::RateDerate { delta: rat(1, 4) },
                    1 => FaultModel::TransientOutage {
                        duration: rat(3, 2),
                    },
                    _ => FaultModel::PeriodicStall {
                        budget: rat(1, 4),
                        period: Rat::int(2),
                    },
                };
                let q = if qsel == 0 {
                    None
                } else {
                    Some(rat(1, qsel * 8))
                };
                (Some(m), q)
            };
            let mut n = Node::new(
                "s",
                NodeKind::Compute,
                rates,
                Rat::ZERO,
                Rat::int(job),
                Rat::int(job),
            );
            n.fault = model;
            (n, prob)
        })
}

/// Strategy: a 1–3 stage pipeline plus its [`StochSpec`] for a small
/// run. Always structurally valid; may be overloaded (infinite bounds
/// are legitimate outputs and every law below holds for them too).
fn arb_case() -> impl Strategy<Value = (Pipeline, StochSpec)> {
    (
        proptest::collection::vec(arb_stage(), 1..=3),
        1i64..=4,
        8u64..=64,
    )
        .prop_map(|(stages, src_rate, total)| {
            let (nodes, probs): (Vec<_>, Vec<_>) = stages.into_iter().unzip();
            let p = Pipeline::new(
                "prop",
                Source {
                    rate: Rat::int(src_rate),
                    burst: Rat::int(8),
                },
                nodes,
            );
            let mut spec = StochSpec::for_run(&p, total);
            for (i, q) in probs.into_iter().enumerate() {
                if let (Some(q), true) = (q, p.nodes[i].fault.is_some()) {
                    spec = spec.with_fault_prob(i, q);
                }
            }
            (p, spec)
        })
}

/// The budget ladder every monotonicity check walks, ascending.
fn eps_grid() -> Vec<Rat> {
    vec![Rat::ZERO, rat(1, 1000), rat(1, 100), rat(1, 10), rat(1, 3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ε = 0 is *bit-equal* to the deterministic concatenated bounds:
    /// the stochastic layer adds nothing at zero budget.
    #[test]
    fn zero_budget_is_bit_equal_to_deterministic((p, spec) in arb_case()) {
        let tb = p.tail_bounds(&spec, Rat::ZERO);
        let m = p.build_model();
        prop_assert_eq!(tb.delay, m.delay_bound_concat());
        prop_assert_eq!(tb.backlog, m.backlog_bound_concat());
        prop_assert_eq!(tb.eps, Rat::ZERO);
    }

    /// A larger violation budget never loosens any bound: delay,
    /// backlog, and the stage-sum ablation are all monotone
    /// non-increasing in ε.
    #[test]
    fn bounds_are_monotone_in_budget((p, spec) in arb_case()) {
        let mut cache = ModelCache::new();
        let profile: Vec<_> = eps_grid()
            .into_iter()
            .map(|eps| p.tail_bounds_cached(&spec, eps, &mut cache))
            .collect();
        for w in profile.windows(2) {
            prop_assert!(w[1].delay <= w[0].delay);
            prop_assert!(w[1].backlog <= w[0].backlog);
            prop_assert!(w[1].delay_stage_sum <= w[0].delay_stage_sum);
        }
    }

    /// The prefix-memoized build is exactly the direct build at every
    /// budget (shared cache across all of them).
    #[test]
    fn cached_build_is_bit_equal_to_direct((p, spec) in arb_case()) {
        let mut cache = ModelCache::new();
        for eps in eps_grid() {
            let direct = p.tail_bounds(&spec, eps);
            let cached = p.tail_bounds_cached(&spec, eps, &mut cache);
            prop_assert_eq!(direct, cached);
        }
    }

    /// The stage-sum delay ablation is never tighter than the
    /// end-to-end concatenated delay at the same budget.
    #[test]
    fn stage_sum_is_never_tighter((p, spec) in arb_case()) {
        for eps in eps_grid() {
            let tb = p.tail_bounds(&spec, eps);
            prop_assert!(tb.delay_stage_sum >= tb.delay);
        }
    }

    /// The per-job service-level rate interpolates within the stage's
    /// physical range and is monotone non-increasing in the quantile
    /// level θ (more coverage ⇒ a slower certified rate).
    #[test]
    fn service_level_rate_is_bounded_and_monotone(
        min in 1i64..=8, spread in 0i64..=8,
        n1 in 0i128..=16, n2 in 0i128..=16,
    ) {
        let rates = StageRates::new(
            Rat::int(min),
            Rat::int(min + spread / 2),
            Rat::int(min + spread),
        );
        let (t1, t2) = (rat(n1.min(n2), 16), rat(n1.max(n2), 16));
        let (r1, r2) = (service_level_rate(&rates, t1), service_level_rate(&rates, t2));
        prop_assert!(r1 >= rates.min && r1 <= rates.max);
        prop_assert!(r2 >= rates.min && r2 <= rates.max);
        prop_assert!(r2 <= r1);
        prop_assert_eq!(service_level_rate(&rates, Rat::ONE), rates.min);
        prop_assert_eq!(service_level_rate(&rates, Rat::ZERO), rates.max);
    }
}
