//! Flow-controlled NC properties (DESIGN.md §14): the closed-form
//! backpressure bounds must *contain* the discrete-event simulator on
//! bounded-queue runs — including overloaded ones, where the window
//! gate is what keeps the bounds finite — and the rate-latency closure
//! fast path must agree with the general iterated-convolution path.

use nc_core::cache::CurveCache;
use nc_core::curve::shapes;
use nc_core::flowctl::{window_closure, window_closure_general, CLOSURE_ITERS, RL_PERIODS};
use nc_core::num::{Rat, Value};
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use nc_streamsim::{flow_windows, simulate, ServiceModel, SimConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GenNode {
    rmin: i64,
    spread: i64,
    job_in_log2: u32,
    job_out_log2: u32,
    latency_ms: i64,
}

#[derive(Debug, Clone)]
struct GenCase {
    pipeline: Pipeline,
    chunk: u64,
    total: u64,
}

/// Random 1–3 node pipelines with power-of-two job sizes (kept small
/// so the sequential reference runs are cheap). Source rates are free relative to stage rates, so the
/// cases span the underloaded, balanced and overloaded regimes — the
/// overloaded ones are exactly where the unbounded analysis diverges
/// and only the admission gate keeps the flowctl bounds finite.
fn arb_case() -> impl Strategy<Value = GenCase> {
    let node = (500i64..20_000, 0i64..5_000, 4u32..8, 4u32..8, 0i64..20).prop_map(
        |(rmin, spread, ji, jo, lat)| GenNode {
            rmin,
            spread,
            job_in_log2: ji,
            job_out_log2: jo,
            latency_ms: lat,
        },
    );
    (
        proptest::collection::vec(node, 1..4),
        200i64..30_000, // source rate
        1u64..4,        // chunk = mult * job_in(0)
        1u64..40,       // whole chunks
    )
        .prop_map(|(gens, src_rate, chunk_mult, chunks)| {
            let nodes: Vec<Node> = gens
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    Node::new(
                        format!("n{i}"),
                        NodeKind::Compute,
                        StageRates::new(
                            Rat::int(g.rmin),
                            Rat::int(g.rmin + g.spread / 2),
                            Rat::int(g.rmin + g.spread),
                        ),
                        Rat::new(g.latency_ms as i128, 1000),
                        Rat::int(1 << g.job_in_log2),
                        Rat::int(1 << g.job_out_log2),
                    )
                })
                .collect();
            let chunk = chunk_mult << gens[0].job_in_log2;
            let pipeline = Pipeline::new(
                "flowctl-prop",
                Source {
                    rate: Rat::int(src_rate),
                    burst: Rat::int(chunk as i64),
                },
                nodes,
            );
            GenCase {
                pipeline,
                chunk,
                total: chunk * chunks,
            }
        })
}

/// Valid queue capacities scaled by `mult`: every queue holds one
/// consumer job plus one producer emission (`cap >= job_in + block`),
/// above the `max(job_in, block)` floor `flow_windows` requires.
fn bounded_caps(case: &GenCase, mult: u64) -> Vec<u64> {
    let nodes = &case.pipeline.nodes;
    (0..nodes.len())
        .map(|i| {
            let job_in = nodes[i].job_in.ceil() as u64;
            let block = if i == 0 {
                case.chunk
            } else {
                nodes[i - 1].job_out.ceil() as u64
            };
            (job_in + block) * mult
        })
        .collect()
}

fn cfg(case: &GenCase, caps: Vec<u64>, seed: u64, model: ServiceModel) -> SimConfig {
    SimConfig {
        seed,
        total_input: case.total,
        source_chunk: Some(case.chunk),
        queue_capacity: None,
        queue_capacities: Some(caps),
        trace: false,
        service_model: model,
        faults: None,
    }
}

/// Brute-force `(RL(R,T) + w)*` at a point: `min(δ₀, min_k [k·w +
/// R(t − kT)⁺])` with enough terms to be exact at `t` (beyond
/// `k > t/T` the tail is zero and `k·w` only grows).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Containment: on bounded-queue runs — under both the stochastic
    /// and the deterministic service model, across the load regimes —
    /// the flowctl closed form bounds the DES observations from above.
    /// The deterministic engine services at the *average* rate, so its
    /// bounds are computed on [`Pipeline::deterministic_variant`];
    /// the stochastic engine is bounded by the min/max envelopes of
    /// the original pipeline.
    #[test]
    fn flowctl_bounds_contain_des(
        case in arb_case(),
        mult in 1u64..4,
        seed in 0u64..10_000,
        det in any::<bool>(),
    ) {
        let model = if det { ServiceModel::Deterministic } else { ServiceModel::Uniform };
        let c = cfg(&case, bounded_caps(&case, mult), seed, model);
        let r = simulate(&case.pipeline, &c);

        let analyzed = if det {
            case.pipeline.deterministic_variant()
        } else {
            case.pipeline.clone()
        };
        let windows = flow_windows(&analyzed, &c).expect("caps valid by construction");
        prop_assert!(windows.iter().any(Option::is_some));
        let m = analyzed.flowctl_model(&windows);

        prop_assert!(
            r.delay_max <= m.delay.to_f64() + 1e-6,
            "delay containment: sim {} > bound {:?}",
            r.delay_max, m.delay,
        );
        prop_assert!(
            r.peak_backlog <= m.backlog.to_f64() + 1e-6,
            "backlog containment: sim {} > bound {:?}",
            r.peak_backlog, m.backlog,
        );
        // Bouillard-style per-stage sum: never tighter than the
        // end-to-end concatenation (pays the burst per hop), so it
        // contains the DES whenever the end-to-end bound does.
        prop_assert!(m.per_stage_sum >= m.delay);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast path ≡ general path: on rate-latency service the
    /// closed-form staircase and the iterated-convolution closure both
    /// bracket the brute-force truth everywhere sampled; the fast
    /// path's lower bound is *exact* on its materialized prefix, and
    /// whenever both paths report exactness they agree curve-for-curve
    /// (the transparent regime `w ≥ R·T` always lands here).
    #[test]
    fn closure_fast_path_matches_general_path(
        rn in 1i64..100, rd in 1i64..4,
        ln in 1i64..40, ld in 1i64..4,
        wn in 0i64..400, wd in 1i64..4,
    ) {
        let rate = Rat::new(rn as i128, rd as i128);
        let latency = Rat::new(ln as i128, ld as i128);
        let window = Rat::new(wn as i128, wd as i128);
        let beta = shapes::rate_latency(rate, latency);

        let mut ops = CurveCache::new();
        let fast = window_closure(&mut ops, &beta, window, CLOSURE_ITERS);
        let gen = window_closure_general(&mut ops, &beta, window, CLOSURE_ITERS);

        if fast.exact && gen.exact {
            prop_assert_eq!(&fast.lower, &gen.lower);
            prop_assert_eq!(&fast.upper, &gen.upper);
        }
        prop_assert_eq!(fast.transparent, window >= rate * latency);

        // Sample several closure periods plus the far tail.
        for n in 0..96i128 {
            let x = latency * Rat::new(n, 8);
            let truth = rl_closure_at(rate, latency, window, x);
            prop_assert!(fast.lower.eval(x) <= truth, "fast lower violated at {x:?}");
            prop_assert!(fast.upper.eval(x) >= truth, "fast upper violated at {x:?}");
            prop_assert!(gen.lower.eval(x) <= truth, "general lower violated at {x:?}");
            prop_assert!(gen.upper.eval(x) >= truth, "general upper violated at {x:?}");
            if x < latency * Rat::int(RL_PERIODS as i64) {
                prop_assert_eq!(fast.lower.eval(x), truth, "fast prefix not exact at {x:?}");
            }
        }
    }
}
