//! The paper's central validation, as a property: for any underloaded
//! pipeline, the discrete-event simulation must respect the
//! network-calculus guarantees — observed delay below the delay bound,
//! observed backlog below the backlog bound, cumulative output between
//! `α ⊗ β` and `α`, throughput inside the model's bracket.

use nc_core::curve::{Breakpoint, Curve};
use nc_core::num::{Rat, Value};
use nc_core::ops::min_plus_conv;
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use nc_core::Regime;
use nc_streamsim::{simulate, SimConfig};
use proptest::prelude::*;

/// Build the exact cumulative-input staircase observed in the run.
fn input_staircase(steps: &[(f64, f64)]) -> Curve {
    let mut bps = Vec::with_capacity(steps.len() + 1);
    let mut level = 0.0f64;
    if steps.first().is_none_or(|s| s.0 > 0.0) {
        bps.push(Breakpoint::cont(Rat::ZERO, Value::ZERO, Rat::ZERO));
    }
    for &(t, cum) in steps {
        bps.push(Breakpoint {
            x: Rat::from_f64(t),
            v: Value::finite(Rat::from_f64(level)),
            v_right: Value::finite(Rat::from_f64(cum)),
            slope: Rat::ZERO,
        });
        level = cum;
    }
    Curve::from_breakpoints(bps).expect("staircase valid")
}

/// Relative slack for float↔rational conversions.
const EPS: f64 = 1e-6;

#[derive(Debug, Clone)]
struct NodeGen {
    rmin: i64,
    spread: i64,
    job_in_log2: u32,
    job_out_log2: u32,
    latency_ms: i64,
}

fn arb_pipeline() -> impl Strategy<Value = (Pipeline, u64)> {
    let node = (2_000i64..20_000, 0i64..5_000, 4u32..8, 4u32..8, 0i64..20).prop_map(
        |(rmin, spread, ji, jo, lat)| NodeGen {
            rmin,
            spread,
            job_in_log2: ji,
            job_out_log2: jo,
            latency_ms: lat,
        },
    );
    (
        proptest::collection::vec(node, 1..4),
        500i64..1_500, // source rate, below every stage's min rate after norm
        1u64..40,      // number of source chunks
    )
        .prop_map(|(gens, src_rate, chunks)| {
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
            let chunk = 1u64 << gens[0].job_in_log2;
            let p = Pipeline::new(
                "prop",
                Source {
                    rate: Rat::int(src_rate),
                    burst: Rat::int(chunk as i64),
                },
                nodes,
            );
            (p, chunk * chunks)
        })
        .prop_filter("underloaded", |(p, _)| {
            let m = p.build_model();
            m.regime() == Regime::Underloaded
                && m.per_node.iter().all(|n| n.regime == Regime::Underloaded)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sim_respects_nc_bounds((p, total) in arb_pipeline(), seed in 0u64..1000) {
        let model = p.build_model();
        let cfg = SimConfig {
            seed,
            total_input: total,
            source_chunk: None,
            queue_capacity: None,
            queue_capacities: None,
            service_model: nc_streamsim::ServiceModel::Uniform,
            trace: true,
            faults: None,
        };
        let r = simulate(&p, &cfg);

        // 1. Conservation: everything drains in an underloaded pipeline
        //    when the volume is job-aligned per stage… it may not be,
        //    so check out + residual ≈ in instead.
        prop_assert!((r.bytes_out + r.residual - total as f64).abs() < 1.0 + total as f64 * EPS);

        // 2. Delay containment (concatenated, packetization-aware β).
        let d_bound = model.delay_bound_concat();
        if let Some(d) = d_bound.as_finite() {
            prop_assert!(
                r.delay_max <= d.to_f64() * (1.0 + EPS) + 1e-9,
                "sim delay {} exceeds NC bound {}", r.delay_max, d.to_f64()
            );
        }

        // 3. Backlog containment.
        let x_bound = model.backlog_bound_concat();
        if let Some(x) = x_bound.as_finite() {
            prop_assert!(
                r.peak_backlog <= x.to_f64() * (1.0 + EPS) + 1e-9,
                "sim backlog {} exceeds NC bound {}", r.peak_backlog, x.to_f64()
            );
        }

        // 4. Trace containment: cumulative output never exceeds the
        //    arrival curve α (an upper envelope of the true input), and
        //    never falls below r ⊗ β — the service guarantee against
        //    the *actual* input staircase r.
        let alpha = &model.arrival;
        let beta = &model.service_concat;
        let input = input_staircase(&r.trace_in);
        let floor = min_plus_conv(&input, beta);
        for &(t, out) in &r.trace_out {
            let tr = Rat::from_f64(t);
            let hi = alpha.eval(tr).to_f64();
            prop_assert!(out <= hi * (1.0 + EPS) + 1.0,
                "output {} above α(t)={} at t={}", out, hi, t);
            let lo = floor.eval(tr).to_f64();
            prop_assert!(out >= lo * (1.0 - EPS) - 1.0,
                "output {} below (r⊗β)(t)={} at t={}", out, lo, t);
        }
    }
}
