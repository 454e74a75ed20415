//! Fault-layer properties (DESIGN.md §11): the degraded network-calculus
//! bounds must contain every faulted simulation run; fault injection must
//! preserve the engine-equivalence invariant of DESIGN.md §10 (thinned ≡
//! reference bitwise, for every service model: a faulted deterministic
//! run takes the f64 engine); and a zero-fault schedule must be
//! bit-identical to running with no schedule at all.

use nc_core::curve::{Breakpoint, Curve};
use nc_core::num::{Rat, Value};
use nc_core::ops::min_plus_conv;
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use nc_core::{FaultModel, Regime};
use nc_streamsim::{
    simulate, simulate_reference, FaultSchedule, Outage, RecoveryPolicy, ServiceModel, SimConfig,
    StageFault, StallSpec,
};
use proptest::prelude::*;

/// Relative slack for float↔rational conversions.
const EPS: f64 = 1e-6;

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

// ---------------------------------------------------------------------
// Property (a): degraded NC bounds contain the faulted simulation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct NodeGen {
    rmin: i64,
    spread: i64,
    job_in_log2: u32,
    job_out_log2: u32,
    latency_ms: i64,
    fault: Option<FaultModel>,
}

/// One of the three fault hypotheses (or none), with parameters exact in
/// rationals so the analysis side and the `from_pipeline` realization
/// agree on the numbers.
fn arb_fault() -> impl Strategy<Value = Option<FaultModel>> {
    prop_oneof![
        Just(None),
        // Stall budget is period / 2^k for k ≥ 2: at most a quarter of
        // the window, keeping the degraded pipeline plausibly loaded.
        (5i64..100, 2u32..6).prop_map(|(per_ms, k)| Some(FaultModel::PeriodicStall {
            budget: Rat::new(per_ms as i128, 1000 * (1i128 << k)),
            period: Rat::new(per_ms as i128, 1000),
        })),
        (5i64..40).prop_map(|pct| Some(FaultModel::RateDerate {
            delta: Rat::new(pct as i128, 100),
        })),
        (1i64..200).prop_map(|ms| Some(FaultModel::TransientOutage {
            duration: Rat::new(ms as i128, 1000),
        })),
    ]
}

/// Random underloaded pipelines carrying per-stage fault hypotheses —
/// the underload filter runs on the *degraded* model, so every case has
/// finite degraded bounds to test against.
fn arb_faulted_pipeline() -> impl Strategy<Value = (Pipeline, u64)> {
    let node = (
        2_000i64..20_000,
        0i64..5_000,
        4u32..8,
        4u32..8,
        0i64..20,
        arb_fault(),
    )
        .prop_map(|(rmin, spread, ji, jo, lat, fault)| NodeGen {
            rmin,
            spread,
            job_in_log2: ji,
            job_out_log2: jo,
            latency_ms: lat,
            fault,
        });
    (
        proptest::collection::vec(node, 1..4),
        500i64..1_500, // source rate, below the degraded min rates
        1u64..40,      // number of source chunks
    )
        .prop_map(|(gens, src_rate, chunks)| {
            let nodes: Vec<Node> = gens
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let mut n = Node::new(
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
                    );
                    n.fault = g.fault;
                    n
                })
                .collect();
            let chunk = 1u64 << gens[0].job_in_log2;
            let p = Pipeline::new(
                "prop-faults",
                Source {
                    rate: Rat::int(src_rate),
                    burst: Rat::int(chunk as i64),
                },
                nodes,
            );
            (p, chunk * chunks)
        })
        .prop_filter("degraded model underloaded", |(p, _)| {
            let m = p.build_model();
            m.regime() == Regime::Underloaded
                && m.per_node.iter().all(|n| n.regime == Regime::Underloaded)
        })
        .prop_filter("some stage actually faulted", |(p, _)| {
            p.nodes.iter().any(|n| n.fault.is_some())
        })
}

// ---------------------------------------------------------------------
// Properties (b)–(c): engine equivalence under arbitrary schedules.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct GenCase {
    pipeline: Pipeline,
    chunk: u64,
    total: u64,
    caps: Option<Vec<u64>>,
}

/// Random 1–3 node pipelines (free rates: spans under- and overloaded),
/// optional bounded queues, totals with a partial residual chunk — the
/// same shape `prop_engine_equiv` uses, so fault injection is tested on
/// top of every engine path that is already known equivalent.
fn arb_case() -> impl Strategy<Value = GenCase> {
    let node = (500i64..20_000, 0i64..5_000, 4u32..8, 4u32..8, 0i64..20).prop_map(
        |(rmin, spread, ji, jo, lat)| NodeGen {
            rmin,
            spread,
            job_in_log2: ji,
            job_out_log2: jo,
            latency_ms: lat,
            fault: None,
        },
    );
    (
        proptest::collection::vec(node, 1..4),
        200i64..30_000,
        1u64..4,
        1u64..30,
        0u64..64,
        (any::<bool>(), proptest::collection::vec(1u64..6, 3)),
    )
        .prop_map(|(gens, src_rate, chunk_mult, chunks, tail, caps_gen)| {
            let (bounded, cap_mults) = caps_gen;
            let cap_mults = bounded.then_some(cap_mults);
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
            let caps = cap_mults.map(|ms| {
                gens.iter()
                    .zip(ms)
                    .enumerate()
                    .map(|(i, (g, m))| {
                        let upstream = if i == 0 {
                            chunk
                        } else {
                            1u64 << gens[i - 1].job_out_log2
                        };
                        upstream.max(1 << g.job_in_log2) * m
                    })
                    .collect()
            });
            let pipeline = Pipeline::new(
                "fault-equiv",
                Source {
                    rate: Rat::int(src_rate),
                    burst: Rat::int(chunk as i64),
                },
                nodes,
            );
            GenCase {
                pipeline,
                chunk,
                total: chunk * chunks + tail % chunk.min(64),
                caps,
            }
        })
}

/// Arbitrary *valid* per-stage fault: simultaneous derate + stall +
/// outage windows (built cumulatively so they never overlap) and a
/// random recovery policy with sane retry backoff.
fn arb_stage_fault() -> impl Strategy<Value = StageFault> {
    let stall = (any::<bool>(), 2i64..60, 2u32..6).prop_map(|(on, per_ms, k)| {
        on.then(|| StallSpec {
            budget: per_ms as f64 / 1000.0 / (1u64 << k) as f64,
            period: per_ms as f64 / 1000.0,
        })
    });
    let outages = proptest::collection::vec((0.0f64..4.0, 0.0f64..0.4), 0..3).prop_map(|ws| {
        let mut t = 0.0;
        let mut v = Vec::new();
        for (gap, dur) in ws {
            t += gap;
            v.push(Outage {
                start: t,
                duration: dur,
            });
            t += dur + 1e-3;
        }
        v
    });
    let recovery = prop_oneof![
        Just(RecoveryPolicy::Block),
        Just(RecoveryPolicy::Block),
        Just(RecoveryPolicy::Drop),
        (1i64..20, 0u32..6).prop_map(|(b, k)| RecoveryPolicy::Retry {
            base: b as f64 / 1000.0,
            cap: b as f64 / 1000.0 * (1u64 << k) as f64,
        }),
    ];
    (0i64..60, stall, outages, recovery).prop_map(|(pct, stall, outages, recovery)| StageFault {
        derate: pct as f64 / 100.0,
        stall,
        outages,
        recovery,
    })
}

fn arb_faulted_case() -> impl Strategy<Value = (GenCase, FaultSchedule)> {
    // Generate a schedule for the widest pipeline and truncate to the
    // actual stage count (the vendored proptest has no flat_map).
    (
        arb_case(),
        proptest::collection::vec(arb_stage_fault(), 3),
        0u64..10_000,
    )
        .prop_map(|(case, mut stages, fseed)| {
            stages.truncate(case.pipeline.nodes.len());
            let schedule = FaultSchedule {
                seed: fseed,
                stages,
            };
            (case, schedule)
        })
}

fn cfg(case: &GenCase, model: ServiceModel, seed: u64, faults: Option<FaultSchedule>) -> SimConfig {
    SimConfig {
        seed,
        total_input: case.total,
        source_chunk: Some(case.chunk),
        queue_capacity: None,
        queue_capacities: case.caps.clone(),
        trace: false,
        service_model: model,
        faults,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a) For every underloaded faulted pipeline, the *degraded* NC
    /// model contains the faulted run realized from the same hypotheses
    /// (blocking recovery — the semantics the degraded curves cover):
    /// delay, backlog, and the full output trace between `r ⊗ β_deg`
    /// and α.
    #[test]
    fn faulted_sim_respects_degraded_nc_bounds(
        (p, total) in arb_faulted_pipeline(),
        seed in 0u64..1000,
    ) {
        let model = p.build_model();
        let src = p.source.rate.to_f64();
        let horizon = total as f64 / src;
        let schedule = FaultSchedule::from_pipeline(&p, seed ^ 0xFA17, horizon);
        let cfg = SimConfig {
            seed,
            total_input: total,
            source_chunk: None,
            queue_capacity: None,
            queue_capacities: None,
            service_model: ServiceModel::Uniform,
            trace: true,
            faults: Some(schedule),
        };
        let r = simulate(&p, &cfg);

        // Conservation (blocking recovery: nothing is dropped).
        prop_assert_eq!(r.dropped_jobs, 0);
        prop_assert!((r.bytes_out + r.residual - total as f64).abs() < 1.0 + total as f64 * EPS);

        // Delay containment against the *degraded* concatenated bound.
        if let Some(d) = model.delay_bound_concat().as_finite() {
            prop_assert!(
                r.delay_max <= d.to_f64() * (1.0 + EPS) + 1e-9,
                "faulted sim delay {} exceeds degraded NC bound {}", r.delay_max, d.to_f64()
            );
        }

        // Backlog containment.
        if let Some(x) = model.backlog_bound_concat().as_finite() {
            prop_assert!(
                r.peak_backlog <= x.to_f64() * (1.0 + EPS) + 1e-9,
                "faulted sim backlog {} exceeds degraded NC bound {}", r.peak_backlog, x.to_f64()
            );
        }

        // Trace containment: output below α, above r ⊗ β_deg.
        let input = input_staircase(&r.trace_in);
        let floor = min_plus_conv(&input, &model.service_concat);
        for &(t, out) in &r.trace_out {
            let tr = Rat::from_f64(t);
            let hi = model.arrival.eval(tr).to_f64();
            prop_assert!(out <= hi * (1.0 + EPS) + 1.0,
                "output {} above α(t)={} at t={}", out, hi, t);
            let lo = floor.eval(tr).to_f64();
            prop_assert!(out >= lo * (1.0 - EPS) - 1.0,
                "output {} below (r⊗β_deg)(t)={} at t={}", out, lo, t);
        }
    }

    /// (b) Fault injection preserves thinned ≡ reference: the two f64
    /// engines stay bit-identical under arbitrary schedules, every
    /// recovery policy, and every service model. A faulted
    /// deterministic run takes the thinned engine, so this is its
    /// oracle.
    #[test]
    fn faulted_thinned_engine_matches_reference_bitwise(
        (case, schedule) in arb_faulted_case(),
        seed in 0u64..10_000,
        model in prop_oneof![
            Just(ServiceModel::Uniform),
            Just(ServiceModel::Exponential),
            Just(ServiceModel::Deterministic),
        ],
    ) {
        // A trivial schedule sends a deterministic run to the
        // integer-tick engine, which `prop_engine_equiv` checks instead.
        if model != ServiceModel::Deterministic || !schedule.is_trivial() {
            let c = cfg(&case, model, seed, Some(schedule));
            let fast = simulate(&case.pipeline, &c);
            let reference = simulate_reference(&case.pipeline, &c);
            prop_assert_eq!(fast, reference);
        }
    }

    /// (c) A zero-fault schedule is indistinguishable — bitwise — from
    /// no schedule at all, in both the stochastic and the deterministic
    /// engine (the BENCH_3 no-regression guarantee).
    #[test]
    fn zero_fault_schedule_is_bitwise_transparent(
        case in arb_case(),
        seed in 0u64..10_000,
        model in prop_oneof![
            Just(ServiceModel::Uniform),
            Just(ServiceModel::Exponential),
            Just(ServiceModel::Deterministic),
        ],
    ) {
        let n = case.pipeline.nodes.len();
        let with = simulate(
            &case.pipeline,
            &cfg(&case, model, seed, Some(FaultSchedule::none(n))),
        );
        let without = simulate(&case.pipeline, &cfg(&case, model, seed, None));
        prop_assert_eq!(with, without);
    }
}
