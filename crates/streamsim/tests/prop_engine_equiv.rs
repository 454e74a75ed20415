//! Engine-equivalence properties backing the simulation scaling layer
//! (DESIGN.md §10): the thinned event path must be *bit-identical* to
//! the frozen pre-PR reference engine for the stochastic service
//! models, and the deterministic engine's untraced (cycle-jumping) runs
//! must reproduce its traced runs, which cannot jump and so step every
//! event, statistic for statistic — across random pipelines, seeds,
//! bounded/unbounded queues, and totals that leave a partial residual
//! chunk.

use nc_core::num::Rat;
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use nc_streamsim::{simulate, simulate_reference, ServiceModel, SimConfig};
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
    caps: Option<Vec<u64>>,
}

/// Random 1–3 node pipelines with power-of-two job sizes, optional
/// per-queue capacities (always at least one full job / source chunk so
/// backpressure blocks rather than deadlocks), and totals that may end
/// in a partial chunk. Rates are free, so cases span underloaded and
/// overloaded pipelines.
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
        0u64..64,       // partial tail bytes
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
                        // Validation requires cap >= own job size and
                        // >= the upstream block (chunk / producer
                        // job_out), else the queue can never fill.
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
                "equiv",
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

fn cfg(case: &GenCase, model: ServiceModel, seed: u64, trace: bool) -> SimConfig {
    SimConfig {
        seed,
        total_input: case.total,
        source_chunk: Some(case.chunk),
        queue_capacities: case.caps.clone(),
        trace,
        service_model: model,
        faults: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Thinned stochastic path (lazy source, fused calendar slots,
    /// streaming statistics, pruned input ring) is bit-identical to the
    /// frozen pre-PR engine: same RNG draw order, same float operation
    /// sequence, so `assert_eq!` on the whole `SimResult` holds.
    #[test]
    fn thinned_engine_matches_reference_bitwise(
        case in arb_case(),
        seed in 0u64..10_000,
        model in prop_oneof![Just(ServiceModel::Uniform), Just(ServiceModel::Exponential)],
        trace in any::<bool>(),
    ) {
        let c = cfg(&case, model, seed, trace);
        let fast = simulate(&case.pipeline, &c);
        let reference = simulate_reference(&case.pipeline, &c);
        prop_assert_eq!(fast, reference);
    }

    /// Cycle-jump fast-forward never changes a deterministic result:
    /// an untraced run (jump on) agrees with a traced run (jump off:
    /// a skipped cycle emits no trace points) on every field but the
    /// ones only tracing fills, including bounded-queue backpressure
    /// and totals with a partial residual chunk.
    #[test]
    fn cycle_jump_on_off_is_bitwise_identical(
        case in arb_case(),
        seed in 0u64..10_000,
    ) {
        let on = simulate(&case.pipeline, &cfg(&case, ServiceModel::Deterministic, seed, false));
        let mut off = simulate(&case.pipeline, &cfg(&case, ServiceModel::Deterministic, seed, true));
        off.trace_in.clear();
        off.trace_out.clear();
        // Derived from the trace; untraced runs report the mean rate.
        off.steady_throughput = off.throughput;
        prop_assert_eq!(on, off);
    }
}
