//! Stage-parallel engine properties (DESIGN.md §12): the conservative
//! PDES must be *bit-identical across worker counts* (the partition of
//! LPs onto threads decides only when an LP runs, never what it
//! computes), volume-exact against the sequential thinned engine on
//! fault-free runs (same jobs, same bytes, different sample paths), and
//! fault-transparent (a zero-fault schedule changes nothing; an open
//! fault window is never jumped — enforced by debug assertions that
//! these runs exercise). Bounded-queue configurations never reach it:
//! they run on the sequential engine whatever `workers` asks for.

use nc_core::num::Rat;
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use nc_streamsim::{
    par_fallback, simulate, FaultSchedule, Outage, ParFallback, RecoveryPolicy, ServiceModel,
    SimConfig, StageFault, StallSpec,
};
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

/// Random 1–4 node pipelines with power-of-two job sizes and totals
/// that may end in a partial chunk. Queues are unbounded here; the
/// bounded-queue fallback is covered by pairing these cases with
/// [`bounded_caps`]. Rates are free, so cases span underloaded and
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
        proptest::collection::vec(node, 1..5),
        200i64..30_000, // source rate
        1u64..4,        // chunk = mult * job_in(0)
        1u64..40,       // whole chunks
        0u64..64,       // partial tail bytes
    )
        .prop_map(|(gens, src_rate, chunk_mult, chunks, tail)| {
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
                "par-equiv",
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
            }
        })
}

/// Arbitrary valid per-stage fault (same shape as `prop_faults`):
/// derate + optional stall + non-overlapping outage windows + a random
/// recovery policy.
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
    (
        arb_case(),
        proptest::collection::vec(arb_stage_fault(), 4),
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

/// Valid queue capacities for a case, scaled by `mult`: every bounded
/// queue holds one consumer job plus one producer emission (`cap >=
/// job_in + block`, above the `max(job_in, block)` floor of
/// [`SimConfig::validate_queues`]). `mult = 1` pins the tightest such
/// capacities; larger values cover roomier queues.
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

fn cfg(case: &GenCase, seed: u64, model: ServiceModel, workers: Option<usize>) -> SimConfig {
    SimConfig {
        seed,
        total_input: case.total,
        source_chunk: Some(case.chunk),
        queue_capacity: None,
        queue_capacities: None,
        trace: false,
        service_model: model,
        fast_forward: true,
        faults: None,
        workers,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Worker-count invariance: every LP owns its RNG, clock, queue and
    /// statistics, and link messages are produced by exactly one LP in
    /// a deterministic order — so the thread partition cannot change
    /// any result bit. `workers = 1` (round-robin in one thread) and
    /// `workers = n` (scoped threads + watermark blocking) must agree
    /// on the whole [`nc_streamsim::SimResult`].
    #[test]
    fn par_is_bitwise_invariant_across_worker_counts(
        case in arb_case(),
        seed in 0u64..10_000,
        model in prop_oneof![Just(ServiceModel::Uniform), Just(ServiceModel::Exponential)],
        workers in 2usize..6,
    ) {
        let solo = simulate(&case.pipeline, &cfg(&case, seed, model, Some(1)));
        let par = simulate(&case.pipeline, &cfg(&case, seed, model, Some(workers)));
        prop_assert_eq!(solo, par);
    }

    /// The same invariance under arbitrary fault schedules — stalls,
    /// derates, outages under all three recovery policies. These runs
    /// also exercise the engine's fault-gating debug assertions: a
    /// stage's completion never lands strictly inside one of its open
    /// Block-policy outage windows, and no emission precedes the
    /// published watermark (the NC lookahead promise is fault-aware).
    #[test]
    fn par_faulted_is_bitwise_invariant_across_worker_counts(
        (case, schedule) in arb_faulted_case(),
        seed in 0u64..10_000,
        model in prop_oneof![Just(ServiceModel::Uniform), Just(ServiceModel::Exponential)],
        workers in 2usize..6,
    ) {
        let mut c1 = cfg(&case, seed, model, Some(1));
        c1.faults = Some(schedule.clone());
        let mut cn = cfg(&case, seed, model, Some(workers));
        cn.faults = Some(schedule);
        let solo = simulate(&case.pipeline, &c1);
        let par = simulate(&case.pipeline, &cn);
        prop_assert_eq!(solo, par);
    }

    /// A zero-fault schedule is bit-transparent in the parallel engine,
    /// exactly as it is in the sequential engines: scheduling `none(n)`
    /// must not perturb a single bit of the result.
    #[test]
    fn par_zero_fault_schedule_is_bit_transparent(
        case in arb_case(),
        seed in 0u64..10_000,
        workers in 1usize..5,
    ) {
        let plain = simulate(&case.pipeline, &cfg(&case, seed, ServiceModel::Uniform, Some(workers)));
        let mut c = cfg(&case, seed, ServiceModel::Uniform, Some(workers));
        c.faults = Some(FaultSchedule::none(case.pipeline.nodes.len()));
        let scheduled = simulate(&case.pipeline, &c);
        prop_assert_eq!(plain, scheduled);
    }

    /// Bounded queues always run on the sequential engine: whatever
    /// `workers` asks for, [`par_fallback`] reports `BoundedQueue` and
    /// the result equals the `workers: None` run bit for bit.
    #[test]
    fn par_bounded_falls_back_to_sequential_engine(
        case in arb_case(),
        seed in 0u64..10_000,
        model in prop_oneof![Just(ServiceModel::Uniform), Just(ServiceModel::Exponential)],
        workers in 1usize..6,
        mult in 1u64..4,
    ) {
        let mut seq = cfg(&case, seed, model, None);
        seq.queue_capacities = Some(bounded_caps(&case, mult));
        let mut par = seq.clone();
        par.workers = Some(workers);
        prop_assert_eq!(par_fallback(&par), Some(ParFallback::BoundedQueue));
        prop_assert_eq!(simulate(&case.pipeline, &seq), simulate(&case.pipeline, &par));
    }

    /// Fault-free volume conservation against the sequential thinned
    /// engine: the parallel engine draws *different* service times
    /// (per-stage RNG streams), but moves exactly the same data —
    /// source emissions, per-node job counts and input bytes, total
    /// events, output bytes and the residual left in flight are all
    /// sample-path independent and must match exactly.
    #[test]
    fn par_volumes_match_sequential_engine(
        case in arb_case(),
        seed in 0u64..10_000,
        model in prop_oneof![Just(ServiceModel::Uniform), Just(ServiceModel::Exponential)],
    ) {
        let seq = simulate(&case.pipeline, &cfg(&case, seed, model, None));
        let par = simulate(&case.pipeline, &cfg(&case, seed, model, Some(2)));
        prop_assert_eq!(seq.events, par.events);
        prop_assert_eq!(seq.bytes_out, par.bytes_out);
        prop_assert_eq!(seq.residual, par.residual);
        prop_assert_eq!(par.dropped_jobs, 0);
        prop_assert_eq!(par.retries, 0);
        for (s, p) in seq.per_node.iter().zip(&par.per_node) {
            prop_assert_eq!(&s.name, &p.name);
            prop_assert_eq!(s.jobs, p.jobs);
            prop_assert_eq!(s.bytes_in, p.bytes_in);
        }
    }
}

/// Statistical equivalence on a fixed near-critical workload: the
/// parallel engine's sample path differs from the sequential engine's
/// (different RNG stream layout), so throughput and delay agree only in
/// distribution. A 64 MiB run is long enough that the long-run averages
/// of the two engines land within a few percent of each other.
#[test]
fn par_statistics_track_sequential_engine() {
    let p = Pipeline::new(
        "stats",
        Source {
            rate: Rat::int(9_000),
            burst: Rat::int(1024),
        },
        vec![
            Node::new(
                "a",
                NodeKind::Compute,
                StageRates::new(Rat::int(9_500), Rat::int(10_000), Rat::int(10_500)),
                Rat::ZERO,
                Rat::int(1024),
                Rat::int(512),
            ),
            Node::new(
                "b",
                NodeKind::Compute,
                StageRates::new(Rat::int(11_000), Rat::int(12_000), Rat::int(13_000)),
                Rat::ZERO,
                Rat::int(512),
                Rat::int(1024),
            ),
        ],
    );
    let c = |workers| SimConfig {
        seed: 7,
        total_input: 1 << 22,
        source_chunk: Some(1024),
        queue_capacity: None,
        queue_capacities: None,
        trace: false,
        service_model: ServiceModel::Uniform,
        fast_forward: true,
        faults: None,
        workers,
    };
    let seq = simulate(&p, &c(None));
    let par = simulate(&p, &c(Some(4)));
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(
        rel(par.throughput, seq.throughput) < 0.05,
        "throughput diverged: par {} vs seq {}",
        par.throughput,
        seq.throughput
    );
    assert!(
        rel(par.delay_mean, seq.delay_mean) < 0.25,
        "mean delay diverged: par {} vs seq {}",
        par.delay_mean,
        seq.delay_mean
    );
    assert!(
        rel(par.peak_backlog, seq.peak_backlog) < 0.5,
        "peak backlog diverged: par {} vs seq {}",
        par.peak_backlog,
        seq.peak_backlog
    );
}
