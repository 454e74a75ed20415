//! Cross-model integration tests: network calculus, queueing theory,
//! and the discrete-event simulator must agree wherever their
//! assumptions overlap — each model checks the others.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use streamcalc::core::num::Rat;
use streamcalc::core::pipeline::{Node, NodeKind, Pipeline, PipelineModel, Source, StageRates};
use streamcalc::core::Regime;
use streamcalc::queueing::{analyze_tandem, Mg1, Mm1, TandemStage};
use streamcalc::streamsim::{simulate, SimConfig, SimResult};

fn single_stage(rate_min: i64, rate_max: i64, source: i64, job: i64) -> Pipeline {
    Pipeline::new(
        "cross",
        Source {
            rate: Rat::int(source),
            burst: Rat::int(job),
        },
        vec![Node::new(
            "stage",
            NodeKind::Compute,
            StageRates::new(
                Rat::int(rate_min),
                Rat::int((rate_min + rate_max) / 2),
                Rat::int(rate_max),
            ),
            Rat::ZERO,
            Rat::int(job),
            Rat::int(job),
        )],
    )
}

#[test]
fn all_three_models_agree_on_the_bottleneck() {
    // Underloaded: throughput = offered rate in every model.
    let p = single_stage(900, 1100, 500, 1000);
    let m = p.build_model();
    assert_eq!(m.regime(), Regime::Underloaded);

    let tandem = analyze_tandem(
        500.0,
        &[TandemStage {
            name: "stage".into(),
            rate: 1000.0,
        }],
    )
    .unwrap();
    assert_eq!(tandem.roofline, 500.0);

    let sim = simulate(
        &p,
        &SimConfig {
            seed: 3,
            total_input: 1_000_000,
            source_chunk: Some(1000),
            queue_capacities: None,
            service_model: nc_streamsim::ServiceModel::Uniform,
            trace: false,
            faults: None,
        },
    );
    assert!(
        (sim.throughput - 500.0).abs() / 500.0 < 0.05,
        "{}",
        sim.throughput
    );
    // NC throughput bracket contains both.
    let tb = m.throughput_over(Rat::int(100));
    assert!(tb.lower.to_f64() <= sim.throughput * 1.02);
    assert!(tb.upper.to_f64() >= sim.throughput * 0.98);
}

#[test]
fn mm1_and_mg1_bracket_uniform_service_sim() {
    // A single stage with uniform service, Poisson-ish offered load is
    // approximated by deterministic arrivals in our sim; the M/G/1
    // P-K mean number in system for uniform service must be *below*
    // M/M/1's (less service variability). Cross-check the formulas.
    let lambda = 0.8;
    let (lo, hi) = (0.8, 1.2); // mean service 1.0
    let mm1 = Mm1::new(lambda, 1.0).unwrap();
    let mu1 = Mg1::uniform(lambda, lo, hi).unwrap();
    let md1 = Mg1::deterministic(lambda, 1.0).unwrap();
    assert!(md1.l < mu1.l && mu1.l < mm1.l);
    // All obey Little's law.
    for (l, w) in [(mm1.l, mm1.w), (mu1.l, mu1.w), (md1.l, md1.w)] {
        assert!((l - lambda * w).abs() < 1e-9);
    }
}

#[test]
fn nc_overload_matches_queueing_instability() {
    // R_α > R_β in NC ⟺ ρ > 1 in queueing: both diverge.
    let p = single_stage(900, 1100, 1500, 1000);
    let m = p.build_model();
    assert_eq!(m.regime(), Regime::Overloaded);
    assert!(m.backlog_bound().is_infinite());
    assert!(Mm1::new(1500.0 / 1000.0, 1.0).is_err());
}

#[test]
fn queueing_roofline_equals_nc_avg_bottleneck() {
    // On the BLAST model, the [12] roofline equals the min normalized
    // average rate that nc-core computes.
    let m = streamcalc::apps::blast::isolated_pipeline().build_model();
    let stages: Vec<TandemStage> = m
        .per_node
        .iter()
        .map(|n| TandemStage {
            name: n.name.clone(),
            rate: n.rate_avg.to_f64(),
        })
        .collect();
    let t = analyze_tandem(1e15, &stages).unwrap();
    assert!((t.roofline - m.bottleneck_rate_avg.to_f64()).abs() < 1.0);
    assert_eq!(t.bottleneck, "seed_match");
}

#[test]
fn des_validates_nc_delay_on_deterministic_stage() {
    // Deterministic service: NC delay bound should be nearly tight.
    let p = single_stage(1000, 1000, 900, 1000);
    let m = p.build_model();
    let sim = simulate(
        &p,
        &SimConfig {
            seed: 1,
            total_input: 500_000,
            source_chunk: Some(1000),
            queue_capacities: None,
            service_model: nc_streamsim::ServiceModel::Uniform,
            trace: false,
            faults: None,
        },
    );
    let bound = m.delay_bound_concat().to_f64();
    assert!(sim.delay_max <= bound * (1.0 + 1e-9));
    // Tightness: the bound is within 3x of the observed worst case
    // (it covers the full burst; the sim feeds steadily).
    assert!(
        bound <= sim.delay_max * 3.0,
        "bound {bound} vs sim {}",
        sim.delay_max
    );
}

// ---------------------------------------------------------------------
// Three-way containment grid: NC, queueing, and DES on every point of
// a seeded family of pipelines.
// ---------------------------------------------------------------------

const EPS: f64 = 1e-6;

/// The containment ordering every model triple must satisfy on an
/// underloaded point: β-guaranteed rate ≤ simulated throughput ≤
/// α*-side caps (NC upper bracket and the queueing roofline), and the
/// simulated delay/backlog inside the NC bounds.
fn assert_three_way_containment(tag: &str, m: &PipelineModel, sim: &SimResult) {
    // DES inside the NC worst-case envelope.
    let d = m.delay_bound_concat().to_f64();
    let x = m.backlog_bound_concat().to_f64();
    assert!(
        sim.delay_max <= d * (1.0 + EPS) + 1e-9,
        "{tag}: sim delay {} above NC bound {d}",
        sim.delay_max
    );
    assert!(
        sim.peak_backlog <= x * (1.0 + EPS) + 1.0,
        "{tag}: sim backlog {} above NC bound {x}",
        sim.peak_backlog
    );

    // β ≤ sim ≤ α*: the NC throughput bracket over the observed run.
    // The lower guarantee assumes sustained arrivals; a finite run pays
    // fill/drain boundary effects, so it gets the same 2 % band the
    // bottleneck-agreement test uses. The caps are exact.
    let tb = m.throughput_over(Rat::from_f64(sim.makespan.max(1e-9)));
    assert!(
        tb.lower.to_f64() <= sim.throughput * 1.02,
        "{tag}: sim throughput {} below NC guarantee {}",
        sim.throughput,
        tb.lower.to_f64()
    );
    assert!(
        sim.throughput <= tb.upper.to_f64() * (1.0 + EPS),
        "{tag}: sim throughput {} above NC cap {}",
        sim.throughput,
        tb.upper.to_f64()
    );

    // Queueing roofline (built from the model's — possibly fault-
    // derated — average rates) also caps the simulated throughput.
    let stages: Vec<TandemStage> = m
        .per_node
        .iter()
        .map(|n| TandemStage {
            name: n.name.clone(),
            rate: n.rate_avg.to_f64(),
        })
        .collect();
    let offered = match m.arrival.ultimate_slope() {
        streamcalc::core::Value::Finite(r) => r.to_f64(),
        _ => f64::INFINITY,
    };
    // The roofline states sustained rates; the run's initial burst
    // amortizes to at most one source chunk over the makespan.
    let t = analyze_tandem(offered, &stages).expect("valid tandem");
    assert!(
        sim.throughput <= t.roofline * (1.0 + 1e-3),
        "{tag}: sim throughput {} above queueing roofline {}",
        sim.throughput,
        t.roofline
    );
}

#[test]
fn three_model_grid_containment() {
    // Eight seeded points over 1–3 stage pipelines with varying rates,
    // job sizes, and loads. Every point must satisfy the full
    // β ≤ sim ≤ α* ordering across all three models.
    let mut rng = ChaCha8Rng::seed_from_u64(0xC805_5EED);
    for point in 0..8u64 {
        let n_stages = rng.gen_range(1..=3usize);
        let job = 1i64 << rng.gen_range(6..=10); // 64 B .. 1 KiB chunks
        let mut nodes = Vec::with_capacity(n_stages);
        let mut bottleneck = i64::MAX;
        for s in 0..n_stages {
            let rmin = rng.gen_range(20_000..60_000);
            let spread = rng.gen_range(0..20_000);
            bottleneck = bottleneck.min(rmin);
            nodes.push(Node::new(
                format!("s{s}"),
                NodeKind::Compute,
                StageRates::new(
                    Rat::int(rmin),
                    Rat::int(rmin + spread / 2),
                    Rat::int(rmin + spread),
                ),
                Rat::ZERO,
                Rat::int(job),
                Rat::int(job),
            ));
        }
        // Drive at 40–80 % of the guaranteed bottleneck: underloaded in
        // every model, so all bounds are finite.
        let src = (bottleneck as f64 * rng.gen_range(0.4..0.8)) as i64;
        let p = Pipeline::new(
            format!("grid-{point}"),
            Source {
                rate: Rat::int(src),
                burst: Rat::int(job),
            },
            nodes,
        );
        let m = p.build_model();
        assert_eq!(m.regime(), Regime::Underloaded, "point {point}");

        let sim = simulate(
            &p,
            &SimConfig {
                seed: 100 + point,
                total_input: 2_000_000,
                source_chunk: Some(job as u64),
                queue_capacities: None,
                service_model: nc_streamsim::ServiceModel::Uniform,
                trace: false,
                faults: None,
            },
        );
        assert_three_way_containment(&format!("point {point}"), &m, &sim);
    }
}

#[test]
fn faulted_bitw_three_model_containment() {
    // The degraded-mode §11 scenario: the same three-way ordering must
    // hold between the *degraded* NC model, the *derated* queueing
    // roofline (the model's per-node average rates already carry each
    // fault's long-run rate factor), and the *faulted* simulation.
    let p = streamcalc::apps::bitw::faulted_pipeline();
    let m = p.build_model();
    for seed in [21, 43] {
        let sim = simulate(&p, &streamcalc::apps::bitw::faulted_sim_config(seed));
        assert_three_way_containment(&format!("bitw seed {seed}"), &m, &sim);
    }
}

#[test]
fn faulted_blast_three_model_containment() {
    let p = streamcalc::apps::blast::faulted_pipeline();
    let m = p.build_model();
    let sim = simulate(&p, &streamcalc::apps::blast::faulted_sim_config(31));
    assert_three_way_containment("blast", &m, &sim);
}

#[test]
fn degraded_queueing_roofline_tracks_rate_factor() {
    // Cross-model agreement on the *average*-rate effect of a fault:
    // derating the BLAST GPU stage by 10 % must move the queueing
    // roofline down by exactly the stall/derate long-run factor.
    let clean = streamcalc::apps::blast::deployed_pipeline().build_model();
    let faulted = streamcalc::apps::blast::faulted_pipeline().build_model();
    let ratio = faulted.bottleneck_rate_avg.to_f64() / clean.bottleneck_rate_avg.to_f64();
    assert!((ratio - 0.9).abs() < 1e-9, "avg bottleneck ratio {ratio}");
}

#[test]
#[ignore = "long-horizon nightly variant: CHECK_NIGHTLY=1 scripts/check.sh"]
fn faulted_bitw_containment_long_horizon() {
    // Nightly-scale sweep of the faulted BITW scenario: 8 seeds at 8x
    // the tier-1 input length, so outage windows sampled deep into the
    // run (and many more stall periods) still land inside the degraded
    // bounds.
    let p = streamcalc::apps::bitw::faulted_pipeline();
    let m = p.build_model();
    let total: u64 = 16 << 20;
    let horizon = total as f64 / p.source.rate.to_f64();
    for seed in 0..8u64 {
        let mut cfg = streamcalc::apps::bitw::faulted_sim_config(seed);
        cfg.total_input = total;
        cfg.faults = Some(streamcalc::streamsim::FaultSchedule::from_pipeline(
            &p, seed, horizon,
        ));
        let sim = simulate(&p, &cfg);
        assert_three_way_containment(&format!("long bitw seed {seed}"), &m, &sim);
    }
}

#[test]
fn stochastic_tail_p99_grid_containment() {
    // The stochastic layer against the Monte Carlo engine: on an
    // eight-point seeded grid of underloaded 1-3 stage pipelines, the
    // analytic p99 tail bound (`eps` = 1/100) must contain the
    // empirical 99th-percentile delay and backlog over 100 replicas
    // with fresh service-time seeds. The union bound certifies
    // `P(delay > x) <= 1/100` outright, so the nearest-rank p99 of any
    // sample is contained with overwhelming margin.
    use streamcalc::core::num::rat;
    use streamcalc::core::stoch::StochSpec;
    use streamcalc::streamsim::{simulate_in, Quantiles, SimArena};

    let mut rng = ChaCha8Rng::seed_from_u64(0x7A11_C805_5EED);
    let mut arena = SimArena::default();
    for point in 0..8u64 {
        let n_stages = rng.gen_range(1..=3usize);
        let job = 1i64 << rng.gen_range(6..=10);
        let mut nodes = Vec::with_capacity(n_stages);
        let mut bottleneck = i64::MAX;
        for s in 0..n_stages {
            // Round rates: the eps-split service-level rates are exact
            // rationals, and coprime five-digit rates would compound
            // into i128-overflowing denominators across stages.
            let rmin = 1000 * rng.gen_range(20..60);
            let spread = 1000 * rng.gen_range(0..20);
            bottleneck = bottleneck.min(rmin);
            nodes.push(Node::new(
                format!("s{s}"),
                NodeKind::Compute,
                StageRates::new(
                    Rat::int(rmin),
                    Rat::int(rmin + spread / 2),
                    Rat::int(rmin + spread),
                ),
                Rat::ZERO,
                Rat::int(job),
                Rat::int(job),
            ));
        }
        let src = 500 * ((bottleneck as f64 * rng.gen_range(0.4..0.8)) as i64 / 500);
        let p = Pipeline::new(
            format!("tail-grid-{point}"),
            Source {
                rate: Rat::int(src),
                burst: Rat::int(job),
            },
            nodes,
        );
        let total = 64 * job as u64; // 64 jobs per stage
        let spec = StochSpec::for_run(&p, total);
        let tb = p.tail_bounds(&spec, rat(1, 100));
        let tail_delay = tb.delay.as_finite().expect("underloaded").to_f64();
        let tail_backlog = tb.backlog.as_finite().expect("underloaded").to_f64();

        let mut q_delay = Quantiles::new();
        let mut q_backlog = Quantiles::new();
        for replica in 0..100u64 {
            let sim = simulate_in(
                &mut arena,
                &p,
                &SimConfig {
                    seed: 1000 * point + replica + 1,
                    total_input: total,
                    source_chunk: Some(job as u64),
                    queue_capacities: None,
                    service_model: nc_streamsim::ServiceModel::Uniform,
                    trace: false,
                    faults: None,
                },
            );
            q_delay.push(sim.delay_max);
            q_backlog.push(sim.peak_backlog);
        }
        let emp_delay = q_delay.quantile(0.99).expect("non-empty");
        let emp_backlog = q_backlog.quantile(0.99).expect("non-empty");
        assert!(
            tail_delay >= emp_delay,
            "point {point}: p99 delay bound {tail_delay:.3e} < empirical {emp_delay:.3e}"
        );
        assert!(
            tail_backlog >= emp_backlog,
            "point {point}: p99 backlog bound {tail_backlog:.3e} < empirical {emp_backlog:.3e}"
        );
    }
}

#[test]
#[ignore = "million-replica nightly variant: CHECK_NIGHTLY=1 scripts/check.sh"]
fn stochastic_tail_million_replica_containment() {
    // Nightly-scale statistical check of the tail certificate itself:
    // over 10^6 independently seeded replicas of a one-stage pipeline,
    // the *fraction* of replicas whose worst delay exceeds the
    // eps-budget bound must be at most eps, for eps in {1/100, 1/1000}.
    // The union bound is loose (it charges every job), so the observed
    // violation fraction is expected to be far below eps - but the
    // certified inequality is what's asserted.
    use streamcalc::core::num::rat;
    use streamcalc::core::stoch::StochSpec;
    use streamcalc::streamsim::{simulate_in, SimArena};
    use streamcalc::sweep::{stripe, workers};

    let p = single_stage(40_000, 60_000, 25_000, 512);
    let total: u64 = 8 * 512; // 8 jobs per replica
    let spec = StochSpec::for_run(&p, total);
    let budgets = [rat(1, 100), rat(1, 1000)];
    let bounds: Vec<f64> = budgets
        .iter()
        .map(|&eps| {
            p.tail_bounds(&spec, eps)
                .delay
                .as_finite()
                .expect("underloaded")
                .to_f64()
        })
        .collect();

    const REPLICAS: u64 = 1_000_000;
    let replicas: Vec<u64> = (0..REPLICAS).collect();
    // Each worker counts its own violations; counts are sums, so the
    // merge is order-independent: identical totals for every worker
    // count.
    let (_, states) = stripe(
        &replicas,
        workers(),
        || (SimArena::default(), vec![0u64; bounds.len()]),
        |(arena, counts), &replica| {
            let sim = simulate_in(
                arena,
                &p,
                &SimConfig {
                    seed: replica + 1,
                    total_input: total,
                    source_chunk: Some(512),
                    queue_capacities: None,
                    service_model: nc_streamsim::ServiceModel::Uniform,
                    trace: false,
                    faults: None,
                },
            );
            for (c, b) in counts.iter_mut().zip(&bounds) {
                if sim.delay_max > *b {
                    *c += 1;
                }
            }
        },
    );
    let violations = states
        .iter()
        .fold(vec![0u64; budgets.len()], |acc, (_, c)| {
            acc.iter().zip(c).map(|(a, b)| a + b).collect()
        });
    for ((eps, &count), bound) in budgets.iter().zip(&violations).zip(&bounds) {
        let allowed = (eps.to_f64() * REPLICAS as f64) as u64;
        assert!(
            count <= allowed,
            "P(delay > {bound:.3e}) empirical {count}/{REPLICAS} exceeds eps = {eps}"
        );
    }
}
