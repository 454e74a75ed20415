//! The tracked performance baseline.
//!
//! Times the paper-reproduction binaries end to end (`table1`,
//! `table3`, `fig4`, `fig10`, `montecarlo`, `overload`, `sweep`), the
//! min-plus kernel fast paths against their reference implementations,
//! the simulation scaling layer (thinned event path vs the frozen
//! reference engine; deterministic cycle-jump on vs off), the scale
//! simulation rows (64 MiB / 1 GiB stochastic, 16 GiB deterministic),
//! the batch sweep engine (cached + parallel vs serial uncached,
//! with result-equality asserted and cache-hit counts recorded), and
//! the stage-parallel PDES engine (DESIGN.md §12) across worker counts
//! against the sequential thinned engine, the fleet-throughput row
//! (10³ independent seeded tenant simulations sharing one pooled
//! arena), and the admission-control engine (DESIGN.md §13 — the warm
//! incremental decision path, a full trace replay, and the cold-start
//! full-recompute ablation), the striped-fleet row (tenants striped
//! over OS workers, one arena per worker), and the watermark
//! publication-batching ablation (`NC_PUB_QUANTUM` 256 vs 1, with
//! publish counts), the closed-form flow-control sweep against
//! bounded-queue DES per grid point (the backpressure-bounds
//! tentpole), and the stochastic tail-bound ablation (the
//! closed-form `tail_bounds_cached` budget ladder against the
//! 10⁴-replica Monte Carlo quantile estimator it certifies), and the
//! admission service front (DESIGN.md §16 — the `nc-serve` shard pool
//! behind the full wire codec: warm-pair throughput, the
//! batched-vs-per-request framing ablation with its ≥5× floor
//! asserted in-bin, and canonical-trace replays at 1/2/4 shards with
//! byte-identity to the in-proc engine asserted before timing), then
//! writes the whole snapshot to `BENCH_9.json` at the workspace root
//! — next to the earlier PRs' `BENCH_1.json`–`BENCH_8.json` — so perf
//! regressions show up in review diffs.
//!
//! The snapshot records `host_cpus`: parallel-engine rows are only
//! meaningful relative to the cores available when they were taken (on
//! a single-vCPU host every worker count serializes and the scaling
//! rows measure synchronization overhead, not speedup).
//!
//! Run with `cargo run --release -p nc-bench --bin perfbase`. Set
//! `PERFBASE_OUT=/path/to.json` to redirect the snapshot (used by
//! `scripts/perfgate.sh` so gate runs never clobber the committed
//! baseline).

use std::process::{Command, Stdio};
use std::time::Instant;

use nc_apps::{bitw, blast};
use nc_bench::tailload;
use nc_core::curve::{shapes, Curve};
use nc_core::num::{rat, Rat};
use nc_core::ops::{
    min_plus_conv, min_plus_conv_general, min_plus_deconv, min_plus_deconv_general,
};
use nc_core::pipeline::{ModelCache, Node, NodeKind, Pipeline, Source, StageRates};
use nc_core::units::mib_per_s;
use nc_streamsim::{
    flow_windows, par_fallback, simulate, simulate_in, simulate_reference, ServiceModel, SimArena,
    SimConfig,
};
use serde::Serialize;

#[derive(Serialize)]
struct BinTime {
    bin: String,
    /// Best-of-2 wall time of one full run, seconds.
    wall_s: f64,
}

#[derive(Serialize)]
struct Ablation {
    what: String,
    fast_s: f64,
    reference_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SimTime {
    what: String,
    events: u64,
    per_run_s: f64,
}

#[derive(Serialize)]
struct SweepBench {
    what: String,
    points: usize,
    /// Best-of-3 wall time of `nc_sweep::run` (parallel, per-worker
    /// caches), seconds.
    cached_s: f64,
    /// Best-of-2 wall time of `nc_sweep::run_serial_uncached` (the
    /// status-quo loop), seconds.
    uncached_serial_s: f64,
    speedup: f64,
    /// Merged cache counters of one cached run.
    cache: nc_core::cache::CacheStats,
}

#[derive(Serialize)]
struct ParScalingRow {
    what: String,
    /// `0` encodes the sequential thinned engine (`workers: None`).
    workers: usize,
    per_run_s: f64,
    /// Sequential wall time over this row's (>1 = faster than the
    /// sequential engine).
    speedup_vs_seq: f64,
}

#[derive(Serialize)]
struct PublishRow {
    what: String,
    /// Events per watermark publication (`NC_PUB_QUANTUM`).
    quantum: u32,
    /// Link publications (flushes) during the timed run.
    publishes: u64,
    per_run_s: f64,
}

#[derive(Serialize)]
struct AdmissionRow {
    what: String,
    /// Decisions per measured unit (pair, trace, or single call).
    decisions: u64,
    per_decision_s: f64,
    decisions_per_s: f64,
}

#[derive(Serialize)]
struct ServeRow {
    what: String,
    shards: usize,
    /// Ring publication quantum (1 = per-request synchronous framing).
    quantum: usize,
    decisions: u64,
    per_decision_s: f64,
    decisions_per_s: f64,
}

#[derive(Serialize)]
struct Baseline {
    schema: &'static str,
    command: &'static str,
    /// Cores available when the snapshot was taken — the context the
    /// `par_scaling` rows must be read in.
    host_cpus: usize,
    bins: Vec<BinTime>,
    sims: Vec<SimTime>,
    admission: Vec<AdmissionRow>,
    serve: Vec<ServeRow>,
    ablations: Vec<Ablation>,
    sweeps: Vec<SweepBench>,
    par_scaling: Vec<ParScalingRow>,
    publish_ablation: Vec<PublishRow>,
}

fn lb(r: i64, b: i64) -> Curve {
    shapes::leaky_bucket(Rat::int(r), Rat::int(b))
}
fn rl(r: i64, t: i64) -> Curve {
    shapes::rate_latency(Rat::int(r), Rat::int(t))
}

/// Noise-robust seconds per iteration of `f` (after a 10% warmup): the
/// per-iteration mean of the fastest of five equal batches. Taking the
/// minimum matches `run_bin`'s best-of-2 policy — scheduler noise on a
/// shared single-vCPU box is strictly one-sided, so the fastest batch
/// is the least-contaminated estimate.
fn per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let batch = (iters / 5).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / batch as f64);
    }
    best
}

fn ablation(
    what: &str,
    iters: u32,
    mut fast: impl FnMut(),
    mut reference: impl FnMut(),
) -> Ablation {
    let fast_s = per_iter(iters, &mut fast);
    let reference_s = per_iter(iters, &mut reference);
    let a = Ablation {
        what: what.into(),
        fast_s,
        reference_s,
        speedup: reference_s / fast_s.max(f64::MIN_POSITIVE),
    };
    println!(
        "  {:<36} fast {:>12.3e}s  reference {:>12.3e}s  speedup {:>6.2}x",
        a.what, a.fast_s, a.reference_s, a.speedup
    );
    a
}

/// Best-of-2 wall time of one run of a sibling repro binary.
fn run_bin(name: &str) -> BinTime {
    let exe = std::env::current_exe().expect("current exe");
    let path = exe.parent().expect("bin dir").join(name);
    assert!(
        path.exists(),
        "{} not built — run `cargo build --release -p nc-bench --bins` first",
        path.display()
    );
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let status = Command::new(&path)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        assert!(status.success(), "{name} exited with {status}");
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!("  {name:<36} {best:>10.3}s");
    BinTime {
        bin: name.into(),
        wall_s: best,
    }
}

fn main() {
    // Make sure the sibling repro binaries exist (cheap when cached).
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "-p", "nc-bench", "--bins"])
        .status()
        .expect("spawn cargo build");
    assert!(status.success(), "building repro binaries failed");

    println!("perf baseline: repro binaries (best of 2)");
    let bins = [
        "table1",
        "table3",
        "fig4",
        "fig10",
        "montecarlo",
        "overload",
        "sweep",
        "admit",
    ]
    .iter()
    .map(|b| run_bin(b))
    .collect();

    println!("perf baseline: kernel fast paths vs reference");
    let mut ablations = Vec::new();

    // Convex ⊗ convex: slope merge vs strategy envelope.
    let cx = rl(1, 0).max(&rl(4, 3)).max(&rl(9, 6));
    let cy = rl(2, 1).max(&rl(6, 5)).max(&rl(12, 9));
    ablations.push(ablation(
        "conv convex x convex",
        20_000,
        || {
            std::hint::black_box(min_plus_conv(&cx, &cy));
        },
        || {
            std::hint::black_box(min_plus_conv_general(&cx, &cy));
        },
    ));

    // Concave ⊗ concave: offset-aware min vs strategy envelope.
    let kx = lb(2, 5).min(&lb(1, 9));
    let ky = lb(3, 4).min(&lb(1, 12));
    ablations.push(ablation(
        "conv concave x concave",
        20_000,
        || {
            std::hint::black_box(min_plus_conv(&kx, &ky));
        },
        || {
            std::hint::black_box(min_plus_conv_general(&kx, &ky));
        },
    ));

    // Mixed shapes: pruned strategy scan vs unpruned.
    let sx = shapes::truncated_staircase(Rat::int(3), Rat::int(2), 16);
    ablations.push(ablation(
        "conv staircase16 (pruned)",
        2_000,
        || {
            std::hint::black_box(min_plus_conv(&sx, &sx));
        },
        || {
            std::hint::black_box(min_plus_conv_general(&sx, &sx));
        },
    ));

    // Deconvolution closed form.
    let dy = rl(3, 4);
    ablations.push(ablation(
        "deconv concave / rate-latency",
        20_000,
        || {
            std::hint::black_box(min_plus_deconv(&kx, &dy));
        },
        || {
            std::hint::black_box(min_plus_deconv_general(&kx, &dy));
        },
    ));

    // Rational ops: i64 lane vs checked reference route.
    let (ra, rb) = (rat(355, 113), rat(-217, 990));
    ablations.push(ablation(
        "Rat add (i64 lane)",
        2_000_000,
        || {
            std::hint::black_box(std::hint::black_box(ra) + std::hint::black_box(rb));
        },
        || {
            std::hint::black_box(
                std::hint::black_box(ra)
                    .checked_add(std::hint::black_box(rb))
                    .unwrap(),
            );
        },
    ));
    ablations.push(ablation(
        "Rat mul (i64 lane)",
        2_000_000,
        || {
            std::hint::black_box(std::hint::black_box(ra) * std::hint::black_box(rb));
        },
        || {
            std::hint::black_box(
                std::hint::black_box(ra)
                    .checked_mul(std::hint::black_box(rb))
                    .unwrap(),
            );
        },
    ));

    // Replication loops: pooled arena vs fresh storage per run. BLAST
    // moves 64 MiB in ~700 MiB-sized jobs; BITW pushes ~7 events per
    // KiB and is the event-bound workload.
    let p = blast::deployed_pipeline();
    let mut cfg = blast::sim_config(1);
    cfg.total_input = 64 << 20;
    let mut arena = SimArena::new();
    ablations.push(ablation(
        "streamsim BLAST 64 MiB (pooled)",
        400,
        || {
            std::hint::black_box(simulate_in(&mut arena, &p, &cfg));
        },
        || {
            std::hint::black_box(simulate(&p, &cfg));
        },
    ));

    let pw = bitw::sim_pipeline();
    let mut cfgw = bitw::sim_config(1);
    let mut arena_w = SimArena::new();
    ablations.push(ablation(
        "streamsim BITW 2 MiB (pooled)",
        100,
        || {
            std::hint::black_box(simulate_in(&mut arena_w, &pw, &cfgw));
        },
        || {
            std::hint::black_box(simulate(&pw, &cfgw));
        },
    ));

    // Simulation scaling layer (DESIGN.md §10): the thinned stochastic
    // event path against the frozen pre-PR reference engine (results
    // are bit-identical — asserted by the engine-equivalence property
    // tests), and the deterministic cycle-jump fast-forward against
    // exact stepping on a bounded-queue 1 GiB run.
    let mut cfg_thin = bitw::sim_config(1);
    cfg_thin.trace = false;
    cfg_thin.total_input = 64 << 20;
    ablations.push(ablation(
        "streamsim thinned vs reference (64 MiB)",
        20,
        || {
            std::hint::black_box(simulate(&pw, &cfg_thin));
        },
        || {
            std::hint::black_box(simulate_reference(&pw, &cfg_thin));
        },
    ));
    let mut cfg_ff = cfg_thin.clone();
    cfg_ff.service_model = ServiceModel::Deterministic;
    cfg_ff.queue_capacity = Some(64 << 10);
    cfg_ff.total_input = 1 << 30;
    let mut cfg_noff = cfg_ff.clone();
    cfg_noff.fast_forward = false;
    ablations.push(ablation(
        "det cycle-jump on vs off (1 GiB)",
        5,
        || {
            std::hint::black_box(simulate(&pw, &cfg_ff));
        },
        || {
            std::hint::black_box(simulate(&pw, &cfg_noff));
        },
    ));

    // Closed-form backpressure bounds vs DES per grid point, on a
    // 16-point backpressured overload grid (offered load 40→160 MiB/s
    // against a ~100 MiB/s kernel behind a 4 MiB bounded queue, 16 GiB
    // per point). The closed form evaluates `nc_core::flowctl` on the
    // deterministic twin through one ModelCache — a fresh cache per
    // sweep, as `nc_sweep::run` workers do; the reference runs the
    // bounded-queue DES at its best (deterministic cycle-jump ON).
    // This is the tentpole figure: bounded queues off the slow path.
    let bp_base = Pipeline::new(
        "bp-grid",
        Source {
            rate: mib_per_s(40.0),
            burst: Rat::int(64 << 10),
        },
        vec![Node::new(
            "kernel",
            NodeKind::Compute,
            StageRates::new(mib_per_s(95.0), mib_per_s(100.0), mib_per_s(105.0)),
            Rat::new(1, 1000),
            Rat::int(64 << 10),
            Rat::int(64 << 10),
        )],
    );
    let bp_cfg = SimConfig {
        seed: 5,
        total_input: 16 << 30,
        source_chunk: Some(64 << 10),
        queue_capacity: Some(4 << 20),
        queue_capacities: None,
        service_model: ServiceModel::Deterministic,
        trace: false,
        fast_forward: true,
        faults: None,
        workers: None,
    };
    let bp_grid: Vec<Pipeline> = (0..16)
        .map(|k| {
            let mut p = bp_base.clone();
            p.source.rate = mib_per_s(40.0 + 120.0 * k as f64 / 15.0);
            p
        })
        .collect();
    let fc_ablation = ablation(
        "flowctl sweep vs DES per point (16 pts)",
        5,
        || {
            let mut cache = ModelCache::new();
            for p in &bp_grid {
                let det = p.deterministic_variant();
                let w = flow_windows(&det, &bp_cfg).expect("valid bounded caps");
                let m = det.flowctl_model_cached(&w, &mut cache);
                assert!(
                    m.delay.is_finite() && m.backlog.is_finite(),
                    "backpressured bounds must stay finite in overload"
                );
                std::hint::black_box(m);
            }
        },
        || {
            for p in &bp_grid {
                std::hint::black_box(simulate(p, &bp_cfg));
            }
        },
    );
    assert!(
        fc_ablation.speedup >= 10.0,
        "closed-form backpressure bounds must beat per-point DES >=10x, got {:.2}x",
        fc_ablation.speedup
    );
    ablations.push(fc_ablation);

    // Stochastic tail bounds vs the Monte Carlo estimator they
    // certify: the fast side prices the whole §E-tail budget ladder
    // (ε ∈ {0.1, 0.01, 0.001}) for the faulted BITW scenario through
    // the prefix-memoized closed form; the reference side is the
    // 10⁴-replica per-replica-seeded DES quantile estimator that
    // `results/tail.csv` validates the bounds against. The closed
    // form is expected to win by >=10², asserted at >=10x.
    let tail_scenario = tailload::scenarios()
        .into_iter()
        .find(|s| s.name == "bitw-faulted")
        .expect("bitw-faulted tail scenario");
    let tail_budgets = [rat(1, 10), rat(1, 100), rat(1, 1000)];
    let tail_ablation = ablation(
        "tail bounds vs 1e4-replica MC (3 eps)",
        5,
        || {
            let mut cache = ModelCache::new();
            let spec = tail_scenario.spec();
            for eps in tail_budgets {
                let tb = tail_scenario
                    .pipeline
                    .tail_bounds_cached(&spec, eps, &mut cache);
                assert!(
                    tb.delay.is_finite() && tb.backlog.is_finite(),
                    "tail bounds must stay finite for the BITW scenario"
                );
                std::hint::black_box(tb);
            }
        },
        || {
            std::hint::black_box(tailload::replicate(&tail_scenario, 10_000, 1));
        },
    );
    assert!(
        tail_ablation.speedup >= 10.0,
        "closed-form tail bounds must beat the 1e4-replica MC estimator >=10x, got {:.2}x",
        tail_ablation.speedup
    );
    ablations.push(tail_ablation);

    // End-to-end simulation runs: the tracked wall-time trajectory for
    // the DES + streamsim hot path. The BITW 64 MiB and 1 GiB rows run
    // with `trace: false` — the scale setting, where live memory is the
    // in-flight input window, not the run length. The traced 64 MiB row
    // keeps the figure configuration for continuity with BENCH_2. The
    // 16 GiB row is deterministic with bounded queues, so the periodic
    // steady state is advanced in closed form by the cycle-jump
    // fast-forward (its `events` count the virtual events skipped).
    println!("perf baseline: scale simulation runs");
    let mut sims = Vec::new();
    cfgw.total_input = 64 << 20;
    let mut cfg_1g = cfg_thin.clone();
    cfg_1g.total_input = 1 << 30;
    let mut cfg_det = cfg_ff.clone();
    cfg_det.total_input = 16u64 << 30;
    let rows = [
        ("streamsim BITW 64 MiB", &pw, &cfg_thin),
        ("streamsim BITW 64 MiB (traced)", &pw, &cfgw),
        ("streamsim BITW 1 GiB", &pw, &cfg_1g),
        ("streamsim BITW 16 GiB det (cycle-jump)", &pw, &cfg_det),
        ("streamsim BLAST 64 MiB", &p, &cfg),
    ];
    // Pick iterations from one measured run so the 16 GiB row (~13 ms
    // via fast-forward despite 117M virtual events) is not starved,
    // then sample each row in three round-robin passes and keep the
    // minimum — scheduler-noise windows on this box last seconds, so
    // back-to-back batches alone can sit entirely inside one.
    let stats: Vec<(u64, u32)> = rows
        .iter()
        .map(|(_, pipe, scfg)| {
            let t = Instant::now();
            let events = simulate(pipe, scfg).events;
            let once = t.elapsed().as_secs_f64();
            (events, ((0.4 / once.max(1e-6)) as u32).clamp(3, 400))
        })
        .collect();
    let mut best = vec![f64::INFINITY; rows.len()];
    for _ in 0..3 {
        for (idx, (_, pipe, scfg)) in rows.iter().enumerate() {
            let per = per_iter(stats[idx].1, || {
                std::hint::black_box(simulate(pipe, scfg));
            });
            best[idx] = best[idx].min(per);
        }
    }
    for (idx, (what, _, _)) in rows.iter().enumerate() {
        let (events, _) = stats[idx];
        let per_run_s = best[idx];
        println!("  {what:<40} {per_run_s:>12.3e}s  ({events} events)");
        sims.push(SimTime {
            what: (*what).into(),
            events,
            per_run_s,
        });
    }

    // Fleet-throughput row: 10^3 independent seeded tenant pipelines
    // batch-simulated back to back through one pooled arena (the
    // admission fleet at simulation fidelity). Aggregate events/s is
    // the tracked figure; the row lives in `sims` so the perf gate
    // compares it like any other simulation row.
    println!("perf baseline: fleet batch simulation (1000 tenants, pooled arena)");
    let fleet_n: u64 = 1000;
    let mut arena_fleet = SimArena::new();
    let mut fleet_events = 0u64;
    let run_fleet = |arena: &mut SimArena| {
        let mut events = 0u64;
        for tenant in 0..fleet_n {
            let mut c = bitw::sim_config(tenant + 1);
            c.trace = false;
            c.total_input = 256 << 10;
            events += simulate_in(arena, &pw, &c).events;
        }
        events
    };
    let mut fleet_best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        fleet_events = run_fleet(&mut arena_fleet);
        fleet_best = fleet_best.min(t.elapsed().as_secs_f64());
    }
    println!(
        "  {:<40} {:>12.3e}s  ({} events, {:.3e} events/s)",
        "streamsim fleet 1000 tenants x 256 KiB",
        fleet_best,
        fleet_events,
        fleet_events as f64 / fleet_best
    );
    sims.push(SimTime {
        what: "streamsim fleet 1000 tenants x 256 KiB (pooled)".into(),
        events: fleet_events,
        per_run_s: fleet_best,
    });

    // Admission engine (DESIGN.md §13): the warm incremental decision
    // path (the tentpole's >=1e5 decisions/s/core target), a full
    // 4-tenant trace replay with onboarding amortized in, and the
    // cold-start oracle (full model rebuild + general curve algebra
    // per decision) as the ablation baseline.
    println!("perf baseline: admission engine (incremental vs cold start)");
    use nc_bench::admitload;
    let mut admission = Vec::new();
    let adm_cfg = admitload::request_config(42, 1, 200);
    let mut adm_shard = admitload::build_shard(&adm_cfg, &[0]);
    let adm_tid = adm_shard.tenants[0].1;
    let adm_class = adm_shard.classes[0];
    let pair_s = per_iter(200_000, || {
        let d = adm_shard
            .engine
            .decide(adm_tid, adm_class, 0)
            .expect("in range");
        if let Some(pl) = d.placement() {
            adm_shard
                .engine
                .depart(adm_tid, adm_class, 0, pl)
                .expect("resident flow");
        }
        std::hint::black_box(d);
    });
    let warm_per_decision = pair_s / 2.0;

    let adm_trace_cfg = admitload::request_config(7, 4, 250);
    let adm_trace = nc_workloads::requests::generate(&adm_trace_cfg);
    let adm_tenants: Vec<usize> = (0..4).collect();
    let (_, adm_stats) = admitload::replay_shard(&adm_trace_cfg, &adm_trace, &adm_tenants);
    let replay_s = per_iter(30, || {
        std::hint::black_box(admitload::replay_shard(
            &adm_trace_cfg,
            &adm_trace,
            &adm_tenants,
        ));
    });
    let replay_per_decision = replay_s / adm_stats.decisions as f64;

    let oracle_s = admitload::oracle_per_decision_s(&adm_trace_cfg, 0, 200);

    for (what, decisions, per_decision_s) in [
        ("admit+depart pair, warm engine", 2u64, warm_per_decision),
        (
            "trace replay, 4 tenants x 250 arrivals (onboarding included)",
            adm_stats.decisions,
            replay_per_decision,
        ),
        ("cold-start full recompute (oracle)", 1, oracle_s),
    ] {
        let row = AdmissionRow {
            what: what.into(),
            decisions,
            per_decision_s,
            decisions_per_s: 1.0 / per_decision_s.max(f64::MIN_POSITIVE),
        };
        println!(
            "  {:<58} {:>10.3e}s/decision  ({:.3e}/s)",
            row.what, row.per_decision_s, row.decisions_per_s
        );
        admission.push(row);
    }
    let adm_ablation = Ablation {
        what: "admission incremental vs full recompute".into(),
        fast_s: warm_per_decision,
        reference_s: oracle_s,
        speedup: oracle_s / warm_per_decision.max(f64::MIN_POSITIVE),
    };
    println!(
        "  {:<36} fast {:>12.3e}s  reference {:>12.3e}s  speedup {:>6.2}x",
        adm_ablation.what, adm_ablation.fast_s, adm_ablation.reference_s, adm_ablation.speedup
    );
    ablations.push(adm_ablation);

    // Batch sweep engine: cached + parallel fan-out vs the status-quo
    // serial uncached loop, on the tracked 16x16 BITW workload (256
    // points x 10 horizons). Result equality is asserted before timing,
    // so the speedup is apples to apples.
    println!("perf baseline: sweep engine (cached+parallel vs serial uncached)");
    let spec = nc_bench::bitw_sweep_spec(16, 16);
    let cached = nc_sweep::run(&spec);
    let uncached = nc_sweep::run_serial_uncached(&spec);
    assert_eq!(
        cached.to_csv(),
        uncached.to_csv(),
        "cached sweep must reproduce the uncached surface exactly"
    );
    // Interleave the timed runs so CPU frequency drift hits both sides
    // of the comparison equally; keep the best of each.
    let (mut cached_s, mut uncached_serial_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(nc_sweep::run(&spec));
        cached_s = cached_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(nc_sweep::run_serial_uncached(&spec));
        uncached_serial_s = uncached_serial_s.min(t.elapsed().as_secs_f64());
    }
    let sweep = SweepBench {
        what: "BITW 16x16 block-size x PCIe egress rate, 10 horizons".into(),
        points: cached.points.len(),
        cached_s,
        uncached_serial_s,
        speedup: uncached_serial_s / cached_s.max(f64::MIN_POSITIVE),
        cache: cached.stats,
    };
    println!(
        "  {:<36} cached {:>10.3e}s  uncached {:>10.3e}s  speedup {:>6.2}x",
        sweep.what, sweep.cached_s, sweep.uncached_serial_s, sweep.speedup
    );
    println!(
        "  cache: prefix {}/{} hit/miss, ops {}/{} hit/miss, {} curves interned",
        sweep.cache.prefix_hits,
        sweep.cache.prefix_misses,
        sweep.cache.op_hits(),
        sweep.cache.op_misses(),
        sweep.cache.interned
    );
    let sweeps = vec![sweep];

    // Stage-parallel PDES engine (DESIGN.md §12) vs the sequential
    // thinned engine, on the event-bound BITW workloads. The parallel
    // engine is bit-identical across worker counts (prop_par tests),
    // so every row computes the same result; wall time is the only
    // variable. Interleaved round-robin passes, best of each.
    println!("perf baseline: stage-parallel engine scaling (host_cpus noted in snapshot)");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut par_scaling = Vec::new();
    for (label, total) in [("BITW 64 MiB", 64u64 << 20), ("BITW 1 GiB", 1 << 30)] {
        let mut cfg_par = cfg_thin.clone();
        cfg_par.total_input = total;
        // Worker counts above the host's cores measure oversubscription,
        // not the engine — skip them (mirrors perfgate.sh / par_scaling).
        let worker_axis: Vec<Option<usize>> = [None, Some(1), Some(2), Some(4)]
            .into_iter()
            .filter(|w| match w {
                Some(n) if *n > host_cpus => {
                    println!(
                        "  skipping workers={n} (> host_cpus={host_cpus}: oversubscription, \
                         not engine scaling)"
                    );
                    false
                }
                _ => true,
            })
            .collect();
        // One-line notice when a requested parallel run would fall
        // back to the sequential engine (typed reason from
        // `par_fallback`) — the row would then time the wrong engine.
        for w in worker_axis.iter().flatten() {
            cfg_par.workers = Some(*w);
            if let Some(reason) = par_fallback(&cfg_par) {
                println!("  note: workers={w} requested but running sequentially: {reason}");
            }
        }
        let mut best = vec![f64::INFINITY; worker_axis.len()];
        for _ in 0..3 {
            for (slot, w) in worker_axis.iter().enumerate() {
                cfg_par.workers = *w;
                let t = Instant::now();
                std::hint::black_box(simulate(&pw, &cfg_par));
                best[slot] = best[slot].min(t.elapsed().as_secs_f64());
            }
        }
        let seq_s = best[0];
        for (slot, w) in worker_axis.iter().enumerate() {
            let row = ParScalingRow {
                what: format!("streamsim par {label}"),
                workers: w.unwrap_or(0),
                per_run_s: best[slot],
                speedup_vs_seq: seq_s / best[slot].max(f64::MIN_POSITIVE),
            };
            println!(
                "  {:<28} workers {:>3} {:>12.3e}s  vs seq {:>5.2}x",
                row.what,
                if row.workers == 0 {
                    "seq".into()
                } else {
                    row.workers.to_string()
                },
                row.per_run_s,
                row.speedup_vs_seq
            );
            par_scaling.push(row);
        }
    }

    // Watermark publication-batching ablation: the par engine at one
    // worker with the default 256-event quantum vs per-event
    // publication (`NC_PUB_QUANTUM=1`, the pre-overhaul behavior).
    // Publish counts come from the link layer's global flush counter;
    // the quantum changes publication *timing* only, never results
    // (prop_par pins bit-identity with batching active).
    println!("perf baseline: watermark publication batching (par@1, BITW 64 MiB)");
    let mut publish_ablation = Vec::new();
    {
        let mut cfg_pub = cfg_thin.clone();
        cfg_pub.total_input = 64 << 20;
        cfg_pub.workers = Some(1);
        for quantum in [256u32, 1] {
            std::env::set_var("NC_PUB_QUANTUM", quantum.to_string());
            let mut best = f64::INFINITY;
            let mut publishes = 0u64;
            for _ in 0..3 {
                nc_des::link::take_publish_count(); // drain other sections' counts
                let t = Instant::now();
                std::hint::black_box(simulate(&pw, &cfg_pub));
                let dt = t.elapsed().as_secs_f64();
                let count = nc_des::link::take_publish_count();
                if dt < best {
                    best = dt;
                    publishes = count;
                }
            }
            println!(
                "  {:<40} quantum {:>4} {:>12.3e}s  ({publishes} publishes)",
                "streamsim par@1 BITW 64 MiB", quantum, best
            );
            publish_ablation.push(PublishRow {
                what: "streamsim par@1 BITW 64 MiB".into(),
                quantum,
                publishes,
                per_run_s: best,
            });
        }
        std::env::remove_var("NC_PUB_QUANTUM");
    }

    // Striped-fleet row: the same 1000-tenant fleet, striped over OS
    // workers with one pooled arena per worker and a deterministic
    // tenant-order merge (`nc_bench::fleet`; the merged CSV is
    // byte-identical for any worker count — check.sh asserts it).
    // Worker counts beyond the host's cores are skipped like the
    // scaling rows above.
    println!("perf baseline: striped fleet (1000 tenants, one arena per worker)");
    {
        let fcfg = nc_bench::fleet::FleetConfig {
            tenants: fleet_n,
            input_bytes: 256 << 10,
        };
        for workers in [1usize, 2, 4] {
            if workers > host_cpus {
                println!(
                    "  skipping workers={workers} (> host_cpus={host_cpus}: oversubscription, \
                     not engine scaling)"
                );
                continue;
            }
            let mut best = f64::INFINITY;
            let mut events = 0u64;
            for _ in 0..3 {
                let t = Instant::now();
                let rows = nc_bench::fleet::run_striped(&fcfg, workers);
                best = best.min(t.elapsed().as_secs_f64());
                events = rows.iter().map(|r| r.events).sum();
            }
            println!(
                "  {:<40} {:>12.3e}s  ({} events, {:.3e} events/s)",
                format!("streamsim fleet striped @{workers}w"),
                best,
                events,
                events as f64 / best
            );
            sims.push(SimTime {
                what: format!("streamsim fleet 1000 tenants x 256 KiB (striped @{workers}w)"),
                events,
                per_run_s: best,
            });
        }
    }

    // Admission service front (nc-serve, DESIGN.md §16): the shard
    // pool behind the full wire codec — every frame is encoded to
    // bytes and decoded back in both directions, so only the socket
    // syscalls are missing from the measured path. The warm-pair
    // workload mirrors the warm-engine row above, so the batched row
    // reads directly as "service-front tax on the warm path". The
    // per-request row publishes one frame at a time and parks until
    // its response returns — the framing ablation baseline. Trace
    // rows replay the canonical 8-tenant fleet through 1/2/4 shards
    // (pool spawn + join inside the timed region, as a client would
    // see it); shard counts beyond the host's cores are skipped with
    // notice (BENCH_6 convention), and the service output is byte-
    // compared against the in-proc engine before any timing is
    // trusted.
    println!("perf baseline: admission service front (batched vs per-request framing)");
    let mut serve = Vec::new();
    {
        use nc_serve::proto::{EventKind, ReqFrame, RequestFrame};
        use nc_serve::replay::{drive, replay_inproc, replay_service, to_csv, Batching};
        use nc_serve::ShardPool;

        let pairs = 2_000u64;
        let mut frames = Vec::with_capacity(2 * pairs as usize);
        for i in 0..pairs {
            for (seq, event) in [(2 * i, EventKind::Arrive), (2 * i + 1, EventKind::Depart)] {
                frames.push(RequestFrame::Request(ReqFrame {
                    seq,
                    time_s: seq as f64 * 1e-3,
                    tenant: 0,
                    class: 0,
                    attach: 0,
                    event,
                    arrive_ix: 0,
                }));
            }
        }
        let quantum = 256usize;
        let push_row = |serve: &mut Vec<ServeRow>,
                        what: String,
                        shards: usize,
                        quantum: usize,
                        decisions: u64,
                        wall_s: f64| {
            let per_decision_s = wall_s / decisions as f64;
            let row = ServeRow {
                what,
                shards,
                quantum,
                decisions,
                per_decision_s,
                decisions_per_s: 1.0 / per_decision_s.max(f64::MIN_POSITIVE),
            };
            println!(
                "  {:<44} {:>2} shard(s) q{:<4} {:>10.3e}s/decision  ({:.3e}/s)",
                row.what, row.shards, row.quantum, row.per_decision_s, row.decisions_per_s
            );
            serve.push(row);
        };

        let mut mode_per_decision = Vec::new();
        for (what, batching) in [
            (
                "serve warm pairs, batched framing",
                Batching::Batched { quantum },
            ),
            (
                "serve warm pairs, per-request framing",
                Batching::PerRequest,
            ),
        ] {
            let mut pool = ShardPool::new(&adm_cfg, 1, batching.quantum(), false);
            // Warm pass: the first decision builds the tenant's models.
            std::hint::black_box(drive(&mut pool, &frames, batching));
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t = Instant::now();
                let r = drive(&mut pool, &frames, batching);
                best = best.min(t.elapsed().as_secs_f64());
                assert_eq!(r.len(), frames.len(), "lost responses in {what}");
            }
            pool.join();
            let decisions = frames.len() as u64;
            mode_per_decision.push(best / decisions as f64);
            push_row(
                &mut serve,
                what.into(),
                1,
                batching.quantum(),
                decisions,
                best,
            );
        }
        let (batched_s, sync_s) = (mode_per_decision[0], mode_per_decision[1]);
        let framing = Ablation {
            what: "serve batched vs per-request framing".into(),
            fast_s: batched_s,
            reference_s: sync_s,
            speedup: sync_s / batched_s.max(f64::MIN_POSITIVE),
        };
        println!(
            "  {:<36} fast {:>12.3e}s  reference {:>12.3e}s  speedup {:>6.2}x",
            framing.what, framing.fast_s, framing.reference_s, framing.speedup
        );
        assert!(
            framing.speedup >= 5.0,
            "batched framing must be >=5x per-request framing (got {:.2}x)",
            framing.speedup
        );
        ablations.push(framing);
        let (serve_per_s, warm_per_s) = (1.0 / batched_s, 1.0 / warm_per_decision);
        assert!(
            serve_per_s >= 0.5 * warm_per_s,
            "single-shard service throughput {serve_per_s:.3e}/s fell below half the \
             in-proc warm path {warm_per_s:.3e}/s"
        );

        // Deterministic replay gate, then the timed trace rows.
        let trace_cfg = nc_serve::fleet::request_config(11, 8, 250);
        let want = to_csv(&replay_inproc(&trace_cfg, &[]).decisions);
        for shards in [1usize, 2, 4] {
            if shards > host_cpus {
                println!(
                    "  skipping shards={shards} (> host_cpus={host_cpus}: oversubscription, \
                     not engine scaling)"
                );
                continue;
            }
            let batching = Batching::Batched { quantum };
            let got = replay_service(&trace_cfg, shards, batching, &[], false);
            assert_eq!(
                want,
                to_csv(&got.decisions),
                "service replay diverged from the in-proc engine at {shards} shard(s)"
            );
            let decisions = got.decisions.len() as u64;
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t = Instant::now();
                std::hint::black_box(replay_service(&trace_cfg, shards, batching, &[], false));
                best = best.min(t.elapsed().as_secs_f64());
            }
            push_row(
                &mut serve,
                "serve trace replay, 8 tenants x 250 arrivals".into(),
                shards,
                quantum,
                decisions,
                best,
            );
        }
    }

    let baseline = Baseline {
        schema: "nc-perfbase-v9",
        command: "cargo run --release -p nc-bench --bin perfbase",
        host_cpus,
        bins,
        sims,
        admission,
        serve,
        ablations,
        sweeps,
        par_scaling,
        publish_ablation,
    };
    let root = nc_bench::results_dir()
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let path = match std::env::var_os("PERFBASE_OUT") {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join("BENCH_9.json"),
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[written {}]", path.display());
}
