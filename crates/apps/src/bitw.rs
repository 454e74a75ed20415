//! The bump-in-the-wire application model (§5 of the paper, Figure 9,
//! Tables 2–3, Figure 10).
//!
//! Pipeline (Figure 9): LZ4 compress → AES-256-CBC encrypt → FPGA TCP
//! network → decrypt → decompress → PCIe to host, with all rates taken
//! from the paper's Table 2.
//!
//! # Compression-ratio scenarios
//!
//! The paper's normalization makes the compression ratio part of the
//! model: "the lower bound service curve corresponds to a compression
//! ratio of 1.0 and the maximum service curve will correspond to the
//! maximum compression ratio." We therefore build three pipelines:
//!
//! * **pessimistic** — min rates, ratio 1.0 → the NC lower bound;
//! * **average** — avg rates, ratio 2.2 (jobs 1100:500) → the queueing
//!   prediction (encrypt: 68 × 2.2 ≈ 150 MiB/s, the paper's 151);
//! * **optimistic** — max rates, ratio 5.3 (jobs 1060:200) → the NC
//!   upper bound (encrypt: 75 × 5.3 ≈ 397 MiB/s; the paper prints 313
//!   = 59 × 5.3, applying the max ratio to its lower bound — both
//!   conventions are reported by the harness and recorded in
//!   EXPERIMENTS.md).
//!
//! The simulator mirrors the paper's stated simplification ("we instead
//! assume that data will be gathered at maximum in 1 KiB normalized
//! chunks"): ratio-1.0 jobs of 1 KiB with uniform(min,max) stage times.
//! Two runs reproduce the paper's two kinds of observation: a
//! *saturating* run for the Table 3 throughput (capacity ≈64 MiB/s,
//! just above the lower bound) and a *light-load* run for the delay and
//! backlog observations (see [`light_source`]).

use nc_core::num::Rat;
use nc_core::pipeline::{Node, NodeKind, Pipeline, PipelineModel, Source, StageRates};
use nc_core::units::{mib_per_s, micros};
use nc_streamsim::{simulate, SimConfig, SimResult};
use nc_workloads::link::LinkModel;
use nc_workloads::measure::{measure_repeated, StageMeasurement};

use crate::paper;
use crate::report::{BoundsReport, FigureSeries, ThroughputRow};

/// Compression-ratio scenario selecting rates and job ratios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Ratio 1.0 with minimum rates: the service-curve (lower-bound)
    /// parameterization.
    Pessimistic,
    /// Ratio 2.2 with average rates: the queueing parameterization.
    Average,
    /// Ratio 5.3 with maximum rates: the max-service (upper-bound)
    /// parameterization.
    Optimistic,
}

impl Scenario {
    /// `(job_in, job_out)` of the compressor: exact rationals realizing
    /// the paper's observed ratios around a ~1 KiB chunk.
    fn compress_jobs(self) -> (i64, i64) {
        match self {
            Scenario::Pessimistic => (1024, 1024), // ratio 1.0
            Scenario::Average => (1100, 500),      // ratio 2.2
            Scenario::Optimistic => (1060, 200),   // ratio 5.3
        }
    }
}

/// The model's arrival envelope: a 91 MiB/s leaky bucket with 1 KiB
/// burst — the peak host-DMA ingest rate. The paper's own backlog
/// figure implies this envelope: `x = b + R_α·T_tot ≈ 3 KiB` requires
/// `R_α ≈ 91 MiB/s` at `T_tot ≈ 21 µs`.
pub fn source() -> Source {
    Source {
        rate: mib_per_s(91.0),
        burst: Rat::int(1024),
    }
}

/// The simulator's saturating drive for the *throughput* run:
/// 70 MiB/s exceeds the encrypt bottleneck's uniform-mean capacity
/// (harmonic mean of 56 and 75 ≈ 64.1 MiB/s), so the measured
/// throughput is the pipeline's capacity — landing just above the NC
/// lower bound, as the paper's simulation does.
pub fn sim_source() -> Source {
    Source {
        rate: mib_per_s(70.0),
        burst: Rat::int(1024),
    }
}

/// The light drive for the *latency* run: 40 MiB/s keeps queueing
/// negligible (utilization ≈0.62 at the encrypt bottleneck), so the
/// observed end-to-end delays are essentially the per-stage service
/// sojourns — the regime in which the paper's reported delay range
/// (25.7–36.7 µs against a 38 µs bound) is self-consistent.
pub fn light_source() -> Source {
    Source {
        rate: mib_per_s(40.0),
        burst: Rat::int(1024),
    }
}

fn node(
    name: &str,
    kind: NodeKind,
    rates_mib: (f64, f64, f64),
    latency_us: f64,
    job_in: i64,
    job_out: i64,
) -> Node {
    // Table 2 lists (avg, min, max).
    let (avg, min, max) = rates_mib;
    Node::new(
        name,
        kind,
        StageRates::new(mib_per_s(min), mib_per_s(avg), mib_per_s(max)),
        micros(latency_us),
        Rat::int(job_in),
        Rat::int(job_out),
    )
}

/// Build the §5 pipeline for one compression-ratio scenario.
pub fn pipeline(scenario: Scenario) -> Pipeline {
    use paper::table2 as t2;
    let (cin, cout) = scenario.compress_jobs();
    Pipeline::new(
        "bump-in-the-wire",
        source(),
        vec![
            node("compress", NodeKind::Compute, t2::COMPRESS, 2.0, cin, cout),
            node("encrypt", NodeKind::Compute, t2::ENCRYPT, 3.0, cout, cout),
            node(
                "network",
                NodeKind::NetworkLink,
                t2::NETWORK,
                10.0,
                cout,
                cout,
            ),
            node("decrypt", NodeKind::Compute, t2::DECRYPT, 3.0, cout, cout),
            node(
                "decompress",
                NodeKind::Compute,
                t2::DECOMPRESS,
                2.0,
                cout,
                cin,
            ),
            node("pcie", NodeKind::PcieLink, t2::PCIE, 1.0, cin, cin),
        ],
    )
}

/// The pipeline as the throughput simulation drives it: pessimistic
/// (ratio-1.0) jobs at the saturating load.
pub fn sim_pipeline() -> Pipeline {
    let mut p = pipeline(Scenario::Pessimistic);
    p.source = sim_source();
    fold_latencies(&mut p);
    p
}

/// The pipeline as the latency simulation drives it.
pub fn light_pipeline() -> Pipeline {
    let mut p = pipeline(Scenario::Pessimistic);
    p.source = light_source();
    fold_latencies(&mut p);
    p
}

/// The simulator folds per-stage dispatch latencies into the measured
/// service rates (as deployment traces do); the standalone `T_n` terms
/// belong to the analytical model.
fn fold_latencies(p: &mut Pipeline) {
    for n in &mut p.nodes {
        n.latency = Rat::ZERO;
    }
}

/// Simulation configuration (paper's simplification: 1 KiB normalized
/// chunks, unbounded queues, a short 2 MiB transfer — the scale at
/// which the paper's reported 2 KiB peak backlog is achievable at
/// near-critical load).
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        total_input: 2 << 20,
        source_chunk: Some(1024),
        queue_capacities: None,
        trace: true,
        service_model: nc_streamsim::ServiceModel::Uniform,
        faults: None,
    }
}

/// Backoff parameters of the retry scenario: first retry after 20 µs,
/// doubling to a 160 µs cap.
pub const RETRY_BASE: f64 = 20.0e-6;
/// Capped exponential backoff ceiling of the retry scenario.
pub const RETRY_CAP: f64 = 160.0e-6;

/// Degraded-mode scenario (DESIGN.md §11, EXPERIMENTS.md §E-faults):
/// the light-load pipeline with three fault hypotheses attached — a
/// periodic 50 µs-per-ms stall on the compressor (firmware
/// housekeeping), a 15 % rate derate on the encrypt bottleneck
/// (thermal capping), and a single 200 µs transient outage on the
/// network link. Model and simulator share this pipeline, so the
/// degraded NC bounds must contain every faulted simulation run.
pub fn faulted_pipeline() -> Pipeline {
    use nc_core::units::millis;
    use nc_core::FaultModel;
    let mut p = light_pipeline();
    p.nodes[0].fault = Some(FaultModel::PeriodicStall {
        budget: micros(50.0),
        period: millis(1.0),
    });
    p.nodes[1].fault = Some(FaultModel::RateDerate {
        delta: Rat::new(3, 20),
    });
    p.nodes[2].fault = Some(FaultModel::TransientOutage {
        duration: micros(200.0),
    });
    p
}

/// Run horizon of the faulted simulation (seconds): how long the light
/// drive needs to push `sim_config`'s 2 MiB through. Outage placements
/// drawn within it are guaranteed to be exercised by the run.
fn faulted_horizon() -> f64 {
    (2 << 20) as f64 / light_source().rate.to_f64()
}

/// The simulation realization of [`faulted_pipeline`]'s hypotheses:
/// blocking recovery everywhere (the semantics the degraded curves
/// cover directly), outage placement seeded within the run horizon.
pub fn faulted_sim_config(seed: u64) -> SimConfig {
    let schedule =
        nc_streamsim::FaultSchedule::from_pipeline(&faulted_pipeline(), seed, faulted_horizon());
    SimConfig {
        faults: Some(schedule),
        ..sim_config(seed)
    }
}

/// Retry variant of the degraded scenario: the network stage *retries*
/// transmissions that complete inside the outage window, with capped
/// exponential backoff. Retrying re-executes work, which a degraded
/// service curve cannot express directly; the sound analysis-side
/// model is a longer outage — the window itself, plus the backoff cap,
/// plus one worst-case re-execution (DESIGN.md §11).
pub fn faulted_retry_pipeline() -> Pipeline {
    use nc_core::FaultModel;
    let mut p = faulted_pipeline();
    // One worst-case network (re-)execution of a 1 KiB chunk.
    let exec_max = Rat::int(1024) / mib_per_s(paper::table2::NETWORK.1);
    p.nodes[2].fault = Some(FaultModel::TransientOutage {
        duration: micros(200.0) + Rat::from_f64(RETRY_CAP) + exec_max,
    });
    p
}

/// Simulation realization of the retry scenario: the *physical* faults
/// of [`faulted_pipeline`] (the real 200 µs outage, not the inflated
/// analysis window) with the network stage switched to retry recovery.
pub fn faulted_retry_sim_config(seed: u64) -> SimConfig {
    let mut schedule =
        nc_streamsim::FaultSchedule::from_pipeline(&faulted_pipeline(), seed, faulted_horizon());
    schedule.stages[2].recovery = nc_streamsim::RecoveryPolicy::Retry {
        base: RETRY_BASE,
        cap: RETRY_CAP,
    };
    SimConfig {
        faults: Some(schedule),
        ..sim_config(seed)
    }
}

/// Full §5 reproduction: Table 3, the delay/backlog findings, Figure 10.
pub struct BitwReproduction {
    /// Pessimistic-scenario model (lower bounds).
    pub model_lower: PipelineModel,
    /// Saturating-throughput simulation (pessimistic jobs).
    pub sim: SimResult,
    /// Table 3 rows.
    pub table3: Vec<ThroughputRow>,
    /// §5 delay/backlog comparison.
    pub bounds: BoundsReport,
}

/// Run the complete bump-in-the-wire reproduction.
pub fn reproduce(seed: u64) -> BitwReproduction {
    let model_lower = pipeline(Scenario::Pessimistic).build_model();
    let model_avg = pipeline(Scenario::Average).build_model();
    let model_upper = pipeline(Scenario::Optimistic).build_model();
    let sim = simulate(&sim_pipeline(), &sim_config(seed));
    let sim_light = simulate(&light_pipeline(), &sim_config(seed.wrapping_add(1)));

    const MIB: f64 = 1048576.0;
    let nc_lower = model_lower.bottleneck_rate_min.to_f64() / MIB;
    let nc_upper = model_upper.bottleneck_rate_max.to_f64() / MIB;
    let queueing = crate::blast::queueing_prediction(&model_avg);
    // The paper's upper-bound convention: max compression ratio applied
    // to the lower-bound rate.
    let nc_upper_paper_method = nc_lower * paper::table2::RATIOS.2;

    let table3 = vec![
        ThroughputRow {
            source: "Network calculus upper bound".into(),
            ours_mib_s: nc_upper,
            paper_mib_s: Some(paper::table3::NC_UPPER),
        },
        ThroughputRow {
            source: "  (paper's lower x max-ratio method)".into(),
            ours_mib_s: nc_upper_paper_method,
            paper_mib_s: Some(paper::table3::NC_UPPER),
        },
        ThroughputRow {
            source: "Network calculus lower bound".into(),
            ours_mib_s: nc_lower,
            paper_mib_s: Some(paper::table3::NC_LOWER),
        },
        ThroughputRow {
            source: "Discrete-event simulation model".into(),
            ours_mib_s: sim.throughput / MIB,
            paper_mib_s: Some(paper::table3::DES),
        },
        ThroughputRow {
            source: "Queueing theory prediction".into(),
            ours_mib_s: queueing,
            paper_mib_s: Some(paper::table3::QUEUEING),
        },
    ];

    let bounds = BoundsReport {
        delay_bound_s: model_lower.heuristic_delay().to_f64(),
        backlog_bound_bytes: model_lower.heuristic_backlog().to_f64(),
        sim_delay_min_s: sim_light.delay_min,
        sim_delay_max_s: sim_light.delay_max,
        sim_backlog_bytes: sim_light.peak_backlog,
        paper_delay_bound_s: paper::bitw_bounds::DELAY_BOUND,
        paper_backlog_bound_bytes: paper::bitw_bounds::BACKLOG_BOUND,
        paper_sim_delay_s: (
            paper::bitw_bounds::SIM_DELAY_MIN,
            paper::bitw_bounds::SIM_DELAY_MAX,
        ),
        paper_sim_backlog_bytes: paper::bitw_bounds::SIM_BACKLOG,
    };

    BitwReproduction {
        model_lower,
        sim,
        table3,
        bounds,
    }
}

/// Figure 10: α(t), β(t), α*(t) and the simulated stairstep (the paper
/// drops γ from this plot; so do we).
pub fn figure10(repro: &BitwReproduction, samples: usize) -> FigureSeries {
    crate::blast::curve_figure("fig10", &repro.model_lower, &repro.sim, samples)
}

/// One row of a regenerated Table 2.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Table2Row {
    /// Stage name.
    pub function: String,
    /// Our measured (avg, min, max) in MiB/s.
    pub ours: (f64, f64, f64),
    /// The paper's (avg, min, max) in MiB/s.
    pub paper: (f64, f64, f64),
}

/// Regenerate Table 2 by measuring *our* kernels in isolation (the
/// paper's methodology on our CPU substrate): LZ4 compress/decompress,
/// AES-256-CBC encrypt/decrypt, and the link models. Absolute numbers
/// differ from the paper's FPGA kernels — the reproduction keeps the
/// *structure* (min ≤ avg ≤ max per stage, compression ratios measured
/// not assumed); the NC models consume the paper's Table 2 values.
pub fn measure_table2(chunk_bytes: usize, reps: usize) -> (Vec<Table2Row>, f64) {
    use nc_workloads::aes::{cbc_encrypt_raw, Aes256};
    use nc_workloads::lz4;
    use rand::{Rng, SeedableRng};

    // Text-like input with realistic entropy: random words from a small
    // vocabulary give an LZ4 ratio in the paper's observed 2–3x band
    // (a repeated literal pattern would compress 100x+ and make the
    // decompressor's rate meaningless).
    let vocab: [&[u8]; 12] = [
        b"stream", b"data", b"node", b"queue", b"rate", b"burst", b"delay", b"fpga", b"gpu",
        b"link", b"curve", b"bound",
    ];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
    let mut data = Vec::with_capacity(chunk_bytes + 16);
    while data.len() < chunk_bytes {
        data.extend_from_slice(vocab[rng.gen_range(0..vocab.len())]);
        data.push(b' ');
        if rng.gen_bool(0.1) {
            data.extend_from_slice(format!("{} ", rng.gen_range(0..10_000)).as_bytes());
        }
    }
    data.truncate(chunk_bytes);

    let m_compress = measure_repeated(&data, reps, 1, |c| lz4::compress(c).len());
    let compressed = lz4::compress(&data);
    let ratio = data.len() as f64 / compressed.len() as f64;
    // Decompression throughput is reported against the *produced*
    // (raw) volume, matching how the Vitis kernel numbers are quoted.
    let m_dec_raw = measure_repeated(&compressed, reps, 1, |c| {
        lz4::decompress(c, chunk_bytes)
            .map(|v| v.len())
            .unwrap_or(0)
    });
    let scale = ratio;
    let m_decompress = StageMeasurement {
        min: m_dec_raw.min * scale,
        avg: m_dec_raw.avg * scale,
        max: m_dec_raw.max * scale,
        bytes: m_dec_raw.bytes,
        chunks: m_dec_raw.chunks,
    };

    let key = [0x42u8; 32];
    let iv = [7u8; 16];
    let aes = Aes256::new(&key);
    let mut block = vec![0u8; (chunk_bytes / 16) * 16];
    let m_encrypt = measure_repeated(&data[..block.len()], reps, 1, |c| {
        block.copy_from_slice(c);
        cbc_encrypt_raw(&aes, &iv, &mut block);
        block[0]
    });
    // Decrypt measured over the same block count.
    let mut enc = block.clone();
    let m_decrypt = measure_repeated(&enc.clone(), reps, 1, |c| {
        enc.copy_from_slice(c);
        let _ = nc_workloads::aes::cbc_decrypt_raw(&aes, &iv, &mut enc);
        enc[0]
    });

    let net = LinkModel::ten_gbe();
    let pcie = LinkModel::pcie_gen3_x16();
    const MIB: f64 = 1048576.0;
    let link_row = |l: &LinkModel| {
        let r = l.effective_rate(chunk_bytes as u64) / MIB;
        let asym = l.asymptotic_rate() / MIB;
        (asym.min(r * 1.5), r.min(asym), asym)
    };

    let tup = |m: &StageMeasurement| {
        let (lo, avg, hi) = m.mib_per_s();
        (avg, lo, hi)
    };
    use paper::table2 as t2;
    let rows = vec![
        Table2Row {
            function: "Compress".into(),
            ours: tup(&m_compress),
            paper: t2::COMPRESS,
        },
        Table2Row {
            function: "Encrypt".into(),
            ours: tup(&m_encrypt),
            paper: t2::ENCRYPT,
        },
        Table2Row {
            function: "Network".into(),
            ours: link_row(&net),
            paper: t2::NETWORK,
        },
        Table2Row {
            function: "Decrypt".into(),
            ours: tup(&m_decrypt),
            paper: t2::DECRYPT,
        },
        Table2Row {
            function: "Decompress".into(),
            ours: tup(&m_decompress),
            paper: t2::DECOMPRESS,
        },
        Table2Row {
            function: "PCIe link".into(),
            ours: link_row(&pcie),
            paper: t2::PCIE,
        },
    ];
    (rows, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1048576.0;

    #[test]
    fn scenarios_hit_paper_normalized_rates() {
        let lower = pipeline(Scenario::Pessimistic).build_model();
        // Bottleneck: encrypt at min rate, ratio 1.0 → 56 MiB/s.
        assert!((lower.bottleneck_rate_min.to_f64() / MIB - 56.0).abs() < 0.1);

        let avg = pipeline(Scenario::Average).build_model();
        // Encrypt 68 × 2.2 = 149.6 ≈ the paper's queueing 151.
        assert!((avg.bottleneck_rate_avg.to_f64() / MIB - 149.6).abs() < 0.5);

        let upper = pipeline(Scenario::Optimistic).build_model();
        // Encrypt 75 × 5.3 = 397.5.
        assert!((upper.bottleneck_rate_max.to_f64() / MIB - 397.5).abs() < 1.0);
    }

    #[test]
    fn normalization_is_input_referred() {
        let m = pipeline(Scenario::Average).build_model();
        let norms: Vec<f64> = m
            .per_node
            .iter()
            .map(|n| n.normalization.to_f64())
            .collect();
        assert_eq!(norms[0], 1.0); // compress sees raw input
        assert!((norms[1] - 2.2).abs() < 1e-9); // encrypt sees compressed
        assert!((norms[4] - 2.2).abs() < 1e-9); // decompress input side
        assert!((norms[5] - 1.0).abs() < 1e-9); // PCIe sees raw again
    }

    #[test]
    fn heuristic_bounds_near_paper() {
        let m = pipeline(Scenario::Pessimistic).build_model();
        let d = m.heuristic_delay().to_f64();
        // Paper: 38 µs.
        assert!(
            (d - paper::bitw_bounds::DELAY_BOUND).abs() / paper::bitw_bounds::DELAY_BOUND < 0.05,
            "delay bound {d}"
        );
        let x = m.heuristic_backlog().to_f64();
        // Paper: 3 KiB; ours ≈ 2.4 KiB (documented –20% in
        // EXPERIMENTS.md — the paper's offered-load rate is unpublished).
        assert!(
            (x - paper::bitw_bounds::BACKLOG_BOUND).abs() / paper::bitw_bounds::BACKLOG_BOUND
                < 0.30,
            "backlog bound {x}"
        );
    }

    #[test]
    fn sim_lands_just_above_lower_bound() {
        let r = simulate(&sim_pipeline(), &sim_config(3));
        let thr = r.throughput / MIB;
        // Paper: 61 MiB/s between the 59 lower bound and queueing 151.
        assert!(
            (56.0..70.0).contains(&thr),
            "sim throughput {thr} out of the near-critical band"
        );
    }

    #[test]
    fn full_reproduction_consistency() {
        let r = reproduce(42);
        for row in &r.table3 {
            if let Some(e) = row.rel_error() {
                // The γ-convention upper bound is allowed its documented
                // +27% (paper applies the max ratio to the lower bound).
                let tol = if row.source.contains("upper") {
                    0.30
                } else {
                    0.20
                };
                assert!(
                    e.abs() < tol,
                    "{}: {:+.1}% (ours {} vs paper {:?})",
                    row.source,
                    e * 100.0,
                    row.ours_mib_s,
                    row.paper_mib_s
                );
            }
        }
        // Simulated delay and backlog corroborate the bounds.
        assert!(
            r.bounds.sim_within_bounds(),
            "sim delay {} / backlog {} vs bounds {} / {}",
            r.bounds.sim_delay_max_s,
            r.bounds.sim_backlog_bytes,
            r.bounds.delay_bound_s,
            r.bounds.backlog_bound_bytes,
        );
        let fig = figure10(&r, 64);
        assert!(fig.sim_between_bounds(1024.0));
    }

    #[test]
    fn faulted_bitw_stays_underloaded_with_weaker_bounds() {
        use nc_core::Regime;
        let clean = light_pipeline().build_model();
        let faulted = faulted_pipeline().build_model();
        assert_eq!(faulted.regime(), Regime::Underloaded);
        // Degradation strictly weakens the guaranteed bounds.
        let d_clean = clean.delay_bound_concat().as_finite().unwrap().to_f64();
        let d_faulted = faulted.delay_bound_concat().as_finite().unwrap().to_f64();
        assert!(d_faulted > d_clean, "{d_faulted} vs {d_clean}");
        let x_clean = clean.backlog_bound_concat().as_finite().unwrap().to_f64();
        let x_faulted = faulted.backlog_bound_concat().as_finite().unwrap().to_f64();
        assert!(x_faulted > x_clean, "{x_faulted} vs {x_clean}");
        // The retry model is weaker still (longer outage window).
        let retry = faulted_retry_pipeline().build_model();
        let d_retry = retry.delay_bound_concat().as_finite().unwrap().to_f64();
        assert!(d_retry > d_faulted, "{d_retry} vs {d_faulted}");
    }

    #[test]
    fn faulted_bitw_sim_within_degraded_bounds() {
        let model = faulted_pipeline().build_model();
        let d = model.delay_bound_concat().as_finite().unwrap().to_f64();
        let x = model.backlog_bound_concat().as_finite().unwrap().to_f64();
        for seed in [5, 17] {
            let r = simulate(&faulted_pipeline(), &faulted_sim_config(seed));
            assert!(
                r.delay_max <= d * (1.0 + 1e-6),
                "seed {seed}: {} > {d}",
                r.delay_max
            );
            assert!(r.peak_backlog <= x * (1.0 + 1e-6) + 1.0, "seed {seed}");
            // The faults actually bit: throughput below the clean run's.
            let clean = simulate(&light_pipeline(), &sim_config(seed));
            assert!(r.makespan > clean.makespan, "fault schedule had no effect");
        }
    }

    #[test]
    fn faulted_retry_sim_within_its_degraded_bounds() {
        let model = faulted_retry_pipeline().build_model();
        let d = model.delay_bound_concat().as_finite().unwrap().to_f64();
        let x = model.backlog_bound_concat().as_finite().unwrap().to_f64();
        let mut any_retry = false;
        for seed in [5, 17, 23] {
            let r = simulate(&faulted_pipeline(), &faulted_retry_sim_config(seed));
            assert!(
                r.delay_max <= d * (1.0 + 1e-6),
                "seed {seed}: {} > {d}",
                r.delay_max
            );
            assert!(r.peak_backlog <= x * (1.0 + 1e-6) + 1.0, "seed {seed}");
            // Retries never lose data.
            assert_eq!(r.dropped_jobs, 0);
            any_retry |= r.retries > 0;
        }
        assert!(any_retry, "no seed exercised the retry path");
    }

    #[test]
    fn table2_measurement_shape() {
        // Small sizes: this validates structure, not absolute speed.
        let (rows, ratio) = measure_table2(64 << 10, 3);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            let (avg, min, max) = row.ours;
            assert!(min <= avg + 1e-9 && avg <= max + 1e-9, "{:?}", row);
            assert!(min > 0.0);
        }
        // The synthetic text input compresses.
        assert!(ratio > 1.5, "ratio {ratio}");
    }
}
