//! The BLAST application model (§4 of the paper, Figure 3, Table 1,
//! Figure 4).
//!
//! # Calibration
//!
//! The paper does not publish per-stage BLAST rates (they come from
//! Faber et al. \[12\]), so the stage parameters below are *calibrated*
//! to reproduce the published aggregates exactly (see DESIGN.md §5):
//!
//! * isolated normalized bottleneck rates 350 / 500 / 704 MiB/s — the
//!   GPU seed-match stage at local 87.5 / 125 / 176 MiB/s behind the
//!   4:1 `fa2bit` normalization (NC lower bound, queueing roofline, NC
//!   upper bound of Table 1);
//! * job-aggregation latency `T_tot ≈ 45 ms`, dominated by the FPGA
//!   block collection and the GPU batch composer (node E of Figure 3),
//!   reproducing `d ≈ 46.9 ms` and `x ≈ 20.6 MiB`;
//! * a *deployed* rate set for the simulator: \[12\] reports the real
//!   deployment ran ~30 % below the isolated-measurement roofline, and
//!   the paper's simulator (calibrated to deployment) lands at
//!   353 MiB/s — so the simulated seed-match stage runs at local
//!   86 / 88.75 / 91.5 MiB/s with dispatch overheads folded into the
//!   rates (zero standalone latency).
//!
//! The model's arrival envelope (425 MiB/s) exceeds the service rate:
//! the system operates in the paper's §3 overload regime, where the
//! backlog and delay figures are the closed-form heuristics. The
//! simulator drives at 356 MiB/s — just above the deployed bottleneck
//! capacity (≈354.8 MiB/s), the near-critical point the measured
//! deployment ran at.

use nc_core::num::Rat;
use nc_core::pipeline::{Node, NodeKind, Pipeline, PipelineModel, Source, StageRates};
use nc_core::units::{kib, mib, mib_per_s};
use nc_streamsim::{simulate, SimConfig, SimResult};

use crate::paper;
use crate::report::{BoundsReport, FigureSeries, ThroughputRow};

/// Seconds, from milliseconds.
fn ms(x: f64) -> Rat {
    nc_core::units::millis(x)
}

fn node(
    name: &str,
    kind: NodeKind,
    rates_mib: (f64, f64, f64),
    latency_ms: f64,
    job_in: Rat,
    job_out: Rat,
) -> Node {
    Node::new(
        name,
        kind,
        StageRates::new(
            mib_per_s(rates_mib.0),
            mib_per_s(rates_mib.1),
            mib_per_s(rates_mib.2),
        ),
        ms(latency_ms),
        job_in,
        job_out,
    )
}

/// The model's arrival envelope: 425 MiB/s of FASTA data in 1 MiB
/// bursts (the FPGA ingest capability).
pub fn source() -> Source {
    Source {
        rate: mib_per_s(425.0),
        burst: mib(1),
    }
}

/// The simulator's sustained drive: 356 MiB/s, just above the deployed
/// bottleneck capacity (harmonic mean of the deployed seed-match rates
/// ≈ 354.8 MiB/s normalized), so the run operates at the near-critical
/// point the measured deployment ran at.
pub fn sim_source() -> Source {
    Source {
        rate: mib_per_s(356.0),
        burst: mib(1),
    }
}

fn stages(seed_match_rates: (f64, f64, f64), gpu_latency_ms: f64, io_latency: bool) -> Vec<Node> {
    let l = |x: f64| if io_latency { x } else { 0.0 };
    vec![
        // FPGA fa2bit: 4:1 compression of FASTA to 2-bit (Figure 3).
        node(
            "fa2bit",
            NodeKind::Compute,
            (800.0, 900.0, 1000.0),
            l(1.0),
            mib(2),
            kib(512),
        ),
        // Node D: decomposes FPGA blocks for network delivery.
        node(
            "decompose",
            NodeKind::Compute,
            (300.0, 350.0, 400.0),
            l(0.2),
            kib(64),
            kib(64),
        ),
        // Host-to-host network link (10 GbE payload rate).
        node(
            "network",
            NodeKind::NetworkLink,
            (1178.0, 1178.0, 1178.0),
            l(1.0),
            kib(64),
            kib(64),
        ),
        // Node E: composes larger blocks for delivery to the GPU.
        node(
            "compose",
            NodeKind::Compute,
            (500.0, 550.0, 600.0),
            l(3.0),
            kib(768),
            kib(768),
        ),
        // GPU Mercator stages.
        node(
            "seed_match",
            NodeKind::Compute,
            seed_match_rates,
            l(gpu_latency_ms),
            kib(768),
            kib(192),
        ),
        node(
            "seed_enum",
            NodeKind::Compute,
            (100.0, 120.0, 140.0),
            l(gpu_latency_ms),
            kib(192),
            kib(384),
        ),
        node(
            "small_ext",
            NodeKind::Compute,
            (80.0, 90.0, 100.0),
            l(gpu_latency_ms),
            kib(384),
            kib(48),
        ),
        node(
            "ungapped_ext",
            NodeKind::Compute,
            (30.0, 35.0, 40.0),
            l(gpu_latency_ms),
            kib(48),
            kib(12),
        ),
    ]
}

/// Pipeline parameterized from **isolated** stage measurements — the
/// input to the network-calculus model and the queueing baseline.
pub fn isolated_pipeline() -> Pipeline {
    Pipeline::new(
        "BLAST (isolated measurements)",
        source(),
        stages((87.5, 125.0, 176.0), 7.0, true),
    )
}

/// Pipeline parameterized from **deployed** stage timings — the input
/// to the discrete-event simulation (dispatch overheads folded into the
/// measured rates, per the calibration note in the module docs).
pub fn deployed_pipeline() -> Pipeline {
    Pipeline::new(
        "BLAST (deployed timings)",
        sim_source(),
        stages((86.0, 88.75, 91.5), 0.0, false),
    )
}

/// Simulation configuration: a 1 GiB database scan (long enough that
/// pipeline fill/drain boundary effects stay below 1%). Queues are
/// unbounded like the paper's simulator (overflow handling is its
/// stated future work); the near-critical drive keeps them small.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        total_input: 1 << 30,
        source_chunk: Some(1 << 20),
        queue_capacities: None,
        trace: true,
        service_model: nc_streamsim::ServiceModel::Uniform,
        faults: None,
    }
}

/// Degraded-mode scenario (DESIGN.md §11, EXPERIMENTS.md §E-faults):
/// the deployed pipeline at a reduced 250 MiB/s drive — the degraded
/// bottleneck is ≈310 MiB/s normalized, so the faulted system stays
/// underloaded and the degraded bounds finite — with a 10 % GPU rate
/// derate on seed-match (thermal capping), a 2 ms-per-40 ms stall on
/// the batch composer (host paging), and a single 50 ms transient
/// outage on the network link.
pub fn faulted_pipeline() -> Pipeline {
    use nc_core::FaultModel;
    let mut p = deployed_pipeline();
    p.source = Source {
        rate: mib_per_s(250.0),
        burst: mib(1),
    };
    p.nodes[2].fault = Some(FaultModel::TransientOutage { duration: ms(50.0) });
    p.nodes[3].fault = Some(FaultModel::PeriodicStall {
        budget: ms(2.0),
        period: ms(40.0),
    });
    p.nodes[4].fault = Some(FaultModel::RateDerate {
        delta: Rat::new(1, 10),
    });
    p
}

/// Input volume of the faulted run: 256 MiB keeps the run ≈1 s long —
/// two orders above the largest fault window, so long-run throughput
/// is meaningful, while staying cheap enough for the test suite.
pub const FAULTED_TOTAL: u64 = 256 << 20;

/// The simulation realization of [`faulted_pipeline`]'s hypotheses
/// (blocking recovery, outage placement seeded within the horizon).
pub fn faulted_sim_config(seed: u64) -> SimConfig {
    let horizon = FAULTED_TOTAL as f64 / mib_per_s(250.0).to_f64();
    let schedule = nc_streamsim::FaultSchedule::from_pipeline(&faulted_pipeline(), seed, horizon);
    SimConfig {
        total_input: FAULTED_TOTAL,
        faults: Some(schedule),
        ..sim_config(seed)
    }
}

/// Full §4 reproduction: Table 1, the delay/backlog findings, and the
/// Figure 4 series.
pub struct BlastReproduction {
    /// Network-calculus model built from the isolated pipeline.
    pub model: PipelineModel,
    /// Simulation of the deployed pipeline.
    pub sim: SimResult,
    /// Table 1 rows (paper values attached).
    pub table1: Vec<ThroughputRow>,
    /// §4.2 delay/backlog comparison.
    pub bounds: BoundsReport,
}

/// Run the complete BLAST reproduction.
pub fn reproduce(seed: u64) -> BlastReproduction {
    let model = isolated_pipeline().build_model();
    let sim = simulate(&deployed_pipeline(), &sim_config(seed));

    const MIB: f64 = 1048576.0;
    let nc_upper = model.bottleneck_rate_max.to_f64() / MIB;
    let nc_lower = model.bottleneck_rate_min.to_f64() / MIB;
    let queueing = queueing_prediction(&model);
    let table1 = vec![
        ThroughputRow {
            source: "Network calculus upper bound".into(),
            ours_mib_s: nc_upper,
            paper_mib_s: Some(paper::table1::NC_UPPER),
        },
        ThroughputRow {
            source: "Network calculus lower bound".into(),
            ours_mib_s: nc_lower,
            paper_mib_s: Some(paper::table1::NC_LOWER),
        },
        ThroughputRow {
            source: "Discrete-event simulation model".into(),
            ours_mib_s: sim.throughput / MIB,
            paper_mib_s: Some(paper::table1::DES),
        },
        ThroughputRow {
            source: "Queueing theory prediction [12]".into(),
            ours_mib_s: queueing,
            paper_mib_s: Some(paper::table1::QUEUEING),
        },
        ThroughputRow {
            source: "Measured throughput [12] (paper)".into(),
            ours_mib_s: paper::table1::MEASURED,
            paper_mib_s: Some(paper::table1::MEASURED),
        },
    ];

    let bounds = BoundsReport {
        delay_bound_s: model.heuristic_delay().to_f64(),
        backlog_bound_bytes: model.heuristic_backlog().to_f64(),
        sim_delay_min_s: sim.delay_min,
        sim_delay_max_s: sim.delay_max,
        sim_backlog_bytes: sim.peak_backlog,
        paper_delay_bound_s: paper::blast_bounds::DELAY_BOUND,
        paper_backlog_bound_bytes: paper::blast_bounds::BACKLOG_BOUND,
        paper_sim_delay_s: (
            paper::blast_bounds::SIM_DELAY_MIN,
            paper::blast_bounds::SIM_DELAY_MAX,
        ),
        paper_sim_backlog_bytes: paper::blast_bounds::SIM_BACKLOG,
    };

    BlastReproduction {
        model,
        sim,
        table1,
        bounds,
    }
}

/// The queueing-theory roofline of \[12\]: the smallest normalized
/// *average* stage rate (offered load excluded — the roofline states
/// the application's capability).
pub fn queueing_prediction(model: &PipelineModel) -> f64 {
    let stages: Vec<nc_queueing::TandemStage> = model
        .per_node
        .iter()
        .map(|n| nc_queueing::TandemStage {
            name: n.name.clone(),
            rate: n.rate_avg.to_f64(),
        })
        .collect();
    let a = nc_queueing::analyze_tandem(1e15, &stages).expect("valid tandem");
    a.roofline / 1048576.0
}

/// Figure 4: α(t), β(t), α*(t) and the simulated stairstep.
pub fn figure4(repro: &BlastReproduction, samples: usize) -> FigureSeries {
    curve_figure("fig4", &repro.model, &repro.sim, samples)
}

pub(crate) fn curve_figure(
    name: &str,
    model: &PipelineModel,
    sim: &SimResult,
    samples: usize,
) -> FigureSeries {
    let t_max = Rat::from_f64(sim.makespan.max(1e-6));
    let sample = |c: &nc_core::Curve| -> Vec<(f64, f64)> {
        c.sample(t_max, samples)
            .into_iter()
            .map(|(t, v)| (t.to_f64(), v.to_f64()))
            .collect()
    };
    // In the overload regime the exact α* = (α⊗γ)⊘β is infinite; the
    // paper plots the §3 closed-form heuristic LB(R_α, b + R_α·T_tot)
    // instead (the same hypothesis behind its finite backlog/delay
    // estimates).
    let alpha_star = match nc_core::bounds::classify_regime(&model.arrival, &model.service) {
        nc_core::Regime::Overloaded => {
            let rate = match model.arrival.ultimate_slope() {
                nc_core::Value::Finite(r) => r,
                _ => Rat::ZERO,
            };
            nc_core::curve::shapes::leaky_bucket(rate, model.heuristic_backlog())
        }
        _ => model.output_bound(),
    };
    // Decimate the sim trace to a plottable size.
    let stride = (sim.trace_out.len() / (samples * 4)).max(1);
    let sim_pts: Vec<(f64, f64)> = sim.trace_out.iter().step_by(stride).copied().collect();
    FigureSeries {
        name: name.into(),
        alpha: sample(&model.arrival),
        beta: sample(&model.service),
        alpha_star: sample(&alpha_star),
        sim: sim_pts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::Regime;

    const MIB: f64 = 1048576.0;

    #[test]
    fn isolated_model_matches_table1_bounds() {
        let m = isolated_pipeline().build_model();
        // Calibrated: 350 / 500 / 704 MiB/s normalized bottlenecks.
        assert!((m.bottleneck_rate_min.to_f64() / MIB - 350.0).abs() < 0.5);
        assert!((m.bottleneck_rate_avg.to_f64() / MIB - 500.0).abs() < 0.5);
        assert!((m.bottleneck_rate_max.to_f64() / MIB - 704.0).abs() < 0.5);
        // Overload regime: offered 425 > deployed service — the paper's
        // §3 discussion case.
        assert_eq!(m.regime(), Regime::Overloaded);
    }

    #[test]
    fn normalization_follows_figure3_job_ratios() {
        let m = isolated_pipeline().build_model();
        let norms: Vec<f64> = m
            .per_node
            .iter()
            .map(|n| n.normalization.to_f64())
            .collect();
        // fa2bit at 1, everything after the 4:1 at 4, then the GPU
        // filters expand the factor further.
        assert_eq!(norms[0], 1.0);
        assert_eq!(norms[1], 4.0);
        assert_eq!(norms[4], 4.0);
        assert_eq!(norms[5], 16.0); // after seed_match 4:1 volume filter
        assert_eq!(norms[6], 8.0); // seed_enum doubles volume
        assert_eq!(norms[7], 64.0);
    }

    #[test]
    fn heuristic_bounds_near_paper() {
        let m = isolated_pipeline().build_model();
        let d = m.heuristic_delay().to_f64();
        let x = m.heuristic_backlog().to_f64();
        assert!(
            (d - paper::blast_bounds::DELAY_BOUND).abs() / paper::blast_bounds::DELAY_BOUND < 0.10,
            "delay bound {d} vs paper {}",
            paper::blast_bounds::DELAY_BOUND
        );
        assert!(
            (x - paper::blast_bounds::BACKLOG_BOUND).abs() / paper::blast_bounds::BACKLOG_BOUND
                < 0.10,
            "backlog bound {x} vs paper {}",
            paper::blast_bounds::BACKLOG_BOUND
        );
    }

    #[test]
    fn deployed_sim_reproduces_measured_throughput() {
        let r = simulate(&deployed_pipeline(), &sim_config(7));
        let thr = r.throughput / MIB;
        assert!(
            (thr - paper::table1::MEASURED).abs() / paper::table1::MEASURED < 0.03,
            "sim throughput {thr} vs measured 355"
        );
    }

    #[test]
    fn queueing_prediction_matches_roofline() {
        let m = isolated_pipeline().build_model();
        let q = queueing_prediction(&m);
        assert!((q - paper::table1::QUEUEING).abs() < 1.0, "queueing {q}");
    }

    #[test]
    fn faulted_blast_sim_within_degraded_bounds() {
        use nc_core::Regime;
        let model = faulted_pipeline().build_model();
        assert_eq!(model.regime(), Regime::Underloaded);
        let d = model.delay_bound_concat().as_finite().unwrap().to_f64();
        let x = model.backlog_bound_concat().as_finite().unwrap().to_f64();
        let r = simulate(&faulted_pipeline(), &faulted_sim_config(9));
        assert!(r.delay_max <= d * (1.0 + 1e-6), "{} > {d}", r.delay_max);
        assert!(
            r.peak_backlog <= x * (1.0 + 1e-6) + 1.0,
            "{} > {x}",
            r.peak_backlog
        );
        // The degraded guaranteed rate still lower-bounds throughput on
        // this long (≈1 s, fill/drain-amortized) run.
        let tb = model.throughput_over(nc_core::num::Rat::from_f64(r.makespan));
        assert!(
            r.throughput >= tb.lower.to_f64() * (1.0 - 1e-6),
            "throughput {} below degraded NC lower bound {}",
            r.throughput,
            tb.lower.to_f64()
        );
    }

    #[test]
    fn full_reproduction_consistency() {
        let r = reproduce(42);
        // Errors under 15% for every row with a paper value.
        for row in &r.table1 {
            if let Some(e) = row.rel_error() {
                assert!(e.abs() < 0.15, "{}: {:+.1}%", row.source, e * 100.0);
            }
        }
        // The paper's corroboration claim holds in our reproduction.
        assert!(
            r.bounds.sim_within_bounds(),
            "sim delay {} / backlog {} vs bounds {} / {}",
            r.bounds.sim_delay_max_s,
            r.bounds.sim_backlog_bytes,
            r.bounds.delay_bound_s,
            r.bounds.backlog_bound_bytes,
        );
        // Figure 4: the stairstep stays between β and α*.
        let fig = figure4(&r, 64);
        assert!(fig.sim_between_bounds(1024.0));
    }
}
