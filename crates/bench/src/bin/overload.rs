//! E10 artifact: the overload sweep (the paper's §6 future-work
//! direction). Sweeps the offered load across the three §3 regimes and
//! records, per point: the exact backlog bound (diverging at overload),
//! the closed-form heuristic, and the simulator's observations.
//!
//! The sweep itself runs on the `nc-sweep` engine (grid expansion +
//! parallel evaluation with per-worker caches); this bin only formats
//! the surfaces into the stable CSV schemas. Two surfaces are emitted:
//! the stochastic sweep now pushes 1 GiB per point (affordable since
//! the engine keeps only the in-flight input window with tracing off),
//! and `overload_det.csv` re-runs the axis with 16 GiB per point under
//! the deterministic service model with bounded queues, where the
//! cycle-jump fast-forward advances the backpressured steady state in
//! closed form (DESIGN.md §10).

use nc_core::num::Rat;
use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use nc_core::units::mib_per_s;
use nc_streamsim::SimConfig;
use nc_sweep::{Axis, Param, SweepSpec};

fn base_pipeline() -> Pipeline {
    Pipeline::new(
        "overload sweep",
        Source {
            rate: mib_per_s(40.0), // placeholder: the sweep axis sets it
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
    )
}

fn main() {
    const MIB: f64 = 1048576.0;
    let spec = SweepSpec {
        base: base_pipeline(),
        axes: vec![Axis::linspace(
            Param::SourceRate,
            mib_per_s(40.0),
            mib_per_s(160.0),
            25,
        )],
        horizons: vec![],
        sim: Some(SimConfig {
            seed: 5,
            total_input: 1 << 30,
            source_chunk: Some(64 << 10),
            queue_capacities: None,
            service_model: nc_streamsim::ServiceModel::Uniform,
            trace: false,
            faults: None,
        }),
        tail: None,
    };
    let surface = nc_sweep::run(&spec);

    let mut csv =
        String::from("offered_mib_s,regime,exact_backlog_mib,heuristic_backlog_mib,sim_throughput_mib_s,sim_peak_backlog_mib,sim_delay_max_ms,bottleneck_utilization\n");
    for p in &surface.points {
        let sim = p.sim.as_ref().expect("sweep ran with sim enabled");
        let exact = match p.backlog {
            nc_core::Value::Finite(x) => format!("{:.4}", x.to_f64() / MIB),
            _ => "inf".into(),
        };
        csv.push_str(&format!(
            "{},{:?},{exact},{:.4},{:.2},{:.4},{:.3},{:.3}\n",
            p.coords[0].to_f64() / MIB,
            p.regime,
            p.heuristic_backlog.to_f64() / MIB,
            sim.throughput / MIB,
            sim.peak_backlog / MIB,
            sim.delay_max * 1e3,
            sim.utilization[0],
        ));
    }
    nc_bench::emit("overload_sweep.csv", &csv);

    // Deterministic 16 GiB variant: bounded queues turn the overloaded
    // points into a backpressured periodic steady state, which the
    // cycle-jump fast-forward advances in closed form — so each point
    // costs warmup + drain regardless of the 16 GiB volume.
    let det_spec = SweepSpec {
        base: base_pipeline(),
        axes: vec![Axis::linspace(
            Param::SourceRate,
            mib_per_s(40.0),
            mib_per_s(160.0),
            25,
        )],
        horizons: vec![],
        sim: Some(SimConfig {
            seed: 5,
            total_input: 16 << 30,
            source_chunk: Some(64 << 10),
            queue_capacities: Some(vec![4 << 20; base_pipeline().nodes.len()]),
            service_model: nc_streamsim::ServiceModel::Deterministic,
            trace: false,
            faults: None,
        }),
        tail: None,
    };
    let det_surface = nc_sweep::run(&det_spec);
    let mut det_csv = String::from(
        "offered_mib_s,regime,sim_throughput_mib_s,sim_peak_backlog_mib,sim_delay_max_ms,bottleneck_utilization,events,fc_delay_ms,fc_backlog_mib,fc_stage_sum_ms\n",
    );
    for p in &det_surface.points {
        let sim = p.sim.as_ref().expect("sweep ran with sim enabled");
        // Closed-form backpressure bounds (finite even in overload:
        // the bounded queue gates admission, and the flow-control
        // analysis runs on the deterministic twin the engine actually
        // simulates). check.sh asserts per-row containment against
        // the DES columns.
        let fc = p.flowctl.as_ref().expect("bounded queues -> fc bounds");
        det_csv.push_str(&format!(
            "{},{:?},{:.2},{:.4},{:.3},{:.3},{},{:.3},{:.4},{:.3}\n",
            p.coords[0].to_f64() / MIB,
            p.regime,
            sim.throughput / MIB,
            sim.peak_backlog / MIB,
            sim.delay_max * 1e3,
            sim.utilization[0],
            sim.events,
            fc.delay.to_f64() * 1e3,
            fc.backlog.to_f64() / MIB,
            fc.per_stage_sum.to_f64() * 1e3,
        ));
    }
    nc_bench::emit("overload_det.csv", &det_csv);
}
