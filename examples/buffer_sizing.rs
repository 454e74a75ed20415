//! Buffer sizing from per-node backlog bounds — the paper's stated
//! developer payoff ("the contributions of the data occupancy bounds
//! that are due to each node … can assist a developer in allocating
//! buffers") and its future-work direction ("utilizing network calculus
//! to guide the sizing and allocation of buffers").
//!
//! We size each queue from the NC per-node backlog bound, run the
//! simulator with exactly those capacities, and verify the pipeline
//! neither deadlocks nor loses throughput; a halved allocation is run
//! alongside for comparison (with this workload's backpressure it still
//! keeps up — the bound is a worst case, as bounds should be).
//!
//! Run with `cargo run --release --example buffer_sizing`.

use streamcalc::core::num::Rat;
use streamcalc::core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
use streamcalc::core::units::{fmt_bytes, mib, mib_per_s};
use streamcalc::core::Value;
use streamcalc::streamsim::{simulate, SimConfig};

fn pipeline() -> Pipeline {
    Pipeline::new(
        "buffer-sizing demo",
        Source {
            rate: mib_per_s(200.0),
            burst: mib(1),
        },
        vec![
            Node::new(
                "ingest",
                NodeKind::Compute,
                StageRates::new(mib_per_s(400.0), mib_per_s(450.0), mib_per_s(500.0)),
                Rat::new(1, 1000),
                mib(1),
                mib(1),
            ),
            Node::new(
                "transform",
                NodeKind::Compute,
                StageRates::new(mib_per_s(250.0), mib_per_s(280.0), mib_per_s(310.0)),
                Rat::new(2, 1000),
                mib(1),
                mib(1),
            ),
            Node::new(
                "publish",
                NodeKind::NetworkLink,
                StageRates::fixed(mib_per_s(1100.0)),
                Rat::new(1, 1000),
                mib(1) / Rat::int(4),
                mib(1) / Rat::int(4),
            ),
        ],
    )
}

fn run_with_caps(caps: Option<Vec<u64>>) -> (f64, f64) {
    let p = pipeline();
    let r = simulate(
        &p,
        &SimConfig {
            seed: 11,
            total_input: 256 << 20,
            source_chunk: Some(1 << 20),
            queue_capacities: caps,
            service_model: streamcalc::streamsim::ServiceModel::Uniform,
            trace: false,
            faults: None,
        },
    );
    (r.throughput / 1048576.0, r.peak_backlog / 1048576.0)
}

fn main() {
    let model = pipeline().build_model();
    println!("per-node backlog bounds (NC):");
    let mut caps: Vec<u64> = Vec::new();
    for (m, node) in model.per_node.iter().zip(&pipeline().nodes) {
        let bound = match m.backlog {
            Value::Finite(x) => x.to_f64(),
            _ => f64::INFINITY,
        };
        // Buffer = per-node bound, converted back to local bytes and
        // rounded up to whole jobs.
        let local = bound / m.normalization.to_f64();
        let job = node.job_in.to_f64();
        let jobs = (local / job).ceil().max(2.0);
        let cap = (jobs * job) as u64;
        println!(
            "  {:<10} bound {:>10}  -> buffer {:>10} local bytes ({} jobs)",
            m.name,
            fmt_bytes(m.backlog),
            cap,
            jobs as u64
        );
        caps.push(cap);
    }

    let (thr_unbounded, peak_unbounded) = run_with_caps(None);
    let (thr_sized, peak_sized) = run_with_caps(Some(caps.clone()));
    let halved: Vec<u64> = caps
        .iter()
        .zip(&pipeline().nodes)
        .map(|(&c, n)| (c / 2).max(n.job_in.to_f64() as u64 * 2))
        .collect();
    let (thr_halved, _) = run_with_caps(Some(halved));

    println!("\nsimulation (256 MiB, 200 MiB/s offered):");
    println!("  unbounded queues : {thr_unbounded:.1} MiB/s, peak backlog {peak_unbounded:.2} MiB");
    println!("  NC-sized buffers : {thr_sized:.1} MiB/s, peak backlog {peak_sized:.2} MiB");
    println!("  half-size buffers: {thr_halved:.1} MiB/s");

    // NC-sized buffers sacrifice < 2% throughput vs unbounded.
    assert!(
        thr_sized > 0.98 * thr_unbounded,
        "NC sizing lost throughput"
    );
    println!("\nNC-sized buffers preserve throughput (within 2%): OK");
}
