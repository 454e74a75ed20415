//! Tail-SLO validation (EXPERIMENTS.md §E-tail): closed-form
//! stochastic tail bounds vs the Monte Carlo engine.
//!
//! For each `tailload` scenario and each tail level
//! `p ∈ {0.9, 0.99, 0.999}` (budget `ε = 1 − p`), the analytic
//! [`Pipeline::tail_bounds`](nc_core::pipeline::Pipeline) delay and
//! backlog are compared against the empirical nearest-rank p-quantile
//! of `TAIL_REPLICAS` (default 10 000) independently seeded replicas.
//! Containment — analytic ≥ empirical, both finite — is asserted for
//! every row before the CSV is written; the per-stage-sum delay and
//! the deterministic (ε = 0) delay ride along as ablation columns.
//!
//! Replicas are striped over `NC_THREADS` workers and merged in
//! replica order, so `results/tail.csv` (override the name with
//! `TAIL_OUT`, as the `check.sh` smoke gate does) is byte-identical
//! for every worker count.

use std::time::Instant;

use nc_bench::tailload;
use nc_core::num::{rat, Rat, Value};
use nc_core::pipeline::ModelCache;
use nc_streamsim::Quantiles;
use nc_sweep::env_size;

/// A bound must be finite to be chartable (and for the containment
/// check to mean anything).
fn finite(v: Value, what: &str, scenario: &str, eps: Rat) -> f64 {
    match v.as_finite() {
        Some(r) => r.to_f64(),
        None => panic!("{scenario}: {what} bound not finite at eps = {eps}"),
    }
}

fn main() {
    let replicas = env_size("TAIL_REPLICAS", 10_000) as u64;
    let out = std::env::var("TAIL_OUT").unwrap_or_else(|_| "tail.csv".into());
    let workers = nc_sweep::workers();

    let levels: [(&str, Rat); 3] = [
        ("0.9", rat(1, 10)),
        ("0.99", rat(1, 100)),
        ("0.999", rat(1, 1000)),
    ];

    let mut csv = String::from(
        "scenario,p,eps,replicas,tail_delay_s,emp_delay_s,tail_backlog_bytes,\
         emp_backlog_bytes,stage_sum_delay_s,det_delay_s,within\n",
    );
    let mut cache = ModelCache::new();
    let mut violations: Vec<String> = Vec::new();

    for scenario in tailload::scenarios() {
        let t0 = Instant::now();
        let obs = tailload::replicate(&scenario, replicas, workers);
        let sim_s = t0.elapsed().as_secs_f64();
        let mut q_delay = Quantiles::from_samples(obs.iter().map(|o| o.delay_max));
        let mut q_backlog = Quantiles::from_samples(obs.iter().map(|o| o.peak_backlog));

        let spec = scenario.spec();
        let t0 = Instant::now();
        let det = scenario
            .pipeline
            .tail_bounds_cached(&spec, Rat::ZERO, &mut cache);
        let det_delay = finite(det.delay, "deterministic delay", scenario.name, Rat::ZERO);

        for (p_label, eps) in levels {
            let tb = scenario.pipeline.tail_bounds_cached(&spec, eps, &mut cache);
            let tail_delay = finite(tb.delay, "delay", scenario.name, eps);
            let tail_backlog = finite(tb.backlog, "backlog", scenario.name, eps);
            let stage_sum = finite(tb.delay_stage_sum, "stage-sum delay", scenario.name, eps);
            let p: f64 = p_label.parse().expect("level literal");
            let emp_delay = q_delay.quantile(p).expect("non-empty sample");
            let emp_backlog = q_backlog.quantile(p).expect("non-empty sample");

            let within = tail_delay >= emp_delay && tail_backlog >= emp_backlog;
            if !within {
                violations.push(format!(
                    "{} p={}: tail delay {:.3e} vs empirical {:.3e}, \
                     tail backlog {:.3e} vs empirical {:.3e}",
                    scenario.name, p_label, tail_delay, emp_delay, tail_backlog, emp_backlog
                ));
            }
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}\n",
                scenario.name,
                p_label,
                eps.to_f64(),
                replicas,
                tail_delay,
                emp_delay,
                tail_backlog,
                emp_backlog,
                stage_sum,
                det_delay,
                within
            ));
        }
        println!(
            "{:>14}: {} replicas in {:.2}s ({} workers), bounds {:.3}s; \
             det delay {:.3e}s, empirical max {:.3e}s",
            scenario.name,
            replicas,
            sim_s,
            workers,
            t0.elapsed().as_secs_f64(),
            det_delay,
            obs.iter().map(|o| o.delay_max).fold(0.0, f64::max),
        );
    }

    assert!(
        violations.is_empty(),
        "tail containment violated:\n{}",
        violations.join("\n")
    );
    nc_bench::emit(&out, &csv);
    println!("tail: all rows contained; wrote results/{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ε = 0 bound is the deterministic worst case: it must
    /// contain every replica's delay and backlog outright.
    #[test]
    fn deterministic_bound_contains_every_replica() {
        let scenario = &tailload::scenarios()[0]; // bitw, fault-free
        let obs = tailload::replicate(scenario, 24, 2);
        let det = scenario.pipeline.tail_bounds(&scenario.spec(), Rat::ZERO);
        let delay = det.delay.as_finite().expect("finite").to_f64();
        let backlog = det.backlog.as_finite().expect("finite").to_f64();
        for o in &obs {
            assert!(o.delay_max <= delay, "replica {}", o.replica);
            assert!(o.peak_backlog <= backlog, "replica {}", o.replica);
        }
    }

    /// Budgeted bounds still contain the matching empirical quantile
    /// on a small sample (the full 10⁴-replica check runs in the bin).
    #[test]
    fn budgeted_bound_contains_small_sample_quantile() {
        let scenario = &tailload::scenarios()[1]; // bitw-faulted
        let obs = tailload::replicate(scenario, 40, 2);
        let mut q = Quantiles::from_samples(obs.iter().map(|o| o.delay_max));
        let tb = scenario.pipeline.tail_bounds(&scenario.spec(), rat(1, 10));
        let bound = tb.delay.as_finite().expect("finite").to_f64();
        assert!(bound >= q.quantile(0.9).expect("non-empty"));
    }
}
