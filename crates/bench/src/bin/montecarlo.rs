//! Monte-Carlo replication of the paper's simulations: run both
//! applications over many seeds on `NC_THREADS` workers and report
//! mean ± spread for every simulated quantity, demonstrating that the
//! single-seed numbers in Tables 1/3 are representative. Also runs the
//! service-model ablation (uniform vs exponential vs deterministic
//! stages) across the replication set.
//!
//! Artifacts: `results/montecarlo.txt` and `results/montecarlo.json`.

use nc_apps::{bitw, blast};
use nc_streamsim::{simulate_in, Quantiles, ServiceModel, SimArena, SimResult};
use serde::Serialize;

const MIB: f64 = 1048576.0;
const SEEDS: u64 = 32;

#[derive(Clone, Debug, Serialize)]
struct Summary {
    what: String,
    n: usize,
    mean: f64,
    min: f64,
    max: f64,
    stddev: f64,
    /// Nearest-rank sample quantiles (p50/p99/p99.9). Degenerate
    /// samples follow the mean/stddev guards: zeros when empty, the
    /// single observation when n = 1.
    p50: f64,
    p99: f64,
    p999: f64,
}

fn summarize(what: &str, xs: &[f64]) -> Summary {
    let n = xs.len();
    // Degenerate sizes: an empty sample has no mean (report zeros, not
    // NaN/±inf from 0/0 and empty folds); a single observation has no
    // spread, so its sample standard deviation is 0 by definition —
    // and is itself every nearest-rank quantile.
    if n == 0 {
        return Summary {
            what: what.into(),
            n,
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            stddev: 0.0,
            p50: 0.0,
            p99: 0.0,
            p999: 0.0,
        };
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let stddev = if n < 2 {
        0.0
    } else {
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    };
    let mut quants = Quantiles::from_samples(xs.iter().copied());
    Summary {
        what: what.into(),
        n,
        mean,
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        stddev,
        p50: quants.quantile(0.50).expect("non-empty"),
        p99: quants.quantile(0.99).expect("non-empty"),
        p999: quants.quantile(0.999).expect("non-empty"),
    }
}

fn fmt(s: &Summary, unit: &str, scale: f64) -> String {
    format!(
        "  {:<44} {:>9.2} ± {:>6.3} {unit}  (range [{:.2}, {:.2}], p50/p99/p99.9 {:.2}/{:.2}/{:.2}, n={})",
        s.what,
        s.mean * scale,
        s.stddev * scale,
        s.min * scale,
        s.max * scale,
        s.p50 * scale,
        s.p99 * scale,
        s.p999 * scale,
        s.n
    )
}

/// Run `sim` for seeds `0..seeds` over `workers` threads, results in
/// seed order. Each worker keeps one SimArena, so replications after
/// its first reuse the grown step ring, output trace and agenda instead
/// of reallocating.
fn per_seed<O: Send>(
    seeds: u64,
    workers: usize,
    sim: impl Fn(&mut SimArena, u64) -> O + Sync,
) -> Vec<O> {
    let seeds: Vec<u64> = (0..seeds).collect();
    let (runs, _) = nc_sweep::stripe(&seeds, workers, SimArena::new, |arena, &s| sim(arena, s));
    runs
}

/// Build the full replication artifact for a given replication count.
/// Everything emitted is a pure function of `seeds` (and `scale_rows`):
/// [`per_seed`] returns results in seed order, and every reduction is
/// over that ordered vector — so the output is byte-identical
/// run-to-run for any `workers`. Wall-clock timings go to stdout only,
/// never into the returned artifact.
fn replicate(seeds: u64, scale_rows: bool, workers: usize) -> (String, Vec<Summary>) {
    let mut out = String::from("Monte-Carlo replication (parallel over seeds)\n\n");
    let mut all: Vec<Summary> = Vec::new();

    // --- BLAST (shorter runs than the headline config for 32x). ---
    let blast_runs: Vec<SimResult> = per_seed(seeds, workers, |arena, seed| {
        let mut cfg = blast::sim_config(seed);
        cfg.total_input = 256 << 20;
        simulate_in(arena, &blast::deployed_pipeline(), &cfg)
    });
    let thr: Vec<f64> = blast_runs.iter().map(|r| r.throughput / MIB).collect();
    let dmax: Vec<f64> = blast_runs.iter().map(|r| r.delay_max * 1e3).collect();
    let backlog: Vec<f64> = blast_runs.iter().map(|r| r.peak_backlog / MIB).collect();
    let s = summarize("BLAST sim throughput (paper 353 MiB/s)", &thr);
    out.push_str(&fmt(&s, "MiB/s", 1.0));
    out.push('\n');
    all.push(s);
    let s = summarize("BLAST sim max delay (paper 46.4 ms)", &dmax);
    out.push_str(&fmt(&s, "ms", 1.0));
    out.push('\n');
    all.push(s);
    let s = summarize("BLAST sim peak backlog (paper ~20 MiB)", &backlog);
    out.push_str(&fmt(&s, "MiB", 1.0));
    out.push('\n');
    all.push(s);

    // --- Bump in the wire. ---
    let bitw_runs: Vec<(SimResult, SimResult)> = per_seed(seeds, workers, |arena, seed| {
        (
            simulate_in(arena, &bitw::sim_pipeline(), &bitw::sim_config(seed)),
            simulate_in(
                arena,
                &bitw::light_pipeline(),
                &bitw::sim_config(seed ^ 0xABCD),
            ),
        )
    });
    let thr: Vec<f64> = bitw_runs.iter().map(|(r, _)| r.throughput / MIB).collect();
    let dmax: Vec<f64> = bitw_runs.iter().map(|(_, l)| l.delay_max * 1e6).collect();
    let s = summarize("BITW sim throughput (paper 61 MiB/s)", &thr);
    out.push_str(&fmt(&s, "MiB/s", 1.0));
    out.push('\n');
    all.push(s);
    let s = summarize("BITW light-load max delay (paper 36.7 us)", &dmax);
    out.push_str(&fmt(&s, "us", 1.0));
    out.push('\n');
    all.push(s);

    // --- Service-model ablation on the BITW bottleneck. ---
    let ablation_seeds = seeds.min(8);
    out.push_str("\nservice-model ablation (BITW, same load, 8 seeds each):\n");
    for model in [
        ServiceModel::Deterministic,
        ServiceModel::Uniform,
        ServiceModel::Exponential,
    ] {
        let runs: Vec<SimResult> = per_seed(ablation_seeds, workers, |arena, seed| {
            let mut cfg = bitw::sim_config(seed);
            cfg.service_model = model;
            simulate_in(arena, &bitw::light_pipeline(), &cfg)
        });
        let dm: Vec<f64> = runs.iter().map(|r| r.delay_max * 1e6).collect();
        let s = summarize(&format!("{model:?} service, max delay"), &dm);
        out.push_str(&fmt(&s, "us", 1.0));
        out.push('\n');
        all.push(s);
    }
    out.push_str(
        "\nExponential (Markovian) stages queue hardest — the M/M/1 baseline's\n\
         assumption — while the paper's uniform model sits near deterministic:\n\
         the measured-variability gap behind the queueing prediction's optimism.\n",
    );

    // --- Scale rows (PR 3): the regimes the ROADMAP north-star cares
    // about. 1 GiB stochastic runs are affordable with tracing off
    // (constant-memory input window); the 16 GiB deterministic run
    // rides the cycle-jump fast-forward, so its wall time is set by the
    // warmup + drain, not the 100M+ virtual events it accounts for.
    if !scale_rows {
        return (out, all);
    }
    out.push_str("\nscale replication (trace off):\n");
    let bitw_1g: Vec<SimResult> = per_seed(4, workers, |arena, seed| {
        let mut cfg = bitw::sim_config(seed);
        cfg.trace = false;
        cfg.total_input = 1 << 30;
        simulate_in(arena, &bitw::sim_pipeline(), &cfg)
    });
    let thr: Vec<f64> = bitw_1g.iter().map(|r| r.throughput / MIB).collect();
    let s = summarize("BITW 1 GiB sim throughput", &thr);
    out.push_str(&fmt(&s, "MiB/s", 1.0));
    out.push('\n');
    all.push(s);

    let mut cfg_det = bitw::sim_config(0);
    cfg_det.trace = false;
    cfg_det.total_input = 16u64 << 30;
    cfg_det.service_model = ServiceModel::Deterministic;
    let bitw_p = bitw::sim_pipeline();
    cfg_det.queue_capacities = Some(vec![64 << 10; bitw_p.nodes.len()]);
    let t = std::time::Instant::now();
    let det = simulate_in(&mut SimArena::new(), &bitw_p, &cfg_det);
    let wall = t.elapsed().as_secs_f64();
    let s = summarize(
        "BITW 16 GiB deterministic throughput (cycle-jump)",
        &[det.throughput / MIB],
    );
    out.push_str(&fmt(&s, "MiB/s", 1.0));
    out.push('\n');
    // Wall time goes to stdout only: the emitted artifact must stay
    // byte-deterministic run-to-run (it is md5-compared in review).
    out.push_str(&format!(
        "  ({} virtual events fast-forwarded)\n",
        det.events
    ));
    println!(
        "16 GiB deterministic run: {} virtual events in {:.1} ms wall",
        det.events,
        wall * 1e3
    );
    all.push(s);

    (out, all)
}

fn main() {
    // NC_THREADS pins the replication fan-out width; `replicate` is a
    // pure function of the seed count, so the artifacts are
    // byte-identical for every worker count.
    let (out, all) = replicate(SEEDS, true, nc_sweep::workers());
    nc_bench::emit("montecarlo.txt", &out);
    nc_bench::emit_json("montecarlo.json", &all);
}

#[cfg(test)]
mod tests {
    use super::{replicate, summarize};

    /// The determinism contract behind the md5-compared artifact: the
    /// same replication count at the same width produces byte-identical
    /// text and JSON, twice in a row.
    #[test]
    fn replication_artifact_is_byte_deterministic() {
        let (out1, all1) = replicate(3, false, 2);
        let (out2, all2) = replicate(3, false, 2);
        assert_eq!(out1, out2);
        let j1 = serde_json::to_string_pretty(&all1).unwrap();
        let j2 = serde_json::to_string_pretty(&all2).unwrap();
        assert_eq!(j1, j2);
    }

    /// The whole artifact — the text and the JSON summaries, quantile
    /// columns included — must be identical for every worker count, not
    /// just for every rerun at one width: compare 1, 2 and 4 workers
    /// (the NC_THREADS widths the CI gate exercises) byte for byte.
    #[test]
    fn artifact_is_identical_across_worker_counts() {
        let render = |workers| {
            let (out, all) = replicate(3, false, workers);
            (out, serde_json::to_string_pretty(&all).unwrap())
        };
        let reference = render(1);
        for workers in [2usize, 4] {
            assert_eq!(
                render(workers),
                reference,
                "artifact diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn summarize_empty_is_all_zeros_not_nan() {
        let s = summarize("none", &[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!((s.p50, s.p99, s.p999), (0.0, 0.0, 0.0));
    }

    #[test]
    fn summarize_single_observation_has_zero_stddev() {
        let s = summarize("one", &[42.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.5);
        assert_eq!(s.min, 42.5);
        assert_eq!(s.max, 42.5);
        assert_eq!(s.stddev, 0.0);
        // A single observation is every nearest-rank quantile.
        assert_eq!((s.p50, s.p99, s.p999), (42.5, 42.5, 42.5));
    }

    #[test]
    fn summarize_pair_matches_sample_stddev() {
        let s = summarize("two", &[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        // Sample (n-1) stddev of {1, 3} is sqrt(2).
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
        // Nearest-rank on n = 2: p50 is rank ⌈1⌉ = the minimum, the
        // upper tails land on the maximum.
        assert_eq!((s.p50, s.p99, s.p999), (1.0, 3.0, 3.0));
    }
}
