//! perfbench — the end-to-end and per-layer benchmark of streamcalc.
//!
//! ```text
//! perfbench --serve-bin <path> --out-dir <dir> --workload <name> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two workloads reach the three stacks a performance change touches:
//! the admission service (`serve-saturate`: the `serve` binary in its
//! own process, driven over a Unix-domain socket) and the Monte Carlo
//! simulator (`sim-replicas`) end to end, and the sweep engine in the
//! traced runs. `--trace 0` measures the end-to-end metrics with no
//! instrumentation. `--trace 1` replays the inputs through nested
//! harnesses built from each layer's public functions and reports
//! every per-layer metric. Every run checks its outputs against an
//! oracle the repository already has. The last line of standard output
//! is one JSON object; `README.md` beside this package lists the
//! workloads, their metrics and the layer map.

mod layers;
mod serve;
mod sim;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeSaturate,
    SimReplicas,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeSaturate, Workload::SimReplicas];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSaturate => "serve-saturate",
            Workload::SimReplicas => "sim-replicas",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct Args {
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The end-to-end metrics every `--trace 0` run reports, with units.
/// `p99_us` is measured and printed too, but its run-to-run spread on a
/// shared 2-core host is wider than any bound that could guard it.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mib", "MiB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("proto.decode_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("proto.bytes_per_op", "bytes"),
    ("engine.decide_ns", "ns"),
    ("engine.depart_ns", "ns"),
    ("engine.tight_frac", "ratio"),
    ("engine.prefilter_frac", "ratio"),
    ("engine.remote_frac", "ratio"),
    ("engine.reject_frac", "ratio"),
    ("engine.resident", "count"),
    ("engine.reconfig_us", "us"),
    ("cache.evicted", "count"),
    ("cache.prefix_entries", "count"),
    ("cache.prefix_hit_frac", "ratio"),
    ("cache.op_hit_frac", "ratio"),
    ("cache.interned", "count"),
    ("shard.self_ns", "ns"),
    ("shard.frames_per_publish", "count"),
    ("shard.open_p50_us", "us"),
    ("service.self_ns", "ns"),
    ("service.wake_p50_us", "us"),
    ("service.protocol_errors", "count"),
    ("reconfig_p50_us", "us"),
    ("pipeline.build_ns", "ns"),
    ("pipeline.throughput_ns", "ns"),
    ("pipeline.bounds_ns", "ns"),
    ("sweep.expand_ns", "ns"),
    ("sweep.fanout_eff", "ratio"),
    ("streamsim.replica_us", "us"),
    ("streamsim.events_per_replica", "count"),
    ("streamsim.ns_per_event", "ns"),
    ("streamsim.retries", "count"),
    ("streamsim.dropped_jobs", "count"),
    ("tailload.config_us", "us"),
    ("tailload.fanout_eff", "ratio"),
    ("gen.late_p99_us", "us"),
    ("gen.outstanding_max", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Work items whose output was checked.
    pub attempted: u64,
    /// Work items with a missing, malformed or wrong output.
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// A human-readable line printed before the JSON result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one checked batch of work items.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// The result line: the listed metrics, in order, each with its
    /// unit. Any listed metric the run did not set reports 0.
    fn json(&self, listed: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = listed
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, listed: &[(&str, &str)]) {
        for line in &self.notes {
            println!("  {line}");
        }
        for &(name, unit) in listed {
            println!("  {name:<30} {:>16.4} {unit}", self.get(name));
        }
        if !listed.iter().any(|&(n, _)| n == "p99_us") && self.get("p99_us") > 0.0 {
            println!("  {:<30} {:>16.4} us", "p99_us", self.get("p99_us"));
        }
        println!(
            "  {:<30} {:>16.6} ratio ({} failed / {} attempted)",
            "fail_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!("{}", self.json(listed));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut serve_bin = None;
    let mut out_dir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        out_dir: out_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench")),
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // One `sim-replicas` cold start: a fresh process computing its
    // first validation round (see `sim::cold_setups`).
    if std::env::args().nth(1).as_deref() == Some("--cold") {
        sim::cold_child();
        return ExitCode::SUCCESS;
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    let steal0 = stats::steal_ticks();
    let run = match (args.workload, args.trace) {
        (_, true) => layers::traced(&args, &mut report),
        (Workload::ServeSaturate, false) => serve::saturate(&args, &mut report),
        (Workload::SimReplicas, false) => sim::run(&args, &mut report),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    report.note(format!(
        "host steal: {:.1}% of this machine's CPU time during the run",
        100.0 * stats::steal_share(steal0, stats::steal_ticks())
    ));
    report.print(if args.trace { &PER_LAYER } else { &END_TO_END });
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in `BENCHMARK.json` are the ones this program
    /// prints, name for name and unit for unit.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = json
                .split_once(&format!("\"{section}\""))
                .expect("section present")
                .1;
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry
                            .split_once(&format!("\"{key}\": \""))
                            .expect("field present")
                            .1;
                        rest[..rest.find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(&END_TO_END));
        assert_eq!(listed("per_layer"), want(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_and_clamps_failures() {
        let mut r = Report::default();
        r.set("p50_us", 12.5);
        r.check(10, 12);
        let line = r.json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 10,"));
        assert!(line.contains("\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(!line.contains("p99_us"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
