//! `model` — analyze any pipeline described in a JSON spec file: the
//! tool a downstream user runs on *their* streaming application.
//!
//! ```text
//! Usage: model <pipeline.json> [--sim <MiB>] [--budget <KiB>] [--seed <n>]
//!
//!   --sim <MiB>     also run the discrete-event simulation on that volume
//!   --budget <KiB>  report the max admissible source rate for a total
//!                   buffer budget (back-pressure sizing)
//!   --seed <n>      simulation seed (default 42)
//! ```
//!
//! A ready-made spec lives at `specs/example_pipeline.json`; rates,
//! latencies, and job sizes are plain numbers (bytes, seconds) or exact
//! `[num, den]` rationals.

use std::process::ExitCode;

use nc_core::num::Rat;
use nc_core::pipeline::Pipeline;
use nc_core::units::{fmt_bytes, fmt_rate, fmt_time};
use nc_core::Value;
use nc_streamsim::{simulate, SimConfig};

const USAGE: &str = "usage: model <pipeline.json> [--sim <MiB>] [--budget <KiB>] [--seed <n>]";

/// The `u64` after the flag at `args[i]`, converted by `conv`; the
/// usage error naming the flag when the value is missing, does not
/// parse, or `conv` rejects it as out of range.
fn flag_value<T>(
    args: &[String],
    i: usize,
    conv: impl FnOnce(u64) -> Option<T>,
) -> Result<T, String> {
    let flag = &args[i];
    args.get(i + 1)
        .and_then(|v| v.parse::<u64>().ok())
        .and_then(conv)
        .ok_or_else(|| format!("model: missing or out-of-range value for {flag}\n{USAGE}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut sim_bytes: Option<u64> = None;
    let mut budget: Option<Rat> = None;
    let mut seed = 42u64;
    let mut i = 1;
    while i < args.len() {
        let parsed = match args[i].as_str() {
            "--sim" => {
                flag_value(&args, i, |mib| mib.checked_mul(1 << 20)).map(|v| sim_bytes = Some(v))
            }
            "--budget" => flag_value(&args, i, |kib| {
                let bytes = i64::try_from(kib.checked_mul(1024)?).ok()?;
                Some(Rat::int(bytes))
            })
            .map(|v| budget = Some(v)),
            "--seed" => flag_value(&args, i, Some).map(|v| seed = v),
            other => Err(format!("unknown argument: {other}\n{USAGE}")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
        i += 2;
    }

    let raw = match std::fs::read_to_string(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pipeline: Pipeline = match serde_json::from_str(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = pipeline.validate() {
        eprintln!("invalid pipeline: {e}");
        return ExitCode::FAILURE;
    }

    let model = pipeline.build_model();
    println!(
        "pipeline '{}' ({} stages)",
        pipeline.name,
        pipeline.nodes.len()
    );
    println!("regime: {:?}", model.regime());
    println!(
        "normalized bottleneck (min/avg/max): {} / {} / {}",
        fmt_rate(Value::finite(model.bottleneck_rate_min)),
        fmt_rate(Value::finite(model.bottleneck_rate_avg)),
        fmt_rate(Value::finite(model.bottleneck_rate_max)),
    );
    println!(
        "total latency T_tot = {}",
        fmt_time(Value::finite(model.total_latency))
    );
    println!("\nper-node (normalized):");
    println!(
        "  {:<16} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "node", "rate_min", "rate_max", "job", "backlog", "delay"
    );
    for n in &model.per_node {
        println!(
            "  {:<16} {:>14} {:>14} {:>12} {:>12} {:>12}",
            n.name,
            fmt_rate(Value::finite(n.rate_min)),
            fmt_rate(Value::finite(n.rate_max)),
            fmt_bytes(Value::finite(n.job_in_normalized)),
            fmt_bytes(n.backlog),
            fmt_time(n.delay),
        );
    }
    println!("\nsystem bounds:");
    println!(
        "  backlog x = {} (aggregate) / {} (concatenated)",
        fmt_bytes(model.backlog_bound()),
        fmt_bytes(model.backlog_bound_concat())
    );
    println!(
        "  delay   d = {} (aggregate) / {} (concatenated)",
        fmt_time(model.delay_bound()),
        fmt_time(model.delay_bound_concat())
    );
    println!(
        "  heuristic estimates (finite in overload): x = {}, d = {}",
        fmt_bytes(Value::finite(model.heuristic_backlog())),
        fmt_time(model.heuristic_delay()),
    );

    if let Some(budget) = budget {
        match model.max_admissible_rate(budget) {
            Some(r) => println!(
                "\nmax admissible source rate for a {} buffer: {}",
                fmt_bytes(Value::finite(budget)),
                fmt_rate(Value::finite(r))
            ),
            None => println!(
                "\nno admissible rate: the source burst alone overflows {}",
                fmt_bytes(Value::finite(budget))
            ),
        }
    }

    if let Some(total_input) = sim_bytes {
        let cfg = SimConfig {
            seed,
            total_input,
            ..SimConfig::default()
        };
        let r = simulate(&pipeline, &cfg);
        println!("\nsimulation ({} MiB, seed {seed}):", total_input >> 20);
        println!("  throughput   = {:.1} MiB/s", r.throughput / 1048576.0);
        println!(
            "  delay range  = [{:.3}, {:.3}] ms",
            r.delay_min * 1e3,
            r.delay_max * 1e3
        );
        println!(
            "  peak backlog = {}",
            fmt_bytes(Value::finite(Rat::from_f64(r.peak_backlog)))
        );
        println!("  events       = {}", r.events);
    }
    ExitCode::SUCCESS
}
