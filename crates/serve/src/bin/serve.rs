//! `serve` — the networked admission service and its replay client.
//!
//! Modes (exactly one):
//!
//! * `serve --listen <ep>` — bind the service and run until a
//!   `Shutdown` frame arrives. Prints `listening on <ep>` once ready.
//! * `serve --replay <ep> [--out <path>] [--no-verify] [--whatif N]`
//!   — drive the canonical seeded trace through a running server,
//!   write the decision CSV, and byte-compare it against the in-proc
//!   oracle (exit 1 on any difference).
//! * `serve --inproc [--out <path>]` — write the in-proc oracle CSV.
//! * `serve --shutdown <ep>` — send a lone `Shutdown` frame.
//!
//! `<ep>` is a UDS path, or `tcp:HOST:PORT`. A flag with a missing or
//! unparsable value prints the usage line and exits 1; a runtime
//! failure (an endpoint that will not bind or connect, a broken
//! connection, an unwritable `--out`) prints `serve: <what>: <error>`
//! and exits 1. The fleet shape
//! comes from the same environment knobs as the `admit` bin —
//! `ADMIT_FLEET` (default 32 tenants) × `ADMIT_REQS` (default 250
//! flows/tenant), seed 11 — plus `ADMIT_RECONFIGS` reconfiguration
//! events per tenant (default 0), `SERVE_SHARDS` engine workers
//! (default 1), `NC_PUB_QUANTUM` frames per ring publication (default
//! 256), and `SERVE_VERIFY=1` to oracle-check the engine after every
//! applied reconfiguration. The size knobs go through
//! `nc_sweep::env_size`: a malformed value warns and keeps the default.

use std::path::PathBuf;
use std::process::ExitCode;

use nc_serve::proto::WhatIfFrame;
use nc_serve::replay::{replay_inproc, request_frames, to_csv};
use nc_serve::service::{Client, Endpoint, Server};
use nc_serve::{fleet, RequestFrame, ResponseFrame};
use nc_sweep::env_size;
use nc_workloads::requests::{generate, reconfig_events, ReconfigEvent, RequestConfig};

const USAGE: &str = "usage: serve --listen <ep> | --replay <ep> [--out <path>] [--no-verify] \
                     [--whatif <points>] | --inproc [--out <path>] | --shutdown <ep>";

fn endpoint(arg: &str) -> Option<Endpoint> {
    match arg.strip_prefix("tcp:") {
        Some(addr) => addr.parse().ok().map(Endpoint::Tcp),
        None => Some(Endpoint::Uds(PathBuf::from(arg))),
    }
}

/// The value of `flag` (`flag <what>`), parsed: a missing or
/// unparsable value is a usage error naming the flag.
fn value<T>(
    flag: &str,
    what: &str,
    arg: Option<&String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    match arg {
        None => Err(format!("{flag} needs a value: {flag} {what}")),
        Some(v) => parse(v).ok_or_else(|| format!("{flag} {what}: cannot parse {v:?}")),
    }
}

fn fleet_config() -> (RequestConfig, Vec<ReconfigEvent>) {
    let tenants = env_size("ADMIT_FLEET", 32);
    let per_tenant = env_size("ADMIT_REQS", 250);
    let cfg = fleet::request_config(11, tenants, per_tenant);
    let per_tenant_events = env_size("ADMIT_RECONFIGS", 0);
    let events = reconfig_events(&cfg, per_tenant_events, fleet::RECONFIG_TIERS as u32);
    (cfg, events)
}

/// `<ep>` as the command line spells it.
fn show(ep: &Endpoint) -> String {
    match ep {
        Endpoint::Uds(path) => path.display().to_string(),
        Endpoint::Tcp(addr) => format!("tcp:{addr}"),
    }
}

fn write_out(out: Option<&PathBuf>, csv: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            if let Some(dir) = path.parent() {
                // A failure here surfaces as the write's error.
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(path, csv).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("serve: wrote {}", path.display());
        }
        None => print!("{csv}"),
    }
    Ok(())
}

/// The parsed command line.
#[derive(Default)]
struct Args {
    listen: Option<Endpoint>,
    replay: Option<Endpoint>,
    inproc: bool,
    shutdown: Option<Endpoint>,
    out: Option<PathBuf>,
    no_verify: bool,
    whatif: u32,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => a.listen = Some(value(arg, "<ep>", it.next(), endpoint)?),
            "--replay" => a.replay = Some(value(arg, "<ep>", it.next(), endpoint)?),
            "--shutdown" => a.shutdown = Some(value(arg, "<ep>", it.next(), endpoint)?),
            "--inproc" => a.inproc = true,
            "--out" => a.out = Some(value(arg, "<path>", it.next(), |v| Some(v.into()))?),
            "--no-verify" => a.no_verify = true,
            "--whatif" => a.whatif = value(arg, "<points>", it.next(), |v| v.parse().ok())?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the selected mode; `Err` is a runtime failure, already labelled.
fn run(args: Args) -> Result<ExitCode, String> {
    let (cfg, events) = fleet_config();

    if let Some(ep) = args.listen {
        let shards = env_size("SERVE_SHARDS", 1);
        let quantum = env_size("NC_PUB_QUANTUM", 256);
        let verify = std::env::var("SERVE_VERIFY").is_ok_and(|v| v.trim() == "1");
        let server = Server::bind(&ep, &cfg, shards, quantum, verify)
            .map_err(|e| format!("bind {}: {e}", show(&ep)))?;
        println!(
            "nc-serve: listening on {ep:?} ({} tenants, {shards} shard(s), quantum {quantum}, \
             verify {verify})",
            cfg.tenants
        );
        let stats = server.run().map_err(|e| format!("event loop: {e}"))?;
        println!(
            "nc-serve: served {} decisions, {} reconfigurations, {} what-ifs over {} \
             connection(s), {} protocol error(s)",
            stats.decisions,
            stats.reconfigs,
            stats.whatifs,
            stats.connections,
            stats.protocol_errors
        );
        return Ok(ExitCode::SUCCESS);
    }

    if args.inproc {
        let oracle = replay_inproc(&cfg, &events);
        write_out(args.out.as_ref(), &to_csv(&oracle.decisions))?;
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(ep) = args.replay {
        let trace = generate(&cfg);
        let mut frames = request_frames(&trace, &events);
        if args.whatif > 0 {
            frames.push(RequestFrame::WhatIf(WhatIfFrame {
                id: 1,
                tenant: 0,
                points: args.whatif,
            }));
        }
        let mut client = Client::connect(&ep).map_err(|e| format!("connect {}: {e}", show(&ep)))?;
        let t0 = std::time::Instant::now();
        let responses = client
            .replay(&frames)
            .map_err(|e| format!("replay to {}: {e}", show(&ep)))?;
        let dt = t0.elapsed();
        let mut decisions = Vec::new();
        let mut reconfigs = 0usize;
        let mut applied = 0usize;
        for r in responses {
            match r {
                ResponseFrame::Decision(d) => decisions.push(d),
                ResponseFrame::Reconfigured(rc) => {
                    reconfigs += 1;
                    applied += rc.applied as usize;
                }
                ResponseFrame::WhatIf(a) => println!(
                    "serve: what-if tenant {} — {}/{} grid points feasible",
                    a.tenant, a.feasible, a.points
                ),
            }
        }
        decisions.sort_by_key(|d| d.seq);
        let csv = to_csv(&decisions);
        println!(
            "serve: {} decisions over the wire in {dt:.2?} ({:.0} decisions/s), {reconfigs} \
             reconfiguration(s) ({applied} applied)",
            decisions.len(),
            decisions.len() as f64 / dt.as_secs_f64()
        );
        write_out(args.out.as_ref(), &csv)?;
        if !args.no_verify {
            let oracle = replay_inproc(&cfg, &events);
            let want = to_csv(&oracle.decisions);
            if csv == want {
                println!("serve: service output is byte-identical to the in-proc oracle");
            } else {
                eprintln!("serve: MISMATCH between service output and in-proc oracle");
                return Ok(ExitCode::FAILURE);
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(ep) = args.shutdown {
        let mut client = Client::connect(&ep).map_err(|e| format!("connect {}: {e}", show(&ep)))?;
        client
            .shutdown()
            .map_err(|e| format!("shutdown {}: {e}", show(&ep)))?;
        println!("serve: shutdown sent");
        return Ok(ExitCode::SUCCESS);
    }

    eprintln!("serve: pass one of --listen / --replay / --inproc / --shutdown\n{USAGE}");
    Ok(ExitCode::FAILURE)
}
