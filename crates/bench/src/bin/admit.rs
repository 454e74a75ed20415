//! High-throughput admission control over a heterogeneous tenant
//! fleet: the seeded request trace from `nc-workloads` replayed
//! through the incremental `nc-admit` engine.
//!
//! Tenants are sharded over `NC_THREADS` workers (decisions are
//! independent across tenants), rows are merged by the trace's global
//! sequence number, and the resulting `results/admission.csv` is
//! byte-identical for every worker count — `check.sh` asserts this.
//!
//! `ADMIT_FLEET=t` / `ADMIT_REQS=n` size the trace (default 32×250).

use std::time::Instant;

use nc_bench::{admitload, env_size};

fn main() {
    let tenants = env_size("ADMIT_FLEET", 32);
    let per_tenant = env_size("ADMIT_REQS", 250);
    let cfg = admitload::request_config(11, tenants, per_tenant);
    let trace = nc_workloads::requests::generate(&cfg);

    let workers = nc_sweep::workers();
    let shards = admitload::shard_tenants(tenants, workers);
    let t0 = Instant::now();
    let (per_shard, _) = nc_sweep::stripe(
        &shards,
        workers,
        || (),
        |(), shard| admitload::replay_shard(&cfg, &trace, shard),
    );
    let dt = t0.elapsed();

    let mut rows = Vec::with_capacity(trace.len());
    let mut stats = nc_admit::EngineStats::default();
    for (shard_rows, s) in per_shard {
        rows.extend(shard_rows);
        stats.decisions += s.decisions;
        stats.admitted += s.admitted;
        stats.admitted_remote += s.admitted_remote;
        stats.rejected += s.rejected;
        stats.cheap_admits += s.cheap_admits;
        stats.tight_evals += s.tight_evals;
        stats.prefilter_rejects += s.prefilter_rejects;
    }
    rows.sort_by_key(|r| r.seq);

    let mut csv = String::with_capacity(rows.len() * 48);
    csv.push_str(admitload::DecisionRow::csv_header());
    csv.push('\n');
    for r in &rows {
        csv.push_str(&r.to_csv());
        csv.push('\n');
    }
    nc_bench::emit("admission.csv", &csv);

    let events = rows.len();
    println!(
        "admission: {events} events ({} decisions) over {tenants} tenants in {dt:.2?} \
         [{} shard(s)]",
        stats.decisions,
        shards.len()
    );
    println!(
        "  outcomes: {} local, {} remote, {} rejected ({} prefilter short-circuits)",
        stats.admitted, stats.admitted_remote, stats.rejected, stats.prefilter_rejects
    );
    println!(
        "  bound path: {} cheap-certified admits, {} tight fallbacks",
        stats.cheap_admits, stats.tight_evals
    );
    if stats.decisions > 0 {
        println!(
            "  throughput: {:.0} events/s wall ({:.2} us/decision amortized)",
            events as f64 / dt.as_secs_f64(),
            dt.as_secs_f64() * 1e6 / stats.decisions as f64
        );
    }
}
