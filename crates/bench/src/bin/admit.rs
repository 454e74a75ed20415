//! High-throughput admission control over a heterogeneous tenant
//! fleet: the seeded request trace from `nc-workloads` replayed
//! through the `nc-serve` shard pool, the admission service's own
//! decision path minus the sockets.
//!
//! Tenants are routed over `NC_THREADS` shards (decisions are
//! independent across tenants), rows are merged by the trace's global
//! sequence number, and the resulting `results/admission.csv` is
//! byte-identical for every shard count — `check.sh` asserts this.
//!
//! `ADMIT_FLEET=t` / `ADMIT_REQS=n` size the trace (default 32×250).

use std::time::Instant;

use nc_serve::fleet;
use nc_serve::proto::Outcome;
use nc_serve::replay::{replay_service, to_csv, Batching};
use nc_sweep::env_size;

fn main() {
    let tenants = env_size("ADMIT_FLEET", 32);
    let per_tenant = env_size("ADMIT_REQS", 250);
    let cfg = fleet::request_config(11, tenants, per_tenant);

    let shards = nc_sweep::workers().min(tenants);
    let t0 = Instant::now();
    let batching = Batching::Batched { quantum: 256 };
    let rows = replay_service(&cfg, shards, batching, &[], false).decisions;
    let dt = t0.elapsed();
    nc_bench::emit("admission.csv", &to_csv(&rows));

    let (mut local, mut remote, mut rejected) = (0usize, 0usize, 0usize);
    for r in &rows {
        match r.outcome {
            Outcome::Admit => local += 1,
            Outcome::AdmitRemote => remote += 1,
            Outcome::Reject(_) => rejected += 1,
            Outcome::Vacate | Outcome::Noop => {}
        }
    }
    let decisions = local + remote + rejected;
    println!(
        "admission: {} events ({decisions} decisions) over {tenants} tenants in {dt:.2?} \
         [{shards} shard(s)]",
        rows.len()
    );
    println!("  outcomes: {local} local, {remote} remote, {rejected} rejected");
    if decisions > 0 {
        println!(
            "  throughput: {:.0} events/s wall ({:.2} us/decision amortized)",
            rows.len() as f64 / dt.as_secs_f64(),
            dt.as_secs_f64() * 1e6 / decisions as f64
        );
    }
}
