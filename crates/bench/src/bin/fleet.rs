//! Striped fleet simulation: `FLEET_TENANTS` independent seeded
//! bump-in-the-wire tenants, each pushing `FLEET_INPUT_KIB` of input,
//! batch-simulated across `NC_THREADS` OS workers with one pooled
//! `SimArena` per worker.
//!
//! Tenant rows are merged in tenant order, so `results/fleet.csv` is
//! byte-identical for every worker count — `check.sh` asserts this.
//! Wall time and aggregate events/s are printed; the perfbase snapshot
//! carries the tracked striped-fleet throughput row.

use std::time::Instant;

use nc_bench::fleet;

fn main() {
    let cfg = fleet::FleetConfig::from_env();
    let workers = nc_sweep::workers();

    let t0 = Instant::now();
    let rows = fleet::run_striped(&cfg, workers);
    let dt = t0.elapsed().as_secs_f64();

    let events: u64 = rows.iter().map(|r| r.events).sum();
    let bytes: f64 = rows.iter().map(|r| r.bytes_out).sum();
    println!(
        "fleet: {} tenants x {} KiB, {} workers: {:.3}s  ({} events, {:.3e} events/s, {:.3e} bytes out)",
        cfg.tenants,
        cfg.input_bytes >> 10,
        workers,
        dt,
        events,
        events as f64 / dt.max(f64::MIN_POSITIVE),
        bytes
    );

    nc_bench::emit("fleet.csv", &fleet::to_csv(&rows));
}
