//! Batch what-if analysis: a bump-in-the-wire bounds surface over
//! compressor block size × network link rate, evaluated by the
//! `nc-sweep` engine (parallel fan-out, per-worker model caches).
//!
//! The grid defaults to 16×16 (256 points); set `SWEEP_GRID=AxB` for
//! other sizes (e.g. `SWEEP_GRID=4x4` for a CI smoke run). Emits
//! `results/sweep_bitw.csv` and prints cache telemetry.

use std::time::Instant;

/// Grid dimensions from `SWEEP_GRID=AxB`, default 16×16.
fn grid_dims() -> (usize, usize) {
    if let Ok(s) = std::env::var("SWEEP_GRID") {
        if let Some((a, b)) = s.split_once('x') {
            if let (Ok(a), Ok(b)) = (a.trim().parse(), b.trim().parse()) {
                if a >= 1 && b >= 1 {
                    return (a, b);
                }
            }
        }
        eprintln!("SWEEP_GRID must look like 16x16; using default");
    }
    (16, 16)
}

fn main() {
    let (nx, ny) = grid_dims();
    let spec = nc_bench::bitw_sweep_spec(nx, ny);
    let t0 = Instant::now();
    // NC_THREADS pins the fan-out width; the surface (and hence the
    // CSV) is byte-identical for every worker count.
    let surface = nc_sweep::run(&spec);
    let dt = t0.elapsed();
    nc_bench::emit("sweep_bitw.csv", &surface.to_csv());
    let s = surface.stats;
    println!(
        "BITW sweep: {} points ({nx}x{ny}) in {dt:.2?}",
        surface.points.len()
    );
    println!(
        "  cache: prefix {}/{} hit/miss, ops {}/{} hit/miss, {} curves interned",
        s.prefix_hits,
        s.prefix_misses,
        s.op_hits(),
        s.op_misses(),
        s.interned
    );
}
