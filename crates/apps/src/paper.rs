//! Every number the paper reports, as constants — the reproduction
//! harness prints these next to our measured/computed values, and
//! EXPERIMENTS.md records the comparison.

/// Table 1 — BLAST streaming data application throughput (MiB/s).
pub mod table1 {
    /// Network calculus upper bound.
    pub const NC_UPPER: f64 = 704.0;
    /// Network calculus lower bound.
    pub const NC_LOWER: f64 = 350.0;
    /// Discrete-event simulation model.
    pub const DES: f64 = 353.0;
    /// Queueing theory prediction \[12\].
    pub const QUEUEING: f64 = 500.0;
    /// Measured throughput \[12\].
    pub const MEASURED: f64 = 355.0;
}

/// §4.2 — BLAST delay/backlog findings.
pub mod blast_bounds {
    /// Modeled maximum virtual delay, seconds (46.9 ms).
    pub const DELAY_BOUND: f64 = 46.9e-3;
    /// Modeled backlog bound, bytes (20.6 MiB).
    pub const BACKLOG_BOUND: f64 = 20.6 * 1048576.0;
    /// Longest delay observed in the paper's simulator (46.4 ms).
    pub const SIM_DELAY_MAX: f64 = 46.4e-3;
    /// Shortest delay observed in the paper's simulator (40.7 ms).
    pub const SIM_DELAY_MIN: f64 = 40.7e-3;
    /// Peak backlog observed in the paper's simulator. The text prints
    /// "20.1 KiB" against a 20.6 MiB bound; we read it as a MiB typo
    /// (Little's law: 46 ms × 353 MiB/s ≈ 16 MiB resident).
    pub const SIM_BACKLOG: f64 = 20.1 * 1048576.0;
}

/// Table 2 — bump-in-the-wire stage throughputs (MiB/s, local rates)
/// and observed LZ4 compression ratios.
pub mod table2 {
    /// (average, minimum, maximum) observed compression ratios.
    pub const RATIOS: (f64, f64, f64) = (2.2, 1.0, 5.3);
    /// Compress kernel (avg, min, max).
    pub const COMPRESS: (f64, f64, f64) = (2662.0, 1181.0, 6386.0);
    /// Encrypt kernel.
    pub const ENCRYPT: (f64, f64, f64) = (68.0, 56.0, 75.0);
    /// Network kernel (10 GiB/s flat).
    pub const NETWORK: (f64, f64, f64) = (10240.0, 10240.0, 10240.0);
    /// Decrypt kernel.
    pub const DECRYPT: (f64, f64, f64) = (90.0, 77.0, 113.0);
    /// Decompress kernel.
    pub const DECOMPRESS: (f64, f64, f64) = (1495.0, 1426.0, 1543.0);
    /// PCIe link (11 GiB/s flat).
    pub const PCIE: (f64, f64, f64) = (11264.0, 11264.0, 11264.0);
}

/// Table 3 — bump-in-the-wire application throughput (MiB/s).
pub mod table3 {
    /// Network calculus upper bound.
    pub const NC_UPPER: f64 = 313.0;
    /// Network calculus lower bound.
    pub const NC_LOWER: f64 = 59.0;
    /// Discrete-event simulation model \[34\].
    pub const DES: f64 = 61.0;
    /// Queueing theory prediction.
    pub const QUEUEING: f64 = 151.0;
}

/// §5 — bump-in-the-wire delay/backlog findings.
pub mod bitw_bounds {
    /// Modeled maximum virtual delay, seconds (38 µs).
    pub const DELAY_BOUND: f64 = 38.0e-6;
    /// Modeled backlog bound, bytes (3 KiB).
    pub const BACKLOG_BOUND: f64 = 3.0 * 1024.0;
    /// Longest simulated delay (36.7 µs).
    pub const SIM_DELAY_MAX: f64 = 36.7e-6;
    /// Shortest simulated delay (25.7 µs).
    pub const SIM_DELAY_MIN: f64 = 25.7e-6;
    /// Peak simulated backlog (2 KiB).
    pub const SIM_BACKLOG: f64 = 2.0 * 1024.0;
}
