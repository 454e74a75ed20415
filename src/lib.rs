//! # streamcalc
//!
//! Network calculus for heterogeneous streaming applications — a full
//! reproduction of *"Application of Network Calculus Models to
//! Heterogeneous Streaming Applications"* (Faber & Chamberlain) as a
//! Rust workspace:
//!
//! * [`core`] — exact min-plus algebra over piecewise-linear curves,
//!   §3 bounds, packetizers, and the heterogeneous pipeline model (the
//!   paper's contribution);
//! * [`des`] — a SimPy-equivalent discrete-event kernel;
//! * [`streamsim`] — the §4.2 pipeline simulator;
//! * [`queueing`] — M/M/1 / M/G/1 baselines and the roofline flow
//!   analysis of Faber et al. \[12\];
//! * [`workloads`] — from-scratch BLASTN stages, LZ4, AES-256-CBC,
//!   link models, and the isolation measurement harness;
//! * [`apps`] — the BLAST (§4) and bump-in-the-wire (§5) evaluations
//!   wired end to end;
//! * [`admit`] — a high-throughput admission-control engine answering
//!   admit/reject/offload by incremental recomputation of the §3
//!   bounds;
//! * [`serve`] — a networked front for the admission engine: binary
//!   wire protocol, shard-per-core workers over SPSC rings, and a
//!   what-if capacity sidecar.
//!
//! ## One-minute tour
//!
//! ```
//! use streamcalc::core::curve::shapes;
//! use streamcalc::core::num::{Rat, Value};
//! use streamcalc::core::bounds;
//!
//! // A stage constrained by a leaky bucket, served at rate-latency.
//! let alpha = shapes::leaky_bucket(Rat::int(2), Rat::int(5));
//! let beta = shapes::rate_latency(Rat::int(3), Rat::int(4));
//! assert_eq!(bounds::backlog_bound(&alpha, &beta), Value::from(13));
//! ```
//!
//! Reproduce the paper: `cargo run -p nc-bench --bin repro --release`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Deterministic network calculus (re-export of `nc-core`).
pub use nc_core as core;

/// Discrete-event simulation kernel (re-export of `nc-des`).
pub use nc_des as des;

/// Streaming-pipeline simulator (re-export of `nc-streamsim`).
pub use nc_streamsim as streamsim;

/// Queueing-theory baselines (re-export of `nc-queueing`).
pub use nc_queueing as queueing;

/// Workload kernels (re-export of `nc-workloads`).
pub use nc_workloads as workloads;

/// Paper applications (re-export of `nc-apps`).
pub use nc_apps as apps;

/// Cached parameter-sweep engine (re-export of `nc-sweep`).
pub use nc_sweep as sweep;

/// Incremental admission-control engine (re-export of `nc-admit`).
pub use nc_admit as admit;

/// Networked admission service (re-export of `nc-serve`).
pub use nc_serve as serve;
