//! # nc-core — deterministic network calculus for streaming pipelines
//!
//! Reproduction of the modeling layer of *"Application of Network
//! Calculus Models to Heterogeneous Streaming Applications"* (Faber &
//! Chamberlain): exact min-plus algebra over piecewise-linear curves,
//! the §3 performance bounds with packetizer and job-aggregation
//! extensions, and a pipeline model for heterogeneous streaming
//! applications (compute stages, PCIe hops, network links).
//!
//! ## Quick start
//!
//! ```
//! use nc_core::curve::shapes;
//! use nc_core::bounds;
//! use nc_core::num::{Rat, Value};
//!
//! // α(t) = 2t + 5 (leaky bucket), β(t) = 3(t − 4)⁺ (rate-latency).
//! let alpha = shapes::leaky_bucket(Rat::int(2), Rat::int(5));
//! let beta = shapes::rate_latency(Rat::int(3), Rat::int(4));
//!
//! // Backlog bound x ≤ b + R_α·T = 13; delay bound d ≤ T + b/R_β.
//! assert_eq!(bounds::backlog_bound(&alpha, &beta), Value::from(13));
//! let out = bounds::output_bound(&alpha, &beta);
//! assert!(out.is_wide_sense_increasing());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cache;
pub mod curve;
pub mod fault;
pub mod flowctl;
pub mod num;
pub mod ops;
pub mod packetizer;
pub mod pipeline;
pub mod stoch;
pub mod units;

pub use bounds::{analyze_node, NodeBounds, Regime};
pub use cache::{CacheStats, CurveCache, CurveOps, DirectOps};
pub use curve::{Breakpoint, Curve, CurveError};
pub use fault::FaultModel;
pub use num::{rat, Rat, Value};
pub use ops::{min_plus_conv, min_plus_deconv};
pub use stoch::{StageEnvelope, StochSpec, TailBounds};
