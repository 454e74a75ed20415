//! # nc-streamsim — discrete-event simulation of streaming pipelines
//!
//! The validation arm of the paper's methodology: every
//! network-calculus prediction (throughput bounds, virtual delay,
//! backlog) is checked against a discrete-event simulation of the same
//! pipeline (§4.2, §5). This crate turns an `nc_core`
//! [`Pipeline`](nc_core::pipeline::Pipeline) into an event-driven model
//! on the `nc-des` kernel, with per-stage uniform(min,max) execution
//! times, job-granular data movement, optional bounded queues with
//! blocking backpressure, and the trace/statistics outputs the paper's
//! figures and tables report.
//!
//! ## Quick start
//!
//! ```
//! use nc_core::num::Rat;
//! use nc_core::pipeline::{Node, NodeKind, Pipeline, Source, StageRates};
//! use nc_streamsim::{simulate, SimConfig};
//!
//! let p = Pipeline::new(
//!     "demo",
//!     Source { rate: Rat::int(1000), burst: Rat::int(64) },
//!     vec![Node::new(
//!         "stage",
//!         NodeKind::Compute,
//!         StageRates::new(Rat::int(400), Rat::int(500), Rat::int(600)),
//!         Rat::ZERO,
//!         Rat::int(64),
//!         Rat::int(64),
//!     )],
//! );
//! let r = simulate(&p, &SimConfig {
//!     total_input: 64 * 100,
//!     ..SimConfig::default()
//! });
//! assert!(r.throughput > 350.0 && r.throughput < 650.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod det;
mod engine;
mod faults;
mod reference;
mod result;
mod ring;
mod stats;

pub use config::{flow_windows, ServiceModel, SimConfig};
pub use engine::{simulate, simulate_in, SimArena};
pub use faults::{ConfigError, FaultSchedule, Outage, RecoveryPolicy, StageFault, StallSpec};
pub use reference::simulate_reference;
pub use result::{NodeStats, SimResult};
pub use stats::Quantiles;
