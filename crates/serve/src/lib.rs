//! # nc-serve — networked admission service
//!
//! A service front for `nc-admit`: the paper's admission analysis,
//! reachable over a socket at fleet rates. Three design commitments:
//!
//! 1. **Shard-per-core engines.** Tenants are hash-routed
//!    (`tenant % shards`) to workers that each own a private
//!    [`nc_admit::AdmissionEngine`] + model cache. No locks on the
//!    decision path; per-tenant operation order is preserved by
//!    construction, so the service output is byte-identical to an
//!    in-proc replay **at any shard count** ([`replay`] proves it).
//! 2. **Batched wire protocol.** Length-prefixed binary frames
//!    ([`proto`]) move between the acceptor and the shard rings in
//!    publication quanta (`NC_PUB_QUANTUM` frames per ring
//!    publication), so ring synchronisation costs one mutex
//!    acquisition and one gate bump per quantum, not per frame.
//!    `perfbase` measures batched vs per-request framing on the same
//!    trace.
//! 3. **Honest off-path analysis.** What-if capacity queries run
//!    `nc-sweep` grids on a [`sidecar`] thread, never a shard;
//!    reconfigurations drain through the owning shard between batches
//!    and can be oracle-verified after every application.
//!
//! Module map: [`proto`] wire codec → [`service`] socket event loop →
//! [`shard`] ring-fed engine workers → [`fleet`] canonical workload
//! builders → [`replay`] deterministic byte-compare harness →
//! [`sidecar`] what-if answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod proto;
pub mod replay;
pub mod service;
pub mod shard;
pub mod sidecar;

pub use proto::{DecisionFrame, ProtoError, RequestFrame, ResponseFrame};
pub use replay::{replay_inproc, replay_service, Batching, ServiceReplay};
pub use service::{Client, Endpoint, Server, ServerStats};
pub use shard::ShardPool;
pub use sidecar::Sidecar;
