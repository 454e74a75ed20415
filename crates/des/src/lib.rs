//! # nc-des — a discrete-event simulation engine
//!
//! A SimPy-equivalent kernel (the paper validates its network-calculus
//! models against a SimPy simulator \[29\]): a deterministic event
//! calendar with FIFO tie-breaking, seconds-based simulation time,
//! seeded distributions, byte queues with occupancy accounting, and
//! the statistics collectors the paper's evaluation reads out (peak
//! backlog, min/max observed delay, throughput).
//!
//! The streaming-pipeline model built on this engine lives in
//! `nc-streamsim`; this crate is application-agnostic.
//!
//! ## Quick start
//!
//! ```
//! use nc_des::{Sim, Span, Time};
//!
//! // Count arrivals every second for five seconds.
//! let mut sim = Sim::new(0u32);
//! fn arrival(sim: &mut Sim<u32>) {
//!     sim.state += 1;
//!     if sim.state < 5 {
//!         sim.schedule_in(Span::secs(1.0), arrival);
//!     }
//! }
//! sim.schedule_at(Time::ZERO, arrival);
//! sim.run();
//! assert_eq!(sim.state, 5);
//! assert_eq!(sim.now(), Time::secs(4.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agenda;
pub mod engine;
pub mod link;
pub mod queue;
pub mod random;
pub mod stats;
pub mod time;

pub use agenda::SlotAgenda;
pub use engine::Sim;
pub use link::{link, LinkRx, LinkTx, ProgressGate};
pub use queue::ByteQueue;
pub use random::Dist;
pub use stats::{StreamingTally, Tally, TimeWeighted};
pub use time::{Span, Time};
