//! # nc-queueing — queueing-theory baselines
//!
//! The models the paper compares its network-calculus approach against:
//! M/M/1 (the baseline of Faber et al. [12]), M/G/1 via
//! Pollaczek–Khinchine (including the uniform-service stages of the
//! simulator), and the tandem-network roofline flow analysis that
//! produces the "queueing theory prediction" rows of Tables 1 and 3.
//!
//! ## Quick start
//!
//! ```
//! use nc_queueing::{analyze_tandem, Mm1, TandemStage};
//!
//! let q = Mm1::new(2.0, 5.0).unwrap();
//! assert!((q.l - 2.0 / 3.0).abs() < 1e-12);
//!
//! let t = analyze_tandem(
//!     100.0,
//!     &[TandemStage { name: "slow".into(), rate: 80.0 }],
//!     10.0,
//! ).unwrap();
//! assert_eq!(t.roofline, 80.0);
//! ```

#![warn(missing_docs)]

pub mod mg1;
pub mod mm1;
pub mod network;

pub use mg1::Mg1;
pub use mm1::{Mm1, QueueError};
pub use network::{analyze_tandem, TandemAnalysis, TandemStage};
