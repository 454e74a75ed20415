//! # nc-apps — the paper's two applications, end to end
//!
//! Wires the substrates together into the paper's evaluations:
//!
//! * [`blast`] — the §4 BLAST biosequence pipeline (Figure 3, Table 1,
//!   Figure 4, the 46.9 ms / 20.6 MiB findings);
//! * [`bitw`] — the §5 bump-in-the-wire compression/encryption
//!   pipeline (Figure 9, Tables 2–3, Figure 10, the 38 µs / 3 KiB
//!   findings);
//! * [`paper`] — every number the paper reports, as constants;
//! * [`report`] — table/figure types with paper-vs-ours comparison.
//!
//! Each application exposes `reproduce(seed)` returning the full
//! network-calculus model, the discrete-event simulation result, the
//! throughput table with the paper's values attached, and the bound
//! comparisons; `figure4`/`figure10` regenerate the paper's plots as
//! CSV series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitw;
pub mod blast;
pub mod paper;
pub mod report;

pub use report::{format_table, BoundsReport, FigureSeries, ThroughputRow};
