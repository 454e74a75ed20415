//! # nc-workloads — the streaming kernels behind the paper's pipelines
//!
//! Every computational stage the paper's two applications depend on,
//! built from scratch so the full measurement-to-model methodology can
//! run end to end on a CPU:
//!
//! * [`fasta`] — synthetic DNA, FASTA I/O, and the DIBS `fa2bit`
//!   2-bit packer (the paper's FPGA pre-processing stage);
//! * [`blast`] — the BLASTN stages (seed match, seed enumeration,
//!   small extension, ungapped extension) of Figure 2;
//! * [`lz4`] — an LZ4 block-format codec (the Vitis compression
//!   kernel of §5);
//! * [`aes`] — AES-256-CBC (the Vitis cryptography kernel of §5);
//! * [`link`] — 10 GbE and PCIe link models with packet overheads;
//! * [`measure`] — the isolation measurement harness producing the
//!   min/avg/max throughput triples of Table 2;
//! * [`requests`] — a seeded request-driven admission workload
//!   (Poisson flow arrivals over heterogeneous classes) feeding the
//!   `nc-admit` engine.
//!
//! These kernels are deliberately *measurable* stand-ins for the
//! paper's FPGA/GPU deployments: the models in `nc-core` consume only
//! per-stage rates, latencies, and job ratios (see DESIGN.md for the
//! substitution argument).

#![warn(missing_docs)]

pub mod aes;
pub mod blast;
pub mod fasta;
pub mod link;
pub mod lz4;
pub mod measure;
pub mod requests;

pub use link::LinkModel;
pub use measure::{measure_repeated, measure_stage, StageMeasurement};
