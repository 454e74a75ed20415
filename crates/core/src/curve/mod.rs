//! Piecewise-linear curves and standard network-calculus shapes.

pub mod pwl;
pub mod shapes;

pub use pwl::{Breakpoint, Curve, CurveError};
