//! Min-plus algebra operators on curves.

pub mod closure;
pub mod conv;
pub mod deconv;
pub mod deviations;
pub mod envelope;

pub use closure::{is_subadditive, subadditive_closure, Closure};
pub use conv::{conv_at, min_plus_conv, min_plus_conv_general};
pub use deconv::{deconv_at, infinite_curve, min_plus_deconv, min_plus_deconv_general};
pub use deviations::{horizontal_deviation, vertical_deviation};
