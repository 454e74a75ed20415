//! Exact numeric foundation: rationals and extended values.

mod rat;
mod value;

pub use rat::{lcm, rat, Rat};
pub use value::Value;
