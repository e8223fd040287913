//! # insq-baselines
//!
//! The competing moving-kNN methods the INSQ paper measures INS against,
//! all implementing the shared [`insq_core::MovingKnn`] interface:
//!
//! * [`NaiveProcessor`] / [`NetNaiveProcessor`] — recompute every
//!   timestamp (no safe region at all);
//! * [`OkvProcessor`] — strict order-k Voronoi cell safe regions (the
//!   early approaches \[2\], \[6\] of the paper): maximal region, minimal
//!   recomputation frequency, prohibitive construction cost;
//! * [`VStarProcessor`] — the V\*-diagram (\[5\]): relaxed safe regions with
//!   cheap construction but more frequent recomputation.
//!
//! Together with `insq_core::InsProcessor` these populate the evaluation
//! matrix of `insq-bench`'s `report` (E1–E9): INS is the only method cheap
//! on *both* axes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod naive;
pub mod network_naive;
pub mod okv;
pub mod vstar;

pub use naive::NaiveProcessor;
pub use network_naive::NetNaiveProcessor;
pub use okv::OkvProcessor;
pub use vstar::{VStarConfig, VStarProcessor};
