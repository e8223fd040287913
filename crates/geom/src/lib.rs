//! # insq-geom
//!
//! Two-dimensional geometric primitives and *robust* geometric predicates
//! used throughout the INSQ moving-kNN system.
//!
//! The crate provides:
//!
//! * [`Point`] / [`Vector`] — plain `f64` coordinates with the usual affine
//!   operations,
//! * [`Aabb`] — axis-aligned bounding boxes (also used by the R-tree),
//! * [`Circle`] — circles and circumcircles (the green/red validation circles
//!   of the INSQ demonstration),
//! * [`predicates`] — adaptive-precision `orient2d` / `incircle` following
//!   Shewchuk's scheme: a fast floating-point evaluation guarded by a
//!   forward error bound, falling back to exact expansion arithmetic.
//! * [`Trajectory`] — arc-length parameterised polylines along which query
//!   objects move.
//!
//! Everything is allocation-conscious: the hot kernels (`distance`,
//! `orient2d`, `incircle`) never allocate. Polygons, half-planes,
//! segments and hulls — geometry only figures, oracles and the OkV
//! baseline use — live in `insq-paper`, outside the serving crates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aabb;
pub mod circle;
pub mod point;
pub mod predicates;
pub mod scratch;
pub mod trajectory;

pub use aabb::Aabb;
pub use circle::Circle;
pub use point::{Point, Vector};
pub use predicates::{incircle, orient2d, Orientation};
pub use scratch::{DistEntry, DistSlots, GenMarks};
pub use trajectory::Trajectory;

/// Errors produced by geometric constructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// The input contains a non-finite (NaN or infinite) coordinate.
    NonFiniteCoordinate,
    /// Fewer points than required for the construction (e.g. a
    /// trajectory needs at least two waypoints).
    TooFewPoints {
        /// How many points the construction needs.
        needed: usize,
        /// How many were supplied.
        got: usize,
    },
    /// The input points are all collinear where a 2-D construction was
    /// required (e.g. a circumcircle or a triangulation).
    Degenerate,
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::NonFiniteCoordinate => write!(f, "non-finite coordinate"),
            GeomError::TooFewPoints { needed, got } => {
                write!(f, "too few points: needed {needed}, got {got}")
            }
            GeomError::Degenerate => write!(f, "degenerate (collinear or coincident) input"),
        }
    }
}

impl std::error::Error for GeomError {}
