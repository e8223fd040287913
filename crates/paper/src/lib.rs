//! # insq-paper
//!
//! Everything of the INSQ reproduction that the paper's figures, oracles
//! and baselines need but a served query never runs. A served query runs
//! a kNN probe, Theorem 1's neighbor-list union, the §III-A distance scan
//! or the §IV Theorem-2 restricted search, and the three update cases —
//! all of it in the serving crates (`insq-geom`, `insq-voronoi`,
//! `insq-index`, `insq-roadnet`, `insq-core`, `insq-server`, `insq-net`,
//! `insq-cluster`), none of which depends on this one. What lives here:
//!
//! * [`ConvexPolygon`], [`HalfPlane`], [`Segment`] and [`convex_hull`] —
//!   polygon geometry for safe regions, Voronoi cells and the OkV
//!   baseline's point-in-polygon validation;
//! * [`voronoi_cell`] — an order-1 Voronoi cell as a polygon;
//! * [`order_k`] — order-k Voronoi cells in the plane (Definition 2,
//!   Fig. 1) and order-k segments on road networks (Fig. 2);
//! * [`enumerate`] — every order-k cell of a diagram, the growth curve
//!   behind the paper's "rapid increase" remark;
//! * [`mis`] — the exact minimal influential set, the oracle Theorem 1 is
//!   checked against;
//! * [`continuous`] — exact kNN change events along linear motion;
//! * [`safe_region`] / [`validation_circles`] — the demo's observers of a
//!   running Euclidean query.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod continuous;
pub mod diagram;
pub mod enumerate;
pub mod euclidean;
pub mod halfplane;
pub mod hull;
pub mod mis;
pub mod order_k;
pub mod polygon;
pub mod segment;

pub use continuous::{knn_change_events, KnnEvent, MotionTrace};
pub use diagram::voronoi_cell;
pub use enumerate::{cell_count_growth, enumerate_order_k_cells, OrderKCell};
pub use euclidean::{safe_region, validation_circles};
pub use halfplane::HalfPlane;
pub use hull::{convex_hull, hull_contains};
pub use mis::{minimal_influential_set, mis_with_candidates};
pub use order_k::{order_k_cell, order_k_cell_tagged, EdgeSource, TaggedCell};
pub use polygon::ConvexPolygon;
pub use segment::Segment;
