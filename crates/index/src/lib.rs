//! # insq-index
//!
//! Spatial indexes for the INSQ moving-kNN system:
//!
//! * [`VorTree`] — the VoR-tree of Sharifzadeh & Shahabi (reference \[7\] of
//!   the paper): the precomputed Voronoi diagram as the one spatial
//!   structure. kNN search locates the 1NN by walking Delaunay links from
//!   a fixed set of start sites — it returns the site an R-tree's
//!   best-first descent would, ties included — and expands Voronoi
//!   neighbor links from there; the INS construction gets its neighbor
//!   lists for free;
//! * [`SiteDelta`] — a batched incremental update
//!   ([`VorTree::insert_site`] / [`VorTree::remove_site`] /
//!   [`VorTree::apply`]) that patches the diagram locally instead of
//!   rebuilding, proven equivalent to a from-scratch build by
//!   `tests/incremental_conformance.rs`;
//! * [`RTree`] — a static point R-tree (STR bulk load, best-first kNN),
//!   the search of the paper's Naive, OkV and V* baselines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod rtree;
pub mod vortree;

pub use delta::SiteDelta;
pub use rtree::{Entry, RTree};
pub use vortree::{VorTree, VorTreeScratch};
