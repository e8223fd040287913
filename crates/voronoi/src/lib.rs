//! # insq-voronoi
//!
//! Delaunay triangulations, Voronoi diagrams and Voronoi *neighbor sets*
//! — the geometric substrate of the INS (Influential Neighbor Set)
//! moving-kNN algorithm.
//!
//! The INS algorithm (Li et al., ICDE'16 / PVLDB'14) rests on two
//! constructions provided here:
//!
//! 1. the **order-1 Voronoi diagram** of the data set, precomputed once
//!    ([`Voronoi::build`]) and repaired per delta ([`DynamicDelaunay`]),
//! 2. the **Voronoi neighbor set** `N_O(p)` of each site (Definition 3 of
//!    the paper) — [`Voronoi::neighbors`], derived from Delaunay adjacency.
//!
//! The third, **order-k Voronoi cells** `V^k(O')` (Definition 2) — the
//! theoretical safe regions, which the INS guards implicitly and the OkV
//! baseline materialises — is never built on the query path; it lives in
//! `insq-paper` with the cell polygons and the cell enumeration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delaunay;
pub mod diagram;
pub mod dynamic;

pub use delaunay::Triangulation;
pub use diagram::{SiteId, Voronoi};
pub use dynamic::DynamicDelaunay;

/// Errors from Voronoi/Delaunay construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VoronoiError {
    /// Fewer sites than the construction requires.
    TooFewSites {
        /// Minimum number of sites required.
        needed: usize,
        /// Number of sites supplied.
        got: usize,
    },
    /// All sites are collinear; the Delaunay triangulation does not exist.
    AllCollinear,
    /// Two sites coincide exactly; duplicate sites have no Voronoi cell.
    DuplicateSites {
        /// Index of the first occurrence.
        first: usize,
        /// Index of the duplicate.
        second: usize,
    },
    /// A site has a NaN or infinite coordinate.
    NonFinite {
        /// Index of the offending site.
        index: usize,
    },
    /// A site id does not refer to a live site (e.g. a stale id in a
    /// removal delta).
    SiteOutOfRange {
        /// The offending site id.
        site: usize,
        /// Number of live sites.
        len: usize,
    },
}

impl std::fmt::Display for VoronoiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VoronoiError::TooFewSites { needed, got } => {
                write!(f, "too few sites: needed {needed}, got {got}")
            }
            VoronoiError::AllCollinear => write!(f, "all sites are collinear"),
            VoronoiError::DuplicateSites { first, second } => {
                write!(f, "duplicate sites at indices {first} and {second}")
            }
            VoronoiError::NonFinite { index } => {
                write!(f, "non-finite coordinate at site index {index}")
            }
            VoronoiError::SiteOutOfRange { site, len } => {
                write!(f, "site id {site} out of range ({len} live sites)")
            }
        }
    }
}

impl std::error::Error for VoronoiError {}
