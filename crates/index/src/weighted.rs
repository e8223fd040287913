//! Weighted (anisotropic) Euclidean indexing: per-axis scaled L2.
//!
//! A [`WeightedVorTree`] answers kNN queries under the metric
//!
//! ```text
//! d_w(p, q) = sqrt( wx²·(px − qx)² + wy²·(py − qy)² )
//! ```
//!
//! — the natural model for travel *time* in a space where the two axes
//! have different speeds (a city with fast east–west avenues and slow
//! north–south streets, prevailing-wind flight planning, …).
//!
//! The implementation is a coordinate transform over the ordinary
//! [`VorTree`]: scaling every point by `(wx, wy)` turns the weighted
//! metric into plain L2, so the scaled space's Voronoi diagram *is* the
//! weighted Voronoi diagram of the original points, and every INS
//! theorem (Voronoi-neighbor containment of the MIS, order-k cell
//! validity) carries over verbatim. Queries enter in original
//! coordinates and are scaled on the way in; distances come back in the
//! weighted metric.

use insq_geom::{Aabb, Point};
use insq_voronoi::{SiteId, Voronoi, VoronoiError};

use crate::delta::SiteDelta;
use crate::vortree::VorTree;

/// Per-axis weights of the scaled-L2 metric (finite and positive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisWeights {
    /// Weight of the x axis.
    pub x: f64,
    /// Weight of the y axis.
    pub y: f64,
}

impl AxisWeights {
    /// Weights `(x, y)`; returns `None` unless both are finite and > 0.
    pub fn new(x: f64, y: f64) -> Option<AxisWeights> {
        if x.is_finite() && y.is_finite() && x > 0.0 && y > 0.0 {
            Some(AxisWeights { x, y })
        } else {
            None
        }
    }

    /// The isotropic unit weights (plain L2).
    pub const UNIT: AxisWeights = AxisWeights { x: 1.0, y: 1.0 };

    /// Maps a point from original to scaled coordinates.
    #[inline]
    pub fn scale(&self, p: Point) -> Point {
        Point::new(p.x * self.x, p.y * self.y)
    }

    /// Maps a point from scaled back to original coordinates.
    #[inline]
    pub fn unscale(&self, p: Point) -> Point {
        Point::new(p.x / self.x, p.y / self.y)
    }

    /// The weighted distance between two original-coordinate points.
    #[inline]
    pub fn distance(&self, a: Point, b: Point) -> f64 {
        self.scale(a).distance(self.scale(b))
    }
}

/// A [`VorTree`] under a per-axis weighted L2 metric.
///
/// All public positions (construction input, query positions, delta
/// insertions) are in **original** coordinates; all returned distances
/// are in the **weighted** metric. Internally the tree lives entirely in
/// scaled coordinates.
#[derive(Debug, Clone)]
pub struct WeightedVorTree {
    weights: AxisWeights,
    tree: VorTree,
}

impl WeightedVorTree {
    /// Builds the weighted index over `points` (original coordinates),
    /// clipping the scaled-space Voronoi diagram to the scaled `bounds`.
    pub fn build(
        points: Vec<Point>,
        bounds: Aabb,
        weights: AxisWeights,
    ) -> Result<WeightedVorTree, VoronoiError> {
        let scaled: Vec<Point> = points.into_iter().map(|p| weights.scale(p)).collect();
        let scaled_bounds = Aabb::new(weights.scale(bounds.min), weights.scale(bounds.max));
        Ok(WeightedVorTree {
            weights,
            tree: VorTree::build(scaled, scaled_bounds)?,
        })
    }

    /// The axis weights.
    #[inline]
    pub fn weights(&self) -> AxisWeights {
        self.weights
    }

    /// The scaled-space VoR-tree (the weighted Voronoi diagram of the
    /// original points).
    #[inline]
    pub fn tree(&self) -> &VorTree {
        &self.tree
    }

    /// The scaled-space Voronoi diagram.
    #[inline]
    pub fn voronoi(&self) -> &Voronoi {
        self.tree.voronoi()
    }

    /// Number of sites.
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the index is empty (never true once built).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Position of a site in original coordinates.
    #[inline]
    pub fn point(&self, s: SiteId) -> Point {
        self.weights.unscale(self.tree.point(s))
    }

    /// The weighted distance from site `s` to `q` (original coordinates).
    #[inline]
    pub fn distance(&self, s: SiteId, q: Point) -> f64 {
        self.tree.point(s).distance(self.weights.scale(q))
    }

    /// The k nearest sites to `q` (original coordinates) under the
    /// weighted metric, ascending by weighted distance (ties by id).
    pub fn knn(&self, q: Point, k: usize) -> Vec<(SiteId, f64)> {
        self.tree.knn(self.weights.scale(q), k)
    }

    /// Allocation-free [`WeightedVorTree::knn`]: same scratch contract
    /// as [`VorTree::knn_into`].
    pub fn knn_into(
        &self,
        scratch: &mut crate::vortree::VorTreeScratch,
        q: Point,
        k: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) {
        self.tree.knn_into(scratch, self.weights.scale(q), k, out)
    }

    /// Brute-force weighted kNN — the conformance reference:
    /// [`Voronoi::knn_brute`] of the scaled-space diagram at the scaled
    /// query.
    pub fn knn_brute(&self, q: Point, k: usize) -> Vec<SiteId> {
        self.voronoi().knn_brute(self.weights.scale(q), k)
    }

    /// Applies a batched [`SiteDelta`] (insertions in original
    /// coordinates, removal ids relative to the pre-delta index). Same
    /// semantics as [`VorTree::apply`].
    pub fn apply(&mut self, delta: &SiteDelta) -> Result<(), VoronoiError> {
        self.apply_traced(delta, &mut Vec::new())
    }

    /// [`WeightedVorTree::apply`], reporting the touched ids (see
    /// [`VorTree::apply_traced`]).
    pub fn apply_traced(
        &mut self,
        delta: &SiteDelta,
        touched: &mut Vec<SiteId>,
    ) -> Result<(), VoronoiError> {
        let scaled = SiteDelta {
            added: delta.added.iter().map(|&p| self.weights.scale(p)).collect(),
            removed: delta.removed.clone(),
        };
        self.tree.apply_traced(&scaled, touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn build(n: usize, seed: u64, w: AxisWeights) -> (Vec<Point>, WeightedVorTree) {
        let mut next = lcg(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let tree = WeightedVorTree::build(points.clone(), bounds, w).unwrap();
        (points, tree)
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(AxisWeights::new(0.0, 1.0).is_none());
        assert!(AxisWeights::new(1.0, -2.0).is_none());
        assert!(AxisWeights::new(f64::NAN, 1.0).is_none());
        assert!(AxisWeights::new(1.0, f64::INFINITY).is_none());
        assert!(AxisWeights::new(2.0, 0.5).is_some());
    }

    #[test]
    fn knn_matches_weighted_brute_force() {
        let w = AxisWeights::new(1.0, 3.0).unwrap();
        let (points, tree) = build(250, 11, w);
        let mut next = lcg(5);
        for _ in 0..40 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            for k in [1usize, 4, 9] {
                let got: Vec<SiteId> = tree.knn(q, k).into_iter().map(|(s, _)| s).collect();
                // Reference: rank by the weighted metric directly.
                let mut ranked: Vec<(SiteId, f64)> = points
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (SiteId(i as u32), w.distance(p, q)))
                    .collect();
                ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let want: Vec<SiteId> = ranked[..k].iter().map(|&(s, _)| s).collect();
                assert_eq!(got, want, "k={k} q={q:?}");
            }
        }
    }

    #[test]
    fn unit_weights_reduce_to_plain_l2() {
        let (_, wtree) = build(120, 3, AxisWeights::UNIT);
        let (_, ref_tree) = build(120, 3, AxisWeights::new(1.0, 1.0).unwrap());
        let q = Point::new(41.0, 58.0);
        assert_eq!(wtree.knn(q, 7), ref_tree.tree().knn(q, 7));
    }

    #[test]
    fn points_round_trip_and_distances_agree() {
        let w = AxisWeights::new(2.5, 0.5).unwrap();
        let (points, tree) = build(80, 21, w);
        for (i, &p) in points.iter().enumerate() {
            let s = SiteId(i as u32);
            assert!(tree.point(s).distance(p) < 1e-9);
            let q = Point::new(50.0, 50.0);
            assert!((tree.distance(s, q) - w.distance(p, q)).abs() < 1e-9);
        }
    }

    #[test]
    fn apply_delta_scales_insertions() {
        let w = AxisWeights::new(1.0, 2.0).unwrap();
        let (_, mut tree) = build(60, 9, w);
        let n0 = tree.len();
        let p = Point::new(51.37, 48.92);
        tree.apply(&SiteDelta::insert(vec![p])).unwrap();
        assert_eq!(tree.len(), n0 + 1);
        let s = SiteId(n0 as u32);
        assert!(
            tree.point(s).distance(p) < 1e-9,
            "stored in original coords"
        );
        // The new site is its own nearest neighbor at its position.
        assert_eq!(tree.knn(p, 1)[0].0, s);
        tree.apply(&SiteDelta::remove(vec![s])).unwrap();
        assert_eq!(tree.len(), n0);
    }
}
