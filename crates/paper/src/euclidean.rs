//! The demo's Euclidean observers of a running [`InsProcessor`]: the
//! safe-region polygon and the two validation circles of the INSQ
//! demonstration's 2D-plane mode. Neither is on the query path — the INS
//! algorithm validates by a distance scan and never builds either.

use std::borrow::Borrow;

use insq_core::{InsProcessor, MovingKnn};
use insq_geom::Circle;
use insq_index::VorTree;
use insq_voronoi::SiteId;

use crate::order_k::order_k_cell;
use crate::polygon::ConvexPolygon;

/// The implicit safe region of the current result — the order-k Voronoi
/// cell `V^k(kNN)`, materialised by clipping against the INS (exact,
/// because `MIS ⊆ INS`). This is the cyan polygon of the demo's 2D-plane
/// mode.
pub fn safe_region<B: Borrow<VorTree>>(query: &InsProcessor<B>) -> ConvexPolygon {
    let voronoi = query.index().voronoi();
    let knn: Vec<SiteId> = query.current_knn();
    let ins = query.influential_set();
    order_k_cell(voronoi.points(), &knn, &ins, &voronoi.bounds())
}

/// The demo's two validation circles around the last position: green
/// through the farthest kNN (must enclose all kNN), red through the
/// nearest guard (must exclude all guards). The result is valid while the
/// green circle is inside the red one.
pub fn validation_circles<B: Borrow<VorTree>>(query: &InsProcessor<B>) -> Option<(Circle, Circle)> {
    let q = query.last_pos()?;
    let index = query.index();
    let knn_far = query
        .current_knn_with_dists()
        .iter()
        .map(|&(s, _)| index.point(s).distance(q))
        .fold(f64::NEG_INFINITY, f64::max);
    let guard_near = query
        .guard_set()
        .iter()
        .map(|&s| index.point(s).distance(q))
        .fold(f64::INFINITY, f64::min);
    if !knn_far.is_finite() || !guard_near.is_finite() {
        return None;
    }
    Some((Circle::new(q, knn_far), Circle::new(q, guard_near)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_core::InsConfig;
    use insq_geom::{Aabb, Point};

    fn build_index(n: usize, seed: u64) -> VorTree {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        VorTree::build(
            points,
            Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0)),
        )
        .unwrap()
    }

    #[test]
    fn safe_region_contains_query_and_characterizes_knn() {
        let idx = build_index(80, 21);
        let mut p = InsProcessor::new(&idx, InsConfig::new(3, 1.6)).unwrap();
        let q = Point::new(55.0, 45.0);
        p.tick(q);
        let region = safe_region(&p);
        assert!(region.contains(q), "query inside its own safe region");
        // Points inside the region share the kNN set.
        let mut knn_sorted = p.current_knn();
        knn_sorted.sort_unstable();
        if let Some(c) = region.centroid() {
            let mut at_centroid = idx.voronoi().knn_brute(c, 3);
            at_centroid.sort_unstable();
            assert_eq!(at_centroid, knn_sorted);
        }
    }

    #[test]
    fn validation_circles_nested_while_valid() {
        let idx = build_index(120, 33);
        let mut p = InsProcessor::new(&idx, InsConfig::new(5, 1.6)).unwrap();
        let q = Point::new(30.0, 70.0);
        p.tick(q);
        let (green, red) = validation_circles(&p).unwrap();
        assert!(green.radius <= red.radius, "valid state: green inside red");
        assert_eq!(green.center, q);
        assert_eq!(red.center, q);
    }
}
