//! Workspace smoke test: the prelude quick-start paths from `src/lib.rs`,
//! exercised end-to-end as plain integration tests so the doctest
//! scenarios are also covered under `cargo test -q` (and stay covered if
//! doctests are ever skipped, e.g. under cross-compilation).

use insq::prelude::*;
use insq::roadnet::generators::{grid_network, random_site_vertices, GridConfig};

/// The Euclidean quick-start: build a VoR-tree over uniform data, run a
/// moving 5-NN query, and check that the influential-neighbor-set
/// machinery actually avoids recomputation on most ticks.
#[test]
fn euclidean_quickstart_path() {
    let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let points = Distribution::Uniform.generate(500, &bounds, 7);
    let index = VorTree::build(points.clone(), bounds.inflated(10.0)).unwrap();

    let mut query = InsProcessor::new(&index, InsConfig::with_k(5)).unwrap();
    for step in 0..100 {
        let pos = Point::new(10.0 + 0.5 * step as f64, 50.0);
        query.tick(pos);
        assert_eq!(query.current_knn().len(), 5);

        // Certify against brute force at every step: the INS result must
        // equal the true kNN by distance.
        let mut by_dist: Vec<usize> = (0..points.len()).collect();
        by_dist.sort_by(|&a, &b| {
            points[a]
                .distance_sq(pos)
                .partial_cmp(&points[b].distance_sq(pos))
                .unwrap()
        });
        let mut expected: Vec<Point> = by_dist[..5].iter().map(|&i| points[i]).collect();
        let mut got: Vec<Point> = query
            .current_knn()
            .iter()
            .map(|&id| index.point(id))
            .collect();
        let key = |p: &Point| (p.x.to_bits(), p.y.to_bits());
        expected.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(got, expected, "kNN mismatch at step {step}");
    }

    // Most ticks validate in O(k) without a server-side recomputation.
    assert!(query.stats().valid_ticks > 60, "{:?}", query.stats());
    assert!(query.stats().recomputations < 25, "{:?}", query.stats());
}

/// The road-network quick-start: grid network, network Voronoi diagram,
/// restricted-subnetwork moving 3-NN (paper §IV, Theorem 2).
#[test]
fn network_quickstart_path() {
    let net = std::sync::Arc::new(grid_network(&GridConfig::default(), 7).unwrap());
    let stations = SiteSet::new(&net, random_site_vertices(&net, 20, 7).unwrap()).unwrap();
    let world = NetworkWorld::build(std::sync::Arc::clone(&net), stations);

    let mut query = NetInsProcessor::new(&world, InsConfig::with_k(3)).unwrap();
    let tour = NetTrajectory::random_tour(&net, 6, 1).unwrap();
    for tick in 0..200 {
        query.tick(tour.position_looped(&net, 0.05 * tick as f64));
        assert_eq!(query.current_knn().len(), 3);
    }
    assert!(
        query.stats().comm_objects < 100,
        "INS must communicate far less than the naive 3/tick = 600: {:?}",
        query.stats()
    );
}
