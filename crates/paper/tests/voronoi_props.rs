//! Property-based tests for the polygon views of a Voronoi diagram —
//! order-1 and order-k cells, and the Delaunay hull against an
//! independent convex hull — over adversarial point distributions
//! (uniform, clustered, gridded — the latter maximising
//! collinear/cocircular degeneracies).

use insq_geom::{orient2d, Aabb, Orientation, Point};
use insq_paper::{convex_hull, hull_contains, order_k_cell, voronoi_cell};
use insq_voronoi::{SiteId, Triangulation, Voronoi};
use proptest::prelude::*;
use std::collections::HashSet;

/// Random distinct points, mixing continuous and lattice coordinates.
fn points_strategy() -> impl Strategy<Value = Vec<Point>> {
    let continuous = prop::collection::vec(
        (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Point::new(x, y)),
        4..40,
    );
    let lattice = prop::collection::vec(
        (0i32..12, 0i32..12).prop_map(|(x, y)| Point::new(x as f64 * 8.0, y as f64 * 8.0)),
        4..40,
    );
    prop_oneof![continuous, lattice].prop_map(|mut pts| {
        // Deduplicate exactly (duplicates are rejected by construction).
        let mut seen = HashSet::new();
        pts.retain(|p| seen.insert((p.x.to_bits(), p.y.to_bits())));
        pts
    })
}

fn non_collinear(pts: &[Point]) -> bool {
    if pts.len() < 3 {
        return false;
    }
    let (a, b) = (pts[0], pts[1]);
    pts.iter()
        .any(|&c| orient2d(a, b, c) != Orientation::Collinear)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn voronoi_cells_partition_window(pts in points_strategy()) {
        prop_assume!(non_collinear(&pts));
        let bounds = Aabb::new(Point::new(-20.0, -20.0), Point::new(120.0, 120.0));
        let v = match Voronoi::build(pts, bounds) {
            Ok(v) => v,
            Err(_) => return Ok(()),
        };
        let total: f64 = (0..v.len() as u32).map(|i| voronoi_cell(&v, SiteId(i)).area()).sum();
        prop_assert!(
            (total - bounds.area()).abs() < 1e-5 * bounds.area(),
            "cells partition the window: {} vs {}", total, bounds.area()
        );
        // Each site is inside its own cell.
        for i in 0..v.len() as u32 {
            prop_assert!(voronoi_cell(&v, SiteId(i)).contains(v.point(SiteId(i))));
        }
    }

    #[test]
    fn voronoi_nearest_site_membership(pts in points_strategy(), qx in 0.0f64..100.0, qy in 0.0f64..100.0) {
        prop_assume!(non_collinear(&pts));
        let bounds = Aabb::new(Point::new(-20.0, -20.0), Point::new(120.0, 120.0));
        let v = match Voronoi::build(pts, bounds) {
            Ok(v) => v,
            Err(_) => return Ok(()),
        };
        let q = Point::new(qx, qy);
        let nearest = v.knn_brute(q, 1)[0];
        prop_assert!(voronoi_cell(&v, nearest).contains(q));
    }

    #[test]
    fn delaunay_hull_matches_monotone_chain(pts in points_strategy()) {
        // Cross-validation of two independent implementations: the
        // sweep-circle triangulation's hull vs Andrew's monotone chain.
        prop_assume!(non_collinear(&pts));
        let tri = Triangulation::build(&pts).expect("valid input");
        let via_delaunay: Vec<Point> =
            tri.hull.iter().map(|&i| pts[i as usize]).collect();
        let via_chain = convex_hull(&pts);
        // The Delaunay hull may keep collinear boundary vertices that the
        // strict chain drops; every chain vertex must appear in the
        // Delaunay hull, in the same cyclic CCW order, and all points must
        // be inside both.
        prop_assert!(via_chain.len() <= via_delaunay.len());
        let positions: Vec<usize> = via_chain
            .iter()
            .map(|c| {
                via_delaunay
                    .iter()
                    .position(|d| d == c)
                    .expect("chain vertex on Delaunay hull")
            })
            .collect();
        // Cyclic order: positions (rotated to start at the minimum) are
        // strictly increasing.
        if let Some(min_at) = positions.iter().enumerate().min_by_key(|&(_, &p)| p).map(|(i, _)| i) {
            let rotated: Vec<usize> = (0..positions.len())
                .map(|i| positions[(min_at + i) % positions.len()])
                .collect();
            for w in rotated.windows(2) {
                prop_assert!(w[0] < w[1], "cyclic order preserved: {positions:?}");
            }
        }
        for p in &pts {
            prop_assert!(hull_contains(&via_chain, *p));
        }
    }

    #[test]
    fn order_k_cells_tile_around_query(pts in points_strategy(), qx in 10.0f64..90.0, qy in 10.0f64..90.0, k in 1usize..5) {
        prop_assume!(non_collinear(&pts));
        prop_assume!(pts.len() > k + 2);
        let bounds = Aabb::new(Point::new(-20.0, -20.0), Point::new(120.0, 120.0));
        let v = match Voronoi::build(pts.clone(), bounds) {
            Ok(v) => v,
            Err(_) => return Ok(()),
        };
        let q = Point::new(qx, qy);
        let knn = v.knn_brute(q, k);
        // Tie guard: skip when the k-th and (k+1)-th are equidistant.
        let ext = v.knn_brute(q, k + 1);
        let dk = v.point(knn[k - 1]).distance(q);
        let dk1 = v.point(ext[k]).distance(q);
        prop_assume!((dk1 - dk).abs() > 1e-9);

        let all: Vec<SiteId> = (0..v.len() as u32).map(SiteId).collect();
        let cell = order_k_cell(v.points(), &knn, &all, &bounds);
        prop_assert!(!cell.is_empty(), "true kNN set has a non-empty cell");
        prop_assert!(cell.contains(q), "query lies in its own order-k cell");
    }
}
