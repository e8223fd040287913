//! Property-based tests for Delaunay/Voronoi construction, over
//! adversarial point distributions (uniform, clustered, gridded — the
//! latter maximising collinear/cocircular degeneracies).

use insq_geom::predicates::{incircle, InCircle};
use insq_geom::{orient2d, Aabb, Orientation, Point};
use insq_voronoi::delaunay::{next_halfedge, EMPTY};
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
    fn delaunay_empty_circle_property(pts in points_strategy()) {
        prop_assume!(non_collinear(&pts));
        let tri = Triangulation::build(&pts).expect("valid input");
        for t in 0..tri.num_triangles() as u32 {
            let [a, b, c] = tri.triangle_vertices(t);
            let (pa, pb, pc) = (pts[a as usize], pts[b as usize], pts[c as usize]);
            prop_assert_eq!(orient2d(pa, pb, pc), Orientation::CounterClockwise);
            for (i, &p) in pts.iter().enumerate() {
                if i as u32 == a || i as u32 == b || i as u32 == c {
                    continue;
                }
                prop_assert_ne!(
                    incircle(pa, pb, pc, p),
                    InCircle::Inside,
                    "point {} inside circumcircle of triangle {}", i, t
                );
            }
        }
    }

    #[test]
    fn delaunay_euler_formula(pts in points_strategy()) {
        prop_assume!(non_collinear(&pts));
        let tri = Triangulation::build(&pts).expect("valid input");
        // Count vertices actually used (all of them, for distinct inputs).
        let mut used: HashSet<u32> = HashSet::new();
        for &v in &tri.triangles {
            used.insert(v);
        }
        prop_assert_eq!(used.len(), pts.len(), "every point triangulated");
        // T = 2n - 2 - h.
        prop_assert_eq!(tri.num_triangles(), 2 * pts.len() - 2 - tri.hull.len());
        // Halfedge twins consistent.
        for (e, &h) in tri.halfedges.iter().enumerate() {
            if h != EMPTY {
                prop_assert_eq!(tri.halfedges[h as usize], e as u32);
                let (u1, v1) = (
                    tri.triangles[e],
                    tri.triangles[next_halfedge(e as u32) as usize],
                );
                let (u2, v2) = (
                    tri.triangles[h as usize],
                    tri.triangles[next_halfedge(h) as usize],
                );
                prop_assert_eq!((u1, v1), (v2, u2));
            }
        }
    }

    #[test]
    fn neighbors_symmetric_and_nearest_is_neighbor_of_second(pts in points_strategy()) {
        prop_assume!(pts.len() >= 4);
        prop_assume!(non_collinear(&pts));
        let bounds = Aabb::new(Point::new(-20.0, -20.0), Point::new(120.0, 120.0));
        let v = match Voronoi::build(pts, bounds) {
            Ok(v) => v,
            Err(_) => return Ok(()),
        };
        for i in 0..v.len() as u32 {
            for &nb in v.neighbors(SiteId(i)) {
                prop_assert!(v.are_neighbors(nb, SiteId(i)));
            }
            // Classic fact: each site's nearest other site is a Voronoi
            // neighbor.
            let p = v.point(SiteId(i));
            let nn = (0..v.len() as u32)
                .filter(|&j| j != i)
                .min_by(|&a, &b| {
                    v.point(SiteId(a)).distance_sq(p).total_cmp(&v.point(SiteId(b)).distance_sq(p))
                })
                .expect("at least two sites");
            prop_assert!(
                v.are_neighbors(SiteId(i), SiteId(nn)),
                "site {i}'s nearest {nn} must be a Voronoi neighbor"
            );
        }
    }

}
