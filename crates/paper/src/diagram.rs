//! Order-1 Voronoi cells as polygons.
//!
//! `insq_voronoi::Voronoi` keeps sites and neighbor lists — all the INS
//! algorithm reads. The cell polygon of a site is a figure and test
//! observer, built here from those neighbor lists.

use insq_voronoi::{SiteId, Voronoi};

use crate::halfplane::HalfPlane;
use crate::polygon::ConvexPolygon;

/// The Voronoi cell of `s`, clipped to the diagram bounds.
///
/// Computed as the bounding window intersected with the bisector
/// half-planes towards each Voronoi neighbor — exactly the cell, because
/// a Voronoi cell is determined by its neighbors alone.
pub fn voronoi_cell(voronoi: &Voronoi, s: SiteId) -> ConvexPolygon {
    let p = voronoi.point(s);
    let window = ConvexPolygon::from_aabb(&voronoi.bounds());
    let constraints: Vec<HalfPlane> = voronoi
        .neighbors(s)
        .iter()
        .map(|&nb| HalfPlane::closer_to(p, voronoi.point(nb)))
        .collect();
    window.clip_all(&constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_geom::{Aabb, Point};

    fn grid_3x3() -> Voronoi {
        let points: Vec<Point> = (0..3)
            .flat_map(|i| (0..3).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(3.0, 3.0));
        Voronoi::build(points, bounds).unwrap()
    }

    #[test]
    fn cell_of_grid_center() {
        let v = grid_3x3();
        let cell = voronoi_cell(&v, SiteId(4));
        assert!(
            (cell.area() - 1.0).abs() < 1e-9,
            "unit cell, got {}",
            cell.area()
        );
        assert!(cell.contains(Point::new(1.0, 1.0)));
    }

    #[test]
    fn cells_partition_window() {
        // Cell areas must sum to the window area.
        let v = grid_3x3();
        let total: f64 = (0..v.len() as u32)
            .map(|i| voronoi_cell(&v, SiteId(i)).area())
            .sum();
        assert!((total - v.bounds().area()).abs() < 1e-6, "sum {total}");
    }

    #[test]
    fn cell_contains_exactly_its_nearest_points() {
        let v = grid_3x3();
        // Sample a lattice of query points; each must lie in the cell of its
        // nearest site (boundary ties can lie in several cells).
        for i in 0..20 {
            for j in 0..20 {
                let q = Point::new(-0.5 + i as f64 * 0.15, -0.5 + j as f64 * 0.15);
                let nearest = v.knn_brute(q, 1)[0];
                let cell = voronoi_cell(&v, nearest);
                assert!(
                    cell.contains(q),
                    "query {q:?} not in cell of its nearest site {nearest}"
                );
            }
        }
    }

    #[test]
    fn random_sites_cell_membership() {
        // Deterministic LCG in [0, 1) so the test is reproducible.
        let mut state = 0x5eed5eedu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let points: Vec<Point> = (0..50)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(11.0, 11.0));
        let v = Voronoi::build(points, bounds).unwrap();
        for _ in 0..200 {
            let q = Point::new(next() * 10.0, next() * 10.0);
            let nearest = v.knn_brute(q, 1)[0];
            assert!(voronoi_cell(&v, nearest).contains(q));
        }
    }
}
