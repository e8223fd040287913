//! Convex hulls (Andrew's monotone chain).
//!
//! An *independent* implementation, cross-validated against the Delaunay
//! triangulation's hull in this crate's `tests/voronoi_props.rs`: two
//! algorithms with disjoint logic agreeing on adversarial inputs is
//! strong evidence both are right.

use insq_geom::{orient2d, Orientation, Point};

use crate::segment::Segment;

/// The convex hull of `points` in counter-clockwise order, starting from
/// the lexicographically smallest point.
///
/// Collinear boundary points are *excluded* (strict hull). Duplicates are
/// tolerated. Returns fewer than 3 points when the input is degenerate
/// (empty, a single point, or all collinear — in the collinear case the
/// two extreme points).
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| a.lex_cmp(*b));
    pts.dedup();
    let n = pts.len();
    if n <= 2 {
        return pts;
    }

    // Lower hull.
    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
    for &p in &pts {
        while hull.len() >= 2
            && orient2d(hull[hull.len() - 2], hull[hull.len() - 1], p)
                != Orientation::CounterClockwise
        {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && orient2d(hull[hull.len() - 2], hull[hull.len() - 1], p)
                != Orientation::CounterClockwise
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // the first point is repeated at the end
    if hull.len() < 3 {
        // All collinear: report the two extremes.
        hull.truncate(2);
    }
    hull
}

/// Whether `p` lies inside or on the boundary of the convex hull given as
/// a CCW vertex list (as produced by [`convex_hull`]).
pub fn hull_contains(hull: &[Point], p: Point) -> bool {
    match hull.len() {
        0 => false,
        1 => hull[0] == p,
        2 => {
            orient2d(hull[0], hull[1], p) == Orientation::Collinear
                && Segment::new(hull[0], hull[1]).bounding_box().contains(p)
        }
        n => (0..n).all(|i| orient2d(hull[i], hull[(i + 1) % n], p) != Orientation::Clockwise),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn square_with_interior_points() {
        let input = pts(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 4.0),
            (0.0, 4.0),
            (2.0, 2.0),
            (1.0, 3.0),
        ]);
        let hull = convex_hull(&input);
        assert_eq!(hull.len(), 4);
        assert_eq!(hull[0], Point::new(0.0, 0.0)); // lexicographic start
        for p in &input {
            assert!(hull_contains(&hull, *p));
        }
        assert!(!hull_contains(&hull, Point::new(5.0, 2.0)));
    }

    #[test]
    fn collinear_boundary_points_excluded() {
        let input = pts(&[(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        let hull = convex_hull(&input);
        assert_eq!(hull.len(), 4, "midpoint of the bottom edge excluded");
        assert!(hull_contains(&hull, Point::new(2.0, 0.0)));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&pts(&[(1.0, 1.0)])).len(), 1);
        assert_eq!(convex_hull(&pts(&[(1.0, 1.0), (1.0, 1.0)])).len(), 1);
        // All collinear: the two extremes.
        let line = convex_hull(&pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]));
        assert_eq!(line, pts(&[(0.0, 0.0), (3.0, 3.0)]));
        assert!(hull_contains(&line, Point::new(1.5, 1.5)));
        assert!(!hull_contains(&line, Point::new(1.5, 1.6)));
    }

    #[test]
    fn hull_is_ccw_and_convex() {
        let mut state = 0xDEADu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let input: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let hull = convex_hull(&input);
        let n = hull.len();
        assert!(n >= 3);
        for i in 0..n {
            assert_eq!(
                orient2d(hull[i], hull[(i + 1) % n], hull[(i + 2) % n]),
                Orientation::CounterClockwise,
                "strict hull has no collinear triples"
            );
        }
        for p in &input {
            assert!(hull_contains(&hull, *p));
        }
    }
}
