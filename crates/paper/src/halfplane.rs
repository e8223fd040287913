//! Closed half-planes.
//!
//! A half-plane is stored as the inequality `n · x ≤ c`. The key
//! constructor for this system is [`HalfPlane::closer_to`]: the set of
//! points at least as close to `p` as to `q`, whose boundary is the
//! perpendicular bisector of `p q`. Order-k Voronoi cells — the safe
//! regions of the INS algorithm — are intersections of such half-planes
//! (see [`crate::order_k`]).

use insq_geom::{Point, Vector};

/// The closed half-plane `{ x : n · x ≤ c }`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfPlane {
    /// Outward normal of the boundary line (points away from the kept side).
    pub normal: Vector,
    /// Offset: the boundary line is `normal · x = offset`.
    pub offset: f64,
}

impl HalfPlane {
    /// Creates the half-plane `normal · x ≤ offset`.
    #[inline]
    pub const fn new(normal: Vector, offset: f64) -> Self {
        HalfPlane { normal, offset }
    }

    /// The half-plane of points at least as close to `p` as to `q`
    /// (i.e. `d(x, p) ≤ d(x, q)`), bounded by the perpendicular bisector.
    ///
    /// Expanding `|x-p|² ≤ |x-q|²` gives `2(q - p)·x ≤ |q|² − |p|²`.
    #[inline]
    pub fn closer_to(p: Point, q: Point) -> Self {
        let normal = Vector::new(2.0 * (q.x - p.x), 2.0 * (q.y - p.y));
        let offset = (q.x * q.x + q.y * q.y) - (p.x * p.x + p.y * p.y);
        HalfPlane { normal, offset }
    }

    /// Signed evaluation: negative inside, zero on the boundary, positive
    /// outside. (Not a Euclidean distance unless the normal is unit.)
    #[inline]
    pub fn eval(&self, x: Point) -> f64 {
        self.normal.x * x.x + self.normal.y * x.y - self.offset
    }

    /// Whether `x` lies in the closed half-plane.
    #[inline]
    pub fn contains(&self, x: Point) -> bool {
        self.eval(x) <= 0.0
    }

    /// The parameter `t` at which the segment `a + t (b − a)`,
    /// `t ∈ (-∞, ∞)`, crosses the boundary line, or `None` when the segment
    /// is parallel to it.
    #[inline]
    pub fn line_crossing(&self, a: Point, b: Point) -> Option<f64> {
        let da = self.eval(a);
        let db = self.eval(b);
        let denom = da - db;
        if denom == 0.0 {
            None
        } else {
            Some(da / denom)
        }
    }

    /// The complementary half-plane (strictly speaking the closure of the
    /// complement: both contain the boundary).
    #[inline]
    pub fn flipped(&self) -> Self {
        HalfPlane {
            normal: -self.normal,
            offset: -self.offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closer_to_membership() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(4.0, 0.0);
        let h = HalfPlane::closer_to(p, q);
        assert!(h.contains(Point::new(1.0, 5.0))); // closer to p
        assert!(h.contains(Point::new(2.0, -3.0))); // equidistant: boundary
        assert!(!h.contains(Point::new(3.0, 1.0))); // closer to q
    }

    #[test]
    fn closer_to_agrees_with_distances() {
        let p = Point::new(1.5, -2.0);
        let q = Point::new(-0.5, 3.0);
        let h = HalfPlane::closer_to(p, q);
        for &x in &[
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(-3.0, 1.0),
            Point::new(0.5, 0.5),
        ] {
            assert_eq!(h.contains(x), x.distance_sq(p) <= x.distance_sq(q));
        }
    }

    #[test]
    fn bisector_is_boundary() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(2.0, 2.0);
        let h = HalfPlane::closer_to(p, q);
        let mid = p.midpoint(q);
        assert!(h.eval(mid).abs() < 1e-12);
    }

    #[test]
    fn line_crossing_parameter() {
        // Half-plane x <= 1.
        let h = HalfPlane::new(Vector::new(1.0, 0.0), 1.0);
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        assert_eq!(h.line_crossing(a, b), Some(0.5));
        // Parallel segment.
        let c = Point::new(0.0, 1.0);
        assert_eq!(h.line_crossing(a, c), None);
    }

    #[test]
    fn flipped_partitions_plane() {
        let h = HalfPlane::closer_to(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let g = h.flipped();
        let inside = Point::new(-1.0, -1.0);
        let outside = Point::new(2.0, 2.0);
        assert!(h.contains(inside) && !g.contains(inside));
        assert!(!h.contains(outside) && g.contains(outside));
    }
}
