//! Circles, circumcircles and circumcenters.
//!
//! The circumcenter computation is the geometric kernel behind Voronoi
//! vertices (a Voronoi vertex *is* the circumcenter of a Delaunay triangle),
//! and the two validation circles of the INSQ demonstration (the green
//! circle through the farthest kNN and the red circle through the nearest
//! influential neighbor) are [`Circle`] values.

use crate::point::Point;
use crate::GeomError;

/// A circle given by center and radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle; the radius is clamped to be non-negative.
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        Circle {
            center,
            radius: radius.max(0.0),
        }
    }

    /// The circle centered at `center` passing through `through`.
    #[inline]
    pub fn through(center: Point, through: Point) -> Self {
        Circle {
            center,
            radius: center.distance(through),
        }
    }

    /// Whether `p` lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Whether this circle is entirely contained in `other` (boundaries may
    /// touch).
    #[inline]
    pub fn inside(&self, other: &Circle) -> bool {
        self.center.distance(other.center) + self.radius <= other.radius
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }
}

/// The circumcenter of the triangle `(a, b, c)`.
///
/// Solves the perpendicular-bisector linear system with the relative
/// formulation (coordinates translated so `a` is the origin), which is the
/// numerically preferred form. Fails with [`GeomError::Degenerate`] when the
/// points are (exactly) collinear.
pub fn circumcenter(a: Point, b: Point, c: Point) -> Result<Point, GeomError> {
    let bx = b.x - a.x;
    let by = b.y - a.y;
    let cx = c.x - a.x;
    let cy = c.y - a.y;
    let d = 2.0 * (bx * cy - by * cx);
    if d == 0.0 || !d.is_finite() {
        return Err(GeomError::Degenerate);
    }
    let b_sq = bx * bx + by * by;
    let c_sq = cx * cx + cy * cy;
    let ux = (cy * b_sq - by * c_sq) / d;
    let uy = (bx * c_sq - cx * b_sq) / d;
    Ok(Point::new(a.x + ux, a.y + uy))
}

/// The circumcircle of the triangle `(a, b, c)`.
pub fn circumcircle(a: Point, b: Point, c: Point) -> Result<Circle, GeomError> {
    let center = circumcenter(a, b, c)?;
    // Use the average of the three radii to damp rounding noise.
    let r = (center.distance(a) + center.distance(b) + center.distance(c)) / 3.0;
    Ok(Circle::new(center, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circumcenter_right_triangle() {
        // Right triangle: circumcenter is the hypotenuse midpoint.
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let c = Point::new(0.0, 3.0);
        let cc = circumcenter(a, b, c).unwrap();
        assert!((cc.x - 2.0).abs() < 1e-12);
        assert!((cc.y - 1.5).abs() < 1e-12);
    }

    #[test]
    fn circumcenter_equidistant() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(5.0, -1.0);
        let c = Point::new(-2.0, 4.0);
        let cc = circumcenter(a, b, c).unwrap();
        let da = cc.distance(a);
        let db = cc.distance(b);
        let dc = cc.distance(c);
        assert!((da - db).abs() < 1e-9);
        assert!((da - dc).abs() < 1e-9);
    }

    #[test]
    fn circumcenter_collinear_fails() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 1.0);
        let c = Point::new(2.0, 2.0);
        assert_eq!(circumcenter(a, b, c), Err(GeomError::Degenerate));
    }

    #[test]
    fn circumcircle_contains_vertices_on_boundary() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let c = Point::new(1.0, 1.0);
        let circ = circumcircle(a, b, c).unwrap();
        for p in [a, b, c] {
            assert!((circ.center.distance(p) - circ.radius).abs() < 1e-12);
        }
    }

    #[test]
    fn circle_containment() {
        let c = Circle::new(Point::new(0.0, 0.0), 2.0);
        assert!(c.contains(Point::new(1.0, 1.0)));
        assert!(c.contains(Point::new(2.0, 0.0))); // boundary
        assert!(!c.contains(Point::new(2.1, 0.0)));
        let small = Circle::new(Point::new(0.5, 0.0), 1.0);
        assert!(small.inside(&c));
        assert!(!c.inside(&small));
    }

    #[test]
    fn circle_through() {
        let c = Circle::through(Point::new(1.0, 1.0), Point::new(4.0, 5.0));
        assert_eq!(c.radius, 5.0);
    }

    #[test]
    fn negative_radius_clamped() {
        let c = Circle::new(Point::ORIGIN, -3.0);
        assert_eq!(c.radius, 0.0);
        assert_eq!(c.area(), 0.0);
    }
}
