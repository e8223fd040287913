//! Points and vectors in the Euclidean plane.
//!
//! [`Point`] is an affine position, [`Vector`] a displacement. Keeping the
//! two apart catches a surprising number of sign errors in bisector and
//! clipping code at compile time.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the 2-D Euclidean plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement (free vector) in the 2-D Euclidean plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::distance`] for comparisons: it avoids the
    /// square root and is monotone in the true distance.
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint of the segment `self`–`other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// The displacement vector from `self` to `other`.
    #[inline]
    pub fn to(self, other: Point) -> Vector {
        Vector::new(other.x - self.x, other.y - self.y)
    }

    /// Lexicographic comparison (by `x`, then `y`), a total order for finite
    /// points. Used to make constructions deterministic.
    #[inline]
    pub fn lex_cmp(self, other: Point) -> std::cmp::Ordering {
        self.x
            .partial_cmp(&other.x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                self.y
                    .partial_cmp(&other.y)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }
}

impl Vector {
    /// The zero vector.
    pub const ZERO: Vector = Vector { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (the `z` component of the 3-D cross product).
    ///
    /// Positive when `other` lies counter-clockwise of `self`.
    #[inline]
    pub fn cross(self, other: Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Rotates the vector by 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Vector {
        Vector::new(-self.y, self.x)
    }

    /// Returns the vector scaled to unit length, or `None` if its length is
    /// zero or not finite.
    #[inline]
    pub fn normalized(self) -> Option<Vector> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vector> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub<Point> for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vector> for f64 {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: Vector) -> Vector {
        rhs * self
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(-3.0, 0.5);
        let b = Point::new(2.0, -1.5);
        assert!((a.distance_sq(b).sqrt() - a.distance(b)).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_equidistant() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        let m = a.midpoint(b);
        assert_eq!(m, Point::new(1.0, 2.0));
        assert!((m.distance(a) - m.distance(b)).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(3.0, 5.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), a.midpoint(b));
    }

    #[test]
    fn vector_algebra() {
        let v = Vector::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.dot(v), 25.0);
        assert_eq!(v.cross(v), 0.0);
        assert_eq!(v.perp(), Vector::new(-4.0, 3.0));
        assert_eq!(v.perp().dot(v), 0.0);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert!(Vector::ZERO.normalized().is_none());
    }

    #[test]
    fn cross_sign_is_ccw() {
        let e1 = Vector::new(1.0, 0.0);
        let e2 = Vector::new(0.0, 1.0);
        assert!(e1.cross(e2) > 0.0);
        assert!(e2.cross(e1) < 0.0);
    }

    #[test]
    fn point_vector_affine_ops() {
        let p = Point::new(1.0, 1.0);
        let v = Vector::new(2.0, -1.0);
        assert_eq!(p + v, Point::new(3.0, 0.0));
        assert_eq!((p + v) - v, p);
        assert_eq!((p + v) - p, v);
        let mut q = p;
        q += v;
        q -= v;
        assert_eq!(q, p);
    }

    #[test]
    fn lex_cmp_total_order() {
        let a = Point::new(0.0, 1.0);
        let b = Point::new(0.0, 2.0);
        let c = Point::new(1.0, 0.0);
        assert_eq!(a.lex_cmp(b), std::cmp::Ordering::Less);
        assert_eq!(b.lex_cmp(c), std::cmp::Ordering::Less);
        assert_eq!(a.lex_cmp(a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn conversions() {
        let p: Point = (2.5, -1.0).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (2.5, -1.0));
    }
}
