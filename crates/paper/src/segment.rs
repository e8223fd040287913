//! Line segments.

use insq_geom::{orient2d, Aabb, Orientation, Point, Vector};

/// A directed line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// The direction vector `b - a` (not normalised).
    #[inline]
    pub fn direction(&self) -> Vector {
        self.b - self.a
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// Tight bounding box.
    #[inline]
    pub fn bounding_box(&self) -> Aabb {
        Aabb::new(self.a, self.b)
    }

    /// The parameter `t` of the point on the (infinite) supporting line
    /// closest to `p`, clamped to `[0, 1]` so it refers to the segment.
    #[inline]
    pub fn project_clamped(&self, p: Point) -> f64 {
        let d = self.direction();
        let len_sq = d.norm_sq();
        if len_sq == 0.0 {
            return 0.0; // degenerate segment
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// The point of the segment closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: Point) -> Point {
        self.at(self.project_clamped(p))
    }

    /// Squared distance from `p` to the segment.
    #[inline]
    pub fn distance_sq(&self, p: Point) -> f64 {
        self.closest_point(p).distance_sq(p)
    }

    /// Distance from `p` to the segment.
    #[inline]
    pub fn distance(&self, p: Point) -> f64 {
        self.distance_sq(p).sqrt()
    }

    /// Whether the two closed segments share at least one point.
    ///
    /// Uses robust orientation tests, so touching endpoints and collinear
    /// overlaps are classified correctly.
    pub fn intersects(&self, other: &Segment) -> bool {
        let o1 = orient2d(self.a, self.b, other.a);
        let o2 = orient2d(self.a, self.b, other.b);
        let o3 = orient2d(other.a, other.b, self.a);
        let o4 = orient2d(other.a, other.b, self.b);

        // General position: each segment strictly straddles the other's
        // supporting line.
        let strict = |o: Orientation| o != Orientation::Collinear;
        if o1 != o2 && o3 != o4 && strict(o1) && strict(o2) && strict(o3) && strict(o4) {
            return true;
        }

        // Remaining true intersections must involve an endpoint lying on
        // the other segment (touching or collinear overlap).
        let on = |s: &Segment, p: Point| -> bool {
            orient2d(s.a, s.b, p) == Orientation::Collinear && s.bounding_box().contains(p)
        };
        on(self, other.a) || on(self, other.b) || on(other, self.a) || on(other, self.b)
    }

    /// The intersection point of two segments in general position
    /// (`None` for parallel, collinear or non-crossing pairs).
    pub fn intersection(&self, other: &Segment) -> Option<Point> {
        let r = self.direction();
        let s = other.direction();
        let denom = r.cross(s);
        if denom == 0.0 {
            return None;
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some(self.at(t))
        } else {
            None
        }
    }

    /// The segment with the direction reversed.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length_and_at() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.at(0.0), s.a);
        assert_eq!(s.at(1.0), s.b);
        assert_eq!(s.at(0.5), s.midpoint());
    }

    #[test]
    fn projection_and_distance() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        // Point above the middle.
        assert_eq!(s.project_clamped(Point::new(4.0, 3.0)), 0.4);
        assert_eq!(s.distance(Point::new(4.0, 3.0)), 3.0);
        // Point beyond the end projects to the endpoint.
        assert_eq!(s.project_clamped(Point::new(20.0, 0.0)), 1.0);
        assert_eq!(s.distance(Point::new(13.0, 4.0)), 5.0);
        // Point before the start.
        assert_eq!(s.closest_point(Point::new(-5.0, 1.0)), s.a);
    }

    #[test]
    fn degenerate_segment() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.closest_point(Point::new(4.0, 5.0)), s.a);
        assert_eq!(s.distance(Point::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn crossing_segments() {
        let s1 = seg(0.0, 0.0, 2.0, 2.0);
        let s2 = seg(0.0, 2.0, 2.0, 0.0);
        assert!(s1.intersects(&s2));
        assert_eq!(s1.intersection(&s2), Some(Point::new(1.0, 1.0)));
    }

    #[test]
    fn non_crossing_segments() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(0.0, 1.0, 1.0, 1.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.intersection(&s2), None);
    }

    #[test]
    fn touching_at_endpoint() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(1.0, 0.0, 2.0, 5.0);
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn collinear_overlap_and_gap() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(1.0, 0.0, 3.0, 0.0);
        assert!(s1.intersects(&s2));
        let s3 = seg(3.0, 0.0, 4.0, 0.0);
        assert!(!s1.intersects(&s3));
        // Parallel segments never report an intersection point.
        assert_eq!(s1.intersection(&s2), None);
    }

    #[test]
    fn t_touch_midpoint() {
        // s2 ends exactly in the interior of s1.
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(1.0, 1.0, 1.0, 0.0);
        assert!(s1.intersects(&s2));
        assert_eq!(s1.intersection(&s2), Some(Point::new(1.0, 0.0)));
    }
}
