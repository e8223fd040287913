//! Axis-aligned bounding boxes.
//!
//! Used as R-tree node regions, Voronoi clipping windows and data-space
//! extents throughout the system.

use crate::point::Point;

/// A closed axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Aabb {
    /// Creates a box from two corner points (in any order).
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The *empty* box: an identity element for [`Aabb::union`]. Contains
    /// nothing.
    #[inline]
    pub fn empty() -> Self {
        Aabb {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Whether this is the empty box (or otherwise inverted).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// A degenerate box covering a single point.
    #[inline]
    pub fn of_point(p: Point) -> Self {
        Aabb { min: p, max: p }
    }

    /// The tight box around a set of points; `None` when the set is empty.
    pub fn of_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = Aabb::of_point(first);
        for p in it {
            bb.expand_to(p);
        }
        Some(bb)
    }

    /// Width of the box.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the box.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the box (zero for degenerate boxes).
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half the perimeter — the R*-tree "margin" measure.
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// The center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Grows the box in place to cover `p`.
    #[inline]
    pub fn expand_to(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The smallest box covering both operands.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The overlap region, or `None` when the boxes are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Option<Aabb> {
        let min = Point::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y));
        let max = Point::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y));
        if min.x <= max.x && min.y <= max.y {
            Some(Aabb { min, max })
        } else {
            None
        }
    }

    /// Whether `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Minimum squared distance from `p` to any point of the box
    /// (zero when `p` is inside). This is the `MINDIST` metric that drives
    /// best-first kNN search over an R-tree.
    #[inline]
    pub fn min_dist_sq(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// The four corners in counter-clockwise order starting at `min`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// Returns the box grown by `pad` on every side.
    #[inline]
    pub fn inflated(&self, pad: f64) -> Aabb {
        Aabb {
            min: Point::new(self.min.x - pad, self.min.y - pad),
            max: Point::new(self.max.x + pad, self.max.y + pad),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    #[test]
    fn new_normalizes_corners() {
        let b = Aabb::new(Point::new(2.0, -1.0), Point::new(-1.0, 3.0));
        assert_eq!(b.min, Point::new(-1.0, -1.0));
        assert_eq!(b.max, Point::new(2.0, 3.0));
        assert_eq!(b.width(), 3.0);
        assert_eq!(b.height(), 4.0);
        assert_eq!(b.area(), 12.0);
        assert_eq!(b.margin(), 7.0);
    }

    #[test]
    fn empty_box_identity() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let b = unit();
        assert_eq!(e.union(&b), b);
        assert!(e.intersection(&b).is_none());
        assert!(!e.contains(Point::new(0.5, 0.5)));
    }

    #[test]
    fn of_points_tight() {
        let pts = [
            Point::new(0.0, 5.0),
            Point::new(-2.0, 1.0),
            Point::new(3.0, 2.0),
        ];
        let b = Aabb::of_points(pts).unwrap();
        assert_eq!(b.min, Point::new(-2.0, 1.0));
        assert_eq!(b.max, Point::new(3.0, 5.0));
        assert!(Aabb::of_points([]).is_none());
    }

    #[test]
    fn union_and_intersection() {
        let a = Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Aabb::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        assert_eq!(
            a.union(&b),
            Aabb::new(Point::new(0.0, 0.0), Point::new(3.0, 3.0))
        );
        assert_eq!(
            a.intersection(&b).unwrap(),
            Aabb::new(Point::new(1.0, 1.0), Point::new(2.0, 2.0))
        );
        let c = Aabb::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(a.intersection(&c).is_none());
        // Touching edges count as intersecting (closed boxes).
        let d = Aabb::new(Point::new(2.0, 0.0), Point::new(3.0, 2.0));
        assert_eq!(
            a.intersection(&d).unwrap(),
            Aabb::new(Point::new(2.0, 0.0), Point::new(2.0, 2.0))
        );
    }

    #[test]
    fn containment() {
        let a = unit();
        assert!(a.contains(Point::new(0.0, 0.0)));
        assert!(a.contains(Point::new(1.0, 1.0)));
        assert!(!a.contains(Point::new(1.0000001, 0.5)));
    }

    #[test]
    fn min_max_dist() {
        let b = Aabb::new(Point::new(1.0, 1.0), Point::new(3.0, 2.0));
        // Point inside.
        assert_eq!(b.min_dist_sq(Point::new(2.0, 1.5)), 0.0);
        // Point left of the box.
        assert_eq!(b.min_dist_sq(Point::new(0.0, 1.5)), 1.0);
        // Point diagonal from the corner.
        assert_eq!(b.min_dist_sq(Point::new(0.0, 0.0)), 2.0);
        // Max dist from origin is the far corner (3,2).
        let far = b.corners().map(|c| c.distance_sq(Point::new(0.0, 0.0)));
        assert_eq!(far.into_iter().fold(0.0, f64::max), 13.0);
    }

    #[test]
    fn corners_ccw() {
        let b = unit();
        let c = b.corners();
        // Shoelace area of the corner loop must be positive (CCW).
        let mut area2 = 0.0;
        for i in 0..4 {
            let p = c[i];
            let q = c[(i + 1) % 4];
            area2 += p.x * q.y - q.x * p.y;
        }
        assert!(area2 > 0.0);
    }

    #[test]
    fn inflate() {
        let b = unit().inflated(1.0);
        assert_eq!(b.min, Point::new(-1.0, -1.0));
        assert_eq!(b.max, Point::new(2.0, 2.0));
    }
}
