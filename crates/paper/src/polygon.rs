//! Convex polygons and half-plane clipping.
//!
//! Convex polygons represent Voronoi cells and (order-k) safe regions.
//! The only mutation they support is clipping by a [`HalfPlane`] — the
//! operation that builds a Voronoi cell from bisector constraints — which
//! keeps every polygon in the system convex by construction.

use insq_geom::{orient2d, Aabb, GeomError, Orientation, Point};

use crate::halfplane::HalfPlane;
use crate::segment::Segment;

/// A convex polygon with vertices in counter-clockwise order.
///
/// The empty polygon (no vertices) is a valid value: it is what clipping
/// returns once the region has been cut away entirely.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

impl ConvexPolygon {
    /// Builds a convex polygon from CCW-ordered vertices.
    ///
    /// Validates that the sequence is convex and counter-clockwise
    /// (collinear triples are tolerated — they add redundant vertices but
    /// no concavity). Returns [`GeomError::TooFewPoints`] for fewer than 3
    /// vertices and [`GeomError::Degenerate`] for non-convex input.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::TooFewPoints {
                needed: 3,
                got: vertices.len(),
            });
        }
        if vertices.iter().any(|v| !v.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        let n = vertices.len();
        let mut saw_ccw = false;
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let c = vertices[(i + 2) % n];
            match orient2d(a, b, c) {
                Orientation::Clockwise => return Err(GeomError::Degenerate),
                Orientation::CounterClockwise => saw_ccw = true,
                Orientation::Collinear => {}
            }
        }
        if !saw_ccw {
            // All vertices collinear: not a 2-D region.
            return Err(GeomError::Degenerate);
        }
        Ok(ConvexPolygon { vertices })
    }

    /// Builds a polygon without convexity validation. Intended for
    /// construction sites that guarantee convexity (e.g. half-plane
    /// clipping); debug builds still assert it.
    pub fn new_unchecked(vertices: Vec<Point>) -> Self {
        debug_assert!(
            vertices.len() < 3 || ConvexPolygon::new(vertices.clone()).is_ok(),
            "new_unchecked received a non-convex vertex sequence"
        );
        ConvexPolygon { vertices }
    }

    /// The empty polygon.
    pub fn empty() -> Self {
        ConvexPolygon {
            vertices: Vec::new(),
        }
    }

    /// The rectangle of `bb` as a polygon (CCW).
    pub fn from_aabb(bb: &Aabb) -> Self {
        ConvexPolygon {
            vertices: bb.corners().to_vec(),
        }
    }

    /// Vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when the polygon has no area (fewer than 3 vertices).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.len() < 3
    }

    /// Signed area (positive for CCW polygons; this type keeps CCW order,
    /// so the result is non-negative up to rounding).
    pub fn area(&self) -> f64 {
        shoelace(&self.vertices) * 0.5
    }

    /// The centroid (area-weighted). Falls back to the vertex average for
    /// degenerate polygons.
    pub fn centroid(&self) -> Option<Point> {
        let n = self.vertices.len();
        if n == 0 {
            return None;
        }
        let a2 = shoelace(&self.vertices);
        if a2.abs() < f64::MIN_POSITIVE {
            let (sx, sy) = self
                .vertices
                .iter()
                .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
            return Some(Point::new(sx / n as f64, sy / n as f64));
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Some(Point::new(cx / (3.0 * a2), cy / (3.0 * a2)))
    }

    /// Whether `p` lies inside or on the boundary.
    ///
    /// O(n) robust edge-side test — for the small cells this system works
    /// with, this beats the O(log n) binary-search variant.
    pub fn contains(&self, p: Point) -> bool {
        if self.is_empty() {
            return false;
        }
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if orient2d(a, b, p) == Orientation::Clockwise {
                return false;
            }
        }
        true
    }

    /// Minimum distance from `p` to the polygon boundary. Returns `None`
    /// for the empty polygon. (For interior points this is the distance to
    /// the nearest edge — how far the query can move before exiting, the
    /// quantity displayed by the INSQ demo.)
    pub fn boundary_distance(&self, p: Point) -> Option<f64> {
        let n = self.vertices.len();
        if n == 0 {
            return None;
        }
        if n == 1 {
            return Some(self.vertices[0].distance(p));
        }
        let mut best = f64::INFINITY;
        for i in 0..n {
            let seg = Segment::new(self.vertices[i], self.vertices[(i + 1) % n]);
            best = best.min(seg.distance_sq(p));
        }
        Some(best.sqrt())
    }

    /// Tight bounding box; `None` for the empty polygon.
    pub fn bounding_box(&self) -> Option<Aabb> {
        Aabb::of_points(self.vertices.iter().copied())
    }

    /// Clips the polygon with a half-plane, returning the (convex) result.
    pub fn clip_halfplane(&self, h: &HalfPlane) -> ConvexPolygon {
        let mut out = Vec::new();
        clip_into(&self.vertices, h, &mut out);
        ConvexPolygon { vertices: out }
    }

    /// Clips in place, reusing `scratch` to avoid allocation in hot loops.
    pub fn clip_halfplane_in_place(&mut self, h: &HalfPlane, scratch: &mut Vec<Point>) {
        clip_into(&self.vertices, h, scratch);
        std::mem::swap(&mut self.vertices, scratch);
    }

    /// Intersects with every half-plane in `constraints`, starting from this
    /// polygon. Stops early when the region becomes empty.
    pub fn clip_all<'a, I>(&self, constraints: I) -> ConvexPolygon
    where
        I: IntoIterator<Item = &'a HalfPlane>,
    {
        let mut cur = self.clone();
        let mut scratch = Vec::with_capacity(cur.vertices.len() + 4);
        for h in constraints {
            cur.clip_halfplane_in_place(h, &mut scratch);
            if cur.is_empty() {
                break;
            }
        }
        cur
    }
}

/// Twice the signed area.
fn shoelace(vs: &[Point]) -> f64 {
    let n = vs.len();
    if n < 3 {
        return 0.0;
    }
    let mut s = 0.0;
    for i in 0..n {
        let p = vs[i];
        let q = vs[(i + 1) % n];
        s += p.x * q.y - q.x * p.y;
    }
    s
}

/// Whether two clip vertices coincide up to rounding noise. A vertex that
/// lies exactly on the clip boundary is emitted once as itself and once as
/// the recomputed line crossing; the two can differ in the last bits and
/// would form a degenerate (possibly clockwise) micro-edge that breaks
/// convexity tests, so near-duplicates are merged.
#[inline]
pub(crate) fn nearly_same(a: Point, b: Point) -> bool {
    let scale = 1.0 + a.x.abs().max(a.y.abs()).max(b.x.abs()).max(b.y.abs());
    let eps = 1e-12 * scale;
    a.distance_sq(b) <= eps * eps
}

/// Sutherland–Hodgman single-plane clip of a convex CCW polygon.
fn clip_into(vs: &[Point], h: &HalfPlane, out: &mut Vec<Point>) {
    out.clear();
    let n = vs.len();
    if n == 0 {
        return;
    }
    let push = |out: &mut Vec<Point>, p: Point| {
        if out.last().is_none_or(|&last| !nearly_same(last, p)) {
            out.push(p);
        }
    };
    for i in 0..n {
        let cur = vs[i];
        let next = vs[(i + 1) % n];
        let cur_in = h.contains(cur);
        let next_in = h.contains(next);
        if cur_in {
            push(out, cur);
        }
        if cur_in != next_in {
            if let Some(t) = h.line_crossing(cur, next) {
                // Clamp for safety against rounding just outside [0, 1].
                let t = t.clamp(0.0, 1.0);
                push(out, cur.lerp(next, t));
            }
        }
    }
    // The wrap-around pair can also be a near-duplicate.
    while out.len() > 1 && nearly_same(out[0], *out.last().expect("len > 1")) {
        out.pop();
    }
    if out.len() < 3 {
        out.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_geom::Vector;

    fn square() -> ConvexPolygon {
        ConvexPolygon::from_aabb(&Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)))
    }

    #[test]
    fn new_validates_ccw_convex() {
        let good = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 2.0),
        ]);
        assert!(good.is_ok());

        // Clockwise order rejected.
        let cw = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 2.0),
            Point::new(2.0, 0.0),
        ]);
        assert_eq!(cw.unwrap_err(), GeomError::Degenerate);

        // Concave rejected.
        let concave = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(2.0, 1.0), // dents inward
        ]);
        assert_eq!(concave.unwrap_err(), GeomError::Degenerate);

        // Too few points.
        assert!(matches!(
            ConvexPolygon::new(vec![Point::ORIGIN, Point::new(1.0, 0.0)]),
            Err(GeomError::TooFewPoints { needed: 3, got: 2 })
        ));

        // All collinear.
        let line = ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ]);
        assert_eq!(line.unwrap_err(), GeomError::Degenerate);
    }

    #[test]
    fn area_centroid_perimeter() {
        let sq = square();
        assert_eq!(sq.area(), 4.0);
        assert_eq!(sq.centroid(), Some(Point::new(1.0, 1.0)));
        assert!(ConvexPolygon::empty().centroid().is_none());
        assert_eq!(ConvexPolygon::empty().area(), 0.0);
    }

    #[test]
    fn contains_interior_boundary_exterior() {
        let sq = square();
        assert!(sq.contains(Point::new(1.0, 1.0)));
        assert!(sq.contains(Point::new(0.0, 0.0))); // vertex
        assert!(sq.contains(Point::new(2.0, 1.0))); // edge
        assert!(!sq.contains(Point::new(2.0001, 1.0)));
        assert!(!ConvexPolygon::empty().contains(Point::ORIGIN));
    }

    #[test]
    fn clip_keeps_half() {
        let sq = square();
        // Keep x <= 1.
        let h = HalfPlane::new(Vector::new(1.0, 0.0), 1.0);
        let clipped = sq.clip_halfplane(&h);
        assert!((clipped.area() - 2.0).abs() < 1e-12);
        assert!(clipped.contains(Point::new(0.5, 1.0)));
        assert!(!clipped.contains(Point::new(1.5, 1.0)));
    }

    #[test]
    fn clip_away_everything() {
        let sq = square();
        let h = HalfPlane::new(Vector::new(1.0, 0.0), -1.0); // x <= -1
        let clipped = sq.clip_halfplane(&h);
        assert!(clipped.is_empty());
        assert_eq!(clipped.area(), 0.0);
    }

    #[test]
    fn clip_no_effect_when_contained() {
        let sq = square();
        let h = HalfPlane::new(Vector::new(1.0, 0.0), 10.0); // x <= 10
        let clipped = sq.clip_halfplane(&h);
        assert!((clipped.area() - sq.area()).abs() < 1e-12);
    }

    #[test]
    fn clip_all_produces_bisector_cell() {
        // Voronoi cell of the center of a 3x3 grid is the unit square
        // centered there.
        let sites: Vec<Point> = (0..3)
            .flat_map(|i| (0..3).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let center = Point::new(1.0, 1.0);
        let bb = Aabb::new(Point::new(-1.0, -1.0), Point::new(3.0, 3.0));
        let constraints: Vec<HalfPlane> = sites
            .iter()
            .filter(|&&s| s != center)
            .map(|&s| HalfPlane::closer_to(center, s))
            .collect();
        let cell = ConvexPolygon::from_aabb(&bb).clip_all(&constraints);
        assert!((cell.area() - 1.0).abs() < 1e-9);
        assert!(cell.contains(center));
        assert!(!cell.contains(Point::new(1.6, 1.0)));
    }

    #[test]
    fn boundary_distance() {
        let sq = square();
        let d = sq.boundary_distance(Point::new(1.0, 1.0)).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
        let d2 = sq.boundary_distance(Point::new(3.0, 1.0)).unwrap();
        assert!((d2 - 1.0).abs() < 1e-12);
        assert!(ConvexPolygon::empty()
            .boundary_distance(Point::ORIGIN)
            .is_none());
    }

    #[test]
    fn bounding_box_roundtrip() {
        let sq = square();
        let bb = sq.bounding_box().unwrap();
        assert_eq!(bb, Aabb::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)));
    }
}
