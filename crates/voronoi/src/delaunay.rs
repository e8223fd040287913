//! Delaunay triangulation via the sweep-circle incremental algorithm
//! (the "delaunator" construction of Agafonkin et al., itself a variant of
//! the sweep-hull algorithm of Sinclair).
//!
//! Points are inserted in order of increasing distance from the seed
//! triangle's circumcenter; this guarantees every new point lies strictly
//! outside the current convex hull, so insertion reduces to attaching fans
//! of triangles to visible hull edges plus Lawson flips
//! (Lawson legalization) to restore the empty-circle property.
//!
//! The order is one unstable sort of the ids on precomputed keys (squared
//! distances from the circumcenter); `tests/build_identity.rs` pins where
//! its ties fall. Coincident points have bit-equal keys, so duplicates are
//! sought only in runs of equal keys. The sweep runs on local ids (points
//! copied into insertion order), mapped back to input ids at the end.
//!
//! All orientation and in-circle decisions use the adaptive-exact predicates
//! of `insq-geom`, so the topology is exact even for cocircular and nearly
//! collinear inputs.

use insq_geom::predicates::{incircle, InCircle};
use insq_geom::{orient2d, Aabb, Orientation, Point};

use crate::VoronoiError;

/// Sentinel for "no halfedge / no vertex".
pub const EMPTY: u32 = u32::MAX;

/// The next halfedge within the same triangle.
#[inline]
pub fn next_halfedge(e: u32) -> u32 {
    if e % 3 == 2 {
        e - 2
    } else {
        e + 1
    }
}

/// The previous halfedge within the same triangle.
#[inline]
pub fn prev_halfedge(e: u32) -> u32 {
    if e.is_multiple_of(3) {
        e + 2
    } else {
        e - 1
    }
}

/// A Delaunay triangulation in the halfedge representation.
///
/// Triangle `t` occupies indices `3t, 3t+1, 3t+2` of [`Triangulation::triangles`];
/// each entry is the id of the vertex the halfedge *starts* at, and the
/// triangle's vertices appear in counter-clockwise order.
/// `halfedges[e]` is the opposite halfedge in the adjacent triangle, or
/// [`EMPTY`] for hull edges.
#[derive(Debug, Clone)]
pub struct Triangulation {
    /// Vertex ids, three per triangle, counter-clockwise.
    pub triangles: Vec<u32>,
    /// Twin halfedge ids (or [`EMPTY`] on the hull).
    pub halfedges: Vec<u32>,
    /// Convex hull vertex ids in counter-clockwise order.
    pub hull: Vec<u32>,
}

impl Triangulation {
    /// Number of triangles.
    #[inline]
    pub fn num_triangles(&self) -> usize {
        self.triangles.len() / 3
    }

    /// The three vertex ids of triangle `t`, counter-clockwise.
    #[inline]
    pub fn triangle_vertices(&self, t: u32) -> [u32; 3] {
        let base = 3 * t as usize;
        [
            self.triangles[base],
            self.triangles[base + 1],
            self.triangles[base + 2],
        ]
    }

    /// Builds the Delaunay triangulation of `points`.
    ///
    /// Fails when fewer than 3 points are given, when all points are
    /// collinear, or when two points coincide exactly (duplicate sites have
    /// no Voronoi cell and are rejected rather than silently dropped).
    pub fn build(points: &[Point]) -> Result<Triangulation, VoronoiError> {
        let n = points.len();
        if n < 3 {
            return Err(VoronoiError::TooFewSites { needed: 3, got: n });
        }
        if let Some(i) = points.iter().position(|p| !p.is_finite()) {
            return Err(VoronoiError::NonFinite { index: i });
        }
        let (ids, center) = insertion_order(points)?;
        let local: Vec<Point> = ids.iter().map(|&i| points[i as usize]).collect();
        let mut builder = Builder::new(&local, center);
        builder.run(&local, &ids)?;
        Ok(builder.finish(&ids))
    }
}

/// The seed triangle's ids counter-clockwise, then every other id by
/// ascending distance from its circumcenter (returned too). Rejects
/// duplicate and all-collinear inputs.
fn insertion_order(points: &[Point]) -> Result<(Vec<u32>, Point), VoronoiError> {
    let n = points.len();

    // Seed: the point closest to the bbox center, its nearest neighbor,
    // and the third point minimising the circumradius.
    let bb_center = Aabb::of_points(points.iter().copied())
        .expect("n >= 3")
        .center();
    let i0 = (0..n)
        .min_by(|&i, &j| {
            points[i]
                .distance_sq(bb_center)
                .total_cmp(&points[j].distance_sq(bb_center))
        })
        .expect("n >= 3");
    let p0 = points[i0];

    let i1 = (0..n)
        .filter(|&i| i != i0)
        .min_by(|&i, &j| {
            points[i]
                .distance_sq(p0)
                .total_cmp(&points[j].distance_sq(p0))
        })
        .expect("n >= 3");
    let p1 = points[i1];

    let i2 = (0..n)
        .filter(|&i| i != i0 && i != i1)
        .min_by(|&i, &j| {
            circumradius_sq(p0, p1, points[i]).total_cmp(&circumradius_sq(p0, p1, points[j]))
        })
        .expect("n >= 3");
    // Without a seed triangle there is no order to read duplicates from,
    // so the whole input is searched for them.
    let collinear = || {
        reject_duplicates(points, &mut (0..n as u32).collect::<Vec<_>>())?;
        Err(VoronoiError::AllCollinear)
    };
    if circumradius_sq(p0, p1, points[i2]) == f64::INFINITY {
        return collinear();
    }

    // Orient the seed triangle counter-clockwise.
    let (i1, i2) = match orient2d(p0, p1, points[i2]) {
        Orientation::CounterClockwise => (i1, i2),
        Orientation::Clockwise => (i2, i1),
        Orientation::Collinear => return collinear(),
    };
    let seeds = [i0 as u32, i1 as u32, i2 as u32];
    let center = circumcenter_fast(points[i0], points[i1], points[i2]);

    // Ascending distance from the seed circumcenter, each computed once.
    let keys: Vec<f64> = points.iter().map(|p| p.distance_sq(center)).collect();
    let key = |i: u32| keys[i as usize];
    let mut ids = Vec::with_capacity(n);
    ids.extend(seeds);
    ids.extend((0..n as u32).filter(|i| !seeds.contains(i)));
    ids[3..].sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)));

    // Coincident points have bit-equal keys: every duplicate lies in a run
    // of equal keys or shares a seed's key (the three seeds are distinct).
    let seed_keys = seeds.map(key);
    let mut suspects = seeds.to_vec();
    for run in ids[3..].chunk_by(|&a, &b| key(a) == key(b)) {
        if run.len() > 1 || seed_keys.contains(&key(run[0])) {
            suspects.extend_from_slice(run);
        }
    }
    reject_duplicates(points, &mut suspects)?;
    Ok((ids, center))
}

/// Fails with the duplicate a scan of `ids` in ascending order meets
/// first: the least id whose point an earlier id already holds, and the
/// earliest such id. Reorders `ids`.
fn reject_duplicates(points: &[Point], ids: &mut [u32]) -> Result<(), VoronoiError> {
    // `+ 0.0` turns -0.0 into 0.0, so coincident points share a key.
    let key = |i: u32| {
        let p = points[i as usize];
        ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits())
    };
    ids.sort_unstable_by_key(|&i| (key(i), i));
    let pairs = ids.windows(2).filter(|w| key(w[0]) == key(w[1]));
    match pairs.min_by_key(|w| w[1]) {
        Some(&[first, second]) => Err(VoronoiError::DuplicateSites {
            first: first as usize,
            second: second as usize,
        }),
        _ => Ok(()),
    }
}

/// Monotone pseudo-angle of a direction, in `[0, 1)`; increases
/// counter-clockwise. Cheaper than `atan2` and sufficient for hashing.
#[inline]
fn pseudo_angle(dx: f64, dy: f64) -> f64 {
    let p = dx / (dx.abs() + dy.abs());
    (if dy > 0.0 { 3.0 - p } else { 1.0 + p }) / 4.0
}

/// Squared circumradius of the triangle `(a, b, c)` (infinite for
/// degenerate triples).
fn circumradius_sq(a: Point, b: Point, c: Point) -> f64 {
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let ex = c.x - a.x;
    let ey = c.y - a.y;
    let bl = dx * dx + dy * dy;
    let cl = ex * ex + ey * ey;
    let d = dx * ey - dy * ex;
    if d == 0.0 {
        return f64::INFINITY;
    }
    let x = (ey * bl - dy * cl) * (0.5 / d);
    let y = (dx * cl - ex * bl) * (0.5 / d);
    let r = x * x + y * y;
    if r.is_finite() {
        r
    } else {
        f64::INFINITY
    }
}

/// Circumcenter of `(a, b, c)` in floating point (seed ordering only; the
/// robust construction lives in `insq_geom::circle`).
fn circumcenter_fast(a: Point, b: Point, c: Point) -> Point {
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let ex = c.x - a.x;
    let ey = c.y - a.y;
    let bl = dx * dx + dy * dy;
    let cl = ex * ex + ey * ey;
    let d = dx * ey - dy * ex;
    let x = a.x + (ey * bl - dy * cl) * (0.5 / d);
    let y = a.y + (dx * cl - ex * bl) * (0.5 / d);
    Point::new(x, y)
}

/// The sweep's state over local ids: seeds 0, 1, 2, then insertion order.
struct Builder {
    triangles: Vec<u32>,
    halfedges: Vec<u32>,
    // Hull state.
    hull_prev: Vec<u32>,
    hull_next: Vec<u32>,
    /// For hull vertex `v`, the halfedge `v -> hull_next[v]` of the interior
    /// triangle bordering that hull edge.
    hull_tri: Vec<u32>,
    hull_hash: Vec<u32>,
    hull_start: u32,
    center: Point,
    legalize_stack: Vec<u32>,
}

impl Builder {
    fn new(points: &[Point], center: Point) -> Builder {
        let n = points.len();
        // Twice the Euler bound `2n - 5`: room for `DynamicDelaunay`'s ghost
        // triangles, so wrapping never moves the arrays (a moved array's
        // untouched tail can land on resident, reused heap).
        let capacity = 2 * 3 * (2 * n - 5);
        let hash_size = (n as f64).sqrt().ceil() as usize;
        let mut b = Builder {
            triangles: Vec::with_capacity(capacity),
            halfedges: Vec::with_capacity(capacity),
            hull_prev: vec![EMPTY; n],
            hull_next: vec![EMPTY; n],
            hull_tri: vec![EMPTY; n],
            hull_hash: vec![EMPTY; hash_size],
            hull_start: 0,
            center,
            legalize_stack: Vec::with_capacity(64),
        };

        // Initialise the hull with the seed triangle.
        for v in 0..3 {
            b.hull_next[v as usize] = (v + 1) % 3;
            b.hull_prev[v as usize] = (v + 2) % 3;
            b.hull_tri[v as usize] = v;
            b.hash_edge(points[v as usize], v);
        }
        b.add_triangle(0, 1, 2, EMPTY, EMPTY, EMPTY);
        b
    }

    #[inline]
    fn hash_key(&self, p: Point) -> usize {
        let angle = pseudo_angle(p.x - self.center.x, p.y - self.center.y);
        let len = self.hull_hash.len();
        ((angle * len as f64).floor() as usize) % len
    }

    #[inline]
    fn hash_edge(&mut self, p: Point, id: u32) {
        let key = self.hash_key(p);
        self.hull_hash[key] = id;
    }

    /// Adds a triangle `(i0, i1, i2)` (must be CCW) whose three halfedges
    /// twin with `a, b, c` respectively. Returns the first halfedge id.
    fn add_triangle(&mut self, i0: u32, i1: u32, i2: u32, a: u32, b: u32, c: u32) -> u32 {
        let t = self.triangles.len() as u32;
        self.triangles.push(i0);
        self.triangles.push(i1);
        self.triangles.push(i2);
        self.halfedges.push(a);
        self.halfedges.push(b);
        self.halfedges.push(c);
        if a != EMPTY {
            self.halfedges[a as usize] = t;
        }
        if b != EMPTY {
            self.halfedges[b as usize] = t + 1;
        }
        if c != EMPTY {
            self.halfedges[c as usize] = t + 2;
        }
        t
    }

    #[inline]
    fn link(&mut self, a: u32, b: u32) {
        self.halfedges[a as usize] = b;
        if b != EMPTY {
            self.halfedges[b as usize] = a;
        }
    }

    /// Is hull edge `u -> v` strictly visible from `p` (p strictly to its
    /// right)?
    #[inline]
    fn edge_visible(points: &[Point], p: Point, u: u32, v: u32) -> bool {
        orient2d(points[u as usize], points[v as usize], p) == Orientation::Clockwise
    }

    /// Inserts the points after the seeds; `ids[v]` is local `v`'s input id.
    fn run(&mut self, points: &[Point], ids: &[u32]) -> Result<(), VoronoiError> {
        for i in 3..points.len() as u32 {
            let p = points[i as usize];

            // Find a visible hull edge via the angular hash.
            let mut start = 0u32;
            let key = self.hash_key(p);
            let hash_len = self.hull_hash.len();
            for j in 0..hash_len {
                start = self.hull_hash[(key + j) % hash_len];
                if start != EMPTY && self.hull_next[start as usize] != EMPTY {
                    break;
                }
            }
            start = self.hull_prev[start as usize];
            let mut e = start;
            loop {
                let n = self.hull_next[e as usize];
                if Self::edge_visible(points, p, e, n) {
                    break;
                }
                e = n;
                if e == start {
                    // No visible edge: impossible for distinct points under
                    // the sorted insertion order (see module docs).
                    return Err(VoronoiError::DuplicateSites {
                        first: ids[e as usize] as usize,
                        second: ids[i as usize] as usize,
                    });
                }
            }
            let walk_back = e == start;

            // First triangle on the visible edge e -> next[e].
            let n0 = self.hull_next[e as usize];
            let t = self.add_triangle(e, i, n0, EMPTY, EMPTY, self.hull_tri[e as usize]);
            self.hull_tri[i as usize] = self.legalize(t + 2, points);
            self.hull_tri[e as usize] = t;

            // Walk forward, attaching triangles to further visible edges.
            let mut n = n0;
            loop {
                let q = self.hull_next[n as usize];
                if !Self::edge_visible(points, p, n, q) {
                    break;
                }
                let t = self.add_triangle(
                    n,
                    i,
                    q,
                    self.hull_tri[i as usize],
                    EMPTY,
                    self.hull_tri[n as usize],
                );
                self.hull_tri[i as usize] = self.legalize(t + 2, points);
                self.hull_next[n as usize] = EMPTY; // vertex absorbed into the interior
                n = q;
            }

            // Walk backward on the other side.
            #[allow(clippy::redundant_locals)]
            let mut e = e;
            if walk_back {
                loop {
                    let q = self.hull_prev[e as usize];
                    if !Self::edge_visible(points, p, q, e) {
                        break;
                    }
                    let t = self.add_triangle(
                        q,
                        i,
                        e,
                        EMPTY,
                        self.hull_tri[e as usize],
                        self.hull_tri[q as usize],
                    );
                    self.legalize(t + 2, points);
                    self.hull_tri[q as usize] = t;
                    self.hull_next[e as usize] = EMPTY;
                    e = q;
                }
            }

            // Splice the new vertex into the hull.
            self.hull_start = e;
            self.hull_prev[i as usize] = e;
            self.hull_next[e as usize] = i;
            self.hull_prev[n as usize] = i;
            self.hull_next[i as usize] = n;

            self.hash_edge(p, i);
            self.hash_edge(points[e as usize], e);
        }
        Ok(())
    }

    /// Lawson flip propagation from halfedge `a`; returns a halfedge on the
    /// hull fan of the newly inserted vertex (see delaunator).
    fn legalize(&mut self, a: u32, points: &[Point]) -> u32 {
        self.legalize_stack.clear();
        let mut a = a;
        let mut ar;
        loop {
            let b = self.halfedges[a as usize];
            ar = prev_halfedge(a);

            if b == EMPTY {
                match self.legalize_stack.pop() {
                    Some(next) => {
                        a = next;
                        continue;
                    }
                    None => break,
                }
            }

            let al = next_halfedge(a);
            let bl = prev_halfedge(b);

            let p0 = self.triangles[ar as usize];
            let pr = self.triangles[a as usize];
            let pl = self.triangles[al as usize];
            let p1 = self.triangles[bl as usize];

            // Triangle (p0, pr, pl) is CCW; flip when p1 is strictly inside
            // its circumcircle.
            let illegal = incircle(
                points[p0 as usize],
                points[pr as usize],
                points[pl as usize],
                points[p1 as usize],
            ) == InCircle::Inside;

            if illegal {
                self.triangles[a as usize] = p1;
                self.triangles[b as usize] = p0;

                let hbl = self.halfedges[bl as usize];

                // The flipped edge bordered the hull: repair hull_tri.
                if hbl == EMPTY {
                    let mut e = self.hull_start;
                    loop {
                        if self.hull_tri[e as usize] == bl {
                            self.hull_tri[e as usize] = a;
                            break;
                        }
                        e = self.hull_prev[e as usize];
                        if e == self.hull_start {
                            break;
                        }
                    }
                }
                self.link(a, hbl);
                let har = self.halfedges[ar as usize];
                self.link(b, har);
                self.link(ar, bl);

                let br = next_halfedge(b);
                self.legalize_stack.push(br);
            } else {
                match self.legalize_stack.pop() {
                    Some(next) => {
                        a = next;
                        continue;
                    }
                    None => break,
                }
            }
        }
        ar
    }

    /// The triangulation over the input's ids: `ids[v]` is local `v`'s.
    fn finish(mut self, ids: &[u32]) -> Triangulation {
        // Collect the hull in CCW order.
        let mut hull = Vec::new();
        let mut e = self.hull_start;
        loop {
            hull.push(ids[e as usize]);
            e = self.hull_next[e as usize];
            if e == self.hull_start {
                break;
            }
        }
        for v in &mut self.triangles {
            *v = ids[*v as usize];
        }
        Triangulation {
            triangles: self.triangles,
            halfedges: self.halfedges,
            hull,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// Brute-force Delaunay check: no point strictly inside any triangle's
    /// circumcircle.
    fn assert_delaunay(points: &[Point], tri: &Triangulation) {
        for t in 0..tri.num_triangles() as u32 {
            let [a, b, c] = tri.triangle_vertices(t);
            let (pa, pb, pc) = (points[a as usize], points[b as usize], points[c as usize]);
            assert_eq!(
                orient2d(pa, pb, pc),
                Orientation::CounterClockwise,
                "triangle {t} not CCW"
            );
            for (i, &p) in points.iter().enumerate() {
                if i as u32 == a || i as u32 == b || i as u32 == c {
                    continue;
                }
                assert_ne!(
                    incircle(pa, pb, pc, p),
                    InCircle::Inside,
                    "point {i} inside circumcircle of triangle {t}"
                );
            }
        }
    }

    /// Halfedge twin consistency.
    fn assert_halfedges(tri: &Triangulation) {
        for (e, &h) in tri.halfedges.iter().enumerate() {
            if h != EMPTY {
                assert_eq!(tri.halfedges[h as usize], e as u32, "twin of twin");
                // Twins connect the same two vertices in opposite order.
                let (u1, v1) = (
                    tri.triangles[e],
                    tri.triangles[next_halfedge(e as u32) as usize],
                );
                let (u2, v2) = (
                    tri.triangles[h as usize],
                    tri.triangles[next_halfedge(h) as usize],
                );
                assert_eq!((u1, v1), (v2, u2));
            }
        }
    }

    #[test]
    fn triangle_minimal() {
        let points = pts(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        let tri = Triangulation::build(&points).unwrap();
        assert_eq!(tri.num_triangles(), 1);
        assert_eq!(tri.hull.len(), 3);
        assert_delaunay(&points, &tri);
        assert_halfedges(&tri);
    }

    #[test]
    fn square_two_triangles() {
        let points = pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let tri = Triangulation::build(&points).unwrap();
        assert_eq!(tri.num_triangles(), 2);
        assert_eq!(tri.hull.len(), 4);
        assert_delaunay(&points, &tri);
        assert_halfedges(&tri);
    }

    #[test]
    fn grid_with_collinear_boundary() {
        // 5x5 integer grid: many collinear triples on the boundary.
        let mut coords = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                coords.push((i as f64, j as f64));
            }
        }
        let points = pts(&coords);
        let tri = Triangulation::build(&points).unwrap();
        assert_delaunay(&points, &tri);
        assert_halfedges(&tri);
        // Every point participates in at least one triangle.
        let mut seen = vec![false; points.len()];
        for &v in &tri.triangles {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every grid point triangulated");
        // Euler: T = 2n - 2 - h for n points with h hull points.
        let h = tri.hull.len();
        assert_eq!(tri.num_triangles(), 2 * points.len() - 2 - h);
    }

    #[test]
    fn cocircular_points() {
        // 8 points on a circle plus the center: heavily degenerate.
        let mut coords = vec![(0.0, 0.0)];
        for k in 0..8 {
            let ang = std::f64::consts::TAU * k as f64 / 8.0;
            coords.push((ang.cos(), ang.sin()));
        }
        let points = pts(&coords);
        let tri = Triangulation::build(&points).unwrap();
        assert_delaunay(&points, &tri);
        assert_halfedges(&tri);
        assert_eq!(tri.hull.len(), 8);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(matches!(
            Triangulation::build(&pts(&[(0.0, 0.0), (1.0, 0.0)])),
            Err(VoronoiError::TooFewSites { .. })
        ));
        assert!(matches!(
            Triangulation::build(&pts(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])),
            Err(VoronoiError::AllCollinear)
        ));
        assert!(matches!(
            Triangulation::build(&pts(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])),
            Err(VoronoiError::DuplicateSites { .. })
        ));
        assert!(matches!(
            Triangulation::build(&pts(&[(0.0, 0.0), (f64::NAN, 0.0), (0.0, 1.0)])),
            Err(VoronoiError::NonFinite { index: 1 })
        ));

        // The duplicate a scan in input order meets first: the least
        // second occurrence, with the earliest point it repeats.
        let (o, x, y, d, m) = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (3.0, 1.0), (2.0, 2.0));
        let square = [o, (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), m]; // seeds m, then (2.5, 2)
        for (coords, first, second) in [
            (vec![o, x, y, x], 1, 3),
            (vec![o, x, y, d, d, x], 3, 4), // two pairs
            (vec![(0.0, -0.0), x, y, (-0.0, 0.0)], 0, 3),
            ([&square[..], &[(1.0, 3.0), m]].concat(), 4, 6),
            ([&square[..], &[(2.5, 2.0), y, (2.5, 2.0)]].concat(), 5, 7),
            (vec![o, d, x, d, y, d], 1, 3), // three copies
            (vec![o, (1.0, 1.0), m, (1.0, 1.0), (3.0, 3.0)], 1, 3), // collinear
        ] {
            let want = VoronoiError::DuplicateSites { first, second };
            assert_eq!(Triangulation::build(&pts(&coords)).err(), Some(want));
        }
    }

    #[test]
    fn random_points_delaunay_property() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for n in [10usize, 40, 120] {
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect();
            let tri = Triangulation::build(&points).unwrap();
            assert_delaunay(&points, &tri);
            assert_halfedges(&tri);
        }
    }

    #[test]
    fn hull_is_convex_ccw() {
        let mut state = 0xabcdef12u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let points: Vec<Point> = (0..60)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let tri = Triangulation::build(&points).unwrap();
        let h = &tri.hull;
        let m = h.len();
        for i in 0..m {
            let a = points[h[i] as usize];
            let b = points[h[(i + 1) % m] as usize];
            let c = points[h[(i + 2) % m] as usize];
            assert_ne!(orient2d(a, b, c), Orientation::Clockwise, "hull turn CW");
        }
        // All points inside or on the hull.
        for p in &points {
            for i in 0..m {
                let a = points[h[i] as usize];
                let b = points[h[(i + 1) % m] as usize];
                assert_ne!(orient2d(a, b, *p), Orientation::Clockwise);
            }
        }
    }
}
