//! Incrementally maintainable Delaunay triangulation.
//!
//! [`DynamicDelaunay`] augments the halfedge representation of
//! [`crate::delaunay::Triangulation`] with *ghost triangles*: every hull
//! edge `u -> v` carries a companion triangle `(v, u, GHOST)` incident to a
//! single symbolic vertex at infinity. With ghosts, every halfedge has a
//! twin, insertion inside and outside the hull becomes one uniform
//! Bowyer–Watson cavity operation, and hull vertices can be deleted with
//! the same ear-clipping retriangulation as interior ones (ears incident
//! to the ghost vertex create new hull edges).
//!
//! Both operations are *local*: their cost is proportional to the size of
//! the retriangulated cavity (expected O(1) for random updates), not the
//! size of the triangulation — this is the substrate of the delta-epoch
//! index maintenance in `insq-index` / `insq-server`.
//!
//! All decisions use the adaptive-exact predicates of `insq-geom`
//! (`orient2d`, `incircle`), so the maintained topology is exact even for
//! cocircular and collinear inputs, and — for point sets in general
//! position — bit-identical to a from-scratch
//! [`Triangulation::build`].

use std::collections::HashMap;

use insq_geom::predicates::{incircle, InCircle};
use insq_geom::{orient2d, Orientation, Point};

use crate::delaunay::{next_halfedge, prev_halfedge, Triangulation, EMPTY};
use crate::VoronoiError;

/// The symbolic vertex at infinity shared by all ghost triangles.
pub const GHOST: u32 = u32::MAX - 1;

/// An incrementally maintainable Delaunay triangulation in the ghosted
/// halfedge representation.
///
/// Triangle `t` occupies indices `3t, 3t+1, 3t+2` of `triangles`; freed
/// slots are recycled through a free list and hold [`EMPTY`] in all three
/// entries. Exactly one vertex of a ghost triangle is [`GHOST`].
#[derive(Debug, Clone)]
pub struct DynamicDelaunay {
    /// Vertex ids, three per triangle slot ([`EMPTY`] when the slot is
    /// free, [`GHOST`] for the vertex at infinity).
    triangles: Vec<u32>,
    /// Twin halfedge ids. Every halfedge of a live triangle has a twin.
    halfedges: Vec<u32>,
    /// For each vertex, some live halfedge starting at it ([`EMPTY`] if
    /// the vertex is not in the triangulation).
    vert_edge: Vec<u32>,
    /// Recyclable triangle slots.
    free: Vec<u32>,
    /// Number of live solid (non-ghost) triangles.
    solid: usize,
}

/// One node of the cavity ring during vertex deletion: a link vertex plus
/// the surviving outside twin of the ring edge from this node to the next.
#[derive(Debug, Clone, Copy)]
struct RingNode {
    vertex: u32,
    out_twin: u32,
}

impl DynamicDelaunay {
    /// Wraps a freshly built [`Triangulation`] over `n` points, adding the
    /// ghost triangles along its hull.
    pub fn from_triangulation(tri: Triangulation, n: usize) -> DynamicDelaunay {
        let solid = tri.triangles.len() / 3;
        let mut d = DynamicDelaunay {
            triangles: tri.triangles,
            halfedges: tri.halfedges,
            vert_edge: vec![EMPTY; n],
            free: Vec::new(),
            solid,
        };
        for e in 0..d.triangles.len() {
            d.vert_edge[d.triangles[e] as usize] = e as u32;
        }
        // One ghost triangle per boundary halfedge u -> v (hull edge).
        let boundary: Vec<u32> = (0..d.halfedges.len() as u32)
            .filter(|&e| d.halfedges[e as usize] == EMPTY)
            .collect();
        let mut ghost_of: HashMap<u32, u32> = HashMap::with_capacity(boundary.len());
        for &e in &boundary {
            let u = d.triangles[e as usize];
            let v = d.triangles[next_halfedge(e) as usize];
            // Ghost triple (v, u, GHOST): halfedges [v->u, u->G, G->v].
            let t = d.alloc_triangle(v, u, GHOST);
            d.link(3 * t, e);
            ghost_of.insert(u, t);
        }
        // Ghost(u->v)'s G->v edge twins ghost(v->w)'s v->G edge.
        for (_, &t) in ghost_of.iter() {
            let v = d.triangles[3 * t as usize];
            let t2 = ghost_of[&v];
            d.link(3 * t + 2, 3 * t2 + 1);
        }
        d
    }

    /// Whether triangle slot `t` holds a live triangle.
    #[inline]
    fn is_live(&self, t: u32) -> bool {
        self.triangles[3 * t as usize] != EMPTY
    }

    /// The slot (0..3) of the ghost vertex of `t`, if any.
    #[inline]
    fn ghost_slot(&self, t: u32) -> Option<usize> {
        let base = 3 * t as usize;
        (0..3).find(|&i| self.triangles[base + i] == GHOST)
    }

    /// Whether `t` is live and fully finite.
    #[inline]
    fn is_solid(&self, t: u32) -> bool {
        self.is_live(t) && self.ghost_slot(t).is_none()
    }

    /// The three vertex ids of live triangle `t`.
    #[inline]
    pub fn triangle_vertices(&self, t: u32) -> [u32; 3] {
        let base = 3 * t as usize;
        [
            self.triangles[base],
            self.triangles[base + 1],
            self.triangles[base + 2],
        ]
    }

    /// Every finite undirected Delaunay edge, once.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for e in 0..self.triangles.len() as u32 {
            let a = self.triangles[e as usize];
            if a == EMPTY || a == GHOST {
                continue;
            }
            let b = self.triangles[next_halfedge(e) as usize];
            if b == GHOST {
                continue;
            }
            if e < self.halfedges[e as usize] {
                out.push((a, b));
            }
        }
        out
    }

    /// The convex hull vertex ids in counter-clockwise order (hull chains
    /// may contain collinear vertices).
    pub fn hull(&self) -> Vec<u32> {
        let Some(t0) = (0..(self.triangles.len() / 3) as u32)
            .find(|&t| self.is_live(t) && self.ghost_slot(t).is_some())
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut t = t0;
        loop {
            let g = self.ghost_slot(t).expect("ghost ring stays ghostly");
            let base = 3 * t as usize;
            out.push(self.triangles[base + (g + 2) % 3]);
            t = self.halfedges[base + g] / 3;
            if t == t0 {
                break;
            }
        }
        out
    }

    /// Appends the finite Delaunay neighbors of `v` to `out`, ascending.
    pub fn neighbors_of_into(&self, v: u32, out: &mut Vec<u32>) {
        let from = out.len();
        let e0 = self.vert_edge[v as usize];
        if e0 == EMPTY {
            return;
        }
        let mut e = e0;
        loop {
            let b = self.triangles[next_halfedge(e) as usize];
            if b != GHOST {
                out.push(b);
            }
            e = self.halfedges[prev_halfedge(e) as usize];
            if e == e0 {
                break;
            }
        }
        out[from..].sort_unstable();
    }

    // ------------------------------------------------------------ plumbing

    fn alloc_triangle(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let t = if let Some(t) = self.free.pop() {
            let base = 3 * t as usize;
            self.triangles[base] = a;
            self.triangles[base + 1] = b;
            self.triangles[base + 2] = c;
            self.halfedges[base] = EMPTY;
            self.halfedges[base + 1] = EMPTY;
            self.halfedges[base + 2] = EMPTY;
            t
        } else {
            let t = (self.triangles.len() / 3) as u32;
            self.triangles.extend_from_slice(&[a, b, c]);
            self.halfedges.extend_from_slice(&[EMPTY, EMPTY, EMPTY]);
            t
        };
        for (i, v) in [a, b, c].into_iter().enumerate() {
            if v != GHOST {
                self.vert_edge[v as usize] = 3 * t + i as u32;
            }
        }
        if a != GHOST && b != GHOST && c != GHOST {
            self.solid += 1;
        }
        t
    }

    fn free_triangle(&mut self, t: u32) {
        if self.is_solid(t) {
            self.solid -= 1;
        }
        let base = 3 * t as usize;
        for i in 0..3 {
            self.triangles[base + i] = EMPTY;
            self.halfedges[base + i] = EMPTY;
        }
        self.free.push(t);
    }

    #[inline]
    fn link(&mut self, a: u32, b: u32) {
        self.halfedges[a as usize] = b;
        self.halfedges[b as usize] = a;
    }

    // ----------------------------------------------------------- conflicts

    /// Whether `p` conflicts with (is inside the circumdisk of) live
    /// triangle `t`. The circumdisk of a ghost triangle with hull edge
    /// `u -> v` is the open half-plane strictly right of `u -> v` plus the
    /// open segment `uv` itself.
    fn in_conflict(&self, points: &[Point], t: u32, p: Point) -> bool {
        let base = 3 * t as usize;
        match self.ghost_slot(t) {
            Some(g) => {
                let hu = points[self.triangles[base + (g + 2) % 3] as usize];
                let hv = points[self.triangles[base + (g + 1) % 3] as usize];
                match orient2d(hu, hv, p) {
                    Orientation::Clockwise => true,
                    Orientation::CounterClockwise => false,
                    Orientation::Collinear => strictly_between(hu, hv, p),
                }
            }
            None => {
                let a = points[self.triangles[base] as usize];
                let b = points[self.triangles[base + 1] as usize];
                let c = points[self.triangles[base + 2] as usize];
                incircle(a, b, c, p) == InCircle::Inside
            }
        }
    }

    /// Finds one triangle in conflict with `p`, walking from `hint` (a
    /// vertex id) when given. Returns `None` exactly when `p` coincides
    /// with an existing vertex (the only configuration with an empty
    /// conflict set).
    fn locate_conflict(&self, points: &[Point], p: Point, hint: Option<u32>) -> Option<u32> {
        let start = hint
            .and_then(|v| self.vert_edge.get(v as usize).copied())
            .filter(|&e| e != EMPTY)
            .or_else(|| {
                (0..(self.triangles.len() / 3) as u32)
                    .find(|&t| self.is_live(t))
                    .map(|t| 3 * t)
            });
        let mut t = start? / 3;
        if let Some(g) = self.ghost_slot(t) {
            if self.in_conflict(points, t, p) {
                return Some(t);
            }
            // Step to the interior triangle across the ghost's solid edge.
            t = self.halfedges[3 * t as usize + (g + 1) % 3] / 3;
            if self.ghost_slot(t).is_some() {
                // Triangulation degenerate enough that ghosts twin ghosts
                // never happens (>= 1 solid triangle exists); be safe.
                return self.scan_conflict(points, p);
            }
        }
        let cap = 4 * (self.triangles.len() / 3) + 16;
        for _ in 0..cap {
            let base = 3 * t as usize;
            let mut crossed = false;
            for i in 0..3 {
                let e = (base + i) as u32;
                let a = points[self.triangles[e as usize] as usize];
                let b = points[self.triangles[next_halfedge(e) as usize] as usize];
                if orient2d(a, b, p) == Orientation::Clockwise {
                    let nt = self.halfedges[e as usize] / 3;
                    if self.ghost_slot(nt).is_some() {
                        // Crossing a hull edge strictly means the ghost on
                        // the other side conflicts.
                        return Some(nt);
                    }
                    t = nt;
                    crossed = true;
                    break;
                }
            }
            if !crossed {
                // p is inside or on the boundary of t (or the walk is stuck
                // on a degenerate collinear configuration).
                if self.in_conflict(points, t, p) {
                    return Some(t);
                }
                return self.scan_conflict(points, p);
            }
        }
        self.scan_conflict(points, p)
    }

    /// Exhaustive conflict scan — the fallback for degenerate walks.
    fn scan_conflict(&self, points: &[Point], p: Point) -> Option<u32> {
        (0..(self.triangles.len() / 3) as u32)
            .find(|&t| self.is_live(t) && self.in_conflict(points, t, p))
    }

    // ------------------------------------------------------------- insert

    /// Inserts vertex `v` (whose coordinates are `points[v]`, already
    /// appended by the caller) via Bowyer–Watson cavity retriangulation.
    ///
    /// `hint` is a vertex to start the point-location walk from (pass the
    /// nearest known site for O(1) location). Returns the vertices whose
    /// incident edges changed (the cavity ring plus `v` itself).
    pub fn insert(
        &mut self,
        points: &[Point],
        v: u32,
        hint: Option<u32>,
    ) -> Result<Vec<u32>, VoronoiError> {
        let p = points[v as usize];
        if self.vert_edge.len() <= v as usize {
            self.vert_edge.resize(v as usize + 1, EMPTY);
        }
        let Some(seed) = self.locate_conflict(points, p, hint) else {
            // An empty conflict set means p coincides with a vertex.
            let first = points[..v as usize]
                .iter()
                .position(|&q| q == p)
                .unwrap_or(0);
            return Err(VoronoiError::DuplicateSites {
                first,
                second: v as usize,
            });
        };

        // Grow the conflict cavity by breadth-first search over twins.
        let mut cavity = vec![seed];
        let mut in_cavity: std::collections::HashSet<u32> = std::collections::HashSet::new();
        in_cavity.insert(seed);
        let mut qi = 0;
        while qi < cavity.len() {
            let t = cavity[qi];
            qi += 1;
            for i in 0..3 {
                let nt = self.halfedges[(3 * t + i) as usize] / 3;
                if !in_cavity.contains(&nt) && self.in_conflict(points, nt, p) {
                    in_cavity.insert(nt);
                    cavity.push(nt);
                }
            }
        }

        // The cavity boundary: halfedges whose twin lies outside.
        struct Bd {
            a: u32,
            b: u32,
            outside: u32,
        }
        let mut boundary: Vec<Bd> = Vec::with_capacity(cavity.len() + 2);
        for &t in &cavity {
            for i in 0..3 {
                let e = 3 * t + i;
                let tw = self.halfedges[e as usize];
                if !in_cavity.contains(&(tw / 3)) {
                    boundary.push(Bd {
                        a: self.triangles[e as usize],
                        b: self.triangles[next_halfedge(e) as usize],
                        outside: tw,
                    });
                }
            }
        }
        debug_assert!(boundary.len() >= 3, "cavity boundary is a cycle");
        for &t in &cavity {
            self.free_triangle(t);
        }

        // Refill: one new triangle (a, b, v) per boundary edge a -> b; the
        // radial edges b -> v / v -> a pair up between consecutive boundary
        // edges (ghost boundary vertices participate like any other, which
        // is what creates the new hull edges when p lies outside).
        let mut radial: HashMap<u32, u32> = HashMap::with_capacity(boundary.len());
        let mut created: Vec<(u32, u32)> = Vec::with_capacity(boundary.len());
        let mut ring: Vec<u32> = Vec::with_capacity(boundary.len() + 1);
        for bd in &boundary {
            let t = self.alloc_triangle(bd.a, bd.b, v);
            self.link(3 * t, bd.outside);
            radial.insert(bd.b, 3 * t + 1);
            created.push((t, bd.a));
            if bd.a != GHOST {
                ring.push(bd.a);
            }
        }
        for (t, a) in created {
            self.link(3 * t + 2, radial[&a]);
        }
        ring.push(v);
        Ok(ring)
    }

    // ------------------------------------------------------------- remove

    /// Removes vertex `v`, retriangulating its star polygon with
    /// Delaunay ear clipping (ears incident to the ghost vertex re-stitch
    /// the convex hull). Returns the ring vertices whose incident edges
    /// changed.
    ///
    /// Fails with [`VoronoiError::AllCollinear`] when the remaining
    /// vertices would be collinear (no triangulation exists). The caller
    /// is responsible for keeping at least 3 vertices.
    pub fn remove(&mut self, points: &[Point], v: u32) -> Result<Vec<u32>, VoronoiError> {
        let e0 = self.vert_edge[v as usize];
        debug_assert_ne!(e0, EMPTY, "removing a live vertex");

        // Collect the star (triangles around v) and the link ring.
        let mut star: Vec<u32> = Vec::new();
        let mut ring: Vec<RingNode> = Vec::new();
        let mut e = e0;
        loop {
            debug_assert_eq!(self.triangles[e as usize], v);
            star.push(e / 3);
            let le = next_halfedge(e);
            ring.push(RingNode {
                vertex: self.triangles[le as usize],
                out_twin: self.halfedges[le as usize],
            });
            e = self.halfedges[prev_halfedge(e) as usize];
            if e == e0 {
                break;
            }
        }

        // If every solid triangle is incident to v, the remaining live
        // vertices are exactly the ring; if those are all collinear no
        // triangulation of them exists and the removal must be refused.
        let star_solid = star.iter().filter(|&&t| self.is_solid(t)).count();
        if star_solid == self.solid {
            let solid_ring: Vec<u32> = ring
                .iter()
                .map(|n| n.vertex)
                .filter(|&w| w != GHOST)
                .collect();
            let all_collinear = solid_ring.len() >= 2
                && solid_ring[2..].iter().all(|&w| {
                    orient2d(
                        points[solid_ring[0] as usize],
                        points[solid_ring[1] as usize],
                        points[w as usize],
                    ) == Orientation::Collinear
                });
            if all_collinear {
                return Err(VoronoiError::AllCollinear);
            }
        }

        for &t in &star {
            self.free_triangle(t);
        }
        self.vert_edge[v as usize] = EMPTY;
        let affected: Vec<u32> = ring
            .iter()
            .map(|n| n.vertex)
            .filter(|&w| w != GHOST)
            .collect();

        // Delaunay ear clipping of the ring polygon.
        while ring.len() > 3 {
            let m = ring.len();
            let i = (0..m)
                .find(|&i| self.ear_ok(points, &ring, i))
                .unwrap_or_else(|| {
                    panic!("Delaunay ear clipping must always find an ear ({m} ring vertices)")
                });
            let xi = (i + m - 1) % m;
            let zi = (i + 1) % m;
            let t = self.alloc_triangle(ring[xi].vertex, ring[i].vertex, ring[zi].vertex);
            self.link(3 * t, ring[xi].out_twin);
            self.link(3 * t + 1, ring[i].out_twin);
            ring[xi].out_twin = 3 * t + 2;
            ring.remove(i);
        }
        let t = self.alloc_triangle(ring[0].vertex, ring[1].vertex, ring[2].vertex);
        self.link(3 * t, ring[0].out_twin);
        self.link(3 * t + 1, ring[1].out_twin);
        self.link(3 * t + 2, ring[2].out_twin);

        Ok(affected)
    }

    /// Whether the ear at ring position `i` can be clipped: it must be
    /// correctly oriented and its circumdisk must be empty of all other
    /// ring vertices (ears incident to the ghost vertex use the half-plane
    /// circumdisk of the hull edge they would create).
    fn ear_ok(&self, points: &[Point], ring: &[RingNode], i: usize) -> bool {
        let m = ring.len();
        let x = ring[(i + m - 1) % m].vertex;
        let y = ring[i].vertex;
        let z = ring[(i + 1) % m].vertex;
        let skip = [(i + m - 1) % m, i, (i + 1) % m];
        let others = || {
            ring.iter()
                .enumerate()
                .filter(move |(j, _)| !skip.contains(j))
                .map(|(_, n)| n.vertex)
                .filter(|&w| w != GHOST)
        };
        // Ears incident to the ghost create a hull edge `from -> to`
        // (interior on the left); they are clippable iff no other ring
        // vertex lies in the ghost circumdisk (strictly right of the edge
        // or on its open segment).
        let hull_edge = if y == GHOST {
            Some((x, z))
        } else if x == GHOST {
            Some((z, y))
        } else if z == GHOST {
            Some((y, x))
        } else {
            None
        };
        match hull_edge {
            Some((from, to)) => {
                if from == GHOST || to == GHOST {
                    return false;
                }
                let pf = points[from as usize];
                let pt = points[to as usize];
                others().all(|w| {
                    let pw = points[w as usize];
                    match orient2d(pf, pt, pw) {
                        Orientation::Clockwise => false,
                        Orientation::Collinear => !strictly_between(pf, pt, pw),
                        Orientation::CounterClockwise => true,
                    }
                })
            }
            None => {
                let (px, py, pz) = (points[x as usize], points[y as usize], points[z as usize]);
                if orient2d(px, py, pz) != Orientation::CounterClockwise {
                    return false;
                }
                others().all(|w| incircle(px, py, pz, points[w as usize]) != InCircle::Inside)
            }
        }
    }

    // ------------------------------------------------------------ relabel

    /// Renames vertex `from` to `to` in every incident triangle (the
    /// swap-remove relabel of site deletion). `to`'s previous incidence is
    /// overwritten; `from` becomes unused.
    pub fn relabel(&mut self, from: u32, to: u32) {
        let e0 = self.vert_edge[from as usize];
        debug_assert_ne!(e0, EMPTY, "relabeling a live vertex");
        let mut e = e0;
        loop {
            self.triangles[e as usize] = to;
            e = self.halfedges[prev_halfedge(e) as usize];
            if e == e0 {
                break;
            }
        }
        self.vert_edge[to as usize] = e0;
        self.vert_edge[from as usize] = EMPTY;
    }

    /// Shrinks the vertex table to `n` entries (after a swap-remove).
    pub fn truncate_vertices(&mut self, n: usize) {
        debug_assert!(self.vert_edge[n..].iter().all(|&e| e == EMPTY));
        self.vert_edge.truncate(n);
    }

    /// Validates structural invariants (twin symmetry, vertex incidence,
    /// CCW solid triangles, ghost ring closure). Test/debug helper;
    /// panics on violation.
    pub fn check_invariants(&self, points: &[Point]) {
        for e in 0..self.triangles.len() as u32 {
            let a = self.triangles[e as usize];
            if a == EMPTY {
                continue;
            }
            let tw = self.halfedges[e as usize];
            assert_ne!(tw, EMPTY, "live halfedge {e} lacks a twin");
            assert_eq!(self.halfedges[tw as usize], e, "twin of twin");
            let b = self.triangles[next_halfedge(e) as usize];
            let ta = self.triangles[tw as usize];
            let tb = self.triangles[next_halfedge(tw) as usize];
            assert_eq!((a, b), (tb, ta), "twins share reversed endpoints");
        }
        for (v, &e) in self.vert_edge.iter().enumerate() {
            if e != EMPTY {
                assert_eq!(
                    self.triangles[e as usize], v as u32,
                    "vert_edge[{v}] starts elsewhere"
                );
            }
        }
        let mut solid = 0;
        for t in 0..(self.triangles.len() / 3) as u32 {
            if !self.is_live(t) {
                continue;
            }
            if let Some(g) = self.ghost_slot(t) {
                let base = 3 * t as usize;
                assert_ne!(
                    self.triangles[base + (g + 1) % 3],
                    GHOST,
                    "one ghost vertex"
                );
                assert_ne!(
                    self.triangles[base + (g + 2) % 3],
                    GHOST,
                    "one ghost vertex"
                );
            } else {
                solid += 1;
                let [a, b, c] = self.triangle_vertices(t);
                assert_eq!(
                    orient2d(points[a as usize], points[b as usize], points[c as usize]),
                    Orientation::CounterClockwise,
                    "solid triangle {t} not CCW"
                );
            }
        }
        assert_eq!(solid, self.solid, "solid triangle count");
        // The ghost triangles form one closed ring whose hull edges chain.
        let hull = self.hull();
        assert!(hull.len() >= 3 || self.solid == 0, "hull cycle closes");
    }
}

/// Whether `p` (known collinear with `a`, `b`) lies strictly between them.
fn strictly_between(a: Point, b: Point, p: Point) -> bool {
    if (a.x - b.x).abs() >= (a.y - b.y).abs() {
        (a.x < p.x && p.x < b.x) || (b.x < p.x && p.x < a.x)
    } else {
        (a.y < p.y && p.y < b.y) || (b.y < p.y && p.y < a.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn build(points: &[Point]) -> DynamicDelaunay {
        let tri = Triangulation::build(points).unwrap();
        DynamicDelaunay::from_triangulation(tri, points.len())
    }

    /// Brute-force Delaunay property over the live vertex set.
    fn assert_delaunay(points: &[Point], live: &[bool], d: &DynamicDelaunay) {
        d.check_invariants(points);
        let solid: Vec<[u32; 3]> = (0..(d.triangles.len() / 3) as u32)
            .filter(|&t| d.is_solid(t))
            .map(|t| d.triangle_vertices(t))
            .collect();
        for &tri in &solid {
            let [a, b, c] = tri;
            let (pa, pb, pc) = (points[a as usize], points[b as usize], points[c as usize]);
            for (i, &p) in points.iter().enumerate() {
                if !live[i] || [a, b, c].contains(&(i as u32)) {
                    continue;
                }
                assert_ne!(
                    incircle(pa, pb, pc, p),
                    InCircle::Inside,
                    "vertex {i} inside circumcircle of ({a},{b},{c})"
                );
            }
        }
        // Every live vertex appears in some solid triangle; Euler count.
        let n = live.iter().filter(|&&l| l).count();
        let mut seen = vec![false; points.len()];
        for tri in &solid {
            for &v in tri {
                seen[v as usize] = true;
            }
        }
        for (i, &l) in live.iter().enumerate() {
            assert_eq!(seen[i], l, "vertex {i} live={l} but seen={}", seen[i]);
        }
        let h = d.hull().len();
        assert_eq!(solid.len(), 2 * n - 2 - h, "Euler triangle count");
    }

    #[test]
    fn ghosts_wrap_the_sweep_triangulation() {
        let points = pts(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.4, 0.6)]);
        let d = build(&points);
        let live = vec![true; 5];
        assert_delaunay(&points, &live, &d);
        assert_eq!(d.hull().len(), 4);
    }

    #[test]
    fn insert_inside_and_outside() {
        let mut points = pts(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]);
        let mut d = build(&points);
        // Inside.
        points.push(Point::new(2.0, 2.0));
        d.insert(&points, 3, None).unwrap();
        // Outside, across the hypotenuse.
        points.push(Point::new(9.0, 9.0));
        d.insert(&points, 4, None).unwrap();
        // Far outside, collinear with a hull edge extension.
        points.push(Point::new(20.0, 0.0));
        d.insert(&points, 5, Some(1)).unwrap();
        // On an existing edge.
        points.push(Point::new(5.0, 0.0));
        d.insert(&points, 6, None).unwrap();
        let live = vec![true; points.len()];
        assert_delaunay(&points, &live, &d);
    }

    #[test]
    fn insert_duplicate_rejected() {
        let mut points = pts(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (3.0, 3.0)]);
        let mut d = build(&points);
        points.push(Point::new(3.0, 3.0));
        assert!(matches!(
            d.insert(&points, 4, None),
            Err(VoronoiError::DuplicateSites {
                first: 3,
                second: 4
            })
        ));
    }

    #[test]
    fn remove_interior_and_hull_vertices() {
        let mut coords = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                coords.push((i as f64, j as f64));
            }
        }
        let points = pts(&coords);
        let mut d = build(&points);
        let mut live = vec![true; points.len()];
        // Interior vertex (1,1) = index 5, hull corner (0,0) = index 0,
        // hull-chain middle (0,2) = index 2.
        for v in [5u32, 0, 2] {
            d.remove(&points, v).unwrap();
            live[v as usize] = false;
            assert_delaunay(&points, &live, &d);
        }
    }

    #[test]
    fn remove_to_collinear_is_rejected() {
        let points = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 5.0)]);
        let mut d = build(&points);
        assert!(matches!(
            d.remove(&points, 3),
            Err(VoronoiError::AllCollinear)
        ));
        // The failed removal must leave the triangulation intact.
        let live = vec![true; 4];
        assert_delaunay(&points, &live, &d);
    }

    #[test]
    fn random_interleaved_insert_remove() {
        let mut next = lcg(0xD0_D0);
        let mut points = pts(&[(50.0, 50.0), (52.0, 48.0), (47.0, 58.0)]);
        let mut d = build(&points);
        let mut live = vec![true; 3];
        let mut live_ids: Vec<u32> = vec![0, 1, 2];
        for step in 0..240 {
            let grow = live_ids.len() <= 4 || next() < 0.6;
            if grow {
                let p = Point::new(next() * 100.0, next() * 100.0);
                let v = points.len() as u32;
                points.push(p);
                live.push(true);
                let hint = live_ids[(next() * live_ids.len() as f64) as usize];
                d.insert(&points, v, Some(hint)).unwrap();
                live_ids.push(v);
            } else {
                let at = (next() * live_ids.len() as f64) as usize;
                let v = live_ids[at];
                match d.remove(&points, v) {
                    Ok(_) => {
                        live[v as usize] = false;
                        live_ids.swap_remove(at);
                    }
                    Err(VoronoiError::AllCollinear) => {}
                    Err(e) => panic!("unexpected removal failure: {e}"),
                }
            }
            if step % 16 == 0 {
                assert_delaunay(&points, &live, &d);
            }
        }
        assert_delaunay(&points, &live, &d);
    }

    #[test]
    fn cocircular_grid_churn() {
        // Integer grid: heavily degenerate (cocircular quadruples,
        // collinear hull chains).
        let mut coords = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                coords.push((i as f64, j as f64));
            }
        }
        let mut points = pts(&coords);
        let mut d = build(&points);
        let mut live = vec![true; points.len()];
        for v in [12u32, 6, 0, 4, 24, 2] {
            d.remove(&points, v).unwrap();
            live[v as usize] = false;
            assert_delaunay(&points, &live, &d);
        }
        // Reinsert on grid points and half-integer (edge midpoint) spots.
        for (x, y) in [(2.0, 2.0), (0.0, 0.0), (1.5, 1.5), (2.5, 0.0)] {
            let v = points.len() as u32;
            points.push(Point::new(x, y));
            live.push(true);
            d.insert(&points, v, None).unwrap();
            assert_delaunay(&points, &live, &d);
        }
    }

    #[test]
    fn hull_walks_counter_clockwise() {
        let mut next = lcg(7);
        let points: Vec<Point> = (0..40)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let d = build(&points);
        let tri = Triangulation::build(&points).unwrap();
        // Same cyclic sequence as the sweep hull.
        let h1 = d.hull();
        let h2 = tri.hull;
        assert_eq!(h1.len(), h2.len());
        let at = h1.iter().position(|&v| v == h2[0]).unwrap();
        let rotated: Vec<u32> = (0..h1.len()).map(|i| h1[(at + i) % h1.len()]).collect();
        assert_eq!(rotated, h2);
    }

    #[test]
    fn relabel_rewrites_the_star() {
        let mut points = pts(&[(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 2.0)]);
        let mut d = build(&points);
        // Remove vertex 1, then relabel 4 -> 1 (swap-remove semantics).
        d.remove(&points, 1).unwrap();
        d.relabel(4, 1);
        points[1] = points[4];
        points.truncate(4);
        d.truncate_vertices(4);
        let live = vec![true; 4];
        assert_delaunay(&points, &live, &d);
        let mut ring = Vec::new();
        d.neighbors_of_into(1, &mut ring);
        assert_eq!(ring, vec![0, 2, 3]);
    }
}
