//! The order-1 Voronoi diagram: sites and neighbor sets.
//!
//! Built once over the data set, as prescribed by the INSQ paper (§III:
//! "we precompute the Voronoi diagram of O"), then maintained
//! *incrementally* under site insertions and removals: the underlying
//! [`DynamicDelaunay`] repairs only the triangles of the affected cavity,
//! and the per-site neighbor lists are refreshed for exactly the sites
//! whose cells changed. Update cost is therefore proportional to the size
//! of the delta's neighborhood, not the diagram — the substrate of the
//! delta-epoch index maintenance in `insq-index` / `insq-server`.

use insq_geom::{Aabb, Point};

use crate::delaunay::Triangulation;
use crate::dynamic::DynamicDelaunay;
use crate::VoronoiError;

/// Identifier of a data object (site) — an index into the site array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The site id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One site's neighbor list: `pool[start..start + len]`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// The per-site neighbor lists in one flat pool, patched in place.
///
/// A kNN expansion walks one contiguous slice per visited site, a clone
/// is two `memcpy`s and a drop two frees whatever the site count, and
/// an update rewrites only the lists it changed: over the old span when
/// the new list fits, at the end of the pool otherwise. Spans are
/// pairwise disjoint; pool entries no span covers are `dead`, and when
/// they outnumber the live ones the pool is rewritten in site order.
/// Every entry dies once and a compaction copies fewer entries than
/// died since the last, so upkeep is amortised O(1) per entry written —
/// and a pure function of the updates: two copies fed the same updates
/// stay bit-identical.
#[derive(Debug, Clone)]
struct Adjacency {
    spans: Vec<Span>,
    pool: Vec<SiteId>,
    /// `pool.len()` minus the sum of all span lengths.
    dead: usize,
}

impl Adjacency {
    /// The lists of `n` sites from every directed edge, once: degree
    /// count, prefix sum, fill, sort each span.
    fn build(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Adjacency {
        let mut spans = vec![Span::default(); n];
        for (u, _) in edges.clone() {
            spans[u as usize].len += 1;
        }
        let mut end = 0usize;
        for span in &mut spans {
            span.start = u32::try_from(end).expect("adjacency pool exceeds u32 offsets");
            end += span.len as usize;
            span.len = 0;
        }
        let mut pool = vec![SiteId(0); end];
        for (u, v) in edges {
            let span = &mut spans[u as usize];
            pool[span.range().end] = SiteId(v);
            span.len += 1;
        }
        for span in &spans {
            pool[span.range()].sort_unstable();
        }
        Adjacency {
            spans,
            pool,
            dead: 0,
        }
    }

    #[inline]
    fn get(&self, s: usize) -> &[SiteId] {
        &self.pool[self.spans[s].range()]
    }

    /// Replaces the list of site `s` with `list` (sorted ascending).
    fn set(&mut self, s: usize, list: &[u32]) {
        let old = self.spans[s];
        // A list holds distinct site ids, so its length fits a `u32`.
        let len = list.len() as u32;
        let start = if len <= old.len {
            self.dead += (old.len - len) as usize;
            old.start
        } else {
            self.dead += old.len as usize;
            let start = self.pool.len();
            self.pool.resize(start + list.len(), SiteId(0));
            u32::try_from(start).expect("adjacency pool exceeds u32 offsets")
        };
        let span = Span { start, len };
        self.spans[s] = span;
        for (slot, &nb) in self.pool[span.range()].iter_mut().zip(list) {
            *slot = SiteId(nb);
        }
        if self.dead > self.pool.len() - self.dead {
            self.compact();
        }
    }

    /// Appends a site with an empty list.
    fn push(&mut self) {
        self.spans.push(Span::default());
    }

    /// Drops the list of site `s`; the last site takes its id.
    fn swap_remove(&mut self, s: usize) {
        self.dead += self.spans.swap_remove(s).len as usize;
    }

    /// Rewrites the pool without its dead entries, in site order.
    fn compact(&mut self) {
        let mut pool = Vec::with_capacity(self.pool.len() - self.dead);
        for span in &mut self.spans {
            let start = pool.len() as u32;
            pool.extend_from_slice(&self.pool[span.range()]);
            span.start = start;
        }
        self.pool = pool;
        self.dead = 0;
    }
}

/// An order-1 Voronoi diagram over a set of sites, clipped to a bounding
/// window, maintainable under site insertions and removals.
#[derive(Debug, Clone)]
pub struct Voronoi {
    points: Vec<Point>,
    bounds: Aabb,
    tri: DynamicDelaunay,
    /// Per-site Voronoi neighbor lists, each sorted ascending.
    adj: Adjacency,
}

impl Voronoi {
    /// Builds the Voronoi diagram of `points`, clipping all cells to
    /// `bounds`. `bounds` must contain every site.
    pub fn build(points: Vec<Point>, bounds: Aabb) -> Result<Voronoi, VoronoiError> {
        let triangulation = Triangulation::build(&points)?;
        let n = points.len();
        let tri = DynamicDelaunay::from_triangulation(triangulation, n);
        let adj = Adjacency::build(n, tri.directed_edges());
        Ok(Voronoi {
            points,
            bounds,
            tri,
            adj,
        })
    }

    /// Inserts a new site at `p` (which must lie inside the clipping
    /// window), repairing the diagram locally. `hint` — typically the
    /// nearest known site, e.g. from an R-tree probe — makes point
    /// location O(1); without it, location walks from an arbitrary
    /// triangle.
    ///
    /// Returns the new site's id, which is always `SiteId(len - 1)` of
    /// the grown diagram.
    pub fn insert_site(&mut self, p: Point, hint: Option<SiteId>) -> Result<SiteId, VoronoiError> {
        self.insert_site_traced(p, hint, &mut Vec::new())
    }

    /// [`Voronoi::insert_site`] that also appends to `touched` the new
    /// site's id and the id of every site whose neighbor list the repair
    /// rewrote — what a delta epoch reports so that queries guarded by
    /// other sites can keep their guards (`insq_core::TouchedSet`).
    /// Nothing is appended on error.
    pub fn insert_site_traced(
        &mut self,
        p: Point,
        hint: Option<SiteId>,
        touched: &mut Vec<SiteId>,
    ) -> Result<SiteId, VoronoiError> {
        if !p.is_finite() {
            return Err(VoronoiError::NonFinite {
                index: self.points.len(),
            });
        }
        let v = self.points.len() as u32;
        self.points.push(p);
        match self.tri.insert(&self.points, v, hint.map(|s| s.0)) {
            Ok(affected) => {
                self.adj.push();
                self.refresh_adjacency(&affected);
                touched.extend(affected.into_iter().map(SiteId));
                Ok(SiteId(v))
            }
            Err(e) => {
                self.points.pop();
                self.tri.truncate_vertices(self.points.len());
                Err(e)
            }
        }
    }

    /// Removes site `s`, repairing the diagram locally.
    ///
    /// Site ids are dense, so the removal uses *swap-remove semantics*:
    /// when `s` is not the last site, the last site is renumbered to `s`
    /// and `Some(old_id)` of the moved site is returned (callers holding
    /// external per-site state — like the VoR-tree's R-tree entries —
    /// must apply the same rename). Removal keeps at least 3 sites and
    /// refuses to leave an all-collinear site set.
    pub fn remove_site(&mut self, s: SiteId) -> Result<Option<SiteId>, VoronoiError> {
        self.remove_site_traced(s, &mut Vec::new())
    }

    /// [`Voronoi::remove_site`] that also appends to `touched` every id
    /// that stops naming the same site with the same neighbors: `s`, the
    /// old id of the site renumbered to `s` (the last one), and every
    /// site whose neighbor list the repair or the renumbering rewrote
    /// (see [`Voronoi::insert_site_traced`]). Nothing is appended on
    /// error.
    pub fn remove_site_traced(
        &mut self,
        s: SiteId,
        touched: &mut Vec<SiteId>,
    ) -> Result<Option<SiteId>, VoronoiError> {
        let n = self.points.len();
        if s.idx() >= n {
            return Err(VoronoiError::SiteOutOfRange {
                site: s.idx(),
                len: n,
            });
        }
        if n <= 3 {
            return Err(VoronoiError::TooFewSites { needed: 4, got: n });
        }
        let affected = self.tri.remove(&self.points, s.0)?;
        let last = (n - 1) as u32;
        let moved = if s.0 != last {
            self.tri.relabel(last, s.0);
            Some(SiteId(last))
        } else {
            None
        };
        self.points.swap_remove(s.idx());
        self.adj.swap_remove(s.idx());
        self.tri.truncate_vertices(self.points.len());

        let mut to_fix: Vec<u32> = affected
            .into_iter()
            .map(|w| if w == last { s.0 } else { w })
            .collect();
        if moved.is_some() {
            to_fix.push(s.0);
            self.tri.neighbors_of_into(s.0, &mut to_fix);
        }
        to_fix.sort_unstable();
        to_fix.dedup();
        self.refresh_adjacency(&to_fix);
        // `s` itself is `last` or, as the moved site's new id, in `to_fix`.
        touched.push(SiteId(last));
        touched.extend(to_fix.into_iter().map(SiteId));
        Ok(moved)
    }

    /// Recomputes the neighbor lists of the given sites from the
    /// triangulation.
    fn refresh_adjacency(&mut self, sites: &[u32]) {
        let mut ring = Vec::new();
        for &w in sites {
            ring.clear();
            self.tri.neighbors_of_into(w, &mut ring);
            self.adj.set(w as usize, &ring);
        }
    }

    /// The site coordinates, indexable by [`SiteId`].
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The position of a site.
    #[inline]
    pub fn point(&self, s: SiteId) -> Point {
        self.points[s.idx()]
    }

    /// Number of sites.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the diagram has no sites (never true for a built diagram).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The clipping window.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The underlying (incrementally maintained) Delaunay triangulation.
    #[inline]
    pub fn delaunay(&self) -> &DynamicDelaunay {
        &self.tri
    }

    /// The Voronoi neighbor set `N_O(p)` of site `s` (Definition 3 of the
    /// paper): all sites whose Voronoi cells share an edge with `s`'s cell.
    ///
    /// Returned as a sorted slice. Derived from Delaunay adjacency, which
    /// coincides with Voronoi-edge adjacency except for exactly cocircular
    /// degeneracies, where it is a superset — safe for the INS algorithm,
    /// which only requires a superset of the true neighbor set.
    #[inline]
    pub fn neighbors(&self, s: SiteId) -> &[SiteId] {
        self.adj.get(s.idx())
    }

    /// Whether sites `a` and `b` are Voronoi neighbors.
    #[inline]
    pub fn are_neighbors(&self, a: SiteId, b: SiteId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Brute-force nearest site to `q` — an oracle for tests and tiny
    /// inputs; real queries should go through `insq-index`.
    pub fn nearest_site_brute(&self, q: Point) -> SiteId {
        let i = (0..self.points.len())
            .min_by(|&i, &j| {
                self.points[i]
                    .distance_sq(q)
                    .total_cmp(&self.points[j].distance_sq(q))
            })
            .expect("diagram has at least 3 sites");
        SiteId(i as u32)
    }

    /// Brute-force k nearest sites to `q`, ascending by distance — test
    /// oracle.
    pub fn knn_brute(&self, q: Point, k: usize) -> Vec<SiteId> {
        let mut ids: Vec<u32> = (0..self.points.len() as u32).collect();
        ids.sort_by(|&i, &j| {
            self.points[i as usize]
                .distance_sq(q)
                .total_cmp(&self.points[j as usize].distance_sq(q))
        });
        ids.truncate(k);
        ids.into_iter().map(SiteId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_3x3() -> Voronoi {
        let points: Vec<Point> = (0..3)
            .flat_map(|i| (0..3).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(3.0, 3.0));
        Voronoi::build(points, bounds).unwrap()
    }

    #[test]
    fn neighbor_symmetry() {
        let v = grid_3x3();
        for i in 0..v.len() as u32 {
            for &nb in v.neighbors(SiteId(i)) {
                assert!(
                    v.are_neighbors(nb, SiteId(i)),
                    "neighbor relation must be symmetric"
                );
                assert_ne!(nb, SiteId(i), "no self loops");
            }
        }
    }

    #[test]
    fn grid_center_neighbors() {
        let v = grid_3x3();
        // Site (1,1) is index 4 (column-major i*3+j). Its Voronoi neighbors
        // are the 4 axis-adjacent sites always; the diagonal ones are
        // cocircular-degenerate and may or may not appear (Delaunay
        // adjacency is a superset of strict Voronoi adjacency).
        let center = SiteId(4);
        let nbs = v.neighbors(center);
        for required in [SiteId(1), SiteId(3), SiteId(5), SiteId(7)] {
            assert!(nbs.contains(&required), "missing axis neighbor {required}");
        }
    }

    /// Deterministic LCG in [0, 1) so tests are reproducible without rand.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    /// Neighbor lists of an incrementally maintained diagram must equal a
    /// from-scratch rebuild over the same (reordered) site array.
    fn assert_matches_rebuild(v: &Voronoi) {
        let rebuilt = Voronoi::build(v.points().to_vec(), v.bounds()).unwrap();
        for s in 0..v.len() as u32 {
            assert_eq!(
                v.neighbors(SiteId(s)),
                rebuilt.neighbors(SiteId(s)),
                "neighbor list of site {s} diverged from rebuild"
            );
        }
    }

    #[test]
    fn insert_site_repairs_locally() {
        let mut next = lcg(0xfeed_f00d);
        let points: Vec<Point> = (0..30)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(11.0, 11.0));
        let mut v = Voronoi::build(points, bounds).unwrap();
        for i in 0..20 {
            let p = Point::new(next() * 10.0, next() * 10.0);
            let hint = if i % 2 == 0 { Some(SiteId(0)) } else { None };
            let id = v.insert_site(p, hint).unwrap();
            assert_eq!(id.idx(), v.len() - 1);
            assert_eq!(v.point(id), p);
        }
        assert_matches_rebuild(&v);
        // Duplicate insertion is rejected and leaves the diagram intact.
        let dup = v.point(SiteId(7));
        assert!(matches!(
            v.insert_site(dup, None),
            Err(VoronoiError::DuplicateSites { first: 7, .. })
        ));
        assert_eq!(v.len(), 50);
        assert_matches_rebuild(&v);
    }

    #[test]
    fn remove_site_swaps_in_the_last() {
        // General-position sites (on a cocircular grid the incremental and
        // rebuilt diagrams may legitimately pick different degenerate
        // triangulations; query-level conformance covers that case).
        let mut next = lcg(0xace_0fba5e);
        let points: Vec<Point> = (0..9)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(11.0, 11.0));
        let v0 = Voronoi::build(points, bounds).unwrap();
        let mut v = v0.clone();
        // Remove index 4: the last site (index 8) moves to 4.
        let moved = v.remove_site(SiteId(4)).unwrap();
        assert_eq!(moved, Some(SiteId(8)));
        assert_eq!(v.len(), 8);
        assert_eq!(v.point(SiteId(4)), v0.point(SiteId(8)));
        assert_matches_rebuild(&v);
        // Removing the (new) last site moves nothing.
        let moved = v.remove_site(SiteId(7)).unwrap();
        assert_eq!(moved, None);
        assert_matches_rebuild(&v);
    }

    #[test]
    fn remove_site_floors() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(2.0, 2.0));
        let mut v = Voronoi::build(points, bounds).unwrap();
        assert!(matches!(
            v.remove_site(SiteId(0)),
            Err(VoronoiError::TooFewSites { .. })
        ));
        // 4 sites, 3 of them collinear: removing the off-line one must be
        // refused, and the diagram must stay intact.
        let mut v = Voronoi::build(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(1.0, 1.0),
            ],
            bounds,
        )
        .unwrap();
        assert!(matches!(
            v.remove_site(SiteId(3)),
            Err(VoronoiError::AllCollinear)
        ));
        assert_eq!(v.len(), 4);
        assert_matches_rebuild(&v);
    }

    #[test]
    fn interleaved_updates_track_rebuild() {
        let mut next = lcg(0x0dd_ba11);
        let points: Vec<Point> = (0..12)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let mut v = Voronoi::build(points, bounds).unwrap();
        for step in 0..80 {
            if v.len() <= 4 || next() < 0.55 {
                v.insert_site(Point::new(next() * 100.0, next() * 100.0), None)
                    .unwrap();
            } else {
                let s = SiteId((next() * v.len() as f64) as u32);
                v.remove_site(s).unwrap();
            }
            if step % 8 == 0 {
                assert_matches_rebuild(&v);
            }
        }
        assert_matches_rebuild(&v);
    }

    /// Spans are pairwise disjoint and `dead` counts exactly the pool
    /// entries none of them covers.
    fn assert_pool_accounted(v: &Voronoi) {
        let mut spans = v.adj.spans.clone();
        spans.retain(|s| s.len > 0);
        spans.sort_by_key(|s| s.start);
        assert!(spans
            .windows(2)
            .all(|w| w[0].range().end <= w[1].range().start));
        let live: usize = spans.iter().map(|s| s.len as usize).sum();
        assert_eq!(v.adj.dead, v.adj.pool.len() - live);
    }

    /// The flat adjacency under 2 400 seeded inserts and removes on
    /// 50–400 sites, among them a hub in an otherwise empty disc that
    /// keeps gaining neighbors on a ring around it: its list outgrows
    /// its span again and again.
    #[test]
    fn flat_adjacency_tracks_rebuild_under_churn() {
        let mut next = lcg(0xf1a7_ad1a);
        let hub = Point::new(50.0, 50.0);
        let mut outside_disc = move || loop {
            let p = Point::new(next() * 100.0, next() * 100.0);
            if p.distance(hub) > 12.0 {
                return p;
            }
        };
        let mut points: Vec<Point> = (0..120).map(|_| outside_disc()).collect();
        points.push(hub);
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let mut v = Voronoi::build(points, bounds).unwrap();
        let hub_id =
            |v: &Voronoi| SiteId(v.points().iter().position(|&p| p == hub).unwrap() as u32);

        let mut next = lcg(0x0b5e_55ed);
        let (mut compactions, mut outgrown) = (0, 0);
        for step in 0..=2_400 {
            let dead = v.adj.dead;
            let degree = v.neighbors(hub_id(&v)).len();
            if step % 8 == 0 && v.len() < 400 {
                let angle = next() * std::f64::consts::TAU;
                let on_ring = Point::new(50.0 + 10.0 * angle.cos(), 50.0 + 10.0 * angle.sin());
                v.insert_site(on_ring, Some(hub_id(&v))).unwrap();
            } else if v.len() < 50 || (v.len() < 400 && next() < 0.5) {
                v.insert_site(outside_disc(), None).unwrap();
            } else {
                let s = SiteId((next() * v.len() as f64) as u32);
                if s != hub_id(&v) {
                    v.remove_site(s).unwrap();
                }
            }
            compactions += usize::from(v.adj.dead < dead);
            outgrown += usize::from(v.neighbors(hub_id(&v)).len() > degree);
            if step % 16 == 0 {
                assert_pool_accounted(&v);
                assert_matches_rebuild(&v);
            }
        }
        assert!(
            compactions >= 3 && outgrown >= 50,
            "{compactions}, {outgrown}"
        );
    }

    #[test]
    fn knn_brute_sorted() {
        let v = grid_3x3();
        let knn = v.knn_brute(Point::new(0.1, 0.1), 3);
        assert_eq!(knn[0], SiteId(0));
        assert_eq!(knn.len(), 3);
        let d0 = v.point(knn[0]).distance(Point::new(0.1, 0.1));
        let d2 = v.point(knn[2]).distance(Point::new(0.1, 0.1));
        assert!(d0 <= d2);
    }
}
