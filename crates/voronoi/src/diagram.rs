//! The order-1 Voronoi diagram: cells and neighbor sets.
//!
//! Built once over the data set, as prescribed by the INSQ paper (§III:
//! "we precompute the Voronoi diagram of O"), then maintained
//! *incrementally* under site insertions and removals: the underlying
//! [`DynamicDelaunay`] repairs only the triangles of the affected cavity,
//! and the per-site neighbor lists are refreshed for exactly the sites
//! whose cells changed. Update cost is therefore proportional to the size
//! of the delta's neighborhood, not the diagram — the substrate of the
//! delta-epoch index maintenance in `insq-index` / `insq-server`.

use insq_geom::{Aabb, ConvexPolygon, HalfPlane, Point};

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

/// A frozen, flat (CSR) snapshot of the per-site neighbor lists.
///
/// One contiguous `targets` array plus an `offsets` fence per site:
/// the neighbor expansion of a kNN query then walks a single cache-line
/// friendly slice instead of chasing one heap pointer per visited site.
/// Only valid while the diagram is immutable — any insert/remove drops
/// it and reads fall back to the nested lists.
#[derive(Debug, Clone)]
struct AdjCsr {
    /// `offsets[s]..offsets[s + 1]` indexes `targets` for site `s`
    /// (length `n + 1`).
    offsets: Vec<u32>,
    /// All neighbor lists, concatenated in site order (each sorted
    /// ascending, exactly like the nested form).
    targets: Vec<SiteId>,
}

/// An order-1 Voronoi diagram over a set of sites, clipped to a bounding
/// window, maintainable under site insertions and removals.
#[derive(Debug, Clone)]
pub struct Voronoi {
    points: Vec<Point>,
    bounds: Aabb,
    tri: DynamicDelaunay,
    /// Per-site Voronoi neighbor lists, each sorted ascending.
    adj: Vec<Vec<SiteId>>,
    /// CSR view of `adj`, present iff the diagram is frozen (no
    /// mutation since the last [`Voronoi::freeze`]).
    csr: Option<AdjCsr>,
}

impl Voronoi {
    /// Builds the Voronoi diagram of `points`, clipping all cells to
    /// `bounds`. `bounds` must contain every site.
    pub fn build(points: Vec<Point>, bounds: Aabb) -> Result<Voronoi, VoronoiError> {
        let triangulation = Triangulation::build(&points)?;
        let n = points.len();
        let tri = DynamicDelaunay::from_triangulation(triangulation, n);

        let mut adj: Vec<Vec<SiteId>> = vec![Vec::new(); n];
        for (u, v) in tri.edges() {
            adj[u as usize].push(SiteId(v));
            adj[v as usize].push(SiteId(u));
        }
        for list in &mut adj {
            list.sort_unstable();
        }

        let mut v = Voronoi {
            points,
            bounds,
            tri,
            adj,
            csr: None,
        };
        v.freeze();
        Ok(v)
    }

    /// Freezes the neighbor lists into a flat CSR layout.
    ///
    /// Epoch snapshots are immutable, so the index layer calls this at
    /// publish time (after a build or a delta apply); subsequent
    /// [`Voronoi::neighbors`] reads come from one contiguous array.
    /// A later [`Voronoi::insert_site`] / [`Voronoi::remove_site`]
    /// silently drops the frozen view and falls back to the nested
    /// lists — freezing is a layout change, never a semantic one.
    pub fn freeze(&mut self) {
        let total: usize = self.adj.iter().map(Vec::len).sum();
        debug_assert!(total <= u32::MAX as usize, "adjacency exceeds u32 range");
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut targets = Vec::with_capacity(total);
        offsets.push(0u32);
        for list in &self.adj {
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u32);
        }
        self.csr = Some(AdjCsr { offsets, targets });
    }

    /// Whether the diagram currently carries a frozen CSR neighbor view.
    #[inline]
    pub fn is_frozen(&self) -> bool {
        self.csr.is_some()
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
        self.csr = None;
        let v = self.points.len() as u32;
        self.points.push(p);
        match self.tri.insert(&self.points, v, hint.map(|s| s.0)) {
            Ok(affected) => {
                self.adj.push(Vec::new());
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
        self.csr = None;
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
            to_fix.extend(self.tri.neighbors_of(s.0));
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
        for &w in sites {
            self.adj[w as usize] = self.tri.neighbors_of(w).into_iter().map(SiteId).collect();
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
        if let Some(csr) = &self.csr {
            let lo = csr.offsets[s.idx()] as usize;
            let hi = csr.offsets[s.idx() + 1] as usize;
            &csr.targets[lo..hi]
        } else {
            &self.adj[s.idx()]
        }
    }

    /// Whether sites `a` and `b` are Voronoi neighbors.
    #[inline]
    pub fn are_neighbors(&self, a: SiteId, b: SiteId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The Voronoi cell of `s`, clipped to the diagram bounds.
    ///
    /// Computed as the bounding window intersected with the bisector
    /// half-planes towards each Voronoi neighbor — exactly the cell, because
    /// a Voronoi cell is determined by its neighbors alone.
    pub fn cell(&self, s: SiteId) -> ConvexPolygon {
        let p = self.point(s);
        let window = ConvexPolygon::from_aabb(&self.bounds);
        let constraints: Vec<HalfPlane> = self
            .neighbors(s)
            .iter()
            .map(|&nb| HalfPlane::closer_to(p, self.point(nb)))
            .collect();
        window.clip_all(&constraints)
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

    #[test]
    fn cell_of_grid_center() {
        let v = grid_3x3();
        let cell = v.cell(SiteId(4));
        assert!(
            (cell.area() - 1.0).abs() < 1e-9,
            "unit cell, got {}",
            cell.area()
        );
        assert!(cell.contains(Point::new(1.0, 1.0)));
    }

    #[test]
    fn cells_partition_window() {
        // Cell areas must sum to the window area.
        let v = grid_3x3();
        let total: f64 = (0..v.len() as u32).map(|i| v.cell(SiteId(i)).area()).sum();
        assert!((total - v.bounds().area()).abs() < 1e-6, "sum {total}");
    }

    #[test]
    fn cell_contains_exactly_its_nearest_points() {
        let v = grid_3x3();
        // Sample a lattice of query points; each must lie in the cell of its
        // nearest site (boundary ties can lie in several cells).
        for i in 0..20 {
            for j in 0..20 {
                let q = Point::new(-0.5 + i as f64 * 0.15, -0.5 + j as f64 * 0.15);
                let nearest = v.nearest_site_brute(q);
                let cell = v.cell(nearest);
                assert!(
                    cell.contains(q),
                    "query {q:?} not in cell of its nearest site {nearest}"
                );
            }
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

    #[test]
    fn random_sites_cell_membership() {
        let mut next = lcg(0x5eed5eed);
        let points: Vec<Point> = (0..50)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(11.0, 11.0));
        let v = Voronoi::build(points, bounds).unwrap();
        for _ in 0..200 {
            let q = Point::new(next() * 10.0, next() * 10.0);
            let nearest = v.nearest_site_brute(q);
            assert!(v.cell(nearest).contains(q));
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

    #[test]
    fn freeze_is_a_pure_layout_change() {
        let mut next = lcg(0xc50f_f5e7);
        let points: Vec<Point> = (0..40)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(11.0, 11.0));
        let mut v = Voronoi::build(points, bounds).unwrap();
        // A fresh build is frozen; capture its CSR-backed neighbor lists.
        assert!(v.is_frozen());
        let frozen: Vec<Vec<SiteId>> = (0..v.len() as u32)
            .map(|s| v.neighbors(SiteId(s)).to_vec())
            .collect();
        // Mutation drops the frozen view and reads fall back to the
        // nested lists — with identical content for untouched sites.
        let id = v.insert_site(Point::new(5.05, 5.05), None).unwrap();
        assert!(!v.is_frozen());
        v.remove_site(id).unwrap();
        assert!(!v.is_frozen());
        let nested: Vec<Vec<SiteId>> = (0..v.len() as u32)
            .map(|s| v.neighbors(SiteId(s)).to_vec())
            .collect();
        // Re-freezing restores the flat layout with the same content.
        v.freeze();
        assert!(v.is_frozen());
        for s in 0..v.len() as u32 {
            assert_eq!(v.neighbors(SiteId(s)), &nested[s as usize][..]);
        }
        assert_eq!(frozen, nested, "insert+remove round-trip changed lists");
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
