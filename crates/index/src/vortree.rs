//! The VoR-tree: an R-tree whose entries carry Voronoi information
//! (Sharifzadeh & Shahabi, PVLDB 2010 — reference \[7\] of the INSQ paper).
//!
//! The INSQ system "precompute\[s\] the Voronoi diagram of O and index\[es\] it
//! with an VoR-tree" (paper §III). The practical payoff is twofold:
//!
//! * kNN search: after locating the 1NN with a best-first R-tree descent,
//!   the remaining k−1 neighbors are found by expanding Voronoi neighbor
//!   links only — the second-nearest neighbor is always a Voronoi neighbor
//!   of the first, and inductively the (i+1)-th nearest is a Voronoi
//!   neighbor of one of the first i (the classical VoR-tree property).
//! * the neighbor lists retrieved along the way are exactly what the INS
//!   construction `I(R) = ⋃ N_O(p) \ R` needs, with no extra I/O.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use insq_geom::{Aabb, DistEntry, GenMarks, Point};
use insq_voronoi::{SiteId, Voronoi, VoronoiError};

use crate::delta::SiteDelta;
use crate::rtree::{Entry, RTree, RTreeScratch};

/// An R-tree over Voronoi sites, bundled with the diagram it indexes.
///
/// Site coordinates are additionally mirrored into struct-of-arrays
/// lanes (`xs` / `ys`), so the §III-A validation scan and
/// [`VorTree::brute_knn`] run as batched distance kernels over two flat
/// `f64` arrays instead of chasing `Point` structs — same arithmetic,
/// same results, autovectorizable layout.
#[derive(Debug, Clone)]
pub struct VorTree {
    rtree: RTree,
    voronoi: Voronoi,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

/// Reusable per-query scratch for [`VorTree::knn_into`]: the best-first
/// R-tree descent state, the Voronoi-expansion frontier heap, and the
/// generation-stamped visited marks. One scratch per worker makes
/// steady-state kNN recomputes allocation-free; reuse is bit-identical
/// to a fresh scratch per call (see the scratch-pollution suite).
#[derive(Debug, Clone, Default)]
pub struct VorTreeScratch {
    rtree: RTreeScratch,
    frontier: BinaryHeap<Reverse<DistEntry<SiteId>>>,
    marks: GenMarks,
}

impl VorTree {
    /// Builds the Voronoi diagram of `points` (clipped to `bounds`) and
    /// bulk-loads an R-tree over the sites.
    ///
    /// Both are built on the calling thread, the R-tree after the diagram:
    /// a second thread loading the tree beside the triangulation builds
    /// the same index, but its allocations interleave with the sweep's on
    /// the shared heap by timing, so the process's peak resident memory
    /// varies from run to run.
    pub fn build(points: Vec<Point>, bounds: Aabb) -> Result<VorTree, VoronoiError> {
        let voronoi = Voronoi::build(points, bounds)?;
        let entries: Vec<Entry> = voronoi
            .points()
            .iter()
            .enumerate()
            .map(|(i, &point)| Entry {
                point,
                id: i as u32,
            })
            .collect();
        let xs: Vec<f64> = voronoi.points().iter().map(|p| p.x).collect();
        let ys: Vec<f64> = voronoi.points().iter().map(|p| p.y).collect();
        Ok(VorTree {
            rtree: RTree::bulk_load(entries),
            voronoi,
            xs,
            ys,
        })
    }

    /// The underlying Voronoi diagram.
    #[inline]
    pub fn voronoi(&self) -> &Voronoi {
        &self.voronoi
    }

    /// The underlying R-tree.
    #[inline]
    pub fn rtree(&self) -> &RTree {
        &self.rtree
    }

    /// Number of sites.
    #[inline]
    pub fn len(&self) -> usize {
        self.voronoi.len()
    }

    /// Whether the index is empty (never true once built).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.voronoi.is_empty()
    }

    /// Position of a site.
    #[inline]
    pub fn point(&self, s: SiteId) -> Point {
        self.voronoi.point(s)
    }

    /// Squared distance from site `s` to `q`, read from the SoA
    /// coordinate lanes — bit-identical to
    /// `self.point(s).distance_sq(q)` (same operand order), without the
    /// strided `Point` load.
    #[inline]
    pub fn dist_sq(&self, s: SiteId, q: Point) -> f64 {
        self.dist_sq_idx(s.idx(), q)
    }

    #[inline]
    fn dist_sq_idx(&self, i: usize, q: Point) -> f64 {
        let dx = self.xs[i] - q.x;
        let dy = self.ys[i] - q.y;
        dx * dx + dy * dy
    }

    /// Inserts a new site, patching the diagram and the R-tree locally
    /// (the R-tree's nearest-site probe doubles as the point-location
    /// hint, so the Delaunay walk is O(1)). Returns the new site's id,
    /// always `SiteId(len - 1)`.
    pub fn insert_site(&mut self, p: Point) -> Result<SiteId, VoronoiError> {
        self.insert_site_traced(p, &mut RTreeScratch::default(), &mut Vec::new())
    }

    /// [`VorTree::insert_site`], reporting the touched ids (see
    /// [`Voronoi::insert_site_traced`]); `probe` is the hint search's
    /// scratch, shared by the insertions of one delta.
    fn insert_site_traced(
        &mut self,
        p: Point,
        probe: &mut RTreeScratch,
        touched: &mut Vec<SiteId>,
    ) -> Result<SiteId, VoronoiError> {
        let hint = self.rtree.nearest_with(probe, p).map(|(e, _)| SiteId(e.id));
        let id = self.voronoi.insert_site_traced(p, hint, touched)?;
        self.rtree.insert(p, id.0);
        self.xs.push(p.x);
        self.ys.push(p.y);
        Ok(id)
    }

    /// Removes site `s` with swap-remove semantics: when `s` is not the
    /// last site, the last site is renumbered to `s` (the R-tree entry is
    /// re-keyed to match) and the moved site's old id is returned.
    pub fn remove_site(&mut self, s: SiteId) -> Result<Option<SiteId>, VoronoiError> {
        self.remove_site_traced(s, &mut Vec::new())
    }

    /// [`VorTree::remove_site`], reporting the touched ids (see
    /// [`Voronoi::remove_site_traced`]).
    fn remove_site_traced(
        &mut self,
        s: SiteId,
        touched: &mut Vec<SiteId>,
    ) -> Result<Option<SiteId>, VoronoiError> {
        if s.idx() >= self.voronoi.len() {
            return Err(VoronoiError::SiteOutOfRange {
                site: s.idx(),
                len: self.voronoi.len(),
            });
        }
        let p = self.voronoi.point(s);
        let moved = self.voronoi.remove_site_traced(s, touched)?;
        // Mirror the diagram's swap-remove in the SoA lanes.
        self.xs.swap_remove(s.idx());
        self.ys.swap_remove(s.idx());
        // Real asserts: a diagram/R-tree desync must not be published.
        let found = self.rtree.remove(p, s.0);
        assert!(found, "R-tree entry for a live site");
        if let Some(old) = moved {
            let q = self.voronoi.point(s);
            let found = self.rtree.remove(q, old.0);
            assert!(found, "R-tree entry for the moved site");
            self.rtree.insert(q, s.0);
        }
        Ok(moved)
    }

    /// Applies a batched [`SiteDelta`]: removals first (descending
    /// pre-delta ids, swap-remove semantics), then insertions in order.
    /// See [`SiteDelta`] for the id semantics; on error the index is left
    /// with the delta partially applied — callers that need atomicity
    /// (like `insq_server::World::apply`) patch a copy nobody reads and
    /// publish only on success. Neighbor lists are patched where they
    /// are: nothing is re-laid-out afterwards, the repair is the cost.
    pub fn apply(&mut self, delta: &SiteDelta) -> Result<(), VoronoiError> {
        self.apply_traced(delta, &mut Vec::new())
    }

    /// [`VorTree::apply`] that also appends to `touched` what the delta
    /// touched, in ids of the index **before** the delta: every removed
    /// id, both ids of every swap-remove renumbering, every inserted id,
    /// and every site whose Voronoi neighbor list a repair rewrote
    /// (duplicates possible). A site whose id is absent kept its id, its
    /// position and its neighbor list through the whole delta — the
    /// fact `insq_core::Processor::rebind_scoped` needs to carry a
    /// query's guards into the next epoch.
    pub fn apply_traced(
        &mut self,
        delta: &SiteDelta,
        touched: &mut Vec<SiteId>,
    ) -> Result<(), VoronoiError> {
        // Deltas are almost always already sorted and deduplicated; only
        // clone when they actually need normalising.
        let needs_normalising = delta.removed.windows(2).any(|w| w[0] >= w[1]);
        let normalised;
        let removed: &[SiteId] = if needs_normalising {
            let mut r = delta.removed.clone();
            r.sort_unstable();
            r.dedup();
            normalised = r;
            &normalised
        } else {
            &delta.removed
        };
        for &s in removed.iter().rev() {
            self.remove_site_traced(s, touched)?;
        }
        let mut probe = RTreeScratch::default();
        for &p in &delta.added {
            self.insert_site_traced(p, &mut probe, touched)?;
        }
        Ok(())
    }

    /// The k nearest sites to `q`, ascending by distance, found by the
    /// VoR-tree strategy: one best-first R-tree descent for the 1NN, then
    /// incremental expansion over Voronoi neighbor links.
    ///
    /// Ties are broken by site id, matching [`RTree::knn`].
    pub fn knn(&self, q: Point, k: usize) -> Vec<(SiteId, f64)> {
        let mut scratch = VorTreeScratch::default();
        let mut result = Vec::with_capacity(k);
        self.knn_into(&mut scratch, q, k, &mut result);
        result
    }

    /// Allocation-free [`VorTree::knn`]: all per-query transients (the
    /// R-tree descent heap, the expansion frontier, the visited marks)
    /// live in `scratch`, and results are written into `out` (cleared
    /// first). Bit-identical to the allocating form.
    pub fn knn_into(
        &self,
        scratch: &mut VorTreeScratch,
        q: Point,
        k: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) {
        out.clear();
        if k == 0 || self.voronoi.is_empty() {
            return;
        }
        let (first, first_dist) = match self.rtree.nearest_with(&mut scratch.rtree, q) {
            Some((e, d)) => (SiteId(e.id), d),
            None => return,
        };

        // Min-heap of frontier sites keyed by distance (ties by id);
        // the generation-stamped marks replace a `vec![false; n]`.
        let heap = &mut scratch.frontier;
        heap.clear();
        let marks = &mut scratch.marks;
        marks.begin(self.voronoi.len());
        heap.push(Reverse(DistEntry {
            dist: first_dist,
            id: first,
        }));
        marks.mark(first.idx());

        while let Some(Reverse(DistEntry { dist, id: site })) = heap.pop() {
            out.push((site, dist));
            if out.len() == k {
                break;
            }
            for &nb in self.voronoi.neighbors(site) {
                if marks.mark(nb.idx()) {
                    heap.push(Reverse(DistEntry {
                        dist: self.dist_sq_idx(nb.idx(), q).sqrt(),
                        id: nb,
                    }));
                }
            }
        }
    }

    /// Brute-force k nearest site ids, ascending by `(distance, id)` —
    /// one batched pass over the SoA coordinate lanes. Matches
    /// [`Voronoi::knn_brute`] exactly (its stable sort on ascending ids
    /// resolves ties by id, which `(distance, id)` reproduces).
    pub fn brute_knn(&self, q: Point, k: usize) -> Vec<SiteId> {
        let n = self.len();
        let mut scored: Vec<(f64, u32)> =
            (0..n).map(|i| (self.dist_sq_idx(i, q), i as u32)).collect();
        let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
        if k > 0 && scored.len() > k {
            scored.select_nth_unstable_by(k - 1, cmp);
            scored.truncate(k);
        }
        scored.sort_unstable_by(cmp);
        scored.truncate(k);
        scored.into_iter().map(|(_, i)| SiteId(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn build_random(n: usize, seed: u64) -> VorTree {
        let mut next = lcg(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        VorTree::build(points, bounds).unwrap()
    }

    #[test]
    fn knn_matches_rtree_knn() {
        let tree = build_random(300, 2024);
        let mut next = lcg(1);
        for _ in 0..50 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            for k in [1usize, 4, 16] {
                let via_voronoi: Vec<u32> = tree.knn(q, k).into_iter().map(|(s, _)| s.0).collect();
                let via_rtree: Vec<u32> = tree
                    .rtree()
                    .knn(q, k)
                    .into_iter()
                    .map(|(e, _)| e.id)
                    .collect();
                assert_eq!(via_voronoi, via_rtree, "k={k} q={q:?}");
            }
        }
    }

    #[test]
    fn knn_outside_data_region() {
        // Query far outside the hull: the expansion must still find the
        // true k nearest.
        let tree = build_random(100, 5);
        let q = Point::new(-500.0, 900.0);
        let via_voronoi: Vec<u32> = tree.knn(q, 10).into_iter().map(|(s, _)| s.0).collect();
        let via_rtree: Vec<u32> = tree
            .rtree()
            .knn(q, 10)
            .into_iter()
            .map(|(e, _)| e.id)
            .collect();
        assert_eq!(via_voronoi, via_rtree);
    }

    #[test]
    fn knn_k_exceeds_sites() {
        let tree = build_random(10, 8);
        let res = tree.knn(Point::new(50.0, 50.0), 50);
        assert_eq!(res.len(), 10, "expansion reaches every site");
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let tree = build_random(250, 99);
        let mut scratch = VorTreeScratch::default();
        let mut out = Vec::new();
        let mut next = lcg(42);
        for i in 0..120 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            let k = 1 + (i % 9);
            tree.knn_into(&mut scratch, q, k, &mut out);
            assert_eq!(out, tree.knn(q, k), "k={k} q={q:?}");
        }
    }

    #[test]
    fn brute_knn_matches_diagram_oracle() {
        let tree = build_random(180, 7);
        let mut next = lcg(13);
        for _ in 0..60 {
            let q = Point::new(next() * 120.0 - 10.0, next() * 120.0 - 10.0);
            for k in [0usize, 1, 5, 180] {
                assert_eq!(tree.brute_knn(q, k), tree.voronoi().knn_brute(q, k));
            }
        }
    }

    #[test]
    fn soa_lanes_track_updates() {
        let mut tree = build_random(40, 3);
        let mut next = lcg(77);
        for step in 0..30 {
            if tree.len() <= 5 || next() < 0.6 {
                tree.insert_site(Point::new(next() * 100.0, next() * 100.0))
                    .unwrap();
            } else {
                let s = SiteId((next() * tree.len() as f64) as u32);
                tree.remove_site(s).unwrap();
            }
            if step % 7 == 0 {
                for i in 0..tree.len() as u32 {
                    let p = tree.point(SiteId(i));
                    let q = Point::new(1.25, -3.5);
                    assert_eq!(tree.dist_sq(SiteId(i), q), p.distance_sq(q));
                }
            }
        }
    }

    #[test]
    fn distances_ascending_and_consistent() {
        let tree = build_random(200, 77);
        let q = Point::new(33.0, 66.0);
        let res = tree.knn(q, 25);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        for (s, d) in res {
            assert!((tree.point(s).distance(q) - d).abs() < 1e-12);
        }
    }
}
