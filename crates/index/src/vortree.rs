//! The VoR-tree (Sharifzadeh & Shahabi, PVLDB 2010 — reference \[7\] of
//! the INSQ paper): the Voronoi diagram of the data objects, searched
//! over its own neighbor links.
//!
//! The INSQ system "precompute\[s\] the Voronoi diagram of O and index\[es\] it
//! with an VoR-tree" (paper §III). The practical payoff is twofold:
//!
//! * kNN search: after locating the 1NN, the remaining k−1 neighbors are
//!   found by expanding Voronoi neighbor links only — the second-nearest
//!   neighbor is always a Voronoi neighbor of the first, and inductively
//!   the (i+1)-th nearest is a Voronoi neighbor of one of the first i
//!   (the classical VoR-tree property).
//! * the neighbor lists retrieved along the way are exactly what the INS
//!   construction `I(R) = ⋃ N_O(p) \ R` needs, with no extra I/O.
//!
//! The original VoR-tree finds the 1NN with an R-tree descent. Here the
//! diagram locates it alone, by jump-and-walk (Mücke, Saias & Zhu,
//! SoCG 1996): start at the best of ⌈√n⌉ evenly spaced sites, then step
//! to a strictly closer Delaunay neighbor until none is closer. On a
//! Delaunay graph every site but the nearest has a strictly closer
//! neighbor, so the walk cannot stop early in exact arithmetic; the
//! rounded distances it compares can only stall it among sites whose
//! distances agree to within rounding, and the walk settles those by
//! searching the connected band of such sites around its stop. It
//! returns the least `(squared distance, id)` site — the site an
//! R-tree's best-first search emits first, ties included — so the index
//! keeps one spatial structure, and a delta patches only the diagram.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use insq_geom::{Aabb, DistEntry, GenMarks, Point};
use insq_voronoi::{SiteId, Voronoi, VoronoiError};

use crate::delta::SiteDelta;
use crate::rtree::{Entry, RTree};

/// Relative width of the band of squared distances the point-location
/// walk treats as tied: far above the few ulps by which a computed
/// squared distance can misorder two sites, far below any real gap.
const TIE_BAND: f64 = 1.0 / (1u64 << 40) as f64;

/// The Voronoi diagram of the sites, searched over its neighbor links.
///
/// Site coordinates live once, in the diagram ([`Voronoi::points`]);
/// the index adds only the point-location walk's start table.
#[derive(Debug, Clone)]
pub struct VorTree {
    voronoi: Voronoi,
    /// The point-location walk's start candidates: the sites of ⌈√n⌉
    /// evenly spaced ids `j·n/m`, copied side by side so that picking a
    /// start reads a few kilobytes that stay in cache instead of one
    /// cache line per sample strewn over the site array. Rebuilt by
    /// every public mutation; the walk is exact from any start, so a
    /// stale table costs steps, not answers.
    starts: Vec<Entry>,
}

/// Reusable per-query scratch for [`VorTree::knn_into`]: the sites of
/// the walk's tied band, the Voronoi-expansion frontier heap, and the
/// generation-stamped visited marks. One scratch per worker makes
/// steady-state kNN recomputes allocation-free; reuse is bit-identical
/// to a fresh scratch per call (see the scratch-pollution suite).
#[derive(Debug, Clone, Default)]
pub struct VorTreeScratch {
    band: Vec<SiteId>,
    frontier: BinaryHeap<Reverse<DistEntry<SiteId>>>,
    marks: GenMarks,
}

impl VorTree {
    /// Builds the Voronoi diagram of `points` (clipped to `bounds`) and
    /// the walk's start table.
    pub fn build(points: Vec<Point>, bounds: Aabb) -> Result<VorTree, VoronoiError> {
        let mut tree = VorTree {
            voronoi: Voronoi::build(points, bounds)?,
            starts: Vec::new(),
        };
        tree.refresh_starts();
        Ok(tree)
    }

    /// The underlying Voronoi diagram.
    #[inline]
    pub fn voronoi(&self) -> &Voronoi {
        &self.voronoi
    }

    /// An R-tree bulk-loaded over the current sites (entry id = site id).
    ///
    /// The index holds no R-tree: each call builds a new one in
    /// O(n log n). It is for the paper's R-tree baselines and probes,
    /// which build it once and keep it.
    pub fn rtree(&self) -> RTree {
        RTree::bulk_load(
            self.voronoi
                .points()
                .iter()
                .enumerate()
                .map(|(i, &point)| Entry {
                    point,
                    id: i as u32,
                })
                .collect(),
        )
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

    /// Squared distance from site `s` to `q`:
    /// `self.point(s).distance_sq(q)`.
    #[inline]
    pub fn dist_sq(&self, s: SiteId, q: Point) -> f64 {
        self.dist_sq_idx(s.idx(), q)
    }

    #[inline]
    fn dist_sq_idx(&self, i: usize, q: Point) -> f64 {
        self.voronoi.points()[i].distance_sq(q)
    }

    /// Inserts a new site, patching the diagram locally (the nearest
    /// site, found by the point-location walk, is the Delaunay walk's
    /// start). Returns the new site's id, always `SiteId(len - 1)`.
    pub fn insert_site(&mut self, p: Point) -> Result<SiteId, VoronoiError> {
        let id = self.insert_site_traced(p, &mut Vec::new(), &mut Vec::new())?;
        self.refresh_starts();
        Ok(id)
    }

    /// [`VorTree::insert_site`], reporting the touched ids (see
    /// [`Voronoi::insert_site_traced`]); `band` is the walk's scratch,
    /// shared by the insertions of one delta.
    fn insert_site_traced(
        &mut self,
        p: Point,
        band: &mut Vec<SiteId>,
        touched: &mut Vec<SiteId>,
    ) -> Result<SiteId, VoronoiError> {
        let hint = (!self.is_empty()).then(|| self.nearest(band, p));
        self.voronoi.insert_site_traced(p, hint, touched)
    }

    /// Removes site `s` with swap-remove semantics: when `s` is not the
    /// last site, the last site is renumbered to `s` and the moved
    /// site's old id is returned.
    pub fn remove_site(&mut self, s: SiteId) -> Result<Option<SiteId>, VoronoiError> {
        let moved = self.voronoi.remove_site(s)?;
        self.refresh_starts();
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
            self.voronoi.remove_site_traced(s, touched)?;
        }
        let mut band = Vec::new();
        for &p in &delta.added {
            self.insert_site_traced(p, &mut band, touched)?;
        }
        self.refresh_starts();
        Ok(())
    }

    /// Refills the walk's start table from the current sites.
    fn refresh_starts(&mut self) {
        let n = self.len();
        let mut m = 1;
        while m * m < n {
            m += 1;
        }
        let points = self.voronoi.points();
        self.starts.clear();
        self.starts.extend((0..m.min(n)).map(|j| {
            let i = j * n / m;
            Entry {
                point: points[i],
                id: i as u32,
            }
        }));
    }

    /// The k nearest sites to `q`, ascending by distance, found by the
    /// VoR-tree strategy: the point-location walk for the 1NN, then
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
    /// walk's tied band, the expansion frontier, the visited marks) live
    /// in `scratch`, and results are written into `out` (cleared first).
    /// Bit-identical to the allocating form.
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
        let first = self.nearest(&mut scratch.band, q);

        // Min-heap of frontier sites keyed by distance (ties by id);
        // the generation-stamped marks replace a `vec![false; n]`.
        let heap = &mut scratch.frontier;
        heap.clear();
        let marks = &mut scratch.marks;
        marks.begin(self.voronoi.len());
        heap.push(Reverse(DistEntry {
            dist: self.dist_sq_idx(first.idx(), q).sqrt(),
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

    /// The site of least `(squared distance, id)` to `q` — the 1NN an
    /// R-tree's best-first order emits first — located by walking the
    /// Delaunay graph (see the module docs). The index must not be
    /// empty; `band` is scratch.
    ///
    /// The walk starts at the closest site of the start table (ids
    /// `j·n/m` for m = ⌈√n⌉, a function of the current sites alone) and
    /// steps to the closest neighbor while it is closer. More samples
    /// than the textbook ⌈∛n⌉ pay off here: the table is the same few
    /// kilobytes on every call, while each step of the walk is a chain
    /// of dependent loads (neighbor list, then coordinates); on 100 000
    /// uniform sites ⌈√n⌉ cuts the mean walk from 21 steps to 8. Read
    /// from the site array instead, the samples would touch one cache
    /// line each, ~300 lines a call, and the walk's cost would
    /// follow whatever else contends for the cache.
    ///
    /// Where the walk stops, it searches the *band*: the sites connected
    /// to the stop through sites whose squared distance lies within a
    /// relative [`TIE_BAND`] of the stop's. The least `(squared distance,
    /// id)` in the band is the answer, unless a neighbor of the band lies
    /// below it, in which case the walk resumes from there.
    ///
    /// Why nothing escapes: every site but the exactly nearest has an
    /// exactly closer Delaunay neighbor, so from the stop a chain of ever
    /// closer neighbors reaches the nearest site, and from any site whose
    /// rounded distance undercuts it a chain reaches it too. A link of
    /// such a chain that rounding hides agrees with its predecessor to a
    /// few ulps, so every chain stays in the band or leaves it downwards.
    /// The band holds the few sites tied at the stop's distance (four at
    /// a lattice cell's centre), so membership is a linear scan.
    fn nearest(&self, band: &mut Vec<SiteId>, q: Point) -> SiteId {
        // The closest entry of the start table. Only the walk's result
        // must be exact, so the start ignores ties, and a table left
        // stale by a failed mutation only makes a worse start.
        let (mut start, mut best) = (0, f64::INFINITY);
        for e in &self.starts {
            let dx = e.point.x - q.x;
            let dy = e.point.y - q.y;
            let di = dx * dx + dy * dy;
            if di < best {
                (start, best) = (e.id as usize, di);
            }
        }
        if start >= self.len() {
            start = 0;
        }
        let mut cur = SiteId(start as u32);
        let mut d = self.dist_sq_idx(start, q);
        'walk: loop {
            // Greedy descent to a site no neighbor is closer than.
            loop {
                let mut next = (cur, d);
                for &nb in self.voronoi.neighbors(cur) {
                    let dn = self.dist_sq_idx(nb.idx(), q);
                    if dn < next.1 {
                        next = (nb, dn);
                    }
                }
                if next.0 == cur {
                    break;
                }
                (cur, d) = next;
            }
            // The tied band around the stop. An infinite or NaN distance
            // has no band: the stop stands.
            if !d.is_finite() {
                return cur;
            }
            let (lo, hi) = (d - d * TIE_BAND, d + d * TIE_BAND);
            band.clear();
            band.push(cur);
            let mut best = (d, cur.0);
            let mut at = 0;
            while at < band.len() {
                let s = band[at];
                at += 1;
                for &nb in self.voronoi.neighbors(s) {
                    let dn = self.dist_sq_idx(nb.idx(), q);
                    if dn < lo {
                        // A clearly closer site: walk on from it.
                        (cur, d) = (nb, dn);
                        continue 'walk;
                    }
                    if dn <= hi && !band.contains(&nb) {
                        band.push(nb);
                        if (dn, nb.0) < best {
                            best = (dn, nb.0);
                        }
                    }
                }
            }
            return SiteId(best.1);
        }
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
        let rtree = tree.rtree();
        let mut next = lcg(1);
        for _ in 0..50 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            for k in [1usize, 4, 16] {
                let via_voronoi: Vec<u32> = tree.knn(q, k).into_iter().map(|(s, _)| s.0).collect();
                let via_rtree: Vec<u32> = rtree.knn(q, k).into_iter().map(|(e, _)| e.id).collect();
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
