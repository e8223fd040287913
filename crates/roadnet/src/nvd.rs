//! The network Voronoi diagram (NVD).
//!
//! A Dijkstra expansion seeded at every site assigns each vertex to its
//! nearest site; each edge is then either wholly owned by one site or split
//! at a *border point* `b` equidistant from the two endpoint owners — the
//! "mid-point" of the paper's Fig. 2, whose existence drives the proof of
//! Theorem 1 (`MIS ⊆ INS` in road networks).
//!
//! The diagram also yields the network **Voronoi neighbor sets** (sites
//! whose cells share a border point), which is exactly what the network INS
//! is built from, and per-site **cell edge fragments**, which is what the
//! demo renders as the green/yellow edge sets.
//!
//! The diagram is also *incrementally maintainable*
//! ([`NetworkVoronoi::insert_site`] / [`NetworkVoronoi::remove_site`] /
//! [`NetworkVoronoi::reweight_edges`]): a site insertion claims exactly
//! the new cell, a removal re-expands only the orphaned cell from its
//! boundary, an edge re-weight invalidates and re-expands only the region
//! whose shortest paths crossed the changed edges, and edge ownership plus
//! neighbor sets are re-tallied for exactly the edges incident to
//! re-labelled vertices — cost proportional to the changed region, not the
//! network (the delta-epoch path of `insq-server`).
//!
//! Build and all three repairs are one label-setting kernel over the
//! persistent `(dist, owner)` arrays: they differ only in which labels
//! they reset and which seeds they queue before calling `settle`. The
//! relaxation rule lives in `relax` alone — **strict improvement only**:
//! an equal-distance arrival never re-labels a vertex, so ties keep the
//! owner that got there first (in `(distance, vertex id)` pop order) and a
//! repair never disturbs a label it does not have to.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use insq_geom::DistEntry;

use crate::graph::{EdgeId, RoadNetwork, VertexId};
use crate::sites::{SiteIdx, SiteSet};

/// Sentinel owner for vertices not (yet) claimed by any site.
const NO_SITE: SiteIdx = SiteIdx(u32::MAX);

/// How a single edge is partitioned between network Voronoi cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeOwnership {
    /// The whole edge lies in one site's cell.
    Whole(SiteIdx),
    /// The edge is split at `border` (network units from the edge's `u`
    /// endpoint): `[0, border]` belongs to `owner_u`, `[border, len]` to
    /// `owner_v`.
    Split {
        /// Owner of the `u`-side fragment.
        owner_u: SiteIdx,
        /// Owner of the `v`-side fragment.
        owner_v: SiteIdx,
        /// Distance of the border point from `u` along the edge.
        border: f64,
    },
}

/// A border point between two adjacent network Voronoi cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BorderPoint {
    /// The edge the border lies on.
    pub edge: EdgeId,
    /// Offset from the edge's `u` endpoint.
    pub offset: f64,
    /// Cell on the `u` side.
    pub site_u: SiteIdx,
    /// Cell on the `v` side.
    pub site_v: SiteIdx,
}

/// A contiguous fragment of an edge belonging to one Voronoi cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFragment {
    /// The edge.
    pub edge: EdgeId,
    /// Fragment start (offset from `u`).
    pub from: f64,
    /// Fragment end (offset from `u`), `from < to`.
    pub to: f64,
}

/// The network Voronoi diagram of a site set.
#[derive(Debug, Clone)]
pub struct NetworkVoronoi {
    /// Per-vertex distance to the nearest site.
    dist: Vec<f64>,
    /// Per-vertex owner site.
    owner: Vec<SiteIdx>,
    /// Per-edge ownership.
    edge_ownership: Vec<EdgeOwnership>,
    /// Per-site neighbor lists (sorted ascending).
    adj: Vec<Vec<SiteIdx>>,
    /// How many split edges separate each adjacent cell pair (key is the
    /// ordered pair `(min, max)`); a pair is adjacent iff its count > 0.
    border_counts: HashMap<(u32, u32), u32>,
}

/// The kernel's frontier, popped in `(distance, vertex id)` order.
type Frontier = BinaryHeap<Reverse<DistEntry<VertexId>>>;

impl NetworkVoronoi {
    /// The relaxation rule: `w` takes the label `(nd, owner)` iff `nd` is
    /// strictly nearer than its current one.
    #[inline]
    fn relax(
        &mut self,
        w: VertexId,
        nd: f64,
        owner: SiteIdx,
        heap: &mut Frontier,
        relabelled: &mut Vec<VertexId>,
    ) {
        if nd < self.dist[w.idx()] {
            self.dist[w.idx()] = nd;
            self.owner[w.idx()] = owner;
            heap.push(Reverse(DistEntry { dist: nd, id: w }));
            relabelled.push(w);
        }
    }

    /// The label-setting kernel: settles `heap` over the current labels,
    /// appending every vertex it re-labels to `relabelled` (once per
    /// improvement, so possibly repeated). Labels not reachable by a
    /// strict improvement are left exactly as they were.
    fn settle(&mut self, net: &RoadNetwork, heap: &mut Frontier, relabelled: &mut Vec<VertexId>) {
        while let Some(Reverse(DistEntry { dist: d, id: u })) = heap.pop() {
            if d > self.dist[u.idx()] {
                continue; // stale
            }
            let owner = self.owner[u.idx()];
            for &(w, e) in net.neighbors(u) {
                self.relax(w, d + net.edge(e).len, owner, heap, relabelled);
            }
        }
    }

    /// Offers every orphan (label reset to `∞`/[`NO_SITE`]) the labels of
    /// its still-labelled neighbors, so `settle` re-expands the orphaned
    /// region from its boundary inward.
    fn seed_from_boundary(
        &mut self,
        net: &RoadNetwork,
        orphans: &[VertexId],
        heap: &mut Frontier,
        relabelled: &mut Vec<VertexId>,
    ) {
        for &u in orphans {
            for &(w, e) in net.neighbors(u) {
                let owner = self.owner[w.idx()];
                if owner != NO_SITE {
                    let nd = self.dist[w.idx()] + net.edge(e).len;
                    self.relax(u, nd, owner, heap, relabelled);
                }
            }
        }
    }

    /// Builds the NVD: every site vertex seeded at distance 0, one
    /// `settle`, then ownership of every edge.
    pub fn build(net: &RoadNetwork, sites: &SiteSet) -> NetworkVoronoi {
        let mut nvd = NetworkVoronoi {
            dist: vec![f64::INFINITY; net.num_vertices()],
            owner: vec![NO_SITE; net.num_vertices()],
            edge_ownership: vec![EdgeOwnership::Whole(NO_SITE); net.num_edges()],
            adj: vec![Vec::new(); sites.len()],
            border_counts: HashMap::new(),
        };
        let mut heap = Frontier::new();
        let mut relabelled = Vec::new();
        for (i, &v) in sites.vertices().iter().enumerate() {
            nvd.relax(v, 0.0, SiteIdx(i as u32), &mut heap, &mut relabelled);
        }
        nvd.settle(net, &mut heap, &mut relabelled);
        nvd.refresh_edges(net, (0..net.num_edges() as u32).map(EdgeId));
        nvd
    }

    /// Extends the diagram with a new site at `vertex` (which must be the
    /// vertex just appended to the matching [`SiteSet`]): seeded at 0, the
    /// kernel claims exactly the new cell — expansion stops wherever the
    /// existing distance is not strictly improved — then edge ownership
    /// and neighbor sets are re-tallied around the claimed vertices.
    /// Returns the new site's index.
    pub fn insert_site(&mut self, net: &RoadNetwork, vertex: VertexId) -> SiteIdx {
        let s = SiteIdx(self.adj.len() as u32);
        self.adj.push(Vec::new());
        debug_assert!(
            self.dist[vertex.idx()] > 0.0,
            "site vertices are distinct (SiteSet enforces this)"
        );
        let mut heap = Frontier::new();
        let mut relabelled = Vec::new();
        self.relax(vertex, 0.0, s, &mut heap, &mut relabelled);
        self.settle(net, &mut heap, &mut relabelled);
        self.refresh_edges(net, incident_edges(net, &relabelled));
        s
    }

    /// Removes site `s` from the diagram, re-owning its cell from the
    /// boundary inward.
    ///
    /// Must be called *after* the matching
    /// [`SiteSet::remove`](crate::SiteSet::remove); pass its return value
    /// as `moved` so vertices of the swap-relabelled last site are re-
    /// tagged. Requires every vertex to reach some surviving site (the
    /// same connectivity assumption as [`NetworkVoronoi::build`]).
    pub fn remove_site(&mut self, net: &RoadNetwork, s: SiteIdx, moved: Option<SiteIdx>) {
        debug_assert_ne!(Some(s), moved, "swap-remove never relabels onto itself");
        let mut orphans: Vec<VertexId> = Vec::new();
        let mut relabelled: Vec<VertexId> = Vec::new();
        for v in 0..self.owner.len() {
            if self.owner[v] == s {
                self.owner[v] = NO_SITE;
                self.dist[v] = f64::INFINITY;
                orphans.push(VertexId(v as u32));
            } else if moved == Some(self.owner[v]) {
                self.owner[v] = s;
                relabelled.push(VertexId(v as u32));
            }
        }

        let mut heap = Frontier::new();
        self.seed_from_boundary(net, &orphans, &mut heap, &mut relabelled);
        self.settle(net, &mut heap, &mut relabelled);
        self.refresh_edges(net, incident_edges(net, &relabelled));

        // Both the removed site's and the relabelled site's old pairs are
        // fully re-tallied above, so the popped tail slot is empty.
        let tail = self.adj.pop().expect("at least one site");
        debug_assert!(tail.is_empty(), "tail adjacency drained by re-tally");
    }

    /// Repairs the diagram after a batch of edge re-weights, seeded from
    /// the changed edges — the traffic analogue of
    /// [`NetworkVoronoi::insert_site`] / [`NetworkVoronoi::remove_site`].
    ///
    /// `self` must be the diagram of `old_net`; `new_net` must share its
    /// topology with only the lengths of `changed` replaced. Three
    /// localized passes:
    ///
    /// 1. *Invalidate.* Vertices whose shortest path runs through an edge
    ///    that got **longer** are found by walking the old shortest-path
    ///    DAG outward from the changed edges — a vertex joins iff its old
    ///    label equals a predecessor's old label plus the old edge length
    ///    — then orphaned exactly like a removed cell. Site vertices keep
    ///    their zero labels, so a cell is never orphaned at its source.
    /// 2. *Re-expand.* The kernel over the new lengths, seeded from the
    ///    orphan boundary plus the endpoints of every edge that got
    ///    **shorter** (the only entry points for a new, shorter path).
    ///    Every surviving label is still an exact upper bound, so the
    ///    expansion settles only the changed region.
    /// 3. *Re-tally.* Edge ownership and neighbor sets are refreshed for
    ///    edges incident to re-labelled vertices plus the changed edges
    ///    themselves (a border moves with its edge's length even when
    ///    both endpoint labels survive).
    ///
    /// Distances are rebuilt by the same left-to-right `label + len`
    /// accumulation as [`NetworkVoronoi::build`], so on tie-free networks
    /// the repaired diagram is bit-identical to a from-scratch build over
    /// `new_net`; on degenerate (tie-heavy) networks it is exact up to
    /// tie-breaks.
    pub fn reweight_edges(
        &mut self,
        old_net: &RoadNetwork,
        new_net: &RoadNetwork,
        changed: &[EdgeId],
    ) {
        debug_assert_eq!(old_net.num_vertices(), new_net.num_vertices());
        debug_assert_eq!(old_net.num_edges(), new_net.num_edges());

        // Pass 1: orphan every vertex whose old label depends on an
        // increased edge (BFS over the old shortest-path DAG).
        let mut touched = vec![false; old_net.num_vertices()];
        let mut orphans: Vec<VertexId> = Vec::new();
        for &e in changed {
            let old_len = old_net.edge(e).len;
            if new_net.edge(e).len <= old_len {
                continue;
            }
            let rec = old_net.edge(e);
            for (a, b) in [(rec.u, rec.v), (rec.v, rec.u)] {
                if !touched[b.idx()] && self.dist[b.idx()] == self.dist[a.idx()] + old_len {
                    touched[b.idx()] = true;
                    orphans.push(b);
                }
            }
        }
        let mut cursor = 0;
        while cursor < orphans.len() {
            let x = orphans[cursor];
            cursor += 1;
            for &(y, e) in old_net.neighbors(x) {
                if !touched[y.idx()]
                    && self.dist[y.idx()] == self.dist[x.idx()] + old_net.edge(e).len
                {
                    touched[y.idx()] = true;
                    orphans.push(y);
                }
            }
        }
        for &x in &orphans {
            debug_assert!(self.dist[x.idx()] > 0.0, "site vertices keep their labels");
            self.dist[x.idx()] = f64::INFINITY;
            self.owner[x.idx()] = NO_SITE;
        }

        // Pass 2: seed from the orphan boundary and from decreased edges,
        // then settle over the new lengths.
        let mut heap = Frontier::new();
        let mut relabelled: Vec<VertexId> = Vec::new();
        self.seed_from_boundary(new_net, &orphans, &mut heap, &mut relabelled);
        for &e in changed {
            let rec = new_net.edge(e);
            if rec.len >= old_net.edge(e).len {
                continue;
            }
            for (a, b) in [(rec.u, rec.v), (rec.v, rec.u)] {
                let owner = self.owner[a.idx()];
                if owner != NO_SITE {
                    let nd = self.dist[a.idx()] + rec.len;
                    self.relax(b, nd, owner, &mut heap, &mut relabelled);
                }
            }
        }
        self.settle(new_net, &mut heap, &mut relabelled);

        // Pass 3: refresh ownership around everything that moved, plus
        // the changed edges themselves.
        let mut edges = incident_edges(new_net, &relabelled);
        edges.extend_from_slice(changed);
        edges.sort_unstable();
        edges.dedup();
        self.refresh_edges(new_net, edges);
    }

    /// Recomputes ownership of the given edges from the current
    /// vertex owners/distances, keeping the border-pair counts and the
    /// per-site neighbor lists in sync.
    fn refresh_edges(&mut self, net: &RoadNetwork, edges: impl IntoIterator<Item = EdgeId>) {
        for e in edges {
            if let EdgeOwnership::Split {
                owner_u, owner_v, ..
            } = self.edge_ownership[e.idx()]
            {
                self.release_pair(owner_u, owner_v);
            }
            let rec = net.edge(e);
            let ou = self.owner[rec.u.idx()];
            let ov = self.owner[rec.v.idx()];
            let new = if ou == ov {
                EdgeOwnership::Whole(ou)
            } else {
                debug_assert!(
                    ou != NO_SITE && ov != NO_SITE,
                    "every vertex reaches a surviving site"
                );
                // Border where dist(u) + t == dist(v) + (len - t).
                let border = 0.5 * (rec.len + self.dist[rec.v.idx()] - self.dist[rec.u.idx()]);
                self.claim_pair(ou, ov);
                EdgeOwnership::Split {
                    owner_u: ou,
                    owner_v: ov,
                    border: border.clamp(0.0, rec.len),
                }
            };
            self.edge_ownership[e.idx()] = new;
        }
    }

    fn release_pair(&mut self, a: SiteIdx, b: SiteIdx) {
        let key = pair_key(a, b);
        let count = self
            .border_counts
            .get_mut(&key)
            .expect("released pair was counted");
        *count -= 1;
        if *count == 0 {
            self.border_counts.remove(&key);
            let at = self.adj[a.idx()]
                .binary_search(&b)
                .expect("adjacency mirrors counts");
            self.adj[a.idx()].remove(at);
            let at = self.adj[b.idx()]
                .binary_search(&a)
                .expect("adjacency mirrors counts");
            self.adj[b.idx()].remove(at);
        }
    }

    fn claim_pair(&mut self, a: SiteIdx, b: SiteIdx) {
        let count = self.border_counts.entry(pair_key(a, b)).or_insert(0);
        *count += 1;
        if *count == 1 {
            if let Err(at) = self.adj[a.idx()].binary_search(&b) {
                self.adj[a.idx()].insert(at, b);
            }
            if let Err(at) = self.adj[b.idx()].binary_search(&a) {
                self.adj[b.idx()].insert(at, a);
            }
        }
    }

    /// Distance from vertex `v` to its nearest site.
    #[inline]
    pub fn dist(&self, v: VertexId) -> f64 {
        self.dist[v.idx()]
    }

    /// The site owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> SiteIdx {
        self.owner[v.idx()]
    }

    /// Ownership of edge `e`.
    #[inline]
    pub fn edge_ownership(&self, e: EdgeId) -> EdgeOwnership {
        self.edge_ownership[e.idx()]
    }

    /// The network Voronoi neighbor set of site `s` (sorted).
    #[inline]
    pub fn neighbors(&self, s: SiteIdx) -> &[SiteIdx] {
        &self.adj[s.idx()]
    }

    /// Whether two sites' cells are adjacent.
    pub fn are_neighbors(&self, a: SiteIdx, b: SiteIdx) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// All border points of the diagram.
    pub fn border_points(&self, net: &RoadNetwork) -> Vec<BorderPoint> {
        let mut out = Vec::new();
        for (i, own) in self.edge_ownership.iter().enumerate() {
            if let EdgeOwnership::Split {
                owner_u,
                owner_v,
                border,
            } = *own
            {
                let _ = net;
                out.push(BorderPoint {
                    edge: EdgeId(i as u32),
                    offset: border,
                    site_u: owner_u,
                    site_v: owner_v,
                });
            }
        }
        out
    }

    /// The edge fragments forming the Voronoi cell of `s` — what the demo
    /// paints in the site's color.
    pub fn cell_fragments(&self, net: &RoadNetwork, s: SiteIdx) -> Vec<EdgeFragment> {
        let mut out = Vec::new();
        for (i, own) in self.edge_ownership.iter().enumerate() {
            let e = EdgeId(i as u32);
            let len = net.edge(e).len;
            match *own {
                EdgeOwnership::Whole(o) if o == s => out.push(EdgeFragment {
                    edge: e,
                    from: 0.0,
                    to: len,
                }),
                EdgeOwnership::Split {
                    owner_u,
                    owner_v,
                    border,
                } => {
                    if owner_u == s && border > 0.0 {
                        out.push(EdgeFragment {
                            edge: e,
                            from: 0.0,
                            to: border,
                        });
                    }
                    if owner_v == s && border < len {
                        out.push(EdgeFragment {
                            edge: e,
                            from: border,
                            to: len,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Total network length of the cell of `s`.
    pub fn cell_length(&self, net: &RoadNetwork, s: SiteIdx) -> f64 {
        self.cell_fragments(net, s)
            .iter()
            .map(|f| f.to - f.from)
            .sum()
    }

    /// Number of sites the diagram currently covers.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.adj.len()
    }
}

/// Normalised (min, max) key for an unordered cell pair.
#[inline]
fn pair_key(a: SiteIdx, b: SiteIdx) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// The deduplicated edges incident to any of `verts`.
fn incident_edges(net: &RoadNetwork, verts: &[VertexId]) -> Vec<EdgeId> {
    let mut out: Vec<EdgeId> = verts
        .iter()
        .flat_map(|&v| net.neighbors(v).iter().map(|&(_, e)| e))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::distances_from_vertex;
    use crate::graph::EdgeRec;
    use insq_geom::Point;

    fn edge(u: u32, v: u32, len: f64) -> EdgeRec {
        EdgeRec {
            u: VertexId(u),
            v: VertexId(v),
            len,
        }
    }

    /// Path network 0-1-2-3-4 with unit edges, sites at 0 and 4.
    fn path_net() -> (RoadNetwork, SiteSet) {
        let coords = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let edges = (0..4).map(|i| edge(i, i + 1, 1.0)).collect();
        let net = RoadNetwork::new(coords, edges).unwrap();
        let sites = SiteSet::new(&net, vec![VertexId(0), VertexId(4)]).unwrap();
        (net, sites)
    }

    #[test]
    fn path_ownership_and_border() {
        let (net, sites) = path_net();
        let nvd = NetworkVoronoi::build(&net, &sites);
        assert_eq!(nvd.owner(VertexId(0)), SiteIdx(0));
        assert_eq!(nvd.owner(VertexId(1)), SiteIdx(0));
        assert_eq!(nvd.owner(VertexId(3)), SiteIdx(1));
        assert_eq!(nvd.owner(VertexId(4)), SiteIdx(1));
        // Vertex 2 is equidistant; either owner is fine but the edges
        // around it must split consistently: total cell lengths are 2.0
        // each.
        let l0 = nvd.cell_length(&net, SiteIdx(0));
        let l1 = nvd.cell_length(&net, SiteIdx(1));
        assert!((l0 - 2.0).abs() < 1e-12, "cell 0 length {l0}");
        assert!((l1 - 2.0).abs() < 1e-12, "cell 1 length {l1}");
        // Exactly one border point, equidistant from both sites.
        let borders = nvd.border_points(&net);
        assert_eq!(borders.len(), 1);
        let b = borders[0];
        let d0 = distances_from_vertex(&net, VertexId(0));
        let d4 = distances_from_vertex(&net, VertexId(4));
        let rec = net.edge(b.edge);
        let via_u = d0[rec.u.idx()] + b.offset;
        let via_v = d4[rec.v.idx()] + (rec.len - b.offset);
        assert!(
            (via_u - via_v).abs() < 1e-12,
            "border point equidistant: {via_u} vs {via_v}"
        );
        // The two cells are neighbors.
        assert!(nvd.are_neighbors(SiteIdx(0), SiteIdx(1)));
        assert_eq!(nvd.neighbors(SiteIdx(0)), &[SiteIdx(1)]);
    }

    /// 4x4 unit grid; sites at the four corners.
    fn grid_net() -> (RoadNetwork, SiteSet) {
        let mut coords = Vec::new();
        let mut edges = Vec::new();
        let w = 4u32;
        for r in 0..w {
            for c in 0..w {
                coords.push(Point::new(c as f64, r as f64));
            }
        }
        for r in 0..w {
            for c in 0..w {
                let id = r * w + c;
                if c + 1 < w {
                    edges.push(edge(id, id + 1, 1.0));
                }
                if r + 1 < w {
                    edges.push(edge(id, id + w, 1.0));
                }
            }
        }
        let net = RoadNetwork::new(coords, edges).unwrap();
        let sites = SiteSet::new(
            &net,
            vec![VertexId(0), VertexId(3), VertexId(12), VertexId(15)],
        )
        .unwrap();
        (net, sites)
    }

    #[test]
    fn vertices_owned_by_nearest_site() {
        let (net, sites) = grid_net();
        let nvd = NetworkVoronoi::build(&net, &sites);
        let per_site: Vec<Vec<f64>> = sites
            .vertices()
            .iter()
            .map(|&v| distances_from_vertex(&net, v))
            .collect();
        for v in 0..net.num_vertices() {
            let min = per_site.iter().map(|d| d[v]).fold(f64::INFINITY, f64::min);
            assert_eq!(
                per_site[nvd.owner(VertexId(v as u32)).idx()][v],
                min,
                "vertex {v} owner not nearest"
            );
            assert_eq!(nvd.dist(VertexId(v as u32)), min);
        }
    }

    #[test]
    fn cells_partition_total_length() {
        let (net, sites) = grid_net();
        let nvd = NetworkVoronoi::build(&net, &sites);
        let total: f64 = (0..sites.len() as u32)
            .map(|s| nvd.cell_length(&net, SiteIdx(s)))
            .sum();
        assert!(
            (total - net.total_length()).abs() < 1e-9,
            "cells partition the network: {total} vs {}",
            net.total_length()
        );
    }

    #[test]
    fn border_points_are_equidistant() {
        let (net, sites) = grid_net();
        let nvd = NetworkVoronoi::build(&net, &sites);
        let per_site: Vec<Vec<f64>> = sites
            .vertices()
            .iter()
            .map(|&v| distances_from_vertex(&net, v))
            .collect();
        for b in nvd.border_points(&net) {
            let rec = net.edge(b.edge);
            let du = per_site[b.site_u.idx()][rec.u.idx()] + b.offset;
            let dv = per_site[b.site_v.idx()][rec.v.idx()] + (rec.len - b.offset);
            assert!(
                (du - dv).abs() < 1e-9,
                "border on {:?} not equidistant: {du} vs {dv}",
                b.edge
            );
        }
    }

    #[test]
    fn reweight_repair_matches_rebuild_on_path() {
        // 0-1-2-3-4, sites at 0 and 4. Congest edge (1,2), then clear it,
        // then shorten edge (2,3): repair must match a fresh build each
        // time, and a congestion wave must shift the border.
        let (net, sites) = path_net();
        let mut nvd = NetworkVoronoi::build(&net, &sites);
        let mut cur = net.clone();
        for (e, new_len) in [(EdgeId(1), 3.0), (EdgeId(1), 0.8), (EdgeId(2), 0.25)] {
            let next = cur
                .reweighted(&[crate::EdgeWeight {
                    edge: e,
                    len: new_len,
                }])
                .unwrap();
            nvd.reweight_edges(&cur, &next, &[e]);
            let fresh = NetworkVoronoi::build(&next, &sites);
            for v in 0..next.num_vertices() {
                let v = VertexId(v as u32);
                assert_eq!(nvd.dist(v).to_bits(), fresh.dist(v).to_bits(), "{v}");
                assert_eq!(nvd.owner(v), fresh.owner(v), "{v}");
            }
            for i in 0..next.num_edges() {
                assert_eq!(
                    nvd.edge_ownership(EdgeId(i as u32)),
                    fresh.edge_ownership(EdgeId(i as u32)),
                    "edge {i}"
                );
            }
            cur = next;
        }
        // After the congestion wave and the (2,3) shortcut, site 1's
        // cell reaches past vertex 2.
        assert_eq!(nvd.owner(VertexId(2)), SiteIdx(1));
    }

    #[test]
    fn reweight_noop_batch_changes_nothing() {
        let (net, sites) = grid_net();
        let mut nvd = NetworkVoronoi::build(&net, &sites);
        let before = nvd.clone();
        // Same lengths re-asserted: the repair must be an exact no-op.
        let same = net
            .reweighted(&[
                crate::EdgeWeight::scaled(&net, EdgeId(0), 1.0),
                crate::EdgeWeight::scaled(&net, EdgeId(5), 1.0),
            ])
            .unwrap();
        nvd.reweight_edges(&net, &same, &[EdgeId(0), EdgeId(5)]);
        for v in 0..net.num_vertices() {
            let v = VertexId(v as u32);
            assert_eq!(nvd.dist(v).to_bits(), before.dist(v).to_bits());
            assert_eq!(nvd.owner(v), before.owner(v));
        }
        for s in 0..sites.len() as u32 {
            assert_eq!(nvd.neighbors(SiteIdx(s)), before.neighbors(SiteIdx(s)));
        }
    }

    #[test]
    fn neighbor_symmetry() {
        let (net, sites) = grid_net();
        let nvd = NetworkVoronoi::build(&net, &sites);
        for s in 0..sites.len() as u32 {
            for &nb in nvd.neighbors(SiteIdx(s)) {
                assert!(nvd.are_neighbors(nb, SiteIdx(s)));
                assert_ne!(nb, SiteIdx(s));
            }
        }
    }
}
