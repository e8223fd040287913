//! Localized search on cell-restricted subnetworks (Theorem 2).
//!
//! Theorem 2 of the paper: if the kNN set of `q` computed on the subnetwork
//! formed by the Voronoi cells of `Oknn ∪ I(Oknn)` equals `Oknn`, then
//! `Oknn` is the true kNN set on the whole network. The INS processor
//! therefore validates on a *restricted* search that never leaves the
//! union of those cells — the expansion cost is bounded by the size of
//! `k + |INS|` cells instead of the whole network.
//!
//! Rather than materialising a subgraph, [`restricted_knn`] runs the
//! crate's one kNN expansion (`DijkstraScratch::expand_knn`, the same
//! loop as INE) on the original adjacency, crossing only edges whose
//! fragments are all owned by allowed sites (border points act as walls)
//! and seeding only across such fragments. This is equivalent to
//! searching `D_{Oknn ∪ I(Oknn)}`; with a caller-held
//! [`DijkstraScratch`] ([`restricted_knn_into`]) it allocates nothing
//! per query at all.
//!
//! # The edge-anchored probe
//!
//! Every path from a point on edge `(u, v)` leaves it through `u` or
//! `v`. So on the masked subnetwork `G'`, for `q` at offset `o` on an
//! edge of length `len`, over the endpoints `masked_reach` admits,
//! `d(q, s) = min(o + d_G'(u, s), len − o + d_G'(v, s))`, and a site
//! among `q`'s k nearest via `u` is among `u`'s k nearest: the k-lists
//! `restricted_knn_into(Vertex(u))` and `(Vertex(v))` determine the
//! restricted kNN at *every* offset of the edge. [`anchored_knn_into`]
//! keeps them in a per-query [`EdgeAnchors`] and answers a tick that
//! stays on its edge, or stops at an end of it, with an O(k) merge; a
//! seed that is not anchored restarts the anchors (CHANGES.md, PR 24).
//!
//! A list is a function of the snapshot (weights, sites, NVD), the mask
//! and `k`; the kernel checks none of them — the owner calls
//! [`EdgeAnchors::clear`] when one changes. A fresh expansion sums a path
//! as `((o + e₁) + e₂) + …`, the anchored probe as `o + ((e₁ + e₂) + …)`:
//! a distance may differ in the last few ulp, and which of the sites that
//! tie (or round to a tie) at rank `k` is reported is unspecified in
//! either. Both return *a* valid kNN.

use crate::graph::{RoadNetwork, VertexId};
use crate::nvd::{EdgeOwnership, NetworkVoronoi};
use crate::position::NetPosition;
use crate::scratch::{DijkstraScratch, ExpansionStats};
use crate::sites::{SiteIdx, SiteSet};

/// A reusable mask of allowed sites, sized to the site set.
#[derive(Debug, Clone, Default)]
pub struct SiteMask {
    allowed: Vec<bool>,
    members: Vec<SiteIdx>,
}

impl SiteMask {
    /// Creates an empty mask for `num_sites` sites.
    pub fn new(num_sites: usize) -> SiteMask {
        SiteMask {
            allowed: vec![false; num_sites],
            members: Vec::new(),
        }
    }

    /// The number of sites the mask is dimensioned for.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.allowed.len()
    }

    /// Re-dimensions the mask to `num_sites` — the reuse path for
    /// callers that keep one scratch mask across queries. When the site
    /// count actually changed the mask is reallocated and cleared; when
    /// it is unchanged this is a no-op and the previous contents stay —
    /// follow with [`SiteMask::set`] (which clears and refills) before
    /// reading.
    pub fn resize(&mut self, num_sites: usize) {
        if self.allowed.len() != num_sites {
            self.allowed.clear();
            self.allowed.resize(num_sites, false);
            self.members.clear();
        }
    }

    /// Clears and refills the mask.
    pub fn set<I: IntoIterator<Item = SiteIdx>>(&mut self, sites: I) {
        for &s in &self.members {
            self.allowed[s.idx()] = false;
        }
        self.members.clear();
        for s in sites {
            if !self.allowed[s.idx()] {
                self.allowed[s.idx()] = true;
                self.members.push(s);
            }
        }
    }

    /// Whether `s` is in the mask.
    #[inline]
    pub fn contains(&self, s: SiteIdx) -> bool {
        self.allowed[s.idx()]
    }

    /// The member sites (insertion order).
    #[inline]
    pub fn members(&self) -> &[SiteIdx] {
        &self.members
    }
}

/// kNN of `pos` on the subnetwork formed by the Voronoi cells of the masked
/// sites, ascending by distance (ties by site index).
///
/// Precondition for Theorem 2 semantics: `pos` lies inside the union of the
/// masked cells (true by construction when the mask is `kNN ∪ INS` and `q`
/// was inside the order-k cell at the last recompute). When `pos` is
/// outside, the function still terminates and returns the kNN within
/// whatever masked region is reachable.
pub fn restricted_knn(
    net: &RoadNetwork,
    sites: &SiteSet,
    nvd: &NetworkVoronoi,
    mask: &SiteMask,
    pos: NetPosition,
    k: usize,
) -> (Vec<(SiteIdx, f64)>, ExpansionStats) {
    let mut scratch = DijkstraScratch::new();
    let mut result = Vec::with_capacity(k);
    let stats = restricted_knn_into(net, sites, nvd, mask, &mut scratch, pos, k, &mut result);
    (result, stats)
}

/// Allocation-free [`restricted_knn`]: the expansion runs inside
/// `scratch` and the result lands in `out` (cleared first). On the tick
/// path it only fills the anchors of [`anchored_knn_into`], whose
/// fresh-expansion reference it is.
#[allow(clippy::too_many_arguments)]
pub fn restricted_knn_into(
    net: &RoadNetwork,
    sites: &SiteSet,
    nvd: &NetworkVoronoi,
    mask: &SiteMask,
    scratch: &mut DijkstraScratch,
    pos: NetPosition,
    k: usize,
    out: &mut Vec<(SiteIdx, f64)>,
) -> ExpansionStats {
    let (seeds, n) = pos.seed_array(net);
    let reach = masked_reach(nvd, mask, pos);
    scratch.expand_knn(
        net,
        seeds[..n]
            .iter()
            .zip(reach)
            .filter(|&(_, reachable)| reachable)
            .map(|(&seed, _)| seed),
        k,
        // Traverse only edges entirely inside the masked region.
        |e| match nvd.edge_ownership(e) {
            EdgeOwnership::Whole(o) => mask.contains(o),
            EdgeOwnership::Split {
                owner_u, owner_v, ..
            } => mask.contains(owner_u) && mask.contains(owner_v),
        },
        |v| sites.site_at(v).filter(|&s| mask.contains(s)),
        out,
    )
}

/// Which of `pos`'s seeds ([`NetPosition::seed_array`] order) can be
/// reached without leaving the masked cells: a vertex iff its owner is
/// masked, an edge endpoint iff every fragment between the position and
/// it is masked.
fn masked_reach(nvd: &NetworkVoronoi, mask: &SiteMask, pos: NetPosition) -> [bool; 2] {
    match pos {
        NetPosition::Vertex(v) => [mask.contains(nvd.owner(v)); 2],
        NetPosition::OnEdge { edge, offset } => match nvd.edge_ownership(edge) {
            EdgeOwnership::Whole(o) => [mask.contains(o); 2],
            EdgeOwnership::Split {
                owner_u,
                owner_v,
                border,
            } => {
                let ou = mask.contains(owner_u);
                let ov = mask.contains(owner_v);
                // Walking within the edge crosses the border point; that
                // is allowed iff both fragments are masked.
                if offset <= border {
                    [ou, ou && ov]
                } else {
                    [ov && ou, ov]
                }
            }
        },
    }
}

/// The edge-anchored probe's per-query memo (module docs): two `k`-entry
/// lists whose buffers keep their capacity across [`EdgeAnchors::clear`].
#[derive(Debug, Clone, Default)]
pub struct EdgeAnchors {
    slots: [Option<VertexId>; 2],
    lists: [Vec<(SiteIdx, f64)>; 2],
}

impl EdgeAnchors {
    /// Forgets both lists (their buffers stay allocated).
    pub fn clear(&mut self) {
        self.slots = [None; 2];
    }
}

/// [`restricted_knn_into`] served from the query's [`EdgeAnchors`]: equal
/// up to the last ulp and rank-`k` ties (module docs), expanding only
/// when a reachable seed vertex is not anchored. `anchors` were cleared
/// since the snapshot, `mask` or `k` last changed. Allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn anchored_knn_into(
    net: &RoadNetwork,
    sites: &SiteSet,
    nvd: &NetworkVoronoi,
    mask: &SiteMask,
    scratch: &mut DijkstraScratch,
    anchors: &mut EdgeAnchors,
    pos: NetPosition,
    k: usize,
    out: &mut Vec<(SiteIdx, f64)>,
) -> ExpansionStats {
    let (seeds, n) = pos.seed_array(net);
    let reach = masked_reach(nvd, mask, pos);
    let reachable = || seeds[..n].iter().zip(reach).filter(|s| s.1).map(|s| *s.0);
    let mut stats = ExpansionStats::default();
    if reachable().any(|(v, _)| !anchors.slots.contains(&Some(v))) {
        // No eviction rule: an unanchored seed restarts the anchors.
        anchors.clear();
        for (slot, (v, _)) in reachable().enumerate() {
            let (at, list) = (NetPosition::Vertex(v), &mut anchors.lists[slot]);
            let st = restricted_knn_into(net, sites, nvd, mask, scratch, at, k, list);
            stats.settled += st.settled;
            stats.pushes += st.pushes;
            anchors.slots[slot] = Some(v);
        }
    }
    out.clear();
    for (v, shift) in reachable() {
        let list = &anchors.lists[usize::from(anchors.slots[0] != Some(v))];
        out.extend(list.iter().map(|&(s, d)| (s, shift + d)));
    }
    if n == 2 {
        // Each site's nearer route, back in `(distance, site index)` order.
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        out.dedup_by_key(|e| e.0);
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeRec, VertexId};
    use crate::ine::network_knn;
    use crate::nvd::NetworkVoronoi;
    use insq_geom::Point;

    fn edge(u: u32, v: u32, len: f64) -> EdgeRec {
        EdgeRec {
            u: VertexId(u),
            v: VertexId(v),
            len,
        }
    }

    /// 6x6 grid, sites on a diagonal-ish scatter.
    fn grid() -> (RoadNetwork, SiteSet) {
        let w = 6u32;
        let mut coords = Vec::new();
        let mut edges = Vec::new();
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
        let sv = vec![0u32, 3, 5, 14, 16, 21, 27, 30, 33, 35]
            .into_iter()
            .map(VertexId)
            .collect();
        let sites = SiteSet::new(&net, sv).unwrap();
        (net, sites)
    }

    /// Theorem-2 style check: with the mask set to kNN ∪ network Voronoi
    /// neighbors of the kNN, the restricted kNN equals the global kNN.
    #[test]
    fn restricted_matches_global_with_ins_mask() {
        let (net, sites) = grid();
        let nvd = NetworkVoronoi::build(&net, &sites);
        let k = 3;
        for v in 0..net.num_vertices() as u32 {
            let pos = NetPosition::Vertex(VertexId(v));
            let global = network_knn(&net, &sites, pos, k);
            // Build kNN ∪ INS mask.
            let mut mask = SiteMask::new(sites.len());
            let knn: Vec<SiteIdx> = global.iter().map(|&(s, _)| s).collect();
            let mut members = knn.clone();
            for &s in &knn {
                members.extend_from_slice(nvd.neighbors(s));
            }
            mask.set(members);
            let (restricted, _) = restricted_knn(&net, &sites, &nvd, &mask, pos, k);
            let g: Vec<SiteIdx> = global.iter().map(|&(s, _)| s).collect();
            let r: Vec<SiteIdx> = restricted.iter().map(|&(s, _)| s).collect();
            // Compare as sets of distances (ties may order differently).
            let gd: Vec<f64> = global.iter().map(|&(_, d)| d).collect();
            let rd: Vec<f64> = restricted.iter().map(|&(_, d)| d).collect();
            assert_eq!(gd, rd, "vertex {v}: {g:?} vs {r:?}");
        }
    }

    #[test]
    fn mask_walls_block_expansion() {
        let (net, sites) = grid();
        let nvd = NetworkVoronoi::build(&net, &sites);
        // Only the cell of the site at vertex 0 is allowed: from vertex 0 we
        // must find exactly that one site, however large k is.
        let s0 = sites.site_at(VertexId(0)).unwrap();
        let mut mask = SiteMask::new(sites.len());
        mask.set([s0]);
        let (res, stats) = restricted_knn(
            &net,
            &sites,
            &nvd,
            &mask,
            NetPosition::Vertex(VertexId(0)),
            5,
        );
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0, s0);
        assert_eq!(res[0].1, 0.0);
        // The expansion must stay inside one cell: far fewer settles than
        // the whole 36-vertex network.
        assert!(stats.settled < 36, "settled {}", stats.settled);
    }

    #[test]
    fn position_outside_mask_reaches_nothing() {
        let (net, sites) = grid();
        let nvd = NetworkVoronoi::build(&net, &sites);
        // Mask only the site at vertex 35; query from vertex 0 (deep inside
        // another cell) cannot expand anywhere.
        let far = sites.site_at(VertexId(35)).unwrap();
        let mut mask = SiteMask::new(sites.len());
        mask.set([far]);
        let (res, _) = restricted_knn(
            &net,
            &sites,
            &nvd,
            &mask,
            NetPosition::Vertex(VertexId(0)),
            3,
        );
        assert!(res.is_empty());
    }

    #[test]
    fn reused_scratch_matches_fresh() {
        let (net, sites) = grid();
        let nvd = NetworkVoronoi::build(&net, &sites);
        let k = 3;
        let mut mask = SiteMask::new(sites.len());
        let mut scratch = DijkstraScratch::new();
        let mut out = Vec::new();
        for v in 0..net.num_vertices() as u32 {
            let pos = NetPosition::Vertex(VertexId(v));
            let knn: Vec<SiteIdx> = network_knn(&net, &sites, pos, k)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            let mut members = knn.clone();
            for &s in &knn {
                members.extend_from_slice(nvd.neighbors(s));
            }
            mask.set(members);
            let stats =
                restricted_knn_into(&net, &sites, &nvd, &mask, &mut scratch, pos, k, &mut out);
            let (want, want_stats) = restricted_knn(&net, &sites, &nvd, &mask, pos, k);
            assert_eq!(out, want, "vertex {v}");
            assert_eq!(stats, want_stats, "vertex {v}");
        }
    }

    #[test]
    fn mask_reuse_clears_previous_members() {
        let mut mask = SiteMask::new(4);
        mask.set([SiteIdx(0), SiteIdx(2)]);
        assert!(mask.contains(SiteIdx(0)));
        assert!(!mask.contains(SiteIdx(1)));
        mask.set([SiteIdx(1)]);
        assert!(!mask.contains(SiteIdx(0)));
        assert!(!mask.contains(SiteIdx(2)));
        assert!(mask.contains(SiteIdx(1)));
        assert_eq!(mask.members(), &[SiteIdx(1)]);
        // Duplicates collapse.
        mask.set([SiteIdx(3), SiteIdx(3)]);
        assert_eq!(mask.members(), &[SiteIdx(3)]);
    }

    #[test]
    fn edge_position_on_split_edge() {
        let (net, sites) = grid();
        let nvd = NetworkVoronoi::build(&net, &sites);
        // Find a split edge and query from just inside one side.
        let split = (0..net.num_edges() as u32)
            .map(crate::graph::EdgeId)
            .find(|&e| matches!(nvd.edge_ownership(e), EdgeOwnership::Split { .. }))
            .expect("grid with scattered sites has split edges");
        let EdgeOwnership::Split {
            owner_u, border, ..
        } = nvd.edge_ownership(split)
        else {
            unreachable!()
        };
        let pos = NetPosition::OnEdge {
            edge: split,
            offset: (border * 0.5).max(1e-6),
        };
        // Mask = only owner_u: the query (on owner_u's side) must reach it.
        let mut mask = SiteMask::new(sites.len());
        mask.set([owner_u]);
        let (res, _) = restricted_knn(&net, &sites, &nvd, &mask, pos, 1);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0, owner_u);
    }
}
