//! Incremental Network Expansion (INE) kNN search.
//!
//! The classical network kNN algorithm (Papadias et al., VLDB'03): expand a
//! Dijkstra wavefront from the query position and report sites in the order
//! their vertices are settled. Expansion stops as soon as `k` sites are
//! found, so the cost is proportional to the size of the region containing
//! the k nearest sites — this is the *recompute* path of every road-network
//! MkNN processor in this system. It is the crate's one kNN expansion
//! (`DijkstraScratch::expand_knn`) with every edge passable and every site
//! accepted; [`all_site_distances`] is the independent oracle it is checked
//! against.

use crate::graph::RoadNetwork;
use crate::position::NetPosition;
use crate::scratch::{DijkstraScratch, ExpansionStats};
use crate::sites::{SiteIdx, SiteSet};

/// The `k` sites nearest to `pos` in network distance, ascending (ties by
/// site index). Returns fewer when the network hosts fewer sites.
pub fn network_knn(
    net: &RoadNetwork,
    sites: &SiteSet,
    pos: NetPosition,
    k: usize,
) -> Vec<(SiteIdx, f64)> {
    network_knn_with_stats(net, sites, pos, k).0
}

/// [`network_knn`] plus expansion statistics.
pub fn network_knn_with_stats(
    net: &RoadNetwork,
    sites: &SiteSet,
    pos: NetPosition,
    k: usize,
) -> (Vec<(SiteIdx, f64)>, ExpansionStats) {
    let mut scratch = DijkstraScratch::new();
    let mut result = Vec::with_capacity(k);
    let stats = network_knn_into(net, sites, &mut scratch, pos, k, &mut result);
    (result, stats)
}

/// Allocation-free [`network_knn_with_stats`]: the expansion runs
/// entirely inside `scratch` and the result lands in `out` (cleared
/// first). In steady state — same network across calls, `out` at
/// capacity — this touches no allocator; it is the per-tick recompute
/// path of the road-network processors.
pub fn network_knn_into(
    net: &RoadNetwork,
    sites: &SiteSet,
    scratch: &mut DijkstraScratch,
    pos: NetPosition,
    k: usize,
    out: &mut Vec<(SiteIdx, f64)>,
) -> ExpansionStats {
    let (seeds, n) = pos.seed_array(net);
    scratch.expand_knn(
        net,
        seeds[..n].iter().copied(),
        k,
        |_| true,
        |v| sites.site_at(v),
        out,
    )
}

/// Distances from `pos` to *every* site — one full oracle Dijkstra
/// ([`crate::dijkstra`]), sharing no code with the expansion above. Not
/// a hot path; allocates freely.
pub fn all_site_distances(net: &RoadNetwork, sites: &SiteSet, pos: NetPosition) -> Vec<f64> {
    let dist = crate::dijkstra::distances_from_position(net, pos);
    sites.vertices().iter().map(|&v| dist[v.idx()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeRec, VertexId};
    use insq_geom::Point;

    fn edge(u: u32, v: u32, len: f64) -> EdgeRec {
        EdgeRec {
            u: VertexId(u),
            v: VertexId(v),
            len,
        }
    }

    /// 5x5 unit grid; sites at 9 scattered vertices.
    fn grid() -> (RoadNetwork, SiteSet) {
        let w = 5u32;
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
        let site_vertices = vec![0u32, 4, 7, 10, 12, 17, 20, 23, 24]
            .into_iter()
            .map(VertexId)
            .collect();
        let sites = SiteSet::new(&net, site_vertices).unwrap();
        (net, sites)
    }

    fn brute_knn(
        net: &RoadNetwork,
        sites: &SiteSet,
        pos: NetPosition,
        k: usize,
    ) -> Vec<(SiteIdx, f64)> {
        let d = all_site_distances(net, sites, pos);
        let mut v: Vec<(SiteIdx, f64)> = d
            .into_iter()
            .enumerate()
            .map(|(i, d)| (SiteIdx(i as u32), d))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn knn_matches_brute_force_from_vertices() {
        let (net, sites) = grid();
        for v in 0..net.num_vertices() as u32 {
            let pos = NetPosition::Vertex(VertexId(v));
            for k in [1usize, 3, 5, 9] {
                let got = network_knn(&net, &sites, pos, k);
                let want = brute_knn(&net, &sites, pos, k);
                // Distances must agree; at ties the site order is fixed by
                // the final sort, so direct equality holds.
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.1, w.1, "distance mismatch at v={v}, k={k}");
                }
            }
        }
    }

    #[test]
    fn knn_from_edge_positions() {
        let (net, sites) = grid();
        for e in 0..net.num_edges() as u32 {
            let pos = NetPosition::on_edge(&net, crate::graph::EdgeId(e), 0.3).unwrap();
            let got = network_knn(&net, &sites, pos, 4);
            let want = brute_knn(&net, &sites, pos, 4);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.1 - w.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn k_exceeding_sites_returns_all() {
        let (net, sites) = grid();
        let got = network_knn(&net, &sites, NetPosition::Vertex(VertexId(12)), 100);
        assert_eq!(got.len(), sites.len());
    }

    #[test]
    fn k_zero() {
        let (net, sites) = grid();
        assert!(network_knn(&net, &sites, NetPosition::Vertex(VertexId(0)), 0).is_empty());
    }

    #[test]
    fn reused_scratch_matches_fresh() {
        let (net, sites) = grid();
        let mut scratch = DijkstraScratch::new();
        let mut out = Vec::new();
        // Interleave vertex and edge queries with varying k through ONE
        // scratch; every answer must be bit-identical to a fresh run.
        for round in 0..3 {
            for v in 0..net.num_vertices() as u32 {
                let pos = NetPosition::Vertex(VertexId(v));
                let k = 1 + ((v as usize + round) % 9);
                let stats = network_knn_into(&net, &sites, &mut scratch, pos, k, &mut out);
                let (want, want_stats) = network_knn_with_stats(&net, &sites, pos, k);
                assert_eq!(out, want, "v={v} k={k} round={round}");
                assert_eq!(stats, want_stats);
            }
            for e in 0..net.num_edges() as u32 {
                let pos = NetPosition::on_edge(&net, crate::graph::EdgeId(e), 0.4).unwrap();
                network_knn_into(&net, &sites, &mut scratch, pos, 3, &mut out);
                assert_eq!(out, network_knn(&net, &sites, pos, 3), "e={e}");
            }
        }
    }

    #[test]
    fn stats_grow_with_k() {
        let (net, sites) = grid();
        let pos = NetPosition::Vertex(VertexId(12));
        let (_, s1) = network_knn_with_stats(&net, &sites, pos, 1);
        let (_, s9) = network_knn_with_stats(&net, &sites, pos, 9);
        assert!(s1.settled <= s9.settled);
        assert!(s1.settled >= 1);
    }
}
