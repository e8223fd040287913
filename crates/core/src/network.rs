//! The road-network [`Space`] (paper §IV).
//!
//! Differences from the Euclidean space:
//!
//! * distances are network distances — no constant-time evaluation exists,
//!   so validation is a *restricted* kNN search confined to the
//!   subnetwork `G'` formed by the Voronoi cells of `kNN ∪ I(kNN)`
//!   (Theorem 2: if that restricted search returns the current kNN set,
//!   the set is globally valid);
//! * that search is **anchored at the endpoints of the query's edge**
//!   (`insq_roadnet::subnetwork`): for `q` at offset `o` on `(u, v)`,
//!   `d(q, s) = min(o + d_G'(u, s), len − o + d_G'(v, s))`, so the k-lists
//!   of `u` and `v`, held per query in [`Space::Anchor`], answer every tick
//!   on that edge in O(k), up to the last ulp and rank-`k` ties. The
//!   [`Processor`] forgets them on recompute, invalidate and rebind and
//!   before it probes another scope;
//! * the influential neighbor set comes from the precomputed *network*
//!   Voronoi diagram's adjacency (Theorem 1: `MIS ⊆ INS` holds under
//!   network distance as well);
//! * the restricted probe is served from the NVD, whose neighbor
//!   pointers travel with the response — the probe *is* the fetch, so
//!   missing influential neighbors ship with it ([`Space::SCOPED_PROBE`])
//!   instead of escalating to a full INE recomputation.
//!
//! The index snapshot is a [`NetworkWorld`] (network + sites + NVD);
//! [`NetInsProcessor`] is the road-network instantiation of the generic
//! [`Processor`].

use std::borrow::Borrow;

use insq_roadnet::ine::{all_site_distances, network_knn_into};
use insq_roadnet::subnetwork::{anchored_knn_into, EdgeAnchors};
use insq_roadnet::{
    DijkstraScratch, NetPosition, NetworkVoronoi, NetworkWorld, RoadNetwork, SiteIdx, SiteMask,
    SiteSet,
};

use crate::processor::Processor;
use crate::space::Space;

/// A road network under shortest-path distance, indexed by a
/// [`NetworkWorld`] (network + site set + network Voronoi diagram).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Network;

/// Per-worker search scratch of the road-network space: the Theorem-2
/// restriction mask plus the Dijkstra expansion state (distance slots
/// and frontier heap). A default scratch is empty; backing storage
/// appears on first use, sized to the bound network.
#[derive(Debug, Clone, Default)]
pub struct NetScratch {
    /// Allowed-site mask of the restricted (Theorem-2) search.
    pub mask: SiteMask,
    /// Dijkstra distance slots + frontier heap.
    pub dij: DijkstraScratch,
}

impl Space for Network {
    type Pos = NetPosition;
    type SiteId = SiteIdx;
    type Index = NetworkWorld;
    type Scratch = NetScratch;
    type Anchor = EdgeAnchors;

    const NAME: &'static str = "INS-road";
    // Theorem-2 restricted validation: the probe never leaves the
    // `kNN ∪ I(kNN)` cells, the scope is maintained, the cache holds
    // `R ∪ I(kNN)`, and missing neighbors ship with the probe.
    const SCOPED_PROBE: bool = true;

    fn num_sites(index: &NetworkWorld) -> usize {
        index.sites.len()
    }

    fn ordinal(id: SiteIdx) -> usize {
        id.idx()
    }

    fn forget_anchor(anchor: &mut EdgeAnchors) {
        anchor.clear()
    }

    fn global_knn_into(
        index: &NetworkWorld,
        scratch: &mut NetScratch,
        pos: NetPosition,
        m: usize,
        out: &mut Vec<(SiteIdx, f64)>,
    ) -> u64 {
        let st = network_knn_into(&index.net, &index.sites, &mut scratch.dij, pos, m, out);
        st.settled as u64
    }

    fn influential_into(index: &NetworkWorld, ids: &[SiteIdx], out: &mut Vec<SiteIdx>) {
        influential_neighbor_set_net_into(&index.nvd, ids, out)
    }

    fn scoped_knn_into(
        index: &NetworkWorld,
        scratch: &mut NetScratch,
        anchor: &mut EdgeAnchors,
        scope: &[SiteIdx],
        _held: &[SiteIdx],
        pos: NetPosition,
        k: usize,
        out: &mut Vec<(SiteIdx, f64)>,
    ) -> u64 {
        scratch.mask.resize(index.sites.len());
        scratch.mask.set(scope.iter().copied());
        let st = anchored_knn_into(
            &index.net,
            &index.sites,
            &index.nvd,
            &scratch.mask,
            &mut scratch.dij,
            anchor,
            pos,
            k,
            out,
        );
        st.settled as u64
    }

    /// One full oracle Dijkstra ([`all_site_distances`]) ranked by
    /// `(distance, site index)` — not INE, which is the recompute path
    /// this is the reference for.
    fn brute_knn(index: &NetworkWorld, pos: NetPosition, k: usize) -> Vec<SiteIdx> {
        let dist = all_site_distances(&index.net, &index.sites, pos);
        let mut ranked: Vec<SiteIdx> = (0..dist.len() as u32).map(SiteIdx).collect();
        ranked.sort_by(|a, b| dist[a.idx()].total_cmp(&dist[b.idx()]).then(a.cmp(b)));
        ranked.truncate(k);
        ranked
    }
}

/// The INS moving-kNN processor on a road network — the network
/// instantiation of the generic [`Processor`], bound to a
/// [`NetworkWorld`] snapshot (`&NetworkWorld` for single-threaded use,
/// `Arc<NetworkWorld>` when an `insq-server` fleet owns epoch-versioned
/// worlds).
pub type NetInsProcessor<B> = Processor<Network, B>;

impl<B: Borrow<NetworkWorld>> Processor<Network, B> {
    /// The road network the processor runs on.
    pub fn net(&self) -> &RoadNetwork {
        &self.index().net
    }

    /// The data-object site set the processor is bound to.
    pub fn sites(&self) -> &SiteSet {
        &self.index().sites
    }

    /// The network Voronoi diagram the processor is bound to.
    pub fn nvd(&self) -> &NetworkVoronoi {
        &self.index().nvd
    }

    /// The sites whose cells form the Theorem-2 validation subnetwork
    /// (`kNN ∪ I(kNN)`).
    pub fn subnetwork_sites(&self) -> &[SiteIdx] {
        self.scope()
    }
}

/// The network influential neighbor set: union of NVD neighbor lists of
/// the kNN members, minus the members (Definition 4 on network Voronoi
/// cells).
pub fn influential_neighbor_set_net(nvd: &NetworkVoronoi, knn: &[SiteIdx]) -> Vec<SiteIdx> {
    let mut ins = Vec::with_capacity(knn.len() * 4);
    influential_neighbor_set_net_into(nvd, knn, &mut ins);
    ins
}

/// Allocation-free [`influential_neighbor_set_net`]: writes `I(knn)`
/// into `out` (cleared first).
pub fn influential_neighbor_set_net_into(
    nvd: &NetworkVoronoi,
    knn: &[SiteIdx],
    out: &mut Vec<SiteIdx>,
) {
    out.clear();
    for &s in knn {
        out.extend_from_slice(nvd.neighbors(s));
    }
    out.sort_unstable();
    out.dedup();
    out.retain(|s| !knn.contains(s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TickOutcome;
    use crate::processor::{InsConfig, MovingKnn};
    use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
    use insq_roadnet::ine::network_knn;
    use insq_roadnet::NetTrajectory;
    use std::sync::Arc;

    /// kNN results compared as sets: distance ties permute freely.
    fn sorted(mut ids: Vec<SiteIdx>) -> Vec<SiteIdx> {
        ids.sort_unstable();
        ids
    }

    fn setup(seed: u64) -> NetworkWorld {
        let net = Arc::new(
            grid_network(
                &GridConfig {
                    cols: 12,
                    rows: 12,
                    ..GridConfig::default()
                },
                seed,
            )
            .unwrap(),
        );
        let sv = random_site_vertices(&net, 30, seed).unwrap();
        let sites = SiteSet::new(&net, sv).unwrap();
        NetworkWorld::build(net, sites)
    }

    #[test]
    fn rejects_bad_configs() {
        let world = setup(1);
        assert!(NetInsProcessor::new(&world, InsConfig::new(0, 1.5)).is_err());
        assert!(NetInsProcessor::new(&world, InsConfig::new(31, 1.5)).is_err());
        assert!(NetInsProcessor::new(&world, InsConfig::new(3, 0.9)).is_err());
        assert!(NetInsProcessor::new(&world, InsConfig::new(3, 1.0)).is_ok());
    }

    #[test]
    fn matches_global_ine_along_tour() {
        let world = setup(42);
        let mut p = NetInsProcessor::new(&world, InsConfig::new(4, 1.6)).unwrap();
        let tour = NetTrajectory::random_tour(&world.net, 8, 42).unwrap();
        let steps = 400;
        for i in 0..=steps {
            let s = tour.length() * i as f64 / steps as f64;
            let pos = tour.position(&world.net, s);
            p.tick(pos);
            let got: Vec<SiteIdx> = p.current_knn();
            let want: Vec<SiteIdx> = network_knn(&world.net, &world.sites, pos, 4)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            assert_eq!(sorted(got), sorted(want), "mismatch at step {i}");
        }
        let s = p.stats();
        assert!(s.valid_ticks > s.ticks / 2, "mostly valid: {s:?}");
        assert!(s.recomputations < s.ticks / 4, "recomputations rare: {s:?}");
    }

    #[test]
    fn communication_far_below_naive() {
        // The LBS-critical metric (paper §I): the INS client contacts the
        // server only on recomputation, while a naive client receives k
        // objects every timestamp.
        let world = setup(7);
        let mut p = NetInsProcessor::new(&world, InsConfig::new(3, 1.6)).unwrap();
        let tour = NetTrajectory::random_tour(&world.net, 6, 9).unwrap();
        let steps = 200u64;
        for i in 0..=steps {
            let pos = tour.position(&world.net, tour.length() * i as f64 / steps as f64);
            p.tick(pos);
        }
        let naive_comm = 3 * (steps + 1);
        let ins_comm = p.stats().comm_objects;
        assert!(
            ins_comm * 2 < naive_comm,
            "INS comm {ins_comm} not well below naive {naive_comm}"
        );
        // And most ticks validate without any recomputation at all.
        assert!(
            p.stats().valid_ticks * 2 > p.stats().ticks,
            "{:?}",
            p.stats()
        );
    }

    #[test]
    fn stationary_stays_valid() {
        let world = setup(3);
        let mut p = NetInsProcessor::new(&world, InsConfig::new(5, 1.6)).unwrap();
        let pos = NetPosition::Vertex(insq_roadnet::VertexId(60));
        p.tick(pos);
        for _ in 0..10 {
            assert_eq!(p.tick(pos), TickOutcome::Valid);
        }
        assert_eq!(p.stats().recomputations, 1);
    }

    #[test]
    fn invalidate_and_rebind_handle_site_updates() {
        let world_a = setup(19);
        // A second site set on the same network: the "after update" world.
        let sv_b = random_site_vertices(&world_a.net, 24, 77).unwrap();
        let sites_b = SiteSet::new(&world_a.net, sv_b).unwrap();
        let world_b = world_a.with_sites(sites_b);

        let mut p = NetInsProcessor::new(&world_a, InsConfig::new(3, 1.6)).unwrap();
        let pos = NetPosition::Vertex(insq_roadnet::VertexId(70));
        p.tick(pos);
        assert_eq!(p.tick(pos), TickOutcome::Valid);

        p.invalidate();
        assert_eq!(p.tick(pos), TickOutcome::Recompute);

        p.rebind(&world_b);
        assert_eq!(p.tick(pos), TickOutcome::Recompute);
        let got = p.current_knn();
        let want: Vec<SiteIdx> = network_knn(&world_b.net, &world_b.sites, pos, 3)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(
            sorted(got),
            sorted(want),
            "results come from the new site set"
        );
        assert_eq!(p.tick(pos), TickOutcome::Valid);
    }

    #[test]
    fn influential_set_excludes_knn() {
        let world = setup(11);
        let mut p = NetInsProcessor::new(&world, InsConfig::new(4, 1.6)).unwrap();
        p.tick(NetPosition::Vertex(insq_roadnet::VertexId(0)));
        let knn = p.current_knn();
        let ins = p.influential_set();
        for s in &knn {
            assert!(!ins.contains(s));
        }
        // The subnetwork mask is exactly kNN ∪ INS.
        let mut expect: Vec<SiteIdx> = knn.iter().copied().chain(ins.iter().copied()).collect();
        expect.sort_unstable();
        let mut got: Vec<SiteIdx> = p.subnetwork_sites().to_vec();
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}
