//! Space-parameterized fleet generation.
//!
//! [`SpaceWorkload`] extends an `insq_core::Space` with everything a
//! fleet run needs that is *not* part of query processing: building the
//! index snapshot of each epoch version from a [`FleetScenario`], and
//! producing every client's position at every tick. One generic harness
//! (`insq-server`'s cross-space conformance suite, `insq-net`'s loopback
//! equivalence suite) then drives any space through the identical
//! scenario — a new space implements this trait once and inherits all of
//! them.
//!
//! Everything derives deterministically from the scenario's master seed,
//! so fleet runs are exactly reproducible — which is what the
//! thread-count equivalence tests rely on.

use std::sync::Arc;

use insq_core::{Euclidean, Network, Space};
use insq_geom::Trajectory;
use insq_index::VorTree;
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq_roadnet::{NetTrajectory, NetworkWorld, RoadNetwork, SiteSet};

use crate::fleet::FleetScenario;

/// A [`Space`] that knows how to materialise [`FleetScenario`]s.
pub trait SpaceWorkload: Space {
    /// Prebuilt per-run motion state: client trajectories, plus (on road
    /// networks) the street network the index snapshots share.
    type Fleet: Send + Sync;

    /// Materialises the fleet's motion state (client trajectories etc.).
    fn make_fleet(sc: &FleetScenario) -> Self::Fleet;

    /// Builds the index snapshot of epoch `version` (0 = the initial
    /// world; each scheduled update publishes the next version).
    fn build_index(sc: &FleetScenario, fleet: &Self::Fleet, version: usize) -> Self::Index;

    /// Client `client`'s position at `tick`.
    fn position(sc: &FleetScenario, fleet: &Self::Fleet, client: usize, tick: usize) -> Self::Pos;

    /// The brute-force kNN at a position — forwarded from
    /// [`Space::brute_knn`] so harnesses can stay generic over this one
    /// trait.
    fn brute(index: &Self::Index, pos: Self::Pos, k: usize) -> Vec<Self::SiteId> {
        Self::brute_knn(index, pos, k)
    }
}

impl SpaceWorkload for Euclidean {
    type Fleet = Vec<Trajectory>;

    fn make_fleet(sc: &FleetScenario) -> Vec<Trajectory> {
        (0..sc.clients).map(|c| sc.client_trajectory(c)).collect()
    }

    fn build_index(sc: &FleetScenario, _fleet: &Vec<Trajectory>, version: usize) -> VorTree {
        VorTree::build(sc.points(version), sc.clip_window()).expect("generated data is valid")
    }

    fn position(
        sc: &FleetScenario,
        fleet: &Vec<Trajectory>,
        client: usize,
        tick: usize,
    ) -> insq_geom::Point {
        sc.position(&fleet[client], client, tick)
    }
}

/// The motion state of a road-network fleet: the shared street network
/// and one shortest-path tour per client.
#[derive(Debug)]
pub struct NetFleet {
    /// The street network every epoch version shares.
    pub net: Arc<RoadNetwork>,
    /// Per-client tours.
    pub tours: Vec<NetTrajectory>,
}

impl SpaceWorkload for Network {
    type Fleet = NetFleet;

    fn make_fleet(sc: &FleetScenario) -> NetFleet {
        // A jittered grid with roughly four vertices per data object, so
        // site density stays comparable across scenario sizes.
        let side = ((4 * sc.n.max(4)) as f64).sqrt().ceil() as u32;
        let side = side.clamp(4, 200);
        let net = Arc::new(
            grid_network(
                &GridConfig {
                    cols: side,
                    rows: side,
                    ..GridConfig::default()
                },
                sc.seed,
            )
            .expect("valid grid"),
        );
        let tours = (0..sc.clients)
            .map(|c| {
                NetTrajectory::random_tour(&net, 6, sc.seed.wrapping_add(1 + c as u64))
                    .expect("connected network")
            })
            .collect();
        NetFleet { net, tours }
    }

    fn build_index(sc: &FleetScenario, fleet: &NetFleet, version: usize) -> NetworkWorld {
        let seed = sc
            .seed
            .wrapping_add((version as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = sc.n.min(fleet.net.num_vertices() / 2).max(1);
        let vertices = random_site_vertices(&fleet.net, n, seed).expect("enough vertices");
        let sites = SiteSet::new(&fleet.net, vertices).expect("distinct sites");
        NetworkWorld::build(Arc::clone(&fleet.net), sites)
    }

    fn position(
        sc: &FleetScenario,
        fleet: &NetFleet,
        client: usize,
        tick: usize,
    ) -> insq_roadnet::NetPosition {
        let tour = &fleet.tours[client];
        let phase = sc.client_phase(client) * tour.length();
        tour.position_looped(&fleet.net, phase + sc.speed * tick as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetScenario {
        FleetScenario {
            clients: 4,
            n: 60,
            ticks: 10,
            ..Default::default()
        }
    }

    #[test]
    fn euclidean_workload_is_deterministic() {
        let sc = small();
        let fleet = Euclidean::make_fleet(&sc);
        let idx = Euclidean::build_index(&sc, &fleet, 0);
        assert_eq!(idx.len(), 60);
        let p1 = Euclidean::position(&sc, &fleet, 2, 5);
        let p2 = Euclidean::position(&sc, &fleet, 2, 5);
        assert_eq!(p1, p2);
    }

    #[test]
    fn network_workload_shares_the_net_across_versions() {
        let sc = small();
        let fleet = Network::make_fleet(&sc);
        let w0 = Network::build_index(&sc, &fleet, 0);
        let w1 = Network::build_index(&sc, &fleet, 1);
        assert!(Arc::ptr_eq(&w0.net, &w1.net), "one street network");
        assert_eq!(w0.sites.len(), w1.sites.len());
        assert_ne!(w0.sites.vertices(), w1.sites.vertices(), "sites reshuffle");
        let pos = Network::position(&sc, &fleet, 1, 3);
        assert_eq!(pos, Network::position(&sc, &fleet, 1, 3));
    }
}
