//! Rush hour: correlated commuter traffic over a live road network.
//!
//! The dynamic-traffic workload the repo benchmark's `road_rush`
//! workload and the traffic conformance tests drive. Two correlated
//! ingredients, both deterministic in the scenario seed:
//!
//! * **Commuter trajectories** — every client's tour runs from a seeded
//!   home vertex *through the hub* (the vertex nearest the network
//!   centroid — "downtown") and back, so the whole fleet converges on
//!   the same streets. That is the adversarial input for traffic
//!   deltas: the congested region is exactly where the queries are.
//! * **Weight storms** — congestion epochs that re-weight the streets
//!   around the hub. Storm epoch `2i` congests (lengths scale up by a
//!   jittered per-edge factor around [`RushHour::peak_factor`]), storm
//!   epoch `2i+1` clears (lengths restore to free flow). Every storm is
//!   expressed *absolutely* against the free-flow network, so storms
//!   never compound and a clear always lands exactly on the free-flow
//!   lengths bit-for-bit.
//!
//! Congestion only ever scales free-flow lengths **up** (factors ≥ 1),
//! which keeps every on-edge position generated against the free-flow
//! network valid in every traffic epoch (offsets never exceed the
//! congested length).

use insq_roadnet::generators::SplitMix64;
use insq_roadnet::{
    EdgeId, EdgeWeight, NetDelta, NetTrajectory, RoadNetError, RoadNetwork, VertexId,
};

/// A rush-hour traffic scenario over one road network.
#[derive(Debug, Clone)]
pub struct RushHour {
    /// Number of commuting clients.
    pub commuters: usize,
    /// Streets congested per storm (edges, BFS-ordered from the hub).
    pub storm_edges: usize,
    /// Peak congestion multiplier (≥ 1; per-edge jitter of ±20% is
    /// applied around it so congested lengths stay tie-free).
    pub peak_factor: f64,
    /// Ticks between storm epochs (congest, clear, congest, …); 0
    /// disables storms.
    pub storm_every: usize,
    /// Master seed (homes, jitter and the hub derive distinct streams).
    pub seed: u64,
}

impl Default for RushHour {
    fn default() -> Self {
        RushHour {
            commuters: 24,
            storm_edges: 32,
            peak_factor: 2.5,
            storm_every: 10,
            seed: 2016,
        }
    }
}

impl RushHour {
    /// The hub ("downtown"): the vertex closest to the network centroid.
    pub fn hub(&self, net: &RoadNetwork) -> VertexId {
        let coords = net.coords();
        let n = coords.len() as f64;
        let (cx, cy) = coords
            .iter()
            .fold((0.0, 0.0), |(x, y), p| (x + p.x, y + p.y));
        let (cx, cy) = (cx / n, cy / n);
        let mut best = VertexId(0);
        let mut best_d = f64::INFINITY;
        for (i, p) in coords.iter().enumerate() {
            let d = (p.x - cx) * (p.x - cx) + (p.y - cy) * (p.y - cy);
            if d < best_d {
                best_d = d;
                best = VertexId(i as u32);
            }
        }
        best
    }

    /// Client `c`'s commute: home → hub → home along shortest paths.
    /// Every commuter funnels through the hub, so the fleet's
    /// trajectories are *correlated* — they share the streets the
    /// storms congest.
    pub fn commuter_tour(
        &self,
        net: &RoadNetwork,
        client: usize,
    ) -> Result<NetTrajectory, RoadNetError> {
        let hub = self.hub(net);
        let mut rng = SplitMix64::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(client as u64),
        );
        let home = loop {
            let v = VertexId(rng.below(net.num_vertices()) as u32);
            if v != hub {
                break v;
            }
        };
        NetTrajectory::through_waypoints(net, &[home, hub, home])
    }

    /// The streets a storm touches: the first [`RushHour::storm_edges`]
    /// edges discovered by a BFS outward from the hub — the downtown
    /// block every commute crosses. Deterministic in the network alone.
    pub fn storm_zone(&self, net: &RoadNetwork) -> Vec<EdgeId> {
        let hub = self.hub(net);
        let want = self.storm_edges.min(net.num_edges());
        let mut seen_v = vec![false; net.num_vertices()];
        let mut seen_e = vec![false; net.num_edges()];
        let mut zone: Vec<EdgeId> = Vec::with_capacity(want);
        let mut frontier = vec![hub];
        seen_v[hub.idx()] = true;
        while zone.len() < want && !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &(w, e) in net.neighbors(v) {
                    if !seen_e[e.idx()] {
                        seen_e[e.idx()] = true;
                        zone.push(e);
                        if zone.len() == want {
                            return zone;
                        }
                    }
                    if !seen_v[w.idx()] {
                        seen_v[w.idx()] = true;
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        zone
    }

    /// Storm epoch `epoch`'s re-weights, expressed against the
    /// **free-flow** network `base` (never the congested one, so storms
    /// do not compound). Even epochs congest — each zone edge scales by
    /// a jittered factor in `[0.8, 1.2] · peak_factor` (clamped ≥ 1) —
    /// and odd epochs clear back to free flow exactly.
    pub fn storm(&self, base: &RoadNetwork, epoch: usize) -> Vec<EdgeWeight> {
        let zone = self.storm_zone(base);
        if epoch % 2 == 1 {
            return zone
                .into_iter()
                .map(|e| EdgeWeight {
                    edge: e,
                    len: base.edge(e).len,
                })
                .collect();
        }
        let mut rng = SplitMix64::new(self.seed ^ (0xC0_FFEE + epoch as u64));
        zone.into_iter()
            .map(|e| {
                let factor = (self.peak_factor * rng.range(0.8, 1.2)).max(1.0);
                EdgeWeight {
                    edge: e,
                    len: base.edge(e).len * factor,
                }
            })
            .collect()
    }

    /// The [`NetDelta`] of storm epoch `epoch` (no site changes).
    pub fn storm_delta(&self, base: &RoadNetwork, epoch: usize) -> NetDelta {
        NetDelta::reweight(self.storm(base, epoch))
    }

    /// The storm epoch scheduled at `tick`, if any: storms fire at
    /// `storm_every, 2·storm_every, …` and alternate congest/clear.
    pub fn storm_epoch_at(&self, tick: usize) -> Option<usize> {
        if self.storm_every == 0 || tick == 0 || !tick.is_multiple_of(self.storm_every) {
            return None;
        }
        Some(tick / self.storm_every - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_roadnet::generators::{grid_network, GridConfig};

    fn net() -> RoadNetwork {
        grid_network(
            &GridConfig {
                cols: 10,
                rows: 10,
                ..GridConfig::default()
            },
            9,
        )
        .unwrap()
    }

    #[test]
    fn hub_is_central_and_deterministic() {
        let net = net();
        let rush = RushHour::default();
        let hub = rush.hub(&net);
        assert_eq!(hub, rush.hub(&net));
        // Central: strictly inside the grid, not a corner.
        assert_ne!(hub, VertexId(0));
        assert_ne!(hub, VertexId(net.num_vertices() as u32 - 1));
    }

    #[test]
    fn commutes_are_correlated_through_the_hub() {
        let net = net();
        let rush = RushHour::default();
        let hub = rush.hub(&net);
        for c in 0..6 {
            let tour = rush.commuter_tour(&net, c).unwrap();
            assert!(tour.vertices().contains(&hub), "commuter {c} misses hub");
            assert_eq!(tour.vertices().first(), tour.vertices().last());
            // Deterministic per client, distinct across clients.
            let again = rush.commuter_tour(&net, c).unwrap();
            assert_eq!(tour.vertices(), again.vertices());
        }
        assert_ne!(
            rush.commuter_tour(&net, 0).unwrap().vertices(),
            rush.commuter_tour(&net, 1).unwrap().vertices()
        );
    }

    #[test]
    fn storm_zone_is_bfs_local_to_the_hub() {
        let net = net();
        let rush = RushHour {
            storm_edges: 12,
            ..RushHour::default()
        };
        let zone = rush.storm_zone(&net);
        assert_eq!(zone.len(), 12);
        // No duplicates.
        let mut ids: Vec<u32> = zone.iter().map(|e| e.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
        // The first zone edges touch the hub itself.
        let hub = rush.hub(&net);
        let rec = net.edge(zone[0]);
        assert!(rec.u == hub || rec.v == hub);
    }

    #[test]
    fn storms_alternate_and_never_compound() {
        let net = net();
        let rush = RushHour::default();
        let congest = rush.storm(&net, 0);
        assert!(!congest.is_empty());
        for w in &congest {
            let base = net.edge(w.edge).len;
            assert!(w.len >= base, "congestion only scales up");
            assert!(w.len <= base * rush.peak_factor * 1.2 + 1e-12);
        }
        // The clear epoch restores free flow bit-for-bit.
        let clear = rush.storm(&net, 1);
        for w in &clear {
            assert_eq!(w.len.to_bits(), net.edge(w.edge).len.to_bits());
        }
        // Applying congest then clear round-trips the network exactly.
        let stormed = net.reweighted(&congest).unwrap();
        let cleared = stormed.reweighted(&clear).unwrap();
        for e in 0..net.num_edges() {
            let e = EdgeId(e as u32);
            assert_eq!(cleared.edge(e).len.to_bits(), net.edge(e).len.to_bits());
        }
        // Different congest epochs jitter differently.
        let congest2 = rush.storm(&net, 2);
        assert_ne!(congest[0].len.to_bits(), congest2[0].len.to_bits());
    }

    #[test]
    fn storm_schedule_alternates() {
        let rush = RushHour {
            storm_every: 10,
            ..RushHour::default()
        };
        assert_eq!(rush.storm_epoch_at(0), None);
        assert_eq!(rush.storm_epoch_at(5), None);
        assert_eq!(rush.storm_epoch_at(10), Some(0));
        assert_eq!(rush.storm_epoch_at(20), Some(1));
        assert_eq!(rush.storm_epoch_at(30), Some(2));
        let quiet = RushHour {
            storm_every: 0,
            ..RushHour::default()
        };
        assert_eq!(quiet.storm_epoch_at(10), None);
    }
}
