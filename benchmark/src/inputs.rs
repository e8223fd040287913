//! Seeded input generation: sites, networks, trajectories, deltas,
//! storms and the join/leave order. Everything here runs before or
//! between measured rounds, never inside one; the program under test
//! only ever receives the generated values.

use std::sync::Arc;

use insq_core::{DeltaIndex, Euclidean, InsConfig, Network, Space};
use insq_geom::{Aabb, Point, Trajectory};
use insq_index::{SiteDelta, VorTree};
use insq_net::WireSpace;
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig, SplitMix64};
use insq_roadnet::ine::all_site_distances;
use insq_roadnet::{NetDelta, NetPosition, NetTrajectory, NetworkWorld, RoadNetwork, SiteSet};
use insq_voronoi::SiteId;
use insq_workload::{Distribution, FleetScenario, RushHour, TrajectoryKind};

/// The delta type of a space's index.
pub type DeltaOf<S> = <<S as Space>::Index as DeltaIndex>::Delta;

/// A space the benchmark can drive: wire conversions (ids as `u32`),
/// delta epochs, and the distances the oracle's tie check needs.
pub trait BenchSpace:
    WireSpace<Index: DeltaIndex<Delta: Clone + Send + Sync, Error: std::fmt::Debug> + 'static>
{
    /// Distances from `pos` to the given sites, in their order.
    fn dists(index: &Self::Index, pos: Self::Pos, ids: &[u32]) -> Vec<f64>;
}

impl BenchSpace for Euclidean {
    fn dists(index: &VorTree, pos: Point, ids: &[u32]) -> Vec<f64> {
        ids.iter()
            .map(|&i| index.point(SiteId(i)).distance(pos))
            .collect()
    }
}

impl BenchSpace for Network {
    fn dists(index: &NetworkWorld, pos: NetPosition, ids: &[u32]) -> Vec<f64> {
        let all = all_site_distances(&index.net, &index.sites, pos);
        ids.iter().map(|&i| all[i as usize]).collect()
    }
}

/// One round's inputs, materialised before the round is timed.
pub struct RoundPlan<S: BenchSpace> {
    /// `positions[tick * clients + slot]`.
    pub positions: Vec<S::Pos>,
    /// `(tick in round, delta)`, ascending; applied before that tick.
    pub deltas: Vec<(usize, DeltaOf<S>)>,
    /// Client slots that leave and rejoin, `joins_per_tick` per tick.
    pub joins: Vec<u32>,
    pub joins_per_tick: usize,
}

impl<S: BenchSpace> Default for RoundPlan<S> {
    fn default() -> Self {
        RoundPlan {
            positions: Vec::new(),
            deltas: Vec::new(),
            joins: Vec::new(),
            joins_per_tick: 0,
        }
    }
}

/// A fleet of moving clients over one world: what the in-process runner
/// and the per-layer probes are generic over.
pub trait Fleet {
    type S: BenchSpace;

    fn clients(&self) -> usize;
    fn k(&self) -> usize;
    fn rho(&self) -> f64;

    /// The query configuration every client registers with.
    fn ins_config(&self) -> InsConfig {
        InsConfig::new(self.k(), self.rho())
    }

    /// Builds the epoch-0 index (timed as the set-up's build phase).
    fn build_index(&self) -> <Self::S as Space>::Index;

    /// Client `client`'s position at `tick`.
    fn position(&self, client: usize, tick: u64) -> <Self::S as Space>::Pos;

    /// Fills `plan` for the `ticks` ticks starting at `first_tick`.
    fn plan_round(&mut self, first_tick: u64, ticks: usize, plan: &mut RoundPlan<Self::S>);
}

pub fn data_space() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// Site churn of `euclid_churn`: every `every`-th tick a delta of
/// `changes` added and `changes` removed sites, and `joins` clients
/// replaced on every tick.
pub struct Churn {
    pub every: u64,
    pub changes: usize,
    pub joins: usize,
    rng: SplitMix64,
    pool_at: usize,
}

/// A Euclidean fleet: seeded sites, one trajectory per client, and
/// optionally churn.
pub struct EuclidFleet {
    pub sc: FleetScenario,
    pub sites: Vec<Point>,
    /// Points no site uses yet: what churn deltas add.
    pool: Vec<Point>,
    pub trajs: Vec<Trajectory>,
    pub churn: Option<Churn>,
}

impl EuclidFleet {
    /// `pool` extra points are drawn in the same call as the sites, so
    /// they are pairwise distinct from them and from each other.
    pub fn new(
        seed: u64,
        sites: usize,
        pool: usize,
        clients: usize,
        speed: f64,
        distribution: Distribution,
        mix: Option<Vec<TrajectoryKind>>,
    ) -> EuclidFleet {
        let mut sc = FleetScenario {
            clients,
            n: sites,
            k: 5,
            rho: 1.6,
            distribution,
            speed,
            seed,
            updates: Vec::new(),
            ..FleetScenario::default()
        };
        if let Some(mix) = mix {
            sc.mix = mix;
        }
        let mut points = distribution.generate(sites + pool, &data_space(), seed);
        let pool = points.split_off(sites);
        let trajs = (0..clients).map(|c| sc.client_trajectory(c)).collect();
        EuclidFleet {
            sc,
            sites: points,
            pool,
            trajs,
            churn: None,
        }
    }

    pub fn with_churn(mut self, every: u64, changes: usize, joins: usize) -> EuclidFleet {
        self.churn = Some(Churn {
            every,
            changes,
            joins,
            rng: SplitMix64::new(self.sc.seed ^ 0xC4_0BAD),
            pool_at: 0,
        });
        self
    }

    /// `count` churn-sized deltas, each valid against the epoch-0 index,
    /// for the per-layer probes. They draw on the pool's tail, which the
    /// run's own deltas never reach.
    pub fn probe_deltas(&self, count: usize, changes: usize) -> Vec<SiteDelta> {
        let mut rng = SplitMix64::new(self.sc.seed ^ 0x9_0BE5);
        (0..count)
            .map(|i| {
                let end = self.pool.len() - i * changes;
                let mut removed: Vec<SiteId> = (0..changes)
                    .map(|_| SiteId(rng.below(self.sites.len()) as u32))
                    .collect();
                removed.sort_unstable();
                removed.dedup();
                SiteDelta {
                    added: self.pool[end - changes..end].to_vec(),
                    removed,
                }
            })
            .collect()
    }

    pub fn fill_positions(&self, first_tick: u64, ticks: usize, out: &mut Vec<Point>) {
        out.clear();
        for t in 0..ticks as u64 {
            out.extend((0..self.trajs.len()).map(|c| self.position(c, first_tick + t)));
        }
    }
}

impl Fleet for EuclidFleet {
    type S = Euclidean;

    fn clients(&self) -> usize {
        self.trajs.len()
    }

    fn k(&self) -> usize {
        self.sc.k
    }

    fn rho(&self) -> f64 {
        self.sc.rho
    }

    fn build_index(&self) -> VorTree {
        VorTree::build(self.sites.clone(), self.sc.clip_window())
            .expect("generated sites are valid")
    }

    fn position(&self, client: usize, tick: u64) -> Point {
        self.sc.position(&self.trajs[client], client, tick as usize)
    }

    fn plan_round(&mut self, first_tick: u64, ticks: usize, plan: &mut RoundPlan<Euclidean>) {
        self.fill_positions(first_tick, ticks, &mut plan.positions);
        plan.deltas.clear();
        plan.joins.clear();
        let (n, clients) = (self.sites.len(), self.trajs.len());
        let Some(churn) = self.churn.as_mut() else {
            return;
        };
        plan.joins_per_tick = churn.joins;
        for t in 0..ticks {
            let tick = first_tick + t as u64;
            if tick > 0 && tick.is_multiple_of(churn.every) {
                // Removal ids refer to the pre-delta index, whose size
                // stays `n` (as many sites are added as removed).
                let mut removed: Vec<SiteId> = Vec::with_capacity(churn.changes);
                while removed.len() < churn.changes {
                    let s = SiteId(churn.rng.below(n) as u32);
                    if !removed.contains(&s) {
                        removed.push(s);
                    }
                }
                removed.sort_unstable();
                let added = self.pool[churn.pool_at..churn.pool_at + churn.changes].to_vec();
                churn.pool_at += churn.changes;
                plan.deltas.push((t, SiteDelta { added, removed }));
            }
            for _ in 0..churn.joins {
                plan.joins.push(churn.rng.below(clients) as u32);
            }
        }
    }
}

/// The `road_rush` fleet: hub-bound commuters on a jittered grid, with
/// congest/clear storms around the hub.
pub struct RushFleet {
    pub rush: RushHour,
    pub net: Arc<RoadNetwork>,
    pub sites: SiteSet,
    pub tours: Vec<NetTrajectory>,
    /// Per-commuter start offset along its tour.
    phases: Vec<f64>,
    pub speed: f64,
}

impl RushFleet {
    pub fn new(
        seed: u64,
        side: u32,
        commuters: usize,
        storm_edges: usize,
        storm_every: usize,
    ) -> RushFleet {
        let rush = RushHour {
            commuters,
            storm_edges,
            peak_factor: 2.5,
            storm_every,
            seed,
        };
        let grid = GridConfig {
            cols: side,
            rows: side,
            ..GridConfig::default()
        };
        let net = Arc::new(grid_network(&grid, seed).expect("valid grid"));
        let n_sites = (net.num_vertices() / 12).max(8);
        let vertices = random_site_vertices(&net, n_sites, seed).expect("enough vertices");
        let sites = SiteSet::new(&net, vertices).expect("distinct sites");
        let tours: Vec<NetTrajectory> = (0..commuters)
            .map(|c| rush.commuter_tour(&net, c).expect("connected network"))
            .collect();
        let mut rng = SplitMix64::new(seed ^ 0x0FF5E7);
        let phases = tours.iter().map(|t| rng.next_f64() * t.length()).collect();
        RushFleet {
            rush,
            net,
            sites,
            tours,
            phases,
            speed: 0.12,
        }
    }
}

impl Fleet for RushFleet {
    type S = Network;

    fn clients(&self) -> usize {
        self.tours.len()
    }

    fn k(&self) -> usize {
        5
    }

    fn rho(&self) -> f64 {
        1.6
    }

    fn build_index(&self) -> NetworkWorld {
        NetworkWorld::build(Arc::clone(&self.net), self.sites.clone())
    }

    // Positions are generated against the free-flow network; storms only
    // lengthen edges, so the offsets stay valid in every epoch.
    fn position(&self, client: usize, tick: u64) -> NetPosition {
        self.tours[client]
            .position_looped(&self.net, self.phases[client] + self.speed * tick as f64)
    }

    fn plan_round(&mut self, first_tick: u64, ticks: usize, plan: &mut RoundPlan<Network>) {
        plan.positions.clear();
        plan.deltas.clear();
        plan.joins.clear();
        for t in 0..ticks {
            let tick = first_tick + t as u64;
            plan.positions
                .extend((0..self.tours.len()).map(|c| self.position(c, tick)));
            if let Some(epoch) = self.rush.storm_epoch_at(tick as usize) {
                let delta: NetDelta = self.rush.storm_delta(&self.net, epoch);
                plan.deltas.push((t, delta));
            }
        }
    }
}
