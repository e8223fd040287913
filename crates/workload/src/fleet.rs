//! Fleet workload generation: N concurrent clients over one shared,
//! epoch-versioned data set.
//!
//! A [`FleetScenario`] describes everything an `insq-server` fleet run
//! needs: the data set per epoch version (the server republishes at the
//! scheduled update ticks), a per-client trajectory drawn from a mix of
//! [`TrajectoryKind`]s, and the query parameters. Everything derives
//! deterministically from the master seed, so fleet runs are exactly
//! reproducible — which is what the thread-count equivalence tests rely
//! on.

use insq_geom::{Aabb, Point, Trajectory};

use crate::datasets::Distribution;
use crate::trajectories::TrajectoryKind;

/// A multi-client fleet scenario (Euclidean mode).
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Number of concurrent moving queries.
    pub clients: usize,
    /// Number of data objects per epoch version.
    pub n: usize,
    /// Query parameter k.
    pub k: usize,
    /// Prefetch ratio ρ.
    pub rho: f64,
    /// Data distribution (all epoch versions draw from it with distinct
    /// seeds — an update reshuffles the object set).
    pub distribution: Distribution,
    /// The trajectory mix: client `i` uses `mix[i % mix.len()]`, seeded
    /// per client.
    pub mix: Vec<TrajectoryKind>,
    /// Distance travelled per tick.
    pub speed: f64,
    /// Number of timestamps to simulate.
    pub ticks: usize,
    /// Update schedule: ticks at which the server publishes a rebuilt
    /// index (epoch bumps), ascending.
    pub updates: Vec<usize>,
    /// Master seed.
    pub seed: u64,
}

impl Default for FleetScenario {
    fn default() -> Self {
        FleetScenario {
            clients: 1_000,
            n: 10_000,
            k: 5,
            rho: 1.6,
            distribution: Distribution::Uniform,
            mix: vec![
                TrajectoryKind::RandomWaypoint { waypoints: 20 },
                TrajectoryKind::RandomWaypoint { waypoints: 6 },
                TrajectoryKind::Circular { radius_frac: 0.6 },
            ],
            speed: 0.05,
            ticks: 200,
            updates: vec![100],
            seed: 2016,
        }
    }
}

impl FleetScenario {
    /// The canonical data space.
    pub fn data_space(&self) -> Aabb {
        Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// The Voronoi clipping window.
    pub fn clip_window(&self) -> Aabb {
        self.data_space().inflated(10.0)
    }

    /// Materialises the data points of epoch `version` (0 = the initial
    /// world; each scheduled update publishes the next version).
    pub fn points(&self, version: usize) -> Vec<Point> {
        let seed = self
            .seed
            .wrapping_add((version as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.distribution.generate(self.n, &self.data_space(), seed)
    }

    /// Materialises client `i`'s trajectory from the mix (an empty mix
    /// falls back to the default random-waypoint model).
    pub fn client_trajectory(&self, client: usize) -> Trajectory {
        let kind = if self.mix.is_empty() {
            TrajectoryKind::RandomWaypoint { waypoints: 20 }
        } else {
            self.mix[client % self.mix.len()]
        };
        let seed = self
            .seed
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(client as u64);
        kind.generate(&self.data_space(), seed)
    }

    /// Client `i`'s phase offset along its trajectory, so clients of the
    /// same (seed-insensitive) kind do not move in lock-step.
    pub fn client_phase(&self, client: usize) -> f64 {
        // A cheap splitmix-style hash into [0, 1).
        let mut x = (client as u64).wrapping_add(self.seed) ^ 0x2545_F491_4F6C_DD1D;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Client `i`'s position at `tick` on its `traj` (from
    /// [`FleetScenario::client_trajectory`]).
    pub fn position(&self, traj: &Trajectory, client: usize, tick: usize) -> Point {
        let phase = self.client_phase(client) * traj.length();
        traj.position_looped(phase + self.speed * tick as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct_per_client() {
        let sc = FleetScenario {
            clients: 10,
            n: 100,
            ..Default::default()
        };
        let t0 = sc.client_trajectory(0);
        let t0_again = sc.client_trajectory(0);
        assert_eq!(t0.waypoints(), t0_again.waypoints());
        // Clients of the same mix slot still differ (seeded per client)…
        let t3 = sc.client_trajectory(3);
        assert_ne!(t0.waypoints(), t3.waypoints());
        // …and circular clients (seed-insensitive) differ by phase.
        assert_ne!(sc.client_phase(2), sc.client_phase(5));
    }

    #[test]
    fn empty_mix_falls_back_to_random_waypoint() {
        let sc = FleetScenario {
            mix: vec![],
            ..Default::default()
        };
        let t = sc.client_trajectory(0);
        assert!(t.length() > 0.0);
        assert_eq!(t.waypoints().len(), 20);
    }

    #[test]
    fn versions_follow_the_update_schedule() {
        let sc = FleetScenario {
            updates: vec![50, 120],
            ..Default::default()
        };
        // Different versions draw different point sets of the same size.
        let p0 = sc.points(0);
        let p1 = sc.points(1);
        assert_eq!(p0.len(), p1.len());
        assert_ne!(p0, p1);
    }

    #[test]
    fn positions_stay_inside_the_space() {
        let sc = FleetScenario::default();
        for client in [0usize, 1, 2, 7] {
            let traj = sc.client_trajectory(client);
            for tick in [0usize, 13, 199, 5_000] {
                assert!(sc.data_space().contains(sc.position(&traj, client, tick)));
            }
        }
    }
}
