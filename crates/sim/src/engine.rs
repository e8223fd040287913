//! The discrete-time simulation engine.
//!
//! Drives any [`MovingKnn`] processor along a trajectory at a fixed speed
//! (distance per tick), recording a [`RunRecord`]. This is the headless
//! equivalent of pressing "Demo" in the INSQ UI.

use std::time::Instant;

use insq_core::MovingKnn;
use insq_geom::{Point, Trajectory};
use insq_roadnet::{NetPosition, NetTrajectory, RoadNetwork};

use crate::journal::{RunRecord, TickRecord};

/// Runs a Euclidean processor along `trajectory` for `ticks` timestamps at
/// `speed` distance-units per tick (looping when the end is reached).
pub fn run_euclidean<P, Id>(
    processor: &mut P,
    trajectory: &Trajectory,
    ticks: usize,
    speed: f64,
) -> RunRecord<Id>
where
    P: MovingKnn<Point, Id> + ?Sized,
    Id: Clone + PartialEq,
{
    let mut records = Vec::with_capacity(ticks);
    let start = Instant::now();
    let mut elapsed = std::time::Duration::ZERO;
    for tick in 0..ticks {
        let pos = trajectory.position_looped(speed * tick as f64);
        let t0 = Instant::now();
        let outcome = processor.tick(pos);
        elapsed += t0.elapsed();
        records.push(TickRecord {
            tick,
            position: pos,
            outcome,
            knn: processor.current_knn(),
        });
    }
    let _total = start.elapsed();
    RunRecord {
        method: processor.name().to_string(),
        ticks: records,
        stats: *processor.stats(),
        elapsed,
    }
}

/// Runs a road-network processor along `tour` for `ticks` timestamps at
/// `speed` network-distance per tick (looping).
pub fn run_network<P, Id>(
    processor: &mut P,
    net: &RoadNetwork,
    tour: &NetTrajectory,
    ticks: usize,
    speed: f64,
) -> RunRecord<Id>
where
    P: MovingKnn<NetPosition, Id> + ?Sized,
    Id: Clone + PartialEq,
{
    let mut records = Vec::with_capacity(ticks);
    let mut elapsed = std::time::Duration::ZERO;
    for tick in 0..ticks {
        let pos = tour.position_looped(net, speed * tick as f64);
        let t0 = Instant::now();
        let outcome = processor.tick(pos);
        elapsed += t0.elapsed();
        records.push(TickRecord {
            tick,
            position: pos.to_point(net),
            outcome,
            knn: processor.current_knn(),
        });
    }
    RunRecord {
        method: processor.name().to_string(),
        ticks: records,
        stats: *processor.stats(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_baselines::NaiveProcessor;
    use insq_core::{InsConfig, InsProcessor, TickOutcome};
    use insq_geom::Aabb;
    use insq_index::VorTree;
    use insq_workload::{Distribution, TrajectoryKind};

    fn index(n: usize, seed: u64) -> VorTree {
        let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let pts = Distribution::Uniform.generate(n, &bounds, seed);
        VorTree::build(pts, bounds.inflated(10.0)).unwrap()
    }

    #[test]
    fn engine_records_every_tick() {
        let idx = index(150, 3);
        let traj = TrajectoryKind::RandomWaypoint { waypoints: 6 }.generate(
            &Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            5,
        );
        let mut ins = InsProcessor::new(&idx, InsConfig::new(3, 1.6)).unwrap();
        let run = run_euclidean(&mut ins, &traj, 200, 0.5);
        assert_eq!(run.len(), 200);
        assert_eq!(run.stats.ticks, 200);
        assert_eq!(run.ticks[0].outcome, TickOutcome::Recompute);
        assert!(run.ticks.iter().all(|r| r.knn.len() == 3));
    }

    #[test]
    fn network_engine_runs_and_records() {
        use insq_core::NetInsProcessor;
        use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
        use insq_roadnet::{NetTrajectory, NetworkWorld, SiteSet};

        let net = std::sync::Arc::new(grid_network(&GridConfig::default(), 11).unwrap());
        let sites = SiteSet::new(&net, random_site_vertices(&net, 15, 11).unwrap()).unwrap();
        let world = NetworkWorld::build(std::sync::Arc::clone(&net), sites);
        let tour = NetTrajectory::random_tour(&net, 5, 11).unwrap();
        let mut p = NetInsProcessor::new(&world, InsConfig::new(3, 1.6)).unwrap();
        let run = run_network(&mut p, &net, &tour, 150, 0.1);
        assert_eq!(run.len(), 150);
        assert_eq!(run.stats.ticks, 150);
        assert!(run.ticks.iter().all(|r| r.knn.len() == 3));
        // Positions are rendered network points within the layout bounds.
        let bb = insq_geom::Aabb::of_points(net.coords().iter().copied())
            .unwrap()
            .inflated(1.0);
        assert!(run.ticks.iter().all(|r| bb.contains(r.position)));
    }

    #[test]
    fn ins_and_naive_agree_tick_by_tick() {
        let idx = index(200, 9);
        let traj = TrajectoryKind::Circular { radius_frac: 0.6 }.generate(
            &Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
            1,
        );
        let mut ins = InsProcessor::new(&idx, InsConfig::new(4, 1.6)).unwrap();
        let rtree = idx.rtree();
        let mut naive = NaiveProcessor::new(&rtree, 4).unwrap();
        let run_a = run_euclidean(&mut ins, &traj, 300, 0.4);
        let run_b = run_euclidean(&mut naive, &traj, 300, 0.4);
        for (a, b) in run_a.ticks.iter().zip(&run_b.ticks) {
            let mut x = a.knn.clone();
            let mut y = b.knn.clone();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "divergence at tick {}", a.tick);
        }
    }
}
