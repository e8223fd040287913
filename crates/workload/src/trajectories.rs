//! Query trajectory generators (Euclidean mode).
//!
//! The demo lets the user sketch any trajectory in 2D-plane mode; the
//! benchmarks use the standard moving-object models: random waypoint (the
//! tourist), straight crossing (the highway driver) and circular tours.

use insq_geom::{Aabb, Point, Trajectory};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Kind of query trajectory to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrajectoryKind {
    /// Random waypoint: straight hops between uniformly drawn targets.
    RandomWaypoint {
        /// Number of waypoints (≥ 2).
        waypoints: usize,
    },
    /// A straight line across the data space through its center.
    StraightCrossing,
    /// A circle around the data-space center (polyline approximation).
    Circular {
        /// Radius as a fraction of the half-width (0 < r ≤ 1).
        radius_frac: f64,
    },
    /// A horizontal shuttle: back and forth across the full width of
    /// the data space in a seeded y-lane. The adversarial input for
    /// spatial partitioning — a shuttle crosses every vertical
    /// partition border twice per loop, so a fleet of them exercises
    /// handoff continuously.
    Shuttle,
}

impl TrajectoryKind {
    /// Generates a trajectory inside `bounds`, with a margin so the query
    /// stays away from the clipped Voronoi boundary.
    pub fn generate(&self, bounds: &Aabb, seed: u64) -> Trajectory {
        let margin = 0.05 * bounds.width().min(bounds.height());
        let inner = Aabb::new(
            Point::new(bounds.min.x + margin, bounds.min.y + margin),
            Point::new(bounds.max.x - margin, bounds.max.y - margin),
        );
        match *self {
            TrajectoryKind::RandomWaypoint { waypoints } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = waypoints.max(2);
                let mut pts = Vec::with_capacity(n);
                let mut last = Point::new(f64::NAN, f64::NAN);
                while pts.len() < n {
                    let p = Point::new(
                        rng.random_range(inner.min.x..inner.max.x),
                        rng.random_range(inner.min.y..inner.max.y),
                    );
                    if p != last {
                        pts.push(p);
                        last = p;
                    }
                }
                Trajectory::new(pts).expect("distinct waypoints form a valid trajectory")
            }
            TrajectoryKind::StraightCrossing => {
                let c = inner.center();
                Trajectory::new(vec![
                    Point::new(inner.min.x, c.y),
                    Point::new(inner.max.x, c.y),
                ])
                .expect("non-degenerate bounds")
            }
            TrajectoryKind::Shuttle => {
                let mut rng = StdRng::seed_from_u64(seed);
                let y = rng.random_range(inner.min.y..inner.max.y);
                Trajectory::new(vec![
                    Point::new(inner.min.x, y),
                    Point::new(inner.max.x, y),
                    Point::new(inner.min.x, y),
                ])
                .expect("non-degenerate bounds")
            }
            TrajectoryKind::Circular { radius_frac } => {
                let c = inner.center();
                let r = 0.5 * inner.width().min(inner.height()) * radius_frac.clamp(0.05, 1.0);
                let steps = 72;
                let pts: Vec<Point> = (0..=steps)
                    .map(|i| {
                        let a = std::f64::consts::TAU * i as f64 / steps as f64;
                        Point::new(c.x + r * a.cos(), c.y + r * a.sin())
                    })
                    .collect();
                Trajectory::new(pts).expect("circle polyline is valid")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Aabb {
        Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    #[test]
    fn random_waypoint_properties() {
        let t = TrajectoryKind::RandomWaypoint { waypoints: 10 }.generate(&space(), 3);
        assert_eq!(t.waypoints().len(), 10);
        assert!(t.length() > 0.0);
        // Stays inside the margin box.
        for p in t.waypoints() {
            assert!(p.x >= 5.0 && p.x <= 95.0 && p.y >= 5.0 && p.y <= 95.0);
        }
        // Deterministic.
        let t2 = TrajectoryKind::RandomWaypoint { waypoints: 10 }.generate(&space(), 3);
        assert_eq!(t.waypoints(), t2.waypoints());
    }

    #[test]
    fn straight_crossing_spans_width() {
        let t = TrajectoryKind::StraightCrossing.generate(&space(), 0);
        assert_eq!(t.waypoints().len(), 2);
        assert!((t.length() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn shuttle_crosses_every_vertical_border_each_loop() {
        let t = TrajectoryKind::Shuttle.generate(&space(), 7);
        let pts = t.waypoints();
        assert_eq!(pts.len(), 3);
        // Full inner width, closed loop, constant lane.
        assert_eq!(pts[0].x, 5.0);
        assert_eq!(pts[1].x, 95.0);
        assert_eq!(pts[0], pts[2]);
        assert_eq!(pts[0].y, pts[1].y);
        // Distinct seeds shuttle in distinct lanes.
        let t2 = TrajectoryKind::Shuttle.generate(&space(), 8);
        assert_ne!(pts[0].y, t2.waypoints()[0].y);
    }

    #[test]
    fn circular_loops_back() {
        let t = TrajectoryKind::Circular { radius_frac: 0.8 }.generate(&space(), 0);
        let first = t.waypoints().first().unwrap();
        let last = t.waypoints().last().unwrap();
        assert!(first.distance(*last) < 1e-9, "closed loop");
        // Circumference close to 2πr with r = 0.8 * 45.
        let r = 0.8 * 45.0;
        assert!((t.length() - std::f64::consts::TAU * r).abs() < 1.0);
    }
}
