//! Data-object (site) generators.
//!
//! The INSQ demo's 2D-plane mode generates `n` data objects in the data
//! space; the companion evaluation varies `n` and the spatial distribution.
//! All generators are seeded and guarantee *pairwise distinct* points
//! (duplicate sites have no Voronoi cell and are rejected by
//! `insq-voronoi`).

use insq_geom::{Aabb, Point};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Spatial distribution of generated data objects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform over the data space.
    Uniform,
    /// A mixture of `clusters` isotropic Gaussians with standard deviation
    /// `spread` (as a fraction of the data-space width), clipped to the
    /// space — models POI hot spots (the "city" workload).
    Clustered {
        /// Number of Gaussian clusters.
        clusters: usize,
        /// Standard deviation as a fraction of the space width.
        spread: f64,
    },
    /// A jittered grid — models regularly spaced infrastructure (gas
    /// stations along a street plan).
    GridJitter {
        /// Jitter as a fraction of the grid spacing.
        jitter: f64,
    },
}

impl Distribution {
    /// Generates `n` pairwise-distinct points in `bounds`.
    pub fn generate(&self, n: usize, bounds: &Aabb, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points: Vec<Point> = Vec::with_capacity(n);
        let mut seen: HashSet<(u64, u64)> = HashSet::with_capacity(n * 2);
        let mut push_unique = |p: Point, points: &mut Vec<Point>| -> bool {
            if !bounds.contains(p) {
                return false;
            }
            let key = ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits());
            if seen.insert(key) {
                points.push(p);
                true
            } else {
                false
            }
        };

        match *self {
            Distribution::Uniform => {
                while points.len() < n {
                    let p = Point::new(
                        rng.random_range(bounds.min.x..bounds.max.x),
                        rng.random_range(bounds.min.y..bounds.max.y),
                    );
                    push_unique(p, &mut points);
                }
            }
            Distribution::Clustered { clusters, spread } => {
                let clusters = clusters.max(1);
                let centers: Vec<Point> = (0..clusters)
                    .map(|_| {
                        Point::new(
                            rng.random_range(bounds.min.x..bounds.max.x),
                            rng.random_range(bounds.min.y..bounds.max.y),
                        )
                    })
                    .collect();
                let sigma = spread.max(1e-6) * bounds.width();
                while points.len() < n {
                    let c = centers[rng.random_range(0..clusters)];
                    // Box-Muller.
                    let u1: f64 = rng.random::<f64>().max(1e-12);
                    let u2: f64 = rng.random();
                    let r = (-2.0 * u1.ln()).sqrt();
                    let p = Point::new(
                        c.x + sigma * r * (std::f64::consts::TAU * u2).cos(),
                        c.y + sigma * r * (std::f64::consts::TAU * u2).sin(),
                    );
                    push_unique(p, &mut points);
                }
            }
            Distribution::GridJitter { jitter } => {
                let side = (n as f64).sqrt().ceil() as usize;
                let dx = bounds.width() / side as f64;
                let dy = bounds.height() / side as f64;
                'outer: for i in 0..side {
                    for j in 0..side {
                        if points.len() >= n {
                            break 'outer;
                        }
                        let p = Point::new(
                            bounds.min.x
                                + (i as f64 + 0.5 + rng.random_range(-jitter..=jitter)) * dx,
                            bounds.min.y
                                + (j as f64 + 0.5 + rng.random_range(-jitter..=jitter)) * dy,
                        );
                        if !push_unique(p, &mut points) {
                            // Extremely unlikely; fill with a uniform draw.
                            while !push_unique(
                                Point::new(
                                    rng.random_range(bounds.min.x..bounds.max.x),
                                    rng.random_range(bounds.min.y..bounds.max.y),
                                ),
                                &mut points,
                            ) {}
                        }
                    }
                }
                // Top up if clipping dropped some.
                while points.len() < n {
                    let p = Point::new(
                        rng.random_range(bounds.min.x..bounds.max.x),
                        rng.random_range(bounds.min.y..bounds.max.y),
                    );
                    push_unique(p, &mut points);
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Aabb {
        Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    #[test]
    fn uniform_count_bounds_distinct() {
        let pts = Distribution::Uniform.generate(500, &space(), 1);
        assert_eq!(pts.len(), 500);
        assert!(pts.iter().all(|p| space().contains(*p)));
        let mut keys: Vec<(u64, u64)> =
            pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Distribution::Uniform.generate(50, &space(), 7);
        let b = Distribution::Uniform.generate(50, &space(), 7);
        assert_eq!(a, b);
        let c = Distribution::Uniform.generate(50, &space(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn clustered_concentrates_mass() {
        let pts = Distribution::Clustered {
            clusters: 3,
            spread: 0.02,
        }
        .generate(600, &space(), 11);
        assert_eq!(pts.len(), 600);
        // Average nearest-neighbor distance must be far below uniform's.
        let nn_dist = |set: &[Point]| -> f64 {
            let mut total = 0.0;
            for (i, p) in set.iter().enumerate().take(100) {
                let mut best = f64::INFINITY;
                for (j, q) in set.iter().enumerate() {
                    if i != j {
                        best = best.min(p.distance_sq(*q));
                    }
                }
                total += best.sqrt();
            }
            total / 100.0
        };
        let uniform = Distribution::Uniform.generate(600, &space(), 11);
        assert!(nn_dist(&pts) < nn_dist(&uniform) * 0.8);
    }

    #[test]
    fn grid_jitter_covers_space() {
        let pts = Distribution::GridJitter { jitter: 0.2 }.generate(400, &space(), 5);
        assert_eq!(pts.len(), 400);
        // Every quadrant is populated.
        for (qx, qy) in [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)] {
            let quadrant = Aabb::new(Point::new(qx, qy), Point::new(qx + 50.0, qy + 50.0));
            assert!(
                pts.iter().any(|p| quadrant.contains(*p)),
                "empty quadrant at ({qx},{qy})"
            );
        }
    }
}
