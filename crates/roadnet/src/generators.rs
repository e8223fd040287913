//! Synthetic road-network generators.
//!
//! The INSQ demo loads real city maps; this reproduction substitutes
//! deterministic synthetic networks with the same structural regimes:
//! grid street plans with jittered geometry and optional diagonal
//! shortcuts, and a ring-radial "old town" layout. All generators take an
//! explicit seed and produce connected networks.

use insq_geom::Point;

use crate::graph::{EdgeRec, RoadNetwork, VertexId};
use crate::RoadNetError;

/// Small deterministic PRNG (splitmix64) so generators do not depend on the
/// `rand` crate here; workload-level generation composes this with `rand`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Parameters for [`grid_network`].
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Number of vertex columns (≥ 2).
    pub cols: u32,
    /// Number of vertex rows (≥ 2).
    pub rows: u32,
    /// Spacing between neighboring vertices.
    pub spacing: f64,
    /// Max positional jitter as a fraction of spacing (0 = perfect grid).
    pub jitter: f64,
    /// Probability of adding a diagonal shortcut in a grid cell.
    pub diagonal_prob: f64,
    /// Probability of deleting a non-bridge grid edge (adds irregularity).
    pub deletion_prob: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            cols: 10,
            rows: 10,
            spacing: 1.0,
            jitter: 0.2,
            diagonal_prob: 0.1,
            deletion_prob: 0.1,
        }
    }
}

/// Generates a jittered grid street network.
///
/// Edge lengths are the Euclidean distances between the jittered endpoints;
/// random deletions are only applied where connectivity is preserved (a
/// conservative spanning-tree check keeps the graph connected).
pub fn grid_network(config: &GridConfig, seed: u64) -> Result<RoadNetwork, RoadNetError> {
    if config.cols < 2 || config.rows < 2 {
        return Err(RoadNetError::BadGeneratorConfig {
            reason: "grid needs at least 2x2 vertices",
        });
    }
    let mut rng = SplitMix64::new(seed);
    let (cols, rows) = (config.cols, config.rows);
    let id = |r: u32, c: u32| VertexId(r * cols + c);

    let mut coords = Vec::with_capacity((cols * rows) as usize);
    for r in 0..rows {
        for c in 0..cols {
            let jx = rng.range(-config.jitter, config.jitter) * config.spacing;
            let jy = rng.range(-config.jitter, config.jitter) * config.spacing;
            coords.push(Point::new(
                c as f64 * config.spacing + jx,
                r as f64 * config.spacing + jy,
            ));
        }
    }

    let length = |coords: &[Point], a: VertexId, b: VertexId| -> f64 {
        coords[a.idx()].distance(coords[b.idx()]).max(1e-9)
    };

    let mut edges: Vec<EdgeRec> = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let (u, v) = (id(r, c), id(r, c + 1));
                edges.push(EdgeRec {
                    u,
                    v,
                    len: length(&coords, u, v),
                });
            }
            if r + 1 < rows {
                let (u, v) = (id(r, c), id(r + 1, c));
                edges.push(EdgeRec {
                    u,
                    v,
                    len: length(&coords, u, v),
                });
            }
        }
    }

    // Random deletions, keeping connectivity: process in random order and
    // drop an edge only if the graph stays connected without it.
    if config.deletion_prob > 0.0 {
        let mut keep = vec![true; edges.len()];
        let n = coords.len();
        for i in 0..edges.len() {
            if rng.next_f64() >= config.deletion_prob {
                continue;
            }
            keep[i] = false;
            if !connected_with(&edges, &keep, n) {
                keep[i] = true;
            }
        }
        let mut kept = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            if keep[i] {
                kept.push(*e);
            }
        }
        edges = kept;
    }

    // Diagonal shortcuts.
    for r in 0..rows - 1 {
        for c in 0..cols - 1 {
            if rng.next_f64() < config.diagonal_prob {
                let (u, v) = if rng.next_f64() < 0.5 {
                    (id(r, c), id(r + 1, c + 1))
                } else {
                    (id(r, c + 1), id(r + 1, c))
                };
                edges.push(EdgeRec {
                    u,
                    v,
                    len: length(&coords, u, v),
                });
            }
        }
    }

    RoadNetwork::new(coords, edges)
}

/// Generates a ring-radial ("spider web") network: `rings` concentric
/// rings of `spokes` vertices plus a center, connected along rings and
/// radially.
pub fn ring_radial_network(
    rings: u32,
    spokes: u32,
    ring_spacing: f64,
    seed: u64,
) -> Result<RoadNetwork, RoadNetError> {
    if rings < 1 || spokes < 3 {
        return Err(RoadNetError::BadGeneratorConfig {
            reason: "ring-radial needs >= 1 ring and >= 3 spokes",
        });
    }
    let mut rng = SplitMix64::new(seed);
    let mut coords = vec![Point::new(0.0, 0.0)]; // center = vertex 0
    for ring in 1..=rings {
        let radius = ring as f64 * ring_spacing;
        for s in 0..spokes {
            let jitter = rng.range(-0.05, 0.05);
            let ang = std::f64::consts::TAU * (s as f64 / spokes as f64 + jitter);
            coords.push(Point::new(radius * ang.cos(), radius * ang.sin()));
        }
    }
    let vid = |ring: u32, s: u32| VertexId(1 + (ring - 1) * spokes + (s % spokes));
    let mut edges = Vec::new();
    let length = |coords: &[Point], a: VertexId, b: VertexId| -> f64 {
        coords[a.idx()].distance(coords[b.idx()]).max(1e-9)
    };
    // Ring edges.
    for ring in 1..=rings {
        for s in 0..spokes {
            let (u, v) = (vid(ring, s), vid(ring, s + 1));
            edges.push(EdgeRec {
                u,
                v,
                len: length(&coords, u, v),
            });
        }
    }
    // Radial edges (center to first ring, then ring to ring).
    for s in 0..spokes {
        edges.push(EdgeRec {
            u: VertexId(0),
            v: vid(1, s),
            len: length(&coords, VertexId(0), vid(1, s)),
        });
        for ring in 1..rings {
            let (u, v) = (vid(ring, s), vid(ring + 1, s));
            edges.push(EdgeRec {
                u,
                v,
                len: length(&coords, u, v),
            });
        }
    }
    RoadNetwork::new(coords, edges)
}

/// Chooses `count` distinct vertices as data-object (site) locations.
pub fn random_site_vertices(
    net: &RoadNetwork,
    count: usize,
    seed: u64,
) -> Result<Vec<VertexId>, RoadNetError> {
    let n = net.num_vertices();
    if count == 0 || count > n {
        return Err(RoadNetError::BadGeneratorConfig {
            reason: "site count must be in 1..=num_vertices",
        });
    }
    // Partial Fisher-Yates.
    let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in 0..count {
        let j = i + rng.below(n - i);
        ids.swap(i, j);
    }
    Ok(ids[..count].iter().map(|&i| VertexId(i)).collect())
}

fn connected_with(edges: &[EdgeRec], keep: &[bool], n: usize) -> bool {
    // Union-find connectivity check.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    let mut components = n as u32;
    for (i, e) in edges.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let (ru, rv) = (find(&mut parent, e.u.0), find(&mut parent, e.v.0));
        if ru != rv {
            parent[ru as usize] = rv;
            components -= 1;
        }
    }
    components == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_default_is_connected() {
        let net = grid_network(&GridConfig::default(), 42).unwrap();
        assert_eq!(net.num_vertices(), 100);
        assert!(net.is_connected());
        assert!(net.num_edges() > 100, "enough edges: {}", net.num_edges());
    }

    #[test]
    fn grid_no_jitter_no_extras() {
        let cfg = GridConfig {
            cols: 3,
            rows: 3,
            spacing: 2.0,
            jitter: 0.0,
            diagonal_prob: 0.0,
            deletion_prob: 0.0,
        };
        let net = grid_network(&cfg, 1).unwrap();
        assert_eq!(net.num_vertices(), 9);
        assert_eq!(net.num_edges(), 12);
        // Unit spacing scaled by 2.
        for e in net.edges() {
            assert!((e.len - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_deterministic_per_seed() {
        let a = grid_network(&GridConfig::default(), 7).unwrap();
        let b = grid_network(&GridConfig::default(), 7).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        for (x, y) in a.coords().iter().zip(b.coords()) {
            assert_eq!(x, y);
        }
        let c = grid_network(&GridConfig::default(), 8).unwrap();
        // Overwhelmingly likely to differ.
        let same = a.coords().iter().zip(c.coords()).all(|(x, y)| x == y);
        assert!(!same, "different seeds should give different jitter");
    }

    #[test]
    fn grid_rejects_tiny() {
        let cfg = GridConfig {
            cols: 1,
            rows: 5,
            ..GridConfig::default()
        };
        assert!(matches!(
            grid_network(&cfg, 0),
            Err(RoadNetError::BadGeneratorConfig { .. })
        ));
    }

    #[test]
    fn ring_radial_structure() {
        let net = ring_radial_network(3, 8, 1.0, 5).unwrap();
        assert_eq!(net.num_vertices(), 1 + 3 * 8);
        assert!(net.is_connected());
        // Center has `spokes` incident edges.
        assert_eq!(net.degree(VertexId(0)), 8);
    }

    #[test]
    fn random_sites_distinct_and_in_range() {
        let net = grid_network(&GridConfig::default(), 3).unwrap();
        let sites = random_site_vertices(&net, 20, 9).unwrap();
        assert_eq!(sites.len(), 20);
        let mut sorted = sites.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "sites must be distinct");
        assert!(sites.iter().all(|v| v.idx() < net.num_vertices()));
        // Deterministic.
        let again = random_site_vertices(&net, 20, 9).unwrap();
        assert_eq!(sites, again);
        // Errors.
        assert!(random_site_vertices(&net, 0, 1).is_err());
        assert!(random_site_vertices(&net, 1000, 1).is_err());
    }
}
