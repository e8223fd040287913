//! Goal-directed shortest paths: A* with the straight-line heuristic.
//!
//! Edge lengths in generated networks equal the Euclidean distance between
//! the (jittered) endpoint coordinates, so the straight-line distance to
//! the goal is an admissible and consistent heuristic and A* returns exact
//! shortest paths while settling far fewer vertices than Dijkstra. Used by
//! interactive pieces (trajectory sketching between waypoints) where only
//! one target matters; the query algorithms proper use the Dijkstra
//! variants in [`crate::dijkstra`].
//!
//! For hand-built networks whose weights are *not* lower-bounded by the
//! coordinate distance the heuristic may be inadmissible;
//! [`astar_distance_checked`] verifies the property edge-by-edge first and
//! falls back to the zero heuristic (plain Dijkstra behaviour) when it
//! does not hold.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{RoadNetwork, VertexId};

/// Result of an A* run.
#[derive(Debug, Clone, PartialEq)]
pub struct AStarResult {
    /// Shortest-path distance.
    pub distance: f64,
    /// The vertex sequence from source to target.
    pub path: Vec<VertexId>,
    /// Vertices settled (popped with final distance) — the effort measure.
    pub settled: usize,
}

/// A* from `from` to `to` using the straight-line heuristic.
///
/// Exact when every edge length is at least the Euclidean distance between
/// its endpoints (true for all generators in this crate). See
/// [`astar_distance_checked`] for arbitrary networks.
pub fn astar(net: &RoadNetwork, from: VertexId, to: VertexId) -> AStarResult {
    astar_with_heuristic(net, from, to, |v| net.coord(v).distance(net.coord(to)))
}

/// A* that first checks heuristic admissibility (every edge at least as
/// long as its endpoints' straight-line distance) and falls back to the
/// zero heuristic otherwise. The check is O(|E|).
pub fn astar_distance_checked(net: &RoadNetwork, from: VertexId, to: VertexId) -> AStarResult {
    let admissible = net
        .edges()
        .iter()
        .all(|e| e.len + 1e-9 >= net.coord(e.u).distance(net.coord(e.v)));
    if admissible {
        astar(net, from, to)
    } else {
        astar_with_heuristic(net, from, to, |_| 0.0)
    }
}

fn astar_with_heuristic<H: Fn(VertexId) -> f64>(
    net: &RoadNetwork,
    from: VertexId,
    to: VertexId,
    h: H,
) -> AStarResult {
    let n = net.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<VertexId> = vec![VertexId(u32::MAX); n];
    let mut settled_flags = vec![false; n];
    let mut settled = 0usize;
    let mut heap: BinaryHeap<Reverse<(FloatOrd, VertexId)>> = BinaryHeap::new();
    dist[from.idx()] = 0.0;
    heap.push(Reverse((FloatOrd(h(from)), from)));

    while let Some(Reverse((_, u))) = heap.pop() {
        if settled_flags[u.idx()] {
            continue;
        }
        settled_flags[u.idx()] = true;
        settled += 1;
        if u == to {
            break;
        }
        let du = dist[u.idx()];
        for &(w, e) in net.neighbors(u) {
            let nd = du + net.edge(e).len;
            if nd < dist[w.idx()] {
                dist[w.idx()] = nd;
                parent[w.idx()] = u;
                heap.push(Reverse((FloatOrd(nd + h(w)), w)));
            }
        }
    }

    let distance = dist[to.idx()];
    let mut path = Vec::new();
    if distance.is_finite() {
        let mut cur = to;
        path.push(cur);
        while cur != from {
            cur = parent[cur.idx()];
            if cur.0 == u32::MAX {
                path.clear();
                break;
            }
            path.push(cur);
        }
        path.reverse();
    }
    AStarResult {
        distance,
        path,
        settled,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct FloatOrd(f64);
impl Eq for FloatOrd {}
impl PartialOrd for FloatOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::distances_from_vertex;
    use crate::generators::{grid_network, GridConfig};
    use crate::graph::EdgeRec;
    use insq_geom::Point;

    #[test]
    fn astar_matches_dijkstra_on_generated_grids() {
        for seed in [1u64, 7, 42] {
            let net = grid_network(
                &GridConfig {
                    cols: 12,
                    rows: 12,
                    jitter: 0.2,
                    diagonal_prob: 0.1,
                    deletion_prob: 0.1,
                    ..GridConfig::default()
                },
                seed,
            )
            .unwrap();
            let n = net.num_vertices() as u32;
            for (a, b) in [(0u32, n - 1), (5, n / 2), (n / 3, 2)] {
                let want = distances_from_vertex(&net, VertexId(a))[b as usize];
                let got = astar(&net, VertexId(a), VertexId(b));
                assert!(
                    (got.distance - want).abs() < 1e-9,
                    "seed {seed} {a}->{b}: {} vs {want}",
                    got.distance
                );
                // Path endpoints and adjacency.
                assert_eq!(*got.path.first().unwrap(), VertexId(a));
                assert_eq!(*got.path.last().unwrap(), VertexId(b));
                for w in got.path.windows(2) {
                    assert!(net.find_edge(w[0], w[1]).is_some());
                }
            }
        }
    }

    #[test]
    fn astar_settles_fewer_vertices_than_dijkstra() {
        let net = grid_network(
            &GridConfig {
                cols: 25,
                rows: 25,
                jitter: 0.1,
                diagonal_prob: 0.0,
                deletion_prob: 0.0,
                ..GridConfig::default()
            },
            3,
        )
        .unwrap();
        // Corner to adjacent-corner: the goal-directed search should touch
        // a corridor, not the whole grid.
        let from = VertexId(0);
        let to = VertexId(24);
        let res = astar(&net, from, to);
        assert!(
            res.settled < net.num_vertices() / 2,
            "settled {} of {}",
            res.settled,
            net.num_vertices()
        );
    }

    #[test]
    fn checked_variant_handles_inadmissible_weights() {
        // A network whose "long way" has a short weight: coordinates lie,
        // straight-line heuristic would be inadmissible.
        let net = RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(5.0, 8.0),
            ],
            vec![
                EdgeRec {
                    u: VertexId(0),
                    v: VertexId(1),
                    len: 10.0,
                },
                // Weight far below the Euclidean endpoint distance (9.43).
                EdgeRec {
                    u: VertexId(0),
                    v: VertexId(2),
                    len: 1.0,
                },
                EdgeRec {
                    u: VertexId(2),
                    v: VertexId(1),
                    len: 1.0,
                },
            ],
        )
        .unwrap();
        let res = astar_distance_checked(&net, VertexId(0), VertexId(1));
        assert!((res.distance - 2.0).abs() < 1e-12, "exact via the fallback");
        assert_eq!(res.path, vec![VertexId(0), VertexId(2), VertexId(1)]);
    }

    #[test]
    fn source_equals_target() {
        let net = grid_network(&GridConfig::default(), 1).unwrap();
        let res = astar(&net, VertexId(3), VertexId(3));
        assert_eq!(res.distance, 0.0);
        assert_eq!(res.path, vec![VertexId(3)]);
    }
}
