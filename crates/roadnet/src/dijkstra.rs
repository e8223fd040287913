//! The distance oracle: plain allocating Dijkstra over a [`RoadNetwork`].
//!
//! Everything the tests and the benchmark's post-run check hold the
//! query-time searches to comes from here — all-vertex distances from a
//! vertex, a position or arbitrary seeds. It deliberately shares no code
//! with what it checks (the kNN expansion in [`crate::scratch`], the NVD's
//! label-setting kernel in [`crate::nvd`], A* in [`crate::astar`]).
//!
//! Binary heap with lazily discarded stale entries — simpler and in
//! practice faster than a decrease-key heap for the sparse graphs road
//! networks are.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use insq_geom::DistEntry;

use crate::graph::{RoadNetwork, VertexId};
use crate::position::NetPosition;

/// Distances from a single source vertex to every vertex.
pub fn distances_from_vertex(net: &RoadNetwork, source: VertexId) -> Vec<f64> {
    distances_from_seeds(net, &[(source, 0.0)])
}

/// Distances from a network position to every vertex.
pub fn distances_from_position(net: &RoadNetwork, pos: NetPosition) -> Vec<f64> {
    let (seeds, n) = pos.seed_array(net);
    distances_from_seeds(net, &seeds[..n])
}

/// Dijkstra from a set of `(vertex, initial distance)` seeds.
pub fn distances_from_seeds(net: &RoadNetwork, seeds: &[(VertexId, f64)]) -> Vec<f64> {
    let n = net.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap: BinaryHeap<Reverse<DistEntry<VertexId>>> = BinaryHeap::new();
    for &(v, d) in seeds {
        if d < dist[v.idx()] {
            dist[v.idx()] = d;
            heap.push(Reverse(DistEntry { dist: d, id: v }));
        }
    }
    while let Some(Reverse(DistEntry { dist: d, id: u })) = heap.pop() {
        if d > dist[u.idx()] {
            continue; // stale
        }
        for &(w, e) in net.neighbors(u) {
            let nd = d + net.edge(e).len;
            if nd < dist[w.idx()] {
                dist[w.idx()] = nd;
                heap.push(Reverse(DistEntry { dist: nd, id: w }));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeRec;
    use insq_geom::Point;

    fn edge(u: u32, v: u32, len: f64) -> EdgeRec {
        EdgeRec {
            u: VertexId(u),
            v: VertexId(v),
            len,
        }
    }

    /// A 3x3 grid with unit edge lengths; vertex id = row*3 + col.
    fn grid() -> RoadNetwork {
        let mut coords = Vec::new();
        let mut edges = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                coords.push(Point::new(c as f64, r as f64));
            }
        }
        for r in 0..3u32 {
            for c in 0..3u32 {
                let id = r * 3 + c;
                if c + 1 < 3 {
                    edges.push(edge(id, id + 1, 1.0));
                }
                if r + 1 < 3 {
                    edges.push(edge(id, id + 3, 1.0));
                }
            }
        }
        RoadNetwork::new(coords, edges).unwrap()
    }

    #[test]
    fn single_source_grid() {
        let net = grid();
        let d = distances_from_vertex(&net, VertexId(0));
        // Manhattan distances on the unit grid.
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[r * 3 + c], (r + c) as f64, "vertex ({r},{c})");
            }
        }
    }

    #[test]
    fn distance_from_edge_position() {
        let net = grid();
        // Position 0.3 along edge 0-1 (edge 0 connects v0 and v1).
        let e = net.find_edge(VertexId(0), VertexId(1)).unwrap();
        let pos = NetPosition::on_edge(&net, e, 0.3).unwrap();
        let d = distances_from_position(&net, pos);
        assert!((d[0] - 0.3).abs() < 1e-12);
        assert!((d[1] - 0.7).abs() < 1e-12);
        assert!((d[2] - 1.7).abs() < 1e-12);
        assert!((d[3] - 1.3).abs() < 1e-12);
    }

    #[test]
    fn weighted_path_vs_grid() {
        // A shortcut edge changes the shortest path.
        let net = RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ],
            vec![edge(0, 1, 5.0), edge(1, 2, 5.0), edge(0, 2, 3.0)],
        )
        .unwrap();
        let d = distances_from_vertex(&net, VertexId(0));
        assert_eq!(d[2], 3.0);
        assert_eq!(d[1], 5.0); // not 8.0 via the shortcut
    }
}
