//! Road network graphs.
//!
//! A road network is a connected, undirected, planar-style graph with
//! positive edge lengths (paper §IV: `G = ⟨V, E⟩`). Vertices carry 2-D
//! coordinates — used by generators, by the demo renderer and for Euclidean
//! lower bounds — but all query semantics are defined by the *network*
//! distance. Data objects (sites) are assumed to sit on vertices, as in the
//! paper ("otherwise we can add them to the set of vertices").
//!
//! Storage is a compact CSR adjacency: two flat arrays shared by every
//! traversal, no per-vertex allocation.

use insq_geom::Point;

use crate::RoadNetError;

/// Identifier of a network vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an undirected network edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An undirected edge record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRec {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Positive length (network distance contribution).
    pub len: f64,
}

impl EdgeRec {
    /// The endpoint opposite to `w` (`w` must be an endpoint).
    #[inline]
    pub fn other(&self, w: VertexId) -> VertexId {
        if w == self.u {
            self.v
        } else {
            debug_assert_eq!(w, self.v, "vertex not on edge");
            self.u
        }
    }
}

/// One edge re-weight: `edge` takes the new absolute length `len`.
///
/// This is how traffic enters the model: congestion multiplies a
/// free-flow length up, clearing restores it, and a closure is a very
/// large (but finite) weight so the network stays connected. Lengths
/// must satisfy the same invariant as construction: finite and `> 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeWeight {
    /// The edge whose length changes.
    pub edge: EdgeId,
    /// The new length (`len > 0.0 && len.is_finite()`).
    pub len: f64,
}

impl EdgeWeight {
    /// A re-weight scaling the edge's current length in `net` by `factor`.
    pub fn scaled(net: &RoadNetwork, edge: EdgeId, factor: f64) -> EdgeWeight {
        EdgeWeight {
            edge,
            len: net.edge(edge).len * factor,
        }
    }
}

/// A connected undirected road network with positive edge lengths.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    coords: Vec<Point>,
    edges: Vec<EdgeRec>,
    /// CSR offsets into `adj`, one entry per vertex plus a terminator.
    offsets: Vec<u32>,
    /// Flat adjacency: (neighbor, via-edge).
    adj: Vec<(VertexId, EdgeId)>,
}

impl RoadNetwork {
    /// Builds a network from vertex coordinates and undirected edges.
    ///
    /// Validates: at least one vertex, finite coordinates, edge endpoints in
    /// range, positive finite lengths, no self loops, and connectivity.
    /// Parallel edges are permitted (two roads between the same junctions).
    pub fn new(coords: Vec<Point>, edges: Vec<EdgeRec>) -> Result<RoadNetwork, RoadNetError> {
        let n = coords.len();
        if n == 0 {
            return Err(RoadNetError::Empty);
        }
        if let Some(i) = coords.iter().position(|p| !p.is_finite()) {
            return Err(RoadNetError::NonFiniteCoordinate { vertex: i });
        }
        for (i, e) in edges.iter().enumerate() {
            if e.u.idx() >= n || e.v.idx() >= n {
                return Err(RoadNetError::EdgeOutOfRange { edge: i });
            }
            if e.u == e.v {
                return Err(RoadNetError::SelfLoop { edge: i });
            }
            if !(e.len > 0.0 && e.len.is_finite()) {
                return Err(RoadNetError::BadEdgeLength {
                    edge: i,
                    len: e.len,
                });
            }
        }

        // CSR adjacency.
        let mut degree = vec![0u32; n];
        for e in &edges {
            degree[e.u.idx()] += 1;
            degree[e.v.idx()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for d in &degree {
            offsets.push(offsets.last().expect("non-empty") + d);
        }
        let mut adj = vec![(VertexId(0), EdgeId(0)); *offsets.last().expect("non-empty") as usize];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (i, e) in edges.iter().enumerate() {
            adj[cursor[e.u.idx()] as usize] = (e.v, EdgeId(i as u32));
            cursor[e.u.idx()] += 1;
            adj[cursor[e.v.idx()] as usize] = (e.u, EdgeId(i as u32));
            cursor[e.v.idx()] += 1;
        }

        let net = RoadNetwork {
            coords,
            edges,
            offsets,
            adj,
        };
        if !net.is_connected() {
            return Err(RoadNetError::Disconnected);
        }
        Ok(net)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The coordinates of a vertex.
    #[inline]
    pub fn coord(&self, v: VertexId) -> Point {
        self.coords[v.idx()]
    }

    /// All vertex coordinates, indexable by [`VertexId`].
    #[inline]
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// An edge record.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeRec {
        &self.edges[e.idx()]
    }

    /// All edges, indexable by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[EdgeRec] {
        &self.edges
    }

    /// The (neighbor, via-edge) pairs incident to `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Vertex degree.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Total length of all edges.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.len).sum()
    }

    /// Whether the graph is connected (BFS from vertex 0).
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        let mut stack = vec![VertexId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in self.neighbors(v) {
                if !seen[w.idx()] {
                    seen[w.idx()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// A copy of the network with the given edge lengths replaced.
    ///
    /// The whole batch is validated *before* anything is copied (see
    /// [`RoadNetwork::validate_reweight`]), so an invalid batch changes
    /// nothing. Topology — vertex set, edge endpoints, CSR adjacency —
    /// is untouched: edge ids, vertex ids and on-edge positions with
    /// offsets within the *old* length remain valid on the re-weighted
    /// network.
    pub fn reweighted(&self, changes: &[EdgeWeight]) -> Result<RoadNetwork, RoadNetError> {
        self.validate_reweight(changes)?;
        let mut net = self.clone();
        for w in changes {
            net.edges[w.edge.idx()].len = w.len;
        }
        Ok(net)
    }

    /// Checks a re-weight batch without applying it: every edge id in
    /// range and named at most once, every new length finite and positive
    /// (the [`RoadNetwork::new`] invariant must hold after every
    /// re-weight).
    pub fn validate_reweight(&self, changes: &[EdgeWeight]) -> Result<(), RoadNetError> {
        for w in changes {
            if w.edge.idx() >= self.edges.len() {
                return Err(RoadNetError::EdgeOutOfRange { edge: w.edge.idx() });
            }
            if !(w.len > 0.0 && w.len.is_finite()) {
                return Err(RoadNetError::BadEdgeLength {
                    edge: w.edge.idx(),
                    len: w.len,
                });
            }
        }
        let mut ids: Vec<u32> = changes.iter().map(|w| w.edge.0).collect();
        ids.sort_unstable();
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(RoadNetError::DuplicateEdgeChange {
                    edge: pair[0] as usize,
                });
            }
        }
        Ok(())
    }

    /// Finds the edge between `u` and `v`, if one exists (the first of any
    /// parallel edges).
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.neighbors(u)
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn edge(u: u32, v: u32, len: f64) -> EdgeRec {
        EdgeRec {
            u: VertexId(u),
            v: VertexId(v),
            len,
        }
    }

    fn triangle() -> RoadNetwork {
        RoadNetwork::new(
            vec![pt(0.0, 0.0), pt(1.0, 0.0), pt(0.0, 1.0)],
            vec![edge(0, 1, 1.0), edge(1, 2, 1.5), edge(2, 0, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let net = triangle();
        assert_eq!(net.num_vertices(), 3);
        assert_eq!(net.num_edges(), 3);
        assert_eq!(net.degree(VertexId(0)), 2);
        assert_eq!(net.edge(EdgeId(1)).len, 1.5);
        assert_eq!(net.edge(EdgeId(1)).other(VertexId(1)), VertexId(2));
        assert!((net.total_length() - 3.5).abs() < 1e-12);
        assert_eq!(net.find_edge(VertexId(0), VertexId(2)), Some(EdgeId(2)));
        assert_eq!(net.find_edge(VertexId(0), VertexId(0)), None);
    }

    #[test]
    fn adjacency_symmetry() {
        let net = triangle();
        for v in 0..3u32 {
            for &(w, e) in net.neighbors(VertexId(v)) {
                assert!(net
                    .neighbors(w)
                    .iter()
                    .any(|&(x, e2)| x == VertexId(v) && e2 == e));
            }
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(matches!(
            RoadNetwork::new(vec![], vec![]),
            Err(RoadNetError::Empty)
        ));
        assert!(matches!(
            RoadNetwork::new(vec![pt(0.0, 0.0), pt(1.0, 0.0)], vec![edge(0, 2, 1.0)]),
            Err(RoadNetError::EdgeOutOfRange { edge: 0 })
        ));
        assert!(matches!(
            RoadNetwork::new(vec![pt(0.0, 0.0), pt(1.0, 0.0)], vec![edge(0, 0, 1.0)]),
            Err(RoadNetError::SelfLoop { edge: 0 })
        ));
        assert!(matches!(
            RoadNetwork::new(vec![pt(0.0, 0.0), pt(1.0, 0.0)], vec![edge(0, 1, 0.0)]),
            Err(RoadNetError::BadEdgeLength { edge: 0, .. })
        ));
        assert!(matches!(
            RoadNetwork::new(vec![pt(0.0, 0.0), pt(1.0, 0.0)], vec![edge(0, 1, -2.0)]),
            Err(RoadNetError::BadEdgeLength { edge: 0, .. })
        ));
        // Disconnected: two components.
        assert!(matches!(
            RoadNetwork::new(
                vec![pt(0.0, 0.0), pt(1.0, 0.0), pt(5.0, 5.0), pt(6.0, 5.0)],
                vec![edge(0, 1, 1.0), edge(2, 3, 1.0)],
            ),
            Err(RoadNetError::Disconnected)
        ));
        assert!(matches!(
            RoadNetwork::new(vec![pt(f64::NAN, 0.0)], vec![]),
            Err(RoadNetError::NonFiniteCoordinate { vertex: 0 })
        ));
    }

    #[test]
    fn single_vertex_is_connected() {
        let net = RoadNetwork::new(vec![pt(0.0, 0.0)], vec![]).unwrap();
        assert!(net.is_connected());
        assert_eq!(net.degree(VertexId(0)), 0);
    }

    #[test]
    fn reweighted_patches_lengths_only() {
        let net = triangle();
        let new = net
            .reweighted(&[
                EdgeWeight {
                    edge: EdgeId(1),
                    len: 4.5,
                },
                EdgeWeight::scaled(&net, EdgeId(0), 2.0),
            ])
            .unwrap();
        assert_eq!(new.edge(EdgeId(0)).len, 2.0);
        assert_eq!(new.edge(EdgeId(1)).len, 4.5);
        assert_eq!(new.edge(EdgeId(2)).len, 1.0);
        // Topology untouched; the original keeps its lengths.
        assert_eq!(new.num_edges(), net.num_edges());
        assert_eq!(new.neighbors(VertexId(0)), net.neighbors(VertexId(0)));
        assert_eq!(net.edge(EdgeId(0)).len, 1.0);
    }

    #[test]
    fn reweighted_rejects_bad_batches() {
        let net = triangle();
        let w = |e: u32, len: f64| EdgeWeight {
            edge: EdgeId(e),
            len,
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    net.reweighted(&[w(0, bad)]),
                    Err(RoadNetError::BadEdgeLength { edge: 0, .. })
                ),
                "length {bad} must be rejected"
            );
        }
        assert!(matches!(
            net.reweighted(&[w(3, 1.0)]),
            Err(RoadNetError::EdgeOutOfRange { edge: 3 })
        ));
        assert!(matches!(
            net.reweighted(&[w(1, 2.0), w(1, 3.0)]),
            Err(RoadNetError::DuplicateEdgeChange { edge: 1 })
        ));
        // A failed batch with one valid and one invalid entry changes
        // nothing (validation happens before any copy).
        assert!(net.reweighted(&[w(0, 9.0), w(9, 1.0)]).is_err());
        assert_eq!(net.edge(EdgeId(0)).len, 1.0);
    }

    #[test]
    fn parallel_edges_allowed() {
        let net = RoadNetwork::new(
            vec![pt(0.0, 0.0), pt(1.0, 0.0)],
            vec![edge(0, 1, 1.0), edge(0, 1, 3.0)],
        )
        .unwrap();
        assert_eq!(net.degree(VertexId(0)), 2);
    }
}
