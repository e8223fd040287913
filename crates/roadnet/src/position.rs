//! Positions on a road network.
//!
//! A moving query object is either exactly at a vertex or part-way along an
//! edge. [`NetPosition`] captures both; every query algorithm takes one.

use insq_geom::Point;

use crate::graph::{EdgeId, RoadNetwork, VertexId};
use crate::RoadNetError;

/// A position on the road network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetPosition {
    /// Exactly at a vertex.
    Vertex(VertexId),
    /// On the interior of an edge, `offset` network-units from the edge's
    /// `u` endpoint (`0 < offset < len`).
    OnEdge {
        /// The edge.
        edge: EdgeId,
        /// Distance from `edge.u` along the edge.
        offset: f64,
    },
}

impl NetPosition {
    /// Canonicalises an edge offset: clamps to `[0, len]` and collapses the
    /// endpoints to [`NetPosition::Vertex`]. Returns an error for non-finite
    /// offsets or out-of-range edges.
    pub fn on_edge(
        net: &RoadNetwork,
        edge: EdgeId,
        offset: f64,
    ) -> Result<NetPosition, RoadNetError> {
        if edge.idx() >= net.num_edges() {
            return Err(RoadNetError::EdgeOutOfRange { edge: edge.idx() });
        }
        if !offset.is_finite() {
            return Err(RoadNetError::BadOffset { offset });
        }
        let rec = net.edge(edge);
        let t = offset.clamp(0.0, rec.len);
        if t == 0.0 {
            Ok(NetPosition::Vertex(rec.u))
        } else if t == rec.len {
            Ok(NetPosition::Vertex(rec.v))
        } else {
            Ok(NetPosition::OnEdge { edge, offset: t })
        }
    }

    /// The Euclidean display point of the position (linear interpolation on
    /// the edge's straight-line rendering).
    pub fn to_point(&self, net: &RoadNetwork) -> Point {
        match *self {
            NetPosition::Vertex(v) => net.coord(v),
            NetPosition::OnEdge { edge, offset } => {
                let rec = net.edge(edge);
                let t = (offset / rec.len).clamp(0.0, 1.0);
                net.coord(rec.u).lerp(net.coord(rec.v), t)
            }
        }
    }

    /// Seeds for a Dijkstra search from this position: `(vertex, initial
    /// distance)` pairs in a fixed-size array plus how many are valid. A
    /// vertex position seeds itself at 0; an edge position seeds both
    /// endpoints with the partial edge lengths. No allocation, so seeding
    /// an expansion on the hot tick path touches no allocator.
    pub fn seed_array(&self, net: &RoadNetwork) -> ([(VertexId, f64); 2], usize) {
        match *self {
            NetPosition::Vertex(v) => ([(v, 0.0), (v, 0.0)], 1),
            NetPosition::OnEdge { edge, offset } => {
                let rec = net.edge(edge);
                ([(rec.u, offset), (rec.v, rec.len - offset)], 2)
            }
        }
    }

    /// The edge this position lies on, if any.
    pub fn edge(&self) -> Option<EdgeId> {
        match *self {
            NetPosition::Vertex(_) => None,
            NetPosition::OnEdge { edge, .. } => Some(edge),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeRec;

    fn path_net() -> RoadNetwork {
        // 0 --2.0-- 1 --3.0-- 2
        RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(5.0, 0.0),
            ],
            vec![
                EdgeRec {
                    u: VertexId(0),
                    v: VertexId(1),
                    len: 2.0,
                },
                EdgeRec {
                    u: VertexId(1),
                    v: VertexId(2),
                    len: 3.0,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn canonicalisation() {
        let net = path_net();
        assert_eq!(
            NetPosition::on_edge(&net, EdgeId(0), 0.0).unwrap(),
            NetPosition::Vertex(VertexId(0))
        );
        assert_eq!(
            NetPosition::on_edge(&net, EdgeId(0), 2.0).unwrap(),
            NetPosition::Vertex(VertexId(1))
        );
        assert_eq!(
            NetPosition::on_edge(&net, EdgeId(0), 0.5).unwrap(),
            NetPosition::OnEdge {
                edge: EdgeId(0),
                offset: 0.5
            }
        );
        // Clamping.
        assert_eq!(
            NetPosition::on_edge(&net, EdgeId(0), 99.0).unwrap(),
            NetPosition::Vertex(VertexId(1))
        );
        assert!(NetPosition::on_edge(&net, EdgeId(5), 0.1).is_err());
        assert!(NetPosition::on_edge(&net, EdgeId(0), f64::NAN).is_err());
    }

    #[test]
    fn to_point_interpolates() {
        let net = path_net();
        let pos = NetPosition::on_edge(&net, EdgeId(1), 1.5).unwrap();
        assert_eq!(pos.to_point(&net), Point::new(3.5, 0.0));
        assert_eq!(
            NetPosition::Vertex(VertexId(2)).to_point(&net),
            Point::new(5.0, 0.0)
        );
    }

    #[test]
    fn seeds_cover_both_endpoints() {
        let net = path_net();
        let pos = NetPosition::on_edge(&net, EdgeId(1), 1.0).unwrap();
        let (seeds, n) = pos.seed_array(&net);
        assert_eq!(seeds[..n], [(VertexId(1), 1.0), (VertexId(2), 2.0)]);
        let (seeds, n) = NetPosition::Vertex(VertexId(0)).seed_array(&net);
        assert_eq!(seeds[..n], [(VertexId(0), 0.0)]);
    }
}
