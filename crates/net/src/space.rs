//! Bridging [`insq_core::Space`]s onto the wire.
//!
//! The codec is space-agnostic: positions travel as [`WirePos`], site
//! ids as raw `u32`. [`WireSpace`] supplies the per-space conversions —
//! a [`SpaceKind`] discriminant checked at registration, a *validated*
//! wire→native position decode (untrusted positions are range-checked
//! against the served index, never trusted), and id mappings. Both
//! in-tree spaces implement it, so [`crate::NetServer`] and
//! [`crate::NetClient`] are generic over the space exactly like the rest
//! of the stack.

use insq_core::{Euclidean, Network, Space};
use insq_geom::Point;
use insq_roadnet::{EdgeId, NetPosition, SiteIdx, VertexId};
use insq_voronoi::SiteId;

use crate::wire::{SpaceKind, WirePos};

/// Why a [`WirePos`] was rejected for a space.
#[derive(Debug, Clone, PartialEq)]
pub enum PosError {
    /// The position variant does not exist in this space (e.g. a
    /// road-network vertex sent to a Euclidean server).
    WrongKind,
    /// A coordinate or offset was NaN/infinite.
    NotFinite,
    /// A vertex or edge id exceeded the served road network.
    OutOfRange,
}

impl std::fmt::Display for PosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PosError::WrongKind => write!(f, "position variant not valid in this space"),
            PosError::NotFinite => write!(f, "position coordinate is not finite"),
            PosError::OutOfRange => write!(f, "vertex/edge id out of range"),
        }
    }
}

impl std::error::Error for PosError {}

/// A [`Space`] that can serve TCP sessions: wire-level conversions for
/// its position and site-id types.
pub trait WireSpace: Space {
    /// The discriminant clients put in `Register.space`.
    const KIND: SpaceKind;

    /// Decodes and **validates** an untrusted wire position against the
    /// served index snapshot.
    fn pos_from_wire(index: &Self::Index, pos: WirePos) -> Result<Self::Pos, PosError>;

    /// Encodes a native position (the client-side direction).
    fn pos_to_wire(pos: Self::Pos) -> WirePos;

    /// A site id as its raw wire ordinal.
    fn id_to_wire(id: Self::SiteId) -> u32;

    /// A raw wire ordinal as a site id (results only flow server →
    /// client, so this direction needs no index validation).
    fn id_from_wire(raw: u32) -> Self::SiteId;
}

impl WireSpace for Euclidean {
    const KIND: SpaceKind = SpaceKind::Euclidean;

    fn pos_from_wire(_index: &Self::Index, pos: WirePos) -> Result<Point, PosError> {
        match pos {
            WirePos::Point { x, y } => {
                if x.is_finite() && y.is_finite() {
                    Ok(Point::new(x, y))
                } else {
                    Err(PosError::NotFinite)
                }
            }
            _ => Err(PosError::WrongKind),
        }
    }

    fn pos_to_wire(pos: Point) -> WirePos {
        WirePos::Point { x: pos.x, y: pos.y }
    }

    fn id_to_wire(id: SiteId) -> u32 {
        id.0
    }

    fn id_from_wire(raw: u32) -> SiteId {
        SiteId(raw)
    }
}

impl WireSpace for Network {
    const KIND: SpaceKind = SpaceKind::Network;

    fn pos_from_wire(index: &Self::Index, pos: WirePos) -> Result<NetPosition, PosError> {
        match pos {
            WirePos::Vertex(v) => {
                if (v as usize) < index.net.num_vertices() {
                    Ok(NetPosition::Vertex(VertexId(v)))
                } else {
                    Err(PosError::OutOfRange)
                }
            }
            WirePos::OnEdge { edge, offset } => {
                // `on_edge` canonicalises (clamps the offset, collapses
                // endpoints to vertices) and rejects bad edges/offsets.
                NetPosition::on_edge(&index.net, EdgeId(edge), offset).map_err(|_| {
                    if offset.is_finite() {
                        PosError::OutOfRange
                    } else {
                        PosError::NotFinite
                    }
                })
            }
            WirePos::Point { .. } => Err(PosError::WrongKind),
        }
    }

    fn pos_to_wire(pos: NetPosition) -> WirePos {
        match pos {
            NetPosition::Vertex(v) => WirePos::Vertex(v.0),
            NetPosition::OnEdge { edge, offset } => WirePos::OnEdge {
                edge: edge.0,
                offset,
            },
        }
    }

    fn id_to_wire(id: SiteIdx) -> u32 {
        id.0
    }

    fn id_from_wire(raw: u32) -> SiteIdx {
        SiteIdx(raw)
    }
}
