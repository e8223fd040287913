//! Order-k Voronoi structure in both of the paper's spaces — the
//! theoretical safe regions, materialised for figures, oracles and the
//! OkV baseline (the INS algorithm itself never builds them).
//!
//! **Plane (Definition 2, Fig. 1).** The order-k Voronoi cell `V^k(O')`
//! of a k-set `O'` is the region where `O'` is exactly the kNN set; it is
//! the *largest possible safe region* for the kNN result `O'` and
//! therefore the yardstick every safe-region method is measured against.
//! `V^k(O')` is the intersection of the bisector half-planes
//! `closer(p, s)` for every `p ∈ O'` and every `s ∉ O'`. Only sites in the
//! minimal influential set (MIS) contribute actual cell edges, so clipping
//! against any candidate set `C ⊇ MIS(O')` — in particular the INS —
//! produces the exact cell. [`order_k_cell_tagged`] additionally remembers
//! which bisector generated each edge, which is how the MIS itself is
//! recovered (each edge of `V^k(O')` borders the neighboring cell obtained
//! by swapping `inside → outside`; the union of the `outside` sites is the
//! MIS — Definition 2 made computational).
//!
//! **Road networks (§IV, Fig. 2).** [`order_k_segments`] partitions an
//! edge into maximal segments sharing one kNN *set* (the labelled edge
//! segments of an order-k network Voronoi diagram), [`network_mis`] is
//! Definition 2 on those segments, and [`knn_sets_equal`] compares result
//! sets ignoring internal order. The computation is deliberately
//! exact-but-exhaustive (one Dijkstra per site): it exists for
//! verification and small demo networks, not for the query path — that is
//! `insq_roadnet::ine`'s and `insq_roadnet::subnetwork`'s job.

use insq_geom::{Aabb, Point};
use insq_roadnet::dijkstra::distances_from_vertex;
use insq_roadnet::{EdgeId, NetPosition, RoadNetwork, SiteIdx, SiteSet};
use insq_voronoi::SiteId;

use crate::halfplane::HalfPlane;
use crate::polygon::{nearly_same, ConvexPolygon};

// ------------------------------------------------------------------ plane

/// What generated an edge of a tagged cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSource {
    /// One of the four sides of the clipping window (0 = bottom, 1 = right,
    /// 2 = top, 3 = left).
    Window(u8),
    /// The perpendicular bisector between a kNN member and an outside site.
    Bisector {
        /// The kNN-set member (kept side of the bisector).
        inside: SiteId,
        /// The outside site; crossing this edge swaps `inside` for
        /// `outside` in the kNN set.
        outside: SiteId,
    },
}

/// A convex cell whose edges remember the constraint that created them.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedCell {
    vertices: Vec<Point>,
    /// `sources[i]` tags the edge from `vertices[i]` to
    /// `vertices[(i + 1) % n]`.
    sources: Vec<EdgeSource>,
}

impl TaggedCell {
    /// Cell vertices in counter-clockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Edge tags, aligned with [`TaggedCell::vertices`].
    #[inline]
    pub fn sources(&self) -> &[EdgeSource] {
        &self.sources
    }

    /// Whether the cell is empty (the constraints are infeasible — `O'` is
    /// not the kNN set of any point in the window).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.len() < 3
    }

    /// The cell as a plain polygon.
    pub fn polygon(&self) -> ConvexPolygon {
        if self.is_empty() {
            ConvexPolygon::empty()
        } else {
            ConvexPolygon::new_unchecked(self.vertices.clone())
        }
    }

    /// Whether `p` lies in the cell (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        self.polygon().contains(p)
    }

    /// The distinct `(inside, outside)` swap pairs on the cell boundary:
    /// crossing the corresponding edge turns the kNN set `O'` into
    /// `O' \ {inside} ∪ {outside}` (paper §III-B, update case (i)).
    pub fn boundary_swaps(&self) -> Vec<(SiteId, SiteId)> {
        let mut pairs: Vec<(SiteId, SiteId)> = self
            .sources
            .iter()
            .filter_map(|src| match src {
                EdgeSource::Bisector { inside, outside } => Some((*inside, *outside)),
                EdgeSource::Window(_) => None,
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The distinct outside sites adjacent to this cell. When the cell was
    /// computed from the full site set (or any candidate superset of the
    /// MIS), this *is* the minimal influential set `MIS(O')` of
    /// Definition 2.
    pub fn adjacent_outsiders(&self) -> Vec<SiteId> {
        let mut out: Vec<SiteId> = self
            .boundary_swaps()
            .into_iter()
            .map(|(_, outside)| outside)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Computes `V^k(O') ∩ window` as a plain polygon.
///
/// `knn` is the k-set `O'`; `candidates` are the sites clipped against
/// (members of `knn` occurring in `candidates` are skipped). The result is
/// the true order-k cell whenever `candidates ⊇ MIS(O')`.
pub fn order_k_cell(
    points: &[Point],
    knn: &[SiteId],
    candidates: &[SiteId],
    window: &Aabb,
) -> ConvexPolygon {
    let mut cell = ConvexPolygon::from_aabb(window);
    let mut scratch = Vec::with_capacity(16);
    for &p in knn {
        let pp = points[p.idx()];
        for &s in candidates {
            if knn.contains(&s) {
                continue;
            }
            let h = HalfPlane::closer_to(pp, points[s.idx()]);
            cell.clip_halfplane_in_place(&h, &mut scratch);
            if cell.is_empty() {
                return cell;
            }
        }
    }
    cell
}

/// Computes `V^k(O') ∩ window` remembering the generating bisector of every
/// edge. See [`order_k_cell`] for the arguments.
pub fn order_k_cell_tagged(
    points: &[Point],
    knn: &[SiteId],
    candidates: &[SiteId],
    window: &Aabb,
) -> TaggedCell {
    let corners = window.corners();
    let mut vertices: Vec<Point> = corners.to_vec();
    let mut sources: Vec<EdgeSource> = (0..4).map(EdgeSource::Window).collect();
    let mut next_v: Vec<Point> = Vec::with_capacity(8);
    let mut next_s: Vec<EdgeSource> = Vec::with_capacity(8);

    for &p in knn {
        let pp = points[p.idx()];
        for &s in candidates {
            if knn.contains(&s) {
                continue;
            }
            let h = HalfPlane::closer_to(pp, points[s.idx()]);
            let src = EdgeSource::Bisector {
                inside: p,
                outside: s,
            };
            clip_tagged(&vertices, &sources, &h, src, &mut next_v, &mut next_s);
            std::mem::swap(&mut vertices, &mut next_v);
            std::mem::swap(&mut sources, &mut next_s);
            if vertices.len() < 3 {
                vertices.clear();
                sources.clear();
                break;
            }
        }
        if vertices.is_empty() {
            break;
        }
    }
    TaggedCell { vertices, sources }
}

/// Sutherland–Hodgman clip of a tagged convex CCW polygon with one
/// half-plane.
fn clip_tagged(
    verts: &[Point],
    tags: &[EdgeSource],
    h: &HalfPlane,
    src: EdgeSource,
    out_v: &mut Vec<Point>,
    out_t: &mut Vec<EdgeSource>,
) {
    out_v.clear();
    out_t.clear();
    let n = verts.len();
    // Merging a duplicate vertex keeps the *newer* outgoing-edge tag: the
    // zero-length edge between the twins carries no geometry.
    let push =
        |out_v: &mut Vec<Point>, out_t: &mut Vec<EdgeSource>, p: Point, t: EdgeSource| match out_v
            .last()
        {
            Some(&last) if nearly_same(last, p) => {
                *out_t.last_mut().expect("tags track vertices") = t;
            }
            _ => {
                out_v.push(p);
                out_t.push(t);
            }
        };
    for i in 0..n {
        let cur = verts[i];
        let nxt = verts[(i + 1) % n];
        let cur_in = h.contains(cur);
        let nxt_in = h.contains(nxt);
        if cur_in {
            push(out_v, out_t, cur, tags[i]);
            if !nxt_in {
                if let Some(t) = h.line_crossing(cur, nxt) {
                    // Exiting: the chord from here to the re-entry point
                    // runs along the new constraint's boundary.
                    push(out_v, out_t, cur.lerp(nxt, t.clamp(0.0, 1.0)), src);
                }
            }
        } else if nxt_in {
            if let Some(t) = h.line_crossing(cur, nxt) {
                // Entering: the remainder of the original edge keeps its tag.
                push(out_v, out_t, cur.lerp(nxt, t.clamp(0.0, 1.0)), tags[i]);
            }
        }
    }
    // Wrap-around near-duplicate: drop the last vertex, transferring its
    // outgoing tag to the first position's incoming edge (i.e. the popped
    // vertex's tag replaces nothing — the first vertex keeps its own tag,
    // which describes the same surviving edge).
    while out_v.len() > 1 && nearly_same(out_v[0], *out_v.last().expect("len > 1")) {
        out_v.pop();
        out_t.pop();
    }
    if out_v.len() < 3 {
        out_v.clear();
        out_t.clear();
    }
}

// ---------------------------------------------------------- road networks

/// Distance matrix: `matrix[s][v]` = network distance from site `s` to
/// vertex `v`. O(m · Dijkstra). The oracle substrate for every network
/// function below.
pub fn site_distance_matrix(net: &RoadNetwork, sites: &SiteSet) -> Vec<Vec<f64>> {
    sites
        .vertices()
        .iter()
        .map(|&v| distances_from_vertex(net, v))
        .collect()
}

/// Distance from a network position to site `s`, given the matrix.
///
/// For a position interior to edge `(u, v)` the shortest path leaves
/// through `u` or `v` (sites sit on vertices), so the distance is the
/// smaller of the two detours.
pub fn position_site_distance(
    net: &RoadNetwork,
    matrix: &[Vec<f64>],
    pos: NetPosition,
    s: SiteIdx,
) -> f64 {
    match pos {
        NetPosition::Vertex(v) => matrix[s.idx()][v.idx()],
        NetPosition::OnEdge { edge, offset } => {
            let rec = net.edge(edge);
            let via_u = matrix[s.idx()][rec.u.idx()] + offset;
            let via_v = matrix[s.idx()][rec.v.idx()] + (rec.len - offset);
            via_u.min(via_v)
        }
    }
}

/// The exact kNN set of a position, ascending by distance (ties by site
/// index).
pub fn knn_at(
    net: &RoadNetwork,
    matrix: &[Vec<f64>],
    pos: NetPosition,
    k: usize,
) -> Vec<(SiteIdx, f64)> {
    let m = matrix.len();
    let mut v: Vec<(SiteIdx, f64)> = (0..m as u32)
        .map(|i| {
            (
                SiteIdx(i),
                position_site_distance(net, matrix, pos, SiteIdx(i)),
            )
        })
        .collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

/// A maximal portion of an edge over which the kNN *set* is constant: the
/// intersection of an order-k Voronoi cell with the edge.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKSegment {
    /// The edge.
    pub edge: EdgeId,
    /// Segment start (offset from the edge's `u`).
    pub from: f64,
    /// Segment end.
    pub to: f64,
    /// The kNN set on the segment, sorted by site index (the paper's
    /// `(6, 7)`-style labels of Fig. 2).
    pub knn_set: Vec<SiteIdx>,
}

/// Partitions edge `e` into maximal order-k segments.
///
/// Along an edge, each site's distance function is the lower envelope of
/// two linear functions (one per endpoint), so the kNN set changes only at
/// crossings of such envelopes. All pairwise crossings are candidate
/// breakpoints; the kNN set is evaluated at segment midpoints.
pub fn order_k_segments(
    net: &RoadNetwork,
    matrix: &[Vec<f64>],
    e: EdgeId,
    k: usize,
) -> Vec<OrderKSegment> {
    let rec = net.edge(e);
    let len = rec.len;
    let m = matrix.len();

    // Each site's distance at offset t is min(du + t, dv + len - t): a
    // piecewise-linear "tent valley" with at most one internal breakpoint.
    // Candidate kNN-set change points: internal breakpoints plus crossings
    // between any two sites' envelopes.
    let envelope = |s: usize, t: f64| -> f64 {
        let du = matrix[s][rec.u.idx()] + t;
        let dv = matrix[s][rec.v.idx()] + (len - t);
        du.min(dv)
    };

    let mut cuts: Vec<f64> = vec![0.0, len];
    #[allow(clippy::needless_range_loop)]
    for s in 0..m {
        // Internal apex of the envelope of site s.
        let du = matrix[s][rec.u.idx()];
        let dv = matrix[s][rec.v.idx()];
        let apex = 0.5 * (len + dv - du);
        if apex > 0.0 && apex < len {
            cuts.push(apex);
        }
    }
    // Crossings between each pair of linear pieces of two different sites:
    // pieces are (du_a + t), (dv_a + len − t) vs (du_b + t), (dv_b + len − t).
    for a in 0..m {
        for b in (a + 1)..m {
            let (dua, dva) = (matrix[a][rec.u.idx()], matrix[a][rec.v.idx()]);
            let (dub, dvb) = (matrix[b][rec.u.idx()], matrix[b][rec.v.idx()]);
            // (du_a + t) == (dv_b + len − t)  =>  t = (dv_b + len − du_a)/2
            let c1 = 0.5 * (dvb + len - dua);
            // (dv_a + len − t) == (du_b + t)  =>  t = (dv_a + len − du_b)/2
            let c2 = 0.5 * (dva + len - dub);
            for c in [c1, c2] {
                if c > 0.0 && c < len {
                    cuts.push(c);
                }
            }
            // Same-slope pieces (du_a + t vs du_b + t) never cross unless
            // equal everywhere; ties are handled by the set evaluation.
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    // Evaluate the kNN set at each interval midpoint and merge equal runs.
    let mut segments: Vec<OrderKSegment> = Vec::new();
    for w in cuts.windows(2) {
        let (from, to) = (w[0], w[1]);
        if to - from < 1e-12 {
            continue;
        }
        let mid = 0.5 * (from + to);
        let mut order: Vec<(SiteIdx, f64)> = (0..m as u32)
            .map(|i| (SiteIdx(i), envelope(i as usize, mid)))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut set: Vec<SiteIdx> = order[..k.min(m)].iter().map(|&(s, _)| s).collect();
        set.sort_unstable();
        match segments.last_mut() {
            Some(last) if last.knn_set == set && (last.to - from).abs() < 1e-12 => {
                last.to = to;
            }
            _ => segments.push(OrderKSegment {
                edge: e,
                from,
                to,
                knn_set: set,
            }),
        }
    }
    segments
}

/// All order-k segments of the network, grouped per edge.
pub fn order_k_diagram(net: &RoadNetwork, matrix: &[Vec<f64>], k: usize) -> Vec<OrderKSegment> {
    (0..net.num_edges() as u32)
        .flat_map(|e| order_k_segments(net, matrix, EdgeId(e), k))
        .collect()
}

/// The MIS of a kNN set per Definition 2, evaluated on the network: the
/// union of the kNN sets of all order-k cells adjacent to the cell of
/// `knn_set`, minus `knn_set`. Two cells are adjacent when their segments
/// share an endpoint (a network order-k "edge" boundary).
pub fn network_mis(
    net: &RoadNetwork,
    matrix: &[Vec<f64>],
    knn_set: &[SiteIdx],
    k: usize,
) -> Vec<SiteIdx> {
    let mut target: Vec<SiteIdx> = knn_set.to_vec();
    target.sort_unstable();
    let segments = order_k_diagram(net, matrix, k);

    // Collect segment boundary points of the target cell, then find other
    // cells sharing them (same edge, touching offsets — or touching across
    // a shared vertex).
    let mut mis: Vec<SiteIdx> = Vec::new();
    for seg in &segments {
        if seg.knn_set != target {
            continue;
        }
        for other in &segments {
            if other.knn_set == target {
                continue;
            }
            if segments_touch(net, seg, other) {
                for &s in &other.knn_set {
                    if !target.contains(&s) {
                        mis.push(s);
                    }
                }
            }
        }
    }
    mis.sort_unstable();
    mis.dedup();
    mis
}

/// Whether two order-k segments share a boundary point (same-edge touching
/// offsets, or endpoints meeting at a common vertex).
fn segments_touch(net: &RoadNetwork, a: &OrderKSegment, b: &OrderKSegment) -> bool {
    const EPS: f64 = 1e-9;
    if a.edge == b.edge && ((a.to - b.from).abs() < EPS || (b.to - a.from).abs() < EPS) {
        return true;
    }
    // Vertex touching: an endpoint of `a` at offset 0/len coincides with an
    // endpoint of `b` at offset 0/len on an edge sharing that vertex.
    let verts_of = |s: &OrderKSegment| {
        let rec = net.edge(s.edge);
        let mut v = Vec::with_capacity(2);
        if s.from < EPS {
            v.push(rec.u);
        }
        if (net.edge(s.edge).len - s.to).abs() < EPS {
            v.push(rec.v);
        }
        v
    };
    let va = verts_of(a);
    if va.is_empty() {
        return false;
    }
    let vb = verts_of(b);
    va.iter().any(|x| vb.contains(x))
}

/// Set equality of kNN results ignoring order (distance ties permute
/// freely).
pub fn knn_sets_equal(a: &[SiteIdx], b: &[SiteIdx]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a2: Vec<SiteIdx> = a.to_vec();
    let mut b2: Vec<SiteIdx> = b.to_vec();
    a2.sort_unstable();
    b2.sort_unstable();
    a2 == b2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::voronoi_cell;
    use insq_roadnet::ine::network_knn;
    use insq_roadnet::{EdgeRec, VertexId};
    use insq_voronoi::Voronoi;

    fn grid_3x3() -> (Vec<Point>, Aabb) {
        let points: Vec<Point> = (0..3)
            .flat_map(|i| (0..3).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(3.0, 3.0));
        (points, bounds)
    }

    fn all_sites(n: usize) -> Vec<SiteId> {
        (0..n as u32).map(SiteId).collect()
    }

    fn brute_knn(points: &[Point], q: Point, k: usize) -> Vec<SiteId> {
        let mut ids: Vec<u32> = (0..points.len() as u32).collect();
        ids.sort_by(|&i, &j| {
            points[i as usize]
                .distance_sq(q)
                .total_cmp(&points[j as usize].distance_sq(q))
        });
        ids.truncate(k);
        let mut v: Vec<SiteId> = ids.into_iter().map(SiteId).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn order_1_cell_matches_diagram_cell() {
        let (points, bounds) = grid_3x3();
        let voro = Voronoi::build(points.clone(), bounds).unwrap();
        for i in 0..points.len() as u32 {
            let via_order_k =
                order_k_cell(&points, &[SiteId(i)], &all_sites(points.len()), &bounds);
            let via_diagram = voronoi_cell(&voro, SiteId(i));
            assert!(
                (via_order_k.area() - via_diagram.area()).abs() < 1e-9,
                "site {i}: {} vs {}",
                via_order_k.area(),
                via_diagram.area()
            );
        }
    }

    #[test]
    fn order_k_cell_characterizes_knn() {
        let (points, bounds) = grid_3x3();
        let candidates = all_sites(points.len());
        // O' = {center, east}: the two nearest sites for points between
        // them.
        let mut knn = vec![SiteId(4), SiteId(7)];
        knn.sort_unstable();
        let cell = order_k_cell(&points, &knn, &candidates, &bounds);
        assert!(!cell.is_empty());
        // Sample points: inside the cell iff brute-force 2NN == O'.
        let mut checked_in = 0;
        let mut checked_out = 0;
        for i in 0..40 {
            for j in 0..40 {
                let q = Point::new(-0.9 + i as f64 * 0.1, -0.9 + j as f64 * 0.1);
                let is_knn = brute_knn(&points, q, 2) == knn;
                // Skip points within a hair of the cell boundary where
                // floating ties make either answer acceptable.
                let d = cell.boundary_distance(q).unwrap_or(f64::INFINITY);
                if d < 1e-9 {
                    continue;
                }
                if cell.contains(q) {
                    assert!(is_knn, "{q:?} in cell but kNN differs");
                    checked_in += 1;
                } else {
                    assert!(!is_knn, "{q:?} outside cell but kNN matches");
                    checked_out += 1;
                }
            }
        }
        assert!(checked_in > 0 && checked_out > 0);
    }

    #[test]
    fn tagged_cell_matches_untagged() {
        let (points, bounds) = grid_3x3();
        let candidates = all_sites(points.len());
        let knn = [SiteId(4), SiteId(1)];
        let plain = order_k_cell(&points, &knn, &candidates, &bounds);
        let tagged = order_k_cell_tagged(&points, &knn, &candidates, &bounds);
        assert!((plain.area() - tagged.polygon().area()).abs() < 1e-9);
        assert_eq!(plain.is_empty(), tagged.is_empty());
    }

    #[test]
    fn tagged_edges_are_true_bisectors() {
        let (points, bounds) = grid_3x3();
        let candidates = all_sites(points.len());
        let knn = [SiteId(4), SiteId(7)];
        let tagged = order_k_cell_tagged(&points, &knn, &candidates, &bounds);
        let vs = tagged.vertices();
        let n = vs.len();
        for (i, src) in tagged.sources().iter().enumerate() {
            if let EdgeSource::Bisector { inside, outside } = src {
                let mid = vs[i].midpoint(vs[(i + 1) % n]);
                let di = mid.distance(points[inside.idx()]);
                let do_ = mid.distance(points[outside.idx()]);
                assert!(
                    (di - do_).abs() < 1e-9,
                    "edge {i} midpoint not equidistant: {di} vs {do_}"
                );
            }
        }
    }

    #[test]
    fn empty_cell_for_non_knn_set() {
        let (points, bounds) = grid_3x3();
        let candidates = all_sites(points.len());
        // Two opposite corners are never simultaneously the 2 nearest.
        let knn = [SiteId(0), SiteId(8)];
        let cell = order_k_cell(&points, &knn, &candidates, &bounds);
        assert!(cell.is_empty());
        let tagged = order_k_cell_tagged(&points, &knn, &candidates, &bounds);
        assert!(tagged.is_empty());
        assert!(tagged.adjacent_outsiders().is_empty());
    }

    #[test]
    fn boundary_swaps_produce_valid_neighbor_cells() {
        let (points, bounds) = grid_3x3();
        let candidates = all_sites(points.len());
        let knn = vec![SiteId(4), SiteId(7)];
        let tagged = order_k_cell_tagged(&points, &knn, &candidates, &bounds);
        for (inside, outside) in tagged.boundary_swaps() {
            let mut nb: Vec<SiteId> = knn
                .iter()
                .copied()
                .filter(|&s| s != inside)
                .chain(std::iter::once(outside))
                .collect();
            nb.sort_unstable();
            let nb_cell = order_k_cell(&points, &nb, &candidates, &bounds);
            assert!(
                !nb_cell.is_empty(),
                "swap ({inside},{outside}) leads to an empty neighbor cell"
            );
        }
    }

    fn edge(u: u32, v: u32, len: f64) -> EdgeRec {
        EdgeRec {
            u: VertexId(u),
            v: VertexId(v),
            len,
        }
    }

    /// Path 0-1-2-3-4, unit edges, sites at 0, 2, 4.
    fn path() -> (RoadNetwork, SiteSet) {
        let coords = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let edges = (0..4).map(|i| edge(i, i + 1, 1.0)).collect();
        let net = RoadNetwork::new(coords, edges).unwrap();
        let sites = SiteSet::new(&net, vec![VertexId(0), VertexId(2), VertexId(4)]).unwrap();
        (net, sites)
    }

    #[test]
    fn knn_at_matches_ine() {
        let (net, sites) = path();
        let matrix = site_distance_matrix(&net, &sites);
        for e in 0..net.num_edges() as u32 {
            for &t in &[0.1, 0.5, 0.9] {
                let pos = NetPosition::on_edge(&net, EdgeId(e), t).unwrap();
                let oracle = knn_at(&net, &matrix, pos, 2);
                let ine = network_knn(&net, &sites, pos, 2);
                for (o, i) in oracle.iter().zip(&ine) {
                    assert!((o.1 - i.1).abs() < 1e-12, "distance mismatch");
                }
            }
        }
    }

    #[test]
    fn order_1_segments_on_path() {
        let (net, sites) = path();
        let matrix = site_distance_matrix(&net, &sites);
        // Edge 0-1: site 0 owns [0, 1]... site boundary between p0 (at v0)
        // and p1 (at v2) is at global x=1.0, i.e. the far end of edge 0.
        let segs = order_k_segments(&net, &matrix, EdgeId(0), 1);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].knn_set, vec![SiteIdx(0)]);
        // Edge 1-2 (x in [1,2]): the p0/p1 bisector sits exactly at vertex
        // 1 (x = 1), so p1 owns the entire edge.
        let segs = order_k_segments(&net, &matrix, EdgeId(1), 1);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].knn_set, vec![SiteIdx(1)]);
        // Edge 2-3 (x in [2,3]): boundary between p1 (x=2) and p2 (x=4) at
        // x = 3, the far vertex, so p1 owns this edge too.
        let segs = order_k_segments(&net, &matrix, EdgeId(2), 1);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].knn_set, vec![SiteIdx(1)]);
    }

    #[test]
    fn order_2_segments_on_path() {
        let (net, sites) = path();
        let matrix = site_distance_matrix(&net, &sites);
        // Order-2 cells along the path: {p0,p1} for x < 2 (center of p0/p2
        // tie at x=2), then {p1, p0/p2}...
        let all = order_k_diagram(&net, &matrix, 2);
        // Segments must tile each edge exactly.
        for e in 0..net.num_edges() as u32 {
            let segs: Vec<&OrderKSegment> = all.iter().filter(|s| s.edge == EdgeId(e)).collect();
            let total: f64 = segs.iter().map(|s| s.to - s.from).sum();
            assert!((total - net.edge(EdgeId(e)).len).abs() < 1e-9);
        }
        // Every segment's label matches the exact kNN at its midpoint.
        for seg in &all {
            let mid = 0.5 * (seg.from + seg.to);
            let pos = NetPosition::on_edge(&net, seg.edge, mid).unwrap();
            let oracle: Vec<SiteIdx> = knn_at(&net, &matrix, pos, 2)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            assert!(
                knn_sets_equal(&oracle, &seg.knn_set),
                "segment label mismatch on {:?}",
                seg
            );
        }
    }

    #[test]
    fn mis_on_path_order_2() {
        let (net, sites) = path();
        let _ = sites;
        let matrix = site_distance_matrix(&net, &sites);
        // Cell {p0, p1} is adjacent only to {p1, p2} on a path of 3 sites.
        let mis = network_mis(&net, &matrix, &[SiteIdx(0), SiteIdx(1)], 2);
        assert_eq!(mis, vec![SiteIdx(2)]);
    }

    #[test]
    fn knn_sets_equal_ignores_order() {
        assert!(knn_sets_equal(
            &[SiteIdx(2), SiteIdx(0)],
            &[SiteIdx(0), SiteIdx(2)]
        ));
        assert!(!knn_sets_equal(&[SiteIdx(0)], &[SiteIdx(1)]));
        assert!(!knn_sets_equal(&[SiteIdx(0)], &[SiteIdx(0), SiteIdx(1)]));
    }
}
