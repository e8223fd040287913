//! Reproduction of Fig. 2 of the paper: an order-2 Voronoi diagram on a
//! road network, the MIS of `Oknn = {p6, p7}`, the equidistant mid-point
//! `b` between p7 and p8, and Theorems 1 and 2.
//!
//! The figure's exact geometry is not published; this is a
//! reconstruction: 14 vertices, 9 data objects, with p6/p7 central so that
//! the order-2 cell labels around `V^2({p6, p7})` are exactly the pairs
//! the figure annotates — (5,6), (4,7), (7,8), (6,9) — and
//! `MIS({p6,p7}) = {p4, p5, p8, p9}`.

use insq::core::influential_neighbor_set_net;
use insq::paper::order_k::{
    knn_at, knn_sets_equal, network_mis, order_k_diagram, site_distance_matrix,
};
use insq::prelude::*;
use insq::roadnet::graph::EdgeRec;
use insq::roadnet::ine::network_knn;
use insq::roadnet::subnetwork::{restricted_knn, SiteMask};
use insq::roadnet::EdgeId;

/// The reconstructed Fig. 2 network. Vertices 0..=8 host p1..=p9; vertices
/// 9..=13 are plain junctions. Edge weights are the designed network
/// lengths (coordinates are for rendering only).
fn fig2_network() -> (RoadNetwork, SiteSet) {
    let coords = vec![
        Point::new(10.0, 20.0), // v0: p1
        Point::new(0.0, 20.0),  // v1: p2
        Point::new(-20.0, 0.0), // v2: p3
        Point::new(22.0, 0.0),  // v3: p4
        Point::new(-10.0, 0.0), // v4: p5
        Point::new(0.0, 0.0),   // v5: p6
        Point::new(10.0, 0.0),  // v6: p7
        Point::new(10.0, 12.0), // v7: p8
        Point::new(0.0, 12.0),  // v8: p9
        Point::new(5.0, 0.0),   // v9: mid of the central p6-p7 road
        Point::new(0.0, 5.0),   // v10: junction towards p9
        Point::new(10.0, 5.0),  // v11: junction towards p8
        Point::new(30.0, 0.0),  // v12: beyond p4
        Point::new(-26.0, 0.0), // v13: beyond p3
    ];
    let e = |u: u32, v: u32, len: f64| EdgeRec {
        u: VertexId(u),
        v: VertexId(v),
        len,
    };
    let edges = vec![
        e(5, 9, 5.0),  // p6 - mid
        e(9, 6, 5.0),  // mid - p7           (d(p6,p7) = 10)
        e(5, 4, 10.4), // p6 - p5 (10.4, not 10: avoids an exact d(p6,p5) =
        // d(p6,p7) tie that the paper's real map does not have)
        e(4, 2, 10.0), // p5 - p3
        e(2, 13, 6.0), // p3 - v13
        e(6, 3, 12.0), // p7 - p4
        e(3, 12, 8.0), // p4 - v12
        e(5, 10, 5.0), // p6 - v10
        e(10, 8, 7.0), // v10 - p9           (d(p6,p9) = 12)
        e(8, 1, 8.0),  // p9 - p2
        e(6, 11, 5.0), // p7 - v11
        e(11, 7, 7.0), // v11 - p8           (d(p7,p8) = 12)
        e(7, 0, 8.0),  // p8 - p1
    ];
    let net = RoadNetwork::new(coords, edges).expect("valid Fig. 2 network");
    // Sites p1..p9 at vertices v0..v8, so SiteIdx(i) is paper's p(i+1).
    let sites = SiteSet::new(&net, (0..9).map(VertexId).collect()).unwrap();
    (net, sites)
}

/// Paper name → SiteIdx.
fn p(i: u32) -> SiteIdx {
    SiteIdx(i - 1)
}

#[test]
fn network_has_papers_shape() {
    let (net, sites) = fig2_network();
    assert_eq!(net.num_vertices(), 14);
    assert_eq!(sites.len(), 9);
    assert!(net.is_connected());
}

#[test]
fn order_2_cells_carry_the_figures_labels() {
    let (net, sites) = fig2_network();
    let matrix = site_distance_matrix(&net, &sites);
    let diagram = order_k_diagram(&net, &matrix, 2);

    let labels: std::collections::BTreeSet<Vec<SiteIdx>> =
        diagram.iter().map(|s| s.knn_set.clone()).collect();
    // The pairs annotated in Fig. 2 — (6,7) central plus its four
    // neighbors (5,6), (4,7), (7,8), (6,9).
    for pair in [
        vec![p(6), p(7)],
        vec![p(5), p(6)],
        vec![p(4), p(7)],
        vec![p(7), p(8)],
        vec![p(6), p(9)],
    ] {
        let mut sorted = pair.clone();
        sorted.sort_unstable();
        assert!(
            labels.contains(&sorted),
            "missing order-2 cell {pair:?}; present: {labels:?}"
        );
    }
    // Segments tile every edge.
    for eid in 0..net.num_edges() as u32 {
        let total: f64 = diagram
            .iter()
            .filter(|s| s.edge == EdgeId(eid))
            .map(|s| s.to - s.from)
            .sum();
        assert!(
            (total - net.edge(EdgeId(eid)).len).abs() < 1e-9,
            "edge {eid} not fully tiled"
        );
    }
}

#[test]
fn mis_of_p6_p7_is_p4_p5_p8_p9() {
    let (net, sites) = fig2_network();
    let matrix = site_distance_matrix(&net, &sites);
    let mis = network_mis(&net, &matrix, &[p(6), p(7)], 2);
    assert_eq!(mis, vec![p(4), p(5), p(8), p(9)], "the paper's MIS");
}

#[test]
fn theorem_1_mis_subset_of_network_ins() {
    let (net, sites) = fig2_network();
    let nvd = NetworkVoronoi::build(&net, &sites);
    let matrix = site_distance_matrix(&net, &sites);
    let knn = [p(6), p(7)];
    let mis = network_mis(&net, &matrix, &knn, 2);
    let ins = influential_neighbor_set_net(&nvd, &knn);
    for m in &mis {
        assert!(
            ins.contains(m),
            "Theorem 1 violated: {m} not in INS {ins:?}"
        );
    }
}

#[test]
fn midpoint_b_between_p7_and_p8() {
    // The paper: "the mid-point between p7 and p8 is denoted by b ...
    // d(b, p7) = d(b, p8); no other object ... is nearer to b", which
    // makes p7 and p8 order-1 Voronoi neighbors.
    let (net, sites) = fig2_network();
    let nvd = NetworkVoronoi::build(&net, &sites);
    let borders = nvd.border_points(&net);
    let b = borders
        .iter()
        .find(|b| {
            let mut pair = [b.site_u, b.site_v];
            pair.sort_unstable();
            pair == [p(7), p(8)]
        })
        .expect("a border point between p7 and p8 exists");
    // Equidistance, by direct network distance.
    let pos = NetPosition::on_edge(&net, b.edge, b.offset).unwrap();
    let matrix = site_distance_matrix(&net, &sites);
    let d7 = insq::paper::order_k::position_site_distance(&net, &matrix, pos, p(7));
    let d8 = insq::paper::order_k::position_site_distance(&net, &matrix, pos, p(8));
    assert!((d7 - d8).abs() < 1e-9, "d(b,p7)={d7} vs d(b,p8)={d8}");
    assert!((d7 - 6.0).abs() < 1e-9, "designed distance 6");
    // No other object nearer.
    for s in 0..9u32 {
        let d = insq::paper::order_k::position_site_distance(&net, &matrix, pos, SiteIdx(s));
        assert!(d >= d7 - 1e-9, "object {s} nearer to b than p7/p8");
    }
    // Hence order-1 Voronoi neighbors.
    assert!(nvd.are_neighbors(p(7), p(8)));
}

#[test]
fn theorem_2_validation_on_the_subnetwork() {
    let (net, sites) = fig2_network();
    let nvd = NetworkVoronoi::build(&net, &sites);
    let knn = vec![p(6), p(7)];
    let ins = influential_neighbor_set_net(&nvd, &knn);
    let mut mask = SiteMask::new(sites.len());
    mask.set(knn.iter().copied().chain(ins.iter().copied()));

    // Sample positions along the central road (inside V^2({p6,p7})) and on
    // the branches (outside): the restricted kNN must decide both cases
    // exactly as the global search does.
    let samples = [
        (0u32, 2.5), // p6-mid road
        (1, 2.5),    // mid-p7 road
        (5, 0.5),    // just past p7 toward p4 (still {6,7})
        (5, 3.0),    // deeper toward p4 ({4,7} region)
        (11, 2.0),   // toward p8 past the swap point
    ];
    for (eid, off) in samples {
        let pos = NetPosition::on_edge(&net, EdgeId(eid), off).unwrap();
        let global: Vec<SiteIdx> = network_knn(&net, &sites, pos, 2)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let (restricted, stats) = restricted_knn(&net, &sites, &nvd, &mask, pos, 2);
        let r: Vec<SiteIdx> = restricted.iter().map(|&(s, _)| s).collect();
        let valid_here = knn_sets_equal(&global, &knn);
        let restricted_says_valid = knn_sets_equal(&r, &knn);
        assert_eq!(
            restricted_says_valid, valid_here,
            "Theorem-2 validation wrong at edge {eid} offset {off}: \
             restricted {r:?}, global {global:?}"
        );
        // The restricted expansion never leaves the kNN ∪ INS cells.
        assert!(stats.settled <= net.num_vertices());
    }
}

#[test]
fn exact_knn_matches_ine_everywhere() {
    let (net, sites) = fig2_network();
    let matrix = site_distance_matrix(&net, &sites);
    for v in 0..net.num_vertices() as u32 {
        let pos = NetPosition::Vertex(VertexId(v));
        for k in [1usize, 2, 3] {
            let oracle = knn_at(&net, &matrix, pos, k);
            let ine = network_knn(&net, &sites, pos, k);
            for (o, i) in oracle.iter().zip(&ine) {
                assert!((o.1 - i.1).abs() < 1e-9, "v{v} k={k}");
            }
        }
    }
}
