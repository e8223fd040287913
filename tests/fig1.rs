//! Reproduction of Fig. 1 of the paper: the minimal influential set of a
//! 3-NN set via the order-3 Voronoi cells adjacent to `V^3(O')`.
//!
//! The figure shows 12 data objects; the cell of `O' = {p4, p6, p7}` is
//! surrounded by neighboring order-3 cells whose object triples differ
//! from `O'` by exactly one object, and the union of the swapped-in
//! objects — `{p3, p5, p10, p12}` in the figure — is the MIS. The exact
//! coordinates are not published, so this test reconstructs a 12-point
//! configuration with the same *structure* and verifies every relationship
//! the figure illustrates. The `report --exp fig1` binary prints the
//! corresponding table.

use insq::core::influential_neighbor_set;
use insq::paper::minimal_influential_set;
use insq::paper::{order_k_cell_tagged, EdgeSource};
use insq::prelude::*;

/// A 12-point configuration with a central triple surrounded by a ring —
/// qualitatively Fig. 1's layout (p4, p6, p7 central; p3, p5, p10, p12 in
/// the first ring; the rest outside).
fn fig1_points() -> Vec<Point> {
    vec![
        Point::new(0.0, 8.5), // p1  (far)
        Point::new(8.3, 7.9), // p2  (far)
        Point::new(2.1, 5.2), // p3  (ring)
        Point::new(4.1, 4.4), // p4  (central)
        Point::new(6.9, 4.9), // p5  (ring)
        Point::new(3.6, 3.1), // p6  (central)
        Point::new(5.2, 3.4), // p7  (central)
        Point::new(0.3, 2.6), // p8  (far)
        Point::new(8.9, 2.2), // p9  (far)
        Point::new(5.9, 1.4), // p10 (ring)
        Point::new(0.9, 0.3), // p11 (far)
        Point::new(3.2, 0.8), // p12 (ring)
    ]
}

/// 1-based paper names for readability in assertions.
fn p(i: u32) -> SiteId {
    SiteId(i - 1)
}

fn build() -> Voronoi {
    let bounds = Aabb::new(Point::new(-3.0, -3.0), Point::new(12.0, 12.0));
    Voronoi::build(fig1_points(), bounds).expect("general-position points")
}

#[test]
fn central_triple_is_a_knn_set_with_nonempty_cell() {
    let v = build();
    let knn = vec![p(4), p(6), p(7)];
    // The centroid of the three central points must see them as its 3NN.
    let c = Point::new(4.3, 3.6);
    let mut brute = v.knn_brute(c, 3);
    brute.sort_unstable();
    let mut expect = knn.clone();
    expect.sort_unstable();
    assert_eq!(brute, expect, "central triple is the 3NN of the centroid");
    let mis = minimal_influential_set(&v, &knn);
    assert!(mis.is_some(), "V^3(O') is non-empty");
}

#[test]
fn mis_is_the_union_of_adjacent_cell_swaps() {
    let v = build();
    let knn = vec![p(4), p(6), p(7)];
    let all: Vec<SiteId> = (0..12).map(SiteId).collect();
    let cell = order_k_cell_tagged(v.points(), &knn, &all, &v.bounds());
    assert!(!cell.is_empty());

    // Every boundary edge swaps exactly one O' member for one outsider,
    // i.e. the neighboring cell triple (a, b, c) of Fig. 1 shares two
    // objects with O'.
    let swaps = cell.boundary_swaps();
    assert!(!swaps.is_empty());
    for (inside, outside) in &swaps {
        assert!(knn.contains(inside));
        assert!(!knn.contains(outside));
        // The neighbor triple O'' = O' \ {inside} ∪ {outside} has a
        // non-empty order-3 cell (it is a realisable 3NN set).
        let mut nb: Vec<SiteId> = knn.iter().copied().filter(|s| s != inside).collect();
        nb.push(*outside);
        let nb_cell = insq::paper::order_k_cell(v.points(), &nb, &all, &v.bounds());
        assert!(!nb_cell.is_empty(), "swap ({inside},{outside})");
    }

    // Definition 2: MIS = union of adjacent triples minus O'.
    let mis = cell.adjacent_outsiders();
    let def2 = minimal_influential_set(&v, &knn).unwrap();
    assert_eq!(mis, def2);
    // Fig. 1 shape: a handful of ring objects, strictly fewer than n - k.
    assert!(mis.len() >= 3 && mis.len() <= 6, "MIS = {mis:?}");
    // The ring objects of this reconstruction.
    for required in [p(3), p(5), p(12)] {
        assert!(
            mis.contains(&required),
            "{required} expected in MIS: {mis:?}"
        );
    }
}

#[test]
fn mis_subset_of_ins_and_ins_guards_exactly_the_cell() {
    let v = build();
    let knn = vec![p(4), p(6), p(7)];
    let mis = minimal_influential_set(&v, &knn).unwrap();
    let ins = influential_neighbor_set(&v, &knn);
    for m in &mis {
        assert!(ins.contains(m), "MIS ⊆ INS violated at {m}");
    }
    // The INS-clipped region is the exact order-3 cell.
    let all: Vec<SiteId> = (0..12).map(SiteId).collect();
    let via_ins = insq::paper::order_k_cell(v.points(), &knn, &ins, &v.bounds());
    let via_all = insq::paper::order_k_cell(v.points(), &knn, &all, &v.bounds());
    assert!((via_ins.area() - via_all.area()).abs() < 1e-9);
}

#[test]
fn cell_edges_are_bisector_segments() {
    // Each edge of V^3(O') lies on the bisector of its swap pair — the
    // geometric fact Fig. 1's cross-lined region illustrates.
    let v = build();
    let knn = vec![p(4), p(6), p(7)];
    let all: Vec<SiteId> = (0..12).map(SiteId).collect();
    let cell = order_k_cell_tagged(v.points(), &knn, &all, &v.bounds());
    let vs = cell.vertices();
    let n = vs.len();
    for (i, src) in cell.sources().iter().enumerate() {
        if let EdgeSource::Bisector { inside, outside } = src {
            let mid = vs[i].midpoint(vs[(i + 1) % n]);
            let di = v.point(*inside).distance(mid);
            let do_ = v.point(*outside).distance(mid);
            assert!(
                (di - do_).abs() < 1e-9,
                "edge {i} midpoint not on bisector of ({inside},{outside})"
            );
        }
    }
}

#[test]
fn moving_query_crossing_the_cell_swaps_exactly_one_object() {
    // Walk from the cell centroid outward: the first kNN change after
    // leaving V^3(O') replaces exactly one object by an MIS member (the
    // event INSQ visualises when the cyan cell turns red).
    let v = build();
    let knn = vec![p(4), p(6), p(7)];
    let all: Vec<SiteId> = (0..12).map(SiteId).collect();
    let cell = insq::paper::order_k_cell(v.points(), &knn, &all, &v.bounds());
    let c = cell.centroid().unwrap();
    let mis = minimal_influential_set(&v, &knn).unwrap();

    let mut sorted_knn = knn.clone();
    sorted_knn.sort_unstable();
    for dir_idx in 0..8 {
        let ang = std::f64::consts::TAU * dir_idx as f64 / 8.0;
        let dir = Vector::new(ang.cos(), ang.sin());
        let mut first_change: Option<Vec<SiteId>> = None;
        for step in 1..400 {
            let q = c + dir * (step as f64 * 0.01);
            let mut now = v.knn_brute(q, 3);
            now.sort_unstable();
            if now != sorted_knn {
                first_change = Some(now);
                break;
            }
        }
        if let Some(new_set) = first_change {
            let shared = new_set.iter().filter(|s| sorted_knn.contains(s)).count();
            assert_eq!(shared, 2, "exactly one object swapped: {new_set:?}");
            let added: Vec<SiteId> = new_set
                .iter()
                .copied()
                .filter(|s| !sorted_knn.contains(s))
                .collect();
            assert_eq!(added.len(), 1);
            assert!(
                mis.contains(&added[0]),
                "first object to enter ({}) must be an MIS member {mis:?}",
                added[0]
            );
        }
    }
}
