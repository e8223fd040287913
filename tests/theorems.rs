//! Property-based verification of the paper's formal claims.
//!
//! * Definition 1/4 + companion-paper lemma: `MIS(O') ⊆ I(O')` and the INS
//!   is an influential set (Euclidean).
//! * The region guarded by the INS is exactly the order-k Voronoi cell:
//!   clipping against the INS produces the same cell as clipping against
//!   all sites.
//! * Theorem 1: `MIS ⊆ INS` under network distance.
//! * Theorem 2: the kNN on the `kNN ∪ INS` subnetwork determines the
//!   global kNN.

use insq::paper::order_k_cell;
use insq::paper::{minimal_influential_set, mis_with_candidates};
use insq::prelude::*;
use proptest::prelude::*;

fn distinct_points(n: usize, seed: u64) -> Vec<Point> {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    Distribution::Uniform.generate(n, &space, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn mis_subset_of_ins_euclidean(seed in 0u64..5000, k in 1usize..7, qx in 10.0f64..90.0, qy in 10.0f64..90.0) {
        let points = distinct_points(60, seed);
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let voronoi = Voronoi::build(points, bounds).unwrap();
        let q = Point::new(qx, qy);
        let knn = voronoi.knn_brute(q, k);
        let mis = minimal_influential_set(&voronoi, &knn)
            .expect("a true kNN set always has a non-empty order-k cell");
        let ins = insq::core::influential_neighbor_set(&voronoi, &knn);
        for m in &mis {
            prop_assert!(ins.contains(m), "MIS member {m} not in INS (k={k})");
        }
        // And the fast MIS construction (clipping against the INS only)
        // agrees with the exhaustive one.
        let fast = mis_with_candidates(&voronoi, &knn, &ins).unwrap();
        prop_assert_eq!(mis, fast);
    }

    #[test]
    fn ins_region_is_exactly_the_order_k_cell(seed in 0u64..5000, k in 1usize..6, qx in 20.0f64..80.0, qy in 20.0f64..80.0) {
        let points = distinct_points(50, seed);
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let voronoi = Voronoi::build(points.clone(), bounds).unwrap();
        let q = Point::new(qx, qy);
        let knn = voronoi.knn_brute(q, k);
        let ins = insq::core::influential_neighbor_set(&voronoi, &knn);
        let all: Vec<SiteId> = (0..voronoi.len() as u32).map(SiteId).collect();

        let via_ins = order_k_cell(voronoi.points(), &knn, &ins, &bounds);
        let via_all = order_k_cell(voronoi.points(), &knn, &all, &bounds);
        // Exact same region (the paper: the INS defines the largest
        // possible safe region, the order-k Voronoi cell).
        prop_assert!((via_ins.area() - via_all.area()).abs() < 1e-7,
            "areas differ: {} vs {}", via_ins.area(), via_all.area());
        prop_assert!(via_ins.contains(q));
    }

    #[test]
    fn validation_predicate_characterizes_membership(seed in 0u64..5000, k in 1usize..6, qx in 10.0f64..90.0, qy in 10.0f64..90.0, dx in -8.0f64..8.0, dy in -8.0f64..8.0) {
        // For a kNN set fixed at q, the distance predicate vs the INS at a
        // *different* position q2 answers exactly "is the set still the
        // kNN at q2".
        let points = distinct_points(60, seed);
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let voronoi = Voronoi::build(points, bounds).unwrap();
        let q = Point::new(qx, qy);
        let knn = voronoi.knn_brute(q, k);
        let ins = insq::core::influential_neighbor_set(&voronoi, &knn);
        let q2 = Point::new(qx + dx, qy + dy);
        let val = insq::core::validate_by_distance(voronoi.points(), q2, &knn, &ins);
        let mut truth = voronoi.knn_brute(q2, k);
        truth.sort_unstable();
        let mut claimed = knn.clone();
        claimed.sort_unstable();
        // Distance ties make both answers acceptable; skip knife-edge cases.
        let kth = voronoi.point(truth[truth.len() - 1]).distance(q2);
        let next = voronoi.knn_brute(q2, k + 1);
        let next_d = voronoi.point(next[next.len() - 1]).distance(q2);
        prop_assume!((next_d - kth).abs() > 1e-9);
        prop_assert_eq!(val.valid, truth == claimed,
            "predicate {} but sets {:?} vs {:?}", val.valid, claimed, truth);
    }
}

// ---------------------------------------------------------------- networks

use insq::core::influential_neighbor_set_net;
use insq::paper::order_k::{knn_sets_equal, network_mis, site_distance_matrix};
use insq::roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq::roadnet::ine::network_knn;
use insq::roadnet::subnetwork::{restricted_knn, SiteMask};

fn small_network(seed: u64) -> (RoadNetwork, SiteSet) {
    let net = grid_network(
        &GridConfig {
            cols: 7,
            rows: 7,
            spacing: 1.0,
            jitter: 0.15,
            diagonal_prob: 0.1,
            deletion_prob: 0.1,
        },
        seed,
    )
    .unwrap();
    let m = 10;
    let sites = SiteSet::new(&net, random_site_vertices(&net, m, seed).unwrap()).unwrap();
    (net, sites)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn theorem_1_network_mis_subset_of_ins(seed in 0u64..2000, vertex in 0u32..49, k in 2usize..4) {
        let (net, sites) = small_network(seed);
        let nvd = NetworkVoronoi::build(&net, &sites);
        let matrix = site_distance_matrix(&net, &sites);
        let pos = NetPosition::Vertex(VertexId(vertex));
        let knn: Vec<SiteIdx> = network_knn(&net, &sites, pos, k)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let mut knn_sorted = knn.clone();
        knn_sorted.sort_unstable();
        // Skip tie-degenerate kNN sets (another set may be equally valid).
        let all = insq::paper::order_k::knn_at(&net, &matrix, pos, k + 1);
        prop_assume!(all.len() > k && (all[k].1 - all[k-1].1).abs() > 1e-9);

        let mis = network_mis(&net, &matrix, &knn_sorted, k);
        let ins = influential_neighbor_set_net(&nvd, &knn_sorted);
        for m in &mis {
            prop_assert!(ins.contains(m),
                "network MIS member {m} not in INS (knn {knn_sorted:?})");
        }
    }

    #[test]
    fn theorem_2_restricted_search_decides_global_knn(seed in 0u64..2000, vertex in 0u32..49, k in 1usize..5) {
        let (net, sites) = small_network(seed);
        let nvd = NetworkVoronoi::build(&net, &sites);
        let pos = NetPosition::Vertex(VertexId(vertex));
        let global: Vec<SiteIdx> = network_knn(&net, &sites, pos, k)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let ins = influential_neighbor_set_net(&nvd, &global);
        let mut mask = SiteMask::new(sites.len());
        mask.set(global.iter().copied().chain(ins.iter().copied()));
        let (restricted, _) = restricted_knn(&net, &sites, &nvd, &mask, pos, k);
        let r: Vec<SiteIdx> = restricted.iter().map(|&(s, _)| s).collect();
        // Theorem 2 direction used by the processor: since the true kNN is
        // `global`, the restricted search on the kNN ∪ INS subnetwork must
        // find it (same distances; ids may permute on exact ties).
        let gd: Vec<f64> = network_knn(&net, &sites, pos, k).iter().map(|&(_, d)| d).collect();
        let rd: Vec<f64> = restricted.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(gd.len(), rd.len());
        for (a, b) in gd.iter().zip(&rd) {
            prop_assert!((a - b).abs() < 1e-9, "{:?} vs {:?}", global, r);
        }
        prop_assert!(knn_sets_equal(&r, &global) || gd.iter().zip(&rd).all(|(a, b)| (a-b).abs() < 1e-9));
    }
}
