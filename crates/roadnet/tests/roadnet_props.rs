//! Property-based tests for the road-network substrate: shortest-path
//! metric axioms, network Voronoi partitioning, INE correctness and
//! trajectory kinematics, over randomly generated street networks.

use insq_roadnet::astar::{astar, astar_distance_checked};
use insq_roadnet::dijkstra::{distances_from_position, distances_from_vertex};
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq_roadnet::ine::{all_site_distances, network_knn};
use insq_roadnet::nvd::EdgeOwnership;
use insq_roadnet::{NetPosition, NetTrajectory, NetworkVoronoi, RoadNetwork, SiteSet, VertexId};
use proptest::prelude::*;

fn network_strategy() -> impl Strategy<Value = RoadNetwork> {
    (
        3u32..8,
        3u32..8,
        0.0f64..0.3,
        0.0f64..0.3,
        0.0f64..0.25,
        0u64..10_000,
    )
        .prop_map(|(cols, rows, jitter, diag, del, seed)| {
            grid_network(
                &GridConfig {
                    cols,
                    rows,
                    spacing: 1.0,
                    jitter,
                    diagonal_prob: diag,
                    deletion_prob: del,
                },
                seed,
            )
            .expect("valid grid config")
        })
}

/// Network distance between two positions from the oracle: through an
/// endpoint of `to`'s edge, or straight along an edge the two share.
fn position_distance(net: &RoadNetwork, from: NetPosition, to: NetPosition) -> f64 {
    let dist = distances_from_position(net, from);
    let (seeds, n) = to.seed_array(net);
    let via_vertices = seeds[..n]
        .iter()
        .map(|&(v, d)| dist[v.idx()] + d)
        .fold(f64::INFINITY, f64::min);
    match (from, to) {
        (
            NetPosition::OnEdge {
                edge: e1,
                offset: o1,
            },
            NetPosition::OnEdge {
                edge: e2,
                offset: o2,
            },
        ) if e1 == e2 => via_vertices.min((o1 - o2).abs()),
        _ => via_vertices,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn dijkstra_metric_axioms(net in network_strategy(), a in 0u32..9, b in 0u32..9, c in 0u32..9) {
        let n = net.num_vertices() as u32;
        let (a, b, c) = (VertexId(a % n), VertexId(b % n), VertexId(c % n));
        let da = distances_from_vertex(&net, a);
        let db = distances_from_vertex(&net, b);
        // Identity and symmetry.
        prop_assert_eq!(da[a.idx()], 0.0);
        prop_assert!((da[b.idx()] - db[a.idx()]).abs() < 1e-9, "symmetry");
        // Triangle inequality.
        let dc = distances_from_vertex(&net, c);
        prop_assert!(da[b.idx()] <= da[c.idx()] + dc[b.idx()] + 1e-9, "triangle");
        // Connectivity: all distances finite.
        prop_assert!(da.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn shortest_path_is_consistent_with_distances(net in network_strategy(), a in 0u32..50, b in 0u32..50) {
        let n = net.num_vertices() as u32;
        let (a, b) = (VertexId(a % n), VertexId(b % n));
        // A* is the crate's one path-producing search (it routes the
        // rush-hour commuters); the oracle gives the distance.
        let res = astar(&net, a, b);
        let (d, path) = (res.distance, res.path);
        let dists = distances_from_vertex(&net, a);
        prop_assert!((d - dists[b.idx()]).abs() < 1e-9);
        // The path's edge lengths sum to the distance.
        let mut total = 0.0;
        for w in path.windows(2) {
            // Use the cheapest connecting edge (parallel edges possible).
            let best = net
                .neighbors(w[0])
                .iter()
                .filter(|&&(v, _)| v == w[1])
                .map(|&(_, e)| net.edge(e).len)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(best.is_finite(), "path edges exist");
            total += best;
        }
        prop_assert!((total - d).abs() < 1e-9, "path length {total} vs {d}");
        prop_assert_eq!(*path.first().unwrap(), a);
        prop_assert_eq!(*path.last().unwrap(), b);
    }

    #[test]
    fn multi_source_is_min_of_single_sources(net in network_strategy(), seed in 0u64..1000) {
        let m = (net.num_vertices() / 4).clamp(2, 8);
        let sources = random_site_vertices(&net, m, seed).expect("enough vertices");
        // The NVD build is the crate's multi-source expansion: its labels
        // must be the minimum over per-site oracle runs.
        let nvd = NetworkVoronoi::build(&net, &SiteSet::new(&net, sources.clone()).unwrap());
        let singles: Vec<Vec<f64>> = sources
            .iter()
            .map(|&s| distances_from_vertex(&net, s))
            .collect();
        for v in 0..net.num_vertices() {
            let want = singles.iter().map(|d| d[v]).fold(f64::INFINITY, f64::min);
            let vid = VertexId(v as u32);
            prop_assert!((nvd.dist(vid) - want).abs() < 1e-9);
            // The owner achieves the minimum.
            prop_assert!((singles[nvd.owner(vid).idx()][v] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn nvd_partitions_and_owns_correctly(net in network_strategy(), seed in 0u64..1000) {
        let m = (net.num_vertices() / 4).clamp(2, 10);
        let sites = SiteSet::new(&net, random_site_vertices(&net, m, seed).unwrap()).unwrap();
        let nvd = NetworkVoronoi::build(&net, &sites);
        // Cell lengths partition the total network length.
        let total: f64 = (0..m as u32)
            .map(|s| nvd.cell_length(&net, insq_roadnet::SiteIdx(s)))
            .sum();
        prop_assert!((total - net.total_length()).abs() < 1e-6);
        // Split-edge borders are equidistant between the two owners.
        let singles: Vec<Vec<f64>> = sites
            .vertices()
            .iter()
            .map(|&s| distances_from_vertex(&net, s))
            .collect();
        for eid in 0..net.num_edges() as u32 {
            let e = insq_roadnet::EdgeId(eid);
            if let EdgeOwnership::Split { owner_u, owner_v, border } = nvd.edge_ownership(e) {
                let rec = net.edge(e);
                let du = singles[owner_u.idx()][rec.u.idx()] + border;
                let dv = singles[owner_v.idx()][rec.v.idx()] + (rec.len - border);
                prop_assert!((du - dv).abs() < 1e-9, "border equidistance");
            }
        }
    }

    #[test]
    fn ine_matches_full_dijkstra(net in network_strategy(), seed in 0u64..1000, e in 0u32..200, t in 0.05f64..0.95, k in 1usize..6) {
        let m = (net.num_vertices() / 3).clamp(3, 12);
        let sites = SiteSet::new(&net, random_site_vertices(&net, m, seed).unwrap()).unwrap();
        let e = insq_roadnet::EdgeId(e % net.num_edges() as u32);
        let pos = NetPosition::on_edge(&net, e, t * net.edge(e).len).unwrap();
        let k = k.min(m);
        let got = network_knn(&net, &sites, pos, k);
        let all = all_site_distances(&net, &sites, pos);
        let mut brute: Vec<f64> = all;
        brute.sort_by(f64::total_cmp);
        prop_assert_eq!(got.len(), k);
        for (rank, &(_, d)) in got.iter().enumerate() {
            prop_assert!((d - brute[rank]).abs() < 1e-9, "rank {rank}: {d} vs {}", brute[rank]);
        }
    }

    #[test]
    fn astar_equals_dijkstra(net in network_strategy(), a in 0u32..60, b in 0u32..60) {
        let n = net.num_vertices() as u32;
        let (a, b) = (VertexId(a % n), VertexId(b % n));
        let want = distances_from_vertex(&net, a)[b.idx()];
        let fast = astar(&net, a, b);
        let checked = astar_distance_checked(&net, a, b);
        prop_assert!((fast.distance - want).abs() < 1e-9);
        prop_assert!((checked.distance - want).abs() < 1e-9);
        // A* never settles more than the full vertex set.
        prop_assert!(fast.settled <= net.num_vertices());
    }

    #[test]
    fn trajectory_positions_advance_by_arc_length(net in network_strategy(), seed in 0u64..1000, steps in 4usize..30) {
        let tour = match NetTrajectory::random_tour(&net, 5, seed) {
            Ok(t) => t,
            Err(_) => return Ok(()),
        };
        let len = tour.length();
        // Network distance between consecutive samples never exceeds the
        // arc-length step (paths may shortcut, never lengthen).
        let step = len / steps as f64;
        let mut prev = tour.position(&net, 0.0);
        for i in 1..=steps {
            let cur = tour.position(&net, step * i as f64);
            let d = position_distance(&net, prev, cur);
            prop_assert!(d <= step + 1e-6, "step {i}: network dist {d} > step {step}");
            prev = cur;
        }
    }
}
