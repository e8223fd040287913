//! The golden correctness property: every moving-kNN processor returns
//! exactly the brute-force kNN set at every timestamp, for every method,
//! over multiple scenarios.
//!
//! This is what makes the cost comparisons of `report`'s E1–E9 meaningful:
//! all methods compute the same answers; they differ only in how much work
//! and communication it takes.

use insq::prelude::*;

fn euclidean_setup(n: usize, distribution: Distribution, seed: u64) -> (VorTree, Trajectory) {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let points = distribution.generate(n, &space, seed);
    let index = VorTree::build(points, space.inflated(10.0)).expect("valid data");
    let traj = TrajectoryKind::RandomWaypoint { waypoints: 12 }.generate(&space, seed ^ 0xF00);
    (index, traj)
}

fn assert_knn_equal(got: &[SiteId], index: &VorTree, pos: Point, k: usize, label: &str) {
    let mut g: Vec<SiteId> = got.to_vec();
    g.sort_unstable();
    let mut want = index.voronoi().knn_brute(pos, k);
    want.sort_unstable();
    // Distance ties permit different id sets; compare by distances.
    if g != want {
        let d = |ids: &[SiteId]| -> Vec<f64> {
            ids.iter().map(|&s| index.point(s).distance(pos)).collect()
        };
        let mut gd = d(&g);
        let mut wd = d(&want);
        gd.sort_by(f64::total_cmp);
        wd.sort_by(f64::total_cmp);
        for (a, b) in gd.iter().zip(&wd) {
            assert!(
                (a - b).abs() < 1e-9,
                "{label}: kNN mismatch at {pos:?}: {g:?} vs {want:?}"
            );
        }
    }
}

#[test]
fn all_euclidean_methods_agree_with_brute_force() {
    for (seed, k, dist) in [
        (1u64, 1usize, Distribution::Uniform),
        (2, 4, Distribution::Uniform),
        (
            3,
            8,
            Distribution::Clustered {
                clusters: 5,
                spread: 0.05,
            },
        ),
        (4, 3, Distribution::GridJitter { jitter: 0.3 }),
    ] {
        let (index, traj) = euclidean_setup(400, dist, seed);
        let ticks = 500;
        let speed = 0.4;

        let mut ins = InsProcessor::new(&index, InsConfig::new(k, 1.6)).unwrap();
        let mut ins_inc = InsProcessor::new(&index, InsConfig::new(k, 1.6).incremental()).unwrap();
        let mut okv = OkvProcessor::new(&index, k).unwrap();
        let mut vstar = VStarProcessor::new(&index, VStarConfig::with_k(k)).unwrap();
        let rtree = index.rtree();
        let mut naive = NaiveProcessor::new(&rtree, k).unwrap();

        for tick in 0..ticks {
            let pos = traj.position_looped(speed * tick as f64);
            ins.tick(pos);
            ins_inc.tick(pos);
            okv.tick(pos);
            vstar.tick(pos);
            naive.tick(pos);
            assert_knn_equal(&ins.current_knn(), &index, pos, k, "INS");
            assert_knn_equal(&ins_inc.current_knn(), &index, pos, k, "INS-incremental");
            assert_knn_equal(&okv.current_knn(), &index, pos, k, "OkV");
            assert_knn_equal(&vstar.current_knn(), &index, pos, k, "V*");
            assert_knn_equal(&naive.current_knn(), &index, pos, k, "Naive");
        }
    }
}

#[test]
fn cost_hierarchy_matches_paper_claims() {
    // n=5000 uniform, k=8: the headline comparison. INS must (a) tie or
    // beat OkV on recomputations (same maximal safe region), (b) recompute
    // less often than V*, (c) communicate far less than naive, (d) pay
    // far less construction than OkV, and (e) communicate less than OkV.
    let (index, traj) = euclidean_setup(5_000, Distribution::Uniform, 42);
    let k = 8;
    let (ticks, speed) = (3_000usize, 0.05f64);

    let mut comparison = Comparison::new();
    let mut ins = InsProcessor::new(&index, InsConfig::new(k, 1.6)).unwrap();
    comparison.add(&run_euclidean(&mut ins, &traj, ticks, speed));
    let mut okv = OkvProcessor::new(&index, k).unwrap();
    comparison.add(&run_euclidean(&mut okv, &traj, ticks, speed));
    let mut vstar = VStarProcessor::new(&index, VStarConfig::with_k(k)).unwrap();
    comparison.add(&run_euclidean(&mut vstar, &traj, ticks, speed));
    let rtree = index.rtree();
    let mut naive = NaiveProcessor::new(&rtree, k).unwrap();
    comparison.add(&run_euclidean(&mut naive, &traj, ticks, speed));

    let row = |m: &str| comparison.row(m).unwrap().clone();
    let (ins_r, okv_r, vstar_r, naive_r) = (row("INS"), row("OkV"), row("V*"), row("Naive"));

    // (a) identical safe region => recomputation counts within noise
    // (INS repairs some exits locally, so it may even do fewer).
    assert!(
        ins_r.recomputations <= okv_r.recomputations,
        "INS {} vs OkV {}",
        ins_r.recomputations,
        okv_r.recomputations
    );
    // (b) the relaxed region of V* forces more retrievals than INS, whose
    // guarded region is the maximal order-k cell (V* may beat OkV's raw
    // count because its k+x buffer spans several cell exits, but INS has
    // the same buffering *and* the maximal region).
    assert!(
        vstar_r.recomputations > ins_r.recomputations,
        "V* {} vs INS {}",
        vstar_r.recomputations,
        ins_r.recomputations
    );
    // (c) naive ships k objects per tick; INS a tiny fraction of that.
    assert!(ins_r.comm_objects * 5 < naive_r.comm_objects);
    // (d) OkV's region construction dwarfs INS bookkeeping.
    assert!(ins_r.construction_ops * 2 < okv_r.construction_ops);
    // (e) E2: INS ships fewer objects than OkV, which sends its region's
    // vertices with every result. V* is not bounded here: it ships only
    // k + x objects per retrieval, and on this trajectory its more
    // frequent but smaller batches total less than INS's `R ∪ I(R)`.
    assert!(
        ins_r.comm_objects <= okv_r.comm_objects,
        "INS {} vs OkV {}",
        ins_r.comm_objects,
        okv_r.comm_objects
    );
}

#[test]
fn network_ins_agrees_with_naive_ine() {
    use insq::paper::order_k::knn_sets_equal;
    use insq::roadnet::generators::{grid_network, random_site_vertices, GridConfig};

    for seed in [5u64, 17, 99] {
        let net = std::sync::Arc::new(
            grid_network(
                &GridConfig {
                    cols: 15,
                    rows: 15,
                    ..GridConfig::default()
                },
                seed,
            )
            .unwrap(),
        );
        let sites = SiteSet::new(&net, random_site_vertices(&net, 35, seed).unwrap()).unwrap();
        let world = NetworkWorld::build(std::sync::Arc::clone(&net), sites);
        let tour = NetTrajectory::random_tour(&net, 8, seed).unwrap();

        let k = 4;
        let mut ins = NetInsProcessor::new(&world, InsConfig::new(k, 1.6)).unwrap();
        let mut naive = NetNaiveProcessor::new(&net, &world.sites, k).unwrap();
        let ticks = 400;
        for tick in 0..ticks {
            let pos = tour.position_looped(&net, 0.15 * tick as f64);
            ins.tick(pos);
            naive.tick(pos);
            let a = ins.current_knn();
            let b = naive.current_knn();
            // Compare by distances to tolerate ties.
            if !knn_sets_equal(&a, &b) {
                let da: Vec<f64> = ins
                    .current_knn_with_dists()
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                let db: Vec<f64> = naive
                    .current_knn_with_dists()
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                for (x, y) in da.iter().zip(&db) {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "seed {seed} tick {tick}: {a:?} vs {b:?}"
                    );
                }
            }
        }
        // And the communication claim.
        assert!(ins.stats().comm_objects * 3 < naive.stats().comm_objects);
    }
}
