//! A tourist walking a city: the paper's motivating scenario of "the 5
//! nearest points of interest continuously while a tourist is walking
//! around a city" (§I).
//!
//! POIs are Gaussian-clustered (hot spots); the tourist follows a random
//! waypoint walk. All four methods — INS, the strict order-k Voronoi safe
//! region (OkV), the V*-diagram and naive recomputation — process the
//! identical query, and their cost profiles are printed side by side.
//!
//! Run with: `cargo run --release --example city_poi_tour`

use insq::prelude::*;

fn main() {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pois = Distribution::Clustered {
        clusters: 8,
        spread: 0.06,
    }
    .generate(10_000, &space, 2016);
    let index = VorTree::build(pois, space.inflated(10.0)).expect("valid POI set");

    let walk = TrajectoryKind::RandomWaypoint { waypoints: 25 }.generate(&space, 7);
    let (k, ticks, speed) = (5usize, 5_000usize, 0.05f64);
    println!("city POI tour: n=10000 clustered, k={k}, {ticks} ticks, speed {speed}/tick\n");

    let mut comparison = Comparison::new();

    let mut ins = InsProcessor::new(&index, InsConfig::new(k, 1.6)).unwrap();
    comparison.add(&run_euclidean(&mut ins, &walk, ticks, speed));

    let mut okv = OkvProcessor::new(&index, k).unwrap();
    comparison.add(&run_euclidean(&mut okv, &walk, ticks, speed));

    let mut vstar = VStarProcessor::new(&index, VStarConfig::with_k(k)).unwrap();
    comparison.add(&run_euclidean(&mut vstar, &walk, ticks, speed));

    let rtree = index.rtree();
    let mut naive = NaiveProcessor::new(&rtree, k).unwrap();
    comparison.add(&run_euclidean(&mut naive, &walk, ticks, speed));

    println!("{}", comparison.to_table());

    // The qualitative claims of the paper, checked live:
    let ins_row = comparison.row("INS").unwrap();
    let okv_row = comparison.row("OkV").unwrap();
    let vstar_row = comparison.row("V*").unwrap();
    let naive_row = comparison.row("Naive").unwrap();
    println!("checks:");
    println!(
        "  INS and OkV share the (maximal) safe region -> similar recompute counts: {} vs {}",
        ins_row.recomputations, okv_row.recomputations
    );
    println!(
        "  V*'s relaxed region recomputes more often: {} > {}",
        vstar_row.recomputations, ins_row.recomputations
    );
    println!(
        "  OkV pays for region construction: {} ops vs INS {}",
        okv_row.construction_ops, ins_row.construction_ops
    );
    println!(
        "  everyone communicates less than naive ({} objects): INS {}, OkV {}, V* {}",
        naive_row.comm_objects, ins_row.comm_objects, okv_row.comm_objects, vstar_row.comm_objects
    );
}
