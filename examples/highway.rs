//! Driving a road network: "report the 3 nearest gas stations continuously
//! while one drives on a highway" (paper §I), in Road Network mode (§IV).
//!
//! A jittered street grid with gas stations on vertices; the vehicle
//! follows a shortest-path tour. The network INS processor validates each
//! timestamp on the small subnetwork of Theorem 2 and is compared against
//! naive per-tick Incremental Network Expansion.
//!
//! Run with: `cargo run --release --example highway`

use std::sync::Arc;

use insq::prelude::*;
use insq::roadnet::generators::{grid_network, random_site_vertices, GridConfig};

fn main() {
    // 1. The road network: a 30x30 jittered grid with diagonals.
    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 30,
                rows: 30,
                spacing: 1.0,
                jitter: 0.2,
                diagonal_prob: 0.08,
                deletion_prob: 0.08,
            },
            2016,
        )
        .expect("valid grid config"),
    );
    println!(
        "network: {} vertices, {} edges, total length {:.0}",
        net.num_vertices(),
        net.num_edges(),
        net.total_length()
    );

    // 2. Gas stations on 60 random vertices; network Voronoi diagram
    //    precomputed once (server side).
    let stations = SiteSet::new(&net, random_site_vertices(&net, 60, 7).unwrap())
        .expect("distinct station vertices");
    let world = NetworkWorld::build(Arc::clone(&net), stations);

    // 3. The drive: a shortest-path tour through 12 random waypoints.
    let tour = NetTrajectory::random_tour(&net, 12, 99).expect("tour on connected network");
    println!("tour length: {:.1} network units\n", tour.length());

    let (k, ticks, speed) = (3usize, 4_000usize, 0.02f64);

    let mut comparison = Comparison::new();
    let mut ins =
        NetInsProcessor::new(&world, InsConfig::new(k, 1.6)).expect("valid configuration");
    let run_ins = run_network(&mut ins, &net, &tour, ticks, speed);

    let mut naive = NetNaiveProcessor::new(&net, &world.sites, k).expect("valid configuration");
    let run_naive = run_network(&mut naive, &net, &tour, ticks, speed);

    comparison.add(&run_ins);
    comparison.add(&run_naive);
    println!("{}", comparison.to_table());

    // Show the events of the drive: every change of the station set.
    println!("station-set changes along the drive (first 15):");
    for rec in run_ins.result_changes().iter().take(15) {
        let ids: Vec<u32> = rec.knn.iter().map(|s| s.0).collect();
        println!(
            "  tick {:>5}  {:<10} stations {:?}",
            rec.tick,
            format!("{:?}", rec.outcome),
            ids
        );
    }

    // The Theorem-2 subnetwork stays small: report its final extent.
    let sub = ins.subnetwork_sites().len();
    println!(
        "\nvalidation subnetwork: {} of {} station cells (k + |INS|)",
        sub,
        world.sites.len()
    );
    let frag: usize = ins
        .subnetwork_sites()
        .iter()
        .map(|&s| world.nvd.cell_fragments(&net, s).len())
        .sum();
    println!(
        "covering {frag} edge fragments of {} edges total",
        net.num_edges()
    );
}
