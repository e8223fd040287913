//! Road-network experiments (E7).

use std::sync::Arc;

use insq_baselines::NetNaiveProcessor;
use insq_core::{InsConfig, NetInsProcessor};
use insq_roadnet::generators::{
    grid_network, random_site_vertices, ring_radial_network, GridConfig,
};
use insq_roadnet::{NetTrajectory, NetworkWorld, RoadNetwork, SiteSet};
use insq_server::parallel_map;
use insq_sim::run_network;

use crate::Effort;

/// E7: network-mode cost and communication vs k, INS vs naive INE.
pub fn e7_network_vs_k(effort: Effort) -> String {
    let ks = effort.thin(&[1usize, 2, 4, 8, 16]);
    let ticks = effort.ticks(3_000);

    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 40,
                rows: 40,
                spacing: 1.0,
                jitter: 0.2,
                diagonal_prob: 0.08,
                deletion_prob: 0.08,
            },
            2016,
        )
        .expect("valid grid"),
    );
    let sites = SiteSet::new(
        &net,
        random_site_vertices(&net, 120, 7).expect("enough vertices"),
    )
    .expect("distinct sites");
    let world = NetworkWorld::build(Arc::clone(&net), sites);
    let tour = NetTrajectory::random_tour(&net, 15, 3).expect("connected network");

    let mut out = format!(
        "grid {}x{} ({} vertices, {} edges), 120 sites, rho=1.6, speed 0.03/tick\n",
        40,
        40,
        net.num_vertices(),
        net.num_edges()
    );
    out.push_str(&format!(
        "{:<5} {:<11} {:>10} {:>8} {:>9} {:>12} {:>12} {:>9}\n",
        "k", "method", "recompute", "local", "comm", "settled/tick", "us/tick", "valid%"
    ));

    let cells = parallel_map(ks, |&k| {
        let mut ins =
            NetInsProcessor::new(&world, InsConfig::new(k, 1.6)).expect("valid configuration");
        let run_ins = run_network(&mut ins, &net, &tour, ticks, 0.03);
        let mut naive = NetNaiveProcessor::new(&net, &world.sites, k).expect("valid configuration");
        let run_naive = run_network(&mut naive, &net, &tour, ticks, 0.03);
        (k, run_ins, run_naive)
    });

    for (k, run_ins, run_naive) in &cells {
        for run in [run_ins, run_naive] {
            let s = &run.stats;
            out.push_str(&format!(
                "{:<5} {:<11} {:>10} {:>8} {:>9} {:>12.1} {:>12.2} {:>8.1}%\n",
                k,
                run.method,
                s.recomputations,
                s.swaps + s.local_reranks,
                s.comm_objects,
                (s.validation_ops + s.search_ops) as f64 / s.ticks as f64,
                run.elapsed.as_secs_f64() * 1e6 / s.ticks as f64,
                100.0 * s.valid_ticks as f64 / s.ticks as f64,
            ));
        }
    }
    out.push_str(
        "\nexpected shape: naive ships k objects every tick and re-expands from\n\
         scratch; INS validates on the Theorem-2 subnetwork (k + |INS| cells) and\n\
         contacts the server only on true order-k cell exits, so communication is\n\
         orders of magnitude lower at every k.\n",
    );

    // Topology robustness: the same comparison on a ring-radial network.
    let ring = ring_radial_network(12, 24, 1.0, 2016).expect("valid ring-radial");
    out.push_str(&format!(
        "\nring-radial topology ({} vertices, {} edges), 60 sites, k=4:\n",
        ring.num_vertices(),
        ring.num_edges()
    ));
    out.push_str(&run_pair(ring, 60, 4, effort.ticks(2_000)));
    out.push_str("\nexpected shape: unchanged — the INS algorithm is topology-agnostic.\n");
    out
}

/// Runs INS-road vs Naive-road on one network; returns two table rows.
fn run_pair(net: RoadNetwork, site_count: usize, k: usize, ticks: usize) -> String {
    let net = Arc::new(net);
    let sites = SiteSet::new(
        &net,
        random_site_vertices(&net, site_count, 5).expect("sites"),
    )
    .expect("distinct sites");
    let world = NetworkWorld::build(Arc::clone(&net), sites);
    let tour = NetTrajectory::random_tour(&net, 10, 9).expect("connected");
    let mut out = String::new();
    let mut ins = NetInsProcessor::new(&world, InsConfig::new(k, 1.6)).expect("valid");
    let run_ins = run_network(&mut ins, &net, &tour, ticks, 0.03);
    let mut naive = NetNaiveProcessor::new(&net, &world.sites, k).expect("valid");
    let run_naive = run_network(&mut naive, &net, &tour, ticks, 0.03);
    for run in [&run_ins, &run_naive] {
        let s = &run.stats;
        out.push_str(&format!(
            "  {:<11} recompute={:<5} local={:<5} comm={:<7} settled/tick={:<8.1} us/tick={:.2}\n",
            run.method,
            s.recomputations,
            s.swaps + s.local_reranks,
            s.comm_objects,
            (s.validation_ops + s.search_ops) as f64 / s.ticks as f64,
            run.elapsed.as_secs_f64() * 1e6 / s.ticks as f64,
        ));
    }
    out
}
