//! Regeneration of the paper's four figures as text reports.

use insq_core::{
    influential_neighbor_set, influential_neighbor_set_net, InsConfig, InsProcessor, MovingKnn,
    NetInsProcessor,
};
use insq_geom::{Aabb, Point, Trajectory};
use insq_index::VorTree;
use insq_paper::order_k::{network_mis, order_k_diagram, site_distance_matrix};
use insq_paper::{minimal_influential_set, order_k_cell_tagged, safe_region, validation_circles};
use insq_roadnet::graph::EdgeRec;
use insq_roadnet::{NetTrajectory, NetworkVoronoi, RoadNetwork, SiteIdx, SiteSet, VertexId};
use insq_sim::{render_euclidean, render_network};
use insq_voronoi::{SiteId, Voronoi};
use insq_workload::Distribution;

use crate::Effort;

/// The 12-point configuration reconstructing Fig. 1's structure (see
/// tests/fig1.rs, which asserts the structure the figure annotates).
pub fn fig1_points() -> Vec<Point> {
    vec![
        Point::new(0.0, 8.5),
        Point::new(8.3, 7.9),
        Point::new(2.1, 5.2),
        Point::new(4.1, 4.4),
        Point::new(6.9, 4.9),
        Point::new(3.6, 3.1),
        Point::new(5.2, 3.4),
        Point::new(0.3, 2.6),
        Point::new(8.9, 2.2),
        Point::new(5.9, 1.4),
        Point::new(0.9, 0.3),
        Point::new(3.2, 0.8),
    ]
}

/// Fig. 1: MIS of `O' = {p4, p6, p7}` via adjacent order-3 cells.
pub fn fig1(_effort: Effort) -> String {
    let bounds = Aabb::new(Point::new(-3.0, -3.0), Point::new(12.0, 12.0));
    let voronoi = Voronoi::build(fig1_points(), bounds).expect("general position");
    let knn = vec![SiteId(3), SiteId(5), SiteId(6)]; // p4, p6, p7
    let all: Vec<SiteId> = (0..12).map(SiteId).collect();
    let cell = order_k_cell_tagged(voronoi.points(), &knn, &all, &bounds);

    let name = |s: SiteId| format!("p{}", s.0 + 1);
    let mut out = format!(
        "O' = {{{}}} ; cell V^3(O') has {} vertices, area {:.3}\n\nadjacent order-3 cells (swap pairs):\n",
        knn.iter().map(|&s| name(s)).collect::<Vec<_>>().join(", "),
        cell.vertices().len(),
        cell.polygon().area()
    );
    for (inside, outside) in cell.boundary_swaps() {
        let mut triple: Vec<String> = knn
            .iter()
            .filter(|&&s| s != inside)
            .map(|&s| name(s))
            .collect();
        triple.push(name(outside));
        triple.sort();
        out.push_str(&format!(
            "  crossing the {} | {} bisector -> cell ({})\n",
            name(inside),
            name(outside),
            triple.join(", ")
        ));
    }
    let mis = minimal_influential_set(&voronoi, &knn).expect("non-empty cell");
    let ins = influential_neighbor_set(&voronoi, &knn);
    out.push_str(&format!(
        "\nMIS(O') = {{{}}}\nINS(O')  = {{{}}}\nMIS subset of INS: {}\n",
        mis.iter().map(|&s| name(s)).collect::<Vec<_>>().join(", "),
        ins.iter().map(|&s| name(s)).collect::<Vec<_>>().join(", "),
        mis.iter().all(|m| ins.contains(m)),
    ));
    out.push_str(
        "\n(paper's instance: MIS(O') = {p3, p5, p10, p12} from cells (6,7,12), (3,6,7),\n\
         (3,4,7), (4,5,7), (4,7,10), (6,7,10); same structure, reconstructed geometry)\n",
    );
    out
}

/// The reconstructed Fig. 2 network (14 vertices, 9 objects); see
/// tests/fig2.rs for the design rationale.
pub fn fig2_network() -> (RoadNetwork, SiteSet) {
    let coords = vec![
        Point::new(10.0, 20.0),
        Point::new(0.0, 20.0),
        Point::new(-20.0, 0.0),
        Point::new(22.0, 0.0),
        Point::new(-10.0, 0.0),
        Point::new(0.0, 0.0),
        Point::new(10.0, 0.0),
        Point::new(10.0, 12.0),
        Point::new(0.0, 12.0),
        Point::new(5.0, 0.0),
        Point::new(0.0, 5.0),
        Point::new(10.0, 5.0),
        Point::new(30.0, 0.0),
        Point::new(-26.0, 0.0),
    ];
    let e = |u: u32, v: u32, len: f64| EdgeRec {
        u: VertexId(u),
        v: VertexId(v),
        len,
    };
    let edges = vec![
        e(5, 9, 5.0),
        e(9, 6, 5.0),
        e(5, 4, 10.4),
        e(4, 2, 10.0),
        e(2, 13, 6.0),
        e(6, 3, 12.0),
        e(3, 12, 8.0),
        e(5, 10, 5.0),
        e(10, 8, 7.0),
        e(8, 1, 8.0),
        e(6, 11, 5.0),
        e(11, 7, 7.0),
        e(7, 0, 8.0),
    ];
    let net = RoadNetwork::new(coords, edges).expect("valid reconstruction");
    let sites = SiteSet::new(&net, (0..9).map(VertexId).collect()).expect("distinct sites");
    (net, sites)
}

/// Fig. 2: order-2 network Voronoi cells, MIS and the mid-point b.
pub fn fig2(_effort: Effort) -> String {
    let (net, sites) = fig2_network();
    let nvd = NetworkVoronoi::build(&net, &sites);
    let matrix = site_distance_matrix(&net, &sites);
    let name = |s: SiteIdx| format!("p{}", s.0 + 1);

    let mut out = format!(
        "reconstructed network: {} vertices, {} edges, {} objects\n\norder-2 cell segments:\n",
        net.num_vertices(),
        net.num_edges(),
        sites.len()
    );
    for seg in order_k_diagram(&net, &matrix, 2) {
        let rec = net.edge(seg.edge);
        out.push_str(&format!(
            "  edge {}-{} [{:>5.2}, {:>5.2}] -> ({})\n",
            rec.u,
            rec.v,
            seg.from,
            seg.to,
            seg.knn_set
                .iter()
                .map(|&s| name(s))
                .collect::<Vec<_>>()
                .join(","),
        ));
    }

    let knn = [SiteIdx(5), SiteIdx(6)]; // p6, p7
    let mis = network_mis(&net, &matrix, &knn, 2);
    let ins = influential_neighbor_set_net(&nvd, &knn);
    out.push_str(&format!(
        "\nOknn = {{p6, p7}}\nMIS  = {{{}}}   (paper: {{p4, p5, p8, p9}})\nINS  = {{{}}}\nTheorem 1 (MIS subset of INS): {}\n",
        mis.iter().map(|&s| name(s)).collect::<Vec<_>>().join(", "),
        ins.iter().map(|&s| name(s)).collect::<Vec<_>>().join(", "),
        mis.iter().all(|m| ins.contains(m)),
    ));

    out.push_str("\nborder (mid-)points of the order-1 network Voronoi diagram:\n");
    for b in nvd.border_points(&net) {
        let rec = net.edge(b.edge);
        out.push_str(&format!(
            "  b on edge {}-{} at offset {:.2}: between {} and {}\n",
            rec.u,
            rec.v,
            b.offset,
            name(b.site_u),
            name(b.site_v)
        ));
    }
    out
}

/// Fig. 3: Road Network demo, k = 5 — event trace plus ASCII frames.
pub fn fig3(effort: Effort) -> String {
    use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};

    let net = grid_network(
        &GridConfig {
            cols: 12,
            rows: 12,
            spacing: 1.0,
            jitter: 0.15,
            diagonal_prob: 0.08,
            deletion_prob: 0.08,
        },
        2016,
    )
    .expect("valid grid");
    let net = std::sync::Arc::new(net);
    let site_vertices = random_site_vertices(&net, 25, 5).expect("enough vertices");
    let sites = SiteSet::new(&net, site_vertices.clone()).expect("distinct");
    let world = insq_roadnet::NetworkWorld::build(std::sync::Arc::clone(&net), sites);
    let tour = NetTrajectory::random_tour(&net, 8, 2).expect("connected");
    let mut query =
        NetInsProcessor::new(&world, InsConfig::new(5, 1.6)).expect("valid configuration");

    let ticks = effort.ticks(1_500);
    let speed = tour.length() / ticks as f64;
    let mut out = format!(
        "road network demo: {} vertices, 25 objects, k=5, rho=1.6, {} ticks\n\n",
        net.num_vertices(),
        ticks
    );
    let window = Aabb::of_points(net.coords().iter().copied())
        .expect("non-empty")
        .inflated(0.5);

    let mut frames = 0;
    for tick in 0..ticks {
        let pos = tour.position(&net, speed * tick as f64);
        let outcome = query.tick(pos);
        if outcome.changed() && frames < 3 {
            frames += 1;
            let knn: Vec<usize> = query.current_knn().iter().map(|s| s.idx()).collect();
            let ins: Vec<usize> = query.influential_set().iter().map(|s| s.idx()).collect();
            out.push_str(&format!(
                "tick {tick}: {outcome:?}; kNN (K) and INS (i) cells below\n{}\n\n",
                render_network(
                    &net,
                    &site_vertices,
                    &knn,
                    &ins,
                    pos.to_point(&net),
                    window,
                    66,
                    22
                )
            ));
        }
    }
    let s = query.stats();
    out.push_str(&format!(
        "totals: {} ticks | valid {} | swaps {} | re-ranks {} | recomputations {} | comm {}\n\
         validation settles/tick: {:.1} (Theorem-2 subnetwork of {} cells)\n",
        s.ticks,
        s.valid_ticks,
        s.swaps,
        s.local_reranks,
        s.recomputations,
        s.comm_objects,
        s.validation_ops as f64 / s.ticks as f64,
        query.subnetwork_sites().len(),
    ));
    out
}

/// Fig. 4: 2D Plane demo, k = 5, rho = 1.6 — the valid/invalid flip with
/// the green/red circle radii, plus frames of both states.
pub fn fig4(effort: Effort) -> String {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let points = Distribution::Uniform.generate(180, &space, 2016);
    let index = VorTree::build(points.clone(), space.inflated(10.0)).expect("valid data");
    let mut query = InsProcessor::new(&index, InsConfig::new(5, 1.6)).expect("valid configuration");

    let trajectory = Trajectory::new(vec![
        Point::new(18.0, 30.0),
        Point::new(50.0, 62.0),
        Point::new(82.0, 38.0),
    ])
    .expect("valid trajectory");

    let ticks = effort.ticks(400);
    let mut out = format!("2D plane demo: n=180, k=5, rho=1.6, {ticks} ticks\n\n");
    let mut shown_valid = false;
    let mut shown_invalid = false;
    for tick in 0..ticks {
        let pos = trajectory.position(trajectory.length() * tick as f64 / ticks as f64);
        let outcome = query.tick(pos);
        let want_frame = (!shown_valid && tick > 3 && !outcome.changed())
            || (!shown_invalid && outcome.changed() && tick > 3);
        if !want_frame {
            continue; // keep simulating; totals below cover the full run
        }
        let (green, red) = validation_circles(&query).expect("both circles exist mid-run");
        let knn: Vec<usize> = query.current_knn().iter().map(|s| s.idx()).collect();
        let ins: Vec<usize> = query.influential_set().iter().map(|s| s.idx()).collect();
        let region = safe_region(&query);
        let state = if outcome.changed() {
            shown_invalid = true;
            "(b) the kNN set had become INVALID and was updated"
        } else {
            shown_valid = true;
            "(a) the kNN set is valid"
        };
        out.push_str(&format!(
            "tick {tick}: {state}\n\
             green circle (farthest kNN) r = {:.2}; red circle (nearest INS) r = {:.2}\n{}\n\n",
            green.radius,
            red.radius,
            render_euclidean(&points, &knn, &ins, pos, Some(&region), space, 66, 22)
        ));
    }
    let s = query.stats();
    out.push_str(&format!(
        "totals: {} ticks processed | valid {} | swaps {} | re-ranks {} | recomputations {}\n",
        s.ticks, s.valid_ticks, s.swaps, s.local_reranks, s.recomputations
    ));
    out
}
