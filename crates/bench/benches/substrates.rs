//! Substrate micro-benchmarks: the building blocks every experiment rests
//! on — Delaunay construction, index loading, kNN search, shortest paths
//! and the network Voronoi diagram.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use insq_geom::{Aabb, Point};
use insq_index::rtree::Entry;
use insq_index::{RTree, VorTree};
use insq_roadnet::dijkstra::distances_from_vertex;
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq_roadnet::{NetworkVoronoi, SiteSet, VertexId};
use insq_voronoi::{Triangulation, Voronoi};
use insq_workload::Distribution;
use std::hint::black_box;

fn space() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

fn bench_delaunay(c: &mut Criterion) {
    let mut group = c.benchmark_group("delaunay_build");
    group.sample_size(20);
    for n in [1_000usize, 10_000, 50_000, 100_000] {
        let points = Distribution::Uniform.generate(n, &space(), 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(Triangulation::build(black_box(&points)).unwrap()))
        });
    }
    group.finish();
}

fn bench_indexes(c: &mut Criterion) {
    let n = 10_000;
    let points = Distribution::Uniform.generate(n, &space(), 2);
    let entries: Vec<Entry> = points
        .iter()
        .enumerate()
        .map(|(i, &p)| Entry {
            point: p,
            id: i as u32,
        })
        .collect();

    let mut group = c.benchmark_group("index");
    group.sample_size(20);
    group.bench_function("rtree_bulk_load_10k", |b| {
        b.iter(|| black_box(RTree::bulk_load(black_box(entries.clone()))))
    });
    group.bench_function("voronoi_build_10k", |b| {
        b.iter(|| {
            black_box(Voronoi::build(black_box(points.clone()), space().inflated(10.0)).unwrap())
        })
    });
    // The benchmark's scale: the whole set-up build, diagram and tree.
    let points_100k = Distribution::Uniform.generate(100_000, &space(), 3);
    group.bench_function("vortree_build_100k", |b| {
        b.iter(|| {
            black_box(
                VorTree::build(black_box(points_100k.clone()), space().inflated(10.0)).unwrap(),
            )
        })
    });

    let rtree = RTree::bulk_load(entries);
    let vortree = VorTree::build(points, space().inflated(10.0)).unwrap();
    let q = Point::new(31.4, 15.9);
    group.sample_size(100);
    for k in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("rtree_knn", k), &k, |b, &k| {
            b.iter(|| black_box(rtree.knn(black_box(q), k)))
        });
        group.bench_with_input(BenchmarkId::new("vortree_knn", k), &k, |b, &k| {
            b.iter(|| black_box(vortree.knn(black_box(q), k)))
        });
    }
    group.finish();
}

fn bench_roadnet(c: &mut Criterion) {
    let net = grid_network(
        &GridConfig {
            cols: 40,
            rows: 40,
            ..GridConfig::default()
        },
        7,
    )
    .unwrap();
    let sites = SiteSet::new(&net, random_site_vertices(&net, 100, 3).unwrap()).unwrap();

    let mut group = c.benchmark_group("roadnet");
    group.sample_size(30);
    group.bench_function("dijkstra_full_1600v", |b| {
        b.iter(|| black_box(distances_from_vertex(&net, black_box(VertexId(0)))))
    });
    group.bench_function("nvd_build_100_sites", |b| {
        b.iter(|| black_box(NetworkVoronoi::build(&net, &sites)))
    });
    let nvd = NetworkVoronoi::build(&net, &sites);
    group.bench_function("astar_corner_to_corner", |b| {
        b.iter(|| {
            black_box(insq_roadnet::astar::astar(
                &net,
                black_box(VertexId(0)),
                black_box(VertexId(1599)),
            ))
        })
    });
    group.bench_function("ine_knn_k8", |b| {
        b.iter(|| {
            black_box(insq_roadnet::ine::network_knn(
                &net,
                &sites,
                insq_roadnet::NetPosition::Vertex(black_box(VertexId(820))),
                8,
            ))
        })
    });
    // The Theorem-2 probe around vertex 820: a fresh restricted expansion,
    // then the same search on a tick that stays on its edge, where the
    // anchored kernel merges two held k-lists instead.
    let scope_mask = {
        let pos = insq_roadnet::NetPosition::Vertex(VertexId(820));
        let knn: Vec<_> = insq_roadnet::ine::network_knn(&net, &sites, pos, 8)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let ins = insq_core::influential_neighbor_set_net(&nvd, &knn);
        let mut mask = insq_roadnet::SiteMask::new(sites.len());
        mask.set(knn.iter().copied().chain(ins.iter().copied()));
        mask
    };
    group.bench_function("restricted_knn_k8", |b| {
        use insq_roadnet::subnetwork::restricted_knn;
        let pos = insq_roadnet::NetPosition::Vertex(VertexId(820));
        b.iter(|| {
            black_box(restricted_knn(
                &net,
                &sites,
                &nvd,
                &scope_mask,
                black_box(pos),
                8,
            ))
        })
    });
    group.bench_function("anchored_validate_k8", |b| {
        use insq_roadnet::subnetwork::{anchored_knn_into, EdgeAnchors};
        use insq_roadnet::{DijkstraScratch, NetPosition};
        let (_, edge) = net.neighbors(VertexId(820))[0];
        let len = net.edge(edge).len;
        let (mut dij, mut anchors, mut out) =
            (DijkstraScratch::new(), EdgeAnchors::default(), Vec::new());
        let mut tick = 0u32;
        b.iter(|| {
            tick = (tick + 1) % 8;
            let offset = (0.1 + 0.1 * f64::from(tick)) * len;
            let pos = black_box(NetPosition::on_edge(&net, edge, offset).unwrap());
            anchored_knn_into(
                &net,
                &sites,
                &nvd,
                &scope_mask,
                &mut dij,
                &mut anchors,
                pos,
                8,
                &mut out,
            );
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_delaunay, bench_indexes, bench_roadnet);
criterion_main!(benches);
