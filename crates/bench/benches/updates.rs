//! Incremental index maintenance kernels — delta application (a
//! localized repair on a fresh clone, or through `World::apply` on the
//! reclaimed previous snapshot) vs the from-scratch rebuild it replaces,
//! for both index substrates: site deltas, and edge-weight (traffic)
//! deltas on the road network.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insq_geom::Point;
use insq_index::{SiteDelta, VorTree};
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig, SplitMix64};
use insq_roadnet::{EdgeId, EdgeWeight, NetworkVoronoi, SiteIdx, SiteSet, VertexId};
use insq_server::World;
use insq_voronoi::SiteId;
use insq_workload::Distribution;
use std::hint::black_box;

fn bench_updates(c: &mut Criterion) {
    let space = insq_geom::Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let n = 5_000;
    let points = Distribution::Uniform.generate(n, &space, 3);
    let index = Arc::new(VorTree::build(points, space.inflated(10.0)).expect("valid data"));

    let mut group = c.benchmark_group("updates");
    group.sample_size(20);

    for d in [1usize, 16, 128] {
        let mut rng = SplitMix64::new(d as u64);
        let mut delta = SiteDelta::default();
        let mut used = std::collections::BTreeSet::new();
        while used.len() < d {
            used.insert(SiteId(rng.below(n) as u32));
        }
        delta.removed = used.into_iter().collect();
        while delta.added.len() < d {
            delta
                .added
                .push(Point::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)));
        }
        group.bench_with_input(BenchmarkId::new("vortree_apply_delta", d), &d, |b, _| {
            b.iter(|| {
                let mut patched = (*index).clone();
                patched.apply(black_box(&delta)).expect("valid delta");
                black_box(patched.len())
            })
        });
    }
    // A world nobody reads, growing and shrinking by 16 sites in turn:
    // every `apply` but the first reclaims the snapshot retired one
    // epoch ago and replays the delta it missed — no clone, so this is to
    // `vortree_apply_delta/16` what `server.apply_us` is to
    // `index.apply_us`.
    let world = World::new((*index).clone());
    let mut rng = SplitMix64::new(0x57ead);
    let grow = SiteDelta::insert(
        (0..16)
            .map(|_| Point::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)))
            .collect(),
    );
    let shrink = SiteDelta::remove((n as u32..n as u32 + 16).map(SiteId).collect());
    let mut grown = false;
    group.bench_with_input(BenchmarkId::new("world_apply_steady", 16), &16, |b, _| {
        b.iter(|| {
            grown = !grown;
            black_box(world.apply(if grown { &grow } else { &shrink })).expect("valid delta")
        })
    });
    group.bench_with_input(BenchmarkId::new("vortree_rebuild", n), &n, |b, _| {
        b.iter(|| {
            black_box(
                VorTree::build(index.voronoi().points().to_vec(), index.voronoi().bounds())
                    .expect("valid data"),
            )
            .len()
        })
    });

    let net = grid_network(
        &GridConfig {
            cols: 25,
            rows: 25,
            ..GridConfig::default()
        },
        9,
    )
    .expect("valid grid");
    let sites = SiteSet::new(&net, random_site_vertices(&net, 200, 13).unwrap()).unwrap();
    let nvd = NetworkVoronoi::build(&net, &sites);
    let free = (0..net.num_vertices() as u32)
        .map(VertexId)
        .find(|&v| sites.site_at(v).is_none())
        .expect("a free vertex");

    group.bench_with_input(BenchmarkId::new("nvd_insert_site", 1), &1, |b, _| {
        b.iter(|| {
            let mut s = sites.clone();
            let mut d = nvd.clone();
            s.insert(&net, free).expect("free vertex");
            black_box(d.insert_site(&net, black_box(free)))
        })
    });
    group.bench_with_input(BenchmarkId::new("nvd_remove_site", 1), &1, |b, _| {
        b.iter(|| {
            let mut s = sites.clone();
            let mut d = nvd.clone();
            let moved = s.remove(SiteIdx(7)).expect("removable site");
            d.remove_site(&net, SiteIdx(7), moved);
            black_box(d.num_sites())
        })
    });
    group.bench_with_input(
        BenchmarkId::new("nvd_rebuild", sites.len()),
        &sites.len(),
        |b, _| b.iter(|| black_box(NetworkVoronoi::build(&net, &sites)).num_sites()),
    );
    // A traffic storm: `d` random edges congested 2.5x, repaired from the
    // changed edges outward (what `NetworkWorld::apply_delta` does per
    // weight delta) — to be read against `nvd_rebuild` above.
    for d in [8usize, 64] {
        let mut rng = SplitMix64::new(0x57081 + d as u64);
        let mut edges = std::collections::BTreeSet::new();
        while edges.len() < d {
            edges.insert(EdgeId(rng.below(net.num_edges()) as u32));
        }
        let changed: Vec<EdgeId> = edges.into_iter().collect();
        let storm: Vec<EdgeWeight> = changed
            .iter()
            .map(|&e| EdgeWeight::scaled(&net, e, 2.5))
            .collect();
        group.bench_with_input(BenchmarkId::new("nvd_reweight_storm", d), &d, |b, _| {
            b.iter(|| {
                let congested = net.reweighted(black_box(&storm)).expect("valid storm");
                let mut repaired = nvd.clone();
                repaired.reweight_edges(&net, &congested, &changed);
                black_box(repaired.num_sites())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
