//! E9 as a criterion bench: safe-region construction kernels per
//! recomputation — the axis on which the INS wins by design.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insq_bench::euclidean_exp::build_index;
use insq_core::influential_neighbor_set;
use insq_geom::Point;
use insq_paper::order_k_cell;
use insq_workload::Distribution;
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let index = build_index(10_000, Distribution::Uniform, 5);
    let rtree = index.rtree();
    let q = Point::new(47.3, 52.9);
    let mut group = c.benchmark_group("construction");
    group.sample_size(60);

    for k in [2usize, 8, 32] {
        let knn: Vec<_> = index.knn(q, k).into_iter().map(|(s, _)| s).collect();
        let ins = influential_neighbor_set(index.voronoi(), &knn);
        let voronoi = index.voronoi();

        group.bench_with_input(BenchmarkId::new("ins_neighbor_union", k), &k, |b, _| {
            b.iter(|| black_box(influential_neighbor_set(voronoi, black_box(&knn))))
        });
        group.bench_with_input(BenchmarkId::new("okv_order_k_cell", k), &k, |b, _| {
            b.iter(|| {
                black_box(order_k_cell(
                    voronoi.points(),
                    black_box(&knn),
                    &ins,
                    &voronoi.bounds(),
                ))
            })
        });
        let x = (k / 2).max(2);
        group.bench_with_input(BenchmarkId::new("vstar_retrieve", k), &k, |b, _| {
            b.iter(|| black_box(rtree.knn(black_box(q), k + x)))
        });
        group.bench_with_input(BenchmarkId::new("ins_full_prefetch", k), &k, |b, _| {
            // The whole INS recomputation: ⌊ρk⌋-NN search + neighbor union.
            b.iter(|| {
                let m = ((1.6 * k as f64).floor() as usize).max(k);
                let r: Vec<_> = index
                    .knn(black_box(q), m)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect();
                black_box(influential_neighbor_set(voronoi, &r))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
