//! E8 as a criterion bench: per-tick validation kernels.
//!
//! `ins_scan` is the paper's O(k + |IS|) distance scan; `okv_point_in_poly`
//! the strict safe-region containment test; `vstar_known_region` the
//! V*-diagram radius check (excluding its per-drift re-rank).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use insq_bench::euclidean_exp::build_index;
use insq_core::{influential_neighbor_set, validate_by_distance};
use insq_geom::Point;
use insq_paper::order_k_cell;
use insq_workload::Distribution;
use std::hint::black_box;

fn bench_validation(c: &mut Criterion) {
    let index = build_index(10_000, Distribution::Uniform, 5);
    let q = Point::new(47.3, 52.9);
    let q2 = Point::new(47.32, 52.89);
    let mut group = c.benchmark_group("validation");
    group.sample_size(60);

    for k in [2usize, 8, 32] {
        let knn: Vec<_> = index.knn(q, k).into_iter().map(|(s, _)| s).collect();
        let ins = influential_neighbor_set(index.voronoi(), &knn);
        let cell = order_k_cell(
            index.voronoi().points(),
            &knn,
            &ins,
            &index.voronoi().bounds(),
        );
        let x = (k / 2).max(2);
        let retrieved = index.knn(q, k + x);
        let known_radius = retrieved.last().unwrap().1;
        let points = index.voronoi().points();

        group.bench_with_input(BenchmarkId::new("ins_scan", k), &k, |b, _| {
            b.iter(|| black_box(validate_by_distance(points, black_box(q2), &knn, &ins)))
        });
        group.bench_with_input(BenchmarkId::new("okv_point_in_poly", k), &k, |b, _| {
            b.iter(|| black_box(cell.contains(black_box(q2))))
        });
        group.bench_with_input(BenchmarkId::new("vstar_known_region", k), &k, |b, _| {
            b.iter(|| {
                let kth = retrieved[k - 1].0;
                let d = index.point(kth).distance(black_box(q2));
                black_box(d <= known_radius - q2.distance(q))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_validation);
criterion_main!(benches);
