//! E1/E3 as criterion benches: end-to-end per-tick cost of each method
//! along a fixed trajectory segment (100 ticks per iteration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use insq_baselines::{NaiveProcessor, OkvProcessor, VStarConfig, VStarProcessor};
use insq_bench::euclidean_exp::build_index;
use insq_core::{InsConfig, InsProcessor, MovingKnn};
use insq_geom::{Aabb, Point};
use insq_workload::{Distribution, TrajectoryKind};
use std::hint::black_box;

const TICKS: usize = 100;

fn positions() -> Vec<Point> {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let traj = TrajectoryKind::RandomWaypoint { waypoints: 10 }.generate(&space, 7);
    (0..TICKS)
        .map(|i| traj.position_looped(0.05 * i as f64))
        .collect()
}

fn bench_methods_vs_k(c: &mut Criterion) {
    let index = build_index(10_000, Distribution::Uniform, 2016);
    let rtree = index.rtree();
    let positions = positions();

    let mut group = c.benchmark_group("per_tick_vs_k");
    group.throughput(Throughput::Elements(TICKS as u64));
    group.sample_size(30);
    for k in [1usize, 8, 32] {
        group.bench_with_input(BenchmarkId::new("INS", k), &k, |b, &k| {
            b.iter(|| {
                let mut p = InsProcessor::new(&index, InsConfig::new(k, 1.6)).unwrap();
                for &pos in &positions {
                    black_box(p.tick(pos));
                }
            })
        });
        // OkV and V* own an R-tree: each iteration starts from a clone of
        // one fresh processor, so the tree's bulk load stays out of the loop.
        let okv = OkvProcessor::new(&index, k).unwrap();
        group.bench_with_input(BenchmarkId::new("OkV", k), &k, |b, _| {
            b.iter(|| {
                let mut p = okv.clone();
                for &pos in &positions {
                    black_box(p.tick(pos));
                }
            })
        });
        let vstar = VStarProcessor::new(&index, VStarConfig::with_k(k)).unwrap();
        group.bench_with_input(BenchmarkId::new("Vstar", k), &k, |b, _| {
            b.iter(|| {
                let mut p = vstar.clone();
                for &pos in &positions {
                    black_box(p.tick(pos));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("Naive", k), &k, |b, &k| {
            b.iter(|| {
                let mut p = NaiveProcessor::new(&rtree, k).unwrap();
                for &pos in &positions {
                    black_box(p.tick(pos));
                }
            })
        });
    }
    group.finish();
}

fn bench_ins_vs_n(c: &mut Criterion) {
    let positions = positions();
    let mut group = c.benchmark_group("ins_per_tick_vs_n");
    group.throughput(Throughput::Elements(TICKS as u64));
    group.sample_size(20);
    for n in [1_000usize, 10_000, 100_000] {
        let index = build_index(n, Distribution::Uniform, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut p = InsProcessor::new(&index, InsConfig::new(8, 1.6)).unwrap();
                for &pos in &positions {
                    black_box(p.tick(pos));
                }
            })
        });
    }
    group.finish();
}

fn bench_continuous_events(c: &mut Criterion) {
    // The exact event-trace extension: cost of computing the complete kNN
    // change sequence along a space-crossing segment.
    let index = build_index(10_000, Distribution::Uniform, 5);
    let a = Point::new(10.0, 15.0);
    let b = Point::new(90.0, 85.0);
    let mut group = c.benchmark_group("continuous_events");
    group.sample_size(20);
    for k in [1usize, 5, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bch, &k| {
            bch.iter(|| {
                black_box(
                    insq_paper::knn_change_events(&index, k, black_box(a), black_box(b))
                        .expect("valid configuration"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_methods_vs_k,
    bench_ins_vs_n,
    bench_continuous_events
);
criterion_main!(benches);
