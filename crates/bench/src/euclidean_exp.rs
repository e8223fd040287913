//! Euclidean-mode experiments (E1–E6, E8, E9, ablation).
//!
//! Every experiment runs all competing methods over the *same* data set
//! and trajectory, so the rows of each table differ only in the method.
//! Sweep cells are independent and run on a small thread pool.

use std::hint::black_box;
use std::time::Instant;

use insq_baselines::{NaiveProcessor, OkvProcessor, VStarConfig, VStarProcessor};
use insq_core::{influential_neighbor_set, InsConfig, InsProcessor};
use insq_geom::{Aabb, Point, Trajectory};
use insq_index::VorTree;
use insq_sim::{run_euclidean, Comparison};
use insq_workload::{Distribution, TrajectoryKind};

use crate::Effort;

const SPACE: f64 = 100.0;
const BASE_SPEED: f64 = 0.05;

fn data_space() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(SPACE, SPACE))
}

/// Builds the VoR-tree for a scenario cell.
pub fn build_index(n: usize, dist: Distribution, seed: u64) -> VorTree {
    let points = dist.generate(n, &data_space(), seed);
    VorTree::build(points, data_space().inflated(10.0)).expect("generated data is valid")
}

fn trajectory(seed: u64) -> Trajectory {
    TrajectoryKind::RandomWaypoint { waypoints: 25 }.generate(&data_space(), seed)
}

/// Runs INS, OkV, V* and Naive over one scenario; returns the comparison.
pub fn run_all_methods(
    index: &VorTree,
    traj: &Trajectory,
    k: usize,
    rho: f64,
    ticks: usize,
    speed: f64,
) -> Comparison {
    let mut cmp = Comparison::new();
    let mut ins = InsProcessor::new(index, InsConfig::new(k, rho)).expect("valid k/rho");
    cmp.add(&run_euclidean(&mut ins, traj, ticks, speed));
    let mut okv = OkvProcessor::new(index, k).expect("valid k");
    cmp.add(&run_euclidean(&mut okv, traj, ticks, speed));
    let mut vstar = VStarProcessor::new(index, VStarConfig::with_k(k)).expect("valid k");
    cmp.add(&run_euclidean(&mut vstar, traj, ticks, speed));
    let rtree = index.rtree();
    let mut naive = NaiveProcessor::new(&rtree, k).expect("valid k");
    cmp.add(&run_euclidean(&mut naive, traj, ticks, speed));
    cmp
}

use insq_server::parallel_map;

fn methods_header() -> String {
    format!(
        "{:<6} {:<10} {:>10} {:>8} {:>9} {:>12} {:>10}\n",
        "param", "method", "recompute", "local", "comm", "total_ops", "us/tick"
    )
}

fn method_rows(param: &str, cmp: &Comparison) -> String {
    let mut out = String::new();
    for r in cmp.rows() {
        out.push_str(&format!(
            "{:<6} {:<10} {:>10} {:>8} {:>9} {:>12} {:>10.2}\n",
            param,
            r.method,
            r.recomputations,
            r.local_updates,
            r.comm_objects,
            r.validation_ops + r.search_ops + r.construction_ops,
            r.us_per_tick
        ));
    }
    out
}

/// E1: per-tick processing cost vs k.
pub fn e1_cost_vs_k(effort: Effort) -> String {
    let ks = effort.thin(&[1usize, 2, 4, 8, 16, 32, 64]);
    let ticks = effort.ticks(2_000);
    let index = build_index(10_000, Distribution::Uniform, 2016);
    let traj = trajectory(7);
    let mut out = String::from("n=10000 uniform, rho=1.6, x=clamp(k/2,2,8)\n");
    out.push_str(&methods_header());
    let cells = parallel_map(ks, |&k| {
        (k, run_all_methods(&index, &traj, k, 1.6, ticks, BASE_SPEED))
    });
    for (k, cmp) in &cells {
        out.push_str(&method_rows(&format!("k={k}"), cmp));
    }
    out.push_str(
        "\nexpected shape: INS lowest total cost; OkV similar recompute count but much\n\
         higher construction ops; V* more recomputations; Naive highest search cost.\n",
    );
    out
}

/// E2: communication cost vs k (same scenario as E1, comm columns).
pub fn e2_comm_vs_k(effort: Effort) -> String {
    let ks = effort.thin(&[1usize, 2, 4, 8, 16, 32, 64]);
    let ticks = effort.ticks(2_000);
    let index = build_index(10_000, Distribution::Uniform, 2016);
    let traj = trajectory(7);
    let mut out = String::from("objects transmitted server->client over the whole run\n");
    out.push_str(&format!(
        "{:<6} {:>10} {:>10} {:>10} {:>10}\n",
        "param", "INS", "OkV", "V*", "Naive"
    ));
    let cells = parallel_map(ks, |&k| {
        (k, run_all_methods(&index, &traj, k, 1.6, ticks, BASE_SPEED))
    });
    for (k, cmp) in &cells {
        let g = |m: &str| cmp.row(m).map(|r| r.comm_objects).unwrap_or(0);
        out.push_str(&format!(
            "k={:<4} {:>10} {:>10} {:>10} {:>10}\n",
            k,
            g("INS"),
            g("OkV"),
            g("V*"),
            g("Naive")
        ));
    }
    out.push_str(
        "\nexpected shape: Naive = k x ticks; INS and OkV ship objects only on true\n\
         safe-region exits; V* recomputes more often but ships small batches.\n",
    );
    out
}

/// E3: cost vs data set size.
pub fn e3_cost_vs_n(effort: Effort) -> String {
    let ns = effort.thin(&[1_000usize, 5_000, 10_000, 50_000, 100_000]);
    let ticks = effort.ticks(2_000);
    let traj = trajectory(7);
    let mut out = String::from("k=8, rho=1.6, uniform data\n");
    out.push_str(&methods_header());
    let cells = parallel_map(ns, |&n| {
        let index = build_index(n, Distribution::Uniform, 2016 + n as u64);
        (n, run_all_methods(&index, &traj, 8, 1.6, ticks, BASE_SPEED))
    });
    for (n, cmp) in &cells {
        out.push_str(&method_rows(&format!("{n}"), cmp));
    }
    out.push_str(
        "\nexpected shape: denser data => smaller cells => more recomputations for\n\
         every method; INS stays cheapest per tick throughout.\n",
    );
    out
}

/// E4: prefetch ratio sweep (INS only — rho is an INS parameter).
pub fn e4_rho(effort: Effort) -> String {
    let rhos = effort.thin(&[1.0f64, 1.2, 1.4, 1.6, 2.0, 2.5, 3.0]);
    let ticks = effort.ticks(4_000);
    let index = build_index(10_000, Distribution::Uniform, 11);
    let traj = trajectory(5);
    let mut out = String::from("n=10000, k=8: communication/recomputation trade-off\n");
    out.push_str(&format!(
        "{:>5} {:>11} {:>11} {:>10} {:>15}\n",
        "rho", "recomputes", "local fixes", "comm objs", "comm/recompute"
    ));
    let cells = parallel_map(rhos, |&rho| {
        let mut p = InsProcessor::new(&index, InsConfig::new(8, rho)).expect("valid rho");
        let run = run_euclidean(&mut p, &traj, ticks, BASE_SPEED);
        (rho, run.stats)
    });
    for (rho, s) in &cells {
        let per = if s.recomputations > 0 {
            s.comm_objects as f64 / s.recomputations as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>5.1} {:>11} {:>11} {:>10} {:>15.1}\n",
            rho,
            s.recomputations,
            s.swaps + s.local_reranks,
            s.comm_objects,
            per
        ));
    }
    out.push_str(
        "\nexpected shape: recomputations fall monotonically with rho while the\n\
         per-recomputation batch grows; total comm is U-shaped with the sweet spot\n\
         near the paper's demo value rho = 1.6.\n",
    );
    out
}

/// E5: query speed sweep.
pub fn e5_speed(effort: Effort) -> String {
    let mults = effort.thin(&[0.5f64, 1.0, 2.0, 4.0, 8.0]);
    let ticks = effort.ticks(2_000);
    let index = build_index(10_000, Distribution::Uniform, 13);
    let traj = trajectory(3);
    let mut out = String::from("n=10000, k=8, rho=1.6; speed multiplier over 0.05/tick\n");
    out.push_str(&methods_header());
    let cells = parallel_map(mults, |&m| {
        (
            m,
            run_all_methods(&index, &traj, 8, 1.6, ticks, BASE_SPEED * m),
        )
    });
    for (m, cmp) in &cells {
        out.push_str(&method_rows(&format!("x{m}"), cmp));
    }
    out.push_str(
        "\nexpected shape: recomputation counts grow ~linearly with speed for all\n\
         safe-region methods (more region exits per run); naive is speed-insensitive.\n",
    );
    out
}

/// E6: data distribution comparison.
pub fn e6_distribution(effort: Effort) -> String {
    let ticks = effort.ticks(2_000);
    let dists: Vec<(&str, Distribution)> = vec![
        ("unif", Distribution::Uniform),
        (
            "clust",
            Distribution::Clustered {
                clusters: 8,
                spread: 0.05,
            },
        ),
        ("grid", Distribution::GridJitter { jitter: 0.3 }),
    ];
    let traj = trajectory(9);
    let mut out = String::from("n=10000, k=8, rho=1.6\n");
    out.push_str(&methods_header());
    let cells = parallel_map(dists, |(name, dist)| {
        let index = build_index(10_000, *dist, 77);
        (
            *name,
            run_all_methods(&index, &traj, 8, 1.6, ticks, BASE_SPEED),
        )
    });
    for (name, cmp) in &cells {
        out.push_str(&method_rows(name, cmp));
    }
    out.push_str(
        "\nexpected shape: clustered data mixes tiny cells (inside clusters) with huge\n\
         ones (between clusters); relative method ranking is unchanged.\n",
    );
    out
}

/// Mean wall-clock nanoseconds per call of `f` over `reps` calls.
fn mean_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// E8: isolated per-tick validation kernels, wall-clock.
pub fn e8_validation_micro(effort: Effort) -> String {
    let reps = match effort {
        Effort::Quick => 20_000,
        Effort::Full => 200_000,
    };
    let index = build_index(10_000, Distribution::Uniform, 5);
    let q = Point::new(47.3, 52.9);
    let k = 8;

    // INS state: kNN + guard set.
    let knn: Vec<_> = index.knn(q, k).into_iter().map(|(s, _)| s).collect();
    let ins = influential_neighbor_set(index.voronoi(), &knn);
    // OkV state: the order-k cell polygon.
    let cell = insq_paper::order_k_cell(
        index.voronoi().points(),
        &knn,
        &ins,
        &index.voronoi().bounds(),
    );
    // V* state: k + x retrieved objects and the known radius.
    let x = (k / 2).max(2);
    let retrieved: Vec<_> = index.knn(q, k + x).into_iter().collect();
    let known_radius = retrieved.last().expect("non-empty").1;

    let q2 = Point::new(q.x + 0.02, q.y - 0.01);
    let points = index.voronoi().points();
    let mut acc = 0u64;
    let ins_ns = mean_ns(reps, || {
        let v = insq_core::validate_by_distance(points, q2, &knn, &ins);
        acc += v.valid as u64;
    });
    let okv_ns = mean_ns(reps, || {
        acc += cell.contains(q2) as u64;
    });
    let vstar_ns = mean_ns(reps, || {
        // Known-region check: k-th retrieved distance vs shrunk radius.
        let kth = retrieved[k - 1].0;
        let d = index.point(kth).distance(q2);
        acc += (d <= known_radius - q2.distance(q)) as u64;
    });
    format!(
        "per-tick validation kernels, k={k} (n=10000, mean of {reps} reps; sink {acc})\n\
         {:<28} {:>10.1} ns   (O(k + |INS|) = {} distance evals)\n\
         {:<28} {:>10.1} ns   (point-in-polygon, {} edges)\n\
         {:<28} {:>10.1} ns   (single distance + radius compare)\n\n\
         expected shape: all three are sub-microsecond; INS validation is linear in\n\
         k + |INS| but needs no geometry; OkV is linear in cell edges; V* is O(1) per\n\
         check but pays a full O(k+x) re-rank whenever the result drifts.\n",
        "INS distance scan",
        ins_ns,
        knn.len() + ins.len(),
        "OkV point-in-polygon",
        okv_ns,
        cell.len(),
        "V* known-region test",
        vstar_ns,
    )
}

/// E9: isolated safe-region construction kernels, wall-clock.
pub fn e9_construction_micro(effort: Effort) -> String {
    let reps = match effort {
        Effort::Quick => 2_000,
        Effort::Full => 20_000,
    };
    let index = build_index(10_000, Distribution::Uniform, 5);
    let rtree = index.rtree();
    let q = Point::new(47.3, 52.9);
    let mut out = String::from("per-recomputation construction kernels (n=10000, ns mean)\n");
    out.push_str(&format!(
        "{:<4} {:>14} {:>18} {:>16} {:>18}\n",
        "k", "INS (I(kNN))", "OkV (order-k cell)", "V* (k+x search)", "INS (rho*k-NN + I)"
    ));
    for &k in &[2usize, 8, 32] {
        let knn: Vec<_> = index.knn(q, k).into_iter().map(|(s, _)| s).collect();
        let voronoi = index.voronoi();
        let mut sink = 0usize;

        let ins_ns = mean_ns(reps, || {
            sink += influential_neighbor_set(voronoi, &knn).len()
        });

        let ins_set = influential_neighbor_set(voronoi, &knn);
        let okv_ns = mean_ns(reps, || {
            sink +=
                insq_paper::order_k_cell(voronoi.points(), &knn, &ins_set, &voronoi.bounds()).len()
        });

        let x = (k / 2).max(2);
        let vstar_ns = mean_ns(reps, || sink += rtree.knn(q, k + x).len());

        // The whole INS recomputation, to set beside V*'s search: the
        // ⌊ρk⌋-NN prefetch plus the neighbor union of what it returns.
        let m = InsConfig::new(k, 1.6).prefetch_count();
        let full_ns = mean_ns(reps, || {
            let r: Vec<_> = index.knn(q, m).into_iter().map(|(s, _)| s).collect();
            black_box(influential_neighbor_set(voronoi, &r));
        });

        out.push_str(&format!(
            "{:<4} {:>14.0} {:>18.0} {:>16.0} {:>18.0}   (sink {sink})\n",
            k, ins_ns, okv_ns, vstar_ns, full_ns
        ));
    }
    out.push_str(
        "\nexpected shape: INS construction (a neighbor-list union) is the cheapest\n\
         and grows linearly in k; materialising the order-k cell costs a cascade of\n\
         half-plane clips, an order of magnitude more; V* pays one small kNN search\n\
         (k+x objects), a whole INS recomputation one of rho*k objects plus the union.\n",
    );
    out
}

/// Continuous extension: exact kNN event traces vs tick-based sampling.
pub fn continuous(effort: Effort) -> String {
    let index = build_index(
        match effort {
            Effort::Quick => 2_000,
            Effort::Full => 10_000,
        },
        Distribution::Uniform,
        17,
    );
    let a = Point::new(8.0, 12.0);
    let b = Point::new(93.0, 88.0);
    let k = 5;
    let t0 = Instant::now();
    let trace = insq_paper::knn_change_events(&index, k, a, b).expect("valid configuration");
    let exact_time = t0.elapsed();

    let mut out = format!(
        "exact event trace, k={k}, n={}: {} kNN change events in {:.2?}\n\n\
         {:>10} {:>14} {:>10}\n",
        index.len(),
        trace.events.len(),
        exact_time,
        "ticks",
        "changes seen",
        "missed"
    );
    for ticks in [50usize, 200, 1_000, 5_000] {
        let mut seen = 0usize;
        let mut prev = {
            let mut v = index.voronoi().knn_brute(a, k);
            v.sort_unstable();
            v
        };
        for i in 1..=ticks {
            let t = i as f64 / ticks as f64;
            let mut now = index.voronoi().knn_brute(a.lerp(b, t), k);
            now.sort_unstable();
            if now != prev {
                seen += 1;
                prev = now;
            }
        }
        out.push_str(&format!(
            "{:>10} {:>14} {:>10}\n",
            ticks,
            seen,
            trace.events.len().saturating_sub(seen)
        ));
    }
    out.push_str(
        "\nreading: the exact trace (an extension enabled by the INS machinery —\n\
         bisector crossings are roots of linear functions under linear motion) is\n\
         complete at any speed; coarse ticking misses short-lived result changes.\n",
    );
    out
}

/// Ablation: paper protocol vs the incremental-fetch extension, and the
/// VoR-tree's Voronoi-expansion kNN vs a plain R-tree best-first search.
pub fn ablation(effort: Effort) -> String {
    let ticks = effort.ticks(4_000);
    let index = build_index(10_000, Distribution::Uniform, 21);
    let traj = trajectory(2);
    let k = 8;

    let mut paper = InsProcessor::new(&index, InsConfig::new(k, 1.6)).expect("valid");
    let run_paper = run_euclidean(&mut paper, &traj, ticks, BASE_SPEED);
    let mut inc = InsProcessor::new(&index, InsConfig::new(k, 1.6).incremental()).expect("valid");
    let run_inc = run_euclidean(&mut inc, &traj, ticks, BASE_SPEED);

    let mut out = String::from("INS protocol ablation (n=10000, k=8, rho=1.6)\n");
    out.push_str(&format!(
        "{:<22} {:>11} {:>10} {:>12} {:>10}\n",
        "variant", "recomputes", "comm", "held objs", "us/tick"
    ));
    for (name, run, held) in [
        (
            "paper (cases i-iii)",
            &run_paper,
            paper.held_objects().len(),
        ),
        ("incremental fetch", &run_inc, inc.held_objects().len()),
    ] {
        out.push_str(&format!(
            "{:<22} {:>11} {:>10} {:>12} {:>10.2}\n",
            name,
            run.stats.recomputations,
            run.stats.comm_objects,
            held,
            run.elapsed.as_secs_f64() * 1e6 / run.stats.ticks as f64,
        ));
    }

    // kNN search strategies.
    let reps = match effort {
        Effort::Quick => 5_000,
        Effort::Full => 50_000,
    };
    let q = Point::new(33.0, 61.0);
    let mut sink = 0usize;
    let vor_ns = mean_ns(reps, || sink += index.knn(q, 13).len());
    let rtree = index.rtree();
    let rtree_ns = mean_ns(reps, || sink += rtree.knn(q, 13).len());
    out.push_str(&format!(
        "\nkNN search (k+x = 13, mean of {reps} reps; sink {sink}):\n\
         VoR-tree (1NN walk + Voronoi expansion):    {vor_ns:>8.0} ns\n\
         R-tree best-first:                          {rtree_ns:>8.0} ns\n",
    ));
    out.push_str(
        "\nreading: the incremental extension trades a growing client buffer for\n\
         near-zero full recomputations; the VoR-tree expansion and best-first search\n\
         are comparable at these k, so the VoR-tree's value is the neighbor lists it\n\
         returns for free (the INS construction input).\n",
    );
    out
}
