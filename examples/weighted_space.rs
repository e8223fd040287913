//! Moving kNN under a weighted (anisotropic) Euclidean metric — travel
//! time in a city whose north–south streets are 2.5x slower than its
//! east–west avenues — with nothing but the Euclidean space.
//!
//! The metric `sqrt(wx²·dx² + wy²·dy²)` is plain L2 after scaling every
//! coordinate by `(wx, wy)`. So the caller scales the POIs and the clip
//! window once, builds an ordinary `VorTree`, and ticks an ordinary
//! `InsProcessor` at the scaled position: the scaled Voronoi diagram is
//! the weighted Voronoi diagram of the original POIs, and every INS
//! guarantee carries over unchanged. Every tick is checked against brute
//! force in the scaled space.
//!
//! Run with: `cargo run --release --example weighted_space`

use insq::prelude::*;

/// Per-axis weights: the y axis is 2.5x slower than x.
const WX: f64 = 1.0;
const WY: f64 = 2.5;

/// Maps a point into the space where the weighted metric is plain L2.
fn scale(p: Point) -> Point {
    Point::new(p.x * WX, p.y * WY)
}

fn main() {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pois = Distribution::Uniform.generate(4_000, &space, 11);
    let window = space.inflated(10.0);

    // Two indexes over the SAME POIs: straight-line distance, and travel
    // time as L2 over the scaled coordinates.
    let plain = VorTree::build(pois.clone(), window).unwrap();
    let scaled = VorTree::build(
        pois.into_iter().map(scale).collect(),
        Aabb::new(scale(window.min), scale(window.max)),
    )
    .unwrap();

    // A commuter driving east along the city's fast axis.
    let traj = Trajectory::new(vec![Point::new(5.0, 48.0), Point::new(95.0, 53.0)]).unwrap();
    let k = 5;
    let mut q_plain = InsProcessor::new(&plain, InsConfig::with_k(k)).unwrap();
    let mut q_weighted = InsProcessor::new(&scaled, InsConfig::with_k(k)).unwrap();

    let ticks = 2_000;
    let mut differing = 0usize;
    for tick in 0..ticks {
        let pos = traj.position(traj.length() * tick as f64 / ticks as f64);
        q_plain.tick(pos);
        q_weighted.tick(scale(pos));
        let mut a = q_plain.current_knn();
        let mut b = q_weighted.current_knn();
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            differing += 1;
        }
        // Exactness in the weighted metric, every tick.
        let mut want = scaled.voronoi().knn_brute(scale(pos), k);
        want.sort_unstable();
        assert_eq!(b, want, "weighted result must equal weighted brute force");
    }
    println!(
        "{differing} of {ticks} ticks: travel-time {k}-NN differs from straight-line \
         {k}-NN (y axis {WY}x slower)"
    );
    let s = q_weighted.stats();
    println!(
        "weighted INS: {} valid | {} local | {} recomputations | {} objects shipped — \
         every tick equals weighted brute force",
        s.valid_ticks,
        s.swaps + s.local_reranks,
        s.recomputations,
        s.comm_objects
    );
    assert!(differing > 0, "anisotropy must change some answers");
}
