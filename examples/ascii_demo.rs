//! The INSQ demonstration, rendered in ASCII — the headless counterpart of
//! the paper's Fig. 4 (2D Plane mode, k = 5, ρ = 1.6).
//!
//! Shows frames of the moving query: data objects (`.`), the current kNN
//! (`K`), the influential neighbors (`i`), the query object (`Q`) and the
//! safe region — the order-k Voronoi cell — as `:` shading. At each
//! rendered frame the two validation circles' radii are printed: the
//! result is valid while the green radius (farthest kNN) is below the red
//! radius (nearest influential neighbor); the paper's Fig. 4(b) moment is
//! the tick where that flips.
//!
//! Run with: `cargo run --example ascii_demo`

use insq::prelude::*;
use insq::sim::render_euclidean;

fn main() {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let points = Distribution::Uniform.generate(160, &space, 2016);
    let index = VorTree::build(points.clone(), space.inflated(10.0)).expect("valid data");

    // k = 5, ρ = 1.6: the exact parameters of Fig. 4.
    let mut query = InsProcessor::new(&index, InsConfig::new(5, 1.6)).expect("valid configuration");

    let trajectory = Trajectory::new(vec![
        Point::new(20.0, 25.0),
        Point::new(45.0, 60.0),
        Point::new(75.0, 40.0),
    ])
    .expect("valid trajectory");

    let steps = 60;
    for i in 0..=steps {
        let pos = trajectory.position(trajectory.length() * i as f64 / steps as f64);
        let outcome = query.tick(pos);

        // Render one frame every 15 steps, plus every invalidation moment.
        if i % 15 != 0 && !outcome.changed() {
            continue;
        }
        let knn: Vec<usize> = query.current_knn().iter().map(|s| s.idx()).collect();
        let ins: Vec<usize> = query.influential_set().iter().map(|s| s.idx()).collect();
        let region = safe_region(&query);
        let frame = render_euclidean(&points, &knn, &ins, pos, Some(&region), space, 72, 26);
        let state = if outcome.changed() {
            "kNN set UPDATED (was invalid)"
        } else {
            "kNN set valid"
        };
        println!("tick {i:>3}  {state}   [{outcome:?}]");
        if let Some((green, red)) = validation_circles(&query) {
            println!(
                "green circle (farthest kNN) r={:.2}  <=  red circle (nearest INS) r={:.2}",
                green.radius, red.radius
            );
        }
        println!("{frame}\n");
    }

    let s = query.stats();
    println!(
        "demo finished: {} ticks, {} valid, {} swaps, {} re-ranks, {} recomputations",
        s.ticks, s.valid_ticks, s.swaps, s.local_reranks, s.recomputations
    );
}
