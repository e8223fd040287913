//! Exact continuous kNN maintenance (extension; see `insq::paper::continuous`).
//!
//! Discrete timestamp processing — the paper's setting — can miss kNN
//! changes that begin and end between two ticks when the query is fast.
//! With linear motion, bisector crossings are roots of linear functions,
//! so the INS machinery can compute the *exact* event sequence. This
//! example compares the exact trace against tick-based sampling at
//! several speeds and shows the missed-event gap closing.
//!
//! Run with: `cargo run --release --example continuous_events`

use insq::paper::knn_change_events;
use insq::prelude::*;

fn main() {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let points = Distribution::Uniform.generate(5_000, &space, 17);
    let index = VorTree::build(points, space.inflated(10.0)).expect("valid data");

    let a = Point::new(8.0, 12.0);
    let b = Point::new(93.0, 88.0);
    let k = 5;

    let trace = knn_change_events(&index, k, a, b).expect("valid configuration");
    println!(
        "linear move ({:.0},{:.0}) -> ({:.0},{:.0}), k={k}: {} exact kNN change events\n",
        a.x,
        a.y,
        b.x,
        b.y,
        trace.events.len()
    );
    println!("first events:");
    for e in trace.events.iter().take(8) {
        println!("  t={:.5}  p{} out, p{} in", e.t, e.removed.0, e.added.0);
    }

    // How many of those changes does tick-based sampling observe?
    println!("\n{:>12} {:>16} {:>14}", "ticks", "changes seen", "missed");
    for ticks in [20usize, 50, 100, 500, 2000, 10000] {
        let mut seen = 0;
        let mut prev: Vec<SiteId> = {
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
        println!(
            "{:>12} {:>16} {:>14}",
            ticks,
            seen,
            trace.events.len().saturating_sub(seen)
        );
    }
    println!(
        "\nreading: coarse ticking under-reports result changes (several events can\n\
         fall between two ticks); the exact trace is speed-independent. The INS makes\n\
         it cheap: each event costs one O(k x |INS|) linear-root scan."
    );
}
