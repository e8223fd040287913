//! Cross-crate tests of the extensions built on the INS machinery:
//! order-k cell enumeration, exact continuous event traces, and their
//! mutual consistency with the tick-based processors.

use insq::core::{InsConfig, InsProcessor, MovingKnn};
use insq::paper::{
    cell_count_growth, convex_hull, enumerate_order_k_cells, hull_contains, knn_change_events,
    safe_region,
};
use insq::prelude::*;

fn build(n: usize, seed: u64) -> VorTree {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = Distribution::Uniform.generate(n, &space, seed);
    VorTree::build(pts, space.inflated(10.0)).expect("valid data")
}

#[test]
fn continuous_trace_agrees_with_tick_processor_at_tick_positions() {
    // The exact trace and the discrete INS processor must agree wherever
    // both are defined: at every tick position, the processor's set equals
    // the trace's set.
    let index = build(400, 9);
    let a = Point::new(12.0, 40.0);
    let b = Point::new(88.0, 60.0);
    let k = 4;
    let trace = knn_change_events(&index, k, a, b).expect("valid configuration");
    let mut proc = InsProcessor::new(&index, InsConfig::new(k, 1.6)).expect("valid");
    let ticks = 500;
    for i in 0..=ticks {
        let t = i as f64 / ticks as f64;
        proc.tick(a.lerp(b, t));
        let mut via_proc = proc.current_knn();
        via_proc.sort_unstable();
        let via_trace = trace.knn_at(t);
        // Distance ties can permute ids between the two methods; compare
        // by distances.
        if via_proc != via_trace {
            let q = a.lerp(b, t);
            let d = |ids: &[SiteId]| -> Vec<f64> {
                let mut v: Vec<f64> = ids.iter().map(|&s| index.point(s).distance(q)).collect();
                v.sort_by(f64::total_cmp);
                v
            };
            let (dp, dt) = (d(&via_proc), d(&via_trace));
            for (x, y) in dp.iter().zip(&dt) {
                assert!(
                    (x - y).abs() < 1e-9,
                    "tick {i}: processor {via_proc:?} vs trace {via_trace:?}"
                );
            }
        }
    }
}

#[test]
fn event_count_lower_bounds_processor_changes() {
    // Every result change the tick processor sees corresponds to >= 1
    // exact event; the trace can only have more (it cannot miss any).
    let index = build(600, 21);
    let a = Point::new(10.0, 10.0);
    let b = Point::new(90.0, 90.0);
    let k = 3;
    let trace = knn_change_events(&index, k, a, b).expect("valid");
    let mut proc = InsProcessor::new(&index, InsConfig::new(k, 1.6)).expect("valid");
    let mut changes = 0;
    let mut prev: Option<Vec<SiteId>> = None;
    for i in 0..=800 {
        proc.tick(a.lerp(b, i as f64 / 800.0));
        let mut now = proc.current_knn();
        now.sort_unstable();
        if prev.as_ref() != Some(&now) {
            if prev.is_some() {
                changes += 1;
            }
            prev = Some(now);
        }
    }
    assert!(
        trace.events.len() >= changes,
        "trace {} events < observed {changes} changes",
        trace.events.len()
    );
}

#[test]
fn enumeration_cell_of_query_matches_processor_safe_region() {
    // The enumerated cell containing a query point has the same k-set as
    // the processor's result there, and (up to clipping) the same area as
    // the processor's materialised safe region.
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = Distribution::Uniform.generate(40, &space, 4);
    let index = VorTree::build(pts, space.inflated(10.0)).expect("valid");
    let k = 3;
    let q = Point::new(50.0, 50.0);

    let cells = enumerate_order_k_cells(index.voronoi(), k, q);
    let mut at_q = index.voronoi().knn_brute(q, k);
    at_q.sort_unstable();
    let cell = cells
        .iter()
        .find(|c| c.knn_set == at_q)
        .expect("the query's own cell is enumerated");

    let mut proc = InsProcessor::new(&index, InsConfig::new(k, 1.6)).expect("valid");
    proc.tick(q);
    let region = safe_region(&proc);
    assert!(
        (region.area() - cell.area).abs() < 1e-6,
        "enumerated area {} vs processor safe region {}",
        cell.area,
        region.area()
    );
}

#[test]
fn growth_curve_documents_the_papers_precomputation_argument() {
    // The paper dismisses precomputing order-k cells because their count
    // explodes with k; verify the count is strictly super-linear in k on
    // uniform data (the argument's quantitative core).
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = Distribution::Uniform.generate(30, &space, 8);
    let v = Voronoi::build(pts, space.inflated(10.0)).expect("valid");
    let curve = cell_count_growth(&v, 3, Point::new(50.0, 50.0));
    assert_eq!(curve[0], (1, 30));
    let k2 = curve[1].1;
    let k3 = curve[2].1;
    assert!(k2 > 30, "order-2 cells exceed n: {k2}");
    assert!(k3 > k2, "order-3 exceeds order-2: {k3} vs {k2}");
}

#[test]
fn hull_bounds_all_safe_regions() {
    // Safe regions of interior queries live inside the data hull inflated
    // by the clip window — a sanity link between the hull utility and the
    // region machinery.
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let pts = Distribution::Uniform.generate(120, &space, 13);
    let hull = convex_hull(&pts);
    assert!(hull.len() >= 3);
    let index = VorTree::build(pts.clone(), space.inflated(10.0)).expect("valid");
    let mut proc = InsProcessor::new(&index, InsConfig::new(4, 1.6)).expect("valid");
    proc.tick(Point::new(50.0, 50.0));
    // Every kNN member is a data point, hence inside the hull.
    for s in proc.current_knn() {
        assert!(hull_contains(&hull, index.point(s)));
    }
}
