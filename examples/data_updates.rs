//! Data-object updates during a moving query (paper §III: "If there are
//! data object updates, we also update the kNN set and the IS according
//! to the data object updates").
//!
//! Models a POI database edit mid-drive — on the **delta path**: instead
//! of rebuilding the whole VoR-tree (O(n log n)) and publishing it, the
//! server calls `World::apply(SiteDelta)`, which patches only the
//! Delaunay cavity / R-tree entries the delta touches, in a copy nobody
//! reads (a clone here; the reclaimed previous snapshot once epochs
//! stream). The epoch bump also says which objects the delta
//! touched (`World::snapshot_traced`), and the client does what every
//! `FleetEngine` query does: `rebind_scoped` keeps its kNN and guards
//! when it holds none of them — the epoch then costs it nothing — and
//! otherwise drops them and pays one recomputation. The conformance
//! suites (`crates/index/tests/incremental_conformance.rs`,
//! `crates/server/tests/scoped_rebind.rs`) prove the patched index
//! answers bit-identically to a from-scratch rebuild and that kept
//! guards never go stale.
//!
//! Run with: `cargo run --example data_updates`

use std::sync::Arc;

use insq::prelude::*;

fn main() {
    let space = Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));

    // Epoch 0: the original POI set, owned by the server-side world.
    let pois = Distribution::Uniform.generate(3_000, &space, 1);
    let world = Arc::new(World::new(
        VorTree::build(pois, space.inflated(10.0)).expect("valid data"),
    ));

    // A batch edit: 40 POIs close (spread-out ids), 25 new ones open in
    // two tight clusters — the kind of update a live POI feed produces.
    let mut delta = SiteDelta::remove((0..40).map(|i| SiteId(i * 71)).collect());
    delta.added = Distribution::Clustered {
        clusters: 2,
        spread: 0.03,
    }
    .generate(25, &space, 99);

    let traj = TrajectoryKind::Circular { radius_frac: 0.7 }.generate(&space, 5);
    let (mut epoch, mut index) = world.snapshot();
    let mut epoch_recomputed = false;
    let mut query =
        InsProcessor::new(Arc::clone(&index), InsConfig::new(5, 1.6)).expect("valid configuration");

    let ticks = 1_000usize;
    let update_at = 500usize;
    println!(
        "driving {ticks} ticks; a {}-object delta is applied at tick {update_at}\n",
        delta.len()
    );
    for tick in 0..ticks {
        let pos = traj.position_looped(0.2 * tick as f64);
        if tick == update_at {
            // Server: one call, no rebuild. Cost scales with the delta —
            // the repo benchmark's `euclid_churn` workload measures it
            // (`server.apply_us`, `index.apply_us`).
            let before = index.len();
            let t0 = std::time::Instant::now();
            world.apply(&delta).expect("valid delta");
            let applied_in = t0.elapsed();
            let (_, after) = world.snapshot();
            println!(
                "tick {tick}: delta epoch applied in {applied_in:.1?} \
                 ({} -> {} objects); clients rebind at their next tick",
                before,
                after.len()
            );
        }
        // Client: detect the epoch bump, rebind, continue (a FleetEngine
        // does exactly this for every registered query — examples/fleet.rs).
        // `touched` describes the step from the previous epoch, which is
        // the one this client is on.
        let (e, snap, touched) = world.snapshot_traced();
        if e != epoch {
            epoch = e;
            index = snap;
            let touched = touched.expect("VorTree deltas are traced");
            epoch_recomputed = !query.rebind_scoped(Arc::clone(&index), &touched);
            println!(
                "tick {tick}: client rebound to {epoch}, guards {}",
                if epoch_recomputed {
                    "dropped (the delta touched a held object)"
                } else {
                    "kept (the delta is nowhere near)"
                }
            );
        }
        let outcome = query.tick(pos);
        if outcome == TickOutcome::Recompute && (update_at..update_at + 2).contains(&tick) {
            println!("tick {tick}: full recomputation against the patched data set");
        }
        // The result is always the exact kNN of the live epoch.
        let mut got = query.current_knn();
        got.sort_unstable();
        let mut want = index.voronoi().knn_brute(pos, 5);
        want.sort_unstable();
        assert_eq!(got, want, "exactness across the update at tick {tick}");
    }

    let s = query.stats();
    println!(
        "\ndone: {} ticks | {} valid | {} local updates | {} recomputations | {} objects sent",
        s.ticks,
        s.valid_ticks,
        s.swaps + s.local_reranks,
        s.recomputations,
        s.comm_objects
    );
    println!(
        "(the delta epoch itself cost {} of those recomputations)",
        if epoch_recomputed { "one" } else { "none" }
    );
}
