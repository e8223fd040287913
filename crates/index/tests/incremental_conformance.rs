//! Incremental-maintenance conformance: a [`VorTree`] maintained through
//! arbitrary interleaved `insert_site` / `remove_site` / `apply` sequences
//! must answer `knn` **bit-identically** to a `VorTree::build` from
//! scratch over the same (identically ordered) site array — and both must
//! match the brute-force oracle. This is the trusted-batch-vs-optimized-
//! incremental validation discipline the delta-epoch server path rests on.

use insq_geom::{Aabb, Point};
use insq_index::{SiteDelta, VorTree};
use insq_voronoi::SiteId;
use proptest::prelude::*;

const BOUNDS_PAD: f64 = 10.0;

fn bounds() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).inflated(BOUNDS_PAD)
}

/// Asserts that the incrementally maintained tree answers every probe
/// query bit-identically to a from-scratch rebuild on the same site
/// array, and that both agree with the brute-force oracle.
fn assert_conformant(tree: &VorTree, queries: &[Point], ks: &[usize]) -> Result<(), TestCaseError> {
    let rebuilt = VorTree::build(tree.voronoi().points().to_vec(), tree.voronoi().bounds())
        .expect("rebuild of a live site set");
    prop_assert_eq!(tree.len(), rebuilt.len());
    for &q in queries {
        for &k in ks {
            let inc = tree.knn(q, k);
            let batch = rebuilt.knn(q, k);
            prop_assert_eq!(
                &inc,
                &batch,
                "incremental vs rebuilt diverged (q={:?}, k={}, n={})",
                q,
                k,
                tree.len()
            );
            let brute = tree.voronoi().knn_brute(q, k.min(tree.len()));
            let inc_ids: Vec<SiteId> = inc.iter().map(|&(s, _)| s).collect();
            prop_assert_eq!(
                &inc_ids,
                &brute,
                "incremental vs brute-force diverged (q={:?}, k={})",
                q,
                k
            );
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { x: f64, y: f64 },
    RemoveNth(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0f64..100.0, 0.0f64..100.0).prop_map(|(x, y)| Op::Insert { x, y }),
        2 => (0usize..10_000).prop_map(Op::RemoveNth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: after EVERY step of a random interleaved
    /// insert/remove sequence, incremental knn == rebuilt-from-scratch knn
    /// == brute force, across several query points and k values.
    #[test]
    fn interleaved_updates_answer_knn_like_a_rebuild(
        initial in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 8..40),
        ops in prop::collection::vec(op_strategy(), 1..40),
        queries in prop::collection::vec((-20.0f64..120.0, -20.0f64..120.0), 3..6),
    ) {
        let mut pts: Vec<Point> = initial.iter().map(|&(x, y)| Point::new(x, y)).collect();
        pts.sort_by(|a, b| a.lex_cmp(*b));
        pts.dedup();
        if pts.len() < 4 {
            return Ok(());
        }
        let mut tree = VorTree::build(pts, bounds()).expect("valid initial set");
        let queries: Vec<Point> = queries.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let ks = [1usize, 3, 8];

        for op in ops {
            match op {
                Op::Insert { x, y } => {
                    let p = Point::new(x, y);
                    // Skip exact duplicates (rejected by design).
                    if tree.voronoi().points().contains(&p) {
                        continue;
                    }
                    let id = tree.insert_site(p).expect("insert distinct site");
                    prop_assert_eq!(id.idx(), tree.len() - 1);
                }
                Op::RemoveNth(i) => {
                    if tree.len() <= 4 {
                        continue;
                    }
                    let s = SiteId((i % tree.len()) as u32);
                    match tree.remove_site(s) {
                        Ok(_) => {}
                        // A removal that would leave all sites collinear
                        // is refused and must leave the index untouched.
                        Err(insq_voronoi::VoronoiError::AllCollinear) => {}
                        Err(e) => prop_assert!(false, "unexpected removal error: {}", e),
                    }
                }
            }
            assert_conformant(&tree, &queries, &ks)?;
        }
    }
}

/// Batched deltas through `VorTree::apply` conform too, including the
/// documented removal order (descending pre-delta ids, swap-remove) —
/// and the touched set `VorTree::apply_traced` reports is complete: a
/// pre-delta id it does not name still names the same site with the same
/// Voronoi neighbors afterwards. That is the whole licence for a query
/// to keep its guards across a delta epoch, so it is checked against the
/// plain before/after difference, removal of the last id, ids handed to
/// insertions and shrinking deltas included.
#[test]
fn batched_delta_apply_conforms() {
    let mut state = 0x5eed_cafeu64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let pts: Vec<Point> = (0..60)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    let mut tree = VorTree::build(pts, bounds()).unwrap();
    let queries: Vec<Point> = (0..5)
        .map(|_| Point::new(next() * 140.0 - 20.0, next() * 140.0 - 20.0))
        .collect();

    let mut kept = 0usize;
    for round in 0..24 {
        let n_add = (next() * 6.0) as usize;
        let n_rem = (next() * 5.0) as usize;
        let mut delta = SiteDelta::default();
        for _ in 0..n_add {
            delta.added.push(Point::new(next() * 100.0, next() * 100.0));
        }
        let mut used = std::collections::BTreeSet::new();
        for _ in 0..n_rem.min(tree.len().saturating_sub(8)) {
            used.insert(SiteId((next() * tree.len() as f64) as u32));
        }
        if round % 3 == 0 {
            used.insert(SiteId(tree.len() as u32 - 1));
        }
        delta.removed = used.into_iter().collect();
        let before = tree.clone();
        let mut touched = Vec::new();
        tree.apply_traced(&delta, &mut touched)
            .expect("delta applies cleanly");

        for s in (0..before.len() as u32).map(SiteId) {
            if touched.contains(&s) {
                continue;
            }
            kept += 1;
            assert!(s.idx() < tree.len(), "round {round}: untouched {s} is gone");
            assert_eq!(tree.point(s), before.point(s), "round {round}: {s} moved");
            assert_eq!(
                tree.voronoi().neighbors(s),
                before.voronoi().neighbors(s),
                "round {round}: untouched {s} has other neighbors"
            );
        }

        let rebuilt = VorTree::build(tree.voronoi().points().to_vec(), bounds()).unwrap();
        for &q in &queries {
            for k in [1usize, 4, 10] {
                assert_eq!(
                    tree.knn(q, k),
                    rebuilt.knn(q, k),
                    "delta round {round}: incremental vs rebuilt (q={q:?}, k={k})"
                );
            }
        }
    }
    assert!(
        kept > 24 * 20,
        "a touched set naming everything proves nothing"
    );
}

/// Degenerate inputs: a cocircular/collinear integer grid under churn.
/// Different valid Delaunay triangulations may disagree on degenerate
/// neighbor links, but the *query answers* must still match the oracle.
#[test]
fn degenerate_grid_churn_answers_exactly() {
    let mut pts = Vec::new();
    for i in 0..6 {
        for j in 0..6 {
            pts.push(Point::new(i as f64 * 10.0, j as f64 * 10.0));
        }
    }
    let mut tree = VorTree::build(pts, bounds()).unwrap();
    let queries = [
        Point::new(25.0, 25.0),
        Point::new(0.0, 0.0),
        Point::new(52.5, 17.5),
        Point::new(-15.0, 70.0),
    ];
    let mut state: u64 = 0x0dd0_601d;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    for step in 0..60 {
        if step % 3 == 0 && tree.len() > 8 {
            let s = SiteId((next() * tree.len() as f64) as u32);
            let _ = tree.remove_site(s);
        } else {
            // Half-integer lattice points keep the degeneracy high.
            let p = Point::new((next() * 12.0).round() * 5.0, (next() * 12.0).round() * 5.0);
            if !tree.voronoi().points().contains(&p) {
                tree.insert_site(p).unwrap();
            }
        }
        for &q in &queries {
            for k in [1usize, 4, 9] {
                let got: Vec<SiteId> = tree.knn(q, k).into_iter().map(|(s, _)| s).collect();
                let want = tree.voronoi().knn_brute(q, k.min(tree.len()));
                assert_eq!(got, want, "degenerate churn step {step} (q={q:?}, k={k})");
            }
        }
    }
}
