//! The §III-A guard predicate has two copies — the observers' scan
//! (`influential::validate_by_distance`) and the tick path's
//! allocation-free one (`<Euclidean as Space>::validate_into`) — joined
//! only by a comment saying they "must stay in sync". This compares
//! them: random sites, random `k`, query points that include **exact
//! boundary ties** (the farthest kNN member and the nearest guard
//! equidistant from the query), on every case the same verdict, and on
//! `Invalid` the scan's candidate set equal to a brute-force top-k of
//! the held objects.
//!
//! Sites sit on integer coordinates and tie queries on dyadic points of
//! a perpendicular bisector, so every squared distance is exact in
//! `f64` and a tie is a bit-equal tie, not a near miss. Fixed-seed LCG:
//! a failure reproduces exactly.

use insq_core::{influential_neighbor_set, validate_by_distance, Euclidean, Space, Verdict};
use insq_geom::{Aabb, Point};
use insq_index::{VorTree, VorTreeScratch};
use insq_voronoi::SiteId;

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    }
}

const SIDE: u64 = 48;

/// `n` distinct sites on integer coordinates of a `SIDE`×`SIDE` board.
fn lattice_sites(next: &mut impl FnMut() -> u64, n: usize) -> Vec<Point> {
    let mut taken = std::collections::BTreeSet::new();
    while taken.len() < n {
        taken.insert((next() % SIDE, next() % SIDE));
    }
    taken
        .into_iter()
        .map(|(x, y)| Point::new(x as f64, y as f64))
        .collect()
}

/// The held objects' top-`k` at `q`, the slow way: full sort by
/// (squared distance, id), distances square-rooted on the way out.
fn brute_top_k(index: &VorTree, held: &[SiteId], q: Point, k: usize) -> Vec<(SiteId, f64)> {
    let mut all: Vec<(SiteId, f64)> = held.iter().map(|&s| (s, index.dist_sq(s, q))).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all.into_iter().map(|(s, d)| (s, d.sqrt())).collect()
}

/// Case tallies, so the test can prove it reached what it claims to.
#[derive(Default)]
struct Seen {
    valid: usize,
    invalid: usize,
    exact_ties: usize,
}

/// Runs both predicates on one `(result, guard, query)` case and checks
/// they agree.
fn check(index: &VorTree, knn: &[SiteId], guard: &[SiteId], q: Point, seen: &mut Seen) {
    let k = knn.len();
    let reference = validate_by_distance(index.voronoi().points(), q, knn, guard);

    // The tick path's inputs: the result with (stale) distances, and
    // the held set `R ∪ I(R)` in no particular order.
    let current: Vec<(SiteId, f64)> = knn.iter().map(|&s| (s, f64::NAN)).collect();
    let held: Vec<SiteId> = guard.iter().chain(knn).copied().collect();
    let mut out = Vec::new();
    let mut scratch = VorTreeScratch::default();
    let (verdict, _ops) = Euclidean::validate_into(
        index,
        &mut scratch,
        &mut (),
        &[],
        &held,
        &current,
        q,
        k,
        &mut out,
    );

    assert_eq!(
        verdict == Verdict::Valid,
        reference.valid,
        "the two guard predicates disagree at {q:?} for result {knn:?} / guard {guard:?}"
    );
    let top_k = brute_top_k(index, &held, q, k);
    match verdict {
        Verdict::Valid => {
            seen.valid += 1;
            // A valid result is the held top-k as a set (ties at the
            // boundary may order either way), refreshed and re-ranked.
            let mut ids: Vec<SiteId> = out.iter().map(|&(s, _)| s).collect();
            ids.sort();
            let mut want = knn.to_vec();
            want.sort();
            assert_eq!(ids, want, "a valid scan must keep the result set");
            assert_eq!(
                out.last().map(|r| r.1.to_bits()),
                top_k.last().map(|r| r.1.to_bits()),
                "k-th distance of a valid result at {q:?}"
            );
        }
        Verdict::Invalid => {
            seen.invalid += 1;
            assert_eq!(out, top_k, "candidate set of an invalid scan at {q:?}");
        }
    }

    let far = knn.iter().map(|&s| index.dist_sq(s, q)).fold(0.0, f64::max);
    let near = guard
        .iter()
        .map(|&s| index.dist_sq(s, q))
        .fold(f64::INFINITY, f64::min);
    if far == near {
        seen.exact_ties += 1;
        assert!(reference.valid, "a boundary tie counts as valid");
    }
}

#[test]
fn both_guard_predicates_agree_including_exact_boundary_ties() {
    let mut seen = Seen::default();
    for seed in 0..24u64 {
        let mut next = lcg(0x1A5 ^ (seed << 8));
        let n = 30 + (next() % 90) as usize;
        let sites = lattice_sites(&mut next, n);
        let side = SIDE as f64;
        let bounds = Aabb::new(Point::new(0.0, 0.0), Point::new(side, side)).inflated(8.0);
        let index = VorTree::build(sites, bounds).expect("distinct lattice sites");

        for _ in 0..12 {
            let k = 1 + (next() % 8) as usize;
            let q0 = Point::new(
                (next() % (4 * SIDE)) as f64 / 4.0,
                (next() % (4 * SIDE)) as f64 / 4.0,
            );
            let knn = index.voronoi().knn_brute(q0, k);
            let guard = influential_neighbor_set(index.voronoi(), &knn);

            // Random walks away from where the result was computed.
            for _ in 0..8 {
                let step = |r: u64| (r % 33) as f64 / 4.0 - 4.0;
                let q = Point::new(q0.x + step(next()), q0.y + step(next()));
                check(&index, &knn, &guard, q, &mut seen);
            }

            // Exact ties: points of the perpendicular bisector of a
            // result member and a guard, at dyadic offsets — both are
            // bit-equally far from every one of them, and wherever that
            // pair is (farthest member, nearest guard) the predicate
            // sits exactly on its boundary.
            for &f in &knn {
                for &g in &guard {
                    let (pf, pg) = (index.point(f), index.point(g));
                    let mid = Point::new((pf.x + pg.x) / 2.0, (pf.y + pg.y) / 2.0);
                    let (nx, ny) = (pf.y - pg.y, pg.x - pf.x);
                    for t in [-0.5, -0.25, 0.0, 0.25, 0.5] {
                        let q = Point::new(mid.x + t * nx, mid.y + t * ny);
                        assert_eq!(index.dist_sq(f, q), index.dist_sq(g, q), "exact bisector");
                        check(&index, &knn, &guard, q, &mut seen);
                    }
                }
            }
        }
    }
    assert!(seen.valid > 1_000, "only {} valid cases", seen.valid);
    assert!(seen.invalid > 1_000, "only {} invalid cases", seen.invalid);
    assert!(
        seen.exact_ties > 200,
        "only {} exact boundary ties were exercised",
        seen.exact_ties
    );
}
