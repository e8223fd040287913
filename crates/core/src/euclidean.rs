//! The 2-D Euclidean [`Space`] (paper §III).
//!
//! The index is a [`VorTree`]; the validation probe is the §III-A
//! distance scan, realised as a re-rank of the held objects: the current
//! result is valid exactly while the top-k of `R ∪ I(R)` (by distance,
//! ties by id) is still the current kNN set — equivalently, while the
//! farthest current kNN (`r.delete`) is not farther than the nearest
//! guard object (`r.candidate`).
//!
//! [`InsProcessor`] is the Euclidean instantiation of the generic
//! [`Processor`]; the Euclidean-only observers of the demo (safe-region
//! polygon, validation circles) are free functions in `insq-paper`.

use insq_geom::Point;
use insq_index::{VorTree, VorTreeScratch};
use insq_voronoi::SiteId;

use crate::influential::{guard_scan, influential_neighbor_set_into};
use crate::processor::Processor;
use crate::space::{Space, Verdict};

/// The 2-D Euclidean plane under L2, indexed by a [`VorTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Space for Euclidean {
    type Pos = Point;
    type SiteId = SiteId;
    type Index = VorTree;
    type Scratch = VorTreeScratch;
    type Anchor = ();

    const NAME: &'static str = "INS";

    fn num_sites(index: &VorTree) -> usize {
        index.len()
    }

    fn ordinal(id: SiteId) -> usize {
        id.idx()
    }
    fn forget_anchor(_: &mut ()) {}

    fn global_knn_into(
        index: &VorTree,
        scratch: &mut VorTreeScratch,
        pos: Point,
        m: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) -> u64 {
        index.knn_into(scratch, pos, m, out);
        out.len() as u64
    }

    fn influential_into(index: &VorTree, ids: &[SiteId], out: &mut Vec<SiteId>) {
        influential_neighbor_set_into(index.voronoi(), ids, out)
    }

    fn scoped_knn_into(
        index: &VorTree,
        _scratch: &mut VorTreeScratch,
        _anchor: &mut (),
        _scope: &[SiteId],
        held: &[SiteId],
        pos: Point,
        k: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) -> u64 {
        rank_held_into(|s| index.dist_sq(s, pos), held, k, out)
    }

    fn brute_knn(index: &VorTree, pos: Point, k: usize) -> Vec<SiteId> {
        index.voronoi().knn_brute(pos, k)
    }

    fn validate_into(
        index: &VorTree,
        _scratch: &mut VorTreeScratch,
        _anchor: &mut (),
        _scope: &[SiteId],
        held: &[SiteId],
        current: &[(SiteId, f64)],
        pos: Point,
        k: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) -> (Verdict, u64) {
        scan_validate_into(|s| index.dist_sq(s, pos), held, current, k, out)
    }
}

/// The §III-A validation scan of the Euclidean space: [`guard_scan`]
/// over the current members and the held objects outside them, as in
/// [`crate::influential::validate_by_distance`]. On invalidation the
/// held objects are ranked into the candidate replacement. One distance
/// evaluation per held object either way; `out` receives the refreshed
/// result (valid) or the candidate set (invalid), and nothing else is
/// materialised, keeping the fleet engine's valid-tick path
/// allocation-free.
fn scan_validate_into<F: Fn(SiteId) -> f64 + Copy>(
    dist_sq: F,
    held: &[SiteId],
    current: &[(SiteId, f64)],
    k: usize,
    out: &mut Vec<(SiteId, f64)>,
) -> (Verdict, u64) {
    let ops = held.len() as u64;
    let members = current.iter().map(|&(s, _)| s);
    let guards = held
        .iter()
        .copied()
        .filter(|&s| !current.iter().any(|&(c, _)| c == s));
    let (valid, _, _) = guard_scan(dist_sq, members, guards);
    if valid {
        out.clear();
        out.extend(current.iter().map(|&(s, _)| (s, dist_sq(s))));
        // Total-order comparator, so the unstable (allocation-free)
        // sort is deterministic.
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        for r in out.iter_mut() {
            r.1 = r.1.sqrt();
        }
        (Verdict::Valid, ops)
    } else {
        let rank_ops = rank_held_into(dist_sq, held, k, out);
        (Verdict::Invalid, ops + rank_ops)
    }
}

/// The §III-A scan of the Euclidean space: the top-k of the held
/// objects under `dist_sq`, ascending by (distance, id), distances
/// square-rooted on the way out, written into `out` (cleared first). Op count = one distance evaluation per held
/// object.
fn rank_held_into<F: Fn(SiteId) -> f64>(
    dist_sq: F,
    held: &[SiteId],
    k: usize,
    out: &mut Vec<(SiteId, f64)>,
) -> u64 {
    let ops = held.len() as u64;
    out.clear();
    out.extend(held.iter().map(|&s| (s, dist_sq(s))));
    let k = k.min(out.len());
    if out.len() > k && k > 0 {
        out.select_nth_unstable_by(k - 1, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
    }
    out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    for r in out.iter_mut() {
        r.1 = r.1.sqrt();
    }
    ops
}

/// The INS moving-kNN processor over a [`VorTree`] — the Euclidean
/// instantiation of the generic [`Processor`].
pub type InsProcessor<B> = Processor<Euclidean, B>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TickOutcome;
    use crate::processor::{InsConfig, MovingKnn};
    use insq_geom::Aabb;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn build_index(n: usize, seed: u64) -> VorTree {
        let mut next = lcg(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        VorTree::build(
            points,
            Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0)),
        )
        .unwrap()
    }

    fn brute_knn(index: &VorTree, q: Point, k: usize) -> Vec<SiteId> {
        index.voronoi().knn_brute(q, k)
    }

    #[test]
    fn rejects_bad_configs() {
        let idx = build_index(20, 1);
        assert!(InsProcessor::new(&idx, InsConfig::new(0, 1.5)).is_err());
        assert!(InsProcessor::new(&idx, InsConfig::new(21, 1.5)).is_err());
        assert!(InsProcessor::new(&idx, InsConfig::new(3, 0.5)).is_err());
        assert!(InsProcessor::new(&idx, InsConfig::new(3, f64::NAN)).is_err());
        assert!(InsProcessor::new(&idx, InsConfig::new(3, 1.0)).is_ok());
    }

    #[test]
    fn prefetch_count_floor() {
        assert_eq!(InsConfig::new(5, 1.6).prefetch_count(), 8);
        assert_eq!(InsConfig::new(4, 1.0).prefetch_count(), 4);
        assert_eq!(InsConfig::new(3, 2.5).prefetch_count(), 7);
    }

    #[test]
    fn matches_brute_force_along_walk() {
        let idx = build_index(300, 42);
        let mut p = InsProcessor::new(&idx, InsConfig::new(5, 1.6)).unwrap();
        let mut next = lcg(7);
        // A random-waypoint walk with small steps.
        let mut pos = Point::new(50.0, 50.0);
        let mut target = Point::new(next() * 100.0, next() * 100.0);
        for _ in 0..600 {
            if pos.distance(target) < 1.0 {
                target = Point::new(next() * 100.0, next() * 100.0);
            }
            let dir = (target - pos)
                .normalized()
                .unwrap_or(insq_geom::Vector::ZERO);
            pos += dir * 0.8;
            p.tick(pos);
            let mut got = p.current_knn();
            got.sort_unstable();
            let mut want = brute_knn(&idx, pos, 5);
            want.sort_unstable();
            assert_eq!(got, want, "kNN mismatch at {pos:?}");
        }
        // The whole point of INS: recomputations must be rare on a smooth
        // trajectory.
        let s = p.stats();
        assert!(s.valid_ticks > s.ticks / 2, "{s:?}");
        assert!(s.recomputations < s.ticks / 5, "{s:?}");
    }

    #[test]
    fn teleporting_query_forces_recompute() {
        let idx = build_index(200, 5);
        let mut p = InsProcessor::new(&idx, InsConfig::new(3, 1.6)).unwrap();
        p.tick(Point::new(10.0, 10.0));
        let outcome = p.tick(Point::new(90.0, 90.0));
        assert_eq!(outcome, TickOutcome::Recompute);
        let mut got = p.current_knn();
        got.sort_unstable();
        let mut want = brute_knn(&idx, Point::new(90.0, 90.0), 3);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn stationary_query_stays_valid() {
        let idx = build_index(100, 9);
        let mut p = InsProcessor::new(&idx, InsConfig::new(4, 1.6)).unwrap();
        let q = Point::new(40.0, 60.0);
        p.tick(q);
        for _ in 0..10 {
            assert_eq!(p.tick(q), TickOutcome::Valid);
        }
        assert_eq!(p.stats().valid_ticks, 10);
        assert_eq!(p.stats().recomputations, 1); // only the initial one
    }

    #[test]
    fn guard_set_and_ins_relationship() {
        let idx = build_index(150, 13);
        let mut p = InsProcessor::new(&idx, InsConfig::new(4, 2.0)).unwrap();
        p.tick(Point::new(50.0, 50.0));
        let ins = p.influential_set();
        let guard = p.guard_set();
        // Every INS member is held as a guard after a recompute.
        for s in &ins {
            assert!(guard.contains(s), "INS member {s} must be guarded");
        }
        // No kNN member is in either set.
        for s in p.current_knn() {
            assert!(!ins.contains(&s));
            assert!(!guard.contains(&s));
        }
        // Scan-validating spaces maintain no probe scope (the §III-A
        // scan reads the held set directly).
        assert!(p.scope().is_empty());
    }

    #[test]
    fn rho_one_still_correct() {
        let idx = build_index(100, 77);
        let mut p = InsProcessor::new(&idx, InsConfig::new(2, 1.0)).unwrap();
        let mut next = lcg(3);
        for _ in 0..100 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            p.tick(q);
            let mut got = p.current_knn();
            got.sort_unstable();
            let mut want = brute_knn(&idx, q, 2);
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn invalidate_forces_recompute_and_stays_correct() {
        let idx = build_index(120, 3);
        let mut p = InsProcessor::new(&idx, InsConfig::new(4, 1.6)).unwrap();
        let q = Point::new(50.0, 50.0);
        p.tick(q);
        assert_eq!(p.tick(q), TickOutcome::Valid);
        p.invalidate();
        assert!(p.held_objects().is_empty());
        assert_eq!(p.tick(q), TickOutcome::Recompute);
        let mut got = p.current_knn();
        got.sort_unstable();
        let mut want = brute_knn(&idx, q, 4);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn rebind_switches_data_sets() {
        // Two different data sets model a server-side object update; the
        // same moving query continues across the rebind.
        let idx_a = build_index(100, 7);
        let idx_b = build_index(140, 8);
        let mut p = InsProcessor::new(&idx_a, InsConfig::new(3, 1.6)).unwrap();
        let q = Point::new(40.0, 60.0);
        p.tick(q);
        let before_recomputes = p.stats().recomputations;
        p.rebind(&idx_b);
        assert_eq!(p.tick(q), TickOutcome::Recompute);
        assert_eq!(p.stats().recomputations, before_recomputes + 1);
        let mut got = p.current_knn();
        got.sort_unstable();
        let mut want = idx_b.voronoi().knn_brute(q, 3);
        want.sort_unstable();
        assert_eq!(got, want, "results come from the new data set");
        // Subsequent ticks validate against the new guards.
        assert_eq!(p.tick(q), TickOutcome::Valid);
    }

    #[test]
    fn rebind_to_smaller_than_k_index_degrades_gracefully() {
        // A published update may shrink the data set below k (mass POI
        // deletions). The query must keep answering with everything that
        // is left, not panic.
        let idx_a = build_index(100, 7);
        let idx_b = build_index(3, 8);
        let mut p = InsProcessor::new(&idx_a, InsConfig::new(5, 1.6)).unwrap();
        let q = Point::new(40.0, 60.0);
        p.tick(q);
        assert_eq!(p.current_knn().len(), 5);
        p.rebind(&idx_b);
        p.tick(q);
        let mut got = p.current_knn();
        got.sort_unstable();
        let mut want = idx_b.voronoi().knn_brute(q, 3);
        want.sort_unstable();
        assert_eq!(got, want, "all remaining objects, exactly");
        assert_eq!(p.tick(q), TickOutcome::Valid);
    }

    #[test]
    fn k_equals_n_never_invalidates() {
        let idx = build_index(10, 2);
        let mut p = InsProcessor::new(&idx, InsConfig::new(10, 1.0)).unwrap();
        let mut next = lcg(11);
        p.tick(Point::new(0.0, 0.0));
        for _ in 0..20 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            let outcome = p.tick(q);
            // All objects are the kNN: the guard set is empty, so the
            // result can never be invalidated.
            assert_eq!(outcome, TickOutcome::Valid);
        }
    }
}
