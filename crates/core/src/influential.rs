//! Influential sets (Definition 1) and the influential neighbor set
//! (Definition 4).
//!
//! The INS of a kNN set `O'` is the union of the order-1 Voronoi neighbor
//! sets of its members, minus `O'` itself:
//!
//! ```text
//! I(O') = ( ⋃_{p' ∈ O'} N_O(p') ) \ O'
//! ```
//!
//! By Theorem 1 (and the PVLDB'14 companion paper) `MIS(O') ⊆ I(O')`, so
//! the INS is an influential set: while every member of `O'` is closer to
//! the query than every member of `I(O')`, `O'` is guaranteed to be the
//! true kNN set. Computing `I(O')` is a k-way merge of precomputed
//! neighbor lists — time linear in `k` (average Voronoi degree is < 6).

use insq_geom::Point;
use insq_voronoi::{SiteId, Voronoi};

/// Computes the influential neighbor set `I(knn)` (sorted, deduplicated).
///
/// `knn` need not be sorted; duplicates are tolerated.
pub fn influential_neighbor_set(voronoi: &Voronoi, knn: &[SiteId]) -> Vec<SiteId> {
    let mut ins = Vec::with_capacity(knn.len() * 6);
    influential_neighbor_set_into(voronoi, knn, &mut ins);
    ins
}

/// Allocation-free [`influential_neighbor_set`]: writes `I(knn)` into
/// `out` (cleared first). With `out` at capacity this touches no
/// allocator — the per-tick construction path of the Euclidean space.
pub fn influential_neighbor_set_into(voronoi: &Voronoi, knn: &[SiteId], out: &mut Vec<SiteId>) {
    out.clear();
    for &p in knn {
        out.extend_from_slice(voronoi.neighbors(p));
    }
    out.sort_unstable();
    out.dedup();
    out.retain(|s| !knn.contains(s));
}

/// Checks Definition 1 empirically at a query position: `knn` is closer to
/// `q` than every member of `guard` (boundary ties count as valid).
///
/// This is the O(k + |IS|) validation scan of paper §III-A: find the
/// farthest current kNN (`r.delete`) and the nearest guard
/// (`r.candidate`); the set is valid while the former is not farther than
/// the latter. The processor's tick path runs the same scan
/// (`guard_scan`) through `<Euclidean as Space>::validate_into`.
pub fn validate_by_distance(
    points: &[Point],
    q: Point,
    knn: &[SiteId],
    guard: &[SiteId],
) -> Validation {
    let (valid, delete, candidate) = guard_scan(
        |s| points[s.idx()].distance_sq(q),
        knn.iter().copied(),
        guard.iter().copied(),
    );
    Validation {
        valid,
        delete,
        candidate,
        ops: (knn.len() + guard.len()) as u64,
    }
}

/// The §III-A guard scan: the farthest of `members` (`r.delete`) and
/// the nearest of `guards` (`r.candidate`) under `dist_sq`, the first
/// of equals winning, and whether the former is not farther than the
/// latter — boundary ties valid, no guards always valid.
#[inline]
pub(crate) fn guard_scan<F: Fn(SiteId) -> f64>(
    dist_sq: F,
    members: impl Iterator<Item = SiteId>,
    guards: impl Iterator<Item = SiteId>,
) -> (bool, Option<SiteId>, Option<SiteId>) {
    let (mut max_member, mut delete) = (f64::NEG_INFINITY, None);
    for s in members {
        let d = dist_sq(s);
        if d > max_member {
            (max_member, delete) = (d, Some(s));
        }
    }
    let (mut min_guard, mut candidate) = (f64::INFINITY, None);
    for s in guards {
        let d = dist_sq(s);
        if d < min_guard {
            (min_guard, candidate) = (d, Some(s));
        }
    }
    (max_member <= min_guard, delete, candidate)
}

/// Result of a validation scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Validation {
    /// Whether the kNN set is still guaranteed valid.
    pub valid: bool,
    /// The farthest current kNN member (`r.delete` in the paper) — the one
    /// to evict on a single-object update.
    pub delete: Option<SiteId>,
    /// The nearest guard object (`r.candidate`) — the one to admit.
    pub candidate: Option<SiteId>,
    /// Distance evaluations performed.
    pub ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_geom::Aabb;

    fn grid_5x5() -> Voronoi {
        let points: Vec<Point> = (0..5)
            .flat_map(|i| (0..5).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let bounds = Aabb::new(Point::new(-1.0, -1.0), Point::new(5.0, 5.0));
        Voronoi::build(points, bounds).unwrap()
    }

    #[test]
    fn ins_excludes_knn_and_dedups() {
        let v = grid_5x5();
        // Center site 12 and a neighbor.
        let knn = [SiteId(12), SiteId(7)];
        let ins = influential_neighbor_set(&v, &knn);
        assert!(!ins.contains(&SiteId(12)));
        assert!(!ins.contains(&SiteId(7)));
        // Sorted + unique.
        for w in ins.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Must contain the axis neighbors of both members (those not in
        // the kNN itself).
        for required in [
            SiteId(11),
            SiteId(13),
            SiteId(17),
            SiteId(2),
            SiteId(6),
            SiteId(8),
        ] {
            assert!(ins.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn ins_of_single_site_is_its_neighbor_list() {
        let v = grid_5x5();
        let ins = influential_neighbor_set(&v, &[SiteId(12)]);
        let direct: Vec<SiteId> = v.neighbors(SiteId(12)).to_vec();
        assert_eq!(ins, direct);
    }

    #[test]
    fn validation_scan_finds_extremes() {
        let v = grid_5x5();
        let q = Point::new(2.1, 2.1);
        let knn = [SiteId(12), SiteId(17)]; // (2,2) and (3,2)
        let ins = influential_neighbor_set(&v, &knn);
        let val = validate_by_distance(v.points(), q, &knn, &ins);
        assert!(val.valid, "both kNN are nearer than any neighbor");
        assert_eq!(val.ops as usize, knn.len() + ins.len());
        // Farthest of the two kNN from q=(2.1,2.1) is (3,2) = id 17.
        assert_eq!(val.delete, Some(SiteId(17)));
        assert!(val.candidate.is_some());
    }

    #[test]
    fn validation_fails_when_guard_closer() {
        let v = grid_5x5();
        // Claim kNN = two far corners while standing at the center: any
        // neighbor of the corners that is nearer invalidates.
        let q = Point::new(2.0, 2.0);
        let knn = [SiteId(0), SiteId(24)];
        let ins = influential_neighbor_set(&v, &knn);
        let val = validate_by_distance(v.points(), q, &knn, &ins);
        assert!(!val.valid);
    }

    #[test]
    fn boundary_tie_counts_as_valid() {
        let v = grid_5x5();
        // q equidistant from (2,2) and (3,2): claiming k=1 kNN {12} with
        // guard {17} is still valid on the boundary.
        let q = Point::new(2.5, 2.0);
        let val = validate_by_distance(v.points(), q, &[SiteId(12)], &[SiteId(17)]);
        assert!(val.valid);
    }

    #[test]
    fn empty_guard_is_always_valid() {
        let v = grid_5x5();
        let val = validate_by_distance(v.points(), Point::new(0.0, 0.0), &[SiteId(0)], &[]);
        assert!(val.valid);
        assert_eq!(val.candidate, None);
    }
}
