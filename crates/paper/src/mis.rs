//! The minimal influential set (Definition 2) — ground truth.
//!
//! `MIS(O')` is the union of the k-sets of the order-k Voronoi cells
//! adjacent to `V^k(O')`, minus `O'`. It is the smallest set of guard
//! objects that still certifies a kNN result, but materialising it requires
//! order-k cell geometry — exactly the construction cost the INS avoids.
//! This module exists as the oracle against which `I(O') ⊇ MIS(O')`
//! (Theorem 1 / the companion paper's Lemma) is verified, and to reproduce
//! Fig. 1 of the paper.

use insq_voronoi::{SiteId, Voronoi};

use crate::order_k::order_k_cell_tagged;

/// Computes `MIS(knn)` exactly, using every other site as a clipping
/// candidate — O(k · n) half-plane clips. Intended for tests, figures and
/// small inputs.
///
/// Returns `None` when `knn` is not a realisable kNN set (its order-k cell
/// is empty inside the diagram bounds).
pub fn minimal_influential_set(voronoi: &Voronoi, knn: &[SiteId]) -> Option<Vec<SiteId>> {
    let candidates: Vec<SiteId> = (0..voronoi.len() as u32).map(SiteId).collect();
    mis_with_candidates(voronoi, knn, &candidates)
}

/// Computes `MIS(knn)` clipping only against `candidates`.
///
/// Sound whenever `candidates ⊇ MIS(knn)`; the INS is such a candidate set
/// (Theorem 1), which makes `mis_with_candidates(v, knn, I(knn) ∪ knn)` an
/// efficient exact MIS construction.
pub fn mis_with_candidates(
    voronoi: &Voronoi,
    knn: &[SiteId],
    candidates: &[SiteId],
) -> Option<Vec<SiteId>> {
    let cell = order_k_cell_tagged(voronoi.points(), knn, candidates, &voronoi.bounds());
    if cell.is_empty() {
        return None;
    }
    Some(cell.adjacent_outsiders())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::voronoi_cell;
    use insq_core::influential_neighbor_set;
    use insq_geom::{Aabb, Point};

    fn random_voronoi(n: usize, seed: u64) -> Voronoi {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 10.0, next() * 10.0))
            .collect();
        Voronoi::build(
            points,
            Aabb::new(Point::new(-2.0, -2.0), Point::new(12.0, 12.0)),
        )
        .unwrap()
    }

    fn brute_knn(v: &Voronoi, q: Point, k: usize) -> Vec<SiteId> {
        let mut ids = v.knn_brute(q, k);
        ids.sort_unstable();
        ids
    }

    #[test]
    fn mis_subset_of_ins_random() {
        // The central theorem: MIS(O') ⊆ I(O') for genuine kNN sets.
        let v = random_voronoi(60, 42);
        for (qi, k) in [(0usize, 1usize), (7, 2), (13, 3), (29, 5), (44, 8)] {
            let q = Point::new(v.points()[qi].x + 0.05, v.points()[qi].y + 0.03);
            let knn = brute_knn(&v, q, k);
            let mis = minimal_influential_set(&v, &knn).expect("true kNN set has a non-empty cell");
            let ins = influential_neighbor_set(&v, &knn);
            for m in &mis {
                assert!(
                    ins.contains(m),
                    "MIS member {m} missing from INS (k={k}, q={q:?})"
                );
            }
            assert!(!mis.is_empty(), "interior cells have neighbors");
        }
    }

    #[test]
    fn mis_via_ins_matches_full_mis() {
        let v = random_voronoi(40, 7);
        for (qi, k) in [(3usize, 2usize), (11, 3), (25, 4)] {
            let q = v.points()[qi];
            let q = Point::new(q.x + 0.01, q.y - 0.02);
            let knn = brute_knn(&v, q, k);
            let full = minimal_influential_set(&v, &knn);
            let ins = influential_neighbor_set(&v, &knn);
            let fast = mis_with_candidates(&v, &knn, &ins);
            assert_eq!(full, fast, "k={k} qi={qi}");
        }
    }

    #[test]
    fn non_knn_set_has_no_mis() {
        let v = random_voronoi(30, 3);
        // Nearest and farthest site from a corner can never be a 2NN set.
        let q = Point::new(0.0, 0.0);
        let all = v.knn_brute(q, 30);
        let bogus = vec![all[0].min(all[29]), all[0].max(all[29])];
        assert_eq!(minimal_influential_set(&v, &bogus), None);
    }

    #[test]
    fn mis_of_order_1_is_voronoi_neighbors() {
        // For k=1 the order-1 cell's adjacent cells are exactly the Voronoi
        // neighbors (when the cell does not touch the window boundary).
        let v = random_voronoi(80, 11);
        // Pick an interior site: one whose cell is far from the bounds.
        let bounds = v.bounds();
        let inner = (0..v.len() as u32)
            .map(SiteId)
            .find(|&s| {
                let p = v.point(s);
                p.x > 3.0 && p.x < 7.0 && p.y > 3.0 && p.y < 7.0 && {
                    let cell = voronoi_cell(&v, s);
                    cell.vertices().iter().all(|vtx| {
                        vtx.x > bounds.min.x + 0.5
                            && vtx.x < bounds.max.x - 0.5
                            && vtx.y > bounds.min.y + 0.5
                            && vtx.y < bounds.max.y - 0.5
                    })
                }
            })
            .expect("some interior site exists");
        let mis = minimal_influential_set(&v, &[inner]).unwrap();
        let mut nbrs: Vec<SiteId> = v.neighbors(inner).to_vec();
        nbrs.sort_unstable();
        // MIS ⊆ neighbors always; equality can fail only at degenerate
        // (cocircular) adjacencies, absent in random data.
        assert_eq!(mis, nbrs);
    }
}
