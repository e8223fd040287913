//! Enumeration of all order-k Voronoi cells of a diagram.
//!
//! The paper (§I) notes that "precomputing the order-k Voronoi cells is
//! unpractical due to the rapid increase in the number of order-k Voronoi
//! cells as k increases" — this module makes that statement measurable.
//! Starting from the cell of one realisable k-set, a breadth-first search
//! over the swap adjacency (each boundary edge of a cell leads to the
//! neighbor cell differing in exactly one object) visits every order-k
//! cell intersecting the window. Intended for analysis, figures and tests
//! on small-to-medium inputs, not for the query path.

use std::collections::{HashMap, VecDeque};

use insq_core::influential_neighbor_set;
use insq_geom::Point;
use insq_voronoi::{SiteId, Voronoi};

use crate::order_k::order_k_cell_tagged;

/// One enumerated order-k cell.
#[derive(Debug, Clone)]
pub struct OrderKCell {
    /// The k-set of the cell, sorted by site id.
    pub knn_set: Vec<SiteId>,
    /// Cell area (clipped to the diagram window).
    pub area: f64,
    /// The k-sets of the adjacent cells (sorted ids each).
    pub neighbors: Vec<Vec<SiteId>>,
}

/// Enumerates every order-k Voronoi cell of the diagram (clipped to its
/// window), via BFS over swap adjacency from the cell containing `seed`.
///
/// Every point of the window belongs to some order-k cell and the cells'
/// adjacency graph is connected, so the BFS is exhaustive. Runtime is
/// `O(#cells · k · |INS| · cell-size)` — exponential-feeling in k, which
/// is precisely the phenomenon the paper cites; see
/// [`cell_count_growth`] for the
/// measured curve.
pub fn enumerate_order_k_cells(voronoi: &Voronoi, k: usize, seed: Point) -> Vec<OrderKCell> {
    assert!(k >= 1 && k <= voronoi.len(), "1 <= k <= n required");
    let mut start = voronoi.knn_brute(seed, k);
    start.sort_unstable();

    let mut seen: HashMap<Vec<SiteId>, usize> = HashMap::new();
    let mut out: Vec<OrderKCell> = Vec::new();
    let mut queue: VecDeque<Vec<SiteId>> = VecDeque::new();
    seen.insert(start.clone(), 0);
    queue.push_back(start);

    while let Some(set) = queue.pop_front() {
        // Clip against the INS of the set — exact (MIS ⊆ INS) and far
        // cheaper than all-sites clipping.
        let ins = influential_neighbor_set(voronoi, &set);
        let cell = order_k_cell_tagged(voronoi.points(), &set, &ins, &voronoi.bounds());
        let mut neighbors: Vec<Vec<SiteId>> = Vec::new();
        if !cell.is_empty() {
            for (inside, outside) in cell.boundary_swaps() {
                let mut nb: Vec<SiteId> = set
                    .iter()
                    .copied()
                    .filter(|&s| s != inside)
                    .chain(std::iter::once(outside))
                    .collect();
                nb.sort_unstable();
                neighbors.push(nb.clone());
                if !seen.contains_key(&nb) {
                    seen.insert(nb.clone(), usize::MAX); // placeholder
                    queue.push_back(nb);
                }
            }
        }
        let idx = out.len();
        seen.insert(set.clone(), idx);
        out.push(OrderKCell {
            knn_set: set,
            area: cell.polygon().area(),
            neighbors,
        });
    }
    // Window-boundary effects can enqueue a swap whose cell is empty
    // inside the window; drop those.
    out.retain(|c| c.area > 0.0);
    out
}

/// The number of order-k cells for `k = 1..=k_max` — the growth curve
/// behind the paper's "rapid increase" remark.
pub fn cell_count_growth(voronoi: &Voronoi, k_max: usize, seed: Point) -> Vec<(usize, usize)> {
    (1..=k_max.min(voronoi.len()))
        .map(|k| (k, enumerate_order_k_cells(voronoi, k, seed).len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_geom::Aabb;

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

    #[test]
    fn order_1_enumeration_matches_sites() {
        let v = random_voronoi(25, 3);
        let cells = enumerate_order_k_cells(&v, 1, Point::new(5.0, 5.0));
        // One cell per site (every order-1 cell intersects the window).
        assert_eq!(cells.len(), v.len());
        let total: f64 = cells.iter().map(|c| c.area).sum();
        assert!((total - v.bounds().area()).abs() < 1e-6);
    }

    #[test]
    fn cells_partition_window_for_k_2_and_3() {
        let v = random_voronoi(18, 7);
        for k in [2usize, 3] {
            let cells = enumerate_order_k_cells(&v, k, Point::new(5.0, 5.0));
            let total: f64 = cells.iter().map(|c| c.area).sum();
            assert!(
                (total - v.bounds().area()).abs() < 1e-6,
                "k={k}: {} vs {}",
                total,
                v.bounds().area()
            );
            // Each cell's set has exactly k members, all distinct.
            for c in &cells {
                assert_eq!(c.knn_set.len(), k);
                let mut s = c.knn_set.clone();
                s.dedup();
                assert_eq!(s.len(), k);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let v = random_voronoi(15, 11);
        let cells = enumerate_order_k_cells(&v, 2, Point::new(5.0, 5.0));
        let index: std::collections::HashMap<&[SiteId], usize> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.knn_set.as_slice(), i))
            .collect();
        for c in &cells {
            for nb in &c.neighbors {
                if let Some(&j) = index.get(nb.as_slice()) {
                    assert!(
                        cells[j].neighbors.contains(&c.knn_set),
                        "adjacency must be symmetric: {:?} <-> {:?}",
                        c.knn_set,
                        nb
                    );
                }
            }
        }
    }

    #[test]
    fn growth_curve_increases_with_k() {
        // The paper's "rapid increase in the number of order-k cells".
        let v = random_voronoi(20, 5);
        let curve = cell_count_growth(&v, 4, Point::new(5.0, 5.0));
        assert_eq!(curve[0].0, 1);
        assert_eq!(curve[0].1, 20);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "cell count should not shrink with k on this density: {curve:?}"
            );
        }
        assert!(
            curve.last().unwrap().1 > 2 * curve[0].1,
            "noticeable growth by k=4: {curve:?}"
        );
    }

    #[test]
    fn every_cell_is_a_realisable_knn_set() {
        let v = random_voronoi(16, 13);
        let cells = enumerate_order_k_cells(&v, 2, Point::new(5.0, 5.0));
        for c in &cells {
            // Re-derive the cell and sample its centroid.
            let ins = influential_neighbor_set(&v, &c.knn_set);
            let cell = crate::order_k::order_k_cell(v.points(), &c.knn_set, &ins, &v.bounds());
            if let Some(centroid) = cell.centroid() {
                if cell.contains(centroid) {
                    let mut brute = v.knn_brute(centroid, 2);
                    brute.sort_unstable();
                    assert_eq!(brute, c.knn_set, "centroid's 2NN is the cell's set");
                }
            }
        }
    }
}
