//! The strict safe-region baseline: order-k Voronoi cells (OkV).
//!
//! The approach of the earlier studies the paper discusses (\[2\], \[6\]): on
//! every recomputation, materialise the order-k Voronoi cell `V^k(kNN)` as
//! a polygon; per timestamp, validate with a point-in-polygon test.
//!
//! The safe region is maximal — identical to the region the INS guards
//! implicitly — so OkV ties INS on recomputation frequency and
//! communication. What it loses is *construction* cost: every
//! recomputation pays a cascade of half-plane clips to build the polygon
//! (the paper: "the computation cost of computing order-k Voronoi cells on
//! the fly is prohibitively high"), which the op counters here make
//! visible. Its validation is cheaper per tick than the INS scan
//! (`O(cell edges)` vs `O(k + |INS|)` — both small), which is the honest
//! trade-off the benchmarks report.

use insq_core::{influential_neighbor_set, CoreError, MovingKnn, QueryStats, TickOutcome};
use insq_geom::Point;
use insq_index::{RTree, VorTree};
use insq_paper::{ConvexPolygon, HalfPlane};
use insq_voronoi::SiteId;

/// Order-k Voronoi cell safe-region moving kNN.
#[derive(Debug, Clone)]
pub struct OkvProcessor<'a> {
    index: &'a VorTree,
    rtree: RTree,
    k: usize,
    knn: Vec<(SiteId, f64)>,
    region: ConvexPolygon,
    stats: QueryStats,
    initialized: bool,
}

impl<'a> OkvProcessor<'a> {
    /// Creates the processor; fails on `k = 0` or `k > n`.
    pub fn new(index: &'a VorTree, k: usize) -> Result<OkvProcessor<'a>, CoreError> {
        if k == 0 {
            return Err(CoreError::BadConfig {
                reason: "k must be at least 1",
            });
        }
        if k > index.len() {
            return Err(CoreError::BadConfig {
                reason: "k exceeds the number of data objects",
            });
        }
        Ok(OkvProcessor {
            index,
            rtree: index.rtree(),
            k,
            knn: Vec::new(),
            region: ConvexPolygon::empty(),
            stats: QueryStats::default(),
            initialized: false,
        })
    }

    /// The current safe region polygon (`V^k(kNN)` clipped to the data
    /// bounds).
    pub fn safe_region(&self) -> &ConvexPolygon {
        &self.region
    }

    /// Current kNN with distances from the last recomputation point.
    pub fn current_knn_with_dists(&self) -> &[(SiteId, f64)] {
        &self.knn
    }

    fn recompute(&mut self, q: Point) {
        let (res, st) = self.rtree.knn_with_stats(q, self.k);
        self.stats.search_ops += (st.nodes_visited + st.entries_scanned) as u64;
        self.knn = res.into_iter().map(|(e, d)| (SiteId(e.id), d)).collect();
        // The server ships the k result objects.
        self.stats.comm_objects += self.knn.len() as u64;

        // Materialise the order-k cell, counting every vertex the clip
        // cascade touches — the construction overhead this baseline pays.
        let voronoi = self.index.voronoi();
        let knn_ids: Vec<SiteId> = self.knn.iter().map(|&(s, _)| s).collect();
        // Candidates: the INS (sound and exact since MIS ⊆ INS). A real
        // system without neighbor lists would use a far larger candidate
        // set; using the INS makes this baseline *optimistic*.
        let candidates = influential_neighbor_set(voronoi, &knn_ids);
        let mut region = ConvexPolygon::from_aabb(&voronoi.bounds());
        let mut scratch: Vec<Point> = Vec::with_capacity(16);
        let mut ops = 0u64;
        'outer: for &p in &knn_ids {
            let pp = voronoi.point(p);
            for &s in &candidates {
                let h = HalfPlane::closer_to(pp, voronoi.point(s));
                ops += region.len() as u64 + 1;
                region.clip_halfplane_in_place(&h, &mut scratch);
                if region.is_empty() {
                    break 'outer;
                }
            }
        }
        self.stats.construction_ops += ops;
        // The client validates with a point-in-polygon test, so the region
        // geometry itself must be shipped along with the k results — one
        // point-sized payload per polygon vertex.
        self.stats.comm_objects += region.len() as u64;
        self.region = region;
    }
}

impl MovingKnn<Point, SiteId> for OkvProcessor<'_> {
    fn name(&self) -> &'static str {
        "OkV"
    }

    fn tick(&mut self, pos: Point) -> TickOutcome {
        if !self.initialized {
            self.recompute(pos);
            self.initialized = true;
            let outcome = TickOutcome::Recompute;
            self.stats.record(outcome);
            return outcome;
        }
        // Point-in-polygon validation.
        self.stats.validation_ops += self.region.len().max(1) as u64;
        let outcome = if self.region.contains(pos) {
            TickOutcome::Valid
        } else {
            self.recompute(pos);
            TickOutcome::Recompute
        };
        self.stats.record(outcome);
        outcome
    }

    fn current_knn(&self) -> Vec<SiteId> {
        self.knn.iter().map(|&(s, _)| s).collect()
    }

    fn stats(&self) -> &QueryStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn build(n: usize, seed: u64) -> VorTree {
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

    #[test]
    fn matches_brute_force_along_walk() {
        let idx = build(250, 17);
        let mut p = OkvProcessor::new(&idx, 4).unwrap();
        let mut next = lcg(3);
        let mut pos = Point::new(50.0, 50.0);
        let mut target = Point::new(next() * 100.0, next() * 100.0);
        for _ in 0..400 {
            if pos.distance(target) < 1.0 {
                target = Point::new(next() * 100.0, next() * 100.0);
            }
            let dir = (target - pos)
                .normalized()
                .unwrap_or(insq_geom::Vector::ZERO);
            pos += dir * 0.7;
            p.tick(pos);
            let mut got = p.current_knn();
            got.sort_unstable();
            let mut want = idx.voronoi().knn_brute(pos, 4);
            want.sort_unstable();
            assert_eq!(got, want, "kNN mismatch at {pos:?}");
        }
        // Construction cost must dominate validation — the baseline's
        // signature inefficiency.
        let s = p.stats();
        assert!(s.construction_ops > s.validation_ops, "{s:?}");
    }

    #[test]
    fn safe_region_contains_query_while_valid() {
        let idx = build(120, 5);
        let mut p = OkvProcessor::new(&idx, 3).unwrap();
        let q = Point::new(40.0, 40.0);
        p.tick(q);
        assert!(p.safe_region().contains(q));
        assert_eq!(p.tick(q), TickOutcome::Valid);
    }

    #[test]
    fn region_exit_forces_recompute() {
        let idx = build(150, 6);
        let mut p = OkvProcessor::new(&idx, 2).unwrap();
        p.tick(Point::new(20.0, 20.0));
        let outcome = p.tick(Point::new(80.0, 80.0));
        assert_eq!(outcome, TickOutcome::Recompute);
    }

    #[test]
    fn bad_configs() {
        let idx = build(10, 7);
        assert!(OkvProcessor::new(&idx, 0).is_err());
        assert!(OkvProcessor::new(&idx, 11).is_err());
    }
}
