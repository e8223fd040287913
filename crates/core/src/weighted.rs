//! The weighted (anisotropic) Euclidean [`Space`] — the third space, and
//! the proof that the [`Space`] abstraction is real.
//!
//! Positions and data objects live in the ordinary plane, but distance
//! is per-axis scaled L2 (`insq_index::AxisWeights`): the travel-time
//! metric of a world whose axes have different speeds. The index is a
//! [`WeightedVorTree`] — a coordinate transform over the standard
//! `VorTree`, whose scaled-space Voronoi diagram *is* the weighted
//! Voronoi diagram of the original points — so Theorem 1 (`MIS ⊆ INS`)
//! and the §III-A validation scan hold verbatim and this space passes
//! the exact same brute-force and fleet-determinism conformance suites
//! as the other two.
//!
//! Everything below delegates to the Euclidean machinery after scaling
//! the query position; no processor, server or workload code is
//! special-cased for it anywhere.

use insq_geom::Point;
use insq_index::{VorTreeScratch, WeightedVorTree};
use insq_voronoi::SiteId;

use crate::euclidean::rank_held_into;
use crate::influential::influential_neighbor_set_into;
use crate::processor::Processor;
use crate::space::{Space, Verdict};

/// The 2-D plane under per-axis scaled L2 distance, indexed by a
/// [`WeightedVorTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedEuclidean;

impl Space for WeightedEuclidean {
    type Pos = Point;
    type SiteId = SiteId;
    type Index = WeightedVorTree;
    type Scratch = VorTreeScratch;
    type Anchor = ();

    const NAME: &'static str = "INS-w";

    fn num_sites(index: &WeightedVorTree) -> usize {
        index.len()
    }

    fn ordinal(id: SiteId) -> usize {
        id.idx()
    }
    fn forget_anchor(_: &mut ()) {}

    fn global_knn_into(
        index: &WeightedVorTree,
        scratch: &mut VorTreeScratch,
        pos: Point,
        m: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) -> u64 {
        index.knn_into(scratch, pos, m, out);
        out.len() as u64
    }

    fn influential_into(index: &WeightedVorTree, ids: &[SiteId], out: &mut Vec<SiteId>) {
        influential_neighbor_set_into(index.voronoi(), ids, out)
    }

    fn scoped_knn_into(
        index: &WeightedVorTree,
        _scratch: &mut VorTreeScratch,
        _anchor: &mut (),
        _scope: &[SiteId],
        held: &[SiteId],
        pos: Point,
        k: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) -> u64 {
        let q = index.weights().scale(pos);
        rank_held_into(|s| index.tree().dist_sq(s, q), held, k, out)
    }

    fn brute_knn(index: &WeightedVorTree, pos: Point, k: usize) -> Vec<SiteId> {
        index.knn_brute(pos, k)
    }

    fn validate_into(
        index: &WeightedVorTree,
        _scratch: &mut VorTreeScratch,
        _anchor: &mut (),
        _scope: &[SiteId],
        held: &[SiteId],
        current: &[(SiteId, f64)],
        pos: Point,
        k: usize,
        out: &mut Vec<(SiteId, f64)>,
    ) -> (Verdict, u64) {
        let q = index.weights().scale(pos);
        crate::euclidean::scan_validate_into(|s| index.tree().dist_sq(s, q), held, current, k, out)
    }
}

/// The INS moving-kNN processor under weighted L2 — the anisotropic
/// instantiation of the generic [`Processor`].
pub type WInsProcessor<B> = Processor<WeightedEuclidean, B>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{InsConfig, MovingKnn};
    use insq_geom::Aabb;
    use insq_index::AxisWeights;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn build(n: usize, seed: u64, w: AxisWeights) -> WeightedVorTree {
        let mut next = lcg(seed);
        let points: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        WeightedVorTree::build(points, bounds, w).unwrap()
    }

    #[test]
    fn matches_weighted_brute_force_along_walk() {
        let idx = build(300, 42, AxisWeights::new(1.0, 2.5).unwrap());
        let mut p = WInsProcessor::new(&idx, InsConfig::new(5, 1.6)).unwrap();
        let mut next = lcg(7);
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
            let mut want = idx.knn_brute(pos, 5);
            want.sort_unstable();
            assert_eq!(got, want, "kNN mismatch at {pos:?}");
        }
        let s = p.stats();
        assert!(s.valid_ticks > s.ticks / 2, "{s:?}");
        assert!(s.recomputations < s.ticks / 5, "{s:?}");
    }

    #[test]
    fn anisotropy_changes_answers() {
        // Two sites equidistant under L2 separate under weights: the
        // fast-axis one wins.
        let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
        let pts = vec![
            Point::new(60.0, 50.0), // 10 to the east
            Point::new(50.0, 40.0), // 10 to the south
            Point::new(90.0, 90.0),
        ];
        let w = AxisWeights::new(1.0, 3.0).unwrap(); // north–south is slow
        let idx = WeightedVorTree::build(pts, bounds, w).unwrap();
        let mut p = WInsProcessor::new(&idx, InsConfig::new(1, 1.6)).unwrap();
        p.tick(Point::new(50.0, 50.0));
        assert_eq!(p.current_knn(), vec![SiteId(0)], "east beats south at wy=3");
    }

    #[test]
    fn unit_weights_agree_with_plain_euclidean() {
        let idx_w = build(200, 9, AxisWeights::UNIT);
        let plain = insq_index::VorTree::build(
            (0..idx_w.len())
                .map(|i| idx_w.point(SiteId(i as u32)))
                .collect(),
            Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0)),
        )
        .unwrap();
        let mut pw = WInsProcessor::new(&idx_w, InsConfig::new(4, 1.6)).unwrap();
        let mut pe = crate::InsProcessor::new(&plain, InsConfig::new(4, 1.6)).unwrap();
        for i in 0..80 {
            let q = Point::new((i * 7 % 100) as f64, (i * 13 % 100) as f64);
            pw.tick(q);
            pe.tick(q);
            let mut a = pw.current_knn();
            let mut b = pe.current_knn();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "unit weights must reduce to plain L2 at {q:?}");
        }
    }
}
