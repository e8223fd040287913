//! The V*-diagram baseline (Nutanong et al., PVLDB 2008) — the relaxed
//! safe-region competitor the paper positions INS against.
//!
//! Faithful functional model — the V\*-diagram's known-region bound,
//! without the original's region geometry: at each
//! retrieval position `q0` the client fetches the `k + x` nearest objects.
//! The *known region* is the disk of radius `r_kr = d(q0, p_{k+x})` around
//! `q0`: every unretrieved object is provably at distance
//! `≥ r_kr − d(q, q0)` from any later position `q`. The current kNN is the
//! top-k of the retrieved set; it is certifiably correct while
//!
//! ```text
//! d(q, k-th retrieved NN) ≤ r_kr − d(q, q0)
//! ```
//!
//! Construction is trivial (no region geometry at all) and the result can
//! change within the retrieved set without server contact ("local
//! re-rank"); the price is a *smaller* effective safe region than the
//! order-k Voronoi cell, hence more frequent retrievals — precisely the
//! trade-off the paper describes for relaxed safe regions (\[5\]).

use insq_core::{CoreError, MovingKnn, QueryStats, TickOutcome};
use insq_geom::Point;
use insq_index::{RTree, VorTree};
use insq_voronoi::SiteId;

/// Configuration of the V* baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VStarConfig {
    /// Number of nearest neighbors to report (k ≥ 1).
    pub k: usize,
    /// Auxiliary objects retrieved beyond k (x ≥ 1). The V* paper
    /// recommends a small constant x; the benchmark default is
    /// `clamp(k/2, 2, 8)`.
    pub x: usize,
}

impl VStarConfig {
    /// Default auxiliary count: `clamp(k/2, 2, 8)` — the V* paper
    /// recommends a small constant x (the safe region is limited by the
    /// nearest unretrieved object, so large x buys little).
    pub fn with_k(k: usize) -> VStarConfig {
        VStarConfig {
            k,
            x: (k / 2).clamp(2, 8),
        }
    }
}

/// V*-diagram style moving kNN processor.
#[derive(Debug, Clone)]
pub struct VStarProcessor<'a> {
    index: &'a VorTree,
    rtree: RTree,
    cfg: VStarConfig,
    /// Retrieval anchor.
    q0: Point,
    /// Known-region radius at the anchor.
    known_radius: f64,
    /// The k + x retrieved objects (ids; distances recomputed per tick).
    retrieved: Vec<SiteId>,
    /// Current kNN, ascending by distance from the last position.
    knn: Vec<(SiteId, f64)>,
    stats: QueryStats,
    initialized: bool,
}

impl<'a> VStarProcessor<'a> {
    /// Creates the processor; fails on `k = 0`, `x = 0`, or `k + x > n`.
    pub fn new(index: &'a VorTree, cfg: VStarConfig) -> Result<VStarProcessor<'a>, CoreError> {
        if cfg.k == 0 {
            return Err(CoreError::BadConfig {
                reason: "k must be at least 1",
            });
        }
        if cfg.x == 0 {
            return Err(CoreError::BadConfig {
                reason: "x must be at least 1 (the known region needs an outer witness)",
            });
        }
        if cfg.k + cfg.x > index.len() {
            return Err(CoreError::BadConfig {
                reason: "k + x exceeds the number of data objects",
            });
        }
        Ok(VStarProcessor {
            index,
            rtree: index.rtree(),
            cfg,
            q0: Point::ORIGIN,
            known_radius: 0.0,
            retrieved: Vec::new(),
            knn: Vec::new(),
            stats: QueryStats::default(),
            initialized: false,
        })
    }

    /// The configuration.
    pub fn config(&self) -> VStarConfig {
        self.cfg
    }

    /// Current kNN with distances.
    pub fn current_knn_with_dists(&self) -> &[(SiteId, f64)] {
        &self.knn
    }

    fn retrieve(&mut self, q: Point) {
        let m = (self.cfg.k + self.cfg.x).min(self.index.len());
        let (res, st) = self.rtree.knn_with_stats(q, m);
        self.stats.search_ops += (st.nodes_visited + st.entries_scanned) as u64;
        // Communication: objects not already held.
        let newly = res
            .iter()
            .filter(|(e, _)| !self.retrieved.contains(&SiteId(e.id)))
            .count() as u64;
        self.stats.comm_objects += newly;
        self.known_radius = res.last().map(|&(_, d)| d).unwrap_or(0.0);
        self.retrieved = res.iter().map(|&(e, _)| SiteId(e.id)).collect();
        self.knn = res[..self.cfg.k]
            .iter()
            .map(|&(e, d)| (SiteId(e.id), d))
            .collect();
        self.q0 = q;
    }

    /// Re-ranks the retrieved set at `q`; returns whether the top-k can be
    /// certified against the known region.
    fn rerank(&mut self, q: Point) -> bool {
        let mut ranked: Vec<(SiteId, f64)> = self
            .retrieved
            .iter()
            .map(|&s| (s, self.index.point(s).distance(q)))
            .collect();
        self.stats.validation_ops += ranked.len() as u64;
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let kth = ranked[self.cfg.k - 1].1;
        let safe = kth <= self.known_radius - q.distance(self.q0);
        if safe {
            self.knn = ranked[..self.cfg.k].to_vec();
        }
        safe
    }
}

impl MovingKnn<Point, SiteId> for VStarProcessor<'_> {
    fn name(&self) -> &'static str {
        "V*"
    }

    fn tick(&mut self, pos: Point) -> TickOutcome {
        if !self.initialized {
            self.retrieve(pos);
            self.initialized = true;
            let outcome = TickOutcome::Recompute;
            self.stats.record(outcome);
            return outcome;
        }
        let before: Vec<SiteId> = self.knn.iter().map(|&(s, _)| s).collect();
        let outcome = if self.rerank(pos) {
            let after: Vec<SiteId> = self.knn.iter().map(|&(s, _)| s).collect();
            let changed = {
                let mut a = before;
                let mut b = after;
                a.sort_unstable();
                b.sort_unstable();
                a != b
            };
            if changed {
                // The result changed but was repaired from the retrieved
                // set — V*'s selling point.
                TickOutcome::LocalRerank
            } else {
                TickOutcome::Valid
            }
        } else {
            self.retrieve(pos);
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
        let idx = build(250, 23);
        let mut p = VStarProcessor::new(&idx, VStarConfig { k: 4, x: 3 }).unwrap();
        let mut next = lcg(9);
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
    }

    #[test]
    fn recomputes_more_often_than_ins() {
        // The paper's core comparison: V*'s relaxed region forces more
        // retrievals than the (maximal) region the INS guards.
        let idx = build(300, 31);
        let mut vstar = VStarProcessor::new(&idx, VStarConfig::with_k(4)).unwrap();
        let mut ins =
            insq_core::InsProcessor::new(&idx, insq_core::InsConfig::new(4, 1.6)).unwrap();
        let mut next = lcg(13);
        let mut pos = Point::new(50.0, 50.0);
        let mut target = Point::new(next() * 100.0, next() * 100.0);
        for _ in 0..800 {
            if pos.distance(target) < 1.0 {
                target = Point::new(next() * 100.0, next() * 100.0);
            }
            let dir = (target - pos)
                .normalized()
                .unwrap_or(insq_geom::Vector::ZERO);
            pos += dir * 0.5;
            vstar.tick(pos);
            ins.tick(pos);
        }
        assert!(
            vstar.stats().recomputations > ins.stats().recomputations,
            "V* {} vs INS {}",
            vstar.stats().recomputations,
            ins.stats().recomputations
        );
    }

    #[test]
    fn stationary_is_all_valid() {
        let idx = build(80, 3);
        let mut p = VStarProcessor::new(&idx, VStarConfig { k: 3, x: 2 }).unwrap();
        let q = Point::new(30.0, 30.0);
        p.tick(q);
        for _ in 0..5 {
            assert_eq!(p.tick(q), TickOutcome::Valid);
        }
    }

    #[test]
    fn bad_configs() {
        let idx = build(10, 5);
        assert!(VStarProcessor::new(&idx, VStarConfig { k: 0, x: 2 }).is_err());
        assert!(VStarProcessor::new(&idx, VStarConfig { k: 3, x: 0 }).is_err());
        assert!(VStarProcessor::new(&idx, VStarConfig { k: 8, x: 3 }).is_err());
    }
}
