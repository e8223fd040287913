//! Reusable per-query scratch and the one kNN expansion that runs on it.
//!
//! A network kNN search needs two transients — a distance array over
//! the vertices and a min-heap frontier. [`DijkstraScratch`] owns both
//! persistently, so the per-tick hot paths touch no allocator in steady
//! state: the distance array is a generation-stamped [`DistSlots`] (O(1)
//! logical reset to `+∞`), and the heap keeps its backing buffer across
//! queries.
//!
//! The scratch also carries the expansion itself. The paper's §IV needs
//! exactly two searches — INE over the whole network
//! ([`crate::ine::network_knn_into`], the recompute path) and the same
//! expansion confined to the cells of `kNN ∪ I(kNN)`
//! ([`crate::subnetwork::restricted_knn_into`], Theorem-2 validation) —
//! and both are `DijkstraScratch::expand_knn` with different seeds and
//! predicates.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use insq_geom::{DistEntry, DistSlots};

use crate::graph::{EdgeId, RoadNetwork, VertexId};
use crate::sites::SiteIdx;

/// Effort counters of one kNN expansion; `settled` is what the
/// processors report as search/validation ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpansionStats {
    /// Vertices settled by the expansion.
    pub settled: usize,
    /// Heap pushes performed.
    pub pushes: usize,
}

/// Persistent scratch for one concurrent network expansion.
///
/// Obtain one with `Default::default()`, keep it alongside the query
/// object, and pass it to every `*_into` search. Reuse across different
/// networks (different vertex counts) is safe — the scratch re-sizes
/// itself — it just costs one reallocation on the first query after the
/// switch.
#[derive(Debug, Clone, Default)]
pub struct DijkstraScratch {
    /// Tentative distances, logically reset to `+∞` per query.
    dist: DistSlots,
    /// The frontier min-heap (via [`Reverse`]); cleared per query, the
    /// backing buffer survives.
    heap: BinaryHeap<Reverse<DistEntry<VertexId>>>,
}

impl DijkstraScratch {
    /// Creates an empty scratch (no backing storage until first use).
    pub fn new() -> DijkstraScratch {
        DijkstraScratch::default()
    }

    /// Labels `v` with `d` and queues it iff `d` is a strict improvement.
    #[inline]
    fn relax(&mut self, v: VertexId, d: f64, stats: &mut ExpansionStats) {
        if d < self.dist.get(v.idx()) {
            self.dist.set(v.idx(), d);
            self.heap.push(Reverse(DistEntry { dist: d, id: v }));
            stats.pushes += 1;
        }
    }

    /// The kNN expansion: a Dijkstra wavefront from `seeds` that crosses
    /// only edges `passable` admits, reports the site `site_at` names at
    /// each settled vertex, and stops once `k` sites are found. `out`
    /// (cleared first) ends up ascending by `(distance, site index)`.
    pub(crate) fn expand_knn(
        &mut self,
        net: &RoadNetwork,
        seeds: impl IntoIterator<Item = (VertexId, f64)>,
        k: usize,
        passable: impl Fn(EdgeId) -> bool,
        site_at: impl Fn(VertexId) -> Option<SiteIdx>,
        out: &mut Vec<(SiteIdx, f64)>,
    ) -> ExpansionStats {
        let mut stats = ExpansionStats::default();
        out.clear();
        if k == 0 {
            return stats;
        }
        self.dist.begin(net.num_vertices());
        self.heap.clear();
        for (v, d) in seeds {
            self.relax(v, d, &mut stats);
        }
        while let Some(Reverse(DistEntry { dist: d, id: u })) = self.heap.pop() {
            if d > self.dist.get(u.idx()) {
                continue; // stale
            }
            stats.settled += 1;
            if let Some(s) = site_at(u) {
                out.push((s, d));
                if out.len() == k {
                    break;
                }
            }
            for &(w, e) in net.neighbors(u) {
                if passable(e) {
                    self.relax(w, d + net.edge(e).len, &mut stats);
                }
            }
        }
        // Equal-distance sites settle in vertex order; normalise ties to
        // ascending site index. The comparator is a total order, so the
        // unstable (allocation-free) sort is deterministic.
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        stats
    }
}
