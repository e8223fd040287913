//! Generation-stamped scratch primitives for allocation-free hot paths.
//!
//! The INS protocol is a per-tick loop: at fleet scale, every transient
//! the tick path allocates (a visited bitmap here, a distance array
//! there) turns into millions of `malloc`/`free` pairs per second and —
//! worse — into allocator lock contention across worker threads. The
//! types in this module let a query reuse one persistent scratch
//! allocation across ticks while still getting "freshly cleared"
//! semantics every time:
//!
//! * [`GenMarks`] — a visited set over `0..n` with O(1) logical clear:
//!   each slot holds the generation number at which it was last marked,
//!   so "clear everything" is a single counter bump, not an O(n) wipe.
//! * [`DistSlots`] — the same trick for `f64` distance arrays: a stale
//!   slot reads back as `+∞`, exactly like a freshly `vec![INFINITY; n]`.
//! * [`DistEntry`] — the one shared ordered `(distance, id)` heap key
//!   (total order via [`f64::total_cmp`], ties by id) that every
//!   best-first expansion in the workspace uses. Previously the VoR-tree
//!   kNN, Dijkstra, INE and the restricted subnetwork search each hand-
//!   rolled their own copy of this type; keeping one canonical
//!   definition keeps their tie-break semantics provably identical.
//!
//! This crate hosts them because it is the lowest common dependency of
//! `insq-index` (Euclidean kNN) and `insq-roadnet` (network expansion) —
//! the same reason the distance kernels live here.

use std::cmp::Ordering;

/// An ordered `(distance, id)` pair for best-first search heaps.
///
/// The ordering is **total**: distances compare via [`f64::total_cmp`]
/// and exact ties break by `id` (ascending). Wrap it in
/// [`std::cmp::Reverse`] for a min-heap. This single definition replaces
/// the per-crate `HeapSite` / `HeapEntry` / `FloatOrd` duplicates so all
/// expansions share one tie-break rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistEntry<I> {
    /// The priority (a distance; any `f64`, including non-finite).
    pub dist: f64,
    /// The payload breaking exact-distance ties (ascending).
    pub id: I,
}

impl<I: PartialEq> Eq for DistEntry<I> {}

impl<I: Ord + PartialEq> PartialOrd for DistEntry<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I: Ord + PartialEq> Ord for DistEntry<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A reusable visited set over a dense `0..n` id range with O(1) clear.
///
/// Call [`GenMarks::begin`] once per query to logically clear the set,
/// then [`GenMarks::mark`] slots. The backing array is allocated once
/// (per size change) and reused forever; a generation counter
/// distinguishes "marked this query" from leftovers of earlier queries,
/// so reuse is observationally identical to a fresh `vec![false; n]` per
/// call.
#[derive(Debug, Clone, Default)]
pub struct GenMarks {
    stamp: Vec<u32>,
    gen: u32,
}

impl GenMarks {
    /// Creates an empty mark set (no backing storage until `begin`).
    pub fn new() -> GenMarks {
        GenMarks::default()
    }

    /// Starts a new query over ids `0..n`, logically clearing all marks.
    ///
    /// O(1) except when `n` changes (reallocate) or the `u32` generation
    /// counter wraps (full O(n) re-zero, once every ~4 billion queries).
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.gen = 0;
        }
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// Marks slot `i`; returns `true` iff it was not yet marked this query.
    pub fn mark(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.gen {
            false
        } else {
            self.stamp[i] = self.gen;
            true
        }
    }
}

/// A reusable `f64` distance array with O(1) logical reset to `+∞`.
///
/// The generation-stamped twin of `vec![f64::INFINITY; n]`: a slot that
/// was not [`set`](DistSlots::set) since the last
/// [`begin`](DistSlots::begin) reads back as `+∞`.
#[derive(Debug, Clone, Default)]
pub struct DistSlots {
    dist: Vec<f64>,
    stamp: Vec<u32>,
    gen: u32,
}

impl DistSlots {
    /// Creates an empty slot array (no backing storage until `begin`).
    pub fn new() -> DistSlots {
        DistSlots::default()
    }

    /// Starts a new query over slots `0..n`, logically resetting every
    /// slot to `+∞`. Same cost profile as [`GenMarks::begin`].
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.dist.clear();
            self.dist.resize(n, f64::INFINITY);
            self.gen = 0;
        }
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// The value of slot `i` (`+∞` if not set this query).
    pub fn get(&self, i: usize) -> f64 {
        if self.stamp[i] == self.gen {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    /// Sets slot `i` to `d`.
    pub fn set(&mut self, i: usize, d: f64) {
        self.stamp[i] = self.gen;
        self.dist[i] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn dist_entry_orders_by_distance_then_id() {
        let mut heap = BinaryHeap::new();
        for (dist, id) in [(2.0, 7u32), (1.0, 9), (1.0, 3), (0.5, 1)] {
            heap.push(Reverse(DistEntry { dist, id }));
        }
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.id)).collect();
        assert_eq!(order, vec![1, 3, 9, 7]);
    }

    #[test]
    fn marks_reset_logically_between_queries() {
        let mut m = GenMarks::new();
        m.begin(4);
        assert!(m.mark(2));
        assert!(!m.mark(2));
        m.begin(4);
        assert!(m.mark(2));
        // Resizing also clears.
        m.begin(6);
        assert!(m.mark(2));
        assert!(m.mark(5));
    }

    #[test]
    fn marks_survive_generation_wrap() {
        let mut m = GenMarks::new();
        m.begin(2);
        m.mark(0);
        m.gen = u32::MAX; // fast-forward to the wrap point
        m.begin(2);
        assert!(m.mark(0));
        assert!(!m.mark(0));
        assert!(m.mark(1));
    }

    #[test]
    fn dist_slots_read_infinity_when_stale() {
        let mut d = DistSlots::new();
        d.begin(3);
        assert_eq!(d.get(1), f64::INFINITY);
        d.set(1, 4.5);
        assert_eq!(d.get(1), 4.5);
        d.begin(3);
        assert_eq!(d.get(1), f64::INFINITY);
        d.set(1, 2.0);
        assert_eq!(d.get(1), 2.0);
        d.begin(5);
        assert_eq!(d.get(4), f64::INFINITY);
    }
}
