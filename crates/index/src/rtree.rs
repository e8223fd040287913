//! A static point R-tree: STR bulk loading and best-first kNN.
//!
//! The tree stores `(Point, u32)` entries — position plus caller-chosen id
//! (the INSQ system stores [`insq_voronoi::SiteId`] values). Best-first kNN
//! over `MINDIST` lower bounds (Roussopoulos et al.) is the search the
//! paper's Naive, OkV and V* baselines run; the served index
//! ([`crate::VorTree`]) needs no R-tree.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use insq_geom::{Aabb, Point};

/// Maximum entries/children per node.
pub const MAX_ENTRIES: usize = 16;

/// An entry stored in the tree: a position and an opaque id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Entry position.
    pub point: Point,
    /// Caller-chosen identifier.
    pub id: u32,
}

/// Search-effort statistics of one kNN query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnStats {
    /// Tree nodes popped from the priority queue.
    pub nodes_visited: usize,
    /// Leaf entries whose distance was evaluated.
    pub entries_scanned: usize,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Internal { children: Vec<u32> },
    Leaf { entries: Vec<Entry> },
}

#[derive(Debug, Clone)]
struct Node {
    bbox: Aabb,
    kind: NodeKind,
}

/// A static R-tree over 2-D points.
#[derive(Debug, Clone)]
pub struct RTree {
    nodes: Vec<Node>,
    root: u32,
    size: usize,
}

impl RTree {
    /// Bulk-loads a tree with the Sort-Tile-Recursive (STR) algorithm:
    /// entries are tiled into vertical slabs by `x`, each slab sorted by
    /// `y`, and packed into full leaves; upper levels are packed the same
    /// way over child centers.
    pub fn bulk_load(mut items: Vec<Entry>) -> RTree {
        let mut tree = RTree {
            nodes: Vec::new(),
            root: 0,
            size: items.len(),
        };
        if items.is_empty() {
            // Searches return before reading the (absent) root.
            return tree;
        }

        // --- Leaf level ---
        let n = items.len();
        let leaf_count = n.div_ceil(MAX_ENTRIES);
        let slab_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slab = n.div_ceil(slab_count);
        items.sort_by(|a, b| a.point.x.total_cmp(&b.point.x));

        let mut level: Vec<u32> = Vec::with_capacity(leaf_count);
        for slab in items.chunks_mut(per_slab.max(1)) {
            slab.sort_by(|a, b| a.point.y.total_cmp(&b.point.y));
            for group in slab.chunks(MAX_ENTRIES) {
                let bbox =
                    Aabb::of_points(group.iter().map(|e| e.point)).expect("group is non-empty");
                let id = tree.alloc(Node {
                    bbox,
                    kind: NodeKind::Leaf {
                        entries: group.to_vec(),
                    },
                });
                level.push(id);
            }
        }

        // --- Upper levels ---
        while level.len() > 1 {
            let count = level.len().div_ceil(MAX_ENTRIES);
            let slabs = (count as f64).sqrt().ceil() as usize;
            let per_slab = level.len().div_ceil(slabs);
            level.sort_by(|&a, &b| {
                tree.nodes[a as usize]
                    .bbox
                    .center()
                    .x
                    .total_cmp(&tree.nodes[b as usize].bbox.center().x)
            });
            let mut next_level = Vec::with_capacity(count);
            let mut slab_buf: Vec<u32> = Vec::new();
            for slab in level.chunks(per_slab.max(1)) {
                slab_buf.clear();
                slab_buf.extend_from_slice(slab);
                slab_buf.sort_by(|&a, &b| {
                    tree.nodes[a as usize]
                        .bbox
                        .center()
                        .y
                        .total_cmp(&tree.nodes[b as usize].bbox.center().y)
                });
                for group in slab_buf.chunks(MAX_ENTRIES) {
                    let bbox = group.iter().fold(Aabb::empty(), |acc, &c| {
                        acc.union(&tree.nodes[c as usize].bbox)
                    });
                    let id = tree.alloc(Node {
                        bbox,
                        kind: NodeKind::Internal {
                            children: group.to_vec(),
                        },
                    });
                    next_level.push(id);
                }
            }
            level = next_level;
        }

        tree.root = level[0];
        tree
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn alloc(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// The `k` entries nearest to `q`, ascending by distance (ties broken
    /// by id for determinism). Returns fewer when the tree holds fewer.
    pub fn knn(&self, q: Point, k: usize) -> Vec<(Entry, f64)> {
        self.knn_with_stats(q, k).0
    }

    /// [`RTree::knn`] plus search-effort statistics.
    pub fn knn_with_stats(&self, q: Point, k: usize) -> (Vec<(Entry, f64)>, KnnStats) {
        let mut out = Vec::with_capacity(k);
        let mut stats = KnnStats::default();
        if k == 0 || self.size == 0 {
            return (out, stats);
        }
        // Best-first search over MINDIST lower bounds.
        let mut heap = BinaryHeap::new();
        heap.push(QueueItem {
            dist_sq: self.nodes[self.root as usize].bbox.min_dist_sq(q),
            tie: 0,
            kind: ItemKind::Node(self.root),
        });
        while let Some(item) = heap.pop() {
            match item.kind {
                ItemKind::Node(id) => {
                    stats.nodes_visited += 1;
                    match &self.nodes[id as usize].kind {
                        NodeKind::Leaf { entries } => {
                            stats.entries_scanned += entries.len();
                            for e in entries {
                                heap.push(QueueItem {
                                    dist_sq: e.point.distance_sq(q),
                                    tie: e.id,
                                    kind: ItemKind::Entry(*e),
                                });
                            }
                        }
                        NodeKind::Internal { children } => {
                            for &c in children {
                                heap.push(QueueItem {
                                    dist_sq: self.nodes[c as usize].bbox.min_dist_sq(q),
                                    tie: 0,
                                    kind: ItemKind::Node(c),
                                });
                            }
                        }
                    }
                }
                ItemKind::Entry(e) => {
                    out.push((e, item.dist_sq.sqrt()));
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        (out, stats)
    }

    /// The nearest entry to `q`, if any.
    pub fn nearest(&self, q: Point) -> Option<(Entry, f64)> {
        self.knn(q, 1).pop()
    }
}

// Priority-queue plumbing: min-heap on squared distance with id tie-breaks.

#[derive(Debug, Clone, Copy)]
enum ItemKind {
    Node(u32),
    Entry(Entry),
}

#[derive(Debug, Clone, Copy)]
struct QueueItem {
    dist_sq: f64,
    tie: u32,
    kind: ItemKind,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the smallest distance
        // first. Nodes sort before entries at equal distance so bounds are
        // expanded before results are emitted; entry ties break by id.
        other
            .dist_sq
            .total_cmp(&self.dist_sq)
            .then_with(|| {
                let rank = |k: &ItemKind| match k {
                    ItemKind::Node(_) => 0u8,
                    ItemKind::Entry(_) => 1,
                };
                rank(&other.kind).cmp(&rank(&self.kind))
            })
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }

    fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        let mut next = lcg(seed);
        (0..n)
            .map(|i| Entry {
                point: Point::new(next() * 100.0, next() * 100.0),
                id: i as u32,
            })
            .collect()
    }

    fn brute_knn(items: &[Entry], q: Point, k: usize) -> Vec<u32> {
        let mut v: Vec<&Entry> = items.iter().collect();
        v.sort_by(|a, b| {
            a.point
                .distance_sq(q)
                .total_cmp(&b.point.distance_sq(q))
                .then(a.id.cmp(&b.id))
        });
        v.into_iter().take(k).map(|e| e.id).collect()
    }

    #[test]
    fn bulk_load_structure() {
        for n in [1usize, 5, 16, 17, 100, 1000] {
            let items = random_entries(n, 42);
            let tree = RTree::bulk_load(items.clone());
            assert_eq!(tree.len(), n);
            let q = Point::new(50.0, 50.0);
            let got: Vec<u32> = tree.knn(q, n).into_iter().map(|(e, _)| e.id).collect();
            assert_eq!(got, brute_knn(&items, q, n), "every entry reachable once");
        }
    }

    #[test]
    fn empty_tree_queries() {
        let tree = RTree::bulk_load(Vec::new());
        assert!(tree.is_empty());
        assert!(tree.knn(Point::ORIGIN, 3).is_empty());
        assert!(tree.nearest(Point::ORIGIN).is_none());
    }

    #[test]
    fn knn_matches_brute_force_bulk() {
        let items = random_entries(500, 7);
        let tree = RTree::bulk_load(items.clone());
        let mut next = lcg(99);
        for _ in 0..50 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            for k in [1usize, 3, 10, 40] {
                let got: Vec<u32> = tree.knn(q, k).into_iter().map(|(e, _)| e.id).collect();
                let want = brute_knn(&items, q, k);
                assert_eq!(got, want, "k={k} q={q:?}");
            }
        }
    }

    #[test]
    fn knn_distances_ascending() {
        let tree = RTree::bulk_load(random_entries(200, 3));
        let res = tree.knn(Point::new(50.0, 50.0), 20);
        for w in res.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(res.len(), 20);
    }

    #[test]
    fn knn_k_larger_than_size() {
        let items = random_entries(5, 11);
        let tree = RTree::bulk_load(items);
        assert_eq!(tree.knn(Point::ORIGIN, 100).len(), 5);
    }

    #[test]
    fn duplicate_positions_allowed() {
        // R-trees happily store coincident points with distinct ids.
        let mut items: Vec<Entry> = (0..20)
            .map(|id| Entry {
                point: Point::new(1.0, 1.0),
                id,
            })
            .collect();
        items.push(Entry {
            point: Point::new(2.0, 2.0),
            id: 100,
        });
        let tree = RTree::bulk_load(items);
        let got: Vec<u32> = tree
            .knn(Point::new(1.0, 1.0), 21)
            .iter()
            .map(|(e, _)| e.id)
            .collect();
        assert_eq!(got.len(), 21);
        assert_eq!(got[20], 100, "farther point comes last");
    }
}
