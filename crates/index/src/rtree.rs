//! A point R-tree: STR bulk loading, dynamic insert/remove, range search
//! and best-first kNN.
//!
//! The tree stores `(Point, u32)` entries — position plus caller-chosen id
//! (the INSQ system stores [`insq_voronoi::SiteId`] values). Best-first kNN
//! over `MINDIST` lower bounds (Roussopoulos et al.) is the search kernel
//! both the naive baseline and the VoR-tree build on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use insq_geom::{Aabb, Point};

/// Maximum entries/children per node.
pub const MAX_ENTRIES: usize = 16;
/// Minimum fill (except the root).
pub const MIN_ENTRIES: usize = 6;

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

impl Node {
    fn new_leaf() -> Node {
        Node {
            bbox: Aabb::empty(),
            kind: NodeKind::Leaf {
                entries: Vec::with_capacity(MAX_ENTRIES + 1),
            },
        }
    }

    fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Internal { children } => children.len(),
            NodeKind::Leaf { entries } => entries.len(),
        }
    }
}

/// A dynamic R-tree over 2-D points.
#[derive(Debug, Clone)]
pub struct RTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    /// Height of the root: 0 when the root is a leaf.
    height: u32,
    size: usize,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// Creates an empty tree.
    pub fn new() -> RTree {
        RTree {
            nodes: vec![Node::new_leaf()],
            free: Vec::new(),
            root: 0,
            height: 0,
            size: 0,
        }
    }

    /// Bulk-loads a tree with the Sort-Tile-Recursive (STR) algorithm:
    /// entries are tiled into vertical slabs by `x`, each slab sorted by
    /// `y`, and packed into full leaves; upper levels are packed the same
    /// way over child centers.
    pub fn bulk_load(mut items: Vec<Entry>) -> RTree {
        if items.is_empty() {
            return RTree::new();
        }
        let mut tree = RTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            height: 0,
            size: items.len(),
        };

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
        let mut height = 0u32;
        while level.len() > 1 {
            height += 1;
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
        tree.height = height;
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

    /// Bounding box of all entries ([`Aabb::empty`] when empty).
    pub fn bounds(&self) -> Aabb {
        self.nodes[self.root as usize].bbox
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    // ---------------------------------------------------------------- insert

    /// Inserts an entry.
    pub fn insert(&mut self, point: Point, id: u32) {
        let entry = Entry { point, id };
        self.size += 1;
        if let Some((sibling, sibling_bbox)) = self.insert_rec(self.root, entry) {
            // Root split: grow the tree.
            let old_root = self.root;
            let old_bbox = self.nodes[old_root as usize].bbox;
            let new_root = self.alloc(Node {
                bbox: old_bbox.union(&sibling_bbox),
                kind: NodeKind::Internal {
                    children: vec![old_root, sibling],
                },
            });
            self.root = new_root;
            self.height += 1;
        }
    }

    /// Recursive insert; returns a new sibling (id, bbox) when `node` split.
    fn insert_rec(&mut self, node: u32, entry: Entry) -> Option<(u32, Aabb)> {
        let ni = node as usize;
        self.nodes[ni].bbox.expand_to(entry.point);
        if let NodeKind::Leaf { entries } = &mut self.nodes[ni].kind {
            entries.push(entry);
            if entries.len() > MAX_ENTRIES {
                return Some(self.split_leaf(node));
            }
            return None;
        }
        let NodeKind::Internal { children } = &self.nodes[ni].kind else {
            unreachable!("not a leaf")
        };
        // Choose the child needing least area enlargement.
        let mut best = children[0];
        let mut best_enlarge = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for &c in children {
            let bb = self.nodes[c as usize].bbox;
            let mut grown = bb;
            grown.expand_to(entry.point);
            let enlarge = grown.area() - bb.area();
            let area = bb.area();
            if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
                best = c;
                best_enlarge = enlarge;
                best_area = area;
            }
        }
        if let Some((sibling, sibling_bbox)) = self.insert_rec(best, entry) {
            let NodeKind::Internal { children } = &mut self.nodes[ni].kind else {
                unreachable!("node kind cannot change during insert")
            };
            children.push(sibling);
            self.nodes[ni].bbox = self.nodes[ni].bbox.union(&sibling_bbox);
            if self.nodes[ni].len() > MAX_ENTRIES {
                return Some(self.split_internal(node));
            }
        }
        None
    }

    /// Quadratic split of an overflowing leaf; returns the new sibling.
    fn split_leaf(&mut self, node: u32) -> (u32, Aabb) {
        let NodeKind::Leaf { entries } = &mut self.nodes[node as usize].kind else {
            unreachable!("split_leaf on internal node")
        };
        let items = std::mem::take(entries);
        let (a, b) = quadratic_split(items, |e| Aabb::of_point(e.point));
        let bbox_a = Aabb::of_points(a.iter().map(|e| e.point)).expect("split halves non-empty");
        let bbox_b = Aabb::of_points(b.iter().map(|e| e.point)).expect("split halves non-empty");
        self.nodes[node as usize] = Node {
            bbox: bbox_a,
            kind: NodeKind::Leaf { entries: a },
        };
        let sibling = self.alloc(Node {
            bbox: bbox_b,
            kind: NodeKind::Leaf { entries: b },
        });
        (sibling, bbox_b)
    }

    /// Quadratic split of an overflowing internal node.
    fn split_internal(&mut self, node: u32) -> (u32, Aabb) {
        let NodeKind::Internal { children } = &mut self.nodes[node as usize].kind else {
            unreachable!("split_internal on leaf")
        };
        let items = std::mem::take(children);
        let boxes: Vec<Aabb> = items.iter().map(|&c| self.nodes[c as usize].bbox).collect();
        let idx: Vec<usize> = (0..items.len()).collect();
        let (a_idx, b_idx) = quadratic_split(idx, |&i| boxes[i]);
        let a: Vec<u32> = a_idx.iter().map(|&i| items[i]).collect();
        let b: Vec<u32> = b_idx.iter().map(|&i| items[i]).collect();
        let bbox_of = |ids: &[u32], nodes: &[Node]| {
            ids.iter()
                .fold(Aabb::empty(), |acc, &c| acc.union(&nodes[c as usize].bbox))
        };
        let bbox_a = bbox_of(&a, &self.nodes);
        let bbox_b = bbox_of(&b, &self.nodes);
        self.nodes[node as usize] = Node {
            bbox: bbox_a,
            kind: NodeKind::Internal { children: a },
        };
        let sibling = self.alloc(Node {
            bbox: bbox_b,
            kind: NodeKind::Internal { children: b },
        });
        (sibling, bbox_b)
    }

    // ---------------------------------------------------------------- remove

    /// Removes the entry with exactly this position and id. Returns whether
    /// it was found.
    pub fn remove(&mut self, point: Point, id: u32) -> bool {
        let mut orphans: Vec<Entry> = Vec::new();
        let found = self.remove_rec(self.root, point, id, &mut orphans);
        if !found {
            return false;
        }
        self.size -= 1;
        // Shrink the root while it is an internal node with one child.
        loop {
            let ri = self.root as usize;
            match &self.nodes[ri].kind {
                NodeKind::Internal { children } if children.len() == 1 => {
                    let only = children[0];
                    self.free.push(self.root);
                    self.root = only;
                    self.height -= 1;
                }
                NodeKind::Internal { children } if children.is_empty() => {
                    // All entries gone: reset to an empty leaf root.
                    self.nodes[ri] = Node::new_leaf();
                    self.height = 0;
                    break;
                }
                _ => break,
            }
        }
        // Reinsert orphaned entries.
        for e in orphans {
            self.size -= 1; // insert() will re-add
            self.insert(e.point, e.id);
        }
        true
    }

    /// Recursive removal; collects entries of condensed nodes in `orphans`.
    fn remove_rec(&mut self, node: u32, point: Point, id: u32, orphans: &mut Vec<Entry>) -> bool {
        let ni = node as usize;
        match &mut self.nodes[ni].kind {
            NodeKind::Leaf { entries } => {
                let before = entries.len();
                entries.retain(|e| !(e.id == id && e.point == point));
                if entries.len() == before {
                    return false;
                }
                self.recompute_bbox(node);
                true
            }
            NodeKind::Internal { children } => {
                // By position: a child without the entry changes nothing.
                for at in 0..children.len() {
                    let NodeKind::Internal { children } = &self.nodes[ni].kind else {
                        unreachable!("node kind cannot change during remove")
                    };
                    let c = children[at];
                    if !self.nodes[c as usize].bbox.contains(point) {
                        continue;
                    }
                    if self.remove_rec(c, point, id, orphans) {
                        // Condense: drop underfull children, orphaning
                        // their entries.
                        if self.nodes[c as usize].len() < MIN_ENTRIES {
                            self.collect_entries(c, orphans);
                            self.free.push(c);
                            let NodeKind::Internal { children } = &mut self.nodes[ni].kind else {
                                unreachable!()
                            };
                            children.retain(|&x| x != c);
                        }
                        self.recompute_bbox(node);
                        return true;
                    }
                }
                false
            }
        }
    }

    fn collect_entries(&mut self, node: u32, out: &mut Vec<Entry>) {
        match std::mem::replace(
            &mut self.nodes[node as usize].kind,
            NodeKind::Leaf {
                entries: Vec::new(),
            },
        ) {
            NodeKind::Leaf { entries } => out.extend(entries),
            NodeKind::Internal { children } => {
                for c in children {
                    self.collect_entries(c, out);
                    self.free.push(c);
                }
            }
        }
    }

    fn recompute_bbox(&mut self, node: u32) {
        let bbox = match &self.nodes[node as usize].kind {
            NodeKind::Leaf { entries } => {
                Aabb::of_points(entries.iter().map(|e| e.point)).unwrap_or_else(Aabb::empty)
            }
            NodeKind::Internal { children } => children.iter().fold(Aabb::empty(), |acc, &c| {
                acc.union(&self.nodes[c as usize].bbox)
            }),
        };
        self.nodes[node as usize].bbox = bbox;
    }

    // ---------------------------------------------------------------- search

    /// All entries whose point lies in `region` (boundary inclusive).
    pub fn range(&self, region: &Aabb) -> Vec<Entry> {
        let mut out = Vec::new();
        if self.size == 0 {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            let n = &self.nodes[node as usize];
            if !n.bbox.intersects(region) {
                continue;
            }
            match &n.kind {
                NodeKind::Leaf { entries } => {
                    out.extend(entries.iter().filter(|e| region.contains(e.point)));
                }
                NodeKind::Internal { children } => stack.extend_from_slice(children),
            }
        }
        out
    }

    /// The `k` entries nearest to `q`, ascending by distance (ties broken
    /// by id for determinism). Returns fewer when the tree holds fewer.
    pub fn knn(&self, q: Point, k: usize) -> Vec<(Entry, f64)> {
        self.knn_with_stats(q, k).0
    }

    /// [`RTree::knn`] plus search-effort statistics.
    pub fn knn_with_stats(&self, q: Point, k: usize) -> (Vec<(Entry, f64)>, KnnStats) {
        let mut scratch = RTreeScratch::default();
        let mut result = Vec::with_capacity(k);
        let stats = self.knn_into(&mut scratch, q, k, &mut result);
        (result, stats)
    }

    /// Allocation-free [`RTree::knn_with_stats`]: the best-first frontier
    /// lives in `scratch` (reused across calls) and results are written
    /// into `out` (cleared first). Bit-identical to the allocating form.
    pub fn knn_into(
        &self,
        scratch: &mut RTreeScratch,
        q: Point,
        k: usize,
        out: &mut Vec<(Entry, f64)>,
    ) -> KnnStats {
        out.clear();
        let mut stats = KnnStats::default();
        if k == 0 || self.size == 0 {
            return stats;
        }
        // Best-first search over MINDIST lower bounds.
        let heap = &mut scratch.heap;
        heap.clear();
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
        stats
    }

    /// The nearest entry to `q`, if any.
    pub fn nearest(&self, q: Point) -> Option<(Entry, f64)> {
        self.knn(q, 1).pop()
    }

    /// Allocation-free [`RTree::nearest`]: reuses `scratch` for both the
    /// frontier heap and the one-element result buffer.
    pub fn nearest_with(&self, scratch: &mut RTreeScratch, q: Point) -> Option<(Entry, f64)> {
        let mut buf = std::mem::take(&mut scratch.nearest_buf);
        self.knn_into(scratch, q, 1, &mut buf);
        let hit = buf.pop();
        buf.clear();
        scratch.nearest_buf = buf;
        hit
    }

    /// Iterates over all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        let mut stack = vec![self.root];
        let mut buf: Vec<Entry> = Vec::new();
        std::iter::from_fn(move || loop {
            if let Some(e) = buf.pop() {
                return Some(e);
            }
            let node = stack.pop()?;
            match &self.nodes[node as usize].kind {
                NodeKind::Leaf { entries } => buf.extend_from_slice(entries),
                NodeKind::Internal { children } => stack.extend_from_slice(children),
            }
        })
    }

    /// Validates structural invariants (bbox containment, fill factors,
    /// balanced depth). Test/debug helper; panics on violation.
    pub fn check_invariants(&self) {
        if self.size == 0 {
            return;
        }
        let mut leaf_depths = Vec::new();
        self.check_rec(self.root, 0, &mut leaf_depths, true);
        let first = leaf_depths[0];
        assert!(
            leaf_depths.iter().all(|&d| d == first),
            "unbalanced leaf depths: {leaf_depths:?}"
        );
        assert_eq!(first, self.height, "height bookkeeping");
    }

    fn check_rec(&self, node: u32, depth: u32, leaf_depths: &mut Vec<u32>, is_root: bool) {
        let n = &self.nodes[node as usize];
        match &n.kind {
            NodeKind::Leaf { entries } => {
                for e in entries {
                    assert!(n.bbox.contains(e.point), "entry outside leaf bbox");
                }
                assert!(entries.len() <= MAX_ENTRIES, "leaf overflow");
                leaf_depths.push(depth);
            }
            NodeKind::Internal { children } => {
                assert!(!children.is_empty());
                assert!(children.len() <= MAX_ENTRIES, "internal overflow");
                if !is_root {
                    // Bulk-loaded trees may have one underfull node per
                    // level; accept >= 1 rather than strict MIN_ENTRIES.
                    assert!(!children.is_empty(), "empty internal node");
                }
                for &c in children {
                    assert!(
                        n.bbox.contains_box(&self.nodes[c as usize].bbox),
                        "child bbox escapes parent"
                    );
                    self.check_rec(c, depth + 1, leaf_depths, false);
                }
            }
        }
    }
}

/// Guttman's quadratic split over any items with a bbox projection.
fn quadratic_split<T, F: Fn(&T) -> Aabb>(items: Vec<T>, bbox_of: F) -> (Vec<T>, Vec<T>) {
    debug_assert!(items.len() >= 2);
    // Pick the pair wasting the most area as seeds.
    let boxes: Vec<Aabb> = items.iter().map(&bbox_of).collect();
    let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let waste = boxes[i].union(&boxes[j]).area() - boxes[i].area() - boxes[j].area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a: Vec<usize> = vec![seed_a];
    let mut group_b: Vec<usize> = vec![seed_b];
    let mut bbox_a = boxes[seed_a];
    let mut bbox_b = boxes[seed_b];
    let total = items.len();
    let mut rest: Vec<usize> = (0..total).filter(|&i| i != seed_a && i != seed_b).collect();

    while let Some(pos) = pick_next(&rest, &boxes, &bbox_a, &bbox_b) {
        let i = rest.swap_remove(pos);
        // Force-assign to honour minimum fill.
        let need_a = MIN_ENTRIES.saturating_sub(group_a.len());
        let need_b = MIN_ENTRIES.saturating_sub(group_b.len());
        let remaining = rest.len() + 1;
        let to_a = if need_a >= remaining {
            true
        } else if need_b >= remaining {
            false
        } else {
            let grow_a = bbox_a.union(&boxes[i]).area() - bbox_a.area();
            let grow_b = bbox_b.union(&boxes[i]).area() - bbox_b.area();
            grow_a < grow_b || (grow_a == grow_b && group_a.len() <= group_b.len())
        };
        if to_a {
            group_a.push(i);
            bbox_a = bbox_a.union(&boxes[i]);
        } else {
            group_b.push(i);
            bbox_b = bbox_b.union(&boxes[i]);
        }
    }

    // Materialise preserving the original values.
    let mut tagged: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let take = |ids: &[usize], tagged: &mut Vec<Option<T>>| {
        ids.iter()
            .map(|&i| tagged[i].take().expect("each index assigned once"))
            .collect::<Vec<T>>()
    };
    let a = take(&group_a, &mut tagged);
    let b = take(&group_b, &mut tagged);
    (a, b)
}

/// Next item with the maximum preference between the two groups.
fn pick_next(rest: &[usize], boxes: &[Aabb], bbox_a: &Aabb, bbox_b: &Aabb) -> Option<usize> {
    if rest.is_empty() {
        return None;
    }
    let mut best_pos = 0;
    let mut best_pref = f64::NEG_INFINITY;
    for (pos, &i) in rest.iter().enumerate() {
        let grow_a = bbox_a.union(&boxes[i]).area() - bbox_a.area();
        let grow_b = bbox_b.union(&boxes[i]).area() - bbox_b.area();
        let pref = (grow_a - grow_b).abs();
        if pref > best_pref {
            best_pref = pref;
            best_pos = pos;
        }
    }
    Some(best_pos)
}

/// Reusable per-query state for the best-first kNN descent
/// ([`RTree::knn_into`] / [`RTree::nearest_with`]).
///
/// Holding one of these per worker (not per call) makes repeated kNN
/// probes allocation-free once the heap has grown to its working size.
#[derive(Debug, Clone, Default)]
pub struct RTreeScratch {
    heap: BinaryHeap<QueueItem>,
    nearest_buf: Vec<(Entry, f64)>,
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
            let tree = RTree::bulk_load(random_entries(n, 42));
            assert_eq!(tree.len(), n);
            tree.check_invariants();
        }
    }

    #[test]
    fn empty_tree_queries() {
        let tree = RTree::new();
        assert!(tree.is_empty());
        assert!(tree.knn(Point::ORIGIN, 3).is_empty());
        assert!(tree.nearest(Point::ORIGIN).is_none());
        assert!(tree.range(&Aabb::unit()).is_empty());
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
    fn incremental_insert_matches_brute() {
        let items = random_entries(300, 17);
        let mut tree = RTree::new();
        for e in &items {
            tree.insert(e.point, e.id);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 300);
        let mut next = lcg(5);
        for _ in 0..30 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            let got: Vec<u32> = tree.knn(q, 7).into_iter().map(|(e, _)| e.id).collect();
            assert_eq!(got, brute_knn(&items, q, 7));
        }
    }

    #[test]
    fn range_query() {
        let items = random_entries(400, 23);
        let tree = RTree::bulk_load(items.clone());
        let region = Aabb::new(Point::new(20.0, 20.0), Point::new(60.0, 50.0));
        let mut got: Vec<u32> = tree.range(&region).into_iter().map(|e| e.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = items
            .iter()
            .filter(|e| region.contains(e.point))
            .map(|e| e.id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "test region should be non-trivial");
    }

    #[test]
    fn remove_and_requery() {
        let items = random_entries(150, 31);
        let mut tree = RTree::bulk_load(items.clone());
        // Remove every third entry.
        let mut live: Vec<Entry> = Vec::new();
        for (i, e) in items.iter().enumerate() {
            if i % 3 == 0 {
                assert!(tree.remove(e.point, e.id), "entry must be found");
            } else {
                live.push(*e);
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), live.len());
        let mut next = lcg(77);
        for _ in 0..20 {
            let q = Point::new(next() * 100.0, next() * 100.0);
            let got: Vec<u32> = tree.knn(q, 5).into_iter().map(|(e, _)| e.id).collect();
            assert_eq!(got, brute_knn(&live, q, 5));
        }
        // Removing a non-existent entry fails gracefully.
        assert!(!tree.remove(Point::new(-1000.0, -1000.0), 9999));
    }

    #[test]
    fn remove_everything() {
        let items = random_entries(60, 13);
        let mut tree = RTree::bulk_load(items.clone());
        for e in &items {
            assert!(tree.remove(e.point, e.id));
        }
        assert!(tree.is_empty());
        assert!(tree.knn(Point::ORIGIN, 1).is_empty());
        // Tree remains usable.
        tree.insert(Point::new(1.0, 1.0), 7);
        assert_eq!(tree.nearest(Point::ORIGIN).unwrap().0.id, 7);
    }

    #[test]
    fn iter_visits_all() {
        let items = random_entries(100, 53);
        let tree = RTree::bulk_load(items.clone());
        let mut ids: Vec<u32> = tree.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let want: Vec<u32> = (0..100).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn duplicate_positions_allowed() {
        // R-trees happily store coincident points with distinct ids.
        let mut tree = RTree::new();
        for id in 0..20 {
            tree.insert(Point::new(1.0, 1.0), id);
        }
        tree.insert(Point::new(2.0, 2.0), 100);
        let got: Vec<u32> = tree
            .knn(Point::new(1.0, 1.0), 21)
            .iter()
            .map(|(e, _)| e.id)
            .collect();
        assert_eq!(got.len(), 21);
        assert_eq!(got[20], 100, "farther point comes last");
    }
}
