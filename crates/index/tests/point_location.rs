//! Point location: the 1NN that [`VorTree::knn`] finds by walking the
//! Delaunay graph is the least `(squared distance, id)` site — what a
//! brute-force scan returns — on inputs that stress the walk: uniform and
//! clustered sites, an exact lattice queried where four (cell centres) or
//! two (cell edges) sites tie exactly, the same lattice jittered by a few
//! ulps so that rounded distances can misorder nearly tied sites, and
//! diagrams patched by interleaved insert/remove deltas.
//!
//! Lattice ids are shuffled, so the least id of a tied set is rarely the
//! site a greedy descent stops at: a walk that does not search its tied
//! band fails here.

use insq_geom::{Aabb, Point};
use insq_index::{SiteDelta, VorTree};
use insq_voronoi::SiteId;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

fn bounds() -> Aabb {
    Aabb::new(Point::new(-40.0, -40.0), Point::new(120.0, 120.0))
}

/// The least `(squared distance, id)` site, by scanning every site.
fn brute_nearest(tree: &VorTree, q: Point) -> SiteId {
    (0..tree.len() as u32)
        .map(SiteId)
        .min_by(|&a, &b| {
            let (da, db) = (tree.point(a).distance_sq(q), tree.point(b).distance_sq(q));
            da.total_cmp(&db).then(a.cmp(&b))
        })
        .expect("non-empty index")
}

fn assert_located(tree: &VorTree, queries: &[Point], what: &str) {
    let mut wrong = Vec::new();
    for &q in queries {
        let got = tree.knn(q, 1)[0].0;
        let want = brute_nearest(tree, q);
        if got != want {
            wrong.push((q, got, want));
        }
    }
    assert!(
        wrong.is_empty(),
        "{what}: {} of {} queries located the wrong site, first (q, walk, brute) = {:?}",
        wrong.len(),
        queries.len(),
        wrong[0]
    );
}

fn uniform(n: usize, seed: u64) -> Vec<Point> {
    let mut next = lcg(seed);
    (0..n)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect()
}

fn random_queries(n: usize, seed: u64) -> Vec<Point> {
    let mut next = lcg(seed);
    (0..n)
        .map(|_| Point::new(next() * 140.0 - 20.0, next() * 140.0 - 20.0))
        .collect()
}

/// Coordinate `i` of a unit lattice centred on the origin: half-integers,
/// so that near the origin an ulp of a coordinate is an ulp of a squared
/// distance, and jitter can misorder rounded distances.
fn coord(i: usize, side: usize) -> f64 {
    i as f64 - side as f64 / 2.0 + 0.5
}

/// `side × side` lattice points in a shuffled id order.
fn lattice(side: usize, seed: u64) -> Vec<Point> {
    let mut points: Vec<Point> = (0..side * side)
        .map(|i| Point::new(coord(i % side, side), coord(i / side, side)))
        .collect();
    let mut next = lcg(seed);
    for i in (1..points.len()).rev() {
        let j = (next() * (i + 1) as f64) as usize;
        points.swap(i, j);
    }
    points
}

/// Cell centres (four exactly tied sites) and cell-edge midpoints (two),
/// plus the lattice points themselves.
fn lattice_queries(side: usize) -> Vec<Point> {
    let mut out = Vec::new();
    for i in 0..side {
        for j in 0..side {
            let (x, y) = (coord(i, side), coord(j, side));
            out.push(Point::new(x, y));
            out.push(Point::new(x + 0.5, y));
            out.push(Point::new(x, y + 0.5));
            out.push(Point::new(x + 0.5, y + 0.5));
        }
    }
    out
}

/// Moves `v` by `steps` ulps.
fn ulps(v: f64, steps: i64) -> f64 {
    f64::from_bits((v.to_bits() as i64 + steps) as u64)
}

#[test]
fn uniform_sites() {
    let tree = VorTree::build(uniform(5_000, 11), bounds()).unwrap();
    assert_located(&tree, &random_queries(2_000, 12), "uniform");
}

#[test]
fn clustered_sites() {
    let mut next = lcg(21);
    let centres: Vec<Point> = (0..200)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    let points: Vec<Point> = (0..5_000)
        .map(|i| {
            let c = centres[i % centres.len()];
            Point::new(c.x + (next() - 0.5) * 0.8, c.y + (next() - 0.5) * 0.8)
        })
        .collect();
    let tree = VorTree::build(points, bounds()).unwrap();
    let mut queries = random_queries(1_000, 22);
    // Queries inside the clusters too, where sites crowd.
    queries.extend((0..1_000).map(|i| {
        let c = centres[(i * 7) % centres.len()];
        Point::new(c.x + (next() - 0.5), c.y + (next() - 0.5))
    }));
    assert_located(&tree, &queries, "clustered");
}

#[test]
fn exact_lattice_ties() {
    for seed in [1, 2, 3] {
        let tree = VorTree::build(lattice(40, seed), bounds()).unwrap();
        assert_located(&tree, &lattice_queries(40), "exact lattice");
    }
}

#[test]
fn lattice_jittered_by_ulps() {
    for seed in [4, 5, 6] {
        let mut next = lcg(seed + 100);
        let mut jitter = || (next() * 7.0) as i64 - 3;
        let points: Vec<Point> = lattice(40, seed)
            .into_iter()
            .map(|p| Point::new(ulps(p.x, jitter()), ulps(p.y, jitter())))
            .collect();
        let tree = VorTree::build(points, bounds()).unwrap();
        assert_located(&tree, &lattice_queries(40), "jittered lattice");
    }
}

#[test]
fn after_interleaved_deltas() {
    // Random sites, and a lattice whose points leave and come back, so
    // the patched diagram holds exact ties again.
    let mut next = lcg(31);
    let cases = [
        (uniform(2_000, 32), random_queries(400, 33)),
        (lattice(30, 34), lattice_queries(30)),
    ];
    for (points, queries) in cases {
        let pool = points.clone();
        let mut tree = VorTree::build(points, bounds()).unwrap();
        let mut gone: Vec<Point> = Vec::new();
        for epoch in 0..12 {
            let mut removed: Vec<SiteId> = (0..20)
                .map(|_| SiteId((next() * tree.len() as f64) as u32))
                .collect();
            removed.sort_unstable();
            removed.dedup();
            let left: Vec<Point> = removed.iter().map(|&s| tree.point(s)).collect();
            let added = if epoch % 2 == 0 {
                uniform(15, 40 + epoch)
                    .into_iter()
                    .filter(|p| !pool.contains(p))
                    .collect()
            } else {
                std::mem::take(&mut gone)
            };
            gone.extend(left);
            tree.apply(&SiteDelta { added, removed }).unwrap();
            assert_located(&tree, &queries, "after deltas");
        }
    }
}

#[test]
fn after_a_failed_delta() {
    // The delta removes the top ids, inserts one site and then fails on a
    // duplicate: the walk's start table still names removed ids, and the
    // 1NN must come out exact all the same.
    let points = uniform(2_000, 35);
    let twin = points[7];
    let mut tree = VorTree::build(points, bounds()).unwrap();
    let removed: Vec<SiteId> = (1_800..2_000).map(SiteId).collect();
    let added = vec![Point::new(50.5, 50.5), twin];
    assert!(tree.apply(&SiteDelta { added, removed }).is_err());
    assert_eq!(tree.len(), 1_801);
    assert_located(&tree, &random_queries(400, 36), "after a failed delta");
}
