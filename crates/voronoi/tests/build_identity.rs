//! The static build's output, pinned bit for bit.
//!
//! `Triangulation::build` and `Voronoi::build` are hashed on four inputs
//! — uniform, clustered, a half-offset grid whose distance ties decide
//! the sweep order, and a cocircular ring around its centre — and the
//! hashes must equal the ones recorded here. A change to the build that
//! moves one triangle, one twin, one hull vertex or one neighbor list
//! anywhere fails this test, whatever it does to the Delaunay property.
//!
//! The hash is a 64-bit FNV-1a written out below: `DefaultHasher` makes
//! no promise that its algorithm stays the same between releases.

use insq_geom::{Aabb, Point};
use insq_voronoi::{SiteId, Triangulation, Voronoi};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn all(values: &[u32]) -> u64 {
        let mut h = Fnv::new();
        values.iter().for_each(|&v| h.u32(v));
        h.0
    }
}

/// Deterministic LCG in [0, 1).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

fn uniform(n: usize) -> Vec<Point> {
    let mut next = lcg(0x5eed_0001);
    (0..n)
        .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
        .collect()
}

/// 40 clusters, each a sum-of-uniforms blob around a uniform centre.
fn clustered(n: usize) -> Vec<Point> {
    let mut next = lcg(0x5eed_0002);
    let centres: Vec<Point> = (0..40)
        .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
        .collect();
    (0..n)
        .map(|i| {
            let c = centres[i % centres.len()];
            let dx = (next() + next() + next() - 1.5) * 12.0;
            let dy = (next() + next() + next() - 1.5) * 12.0;
            Point::new(c.x + dx, c.y + dy)
        })
        .collect()
}

/// An integer grid whose odd rows are shifted by half a step: every
/// point has several others at exactly the same distance from the seed
/// circumcentre, so the order ties fall in decides the triangulation.
fn offset_grid(side: usize) -> Vec<Point> {
    (0..side)
        .flat_map(|row| {
            let shift = if row % 2 == 1 { 0.5 } else { 0.0 };
            (0..side).map(move |col| Point::new(col as f64 + shift, row as f64))
        })
        .collect()
}

/// Eight points on the unit circle plus its centre.
fn ring_and_centre() -> Vec<Point> {
    let mut points = vec![Point::new(0.0, 0.0)];
    for k in 0..8 {
        let angle = std::f64::consts::TAU * k as f64 / 8.0;
        points.push(Point::new(angle.cos(), angle.sin()));
    }
    points
}

/// `[triangles, halfedges, hull, neighbor lists]` of the build.
fn hashes(points: &[Point]) -> [u64; 4] {
    let tri = Triangulation::build(points).expect("input builds");
    let bounds = Aabb::of_points(points.iter().copied()).expect("non-empty input");
    let voronoi = Voronoi::build(points.to_vec(), bounds).expect("input builds");
    let mut lists = Fnv::new();
    for s in 0..points.len() as u32 {
        let list = voronoi.neighbors(SiteId(s));
        lists.u32(list.len() as u32);
        list.iter().for_each(|nb| lists.u32(nb.0));
    }
    [
        Fnv::all(&tri.triangles),
        Fnv::all(&tri.halfedges),
        Fnv::all(&tri.hull),
        lists.0,
    ]
}

#[track_caller]
fn assert_hashes(name: &str, points: &[Point], expected: [u64; 4]) {
    let got = hashes(points);
    let shown: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(
        got,
        expected,
        "{name}: [triangles, halfedges, hull, neighbors] hashes moved: [{}]",
        shown.join(", ")
    );
}

#[test]
fn uniform_build_is_pinned() {
    assert_hashes(
        "uniform",
        &uniform(20_000),
        [
            0x1df11de5eb8a69da,
            0x59c04dc4de2296bd,
            0x804d15e942f6e644,
            0x340e515a66d63401,
        ],
    );
}

#[test]
fn clustered_build_is_pinned() {
    assert_hashes(
        "clustered",
        &clustered(20_000),
        [
            0x02345e6bbd53967a,
            0x06094205ac76ba2a,
            0xf1708007a6803736,
            0x6864a266fade060d,
        ],
    );
}

#[test]
fn tied_grid_build_is_pinned() {
    assert_hashes(
        "offset grid",
        &offset_grid(120),
        [
            0x11d4312c35f8ff78,
            0x2f25e99532ba140e,
            0x60d07bace6bee107,
            0x84b9a2da67d9524e,
        ],
    );
}

#[test]
fn cocircular_build_is_pinned() {
    assert_hashes(
        "ring and centre",
        &ring_and_centre(),
        [
            0x41ab384d0b1e9755,
            0x297281ec5f306ce4,
            0x46e5193bad00d4ad,
            0x29fa418eb68de475,
        ],
    );
}
