//! Scratch-pollution property test: a long-lived, *shared* scratch arena
//! must be observationally invisible. Every tick through a scratch that
//! has already served arbitrary other queries, spaces, and epochs must
//! be **bit-identical** (outcomes, result ids, result distances down to
//! the f64 bit pattern, validation scopes, statistics) to the same tick
//! through a freshly defaulted scratch.
//!
//! The interleavings are randomized but deterministic (fixed-seed LCG):
//! several processors round-robin over one shared scratch — exactly how
//! a fleet worker uses it across the shards it drains — with
//! invalidations and index rebinds (epoch swaps) injected mid-run, while
//! twin processors run the identical schedule on fresh scratches.

use insq_core::{InsConfig, MovingKnn, Processor, QueryStats, Space};
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq_roadnet::{NetTrajectory, NetworkWorld, SiteSet};
use std::sync::Arc;

/// A twin: the left processor ticks through the shared scratch, the
/// right through a fresh one.
type Pair<S> = (
    Processor<S, Arc<<S as Space>::Index>>,
    Processor<S, Arc<<S as Space>::Index>>,
);

fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    }
}

fn unit(r: u64) -> f64 {
    (r as f64) / ((1u64 << 53) as f64)
}

/// Drives `n_queries` twin processor pairs over `indexes` (rebinding on
/// schedule) through `steps` randomized ticks: the left twin of every
/// pair shares ONE scratch, the right twin gets a fresh scratch each
/// tick. Asserts bit-identical observable state throughout.
fn check_space<S: Space>(indexes: &[Arc<S::Index>], positions: &[S::Pos], k: usize, seed: u64)
where
    S::SiteId: std::fmt::Debug,
{
    let cfg = InsConfig::new(k, 1.6);
    let n_queries = 3;
    let mut shared = S::Scratch::default();
    let mut pairs: Vec<Pair<S>> = (0..n_queries)
        .map(|_| {
            (
                Processor::new(Arc::clone(&indexes[0]), cfg).unwrap(),
                Processor::new(Arc::clone(&indexes[0]), cfg).unwrap(),
            )
        })
        .collect();

    let mut next = lcg(seed);
    let steps = 400;
    for step in 0..steps {
        let who = (next() % n_queries as u64) as usize;
        let (a, b) = &mut pairs[who];
        match next() % 24 {
            // Rarely: drop all client state (forces a recomputation).
            0 => {
                a.invalidate();
                b.invalidate();
            }
            // Rarely: epoch swap — rebind to another snapshot.
            1 => {
                let idx = (next() % indexes.len() as u64) as usize;
                a.rebind(Arc::clone(&indexes[idx]));
                b.rebind(Arc::clone(&indexes[idx]));
            }
            _ => {}
        }
        let pos = positions[(next() % positions.len() as u64) as usize];
        let oa = a.tick_with(&mut shared, pos);
        let ob = b.tick_with(&mut S::Scratch::default(), pos);
        assert_eq!(oa, ob, "[{}] outcome diverged at step {step}", S::NAME);
        let ka = a.current_knn_with_dists();
        let kb = b.current_knn_with_dists();
        assert_eq!(ka.len(), kb.len(), "[{}] step {step}", S::NAME);
        for (&(sa, da), &(sb, db)) in ka.iter().zip(kb.iter()) {
            assert_eq!(sa, sb, "[{}] result id diverged at step {step}", S::NAME);
            assert_eq!(
                da.to_bits(),
                db.to_bits(),
                "[{}] result distance bits diverged at step {step}",
                S::NAME
            );
        }
        assert_eq!(a.scope(), b.scope(), "[{}] step {step}", S::NAME);
    }
    for (i, (a, b)) in pairs.iter().enumerate() {
        let (sa, sb): (&QueryStats, &QueryStats) = (a.stats(), b.stats());
        assert_eq!(sa, sb, "[{}] stats diverged for query {i}", S::NAME);
    }
}

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut next = lcg(seed);
    (0..n)
        .map(|_| Point::new(unit(next()) * 100.0, unit(next()) * 100.0))
        .collect()
}

fn bounds() -> Aabb {
    Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0))
}

#[test]
fn euclidean_shared_scratch_is_invisible() {
    let indexes: Vec<Arc<VorTree>> = [(400usize, 42u64), (250, 77)]
        .iter()
        .map(|&(n, s)| Arc::new(VorTree::build(random_points(n, s), bounds()).unwrap()))
        .collect();
    let positions = random_points(64, 5);
    check_space::<insq_core::Euclidean>(&indexes, &positions, 5, 1);
}

#[test]
fn network_shared_scratch_is_invisible() {
    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 12,
                rows: 12,
                ..GridConfig::default()
            },
            3,
        )
        .unwrap(),
    );
    // Two epochs: same network, different site sets (the POIs-changed
    // update case).
    let indexes: Vec<Arc<NetworkWorld>> = [(30usize, 3u64), (24, 19)]
        .iter()
        .map(|&(n, s)| {
            let sv = random_site_vertices(&net, n, s).unwrap();
            let sites = SiteSet::new(&net, sv).unwrap();
            Arc::new(NetworkWorld::build(Arc::clone(&net), sites))
        })
        .collect();
    let tour = NetTrajectory::random_tour(&net, 8, 5).unwrap();
    let positions: Vec<_> = (0..64)
        .map(|i| tour.position(&net, tour.length() * i as f64 / 64.0))
        .collect();
    check_space::<insq_core::Network>(&indexes, &positions, 4, 3);
}
