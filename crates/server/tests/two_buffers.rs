//! Two buffers, one truth: `World::apply` may produce the next snapshot
//! in the storage of the one it retired an epoch ago — replaying the
//! delta that snapshot missed — and nothing a reader can observe may
//! tell that from patching a fresh copy.
//!
//! Every case drives a *reclaiming* world (a ticking Barrier fleet moves
//! every query off the retired snapshot, nothing else holds one) beside
//! a *pinned* world fed the same deltas whose every snapshot the test
//! keeps alive, so each of its epochs is a copy of the current snapshot.
//! After every epoch the two must agree on site array, every neighbor
//! list and touched set, and the reclaiming world's snapshot must equal
//! a from-scratch build over its own sites.

use std::sync::Arc;

use insq_core::{Euclidean, InsConfig, MovingKnn, Space};
use insq_geom::{Aabb, Point};
use insq_index::{SiteDelta, VorTree, VorTreeScratch};
use insq_roadnet::generators::SplitMix64;
use insq_server::{Epoch, FleetConfig, FleetEngine, FleetQuery, InsFleetQuery, World};
use insq_voronoi::{SiteId, Voronoi, VoronoiError};

fn bounds() -> Aabb {
    Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0))
}

fn build(points: Vec<Point>) -> VorTree {
    VorTree::build(points, bounds()).unwrap()
}

fn point(rng: &mut SplitMix64) -> Point {
    Point::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0))
}

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| point(&mut rng)).collect()
}

/// Up to four removals (the last id — no renumbering — among them now
/// and then) and up to four insertions, never both empty.
fn random_delta(n: usize, rng: &mut SplitMix64) -> SiteDelta {
    let mut delta = SiteDelta::default();
    if n > 60 {
        for _ in 0..rng.below(5) {
            let victim = if rng.below(4) == 0 {
                n - 1
            } else {
                rng.below(n)
            };
            delta.removed.push(SiteId(victim as u32));
        }
        delta.removed.sort_unstable();
        delta.removed.dedup();
    }
    for _ in 0..rng.below(5).max(usize::from(delta.removed.is_empty())) {
        delta.added.push(point(rng));
    }
    delta
}

/// Every neighbor list of every site, in site order.
fn neighbor_lists(v: &Voronoi) -> Vec<Vec<SiteId>> {
    (0..v.len() as u32)
        .map(|s| v.neighbors(SiteId(s)).to_vec())
        .collect()
}

/// A reclaiming world under a ticking fleet, and its pinned twin.
struct Twins {
    world: Arc<World<VorTree>>,
    fleet: FleetEngine<VorTree, InsFleetQuery>,
    pos: Vec<Point>,
    pinned_world: World<VorTree>,
    pinned: Vec<Arc<VorTree>>,
    rng: SplitMix64,
}

impl Twins {
    fn new(seed: u64, threads: usize) -> Twins {
        let points = random_points(250, seed);
        let world = Arc::new(World::new(build(points.clone())));
        let mut fleet = FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 3, threads });
        let mut rng = SplitMix64::new(seed ^ 0x2b0f);
        let pos: Vec<Point> = (0..10).map(|_| point(&mut rng)).collect();
        for c in 0..pos.len() {
            fleet.register(InsFleetQuery::new(&world, InsConfig::new(1 + c % 5, 1.6)).unwrap());
        }
        let pinned_world = World::new(build(points));
        let pinned = vec![pinned_world.snapshot().1];
        let mut twins = Twins {
            world,
            fleet,
            pos,
            pinned_world,
            pinned,
            rng,
        };
        twins.tick();
        twins
    }

    fn num_sites(&self) -> usize {
        self.world.snapshot().1.len()
    }

    /// Moves every client and ticks the fleet: afterwards no query reads
    /// an older snapshot than the current one, and every answer equals
    /// brute force on it. Returns the answers.
    fn tick(&mut self) -> Vec<Vec<SiteId>> {
        for p in &mut self.pos {
            p.x = (p.x + self.rng.range(-1.5, 1.5)).clamp(0.0, 100.0);
            p.y = (p.y + self.rng.range(-1.5, 1.5)).clamp(0.0, 100.0);
        }
        let pos = &self.pos;
        self.fleet.tick_all(|id| pos[id.index()]);
        let (epoch, snapshot) = self.world.snapshot();
        let mut answers = Vec::new();
        self.fleet.for_each_query(|id, q| {
            assert_eq!(q.bound_epoch(), epoch);
            let mut got = q.current_knn();
            answers.push(got.clone());
            got.sort_unstable();
            let mut want = Euclidean::brute_knn(&snapshot, pos[id.index()], got.len());
            want.sort_unstable();
            assert_eq!(got, want, "{id:?} diverged from brute force on {epoch}");
        });
        answers
    }

    /// Applies `delta` to both worlds and checks that they agree with
    /// each other and the reclaiming one with a rebuild of itself.
    fn apply(&mut self, delta: &SiteDelta) -> Result<Epoch, VoronoiError> {
        let outcome = self.world.apply(delta);
        assert_eq!(outcome, self.pinned_world.apply(delta));
        if outcome.is_ok() {
            self.pinned.push(self.pinned_world.snapshot().1);
        }
        self.assert_conforms();
        outcome
    }

    fn assert_conforms(&mut self) {
        let (epoch, snapshot, touched) = self.world.snapshot_traced();
        let (pinned_epoch, pinned, pinned_touched) = self.pinned_world.snapshot_traced();
        assert_eq!(epoch, pinned_epoch);
        assert_eq!(touched, pinned_touched, "touched sets differ on {epoch}");
        let (v, pinned_v) = (snapshot.voronoi(), pinned.voronoi());
        assert_eq!(
            v.points(),
            pinned_v.points(),
            "site arrays differ on {epoch}"
        );
        let lists = neighbor_lists(v);
        assert_eq!(lists, neighbor_lists(pinned_v), "lists differ on {epoch}");
        let rebuilt = Voronoi::build(v.points().to_vec(), v.bounds()).unwrap();
        assert_eq!(
            lists,
            neighbor_lists(&rebuilt),
            "{epoch} is not its rebuild"
        );
        let (mut scratch, mut found) = (VorTreeScratch::default(), Vec::new());
        for _ in 0..6 {
            let (q, k) = (point(&mut self.rng), 1 + self.rng.below(8));
            Euclidean::global_knn_into(&snapshot, &mut scratch, q, k, &mut found);
            let found: Vec<SiteId> = found.iter().map(|&(s, _)| s).collect();
            assert_eq!(
                found,
                Euclidean::brute_knn(&snapshot, q, k),
                "kNN at {q:?} on {epoch}"
            );
        }
    }
}

/// 48 random deltas with a tick after each: every epoch but the first
/// reclaims. The answers are the same at every thread count.
#[test]
fn alternating_buffers_conform_euclidean() {
    let run = |threads: usize| {
        let mut twins = Twins::new(0x7b0_b0ff, threads);
        let mut answers = Vec::new();
        for epoch in 1..=48 {
            let delta = random_delta(twins.num_sites(), &mut twins.rng);
            assert_eq!(twins.apply(&delta), Ok(Epoch(epoch)));
            answers.push(twins.tick());
        }
        answers
    };
    let reference = run(1);
    for threads in [2, 8] {
        assert!(
            run(threads) == reference,
            "answers differ at {threads} threads"
        );
    }
}

/// A snapshot is immutable while anyone holds it: a reader parked on
/// the retired snapshot keeps `apply` off it, and the world advances by
/// copying instead.
#[test]
fn a_held_retired_snapshot_is_never_patched_euclidean() {
    let mut twins = Twins::new(0x4e1d, 2);
    for _ in 0..3 {
        let delta = random_delta(twins.num_sites(), &mut twins.rng);
        twins.apply(&delta).unwrap();
        twins.tick();
    }
    let (held_epoch, held) = twins.world.snapshot();
    let points = held.voronoi().points().to_vec();
    let lists = neighbor_lists(held.voronoi());
    for further in 1..=3 {
        let delta = random_delta(twins.num_sites(), &mut twins.rng);
        assert_eq!(twins.apply(&delta), Ok(Epoch(held_epoch.0 + further)));
        twins.tick();
        assert_eq!(held.voronoi().points(), &points[..]);
        assert_eq!(neighbor_lists(held.voronoi()), lists);
    }
}

/// A delta that fails after the replay and half of its own changes went
/// into the reclaimed buffer: the error comes back, nothing is
/// published, and the buffer is gone — the next epoch is a clean one.
#[test]
fn a_rejected_delta_discards_the_reclaimed_buffer_euclidean() {
    let mut twins = Twins::new(0xbad_de17a, 1);
    let delta = random_delta(twins.num_sites(), &mut twins.rng);
    twins.apply(&delta).unwrap();
    twins.tick();
    let taken = point(&mut twins.rng);
    twins.apply(&SiteDelta::insert(vec![taken])).unwrap();
    twins.tick();
    let (epoch, snapshot) = twins.world.snapshot();
    // The removals renumber `taken` (the last site) but keep it.
    let bad = SiteDelta {
        added: vec![point(&mut twins.rng), taken],
        removed: vec![SiteId(3), SiteId(40)],
    };
    assert!(matches!(
        twins.apply(&bad),
        Err(VoronoiError::DuplicateSites { .. })
    ));
    assert_eq!(twins.world.epoch(), epoch);
    assert!(Arc::ptr_eq(&snapshot, &twins.world.snapshot().1));
    drop(snapshot);
    for next in 1..=3 {
        let delta = random_delta(twins.num_sites(), &mut twins.rng);
        assert_eq!(twins.apply(&delta), Ok(Epoch(epoch.0 + next)));
        twins.tick();
    }
}

/// A publish between two applies: the retired snapshot is one delta
/// behind the snapshot `apply` replaced, not behind the published one,
/// so it must not be replayed into the next epoch.
#[test]
fn a_publish_forgets_the_retired_snapshot_euclidean() {
    let mut twins = Twins::new(0x9b1, 2);
    let publish = |twins: &mut Twins, snapshot: Arc<VorTree>| {
        twins.world.publish_arc(Arc::clone(&snapshot));
        twins.pinned_world.publish_arc(Arc::clone(&snapshot));
        twins.pinned.push(snapshot);
        twins.tick();
    };
    let step = |twins: &mut Twins| {
        let delta = random_delta(twins.num_sites(), &mut twins.rng);
        twins.apply(&delta).unwrap();
        twins.tick();
    };
    // A rebuilt snapshot over other sites, right when the retired
    // snapshot is reclaimable.
    step(&mut twins);
    step(&mut twins);
    publish(&mut twins, Arc::new(build(random_points(180, 0x07e4))));
    step(&mut twins);
    step(&mut twins);
    // A snapshot this world applied before, published again — while it
    // is the retired one, and two epochs later.
    let applied = twins.world.snapshot().1;
    step(&mut twins);
    publish(&mut twins, Arc::clone(&applied));
    step(&mut twins);
    step(&mut twins);
    publish(&mut twins, applied);
    step(&mut twins);
    step(&mut twins);
    assert_eq!(twins.world.epoch(), Epoch(12));
}
