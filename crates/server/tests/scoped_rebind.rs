//! Scoped-rebind soundness: a delta epoch may leave a query's kNN,
//! guards and cache in place **only** when the certificate they form is
//! still a certificate in the new epoch.
//!
//! `World::apply` records what a delta touched; a query exactly one
//! epoch behind that holds no touched object is retargeted without
//! recomputing (`Processor::rebind_scoped`), every other query rebinds
//! in full. The contract checked here is the one every suite in this
//! crate checks — bit-identical to the simple oracle:
//!
//! * after every tick, **every** query (ticked or re-served) equals
//!   `Space::brute_knn` on the snapshot of the epoch it reports, at the
//!   position it was last ticked at — over seeded random interleavings
//!   of moves, `SiteDelta`s, back-to-back deltas and out-of-band
//!   publishes, under both tick policies;
//! * the streams (kNN and outcome per query per tick) and all statistics
//!   are bit-identical at 1, 2 and 8 threads;
//! * named adversarial deltas — each one a way for a kept certificate to
//!   go stale — force a recomputation, and a delta nowhere near a query
//!   forces none.

use std::sync::Arc;

use insq_core::{Euclidean, InsConfig, MovingKnn, QueryStats, Space, TickOutcome};
use insq_geom::{Aabb, Point};
use insq_index::{SiteDelta, VorTree};
use insq_roadnet::generators::SplitMix64;
use insq_server::{
    Epoch, FleetConfig, FleetEngine, FleetQuery, InsFleetQuery, QueryId, TickDisposition,
    TickPolicy, TickPos, TickSummary, World,
};
use insq_voronoi::SiteId;

fn bounds() -> Aabb {
    Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0))
}

fn build(points: Vec<Point>) -> VorTree {
    VorTree::build(points, bounds()).unwrap()
}

fn point(rng: &mut SplitMix64) -> Point {
    Point::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0))
}

fn chance(rng: &mut SplitMix64, p: f64) -> bool {
    rng.next_f64() < p
}

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| point(&mut rng)).collect()
}

/// A world, an engine over it, every snapshot the world ever published
/// (so a query can be checked against the epoch *it* reports), and the
/// clients' positions.
struct Rig {
    world: Arc<World<VorTree>>,
    fleet: FleetEngine<VorTree, InsFleetQuery>,
    /// `snapshots[e]` is the snapshot of epoch `e`.
    snapshots: Vec<Arc<VorTree>>,
    pos: Vec<Point>,
    outcomes: Vec<(QueryId, TickDisposition)>,
}

impl Rig {
    fn new(points: Vec<Point>, threads: usize, clients: &[(usize, Point)]) -> Rig {
        let world = Arc::new(World::new(build(points)));
        let mut fleet = FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 5, threads });
        for &(k, _) in clients {
            fleet.register(InsFleetQuery::new(&world, InsConfig::new(k, 1.6)).unwrap());
        }
        Rig {
            snapshots: vec![world.snapshot().1],
            world,
            fleet,
            pos: clients.iter().map(|&(_, p)| p).collect(),
            outcomes: Vec::new(),
        }
    }

    fn index(&self) -> Arc<VorTree> {
        Arc::clone(self.snapshots.last().unwrap())
    }

    fn apply(&mut self, delta: &SiteDelta) -> Epoch {
        let epoch = self.world.apply(delta).unwrap();
        self.snapshots.push(self.world.snapshot().1);
        assert_eq!(epoch.0 as usize + 1, self.snapshots.len());
        epoch
    }

    fn publish(&mut self, snapshot: Arc<VorTree>) {
        self.world.publish_arc(Arc::clone(&snapshot));
        self.snapshots.push(snapshot);
    }

    fn query(&self, c: usize) -> &InsFleetQuery {
        self.fleet.query(QueryId(c as u64)).unwrap()
    }

    fn stats(&self, c: usize) -> QueryStats {
        *self.query(c).stats()
    }

    fn knn(&self, c: usize) -> Vec<SiteId> {
        self.query(c).current_knn()
    }

    /// One Barrier tick at the current positions, oracle-checked.
    fn tick(&mut self) -> TickSummary {
        self.tick_with(TickPolicy::Barrier, |_| true)
    }

    /// One tick: clients for which `fresh` holds submit their position,
    /// the others are held. Afterwards **every** query must equal brute
    /// force on the snapshot of the epoch it is bound to, at the position
    /// it last ticked at.
    fn tick_with(
        &mut self,
        policy: TickPolicy,
        fresh: impl Fn(usize) -> bool + Sync,
    ) -> TickSummary {
        let pos = &self.pos;
        self.outcomes.clear();
        let summary = self.fleet.tick(
            policy,
            |id| {
                if fresh(id.index()) {
                    TickPos::Fresh(pos[id.index()])
                } else {
                    TickPos::Held(pos[id.index()])
                }
            },
            &mut self.outcomes,
        );
        assert_eq!(summary.epoch, self.world.epoch());
        for c in 0..self.pos.len() {
            let q = self.query(c);
            let Some(at) = q.processor().last_pos() else {
                continue;
            };
            let snapshot = &self.snapshots[q.bound_epoch().0 as usize];
            let mut got = q.current_knn();
            got.sort_unstable();
            let mut want = Euclidean::brute_knn(snapshot, at, q.processor().config().k);
            want.sort_unstable();
            assert_eq!(
                got,
                want,
                "client {c} diverged from brute force on {}",
                q.bound_epoch()
            );
        }
        summary
    }
}

/// The site farthest from `from` that client 0 does not hold and that is
/// not the last one: removing it disturbs nothing near the client except
/// through the swap-remove renumbering.
fn far_unheld_site(rig: &Rig, from: Point) -> SiteId {
    let index = rig.index();
    let held = rig.query(0).processor().held_objects();
    (0..index.len() as u32 - 1)
        .map(SiteId)
        .filter(|s| !held.contains(s))
        .max_by(|&a, &b| {
            let (da, db) = (index.point(a).distance(from), index.point(b).distance(from));
            da.total_cmp(&db)
        })
        .unwrap()
}

// ------------------------------------------------------------ the point

/// A delta nowhere near a query moves it to the new epoch with its
/// recomputation and communication counters untouched — and the very
/// tick that crosses the epoch can be `Valid`. The query next to the
/// delta pays the recomputation.
#[test]
fn untouched_queries_keep_their_guards_euclidean() {
    let (near, far) = (Point::new(12.0, 11.0), Point::new(88.0, 91.0));
    let mut rig = Rig::new(random_points(600, 0xfa4), 1, &[(4, near), (4, far)]);
    rig.tick();
    rig.tick();
    let (near0, far0) = (rig.stats(0), rig.stats(1));

    let epoch = rig.apply(&SiteDelta::insert(vec![Point::new(12.3, 11.2)]));
    let summary = rig.tick();
    assert_eq!(summary.epoch, epoch);
    assert_eq!(summary.rebinds, 2, "both queries moved to the new epoch");
    assert_eq!(rig.query(0).bound_epoch(), epoch);
    assert_eq!(rig.query(1).bound_epoch(), epoch);

    let (near1, far1) = (rig.stats(0), rig.stats(1));
    assert_eq!(near1.recomputations, near0.recomputations + 1);
    assert_eq!(far1.recomputations, far0.recomputations);
    assert_eq!(far1.comm_objects, far0.comm_objects);
    assert_eq!(far1.valid_ticks, far0.valid_ticks + 1);
    assert!(rig.knn(0).contains(&SiteId(600)), "the insertion is found");
}

// ------------------------------------------------- adversarial deltas

/// One client (k = 3) at `at` over 300 random sites, initialised.
fn lone_client(at: Point) -> Rig {
    let mut rig = Rig::new(random_points(300, 0xad7e), 1, &[(3, at)]);
    rig.tick();
    rig.tick();
    rig
}

/// Applies `delta`, ticks (oracle-checked inside), and asserts the epoch
/// forced client 0 to recompute.
fn must_recompute(rig: &mut Rig, delta: &SiteDelta, why: &str) {
    let before = rig.stats(0).recomputations;
    rig.apply(delta);
    rig.tick();
    assert_eq!(rig.stats(0).recomputations, before + 1, "{why}");
}

#[test]
fn adversarial_deltas_euclidean() {
    let at = Point::new(48.0, 52.0);

    // An insertion that becomes the 1NN: it lands in the 1NN's cell, so
    // it rewrites the 1NN's neighbor list.
    let mut rig = lone_client(at);
    let n = rig.index().len() as u32;
    must_recompute(
        &mut rig,
        &SiteDelta::insert(vec![Point::new(48.01, 52.01)]),
        "an insertion next to the query",
    );
    assert_eq!(rig.knn(0)[0], SiteId(n));

    // Removal of a kNN member.
    let mut rig = lone_client(at);
    let member = rig.knn(0)[1];
    must_recompute(
        &mut rig,
        &SiteDelta::remove(vec![member]),
        "a kNN member left",
    );

    // Removal of a guard only: the kNN may well stay, the certificate
    // does not.
    let mut rig = lone_client(at);
    let knn = rig.knn(0);
    let guard = rig.query(0).processor().guard_set()[0];
    assert!(!knn.contains(&guard));
    must_recompute(&mut rig, &SiteDelta::remove(vec![guard]), "a guard left");

    // A far removal whose swap-remove renumbers a *held* site: the client
    // sits on the last site, so it holds id n-1, which the delta hands to
    // nobody and whose site now answers to the removed id.
    let index = build(random_points(300, 0xad7e));
    let last = SiteId(index.len() as u32 - 1);
    let on_last = index.point(last);
    let mut rig = lone_client(on_last);
    assert_eq!(rig.knn(0)[0], last);
    let far = far_unheld_site(&rig, on_last);
    must_recompute(
        &mut rig,
        &SiteDelta::remove(vec![far]),
        "a held id was renumbered",
    );
    assert_eq!(rig.knn(0)[0], far, "the 1NN now answers to the vacated id");

    // An id vacated and re-used in the same delta: the held last id is
    // removed and a far insertion takes it over. Keeping the cache would
    // rank a site across the map as the 1NN's stand-in.
    let mut rig = lone_client(on_last);
    let corner = Point::new(99.5, 0.5);
    must_recompute(
        &mut rig,
        &SiteDelta {
            added: vec![corner],
            removed: vec![last],
        },
        "a held id changed hands",
    );
    assert!(rig.index().point(last).distance(corner) < 1e-9);
    assert!(!rig.knn(0).contains(&last));

    // Same hand-over through the renumbering: a held non-last id is
    // removed, the last site moves into it, the insertion takes the last
    // id.
    let mut rig = lone_client(at);
    let member = rig.knn(0)[0];
    must_recompute(
        &mut rig,
        &SiteDelta {
            added: vec![corner],
            removed: vec![member],
        },
        "a held id was refilled by the last site",
    );
}

/// A delta that shrinks the world below `k`: every id at or beyond the
/// new size is touched, so no query can keep `k` objects that no longer
/// exist.
#[test]
fn delta_shrinking_the_world_below_k_rebinds_everyone() {
    let clients = [(5, Point::new(20.0, 30.0)), (5, Point::new(70.0, 60.0))];
    let mut rig = Rig::new(random_points(7, 0x5ca1e), 2, &clients);
    rig.tick();
    let before = [rig.stats(0).recomputations, rig.stats(1).recomputations];
    rig.apply(&SiteDelta::remove(vec![
        SiteId(0),
        SiteId(2),
        SiteId(4),
        SiteId(6),
    ]));
    rig.tick();
    for (c, before) in before.into_iter().enumerate() {
        assert_eq!(rig.knn(c).len(), 3, "all surviving sites are the answer");
        assert_eq!(rig.stats(c).recomputations, before + 1);
    }
}

/// A query held stale under `Deadline` while two deltas go by: each is
/// far away, but the touched set the world keeps describes the last step
/// only, so the query must rebind in full when it is finally ticked. The
/// query ticked through both epochs one at a time keeps its guards.
#[test]
fn deadline_held_query_two_epochs_behind_rebinds_in_full() {
    let at = Point::new(85.0, 88.0);
    let policy = TickPolicy::Deadline { max_staleness: 10 };
    let mut rig = Rig::new(random_points(600, 0xdead), 1, &[(4, at), (4, at)]);
    rig.tick();
    rig.tick();
    let before = [rig.stats(0), rig.stats(1)];
    for far in [Point::new(8.0, 9.0), Point::new(11.0, 6.0)] {
        rig.apply(&SiteDelta::insert(vec![far]));
        let summary = rig.tick_with(policy, |c| c == 0);
        assert_eq!((summary.rebinds, summary.stale), (1, 1));
    }
    assert_eq!(
        rig.query(1).bound_epoch(),
        Epoch(0),
        "still on its old epoch"
    );
    let summary = rig.tick_with(policy, |_| true);
    assert_eq!(summary.rebinds, 1);
    assert_eq!(rig.query(1).bound_epoch(), Epoch(2));
    assert_eq!(rig.stats(0).recomputations, before[0].recomputations);
    assert_eq!(rig.stats(1).recomputations, before[1].recomputations + 1);
}

/// `publish_arc` says nothing about what changed — even when the
/// snapshot is one the world applied before — so it rebinds everyone.
#[test]
fn publishing_a_previously_applied_snapshot_rebinds_in_full() {
    let at = Point::new(85.0, 88.0);
    let mut rig = Rig::new(random_points(600, 0x9a9), 1, &[(4, at)]);
    rig.tick();
    let original = rig.index();
    rig.apply(&SiteDelta::insert(vec![Point::new(8.0, 9.0)]));
    let applied = rig.index();
    rig.tick();
    let kept = rig.stats(0).recomputations;
    assert_eq!(kept, 1, "the far delta itself cost nothing");

    rig.publish(original);
    rig.tick();
    assert_eq!(rig.stats(0).recomputations, kept + 1);
    rig.publish(applied);
    rig.tick();
    assert_eq!(rig.stats(0).recomputations, kept + 2);
}

// -------------------------------------------------- random interleaving

/// Everything one seeded run produced that must not depend on the
/// thread count.
#[derive(Debug, PartialEq)]
struct Transcript {
    /// Per tick: every query's disposition and kNN, in engine order.
    stream: Vec<(QueryId, TickDisposition, Vec<SiteId>)>,
    per_query: Vec<QueryStats>,
    total: QueryStats,
    epochs: u64,
    /// Ticks on which a query crossed an epoch and stayed `Valid`.
    kept: u64,
}

fn random_delta(rig: &Rig, rng: &mut SplitMix64) -> SiteDelta {
    let index = rig.index();
    let n = index.len();
    let mut delta = SiteDelta::default();
    for _ in 0..rng.below(4) {
        // Half of the insertions land next to a client.
        let p = if chance(rng, 0.5) {
            let c = rig.pos[rng.below(rig.pos.len())];
            Point::new(
                (c.x + rng.next_f64() - 0.5).clamp(0.0, 100.0),
                (c.y + rng.next_f64() - 0.5).clamp(0.0, 100.0),
            )
        } else {
            point(rng)
        };
        delta.added.push(p);
    }
    if n > 60 {
        for _ in 0..rng.below(4) {
            let victim = match rng.below(4) {
                // Something a client holds, the last id, or anything.
                0 => {
                    let held = rig
                        .query(rng.below(rig.pos.len()))
                        .processor()
                        .held_objects();
                    if held.is_empty() {
                        continue;
                    }
                    held[rng.below(held.len())]
                }
                1 => SiteId(n as u32 - 1),
                _ => SiteId(rng.below(n) as u32),
            };
            delta.removed.push(victim);
        }
    }
    delta
}

fn random_run(seed: u64, policy: TickPolicy, threads: usize) -> Transcript {
    let mut rng = SplitMix64::new(seed);
    let clients: Vec<(usize, Point)> = (0..16)
        .map(|_| (1 + rng.below(5), point(&mut rng)))
        .collect();
    let mut rig = Rig::new(random_points(250, seed ^ 0x51e5), threads, &clients);
    let barrier = policy == TickPolicy::Barrier;
    let mut stream = Vec::new();
    let mut kept = 0;
    let mut epochs = 0;
    for tick in 0..120 {
        // Moves: mostly small steps, now and then a jump.
        for p in rig.pos.iter_mut() {
            let step = if chance(&mut rng, 0.05) { 30.0 } else { 0.8 };
            p.x = (p.x + (rng.next_f64() - 0.5) * step).clamp(0.0, 100.0);
            p.y = (p.y + (rng.next_f64() - 0.5) * step).clamp(0.0, 100.0);
        }
        // Writes: a delta on a third of the ticks, sometimes two back to
        // back (every query is then two epochs behind), sometimes an
        // out-of-band publish of an older snapshot.
        if tick > 0 && chance(&mut rng, 0.35) {
            for _ in 0..1 + usize::from(chance(&mut rng, 0.2)) {
                let delta = random_delta(&rig, &mut rng);
                rig.apply(&delta);
                epochs += 1;
            }
        } else if tick > 0 && chance(&mut rng, 0.05) {
            let old = Arc::clone(&rig.snapshots[rng.below(rig.snapshots.len())]);
            rig.publish(old);
            epochs += 1;
        }
        let fresh: Vec<bool> = (0..clients.len())
            .map(|_| barrier || tick == 0 || chance(&mut rng, 0.8))
            .collect();
        let bound_before: Vec<Epoch> = (0..clients.len())
            .map(|c| rig.query(c).bound_epoch())
            .collect();
        rig.tick_with(policy, |c| fresh[c]);
        for &(id, disposition) in &rig.outcomes {
            let crossed = rig.query(id.index()).bound_epoch() != bound_before[id.index()];
            if crossed && disposition.outcome() == Some(TickOutcome::Valid) {
                kept += 1;
            }
            stream.push((id, disposition, rig.knn(id.index())));
        }
    }
    Transcript {
        stream,
        per_query: (0..clients.len()).map(|c| rig.stats(c)).collect(),
        total: rig.fleet.stats().total,
        epochs,
        kept,
    }
}

fn random_interleavings(policy: TickPolicy) {
    for seed in [0x1a5e_ed01u64, 0x1a5e_ed02, 0x1a5e_ed03] {
        let reference = random_run(seed, policy, 1);
        assert!(reference.epochs >= 30, "the run must cross many epochs");
        assert!(
            reference.kept > 0,
            "some queries must cross an epoch on kept guards (seed {seed:#x})"
        );
        assert!(
            reference.total.recomputations > reference.per_query.len() as u64,
            "and some must recompute"
        );
        for threads in [2usize, 8] {
            assert!(
                random_run(seed, policy, threads) == reference,
                "streams or statistics diverged at threads={threads} (seed {seed:#x})"
            );
        }
    }
}

const DEADLINE: TickPolicy = TickPolicy::Deadline { max_staleness: 2 };

#[test]
fn random_interleavings_euclidean_barrier() {
    random_interleavings(TickPolicy::Barrier);
}

#[test]
fn random_interleavings_euclidean_deadline() {
    random_interleavings(DEADLINE);
}
