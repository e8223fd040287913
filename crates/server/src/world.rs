//! Epoch-versioned shared worlds.
//!
//! The INSQ server owns the data-object index; clients only hold guard
//! sets certified against it (paper §III). When data objects change, the
//! server has two routes to the next epoch:
//!
//! * [`World::publish`] — swap in a *wholly rebuilt* snapshot (O(n log n)
//!   construction);
//! * [`World::apply`] — **delta epochs**: available for every snapshot
//!   type implementing [`insq_core::DeltaIndex`] (`VorTree`,
//!   [`NetworkWorld`] — one space-generic impl serves both). A copy nobody reads is patched (cost proportional
//!   to the delta's neighborhood, see `insq_index::VorTree::apply` /
//!   `insq_roadnet::NetworkVoronoi::insert_site` /
//!   `insq_roadnet::NetworkVoronoi::reweight_edges`) and published. A
//!   Euclidean snapshot is one spatial structure, the Voronoi diagram,
//!   which also holds the only copy of the site coordinates: its 1NN
//!   search walks the diagram, so a delta patches, and a copy clones,
//!   nothing else. Structures untouched by the delta are shared via
//!   `Arc` where the snapshot allows it (a [`NetworkWorld`] keeps its
//!   road network across pure site-churn deltas; a traffic delta — a
//!   `NetDelta` carrying edge re-weights — replaces it with a
//!   re-weighted copy and repairs the NVD locally from the changed
//!   edges).
//!
//! **Two buffers.** Where that copy comes from is what an epoch costs.
//! The world keeps the snapshot the last `apply` replaced and the delta
//! it missed; once the last query has moved off it — under Barrier
//! ticks, by the next epoch — the next `apply` takes it back, replays
//! the missed delta and applies the new one in its storage
//! ([`DeltaIndex::apply_delta_reclaiming`]): nothing O(n) is copied or
//! freed, two physical snapshots alternate (the Left-Right scheme).
//! While a reader still holds it, and on the first epoch after a
//! creation or a `publish`, `apply` clones the current snapshot instead;
//! nothing anyone can read is ever modified. The price is one retired
//! snapshot kept between epochs — no higher peak: old and new coexist
//! through the rebind tick anyway.
//!
//! Either way the [`World`] swaps its snapshot atomically and bumps the
//! [`Epoch`]. Live queries keep reading their old `Arc`-held snapshot —
//! results stay exact against the epoch they are bound to — and
//! self-rebind to the new snapshot at their next tick. After a `publish`
//! that costs every query one recomputation. A delta epoch also records
//! *what the delta touched* ([`insq_core::TouchedSet`]); a query exactly
//! one epoch behind whose held objects are all untouched moves to the
//! new snapshot keeping its kNN and guards, and only the queries the
//! delta is near recompute (Euclidean space; every road-network delta
//! still rebinds the whole fleet). This replaces the manual `rebind`
//! dance of single-query code (`examples/data_updates.rs`).

use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use insq_core::{DeltaIndex, TouchedSet};

pub use insq_roadnet::NetworkWorld;

/// A monotonically increasing world version. Epoch 0 is the world a
/// [`World`] was created with; every [`World::publish`] bumps it by one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

impl Epoch {
    /// The next epoch.
    #[must_use]
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

/// An epoch-versioned, shareable world: the server side of the INSQ
/// system. `S` is the snapshot payload — any [`insq_core::Space`]'s
/// `Index` type ([`insq_index::VorTree`] or [`NetworkWorld`]).
///
/// Readers take cheap `Arc` snapshots and are never blocked by a publish
/// for longer than the pointer swap; old snapshots stay alive until the
/// last query drops them (no tearing, no torn reads, no manual lifetime
/// management). Every operation is poison-immune: a panicking reader or
/// writer elsewhere never turns later calls into panics.
#[derive(Debug)]
pub struct World<S> {
    state: RwLock<State<S>>,
    /// Serialises writers: `apply` is a read-modify-write, so two
    /// concurrent appliers (or an applier racing a publisher) must not
    /// interleave. Readers are never blocked by this lock. It guards
    /// what the last `apply` retired, for the next one to reclaim.
    writer: Mutex<Option<Retired<S>>>,
}

/// The snapshot an `apply` replaced, and the `S::Delta` that turns it
/// into the current one — type-erased, so that `World<S>` exists for
/// payloads that have no delta type.
#[derive(Debug)]
struct Retired<S> {
    snapshot: Arc<S>,
    missed: Box<dyn Any + Send + Sync>,
}

/// What readers see, swapped as one unit.
#[derive(Debug)]
struct State<S> {
    epoch: Epoch,
    data: Arc<S>,
    /// What the step from `epoch - 1` to `epoch` touched, when that step
    /// was a traced delta; `None` after a publish (anything may differ).
    touched: Option<Arc<TouchedSet>>,
}

impl<S> World<S> {
    /// Creates a world at epoch 0.
    pub fn new(data: S) -> World<S> {
        World::from_arc(Arc::new(data))
    }

    /// Creates a world at epoch 0 from an already-shared snapshot.
    pub fn from_arc(data: Arc<S>) -> World<S> {
        World {
            state: RwLock::new(State {
                epoch: Epoch(0),
                data,
                touched: None,
            }),
            writer: Mutex::new(None),
        }
    }

    fn read_state(&self) -> RwLockReadGuard<'_, State<S>> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, State<S>> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_writer(&self) -> MutexGuard<'_, Option<Retired<S>>> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.read_state().epoch
    }

    /// The current epoch and its snapshot, taken atomically.
    pub fn snapshot(&self) -> (Epoch, Arc<S>) {
        let guard = self.read_state();
        (guard.epoch, Arc::clone(&guard.data))
    }

    /// [`World::snapshot`] plus what the step from the previous epoch to
    /// this one touched — `Some` only when that step was a delta epoch
    /// whose index traces its deltas ([`DeltaIndex::apply_delta_traced`]).
    pub fn snapshot_traced(&self) -> (Epoch, Arc<S>, Option<Arc<TouchedSet>>) {
        let guard = self.read_state();
        (guard.epoch, Arc::clone(&guard.data), guard.touched.clone())
    }

    /// Publishes a rebuilt snapshot, bumping the epoch. Returns the new
    /// epoch. Existing snapshot holders are unaffected; queries observe
    /// the bump at their next tick and self-rebind.
    pub fn publish(&self, data: S) -> Epoch {
        self.publish_arc(Arc::new(data))
    }

    /// [`World::publish`] for an already-shared snapshot (lets sweeps
    /// republish the same prebuilt index without a rebuild).
    pub fn publish_arc(&self, data: Arc<S>) -> Epoch {
        // Whatever `apply` retired is not one delta behind `data`.
        let mut retired = self.lock_writer();
        *retired = None;
        self.swap_in(data, None)
    }

    /// The snapshot swap itself (callers hold the writer lock).
    fn swap_in(&self, data: Arc<S>, touched: Option<TouchedSet>) -> Epoch {
        let touched = touched.map(Arc::new);
        let mut guard = self.write_state();
        let epoch = guard.epoch.next();
        *guard = State {
            epoch,
            data,
            touched,
        };
        epoch
    }
}

impl<S: DeltaIndex> World<S> {
    /// Applies a batched delta as a **delta epoch**: a copy of the
    /// current snapshot that nobody reads — the reclaimed retired
    /// snapshot, or else a clone; see "Two buffers" in the module docs —
    /// is patched (local repair, no rebuild) and published together
    /// with what the delta touched, so only the queries holding a
    /// touched object recompute.
    ///
    /// On error nothing is published and the world is unchanged — a
    /// rejected delta (stale removal id, duplicate insertion, …) comes
    /// back as the snapshot's error value, never a panic; the
    /// half-patched copy is discarded. Concurrent `apply`/`publish`
    /// calls serialise; readers are never blocked for longer than the
    /// final pointer swap.
    pub fn apply(&self, delta: &S::Delta) -> Result<Epoch, S::Error> {
        let mut retired = self.lock_writer();
        let current = Arc::clone(&self.read_state().data);
        // Taken before anything can fail: a rejected delta leaves no
        // half-patched buffer. `try_unwrap` succeeds iff no reader is left.
        let reclaimed = retired.take().and_then(|r| {
            let missed = r.missed.downcast::<S::Delta>().ok()?;
            Some((Arc::try_unwrap(r.snapshot).ok()?, missed))
        });
        let (next, touched) = match reclaimed {
            Some((snapshot, missed)) => current.apply_delta_reclaiming(delta, snapshot, &missed)?,
            None => current.apply_delta_traced(delta)?,
        };
        let epoch = self.swap_in(Arc::new(next), touched);
        *retired = Some(Retired {
            snapshot: current,
            missed: Box::new(delta.clone()),
        });
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insq_index::{SiteDelta, VorTree};
    use insq_roadnet::{NetDelta, NetSiteDelta, NetworkVoronoi, SiteSet};

    #[test]
    fn epochs_bump_and_snapshots_stay_alive() {
        let world = World::new(vec![1, 2, 3]);
        assert_eq!(world.epoch(), Epoch(0));
        let (e0, snap0) = world.snapshot();
        assert_eq!(e0, Epoch(0));

        let e1 = world.publish(vec![4, 5]);
        assert_eq!(e1, Epoch(1));
        assert_eq!(world.epoch(), Epoch(1));

        // The old snapshot is unaffected by the publish.
        assert_eq!(*snap0, vec![1, 2, 3]);
        let (e, snap1) = world.snapshot();
        assert_eq!(e, Epoch(1));
        assert_eq!(*snap1, vec![4, 5]);
    }

    #[test]
    fn publish_arc_reuses_prebuilt_snapshots() {
        let a = Arc::new(7u32);
        let b = Arc::new(8u32);
        let world = World::from_arc(Arc::clone(&a));
        world.publish_arc(Arc::clone(&b));
        assert!(Arc::ptr_eq(&world.snapshot().1, &b));
        world.publish_arc(a);
        assert_eq!(world.epoch(), Epoch(2));
    }

    #[test]
    fn epoch_display_and_next() {
        assert_eq!(Epoch(3).next(), Epoch(4));
        assert_eq!(format!("{}", Epoch(3)), "epoch 3");
    }

    fn small_vortree_world() -> World<VorTree> {
        let mut state = 0x77u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let pts: Vec<insq_geom::Point> = (0..40)
            .map(|_| insq_geom::Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let bounds = insq_geom::Aabb::new(
            insq_geom::Point::new(-10.0, -10.0),
            insq_geom::Point::new(110.0, 110.0),
        );
        World::new(VorTree::build(pts, bounds).unwrap())
    }

    #[test]
    fn apply_publishes_a_patched_clone() {
        use insq_voronoi::SiteId;
        let world = small_vortree_world();
        let (e0, snap0) = world.snapshot();
        let n0 = snap0.len();

        let delta = SiteDelta {
            added: vec![insq_geom::Point::new(51.3, 49.2)],
            removed: vec![SiteId(3)],
        };
        let e1 = world.apply(&delta).unwrap();
        assert_eq!(e1, e0.next());
        let (_, snap1) = world.snapshot();
        assert_eq!(snap1.len(), n0, "one added, one removed");
        // The old snapshot is untouched (copy-on-write).
        assert_eq!(snap0.len(), n0);
        assert!(!Arc::ptr_eq(&snap0, &snap1));
        assert!(snap1
            .voronoi()
            .points()
            .contains(&insq_geom::Point::new(51.3, 49.2)));
    }

    #[test]
    fn failed_apply_publishes_nothing() {
        let world = small_vortree_world();
        let (e0, snap0) = world.snapshot();
        let dup = snap0.voronoi().point(insq_voronoi::SiteId(0));
        let err = world.apply(&SiteDelta::insert(vec![dup]));
        assert!(err.is_err());
        let (e, snap) = world.snapshot();
        assert_eq!(e, e0, "no epoch bump on failure");
        assert!(Arc::ptr_eq(&snap0, &snap), "snapshot unchanged on failure");

        // A stale (out-of-range) removal id errors cleanly too — it must
        // not panic, which would poison the writer lock and kill every
        // future apply/publish on this world.
        let err = world.apply(&SiteDelta::remove(vec![insq_voronoi::SiteId(4242)]));
        assert!(matches!(
            err,
            Err(insq_voronoi::VoronoiError::SiteOutOfRange { site: 4242, .. })
        ));
        assert_eq!(world.epoch(), e0);
        // The world stays fully usable.
        let ok = world.apply(&SiteDelta::insert(vec![insq_geom::Point::new(3.25, 4.75)]));
        assert_eq!(ok.unwrap(), e0.next());
    }

    #[test]
    fn network_apply_shares_the_road_network() {
        use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
        use insq_roadnet::{SiteIdx, VertexId};
        let net = Arc::new(grid_network(&GridConfig::default(), 9).unwrap());
        let sites = SiteSet::new(&net, random_site_vertices(&net, 6, 4).unwrap()).unwrap();
        let world = World::new(NetworkWorld::build(Arc::clone(&net), sites));
        let (_, snap0) = world.snapshot();

        // Pick a vertex without a site.
        let free = (0..net.num_vertices() as u32)
            .map(VertexId)
            .find(|&v| snap0.sites.site_at(v).is_none())
            .unwrap();
        let delta = NetDelta::from(NetSiteDelta {
            added: vec![free],
            removed: vec![SiteIdx(1)],
        });
        world.apply(&delta).unwrap();
        let (_, snap1) = world.snapshot();
        assert!(
            Arc::ptr_eq(&snap0.net, &snap1.net),
            "the network is shared across site-only delta epochs"
        );
        assert!(!Arc::ptr_eq(&snap0.nvd, &snap1.nvd));
        assert_eq!(snap1.sites.len(), snap0.sites.len());
        // The patched NVD equals a from-scratch build over the new sites.
        let rebuilt = NetworkVoronoi::build(&net, &snap1.sites);
        for s in 0..snap1.sites.len() as u32 {
            assert_eq!(
                snap1.nvd.neighbors(SiteIdx(s)),
                rebuilt.neighbors(SiteIdx(s))
            );
        }
    }

    #[test]
    fn network_traffic_delta_is_an_epoch_like_any_other() {
        use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
        use insq_roadnet::{EdgeId, EdgeWeight};
        let net = Arc::new(grid_network(&GridConfig::default(), 77).unwrap());
        let sites = SiteSet::new(&net, random_site_vertices(&net, 6, 4).unwrap()).unwrap();
        let world = World::new(NetworkWorld::build(Arc::clone(&net), sites));
        let (e0, snap0) = world.snapshot();

        // Congest three edges 2x; the epoch bumps and the new snapshot
        // carries the re-weighted network, while live holders of the old
        // snapshot keep free-flow lengths.
        let storm: Vec<EdgeWeight> = (0..3)
            .map(|e| EdgeWeight::scaled(&net, EdgeId(e), 2.0))
            .collect();
        let e1 = world.apply(&NetDelta::reweight(storm)).unwrap();
        assert_eq!(e1, e0.next());
        let (_, snap1) = world.snapshot();
        assert!(!Arc::ptr_eq(&snap0.net, &snap1.net));
        assert_eq!(snap1.net.edge(EdgeId(0)).len, net.edge(EdgeId(0)).len * 2.0);
        assert_eq!(snap0.net.edge(EdgeId(0)).len, net.edge(EdgeId(0)).len);

        // A rejected traffic delta (zero length) publishes nothing and
        // leaves the world usable.
        let bad = NetDelta::reweight(vec![EdgeWeight {
            edge: EdgeId(1),
            len: 0.0,
        }]);
        assert!(world.apply(&bad).is_err());
        assert_eq!(world.epoch(), e1);
        let clear: Vec<EdgeWeight> = (0..3)
            .map(|e| EdgeWeight {
                edge: EdgeId(e),
                len: net.edge(EdgeId(e)).len,
            })
            .collect();
        assert_eq!(world.apply(&NetDelta::reweight(clear)).unwrap(), e1.next());
    }
}
