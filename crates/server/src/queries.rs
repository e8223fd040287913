//! Fleet clients: epoch-aware moving-kNN queries.
//!
//! A [`FleetQuery`] is a [`MovingKnn`] processor that additionally knows
//! which world [`Epoch`] it is bound to and how to rebind itself to a
//! newly published snapshot. The [`crate::FleetEngine`] compares each
//! query's bound epoch against the world's current epoch at tick time and
//! calls [`FleetQuery::bind`] on the stale ones — the fleet equivalent of
//! the paper's "if there are data object updates, we also update the kNN
//! set and the IS", done only for the queries the update is near when
//! the epoch says what it touched.
//!
//! There is exactly one implementation: the space-generic
//! [`SpaceQuery`], wrapping the generic `insq_core::Processor` over an
//! `Arc` snapshot of the world. [`InsFleetQuery`] and [`NetFleetQuery`]
//! are its per-space aliases; a new space gets its fleet client for free.

use std::sync::Arc;

use insq_core::{
    CoreError, InsConfig, MovingKnn, Processor, QueryStats, Space, TickOutcome, TouchedSet,
};

use crate::world::{Epoch, World};

/// A live query in a fleet: a moving-kNN processor bound to one epoch of
/// a shared world `W`.
pub trait FleetQuery<W>: MovingKnn<Self::Pos, Self::Id> + Send {
    /// The position type ticks are driven with.
    type Pos: Copy + Send;
    /// The data-object identifier type of results.
    type Id;
    /// Reusable search scratch threaded through [`FleetQuery::tick_with`].
    /// A default scratch is empty (backing storage appears on first use,
    /// sized to the bound index), so the [`crate::FleetEngine`] keeps one
    /// per *worker* — persistent across ticks — instead of one per query.
    type Scratch: Default + Send + std::fmt::Debug;

    /// The epoch of the snapshot the query currently holds.
    fn bound_epoch(&self) -> Epoch;

    /// Rebinds the query to the snapshot of `epoch`; statistics are
    /// preserved. `touched` is what the step from `epoch - 1` to `epoch`
    /// touched, if the world knows (`World::snapshot_traced`): a query
    /// bound to `epoch - 1` that holds no touched object keeps its
    /// result and guards. In every other case the query drops them and
    /// its next tick pays one full recomputation.
    fn bind(&mut self, epoch: Epoch, snapshot: &Arc<W>, touched: Option<&TouchedSet>);

    /// Advances the query one timestamp using a caller-provided scratch
    /// — the allocation-free hot path [`crate::FleetEngine::tick`] runs,
    /// bit-identical to `MovingKnn::tick` at the same position.
    fn tick_with(&mut self, scratch: &mut Self::Scratch, pos: Self::Pos) -> TickOutcome;
}

/// An INS fleet client over a `World<S::Index>`, for any [`Space`] `S`.
#[derive(Clone)]
pub struct SpaceQuery<S: Space> {
    epoch: Epoch,
    proc: Processor<S, Arc<S::Index>>,
}

/// A Euclidean INS fleet client over a `World<VorTree>`.
pub type InsFleetQuery = SpaceQuery<insq_core::Euclidean>;

/// A road-network INS fleet client over a `World<NetworkWorld>`.
pub type NetFleetQuery = SpaceQuery<insq_core::Network>;

impl<S: Space> SpaceQuery<S> {
    /// Creates a client bound to the world's current snapshot.
    pub fn new(world: &World<S::Index>, cfg: InsConfig) -> Result<SpaceQuery<S>, CoreError> {
        let (epoch, index) = world.snapshot();
        Ok(SpaceQuery {
            epoch,
            proc: Processor::new(index, cfg)?,
        })
    }

    /// The wrapped INS processor (current kNN, guard set, …).
    pub fn processor(&self) -> &Processor<S, Arc<S::Index>> {
        &self.proc
    }
}

impl<S: Space> std::fmt::Debug for SpaceQuery<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpaceQuery")
            .field("space", &S::NAME)
            .field("epoch", &self.epoch)
            .field("knn", &self.proc.current_knn())
            .finish_non_exhaustive()
    }
}

impl<S: Space> MovingKnn<S::Pos, S::SiteId> for SpaceQuery<S> {
    fn name(&self) -> &'static str {
        self.proc.name()
    }

    fn tick(&mut self, pos: S::Pos) -> TickOutcome {
        self.proc.tick(pos)
    }

    fn current_knn(&self) -> Vec<S::SiteId> {
        self.proc.current_knn()
    }

    fn stats(&self) -> &QueryStats {
        self.proc.stats()
    }

    fn reset_stats(&mut self) {
        self.proc.reset_stats();
    }
}

impl<S: Space> FleetQuery<S::Index> for SpaceQuery<S> {
    type Pos = S::Pos;
    type Id = S::SiteId;
    type Scratch = S::Scratch;

    fn bound_epoch(&self) -> Epoch {
        self.epoch
    }

    fn tick_with(&mut self, scratch: &mut S::Scratch, pos: S::Pos) -> TickOutcome {
        self.proc.tick_with(scratch, pos)
    }

    fn bind(&mut self, epoch: Epoch, snapshot: &Arc<S::Index>, touched: Option<&TouchedSet>) {
        // The whole snapshot is rebound — on road networks a published
        // snapshot may carry a different network (map update) whose site
        // set / NVD index into *its* adjacency; in the common
        // POIs-changed case the unchanged parts are shared via `Arc` and
        // rebinding them is free.
        let index = Arc::clone(snapshot);
        match touched {
            // `touched` describes exactly one step; a query further
            // behind missed deltas nobody kept.
            Some(touched) if self.epoch.next() == epoch => {
                self.proc.rebind_scoped(index, touched);
            }
            _ => self.proc.rebind(index),
        }
        self.epoch = epoch;
    }
}
