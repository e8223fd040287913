//! N fleet engines in one process, behind one registry: the
//! [`PartitionGroup`].
//!
//! Each region of a [`ClusterPlan`] gets its own epoch-versioned
//! `World` and `FleetEngine`; the group routes every client to the
//! engine of its home region and, when a fresh position crosses a
//! border, performs the **handoff**: deregister from the old engine,
//! register into the new one (a fresh region-local `QueryId`), tick the
//! new query on the same position in the same group tick. The paper's
//! INS protocol is what makes this cheap — the migrated query simply
//! pays one recomputation at the boundary, exactly like an epoch rebind.
//! A stable cluster-wide [`ClientId`] rides on top, so callers never see
//! region-local ids.
//!
//! Per-tick results come back in [`ClientId`] order with **global** site
//! ids (the ids a single-world deployment would emit) and an explicit
//! [`ClientResult::certified`] bit implementing the overlap-margin
//! contract (see [`crate::plan`]): certified results are bit-identical
//! to the single-world engine's; uncertified ones are exact over the
//! region's replicated site set and flagged, never silently wrong.

use std::collections::BTreeMap;
use std::sync::Arc;

use insq_core::{CoreError, DeltaIndex, InsConfig, Space};
use insq_geom::Point;
use insq_index::SiteDelta;
use insq_net::WireSpace;
use insq_server::World;
use insq_server::{
    Epoch, FleetConfig, FleetEngine, QueryId, RegionId, SpaceQuery, TickDisposition, TickPolicy,
    TickPos,
};

use crate::plan::{ClusterError, ClusterPlan};

/// A stable cluster-wide client identity. Never reused; survives any
/// number of handoffs (the region-local `QueryId` changes each time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u64);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One client's result for one group tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResult {
    /// Which client.
    pub client: ClientId,
    /// The region that served this tick.
    pub region: RegionId,
    /// The *region's* epoch the result was computed against.
    pub epoch: Epoch,
    /// How the region engine advanced the query this tick.
    pub disposition: TickDisposition,
    /// The kNN in **global** site ids, ascending by distance (ties by
    /// id) — directly comparable to a single-world engine's output.
    pub knn: Vec<u32>,
    /// The overlap-margin contract held
    /// ([`insq_core::Processor::certified_within`] the plan's margin),
    /// so this is provably the global kNN.
    pub certified: bool,
    /// This tick crossed a partition border (deregister + re-register).
    pub handoff: bool,
}

struct ClientState {
    region: RegionId,
    qid: QueryId,
    cfg: InsConfig,
}

/// N regional `FleetEngine`s behind one position-routed registry, with
/// border handoff. Generic over any planar [`WireSpace`] (`Euclidean` in
/// tree).
pub struct PartitionGroup<S: WireSpace + Space<Pos = Point>> {
    plan: ClusterPlan,
    worlds: Vec<Arc<World<S::Index>>>,
    engines: Vec<FleetEngine<S::Index, SpaceQuery<S>>>,
    clients: BTreeMap<ClientId, ClientState>,
    by_qid: Vec<BTreeMap<u64, ClientId>>,
    next_client: u64,
    handoffs: u64,
}

impl<S: WireSpace + Space<Pos = Point>> std::fmt::Debug for PartitionGroup<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionGroup")
            .field("space", &S::NAME)
            .field("plan", &self.plan)
            .field("clients", &self.clients.len())
            .field("handoffs", &self.handoffs)
            .finish_non_exhaustive()
    }
}

impl<S: WireSpace + Space<Pos = Point>> PartitionGroup<S> {
    /// Wraps pre-built regional worlds (one per plan region, each
    /// indexing exactly [`ClusterPlan::region_sites`] in that order)
    /// into a routed group. Panics if the world count does not match the
    /// plan. Results certify within [`ClusterPlan::margin`].
    pub fn new(
        plan: ClusterPlan,
        worlds: Vec<Arc<World<S::Index>>>,
        fleet: FleetConfig,
    ) -> PartitionGroup<S> {
        assert_eq!(
            worlds.len(),
            plan.regions(),
            "one world per plan region required"
        );
        let engines = worlds
            .iter()
            .map(|w| FleetEngine::new(Arc::clone(w), fleet))
            .collect();
        let by_qid = (0..plan.regions()).map(|_| BTreeMap::new()).collect();
        PartitionGroup {
            plan,
            worlds,
            engines,
            clients: BTreeMap::new(),
            by_qid,
            next_client: 0,
            handoffs: 0,
        }
    }

    /// The plan (partition map + id tables).
    pub fn plan(&self) -> &ClusterPlan {
        &self.plan
    }

    /// The regional worlds, indexed by region.
    pub fn worlds(&self) -> &[Arc<World<S::Index>>] {
        &self.worlds
    }

    /// Live clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether no clients are registered.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Total border crossings performed so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Live clients per region.
    pub fn population(&self) -> Vec<usize> {
        self.by_qid.iter().map(BTreeMap::len).collect()
    }

    /// The region currently serving a client.
    pub fn region_of(&self, client: ClientId) -> Option<RegionId> {
        self.clients.get(&client).map(|c| c.region)
    }

    /// Registers a client at `pos`: it is routed to its home region's
    /// engine and first ticked at the next [`PartitionGroup::tick`]
    /// (feed it `TickPos::Fresh(pos)` there).
    pub fn register(&mut self, pos: Point, cfg: InsConfig) -> Result<ClientId, CoreError> {
        let region = self.plan.home(pos);
        let qid = self.engines[region.0 as usize]
            .register(SpaceQuery::new(&self.worlds[region.0 as usize], cfg)?);
        let cid = ClientId(self.next_client);
        self.next_client += 1;
        self.by_qid[region.0 as usize].insert(qid.0, cid);
        self.clients.insert(cid, ClientState { region, qid, cfg });
        Ok(cid)
    }

    /// Removes a client from its region engine.
    pub fn deregister(&mut self, client: ClientId) -> bool {
        let Some(st) = self.clients.remove(&client) else {
            return false;
        };
        self.by_qid[st.region.0 as usize].remove(&st.qid.0);
        self.engines[st.region.0 as usize].deregister(st.qid);
        true
    }

    /// One cluster tick: route fresh positions (performing handoffs in
    /// deterministic [`ClientId`] order), tick every non-empty region
    /// engine under `policy`, and return per-client results in
    /// [`ClientId`] order with global ids and certification bits.
    ///
    /// Panics if a handed-off client cannot re-register in its new
    /// region (a region must be able to serve the client's `k`; size
    /// partitions accordingly).
    pub fn tick<F>(&mut self, policy: TickPolicy, positions: F) -> Vec<ClientResult>
    where
        F: Fn(ClientId) -> TickPos<Point>,
    {
        // Route: collect each client's position, crossing borders first.
        let cids: Vec<ClientId> = self.clients.keys().copied().collect();
        let mut feeds: Vec<BTreeMap<u64, TickPos<Point>>> =
            (0..self.plan.regions()).map(|_| BTreeMap::new()).collect();
        let mut crossed: Vec<ClientId> = Vec::new();
        for cid in cids {
            let tp = positions(cid);
            if let TickPos::Fresh(p) = tp {
                let home = self.plan.home(p);
                let st = self.clients.get(&cid).expect("live client");
                if home != st.region {
                    self.handoff(cid, home);
                    crossed.push(cid);
                }
            }
            let st = self.clients.get(&cid).expect("live client");
            feeds[st.region.0 as usize].insert(st.qid.0, tp);
        }

        // Tick each populated region engine; pair dispositions with
        // queries in the engine's deterministic shard order.
        let mut out: Vec<ClientResult> = Vec::with_capacity(self.clients.len());
        for (r, engine) in self.engines.iter_mut().enumerate() {
            if engine.is_empty() {
                continue;
            }
            let feed = &feeds[r];
            let mut dispositions: Vec<(QueryId, TickDisposition)> = Vec::new();
            let summary = engine.tick(policy, |id| feed[&id.0], &mut dispositions);
            let mut at = 0usize;
            let plan = &self.plan;
            let by_qid = &self.by_qid[r];
            engine.for_each_query(|qid, q| {
                let (did, disposition) = dispositions[at];
                at += 1;
                debug_assert_eq!(did, qid, "disposition order matches query order");
                let client = by_qid[&qid.0];
                let p = q.processor();
                let knn = p
                    .current_knn_with_dists()
                    .iter()
                    .map(|&(id, _)| {
                        plan.globalize(RegionId(r as u32), S::id_to_wire(id))
                            .expect("engine ids map to plan")
                    })
                    .collect();
                out.push(ClientResult {
                    client,
                    region: RegionId(r as u32),
                    epoch: summary.epoch,
                    disposition,
                    knn,
                    certified: p.certified_within(plan.margin()),
                    handoff: false,
                });
            });
        }
        for res in out.iter_mut() {
            if crossed.binary_search(&res.client).is_ok() {
                res.handoff = true;
            }
        }
        out.sort_by_key(|r| r.client);
        out
    }

    fn handoff(&mut self, cid: ClientId, to: RegionId) {
        let st = self.clients.get(&cid).expect("live client");
        let (from, old_qid, cfg) = (st.region, st.qid, st.cfg);
        self.engines[from.0 as usize].deregister(old_qid);
        self.by_qid[from.0 as usize].remove(&old_qid.0);
        let query = SpaceQuery::new(&self.worlds[to.0 as usize], cfg)
            .expect("handoff target region must accept the client's config");
        let qid = self.engines[to.0 as usize].register(query);
        self.by_qid[to.0 as usize].insert(qid.0, cid);
        let st = self.clients.get_mut(&cid).expect("live client");
        st.region = to;
        st.qid = qid;
        self.handoffs += 1;
    }
}

impl<S> PartitionGroup<S>
where
    S: WireSpace + Space<Pos = Point>,
    S::Index: DeltaIndex<Delta = SiteDelta>,
    <S::Index as DeltaIndex>::Error: std::fmt::Display,
{
    /// Routes one **global** delta epoch to the affected regions only:
    /// splits it through the plan, applies each non-empty local delta to
    /// that region's world (one epoch bump there — queries rebind at
    /// their next tick), and leaves unaffected regions' epochs
    /// untouched. Returns the new epoch per region (`None` =
    /// unaffected).
    pub fn apply(&mut self, delta: &SiteDelta) -> Result<Vec<Option<Epoch>>, ClusterError> {
        let locals = self.plan.split(delta)?;
        let mut epochs = Vec::with_capacity(locals.len());
        for (r, local) in locals.iter().enumerate() {
            if local.is_empty() {
                epochs.push(None);
                continue;
            }
            match self.worlds[r].apply(local) {
                Ok(e) => epochs.push(Some(e)),
                Err(e) => return Err(ClusterError::Index(format!("region {r}: {e}"))),
            }
        }
        Ok(epochs)
    }
}
