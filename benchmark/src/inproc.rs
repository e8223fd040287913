//! In-process workloads: one `FleetEngine` driven from the main thread,
//! closed loop under the Barrier policy — the next tick's positions are
//! submitted only after every answer of the previous tick is available.

use std::sync::Arc;
use std::time::Instant;

use insq_core::{MovingKnn, QueryStats, Space};
use insq_net::WireSpace;
use insq_server::{
    FleetConfig, FleetEngine, QueryId, SpaceQuery, TickDisposition, TickPolicy, TickPos, World,
};

use crate::inputs::{DeltaOf, Fleet, RoundPlan};
use crate::measure::{CycleTimes, Recorder, RoundOutcome, Runner};
use crate::oracle::Samples;
use crate::sys;
use crate::trace::{Tracer, NO_SPAN};

type IndexOf<F> = <<F as Fleet>::S as Space>::Index;
type EngineOf<F> = FleetEngine<IndexOf<F>, SpaceQuery<<F as Fleet>::S>>;

/// One set-up instance: world, engine, and the client-slot ↔ query-id
/// tables (a slot keeps its trajectory when its client is replaced).
pub struct Instance<F: Fleet> {
    pub world: Arc<World<IndexOf<F>>>,
    pub engine: EngineOf<F>,
    id_of: Vec<QueryId>,
    /// Indexed by `QueryId` (ids are sequential and never reused).
    slot_of: Vec<u32>,
}

/// One set-up cycle: build the index, construct world and engine with
/// their shipped defaults, register the whole fleet, deliver the first
/// answer to every client.
pub fn setup_cycle<F: Fleet>(
    fleet: &F,
    first: &[<F::S as Space>::Pos],
) -> (Instance<F>, CycleTimes) {
    let cfg = fleet.ins_config();
    let t0 = Instant::now();
    let index = fleet.build_index();
    let t1 = Instant::now();
    let built_rss_kb = sys::rss_kb();
    let world = Arc::new(World::new(index));
    let mut engine: EngineOf<F> = FleetEngine::new(Arc::clone(&world), FleetConfig::default());
    let id_of: Vec<QueryId> = (0..fleet.clients())
        .map(|_| engine.register(SpaceQuery::new(&world, cfg).expect("k <= sites, rho >= 1")))
        .collect();
    let t2 = Instant::now();
    let summary = engine.tick(
        TickPolicy::Barrier,
        |id| TickPos::Fresh(first[id.index()]),
        &mut (),
    );
    let t3 = Instant::now();
    assert_eq!(summary.ticked as usize, fleet.clients(), "first answers");
    let slot_of = (0..fleet.clients() as u32).collect();
    let instance = Instance {
        world,
        engine,
        id_of,
        slot_of,
    };
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let times = [secs(t0, t1), secs(t1, t2), secs(t2, t3), built_rss_kb];
    (instance, times)
}

/// Runs rounds on a kept [`Instance`].
pub struct InprocRunner<F: Fleet> {
    pub fleet: F,
    pub inst: Instance<F>,
    pub plan: RoundPlan<F::S>,
    pub ticks: usize,
    /// Ticks per slice: a whole number of epoch periods, dividing
    /// `ticks`.
    slice_ticks: usize,
    next_tick: u64,
    /// Statistics of clients that left (the engine forgets them).
    retired: QueryStats,
    /// Every delta applied so far, in epoch order, for the oracle.
    pub applied: Vec<DeltaOf<F::S>>,
    pub samples: Samples<F::S>,
    sink: Vec<(QueryId, TickDisposition)>,
    /// Rebinds reported by ticks that followed an epoch.
    pub rebinds: u64,
    pub epochs: u64,
}

impl<F: Fleet> InprocRunner<F> {
    pub fn new(
        fleet: F,
        inst: Instance<F>,
        ticks: usize,
        slice_ticks: usize,
        samples: Samples<F::S>,
    ) -> Self {
        assert!(ticks.is_multiple_of(slice_ticks), "slices tile a round");
        let sink = Vec::with_capacity(fleet.clients());
        InprocRunner {
            fleet,
            inst,
            plan: RoundPlan::default(),
            ticks,
            slice_ticks,
            // Tick 0 was the set-up's first answer.
            next_tick: 1,
            retired: QueryStats::default(),
            applied: Vec::new(),
            samples,
            sink,
            rebinds: 0,
            epochs: 0,
        }
    }
}

impl<F: Fleet> InprocRunner<F> {
    /// Moves the last round's deltas to the applied list.
    pub fn finish(&mut self) {
        self.applied
            .extend(self.plan.deltas.drain(..).map(|(_, d)| d));
    }
}

impl<F: Fleet> Runner for InprocRunner<F> {
    fn plan_round(&mut self) {
        self.finish();
        self.fleet
            .plan_round(self.next_tick, self.ticks, &mut self.plan);
        self.next_tick += self.ticks as u64;
        // Room for this round's joiners, so the id table never
        // reallocates inside the round.
        self.inst.slot_of.reserve(self.plan.joins.len());
    }

    fn run_round(&mut self, tracer: &mut Tracer, rec: &mut Recorder) -> RoundOutcome {
        let clients = self.fleet.clients();
        let cfg = self.fleet.ins_config();
        let Instance {
            world,
            engine,
            id_of,
            slot_of,
        } = &mut self.inst;
        let plan = &self.plan;
        let mut out = RoundOutcome::default();
        let mut next_delta = 0usize;
        let mut slice_answers = 0u64;
        let round = tracer.begin("round", NO_SPAN, 0);
        let t_round = Instant::now();
        rec.start(tracer);
        for t in 0..self.ticks {
            let req = t as u32;
            let mut after_epoch = false;
            if plan.deltas.get(next_delta).is_some_and(|&(at, _)| at == t) {
                let delta = &plan.deltas[next_delta].1;
                tracer
                    .time("server.apply", round, req, || world.apply(delta))
                    .expect("generated deltas are valid");
                next_delta += 1;
                after_epoch = true;
                self.epochs += 1;
            }
            let joins = &plan.joins[t * plan.joins_per_tick..(t + 1) * plan.joins_per_tick];
            for &slot in joins {
                let left = tracer.time("server.deregister", round, req, || {
                    engine.deregister(id_of[slot as usize])
                });
                self.retired
                    .merge(left.expect("slot holds a live query").stats());
                let id = tracer.time("server.register", round, req, || {
                    engine.register(SpaceQuery::new(world, cfg).expect("valid config"))
                });
                id_of[slot as usize] = id;
                slot_of.push(slot);
            }

            let positions = &plan.positions[t * clients..(t + 1) * clients];
            self.sink.clear();
            let span = tracer.begin(
                if after_epoch {
                    "server.tick.rebind"
                } else {
                    "server.tick"
                },
                round,
                req,
            );
            let t_tick = Instant::now();
            let summary = engine.tick(
                TickPolicy::Barrier,
                |id| TickPos::Fresh(positions[slot_of[id.index()] as usize]),
                &mut self.sink,
            );
            let dur = t_tick.elapsed();
            tracer.end(span);
            rec.lat_ns
                .push(dur.as_nanos().min(u128::from(u32::MAX)) as u32);
            out.attempted += clients as u64;
            out.answers += summary.ticked;
            slice_answers += summary.ticked;
            if after_epoch {
                self.rebinds += summary.rebinds;
            }

            // Copy the answers due for the oracle check.
            let span = tracer.begin("oracle.sample", round, req);
            for offset in self.samples.due(self.sink.len() as u64) {
                let (id, _) = self.sink[offset as usize];
                let query = engine.query(id).expect("ticked queries are live");
                let ids = query
                    .processor()
                    .current_knn_with_dists()
                    .iter()
                    .map(|&(s, _)| <F::S as WireSpace>::id_to_wire(s));
                let pos = positions[slot_of[id.index()] as usize];
                if !self.samples.record(summary.epoch.0, pos, ids) {
                    out.failed += 1;
                }
            }
            tracer.end(span);
            if (t + 1).is_multiple_of(self.slice_ticks) {
                rec.cut(slice_answers, tracer);
                slice_answers = 0;
            }
        }
        out.wall_s = t_round.elapsed().as_secs_f64();
        tracer.end(round);
        out
    }

    fn comm_objects(&mut self) -> u64 {
        self.inst.engine.stats().total.comm_objects + self.retired.comm_objects
    }

    fn answers_per_round(&self) -> u64 {
        (self.ticks * self.fleet.clients()) as u64
    }

    fn samples_per_round(&self) -> usize {
        self.ticks
    }

    fn slices_per_round(&self) -> usize {
        self.ticks / self.slice_ticks
    }
}
