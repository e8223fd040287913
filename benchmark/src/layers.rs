//! Per-layer probes of a traced run. Every layer is measured from
//! outside, by timing calls into its public functions on the workload's
//! own inputs. Where a layer's work happens inside another layer's call
//! (processor ticks inside `FleetEngine::tick`), the same inputs are
//! driven through the inner layer alone and the outer layer's self time
//! is the difference.

use std::sync::Arc;
use std::time::Instant;

use insq_cluster::{ClusterPlan, PartitionGroup};
use insq_core::{
    DeltaIndex, Euclidean, InsConfig, MovingKnn, Processor, QueryStats, Space, TickOutcome,
};
use insq_geom::Point;
use insq_index::VorTree;
use insq_net::Message;
use insq_roadnet::{NetworkVoronoi, NetworkWorld};
use insq_server::{
    FleetConfig, FleetEngine, QueryId, SpaceQuery, TickDisposition, TickPolicy, TickPos, World,
};
use insq_voronoi::{SiteId, Voronoi};

use crate::inputs::{BenchSpace, EuclidFleet, Fleet, RushFleet};
use crate::report::Report;
use crate::stats::{median, median_us};
use crate::wire::{margin, partitioner, Regions};

fn ns(since: Instant) -> u32 {
    since.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// What the fleet probe found: the same `clients × ticks` positions
/// driven through bare processors and through the engine.
pub struct FleetProbe {
    /// Median engine tick at 1 and 2 worker threads, µs.
    pub tick_us: [f64; 2],
    /// Median tick of the bare processors, one thread, and of the
    /// one-thread engine over the same ticks, µs.
    pub bare_tick_us: f64,
    pub same_ticks_t1_us: f64,
}

impl FleetProbe {
    /// The tick at the thread count engines and servers default to.
    pub fn default_tick_us(&self) -> f64 {
        self.tick_us[FleetConfig::default().threads.clamp(1, 2) - 1]
    }

    /// What the default thread count divides a one-thread tick by.
    fn default_speedup(&self) -> f64 {
        self.tick_us[0] / self.default_tick_us()
    }

    /// **core** self time of a default-configuration tick: the bare
    /// processors' work, spread over the engine's threads.
    pub fn core_self_us(&self) -> f64 {
        self.bare_tick_us / self.default_speedup()
    }

    /// **server** self time of a default-configuration tick: what the
    /// engine adds to the bare processors, spread the same way.
    pub fn server_self_us(&self) -> f64 {
        (self.same_ticks_t1_us - self.bare_tick_us) / self.default_speedup()
    }
}

/// The probe's ticks fall in three equal phases. The first is untimed
/// everywhere: a fresh query keeps touching new pages of its object
/// cache for a while, and those faults are set-up cost, not tick cost.
fn phases(ticks: usize) -> (usize, usize) {
    (ticks / 3, 2 * ticks / 3)
}

/// Engine ticks at `threads` workers, ns per tick from the second phase
/// on; with a `report`, also the per-call registration costs.
fn engine_pass<S: BenchSpace>(
    index: &Arc<S::Index>,
    cfg: InsConfig,
    clients: usize,
    positions: &[S::Pos],
    threads: usize,
    report: Option<&mut Report>,
) -> Vec<u32> {
    let world = Arc::new(World::from_arc(Arc::clone(index)));
    let mut engine: FleetEngine<S::Index, SpaceQuery<S>> =
        FleetEngine::new(Arc::clone(&world), FleetConfig::with_threads(threads));
    let mut register_ns = Vec::with_capacity(clients);
    for _ in 0..clients {
        let t = Instant::now();
        engine.register(SpaceQuery::new(&world, cfg).expect("valid config"));
        register_ns.push(ns(t));
    }
    let mut sink: Vec<(QueryId, TickDisposition)> = Vec::with_capacity(clients);
    let mut tick_ns = Vec::new();
    let (warm, _) = phases(positions.len() / clients);
    for (t, pos) in positions.chunks_exact(clients).enumerate() {
        sink.clear();
        let t0 = Instant::now();
        engine.tick(
            TickPolicy::Barrier,
            |id| TickPos::Fresh(pos[id.index()]),
            &mut sink,
        );
        if t >= warm {
            tick_ns.push(ns(t0));
        }
    }
    let mut deregister_ns = Vec::with_capacity(clients);
    for id in 0..clients as u64 {
        let t = Instant::now();
        engine.deregister(QueryId(id));
        deregister_ns.push(ns(t));
    }
    if let Some(report) = report {
        report.set("server.register_us", median_us(&register_ns));
        report.set("server.deregister_us", median_us(&deregister_ns));
    }
    tick_ns
}

/// What one pass of bare `Processor::tick_with` calls measured.
struct BarePass {
    total: QueryStats,
    /// Whole ticks of the second phase, ns.
    tick_ns: Vec<u32>,
    /// Single calls of the third phase, ns, by `TickOutcome`.
    by_outcome: [Vec<u32>; 4],
}

fn bare_pass<S: BenchSpace>(
    index: &Arc<S::Index>,
    cfg: InsConfig,
    clients: usize,
    positions: &[S::Pos],
) -> BarePass {
    let ticks: Vec<&[S::Pos]> = positions.chunks_exact(clients).collect();
    let (warm, split) = phases(ticks.len());
    let mut procs: Vec<Processor<S, Arc<S::Index>>> = (0..clients)
        .map(|_| Processor::new(Arc::clone(index), cfg).expect("valid config"))
        .collect();
    let mut scratch = S::Scratch::default();
    for pos in &ticks[..warm] {
        for (p, &pos) in procs.iter_mut().zip(*pos) {
            p.tick_with(&mut scratch, pos);
        }
    }
    procs.iter_mut().for_each(|p| p.reset_stats());
    // Second phase: whole ticks, no per-call clock reads, for the
    // engine's overhead by subtraction. Third: every call timed, by
    // outcome.
    let mut tick_ns = Vec::new();
    for pos in &ticks[warm..split] {
        let t0 = Instant::now();
        for (p, &pos) in procs.iter_mut().zip(*pos) {
            p.tick_with(&mut scratch, pos);
        }
        tick_ns.push(ns(t0));
    }
    let mut by_outcome: [Vec<u32>; 4] = Default::default();
    for pos in &ticks[split..] {
        for (p, &pos) in procs.iter_mut().zip(*pos) {
            let t0 = Instant::now();
            let outcome = p.tick_with(&mut scratch, pos);
            let slot = match outcome {
                TickOutcome::Valid => 0,
                TickOutcome::Swap => 1,
                TickOutcome::LocalRerank => 2,
                TickOutcome::Recompute => 3,
            };
            by_outcome[slot].push(ns(t0));
        }
    }
    let mut total = QueryStats::default();
    for p in &procs {
        total.merge(p.stats());
    }
    BarePass {
        total,
        tick_ns,
        by_outcome,
    }
}

/// The **core** and **server** layers on a static world: bare processors
/// (outcome mix, operation counts, time per outcome), then the engine at
/// one and two threads over the identical positions.
/// `positions[tick * clients + client]`.
pub fn probe_fleet<S: BenchSpace>(
    index: &Arc<S::Index>,
    cfg: InsConfig,
    clients: usize,
    positions: &[S::Pos],
    report: &mut Report,
) -> FleetProbe {
    // Queries keep touching new pages of their object caches long after
    // the warm phase. The first pass pays those faults and is thrown
    // away; every later pass, bare or engine, then allocates memory the
    // process has already touched, so they compare like with like.
    drop(bare_pass::<S>(index, cfg, clients, positions));
    let BarePass {
        total,
        tick_ns: bare_ns,
        by_outcome,
    } = bare_pass::<S>(index, cfg, clients, positions);
    let (warm, split) = phases(positions.len() / clients);
    let answers = total.ticks.max(1) as f64;
    report.set("core.valid_frac", total.valid_ticks as f64 / answers);
    report.set("core.swap_frac", total.swaps as f64 / answers);
    report.set("core.rerank_frac", total.local_reranks as f64 / answers);
    report.set("core.recompute_rate", total.recomputations as f64 / answers);
    report.set(
        "core.validation_ops_per_answer",
        total.validation_ops as f64 / answers,
    );
    report.set(
        "core.search_ops_per_answer",
        total.search_ops as f64 / answers,
    );
    for (name, samples) in [
        "core.tick_valid_ns",
        "core.tick_swap_ns",
        "core.tick_rerank_ns",
        "core.tick_recompute_ns",
    ]
    .into_iter()
    .zip(&by_outcome)
    {
        report.set(name, median_us(samples) * 1e3);
    }

    let t1_ns = engine_pass::<S>(index, cfg, clients, positions, 1, Some(report));
    let t2_ns = engine_pass::<S>(index, cfg, clients, positions, 2, None);
    let (t1, t2) = (median_us(&t1_ns), median_us(&t2_ns));
    report.set("server.tick_us_t1", t1);
    report.set("server.tick_us_t2", t2);
    report.set("server.thread_speedup", t1 / t2);
    // The same ticks the bare processors were timed on.
    let probe = FleetProbe {
        tick_us: [t1, t2],
        bare_tick_us: median_us(&bare_ns),
        same_ticks_t1_us: median_us(&t1_ns[..split - warm]),
    };
    report.set(
        "server.engine_overhead_ns_per_answer",
        (probe.same_ticks_t1_us - probe.bare_tick_us) * 1e3 / clients as f64,
    );
    probe
}

/// `World::publish` alone: swapping in snapshots patched beforehand.
pub fn probe_publish<I: DeltaIndex>(index: &Arc<I>, deltas: &[I::Delta], report: &mut Report)
where
    I::Error: std::fmt::Debug,
{
    let world = World::from_arc(Arc::clone(index));
    let mut publish_ns = Vec::new();
    for delta in deltas {
        let next = Arc::new(index.apply_delta(delta).expect("probe deltas are valid"));
        let t = Instant::now();
        world.publish_arc(next);
        publish_ns.push(ns(t));
    }
    report.set("server.publish_us", median_us(&publish_ns));
}

/// Median `global_knn_into` at the prefetch count — the search a full
/// recomputation runs — over positions sampled from the fleet's
/// trajectories, µs.
fn knn_us<F: Fleet>(fleet: &F, index: &<F::S as Space>::Index) -> f64 {
    let m = fleet.ins_config().prefetch_count();
    let mut scratch = <F::S as Space>::Scratch::default();
    let mut out = Vec::with_capacity(m);
    let mut knn_ns = Vec::new();
    for i in 0..2_000u64 {
        let pos = fleet.position(i as usize % fleet.clients(), i * 7);
        let t = Instant::now();
        <F::S as Space>::global_knn_into(index, &mut scratch, pos, m, &mut out);
        knn_ns.push(ns(t));
    }
    median_us(&knn_ns)
}

/// The **index** and **voronoi** layers on the workload's own sites.
pub fn probe_euclid_index(fleet: &EuclidFleet, index: &Arc<VorTree>, report: &mut Report) {
    let clip = fleet.sc.clip_window();
    let mut voronoi_ms = Vec::new();
    let mut build_ms = Vec::new();
    for _ in 0..3 {
        let sites = fleet.sites.clone();
        let t = Instant::now();
        let v = Voronoi::build(sites, clip).expect("valid sites");
        voronoi_ms.push(ms(t));
        drop(v);
        let sites = fleet.sites.clone();
        let t = Instant::now();
        let tree = VorTree::build(sites, clip).expect("valid sites");
        build_ms.push(ms(t));
        drop(tree);
    }
    report.set("voronoi.build_ms", median(&voronoi_ms));
    report.set("index.build_ms", median(&build_ms));

    report.set("index.knn_us", knn_us(fleet, index));

    let deltas = fleet.probe_deltas(5, 16);
    let mut apply_ns = Vec::new();
    for delta in &deltas {
        let mut tree = VorTree::clone(index);
        let t = Instant::now();
        tree.apply(delta).expect("probe deltas are valid");
        apply_ns.push(ns(t));
    }
    report.set("index.apply_us", median_us(&apply_ns));
    probe_publish(index, &deltas, report);

    let mut voronoi = index.voronoi().clone();
    let mut insert_ns = Vec::new();
    let mut remove_ns = Vec::new();
    for delta in &deltas {
        for &p in &delta.added {
            let hint = index.rtree().nearest(p).map(|(e, _)| SiteId(e.id));
            let t = Instant::now();
            voronoi.insert_site(p, hint).expect("pool points are new");
            insert_ns.push(ns(t));
        }
        for &s in delta.removed.iter().rev() {
            let t = Instant::now();
            voronoi.remove_site(s).expect("site exists");
            remove_ns.push(ns(t));
        }
    }
    report.set("voronoi.insert_us", median_us(&insert_ns));
    report.set("voronoi.remove_us", median_us(&remove_ns));
}

/// The **roadnet** layer on the workload's own network and storms.
pub fn probe_roadnet(fleet: &RushFleet, index: &Arc<NetworkWorld>, report: &mut Report) {
    let mut nvd_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let nvd = NetworkVoronoi::build(&fleet.net, &fleet.sites);
        nvd_ms.push(ms(t));
        drop(nvd);
    }
    report.set("roadnet.nvd_build_ms", median(&nvd_ms));

    report.set("roadnet.knn_us", knn_us(fleet, index));

    // Congest and clear alternate, as in the run; a rebuild re-weights
    // the network and builds the NVD from scratch.
    let storms: Vec<_> = (0..6)
        .map(|e| fleet.rush.storm_delta(&fleet.net, e))
        .collect();
    let mut current = NetworkWorld::clone(index);
    let mut apply_ns = Vec::new();
    let mut rebuild_ns = Vec::new();
    for storm in &storms {
        let t = Instant::now();
        let rebuilt = NetworkWorld::build(
            Arc::new(current.net.reweighted(&storm.weights).expect("valid storm")),
            (*current.sites).clone(),
        );
        rebuild_ns.push(ns(t));
        drop(rebuilt);
        let t = Instant::now();
        let next = current.apply_delta(storm).expect("valid storm");
        apply_ns.push(ns(t));
        current = next;
    }
    report.set("roadnet.apply_us", median_us(&apply_ns));
    report.set(
        "roadnet.rebuild_over_apply",
        median_us(&rebuild_ns) / median_us(&apply_ns),
    );
    probe_publish(index, &storms, report);
}

/// The **net** codec on the run's real frames: the position updates the
/// sessions sent and the answers they sampled.
pub fn probe_codec(positions: &[Point], answers: &[Vec<u32>], report: &mut Report) {
    use insq_net::WireSpace;
    let mut frames: Vec<Message> = positions
        .iter()
        .map(|&p| Message::PositionUpdate {
            pos: Euclidean::pos_to_wire(p),
        })
        .collect();
    frames.extend(answers.iter().map(|ids| Message::KnnResult {
        epoch: 0,
        ids: ids.clone(),
        outcome: TickOutcome::Valid.into(),
        flags: 0,
    }));
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(Message::encode_frame).collect();
    let encode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    let t = Instant::now();
    let decoded = encoded
        .iter()
        .filter(|f| Message::decode_payload(&f[4..]).is_ok())
        .count();
    let decode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    assert_eq!(decoded, frames.len(), "own frames decode");
    report.set("net.encode_ns", encode_ns);
    report.set("net.decode_ns", decode_ns);
}

/// The **cluster** layer without sockets: `ClusterPlan::new`, then
/// `PartitionGroup::tick` over the sessions' positions against one
/// whole-world engine fed the same positions (`one_world_tick_us`).
pub fn probe_group(
    fleet: &EuclidFleet,
    positions: &[Point],
    one_world_tick_us: f64,
    report: &mut Report,
) {
    let mut plan_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let plan = ClusterPlan::new(
            partitioner(),
            margin(fleet.sites.len()),
            fleet.sites.clone(),
        );
        plan_ms.push(ms(t));
        drop(plan);
    }
    report.set("cluster.plan_ms", median(&plan_ms));

    let Regions { plan, worlds, .. } = Regions::build(fleet);
    let mut group: PartitionGroup<Euclidean> =
        PartitionGroup::new(plan, worlds, FleetConfig::default());
    let cfg = fleet.ins_config();
    let clients = fleet.clients();
    for &p in &positions[..clients] {
        group.register(p, cfg).expect("valid config");
    }
    // Timed over the same ticks as the one-world engine it is held
    // against.
    let (warm, _) = phases(positions.len() / clients);
    let mut tick_ns = Vec::new();
    for (t, pos) in positions.chunks_exact(clients).enumerate() {
        let t0 = Instant::now();
        let results = group.tick(TickPolicy::Barrier, |c| TickPos::Fresh(pos[c.0 as usize]));
        if t >= warm {
            tick_ns.push(ns(t0));
        }
        assert_eq!(results.len(), clients);
    }
    let group_tick_us = median_us(&tick_ns);
    report.set("cluster.group_tick_us", group_tick_us);
    report.set(
        "cluster.group_overhead_frac",
        group_tick_us / one_world_tick_us - 1.0,
    );
}
