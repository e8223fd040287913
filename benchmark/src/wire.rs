//! Wire workloads: real `NetServer` / `RouterServer` processes-in-threads
//! on the host's loopback interface, loaded by one generator (the main
//! thread) that multiplexes every session through the non-blocking
//! `ClientCore`.
//!
//! The load is a per-session closed loop: a session sends its next
//! position only after its previous answer arrived. Under the servers'
//! Barrier policy a backend ticks only when every live session has a
//! fresh position, so a session that has finished its round's cycles (or
//! is waiting for the others at a round boundary) would stall its
//! backend. Such a parked session re-sends its last position — a
//! *filler*, answered but not counted, which moves nothing and so never
//! causes a handoff or ships an object — whenever another session homed
//! in the same region is waiting for an answer.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_cluster::{ClusterPlan, RouterConfig, RouterServer};
use insq_core::{Euclidean, InsConfig, MovingKnn, Processor};
use insq_geom::Point;
use insq_index::{VorTree, VorTreeScratch};
use insq_net::sys::{self, Event, Readiness, ReadinessKind};
use insq_net::{ClientCore, ClientEvent, Message, NetServer, NetServerConfig, WireSpace};
use insq_server::{GridPartitioner, Partitioner, RegionId, World};

use crate::inputs::{data_space, EuclidFleet, Fleet};
use crate::measure::{CycleTimes, Recorder, RoundOutcome, Runner};
use crate::oracle::Samples;
use crate::trace::{Tracer, NO_SPAN};

/// Replication margin of the cluster's regional indexes: 2.0 at
/// 100 000 sites, where the 5th neighbour of a query is ~0.4 away, and
/// scaled with the site spacing below that — every answer certifies with
/// room to spare.
pub fn margin(sites: usize) -> f64 {
    2.0 * (100_000.0 / sites as f64).sqrt()
}

/// The servers of one set-up instance. The router (if any) is declared
/// first so it shuts down before the backends it is connected to.
pub struct Servers {
    router: Option<RouterServer>,
    backends: Vec<NetServer<Euclidean>>,
    part: Option<Arc<GridPartitioner>>,
}

impl Servers {
    /// One whole-world server whose first tick waits for `sessions`.
    pub fn single(world: Arc<World<VorTree>>, sessions: usize) -> io::Result<Servers> {
        let cfg = NetServerConfig {
            min_clients: sessions,
            ..NetServerConfig::default()
        };
        Ok(Servers {
            router: None,
            backends: vec![NetServer::bind("127.0.0.1:0", world, cfg)?],
            part: None,
        })
    }

    /// A router in front of one certifying backend per region of `plan`;
    /// backend `r`'s first tick waits for `population[r]` sessions.
    pub fn cluster(
        plan: &ClusterPlan,
        part: Arc<GridPartitioner>,
        worlds: Vec<Arc<World<VorTree>>>,
        population: &[usize],
    ) -> io::Result<Servers> {
        let mut backends = Vec::with_capacity(worlds.len());
        for (world, &min_clients) in worlds.into_iter().zip(population) {
            let cfg = NetServerConfig {
                min_clients,
                certify_within: Some(plan.margin()),
                ..NetServerConfig::default()
            };
            backends.push(NetServer::bind("127.0.0.1:0", world, cfg)?);
        }
        let addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
        let router = RouterServer::bind(
            "127.0.0.1:0",
            part.clone(),
            RouterConfig {
                tables: plan.tables(),
                ..RouterConfig::new(addrs)
            },
        )?;
        Ok(Servers {
            router: Some(router),
            backends,
            part: Some(part),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.backends[0].local_addr(),
        }
    }

    pub fn regions(&self) -> usize {
        self.backends.len()
    }

    pub fn region_of(&self, p: Point) -> usize {
        self.part.as_ref().map_or(0, |g| g.region_of(p).0 as usize)
    }

    /// Engine ticks, summed over backends.
    pub fn ticks(&self) -> u64 {
        self.backends.iter().map(NetServer::ticks).sum()
    }

    pub fn buffer_high_water(&self) -> u64 {
        self.backends
            .iter()
            .map(NetServer::buffer_high_water)
            .max()
            .unwrap_or(0)
    }

    pub fn handoffs(&self) -> u64 {
        self.router.as_ref().map_or(0, RouterServer::handoffs)
    }

    /// `comm_objects` of the queries live right now, summed over
    /// backends (a backend forgets a query's counters at deregistration).
    pub fn live_comm_objects(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.stats().total.comm_objects)
            .sum()
    }

    /// The index snapshot each backend serves.
    pub fn indexes(&self) -> Vec<Arc<VorTree>> {
        self.backends
            .iter()
            .map(|b| b.world().snapshot().1)
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No update outstanding.
    Idle,
    /// A counted position update is outstanding.
    Measured,
    /// A filler is outstanding.
    Filler,
}

struct Session {
    core: ClientCore,
    state: State,
    /// Counted answers received this round.
    done: usize,
    sent_at: Instant,
    /// The last position sent, and the region it homes in.
    pos: Point,
    region: usize,
    /// The outstanding update moved the session to another region.
    crossed: bool,
}

/// Where a round's observations go.
pub struct Sinks<'a> {
    /// One RTT sample (ns) per counted answer, and a cut every
    /// `slice_answers` of them (which divides a round's answers).
    pub rec: &'a mut Recorder,
    pub slice_answers: u64,
    /// RTTs of answers whose update crossed a region border.
    pub handoff_ns: &'a mut Vec<u32>,
    pub samples: &'a mut Samples<Euclidean>,
    pub uncertified: &'a mut u64,
}

/// The load generator: every session of the fleet on one thread.
pub struct Driver {
    sessions: Vec<Session>,
    readiness: Readiness,
    events: Vec<Event>,
    k: usize,
    /// Fillers sent so far; each was answered with one `k`-id result.
    pub fillers: u64,
}

fn protocol(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Driver {
    /// Connects one session per entry of `first` and sends its
    /// `Register` (whose position is the session's first submitted one).
    /// Returns the driver and each session's connect + register time, ns.
    pub fn connect(
        addr: SocketAddr,
        first: &[Point],
        cfg: InsConfig,
        region_of: impl Fn(Point) -> usize,
    ) -> io::Result<(Driver, Vec<u32>)> {
        let mut readiness = Readiness::new(ReadinessKind::Auto)?;
        let mut sessions = Vec::with_capacity(first.len());
        let mut connect_ns = Vec::with_capacity(first.len());
        for (token, &pos) in first.iter().enumerate() {
            let t0 = Instant::now();
            let mut core = ClientCore::connect(addr)?;
            core.try_send(&Message::Register {
                space: Euclidean::KIND,
                k: cfg.k as u32,
                rho: cfg.rho,
                pos: Euclidean::pos_to_wire(pos),
            })?;
            connect_ns.push(t0.elapsed().as_nanos() as u32);
            readiness.register(core.raw_fd(), token as u64, true, false)?;
            sessions.push(Session {
                core,
                state: State::Measured,
                done: 0,
                sent_at: t0,
                pos,
                region: region_of(pos),
                crossed: false,
            });
        }
        let driver = Driver {
            sessions,
            readiness,
            events: Vec::new(),
            k: cfg.k,
            fillers: 0,
        };
        Ok((driver, connect_ns))
    }

    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Wire bytes `(up, down)` over all sessions, as the clients counted
    /// them (their own writes and reads, so nothing is in flight).
    pub fn wire_bytes(&self) -> (u64, u64) {
        self.sessions
            .iter()
            .map(|s| s.core.wire_bytes())
            .fold((0, 0), |(up, down), (sent, received)| {
                (up + sent, down + received)
            })
    }

    /// Sends `pos` as session `s`'s next update. A filler re-sends the
    /// session's last position, so only a counted update can cross.
    fn send(
        s: &mut Session,
        pos: Point,
        region: usize,
        state: State,
        tracer: &mut Tracer,
        parent: u32,
    ) -> io::Result<()> {
        s.crossed = region != s.region;
        s.pos = pos;
        s.region = region;
        s.state = state;
        s.sent_at = Instant::now();
        tracer.time("net.send", parent, s.done as u32, || {
            s.core.try_send_update::<Euclidean>(pos)
        })?;
        while s.core.pending_out() > 0 {
            sys::wait_writable(s.core.raw_fd())?;
            s.core.flush()?;
        }
        Ok(())
    }

    fn send_filler(s: &mut Session, tracer: &mut Tracer, parent: u32) -> io::Result<()> {
        let (pos, region) = (s.pos, s.region);
        Self::send(s, pos, region, State::Filler, tracer, parent)
    }

    /// Runs every session through `cycles` counted request/answer cycles
    /// and returns once all of them are idle. `positions[c * n + s]` is
    /// session `s`'s position for cycle `c`; with `positions = None` the
    /// one counted cycle is the already-sent `Register`.
    ///
    /// A session that has finished its cycles is *parked*. Three rules
    /// keep the Barrier backends ticking (see the module docs): a parked
    /// session re-sends its position on every answer while an unfinished
    /// session is homed in its region; when an unfinished session crosses
    /// into a region, the idle sessions there send one filler each; and
    /// whenever nothing has arrived for [`QUIET`], every idle session
    /// whose region has a request outstanding sends one — which is also
    /// how the fillers still outstanding when the round ends are drained.
    pub fn run(
        &mut self,
        cycles: usize,
        positions: Option<&[Point]>,
        region_of: &dyn Fn(Point) -> usize,
        regions: usize,
        tracer: &mut Tracer,
        sinks: &mut Sinks<'_>,
    ) -> io::Result<RoundOutcome> {
        let n = self.sessions.len();
        let mut out = RoundOutcome {
            attempted: (n * cycles) as u64,
            ..RoundOutcome::default()
        };
        let round = tracer.begin("round", NO_SPAN, 0);
        let start = Instant::now();
        sinks.rec.start(tracer);
        let mut last_answer = start;
        // Unfinished sessions homed in each region.
        let mut unfinished_in = vec![0usize; regions];
        for (i, s) in self.sessions.iter_mut().enumerate() {
            s.done = 0;
            if let Some(positions) = positions {
                let pos = positions[i];
                Self::send(s, pos, region_of(pos), State::Measured, tracer, round)?;
            }
            unfinished_in[s.region] += 1;
        }
        let mut unfinished = n;
        let mut outstanding = n;
        let mut quiet_waits = 0u32;
        let mut events = std::mem::take(&mut self.events);
        let mut waiting = vec![false; regions];
        while unfinished > 0 || outstanding > 0 {
            let span = tracer.begin("net.wait", round, 0);
            let ready = self.readiness.wait(Some(QUIET), &mut events)?;
            tracer.end(span);
            if ready == 0 {
                quiet_waits += 1;
                if quiet_waits > HANG_WAITS {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no answer for 10 s ({unfinished} sessions unfinished)"),
                    ));
                }
                waiting.iter_mut().for_each(|w| *w = false);
                for s in &self.sessions {
                    waiting[s.region] |= s.state != State::Idle;
                }
                for s in &mut self.sessions {
                    if s.state == State::Idle && waiting[s.region] {
                        Self::send_filler(s, tracer, round)?;
                        outstanding += 1;
                        self.fillers += 1;
                    }
                }
                continue;
            }
            quiet_waits = 0;
            for ev in &events {
                let i = ev.token as usize;
                loop {
                    let s = &mut self.sessions[i];
                    let span = tracer.begin("net.poll", round, s.done as u32);
                    let event = s.core.poll_event()?;
                    tracer.end(span);
                    let (epoch, ids, flags) = match event {
                        None => break,
                        Some(ClientEvent::Epoch(_)) => continue,
                        Some(ClientEvent::Result {
                            epoch, ids, flags, ..
                        }) => (epoch, ids, flags),
                        Some(other) => {
                            return Err(protocol(format!("session {i}: unexpected {other:?}")))
                        }
                    };
                    let now = Instant::now();
                    let mut crossed_into = None;
                    match s.state {
                        State::Idle => {
                            return Err(protocol(format!("session {i}: unrequested answer")))
                        }
                        State::Filler => {
                            s.state = State::Idle;
                            outstanding -= 1;
                        }
                        State::Measured => {
                            let rtt = (now - s.sent_at).as_nanos().min(u128::from(u32::MAX)) as u32;
                            sinks.rec.lat_ns.push(rtt);
                            if s.crossed {
                                sinks.handoff_ns.push(rtt);
                            }
                            out.answers += 1;
                            if out.answers.is_multiple_of(sinks.slice_answers) {
                                sinks.rec.cut(sinks.slice_answers, tracer);
                            }
                            let mut bad = ids.len() != self.k;
                            if flags != 0 {
                                *sinks.uncertified += 1;
                                bad = true;
                            }
                            if sinks.samples.due(1).next().is_some() {
                                bad |= !sinks.samples.record(epoch, s.pos, ids.into_iter());
                            }
                            out.failed += u64::from(bad);
                            s.done += 1;
                            match positions {
                                Some(positions) if s.done < cycles => {
                                    let pos = positions[s.done * n + i];
                                    let region = region_of(pos);
                                    unfinished_in[s.region] -= 1;
                                    unfinished_in[region] += 1;
                                    Self::send(s, pos, region, State::Measured, tracer, round)?;
                                    if s.crossed {
                                        crossed_into = Some(region);
                                    }
                                }
                                _ => {
                                    s.state = State::Idle;
                                    outstanding -= 1;
                                    unfinished -= 1;
                                    unfinished_in[s.region] -= 1;
                                    last_answer = now;
                                }
                            }
                        }
                    }
                    if s.state == State::Idle && unfinished_in[s.region] > 0 {
                        Self::send_filler(s, tracer, round)?;
                        outstanding += 1;
                        self.fillers += 1;
                    }
                    if let Some(region) = crossed_into {
                        for p in &mut self.sessions {
                            if p.state == State::Idle && p.region == region {
                                Self::send_filler(p, tracer, round)?;
                                outstanding += 1;
                                self.fillers += 1;
                            }
                        }
                    }
                }
            }
        }
        self.events = events;
        out.wall_s = (last_answer - start).as_secs_f64();
        tracer.end(round);
        Ok(out)
    }
}

/// Wire bytes `(up, down)` of one filler exchange: a position update and
/// the `k`-id answer to it.
pub fn filler_bytes(k: usize) -> (u64, u64) {
    let up = Message::PositionUpdate {
        pos: Euclidean::pos_to_wire(Point::new(0.0, 0.0)),
    };
    let down = Message::KnnResult {
        epoch: 0,
        ids: vec![0; k],
        outcome: insq_core::TickOutcome::Valid.into(),
        flags: 0,
    };
    (
        up.encode_frame().len() as u64,
        down.encode_frame().len() as u64,
    )
}

/// How long nothing may arrive before idle sessions unblock a region.
const QUIET: Duration = Duration::from_millis(2);

/// Consecutive quiet waits (10 s) after which a round is given up.
const HANG_WAITS: u32 = 5_000;

/// A backend forgets a query's counters when the router hands the
/// session off (it deregisters the query), so the backends' own
/// `stats()` only ever cover the queries live right now. The part they
/// forgot is reconstructed here: every session's position stream is
/// replayed through bare `Processor`s on the regional indexes, re-created
/// at each region change like a handoff, and the counters of the
/// replaced ones are kept. The replay's live part must equal the
/// backends' live total; where it does not, the run says so.
pub struct CommMirror {
    indexes: Vec<Arc<VorTree>>,
    scratch: Vec<VorTreeScratch>,
    procs: Vec<(usize, Processor<Euclidean, Arc<VorTree>>)>,
    cfg: InsConfig,
    /// Ticks replayed so far.
    at: u64,
    /// Objects shipped to queries that have since been handed off.
    pub forgotten: u64,
}

impl CommMirror {
    pub fn new(indexes: Vec<Arc<VorTree>>, cfg: InsConfig) -> CommMirror {
        CommMirror {
            scratch: vec![VorTreeScratch::default(); indexes.len()],
            indexes,
            procs: Vec::new(),
            cfg,
            at: 0,
            forgotten: 0,
        }
    }

    fn fresh(&self, region: usize) -> Processor<Euclidean, Arc<VorTree>> {
        Processor::new(Arc::clone(&self.indexes[region]), self.cfg).expect("valid config")
    }

    /// Replays ticks up to (excluding) `until`.
    pub fn advance(&mut self, fleet: &EuclidFleet, region_of: &dyn Fn(Point) -> usize, until: u64) {
        if self.procs.is_empty() {
            self.procs = (0..fleet.clients())
                .map(|c| {
                    let r = region_of(fleet.position(c, 0));
                    (r, self.fresh(r))
                })
                .collect();
        }
        for tick in self.at..until {
            for c in 0..self.procs.len() {
                let pos = fleet.position(c, tick);
                let region = region_of(pos);
                if region != self.procs[c].0 {
                    self.forgotten += self.procs[c].1.stats().comm_objects;
                    self.procs[c] = (region, self.fresh(region));
                }
                self.procs[c].1.tick_with(&mut self.scratch[region], pos);
            }
        }
        self.at = self.at.max(until);
    }

    /// Objects shipped to queries that are still registered.
    pub fn live(&self) -> u64 {
        self.procs.iter().map(|(_, p)| p.stats().comm_objects).sum()
    }
}

/// Which servers a wire workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One whole-world `NetServer`.
    Single,
    /// `RouterServer` in front of two strip backends.
    Cluster,
}

/// One set-up instance. The driver is declared first: its sessions close
/// before the servers shut down.
pub struct WireInstance {
    pub driver: Driver,
    pub servers: Servers,
    /// Per-session connect + register times of this instance, ns.
    pub connect_ns: Vec<u32>,
}

/// The cluster's static half: two vertical strips, the plan over the
/// fleet's sites, and one regional world per strip.
pub struct Regions {
    pub part: Arc<GridPartitioner>,
    pub plan: ClusterPlan,
    pub worlds: Vec<Arc<World<VorTree>>>,
}

pub fn partitioner() -> Arc<GridPartitioner> {
    Arc::new(GridPartitioner::strips(data_space(), 2))
}

impl Regions {
    pub fn build(fleet: &EuclidFleet) -> Regions {
        let part = partitioner();
        let plan = ClusterPlan::new(part.clone(), margin(fleet.sites.len()), fleet.sites.clone());
        let worlds = (0..plan.regions())
            .map(|r| {
                let sites = plan.region_sites(RegionId(r as u32));
                let tree = VorTree::build(sites, fleet.sc.clip_window()).expect("valid sites");
                Arc::new(World::new(tree))
            })
            .collect();
        Regions { part, plan, worlds }
    }
}

/// One set-up cycle: build the world(s), bind the server(s), connect and
/// register every session, deliver the first answer to each.
pub fn setup_cycle(
    fleet: &EuclidFleet,
    topology: Topology,
) -> io::Result<(WireInstance, CycleTimes)> {
    let cfg = fleet.ins_config();
    let first: Vec<Point> = (0..fleet.clients()).map(|c| fleet.position(c, 0)).collect();
    let t0 = Instant::now();
    let (t1, servers) = match topology {
        Topology::Single => {
            let world = Arc::new(World::new(fleet.build_index()));
            let t1 = Instant::now();
            (t1, Servers::single(world, first.len())?)
        }
        Topology::Cluster => {
            let Regions { part, plan, worlds } = Regions::build(fleet);
            let t1 = Instant::now();
            let mut population = vec![0usize; plan.regions()];
            for &p in &first {
                population[part.region_of(p).0 as usize] += 1;
            }
            (t1, Servers::cluster(&plan, part, worlds, &population)?)
        }
    };
    let built_rss_kb = crate::sys::rss_kb();
    let (mut driver, connect_ns) =
        Driver::connect(servers.addr(), &first, cfg, |p| servers.region_of(p))?;
    let t2 = Instant::now();
    let mut samples = Samples::new(cfg.k, 1, 1);
    let mut rec = Recorder::new(first.len(), 1);
    let (mut handoff, mut uncertified) = (Vec::new(), 0u64);
    let out = driver.run(
        1,
        None,
        &|p| servers.region_of(p),
        servers.regions(),
        &mut Tracer::new(0),
        &mut Sinks {
            rec: &mut rec,
            slice_answers: first.len() as u64,
            handoff_ns: &mut handoff,
            samples: &mut samples,
            uncertified: &mut uncertified,
        },
    )?;
    let t3 = Instant::now();
    if out.answers != first.len() as u64 || out.failed != 0 {
        return Err(protocol(format!("first answers: {out:?}")));
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let instance = WireInstance {
        driver,
        servers,
        connect_ns,
    };
    let times = [secs(t0, t1), secs(t1, t2), secs(t2, t3), built_rss_kb];
    Ok((instance, times))
}

/// Runs rounds on a kept [`WireInstance`].
pub struct WireRunner {
    pub fleet: EuclidFleet,
    pub inst: WireInstance,
    pub cycles: usize,
    /// Counted answers per slice; divides a round's answers.
    slice_answers: u64,
    positions: Vec<Point>,
    next_tick: u64,
    /// Ticks whose answers have all arrived.
    done_tick: u64,
    pub samples: Samples<Euclidean>,
    pub handoff_ns: Vec<u32>,
    pub uncertified: u64,
    /// `Some` on the cluster, whose backends forget counters at handoff.
    mirror: Option<CommMirror>,
    /// Set when the replay and the backends disagreed on the live
    /// queries' `comm_objects`: the metric is then unverified.
    pub comm_mismatch: Option<String>,
    /// The first transport or protocol error; later rounds are skipped.
    pub error: Option<io::Error>,
}

impl WireRunner {
    pub fn new(
        fleet: EuclidFleet,
        inst: WireInstance,
        topology: Topology,
        cycles: usize,
        slice_cycles: usize,
        samples: Samples<Euclidean>,
    ) -> WireRunner {
        assert!(cycles.is_multiple_of(slice_cycles), "slices tile a round");
        let slice_answers = (slice_cycles * inst.driver.sessions()) as u64;
        let mirror = (topology == Topology::Cluster)
            .then(|| CommMirror::new(inst.servers.indexes(), fleet.ins_config()));
        WireRunner {
            fleet,
            inst,
            cycles,
            slice_answers,
            positions: Vec::new(),
            // Tick 0 was the registration.
            next_tick: 1,
            done_tick: 1,
            samples,
            handoff_ns: Vec::new(),
            uncertified: 0,
            mirror,
            comm_mismatch: None,
            error: None,
        }
    }
}

impl Runner for WireRunner {
    fn plan_round(&mut self) {
        self.fleet
            .fill_positions(self.next_tick, self.cycles, &mut self.positions);
        self.next_tick += self.cycles as u64;
        self.handoff_ns.reserve(self.positions.len() / 64);
    }

    fn run_round(&mut self, tracer: &mut Tracer, rec: &mut Recorder) -> RoundOutcome {
        let attempted = (self.cycles * self.inst.driver.sessions()) as u64;
        let failed_round = RoundOutcome {
            wall_s: f64::INFINITY,
            attempted,
            ..RoundOutcome::default()
        };
        if self.error.is_some() {
            return failed_round;
        }
        let servers = &self.inst.servers;
        let result = self.inst.driver.run(
            self.cycles,
            Some(&self.positions),
            &|p| servers.region_of(p),
            servers.regions(),
            tracer,
            &mut Sinks {
                rec,
                slice_answers: self.slice_answers,
                handoff_ns: &mut self.handoff_ns,
                samples: &mut self.samples,
                uncertified: &mut self.uncertified,
            },
        );
        self.done_tick = self.next_tick;
        result.unwrap_or_else(|e| {
            self.error = Some(e);
            failed_round
        })
    }

    /// The backends' own counters (`NetServer::stats`, summed), read
    /// while no request is in flight, plus — on the cluster — what they
    /// forgot at handoffs.
    fn comm_objects(&mut self) -> u64 {
        let servers = &self.inst.servers;
        let live = servers.live_comm_objects();
        let Some(mirror) = self.mirror.as_mut() else {
            return live;
        };
        mirror.advance(&self.fleet, &|p| servers.region_of(p), self.done_tick);
        if mirror.live() != live && self.comm_mismatch.is_none() {
            self.comm_mismatch = Some(format!(
                "at tick {} the backends count {live} comm_objects for their live queries, \
                 the replay {}",
                self.done_tick,
                mirror.live()
            ));
        }
        live + mirror.forgotten
    }

    fn answers_per_round(&self) -> u64 {
        (self.cycles * self.inst.driver.sessions()) as u64
    }

    fn samples_per_round(&self) -> usize {
        self.cycles * self.inst.driver.sessions()
    }

    fn slices_per_round(&self) -> usize {
        (self.samples_per_round() as u64 / self.slice_answers) as usize
    }
}
