//! The repo benchmark: five named moving-kNN serving workloads measured
//! end to end and, in a separate traced run, layer by layer. See
//! `README.md` for the metric and workload definitions.

pub mod inproc;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod wire;

use std::path::PathBuf;
use std::sync::Arc;

use insq_core::{Euclidean, Space};
use insq_index::VorTree;
use insq_workload::{Distribution, TrajectoryKind};

use inproc::InprocRunner;
use inputs::{EuclidFleet, Fleet, RushFleet};
use measure::{measure, setups, Measured, Quiet, SetupTimes, TRACED_ROUNDS};
use oracle::{Samples, Verdict};
use report::Report;
use stats::{cv, median, median_us, percentile_us};
use trace::Aggregate;
use trace::Tracer;
use wire::{Topology, WireRunner};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EuclidCruise,
    EuclidChurn,
    RoadRush,
    WireFleet,
    WireCluster,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::EuclidCruise,
        Workload::EuclidChurn,
        Workload::RoadRush,
        Workload::WireFleet,
        Workload::WireCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EuclidCruise => "euclid_cruise",
            Workload::EuclidChurn => "euclid_churn",
            Workload::RoadRush => "road_rush",
            Workload::WireFleet => "wire_fleet",
            Workload::WireCluster => "wire_cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is what the command line runs and the committed
/// numbers use; `Tiny` keeps the determinism tests in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured rounds of an untraced run (`--seconds`: a round is sized
    /// to last about a second on the reference host).
    pub rounds: usize,
    pub trace: bool,
    pub scale: Scale,
}

/// Per-workload sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    sites: usize,
    clients: usize,
    /// Ticks (in process) or cycles per session (wire) in one round.
    ticks: usize,
    /// Ticks or cycles in one slice: a whole number of epoch periods
    /// that divides `ticks`, sized to last about 0.1 s.
    slice: usize,
    setup_cycles: usize,
    grid_side: u32,
    /// Answers the oracle checks, at least.
    oracle: u64,
}

fn sizes(workload: Workload, scale: Scale) -> Sizes {
    let full = |sites, clients, ticks, slice, setup_cycles| Sizes {
        sites,
        clients,
        ticks,
        slice,
        setup_cycles,
        grid_side: 160,
        // The warm-up round's samples are checked too; 10 000 are left
        // for the measured rounds.
        oracle: 11_600,
    };
    let s = match workload {
        Workload::EuclidCruise => full(100_000, 4_000, 550, 25, 7),
        // A slice holds one epoch.
        Workload::EuclidChurn => full(100_000, 2_000, 340, 20, 7),
        // 280 ticks hold 14 storms: every round starts at free flow. A
        // slice holds one congest and one clear storm.
        Workload::RoadRush => full(0, 1_000, 280, 40, 40),
        Workload::WireFleet => full(100_000, 64, 1_800, 100, 7),
        Workload::WireCluster => full(100_000, 64, 900, 50, 7),
    };
    match scale {
        Scale::Full => s,
        Scale::Tiny => Sizes {
            sites: 4_000,
            clients: s.clients.min(24),
            ticks: 40,
            slice: if workload == Workload::RoadRush {
                40
            } else {
                20
            },
            setup_cycles: 2,
            grid_side: 24,
            oracle: 400,
        },
    }
}

/// Rounds of the whole run, the discarded warm-up included.
fn total_rounds(cfg: &RunConfig) -> usize {
    1 + if cfg.trace {
        2 * TRACED_ROUNDS
    } else {
        cfg.rounds
    }
}

fn euclid_fleet(cfg: &RunConfig, sz: &Sizes) -> EuclidFleet {
    let ticks = (total_rounds(cfg) * sz.ticks) as u64;
    // Speeds are per tick at 100 000 sites; with fewer sites they grow
    // with the site spacing, which keeps the outcome mix comparable.
    let per_tick = |speed: f64| speed * (100_000.0 / sz.sites as f64).sqrt();
    match cfg.workload {
        Workload::EuclidChurn => {
            let (every, changes, joins) = (20, 16, 4);
            let pool = changes * (ticks / every + 1) as usize + 256;
            let clustered = Distribution::Clustered {
                clusters: 200,
                spread: 0.03,
            };
            EuclidFleet::new(
                cfg.seed,
                sz.sites,
                pool,
                sz.clients,
                per_tick(0.03),
                clustered,
                None,
            )
            .with_churn(every, changes, joins)
        }
        Workload::WireCluster => EuclidFleet::new(
            cfg.seed,
            sz.sites,
            256,
            sz.clients,
            per_tick(0.04),
            Distribution::Uniform,
            Some(vec![TrajectoryKind::Shuttle]),
        ),
        _ => EuclidFleet::new(
            cfg.seed,
            sz.sites,
            256,
            sz.clients,
            per_tick(0.011),
            Distribution::Uniform,
            None,
        ),
    }
}

/// Runs one workload and returns what it measured. `Err` means the run
/// could not be completed (transport failure, round too short to trust).
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let sz = sizes(cfg.workload, cfg.scale);
    match cfg.workload {
        Workload::EuclidCruise | Workload::EuclidChurn => {
            let fleet = euclid_fleet(cfg, &sz);
            run_inproc(cfg, &sz, fleet, |fleet, index, report| {
                layers::probe_euclid_index(fleet, index, report)
            })
        }
        Workload::RoadRush => {
            let fleet = RushFleet::new(cfg.seed, sz.grid_side, sz.clients, 64, 20);
            run_inproc(cfg, &sz, fleet, |fleet, index, report| {
                layers::probe_roadnet(fleet, index, report)
            })
        }
        Workload::WireFleet => run_wire(cfg, &sz, Topology::Single),
        Workload::WireCluster => run_wire(cfg, &sz, Topology::Cluster),
    }
}

fn new_tracer(cfg: &RunConfig, spans_per_round: usize) -> Tracer {
    Tracer::new(if cfg.trace {
        TRACED_ROUNDS * spans_per_round + 16
    } else {
        0
    })
}

/// Spans written to the trace file; the aggregates cover all of them.
const TRACE_FILE_SPANS: usize = 50_000;

/// Writes `benchmark/out/trace-<workload>.json` (full-size runs only:
/// the determinism tests run in parallel and must not share a file) and
/// notes the per-span aggregates in the report.
fn finish_trace(cfg: &RunConfig, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let parts: Vec<String> = tracer
        .aggregates()
        .iter()
        .map(|(name, a)| format!("{name} ×{} self {:.1} ms", a.count, a.self_ns as f64 / 1e6))
        .collect();
    report.notes.push(format!("spans: {}", parts.join(" · ")));
    if cfg.scale == Scale::Tiny {
        return Ok(());
    }
    let name = cfg.workload.name();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{name}.json"));
    tracer
        .write_json(&path, name, TRACE_FILE_SPANS)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The parts of a report every workload fills the same way.
fn base_report(
    cfg: &RunConfig,
    setup: &SetupTimes,
    m: &Measured,
    peak_rss_mb: f64,
    oracle: Verdict,
    sample_unit: &str,
) -> Result<(Report, Quiet), String> {
    let mut report = Report {
        workload: cfg.workload.name().to_string(),
        traced: cfg.trace,
        ..Report::default()
    };
    let u = &m.untraced;
    let round_s = median(&u.walls);
    if cfg.scale == Scale::Full && round_s < 0.5 {
        return Err(format!(
            "median round lasted {round_s:.3} s; rounds under 0.5 s are too short to report"
        ));
    }
    let quiet = u.quiet();
    let overall = u.answers as f64 / u.walls.iter().sum::<f64>();
    report.attempted = u.attempted + m.traced.attempted;
    report.failed = u.failed + m.traced.failed + oracle.mismatches;
    let list = |values: &[f64], scale: f64| {
        values
            .iter()
            .map(|v| format!("{:.0}", v * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.notes = vec![
        format!(
            "seed {} · {} measured rounds, median {round_s:.3} s · {} answers",
            cfg.seed,
            u.rates.len() + m.traced.rates.len(),
            u.answers + m.traced.answers
        ),
        format!(
            "quiet slices {} of {} · {} latency samples in them (one per {sample_unit}), {} in all",
            quiet.slices,
            u.rec.slices.len(),
            quiet.samples,
            u.rec.lat_ns.len()
        ),
        format!(
            "whole run {overall:.0} answers/s, {:.1}% below its quiet slices",
            (1.0 - overall / quiet.answers_per_s) * 100.0
        ),
        format!(
            "oracle checked {} answers over {} epochs, {} wrong",
            oracle.checked, oracle.epochs, oracle.mismatches
        ),
        format!(
            "threads available {}",
            std::thread::available_parallelism().map_or(0, |p| p.get())
        ),
        format!("set-up cycles, ms: {}", list(&setup.cycles_s, 1e3)),
        format!("untraced rounds, k answers/s: {}", list(&u.rates, 1e-3)),
    ];
    let answers = u.answers.max(1) as f64;
    if cfg.trace {
        report.set(
            "gen.positions_ns_per_answer",
            m.gen_s * 1e9 / m.gen_answers.max(1) as f64,
        );
        report.set("gen.driver_cpu_frac", u.driver_cpu_s / u.cpu_s.max(1e-9));
        report.set("setup.cold_s", setup.cold_s);
        report.set("setup.build_s", setup.build_s);
        report.set("setup.register_s", setup.register_s);
        report.set("setup.first_answer_s", setup.first_answer_s);
        report.set("bench.round_cv", cv(&u.rates));
        report.set("bench.disturbed_frac", 1.0 - overall / quiet.answers_per_s);
        report.set(
            "bench.trace_overhead_frac",
            1.0 - m.traced.quiet().answers_per_s / quiet.answers_per_s,
        );
        let mut lat = u.rec.lat_ns.clone();
        lat.sort_unstable();
        report.set("e2e.answer_p99_us", percentile_us(&lat, 0.99));
        report.set("e2e.answer_max_us", percentile_us(&lat, 1.0));
        report.set("e2e.fail_frac", report.fail_frac());
    } else {
        report.set("setup_s", setup.median_s);
        report.set("answers_per_s", quiet.answers_per_s);
        report.set("answer_p50_us", quiet.p50_us);
        report.set("answer_p90_us", quiet.p90_us);
        report.set("cpu_us_per_answer", quiet.cpu_us);
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("comm_objects_per_answer", u.comm_objects as f64 / answers);
    }
    Ok((report, quiet))
}

/// `(measured − predicted) ÷ measured`: the share of a figure that the
/// layers' self times leave unexplained.
fn residual(measured: f64, predicted: f64) -> f64 {
    (measured - predicted) / measured
}

fn run_inproc<F: Fleet>(
    cfg: &RunConfig,
    sz: &Sizes,
    fleet: F,
    probe_index: impl FnOnce(&F, &Arc<<F::S as Space>::Index>, &mut Report),
) -> Result<Report, String> {
    let clients = fleet.clients();
    let first: Vec<_> = (0..clients).map(|c| fleet.position(c, 0)).collect();
    let (inst, setup) = setups(sz.setup_cycles, || inproc::setup_cycle(&fleet, &first));
    let per_round = (sz.ticks * clients) as u64;
    let samples = Samples::new(fleet.k(), per_round * total_rounds(cfg) as u64, sz.oracle);
    let mut runner = InprocRunner::new(fleet, inst, sz.ticks, sz.slice, samples);
    // Per tick: apply, tick, sample, and a register/deregister pair per join.
    let mut tracer = new_tracer(cfg, sz.ticks * 12 + 1);
    let m = measure(&mut runner, cfg.rounds, cfg.trace, &mut tracer);
    let peak = sys::peak_rss_mb();

    runner.finish();
    let base = runner.fleet.build_index();
    let oracle = runner.samples.check(base, &runner.applied);
    let unit = "tick, standing for every client's answer";
    let (mut report, quiet) = base_report(cfg, &setup, &m, peak, oracle, unit)?;
    if !cfg.trace {
        return Ok(report);
    }

    // What the fleet's queries hold: the run's peak over the memory the
    // cold set-up cycle had built before its first registration.
    report.set(
        "server.rss_kb_per_query",
        (peak * 1024.0 - setup.cold_built_rss_kb) / clients as f64,
    );
    report.set(
        "server.apply_us",
        median_us(&tracer.durations_ns("server.apply")),
    );
    report.set(
        "server.rebind_tick_us",
        median_us(&tracer.durations_ns("server.tick.rebind")),
    );
    report.set(
        "server.rebinds_per_epoch",
        runner.rebinds as f64 / runner.epochs.max(1) as f64,
    );
    finish_trace(cfg, &tracer, &mut report)?;

    // The kept instance is done; free it before the probes allocate.
    let InprocRunner { fleet, plan, .. } = runner;
    let index = Arc::new(fleet.build_index());
    probe_index(&fleet, &index, &mut report);
    let probe_ticks = sz.ticks.min(150);
    let probe = layers::probe_fleet::<F::S>(
        &index,
        fleet.ins_config(),
        clients,
        &plan.positions[..probe_ticks * clients],
        &mut report,
    );
    // The layers' prediction of the run's median tick: the bare
    // processors' work plus what the engine adds to it, both spread over
    // the engine's default thread count.
    let (core, server) = (probe.core_self_us(), probe.server_self_us());
    report.notes.push(format!(
        "answer_p50_us {:.1} = core self {core:.1} + server self {server:.1} + residual",
        quiet.p50_us
    ));
    report.set(
        "bench.budget_residual_frac",
        residual(quiet.p50_us, core + server),
    );
    Ok(report)
}

fn run_wire(cfg: &RunConfig, sz: &Sizes, topology: Topology) -> Result<Report, String> {
    let (mut runner, setup, connect_ns) = wire_setup(cfg, sz, topology)?;
    let sessions = runner.fleet.clients();
    let per_round = (sz.ticks * sessions) as u64;
    // Per answer: a send, a poll that returns it, and some waits.
    let mut tracer = new_tracer(cfg, per_round as usize * 4);
    let before = Counters::read(&runner.inst);
    let m = measure(&mut runner, cfg.rounds, cfg.trace, &mut tracer);
    let peak = sys::peak_rss_mb();
    let after = Counters::read(&runner.inst);
    if let Some(e) = runner.error.take() {
        return Err(format!("wire run failed: {e}"));
    }

    // The oracle is the whole-world index, whatever the backends hold.
    let global = Arc::new(runner.fleet.build_index());
    let oracle = runner.samples.check(VorTree::clone(&global), &[]);
    let (mut report, quiet) = base_report(cfg, &setup, &m, peak, oracle, "answer")?;
    if let Some(mismatch) = runner.comm_mismatch.take() {
        report
            .faults
            .push(format!("comm_objects_per_answer is unverified: {mismatch}"));
    }
    if !cfg.trace {
        return Ok(report);
    }

    finish_trace(cfg, &tracer, &mut report)?;
    // The generator's spans tile its time, so by Little's law the mean
    // round trip of `sessions` closed loops is `sessions` times the
    // span time per answer — taken, like the p50 it is held against,
    // over quiet slices (of the traced rounds).
    let traced_quiet = m.traced.quiet();
    let spans = tracer.aggregates_in(traced_quiet.spans.iter().cloned());
    let rtt_share_us = |name: &str| {
        let self_ns = spans.get(name).map_or(0, |a: &Aggregate| a.self_ns);
        self_ns as f64 / 1e3 * sessions as f64 / traced_quiet.answers.max(1) as f64
    };
    let generator_us = rtt_share_us("net.send") + rtt_share_us("net.poll");
    let serving_us = rtt_share_us("net.wait");
    drop(tracer);

    // Counters cover the warm-up round too: the same cycles, uncounted
    // only in the timed metrics.
    let answers = (per_round * total_rounds(cfg) as u64) as f64;
    let cycles = (sz.ticks * total_rounds(cfg)) as f64;
    // Filler traffic depends on timing; taking it out leaves the bytes
    // of the counted requests and answers, which repeat exactly.
    let fillers = after.fillers - before.fillers;
    let (filler_up, filler_down) = wire::filler_bytes(runner.fleet.k());
    report.set(
        "net.bytes_up_per_answer",
        (after.up - before.up - fillers * filler_up) as f64 / answers,
    );
    report.set(
        "net.bytes_down_per_answer",
        (after.down - before.down - fillers * filler_down) as f64 / answers,
    );
    report.set(
        "net.server_ticks_per_cycle",
        (after.ticks - before.ticks) as f64 / cycles,
    );
    report.set(
        "net.buffer_high_water_bytes",
        runner.inst.servers.buffer_high_water() as f64,
    );
    report.set("net.connect_register_us", median_us(&connect_ns));
    let rtt_p50 = quiet.p50_us;

    let WireRunner {
        fleet,
        inst,
        samples,
        handoff_ns,
        uncertified,
        ..
    } = runner;
    drop(inst);
    let mut positions = Vec::new();
    fleet.fill_positions(0, sz.ticks.min(1_000), &mut positions);
    let answers_sampled: Vec<Vec<u32>> = samples.answers().map(<[u32]>::to_vec).collect();
    layers::probe_codec(&positions, &answers_sampled, &mut report);
    layers::probe_euclid_index(&fleet, &global, &mut report);
    let cfg_ins = fleet.ins_config();
    let probe =
        layers::probe_fleet::<Euclidean>(&global, cfg_ins, sessions, &positions, &mut report);
    let tick_us = probe.default_tick_us();
    report.set("net.rtt_minus_tick_us", rtt_p50 - tick_us);
    // Of the serving side's share, the probes explain the engine tick
    // and the server's half of the codec; the rest is the reactor, its
    // system calls and its wake-ups (and, on the cluster, the router).
    let codec_us =
        (report.get("net.encode_ns") + report.get("net.decode_ns")) * sessions as f64 / 1e3;
    report.notes.push(format!(
        "answer_p50_us {rtt_p50:.1} = generator self {generator_us:.1} + serving side \
         {serving_us:.1} (engine tick {tick_us:.1}, codec {codec_us:.1}) + residual",
    ));
    report.set(
        "bench.budget_residual_frac",
        residual(rtt_p50, generator_us + serving_us),
    );

    if topology == Topology::Cluster {
        report.set(
            "cluster.handoffs_per_1k_answers",
            (after.handoffs - before.handoffs) as f64 * 1e3 / answers,
        );
        report.set(
            "cluster.uncertified_frac",
            uncertified as f64 / (m.untraced.answers + m.traced.answers).max(1) as f64,
        );
        report.set("cluster.handoff_rtt_p50_us", median_us(&handoff_ns));
        layers::probe_group(&fleet, &positions, tick_us, &mut report);
        // The same sessions against one whole-world server: what is left
        // of the cluster's round trip is the router hop.
        let (mut single, _, _) = wire_setup(
            &RunConfig {
                trace: false,
                rounds: 2,
                ..*cfg
            },
            &Sizes {
                setup_cycles: 1,
                ..*sz
            },
            Topology::Single,
        )?;
        let direct = measure(&mut single, 2, false, &mut Tracer::new(0));
        if let Some(e) = single.error.take() {
            return Err(format!("whole-world comparison run failed: {e}"));
        }
        report.set(
            "cluster.router_hop_us",
            rtt_p50 - direct.untraced.quiet().p50_us,
        );
    }
    Ok(report)
}

/// Server- and generator-side counters, read while no request is in
/// flight.
struct Counters {
    up: u64,
    down: u64,
    ticks: u64,
    handoffs: u64,
    fillers: u64,
}

impl Counters {
    fn read(inst: &wire::WireInstance) -> Counters {
        let (up, down) = inst.driver.wire_bytes();
        Counters {
            up,
            down,
            ticks: inst.servers.ticks(),
            handoffs: inst.servers.handoffs(),
            fillers: inst.driver.fillers,
        }
    }
}

/// The set-up cycles of a wire workload; returns the runner over the
/// kept instance and every cycle's per-session connect + register times.
fn wire_setup(
    cfg: &RunConfig,
    sz: &Sizes,
    topology: Topology,
) -> Result<(WireRunner, SetupTimes, Vec<u32>), String> {
    let fleet = euclid_fleet(cfg, sz);
    let mut connect_ns: Vec<u32> = Vec::new();
    let mut error = None;
    let (inst, setup) = setups(sz.setup_cycles, || {
        match wire::setup_cycle(&fleet, topology) {
            Ok((inst, times)) => {
                connect_ns.extend_from_slice(&inst.connect_ns);
                (Some(inst), times)
            }
            Err(e) => {
                error.get_or_insert(e);
                (None, [0.0; 4])
            }
        }
    });
    if let Some(e) = error {
        return Err(format!("set-up failed: {e}"));
    }
    let inst = inst.expect("set-up succeeded");
    let per_round = (sz.ticks * fleet.clients()) as u64;
    let samples = Samples::new(fleet.k(), per_round * total_rounds(cfg) as u64, sz.oracle);
    let runner = WireRunner::new(fleet, inst, topology, sz.ticks, sz.slice, samples);
    Ok((runner, setup, connect_ns))
}
