//! The run protocol shared by every workload: repeated set-up cycles, one
//! discarded warm-up round, then measured rounds of fixed work, each cut
//! into slices; the time-based metrics come from the quiet decile of the
//! slices.

use std::ops::Range;
use std::time::Instant;

use crate::stats::{median, percentile_us};
use crate::sys::{self, CpuClock};
use crate::trace::Tracer;

/// Measured rounds of a traced run, per class: traced and untraced
/// rounds alternate, so the tracing overhead is the ratio of two figures
/// taken in the same process.
pub const TRACED_ROUNDS: usize = 4;

/// The share of a run's slices, fastest first, that the time-based
/// metrics are computed over. The reference host runs in two modes that
/// alternate every few seconds — a neighbour on the same core makes the
/// same instructions take a third longer — and how much of a run falls
/// in the slow mode moves a whole-run median by up to 25% between two
/// runs of one binary. The fastest tenth of ~0.1 s slices falls in the
/// fast mode as long as a tenth of the run does (README, *Calibration*).
pub const QUIET_SHARE: f64 = 0.1;

/// Phase times of the set-up cycles, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Every whole cycle, in order: build → construct → register → first
    /// answer.
    pub cycles_s: Vec<f64>,
    /// Their median.
    pub median_s: f64,
    /// The first, cold cycle.
    pub cold_s: f64,
    pub build_s: f64,
    pub register_s: f64,
    pub first_answer_s: f64,
    /// Resident memory right after the cold cycle's build phase, kB:
    /// inputs plus one index, before any query exists.
    pub cold_built_rss_kb: f64,
}

/// One cycle's `[build s, register s, first answer s, resident kB
/// after the build]`.
pub type CycleTimes = [f64; 4];

/// Runs `cycle` `cycles` times; each call returns the live instance and
/// its [`CycleTimes`]. Every instance but the last is dropped (untimed)
/// before the next cycle starts; the last one is kept and measured.
pub fn setups<I>(cycles: usize, mut cycle: impl FnMut() -> (I, CycleTimes)) -> (I, SetupTimes) {
    let mut phases: Vec<CycleTimes> = Vec::with_capacity(cycles);
    let mut kept = None;
    for _ in 0..cycles.max(1) {
        drop(kept.take());
        let (instance, times) = cycle();
        phases.push(times);
        kept = Some(instance);
    }
    let totals: Vec<f64> = phases.iter().map(|p| p[..3].iter().sum()).collect();
    let phase = |i: usize| median(&phases.iter().map(|p| p[i]).collect::<Vec<_>>());
    let times = SetupTimes {
        median_s: median(&totals),
        cold_s: totals[0],
        build_s: phase(0),
        register_s: phase(1),
        first_answer_s: phase(2),
        cold_built_rss_kb: phases[0][3],
        cycles_s: totals,
    };
    (kept.expect("at least one cycle ran"), times)
}

/// What one round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOutcome {
    /// First submission to last answer.
    pub wall_s: f64,
    /// Answers delivered for submitted positions.
    pub answers: u64,
    /// Positions submitted.
    pub attempted: u64,
    /// Missing, refused, uncertified or malformed answers.
    pub failed: u64,
}

/// One slice of a round: the same amount of the same kind of work as
/// every other slice of the workload (a whole number of epoch periods).
#[derive(Debug, Clone)]
pub struct Slice {
    pub wall_s: f64,
    /// Process CPU spent in the slice.
    pub cpu_s: f64,
    pub answers: u64,
    /// Its latency samples are `lat_ns[from..to]`.
    pub from: usize,
    pub to: usize,
    /// Its spans, in the tracer's recording order.
    pub spans: Range<usize>,
}

/// Where a runner puts a round's latency samples and slice boundaries.
/// Everything is pre-allocated; a cut reads two clocks and allocates
/// nothing.
pub struct Recorder {
    /// One latency sample (ns) per sample unit, in order.
    pub lat_ns: Vec<u32>,
    pub slices: Vec<Slice>,
    cpu: CpuClock,
    open_at: Instant,
    open_cpu_s: f64,
    open_spans: usize,
}

impl Recorder {
    pub fn new(samples: usize, slices: usize) -> Recorder {
        Recorder {
            lat_ns: Vec::with_capacity(samples),
            slices: Vec::with_capacity(slices),
            cpu: CpuClock::new(),
            open_at: Instant::now(),
            open_cpu_s: 0.0,
            open_spans: 0,
        }
    }

    /// Opens the round's first slice.
    pub fn start(&mut self, tracer: &Tracer) {
        self.open_spans = tracer.len();
        self.open_cpu_s = self.cpu.process_cpu_s();
        self.open_at = Instant::now();
    }

    /// Closes the open slice, which delivered `answers`, and opens the
    /// next one at the same instant.
    pub fn cut(&mut self, answers: u64, tracer: &Tracer) {
        let (now, cpu_s) = (Instant::now(), self.cpu.process_cpu_s());
        self.slices.push(Slice {
            wall_s: (now - self.open_at).as_secs_f64(),
            cpu_s: cpu_s - self.open_cpu_s,
            answers,
            from: self.slices.last().map_or(0, |s| s.to),
            to: self.lat_ns.len(),
            spans: self.open_spans..tracer.len(),
        });
        self.open_at = now;
        self.open_cpu_s = cpu_s;
        self.open_spans = tracer.len();
    }
}

/// A set-up instance that can run rounds of fixed work.
pub trait Runner {
    /// Materialises the next round's inputs (untimed).
    fn plan_round(&mut self);

    /// Runs the planned round: one latency sample per sample unit and
    /// one cut per slice go to `rec`.
    fn run_round(&mut self, tracer: &mut Tracer, rec: &mut Recorder) -> RoundOutcome;

    /// Cumulative `QueryStats::comm_objects`, read between rounds.
    fn comm_objects(&mut self) -> u64;

    /// Answers the next planned round delivers (sizes the buffers).
    fn answers_per_round(&self) -> u64;

    /// Latency samples and slices one round records.
    fn samples_per_round(&self) -> usize;
    fn slices_per_round(&self) -> usize;
}

/// The time-based metrics of a class: computed over its quiet slices —
/// the fastest [`QUIET_SHARE`] of them — pooled.
#[derive(Debug, Clone, Default)]
pub struct Quiet {
    pub slices: usize,
    /// Answers delivered in them.
    pub answers: u64,
    /// Their spans.
    pub spans: Vec<Range<usize>>,
    /// Latency samples in those slices.
    pub samples: usize,
    /// Answers ÷ wall time.
    pub answers_per_s: f64,
    /// Exact median and 90th percentile of the pooled samples, µs.
    pub p50_us: f64,
    pub p90_us: f64,
    /// Process CPU ÷ answers, µs.
    pub cpu_us: f64,
}

/// The measured rounds of one class (traced or untraced).
pub struct Class {
    pub rec: Recorder,
    /// Per round: answers per second and wall seconds.
    pub rates: Vec<f64>,
    pub walls: Vec<f64>,
    pub answers: u64,
    pub attempted: u64,
    pub failed: u64,
    pub cpu_s: f64,
    pub driver_cpu_s: f64,
    pub comm_objects: u64,
}

impl Class {
    fn new(rounds: usize, runner: &impl Runner) -> Class {
        Class {
            rec: Recorder::new(
                rounds * runner.samples_per_round(),
                rounds * runner.slices_per_round(),
            ),
            rates: Vec::with_capacity(rounds),
            walls: Vec::with_capacity(rounds),
            answers: 0,
            attempted: 0,
            failed: 0,
            cpu_s: 0.0,
            driver_cpu_s: 0.0,
            comm_objects: 0,
        }
    }

    pub fn quiet(&self) -> Quiet {
        let mut order: Vec<&Slice> = self.rec.slices.iter().collect();
        order.sort_by(|a, b| {
            (a.wall_s / a.answers as f64).total_cmp(&(b.wall_s / b.answers as f64))
        });
        let keep = ((order.len() as f64 * QUIET_SHARE).ceil() as usize).min(order.len());
        let quiet = &order[..keep];
        let mut lat: Vec<u32> = quiet
            .iter()
            .flat_map(|s| &self.rec.lat_ns[s.from..s.to])
            .copied()
            .collect();
        lat.sort_unstable();
        let delivered: u64 = quiet.iter().map(|s| s.answers).sum();
        let answers = delivered.max(1) as f64;
        let wall_s: f64 = quiet.iter().map(|s| s.wall_s).sum();
        let cpu_s: f64 = quiet.iter().map(|s| s.cpu_s).sum();
        Quiet {
            slices: keep,
            answers: delivered,
            spans: quiet.iter().map(|s| s.spans.clone()).collect(),
            samples: lat.len(),
            answers_per_s: answers / wall_s,
            p50_us: percentile_us(&lat, 0.5),
            p90_us: percentile_us(&lat, 0.9),
            cpu_us: cpu_s * 1e6 / answers,
        }
    }
}

pub struct Measured {
    pub untraced: Class,
    pub traced: Class,
    /// Time spent materialising inputs between rounds, and the answers
    /// those inputs were for.
    pub gen_s: f64,
    pub gen_answers: u64,
}

/// One warm-up round (discarded), then the measured rounds: `rounds`
/// untraced ones, or — when `trace` — [`TRACED_ROUNDS`] untraced and as
/// many traced, alternating.
pub fn measure<R: Runner>(
    runner: &mut R,
    rounds: usize,
    trace: bool,
    tracer: &mut Tracer,
) -> Measured {
    let (untraced, traced) = if trace {
        (TRACED_ROUNDS, TRACED_ROUNDS)
    } else {
        (rounds, 0)
    };
    let mut m = Measured {
        untraced: Class::new(untraced, runner),
        traced: Class::new(traced, runner),
        gen_s: 0.0,
        gen_answers: 0,
    };

    let mut warm_up = Class::new(1, runner);
    runner.plan_round();
    runner.run_round(tracer, &mut warm_up.rec);
    drop(warm_up);

    for r in 0..untraced + traced {
        let is_traced = trace && r % 2 == 1;
        let t_gen = Instant::now();
        runner.plan_round();
        m.gen_s += t_gen.elapsed().as_secs_f64();
        m.gen_answers += runner.answers_per_round();

        let class = if is_traced {
            &mut m.traced
        } else {
            &mut m.untraced
        };
        tracer.set_enabled(is_traced);
        let comm0 = runner.comm_objects();
        let drv0 = sys::thread_cpu_s();
        let first_slice = class.rec.slices.len();
        let out = runner.run_round(tracer, &mut class.rec);
        class.driver_cpu_s += sys::thread_cpu_s() - drv0;
        tracer.set_enabled(false);
        class.cpu_s += class.rec.slices[first_slice..]
            .iter()
            .map(|s| s.cpu_s)
            .sum::<f64>();
        class.comm_objects += runner.comm_objects() - comm0;
        class.rates.push(out.answers as f64 / out.wall_s);
        class.walls.push(out.wall_s);
        class.answers += out.answers;
        class.attempted += out.attempted;
        class.failed += out.failed + (out.attempted - out.answers.min(out.attempted));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_pools_the_fastest_tenth_of_the_slices() {
        struct Fixed;
        impl Runner for Fixed {
            fn plan_round(&mut self) {}
            fn run_round(&mut self, _: &mut Tracer, _: &mut Recorder) -> RoundOutcome {
                RoundOutcome::default()
            }
            fn comm_objects(&mut self) -> u64 {
                0
            }
            fn answers_per_round(&self) -> u64 {
                0
            }
            fn samples_per_round(&self) -> usize {
                40
            }
            fn slices_per_round(&self) -> usize {
                20
            }
        }
        let mut class = Class::new(1, &Fixed);
        // Twenty slices of two samples each; slice i lasts (20 - i) ms.
        for i in 0..20u32 {
            class
                .rec
                .lat_ns
                .extend([1_000 * (20 - i), 2_000 * (20 - i)]);
            class.rec.slices.push(Slice {
                wall_s: f64::from(20 - i) * 1e-3,
                cpu_s: f64::from(20 - i) * 2e-3,
                answers: 10,
                from: 2 * i as usize,
                to: 2 * i as usize + 2,
                spans: 0..0,
            });
        }
        let q = class.quiet();
        // The two fastest are the last two: 1 ms and 2 ms.
        assert_eq!((q.slices, q.samples), (2, 4));
        assert!((q.answers_per_s - 20.0 / 3e-3).abs() < 1e-6);
        assert!((q.cpu_us - 6e-3 * 1e6 / 20.0).abs() < 1e-9);
        // Pooled samples, µs: 1, 2, 2, 4.
        assert_eq!((q.p50_us, q.p90_us), (2.0, 4.0));
    }
}
