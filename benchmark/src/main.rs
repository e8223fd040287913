//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 2016`
//!
//! Without `--workload` every workload runs, each in a child process of
//! its own (fresh address space, so one workload's peak memory and page
//! cache state never leak into the next). `--self-check` runs the whole
//! benchmark in two sets of three runs and compares the sets (A/A).

use std::process::{Command, ExitCode};

use insq_benchmark::report::{parse_result, Parsed, END_TO_END};
use insq_benchmark::stats::median;
use insq_benchmark::{run, RunConfig, Scale, Workload};

const USAGE: &str = "usage: insq-benchmark [--workload <name>] [--seed <n>] [--seconds <n>] \
[--trace [0|1]] [--self-check]
workloads: euclid_cruise euclid_churn road_rush wire_fleet wire_cluster";

/// Every measuring process runs with glibc malloc confined to one arena.
/// By default each of the engine's per-tick worker threads is handed
/// whichever arena is uncontended at that instant, and how memory spreads
/// over the arenas then differs from run to run: on `euclid_churn` the
/// same seed peaked anywhere between 700 and 840 MB and took 290 k to
/// 725 k page faults. With one arena both repeat (284 MB, 94.4 k ± 100).
const ARENAS: (&str, &str) = ("MALLOC_ARENA_MAX", "1");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: usize,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2016,
        seconds: 12,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                // A bare `--trace` means on.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload in a child process; `None` if it failed to report.
fn run_child(args: &Args, workload: Workload, echo: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env(ARENAS.0, ARENAS.1)
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        // Everything but the machine-readable last line.
        let human: Vec<&str> = stdout.lines().collect();
        for line in &human[..human.len().saturating_sub(1)] {
            println!("{line}");
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        eprintln!("{}: exited with {}", workload.name(), output.status);
        return None;
    }
    parse_result(&stdout)
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        match run_child(args, workload, true) {
            Some(parsed) => ok &= parsed.correct,
            None => ok = false,
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A: two sets of three runs of the whole benchmark, same code. Every
/// end-to-end metric's two medians must agree within half its bound;
/// `comm_objects_per_answer`, a count, must be identical in every run;
/// no answer may fail. The sets alternate (A, B, A, B, …) so that a host
/// that speeds up or slows down over the ten minutes this takes does so
/// for both.
fn self_check(args: &Args) -> ExitCode {
    const RUNS: usize = 3;
    // values[set][workload][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    for run in 0..RUNS {
        for (set, per_set) in values.iter_mut().enumerate() {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                eprintln!(
                    "self-check: set {} run {} {}",
                    ["A", "B"][set],
                    run + 1,
                    workload.name()
                );
                let Some(parsed) = run_child(args, workload, false) else {
                    return ExitCode::FAILURE;
                };
                if !parsed.correct {
                    eprintln!(
                        "{}: failed answers (fail_frac rose above 0)",
                        workload.name()
                    );
                    return ExitCode::FAILURE;
                }
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let (_, value, _) = parsed
                        .metrics
                        .iter()
                        .find(|(name, _, _)| name == metric.name)
                        .expect("every end-to-end metric is reported");
                    per_set[w][m].push(*value);
                }
            }
        }
    }
    println!("# A/A self-check\n");
    println!(
        "Two sets (A, B) of {RUNS} runs of every workload, alternating, same code, `--seed {} --seconds {}`.",
        args.seed, args.seconds
    );
    println!(
        "`gap` is how much worse B's median is than A's (negative: better). A pair passes when \
         |gap| ≤ bound / 2; `comm_objects_per_answer` passes only when all {} runs agree to the \
         bit. `fail_frac` was 0 in every run (a run with a failed answer ends the check).\n",
        2 * RUNS
    );
    println!("| workload | metric | unit | median A | median B | gap | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&values[0][w][m]), median(&values[1][w][m]));
            let worse = if metric.higher_is_better {
                a - b
            } else {
                b - a
            };
            let gap = worse / a;
            let pass = if metric.name == "comm_objects_per_answer" {
                values[0][w][m]
                    .iter()
                    .chain(&values[1][w][m])
                    .all(|v| v.to_bits() == a.to_bits())
            } else {
                gap.abs() <= metric.bound / 2.0
            };
            all_pass &= pass;
            println!(
                "| {} | {} | {} | {a:.6} | {b:.6} | {:+.2}% | {:.0}% | {} |",
                workload.name(),
                metric.name,
                metric.unit,
                gap * 100.0,
                metric.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    println!(
        "\n{}",
        if all_pass {
            "All pairs pass."
        } else {
            "Some pairs FAIL."
        }
    );
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check(&args);
    }
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    if std::env::var(ARENAS.0).as_deref() != Ok(ARENAS.1) {
        // The setting is read when the process starts: measure in a
        // child that has it.
        let status = Command::new(std::env::current_exe().expect("own executable path"))
            .args(std::env::args_os().skip(1))
            .env(ARENAS.0, ARENAS.1)
            .status()
            .expect("child process starts");
        return ExitCode::from(status.code().map_or(1, |c| c as u8));
    }
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        rounds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
    };
    match run(&cfg) {
        Ok(report) => {
            print!("{}", report.render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::from(3)
        }
    }
}
