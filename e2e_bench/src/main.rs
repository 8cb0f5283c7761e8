//! `saga-bench`: the end-to-end harness named by `BENCHMARK.json`.
//!
//! ```text
//! saga-bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]
//! saga-bench --all            [--seed <n>] [--seconds <s>] [--trace 0|1] [--quick]
//! saga-bench --agree [N]      [--workload <name>] [--seed <n>] [--seconds <s>] [--quick]
//! ```
//!
//! Every run prints its fixed knobs, every metric by name with its unit,
//! and as the last line of standard output one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero if
//! any answer was wrong. See `README.md` beside this package.

mod agree;
mod cold;
mod drive;
mod layers;
mod run;
mod script;
mod stack;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use run::{Report, RunConfig};
use script::{Scale, Workload};

/// The seed used when `--seed` is not given, and by recorded baselines.
pub const DEFAULT_SEED: u64 = 42;
/// A seed never used while tuning the harness or a change; a claimed
/// gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_220_612;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    agree: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: saga-bench (--workload <{}> | --all | --agree [N]) \
         [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--quick]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}; default seconds {DEFAULT_SECONDS}",
        names.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        agree: None,
    };
    let mut all = false;
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                args.workloads.push(workload);
            }
            "--all" => all = true,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be within 1..=60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--agree" => {
                let n = match it.peek().and_then(|next| next.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => agree::DEFAULT_RUNS,
                };
                if n < 2 {
                    return Err("--agree needs at least 2 runs per set".to_string());
                }
                args.agree = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all || (args.agree.is_some() && args.workloads.is_empty()) {
        args.workloads = Workload::ALL.to_vec();
    }
    if args.workloads.is_empty() {
        return Err("no workload named".to_string());
    }
    Ok(args)
}

/// Where scratch state and traces go: inside the build directory, which
/// is inside the checkout and ignored by git.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("saga-bench")
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_header(cfg: &RunConfig) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "saga-bench workload={} seed={} seconds={} trace={} groups={} op_divisor={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.scale.groups,
        cfg.scale.op_divisor,
    );
    println!(
        "  knobs: {} window={} batch_facts={} slices={} ingest_checkpoints=per_slice setup_reps={} restart_reps={}",
        stack::knobs(),
        drive::WINDOW,
        script::BATCH_FACTS,
        stats::SLICES,
        run::SETUP_REPS,
        cold::REPS,
    );
    println!(
        "  host: nproc={nproc} git={} rustc=\"{}\" clients={} (closed loop)",
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["--version"]),
        cfg.workload.clients(),
    );
}

/// Print a report for people, then the one JSON line for the driver.
/// Returns whether the run was correct.
fn print_report(report: &Report) -> bool {
    for note in &report.notes {
        println!("  {note}");
    }
    for metric in &report.metrics {
        println!(
            "  {:<34} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let checks = &report.checks;
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "  fail_ratio                         {fail_ratio:>16.6} ratio ({} of {} attempted)",
        checks.failed, checks.attempted
    );
    for failure in &checks.failures {
        println!("  FAILED: {failure}");
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("  FAILED: a metric is not a finite number");
    }
    let correct = checks.failed == 0 && checks.attempted > 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("saga-bench: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.quick {
        eprintln!(
            "saga-bench: this is a debug build; its numbers mean nothing. \
             Build with --release (only --quick smoke runs are allowed in debug)."
        );
        return ExitCode::from(2);
    }
    if let Some(runs) = args.agree {
        return agree::run(&args.workloads, runs, args.seed, args.seconds, args.quick);
    }
    let mut all_correct = true;
    for &workload in &args.workloads {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            scale: if args.quick {
                Scale::QUICK
            } else {
                Scale::STANDARD
            },
            trace: args.trace,
            work_dir: work_dir(),
        };
        print_header(&cfg);
        let outcome = if cfg.trace {
            layers::per_layer(&cfg)
        } else {
            run::end_to_end(&cfg)
        };
        match outcome {
            Ok(report) => all_correct &= print_report(&report),
            Err(why) => {
                eprintln!("saga-bench: {}: {why}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
