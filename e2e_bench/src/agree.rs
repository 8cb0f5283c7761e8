//! `--agree N`: does the benchmark agree with itself? Two interleaved
//! sets of N runs per workload (A1 B1 A2 B2 …, run `i` of both sets on
//! seed `seed + i`), each run a child process so that peak memory starts
//! from zero. Per end-to-end metric it prints each set's median and
//! quartiles, the spread (interquartile range over median) and the gap
//! between the two medians, and fails if the gap, or a spread of a metric
//! other than `setup_s`, exceeds the metric's bound in `BENCHMARK.json`.
//! A failing table is a result: report it, do not rerun until it passes.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use saga_core::json::{self, Json};

use crate::script::Workload;
use crate::stats::quartiles;

/// Runs per set when `--agree` is given no number.
pub const DEFAULT_RUNS: usize = 5;

/// One end-to-end metric's acceptance rule.
struct Bound {
    name: String,
    bound: f64,
}

/// How far apart two medians of the same code are, as a share of the
/// smaller: symmetric, because neither set is the reference — if B reads
/// 40 % better than A, then A reads 67 % worse than B.
fn gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs())
}

/// Interquartile range over median.
fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1]
}

/// Whether two sets' quartiles of one metric agree within `bound`. The
/// spread of `setup_s` is exempt, as in the driver's acceptance check.
fn within(bound: &Bound, a: [f64; 3], b: [f64; 3]) -> bool {
    let steady = bound.name == "setup_s" || spread(a).max(spread(b)) <= bound.bound;
    steady && gap(a[1], b[1]) <= bound.bound
}

fn benchmark_json() -> Result<Json, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let path = candidates
        .iter()
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in the working directory or beside the package")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let spec = benchmark_json()?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|entry| {
            Ok(Bound {
                name: entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("end_to_end entry lacks name")?
                    .to_string(),
                bound: entry
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// Run one child and return its metrics by name.
fn child(workload: Workload, seed: u64, seconds: u64, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"]);
    if quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {last}",
            workload.name(),
            out.status
        ));
    }
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    result
        .get("metrics")
        .cloned()
        .ok_or_else(|| "result line has no metrics".to_string())
}

fn value_of(metrics: &Json, name: &str) -> Result<f64, String> {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("a run did not report {name}"))
}

fn agree(
    workloads: &[Workload],
    runs: usize,
    seed: u64,
    seconds: u64,
    quick: bool,
) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut agreed = true;
    for &workload in workloads {
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                set.push(child(workload, seed + i as u64, seconds, quick)?);
            }
        }
        println!(
            "{}: two interleaved sets of {runs} runs, seeds {seed}..{}",
            workload.name(),
            seed + runs as u64 - 1
        );
        println!(
            "  {:<20} {:>12} {:>12} {:>12} {:>8}   {:>12} {:>12} {:>12} {:>8}   {:>8} {:>6}",
            "metric",
            "A q1",
            "A median",
            "A q3",
            "A iqr",
            "B q1",
            "B median",
            "B q3",
            "B iqr",
            "gap",
            "bound"
        );
        for bound in &bounds {
            let mut q = [[0.0; 3]; 2];
            for (set, q) in sets.iter().zip(&mut q) {
                let values = set
                    .iter()
                    .map(|metrics| value_of(metrics, &bound.name))
                    .collect::<Result<Vec<f64>, String>>()?;
                *q = quartiles(&values);
            }
            let [a, b] = q;
            let ok = within(bound, a, b);
            agreed &= ok;
            println!(
                "  {:<20} {:>12.3} {:>12.3} {:>12.3} {:>7.2}%   {:>12.3} {:>12.3} {:>12.3} {:>7.2}%   {:>7.2}% {:>5.1}%{}",
                bound.name,
                a[0], a[1], a[2], spread(a) * 100.0,
                b[0], b[1], b[2], spread(b) * 100.0,
                gap(a[1], b[1]) * 100.0,
                bound.bound * 100.0,
                if ok { "" } else { "  DISAGREES" },
            );
        }
    }
    Ok(agreed)
}

/// Entry point of `--agree`.
pub fn run(workloads: &[Workload], runs: usize, seed: u64, seconds: u64, quick: bool) -> ExitCode {
    match agree(workloads, runs, seed, seconds, quick) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("saga-bench: two sets of runs of the same code disagree beyond a bound");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("saga-bench: --agree: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str) -> Bound {
        Bound {
            name: name.to_string(),
            bound: 0.1,
        }
    }

    #[test]
    fn gap_is_symmetric() {
        assert_eq!(gap(100.0, 140.0), gap(140.0, 100.0));
        assert!((gap(100.0, 140.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn a_better_second_set_disagrees_as_much_as_a_worse_one() {
        let a = [99.0, 100.0, 101.0];
        let better = [59.0, 60.0, 61.0];
        let worse = [139.0, 140.0, 141.0];
        let near = [104.0, 105.0, 106.0];
        assert!(!within(&bound("p50_us"), a, better));
        assert!(!within(&bound("p50_us"), a, worse));
        assert!(within(&bound("p50_us"), a, near));
    }

    #[test]
    fn a_wide_spread_disagrees_except_for_setup() {
        let wide = [80.0, 100.0, 120.0];
        assert!(!within(&bound("ops_per_s"), wide, wide));
        assert!(within(&bound("setup_s"), wide, wide));
    }
}
