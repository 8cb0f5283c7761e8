//! Schema smoke test: every workload, `--quick`, end-to-end and traced,
//! against the metric lists of `/BENCHMARK.json`.
//!
//! The eight quick runs take about 12 s in a release build and several
//! times that in a debug build, so the test is ignored in debug; run
//!
//! ```text
//! cargo test --release --manifest-path e2e_bench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use saga_core::json::{self, Json};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Json, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|entry| {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{list} entry has {key}"))
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// Run one quick run and return its result line.
fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_saga-bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("run saga-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: &str, expected: &[(String, String)]) {
    let line = result_line(workload, trace);
    let result = json::parse(&line).expect("result line is JSON");
    let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_i64) >= Some(1));

    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{workload} --trace {trace}: exactly the declared metrics"
    );
    for (name, unit) in expected {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} must match [A-Za-z0-9_.-]+"
        );
        // The parsed object cannot show a key emitted twice; the raw
        // line can.
        let emitted = line.matches(&format!("\"{name}\": {{")).count();
        assert_eq!(emitted, 1, "{workload}: {name} emitted {emitted} times");
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} --trace {trace} does not report {name}"));
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} has a numeric value"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug: cargo test --release --manifest-path e2e_bench/Cargo.toml"
)]
fn every_workload_reports_exactly_the_declared_metrics() {
    let spec = benchmark_json();
    let end_to_end = names_and_units(&spec, "end_to_end");
    let per_layer = names_and_units(&spec, "per_layer");
    assert!(end_to_end.iter().any(|(name, _)| name == "setup_s"));
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    for workload in workloads {
        let name = workload.get("name").and_then(Json::as_str).expect("name");
        check(name, "0", &end_to_end);
        check(name, "1", &per_layer);
    }
}
