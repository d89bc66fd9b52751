//! Smoke check: every workload, gated by `BENCHMARK.json` or not, runs
//! briefly in both modes and prints every metric `BENCHMARK.json` names,
//! with its unit, in its result line and in its human-readable report.
//! The end-to-end metrics that are not gated must still get a report line.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::json::{self, Value};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalogs_match_benchmark_json() {
    let bench = benchmark_json();
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let gated: Vec<(&str, &str)> = perfbench::END_TO_END
        .into_iter()
        .filter(|(n, _)| perfbench::GATED.contains(n))
        .collect();
    assert_eq!(perfbench::GATED.len(), gated.len());
    assert_eq!(listed(&bench, "end_to_end"), own(&gated));
    assert_eq!(listed(&bench, "per_layer"), own(&perfbench::PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert!(workloads.iter().all(|w| perfbench::WORKLOADS.contains(w)));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    for workload in perfbench::WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is one JSON object");
            let Value::Object(fields) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics object")
            };
            let names = listed(&bench, key);
            assert_eq!(
                metrics.len(),
                names.len(),
                "{workload}: extra or missing metrics"
            );
            for (name, unit) in names {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Value::as_f64).expect("a number");
                assert!(
                    value.is_finite() && value >= 0.0,
                    "{workload}: {name} = {value}"
                );
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is 0");
                }
                assert!(
                    stdout.contains(&format!("[{workload}] {name} = ")),
                    "{workload}: {name} has no report line"
                );
            }
            if key == "end_to_end" {
                for (name, _) in perfbench::END_TO_END {
                    assert!(
                        stdout.contains(&format!("[{workload}] {name} = ")),
                        "{workload}: {name} has no report line"
                    );
                }
            }
        }
    }
}
