//! Every workload at tiny sizes, untraced and traced, with every
//! correctness check on: each run must be correct, fail nothing, and
//! report exactly the metrics `BENCHMARK.json` defines for its mode.

use std::collections::BTreeSet;
use std::process::Command;

use dagscope_serve::Json;

const SPEC: &str = include_str!("../../BENCHMARK.json");
const WORKLOADS: [&str; 4] = [
    "characterize-1m",
    "characterize-all",
    "serve-mixed",
    "replay-2k",
];

fn names(key: &str) -> Vec<String> {
    let spec = Json::parse(SPEC).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run one tiny workload and return its metrics, in report order, after
/// checking the result line.
fn run(workload: &str, trace: &str) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_dagbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("run dagbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_num), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    metrics
        .iter()
        .map(|(k, m)| (k.clone(), m.get("value").and_then(Json::as_num).unwrap()))
        .collect()
}

#[test]
fn end_to_end_metrics_are_all_reported_and_never_zero() {
    for workload in WORKLOADS {
        let metrics = run(workload, "0");
        let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, names("end_to_end"), "{workload}");
        for (name, v) in metrics {
            assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
        }
    }
}

#[test]
fn every_per_layer_metric_is_measured_by_some_workload() {
    let mut measured = BTreeSet::new();
    for workload in WORKLOADS {
        let metrics = run(workload, "1");
        let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, names("per_layer"), "{workload}");
        measured.extend(
            metrics
                .into_iter()
                .filter(|(_, v)| *v != 0.0)
                .map(|(k, _)| k),
        );
    }
    // Failure counters read 0 on a healthy run, and tiny runs have too
    // few samples for a p99.
    for name in names("per_layer") {
        let may_be_zero = name.ends_with("_total") || name.contains("p99");
        assert!(
            may_be_zero || measured.contains(&name),
            "no workload measures {name}"
        );
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dagbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("run dagbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on a refused run");
}
