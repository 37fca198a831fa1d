//! Tests of the benchmark command itself. Run them optimized, as the
//! benchmark runs: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn perfbench(args: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.success(),
        stdout.lines().map(String::from).collect(),
    )
}

fn last_json(lines: &[String]) -> Value {
    serde_json::from_str(lines.last().expect("a result line")).expect("JSON")
}

/// Every counter of a width-1 child's cold and warm pass, summed by pass
/// and name. Profile-build nanoseconds are a time, not a count.
fn width1_counts(workload: &str) -> BTreeMap<(u64, String), u64> {
    let (ok, lines) = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "42",
        "--trace",
        "1",
        "--child-width",
        "1",
        "--child-passes",
        "2",
    ]);
    assert!(ok, "child failed: {lines:?}");
    let result = last_json(&lines);
    let trace = result.get("trace").expect("a trace");
    let list = |key| trace.get(key).and_then(Value::as_array).expect("a list");
    let field = |v: &Value, key| v.get(key).and_then(Value::as_u64).expect("a number");
    let spans = list("spans");
    let mut counts = BTreeMap::new();
    for c in list("counters") {
        let name = c
            .get("name")
            .and_then(Value::as_str)
            .expect("a counter name");
        if name == "profile_build_ns" {
            continue;
        }
        let pass = field(&spans[field(c, "span") as usize], "pass");
        *counts.entry((pass, name.to_string())).or_insert(0) += field(c, "value");
    }
    counts
}

#[test]
fn width1_counts_repeat_exactly() {
    for workload in ["plan", "simulate"] {
        let first = width1_counts(workload);
        assert!(first.values().any(|&v| v > 0), "{workload} counted nothing");
        assert_eq!(first, width1_counts(workload), "{workload}");
    }
    let plan = width1_counts("plan");
    for name in [
        "memo_misses",
        "memo_l1_hits",
        "profile_builds",
        "bound_pruned",
        "topk_pruned",
    ] {
        assert!(plan[&(1, name.to_string())] > 0, "plan counts no {name}");
    }
    let simulate = width1_counts("simulate");
    assert_eq!(simulate[&(1, "servesim.completed".to_string())], 6000);
    assert!(simulate[&(1, "netsim.transfers".to_string())] > 0);
    assert!(simulate[&(1, "netsim.requeues".to_string())] > 0);
}

/// Metric names BENCHMARK.json lists under `section`.
fn listed(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let bench: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
    let names = bench
        .get(section)
        .and_then(Value::as_array)
        .expect("a metric list");
    names
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn the_result_line_has_exactly_the_listed_metrics() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, lines) = perfbench(&[
            "--workload",
            "plan",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(ok, "run failed: {lines:?}");
        let result = last_json(&lines);
        let keys: Vec<&str> = result
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(printed, listed(section), "--trace {trace}");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: {m}");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let (ok, lines) = perfbench(&["--workload", "nope"]);
    assert!(!ok);
    assert!(lines.is_empty(), "{lines:?}");
}
