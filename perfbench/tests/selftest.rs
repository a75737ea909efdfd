//! Self-tests of the benchmark: every workload's tiny mode emits every
//! named metric with its unit, measures every layer it reaches and passes
//! the correctness gate, and `BENCHMARK.json` agrees with the metric
//! catalogue.

use std::process::Command;

use sbgt_engine::obs::{parse_json, JsonValue};
use sbgt_perfbench::catalogue::{MetricDef, END_TO_END, PER_LAYER};
use sbgt_perfbench::workloads::WORKLOADS;

/// Layer metrics that count events a healthy run may not have: sheds,
/// cohorts whose placements diverge, cohorts a drain found live.
const MAY_BE_ZERO: &[&str] = &[
    "service.shed.queue_full",
    "service.shed.slo_exceeded",
    "service.shed.draining",
    "session.placement_divergent_cohorts",
    "session.placement_divergent_status_cohorts",
    "net.relocated_cohorts",
];

/// Run the benchmark binary in tiny mode and parse its last line.
fn run_tiny(workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_sbgt-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "expected a fingerprint and a result line");
    assert!(lines[0].contains("\"fingerprint\""));
    parse_json(lines.last().unwrap()).expect("result line is JSON")
}

fn members(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Obj(members) => members,
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let result = run_tiny(w.name, trace);
            let keys: Vec<&str> = members(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(matches!(result.get("correct"), Some(JsonValue::Bool(true))));
            assert_eq!(result.get("failed").and_then(JsonValue::as_num), Some(0.0));
            assert!(result.get("attempted").and_then(JsonValue::as_num).unwrap() >= 1.0);
            let metrics = result.get("metrics").expect("metrics");
            assert_eq!(
                members(metrics).len(),
                defs.len(),
                "{} trace={trace}",
                w.name
            );
            for def in defs {
                let m = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{}: {} missing", w.name, def.name));
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(def.unit));
                let value = m.get("value").and_then(JsonValue::as_num).expect("value");
                assert!(value.is_finite());
                if !def.reached_by(w.name) {
                    assert_eq!(value, 0.0, "{}: {} is not reached", w.name, def.name);
                } else if !MAY_BE_ZERO.contains(&def.name) {
                    assert!(value > 0.0, "{}: {} is {value}", w.name, def.name);
                }
            }
        }
    }
}

fn assert_metrics_match(listed: &JsonValue, defs: &[MetricDef], with_bound: bool) {
    let listed = listed.as_arr().expect("metric list");
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        assert_eq!(
            entry.get("name").and_then(JsonValue::as_str),
            Some(def.name)
        );
        assert_eq!(
            entry.get("unit").and_then(JsonValue::as_str),
            Some(def.unit)
        );
        assert_eq!(
            entry.get("better").and_then(JsonValue::as_str),
            Some(def.better.as_str())
        );
        let expected_keys = if with_bound { 4 } else { 3 };
        assert_eq!(members(entry).len(), expected_keys, "{}", def.name);
        if with_bound {
            let bound = entry.get("bound").and_then(JsonValue::as_num).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        }
    }
}

#[test]
fn benchmark_json_agrees_with_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = parse_json(&text).expect("BENCHMARK.json is JSON");
    let workloads = spec.get("workloads").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(entry.get("name").and_then(JsonValue::as_str), Some(w.name));
        assert_eq!(entry.get("why").and_then(JsonValue::as_str), Some(w.why));
    }
    assert_metrics_match(spec.get("end_to_end").unwrap(), END_TO_END, true);
    assert_metrics_match(spec.get("per_layer").unwrap(), PER_LAYER, false);
}
