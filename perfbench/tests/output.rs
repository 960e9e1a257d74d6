//! Runs the benchmark binary briefly on every workload `BENCHMARK.json`
//! names, traced and untraced, and checks the result line against the
//! metrics it declares.

use serde::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {name}"))
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let spec: Value = serde_json::from_str(
        &std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let declared = [
        names(field(&spec, "end_to_end")),
        names(field(&spec, "per_layer")),
    ];
    for workload in field(&spec, "workloads").as_array().expect("workloads") {
        let workload = field(workload, "name").as_str().expect("name");
        for (trace, metrics) in declared.iter().enumerate() {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(root)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                ])
                .arg(trace.to_string())
                .output()
                .expect("benchmark runs");
            assert!(
                out.status.success(),
                "{workload}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let result: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
                .expect("JSON result");
            assert_eq!(
                field(&result, "correct").as_bool(),
                Some(true),
                "{workload}: {stdout}"
            );
            assert!(field(&result, "attempted").as_u64().is_some_and(|n| n >= 1));
            assert_eq!(field(&result, "failed").as_u64(), Some(0));
            let reported = field(&result, "metrics")
                .as_object()
                .expect("metrics object");
            assert_eq!(reported.len(), metrics.len(), "{workload} trace {trace}");
            for (name, unit) in metrics {
                let m = field(field(&result, "metrics"), name);
                assert_eq!(
                    field(m, "unit").as_str(),
                    Some(unit.as_str()),
                    "{workload} {name}"
                );
                assert!(
                    field(m, "value").as_f64().is_some_and(f64::is_finite),
                    "{workload} {name}"
                );
            }
        }
    }
}
