//! Holds `BENCHMARK.json` and the benchmark binary together: every
//! metric the file names is emitted once per workload, finite, with its
//! declared unit, and the file stays inside the contract's limits.
//!
//! Runs every workload at toy size (`--smoke`), untraced and traced.

use std::path::{Path, PathBuf};
use std::process::Command;
use taq_telemetry::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {entry:?}"))
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// One `--smoke` run; returns the parsed last line of standard output.
fn run(workload: &str, trace: &str, out: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_taq-benchmark"))
        // The binary reads `BENCHMARK.json` from where it is run.
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args(["--workload", workload, "--seed", "7", "--trace", trace])
        .arg("--smoke")
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).expect("the last line is one JSON object")
}

#[test]
fn the_file_stays_inside_the_contract() {
    let spec = benchmark_json();
    let Value::Object(keys) = &spec else {
        panic!("BENCHMARK.json is an object");
    };
    let mut names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let (workloads, end_to_end, per_layer) = (
        entries(&spec, "workloads"),
        entries(&spec, "end_to_end"),
        entries(&spec, "per_layer"),
    );
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let seconds = spec.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));

    let mut seen = std::collections::BTreeSet::new();
    for entry in workloads.iter().chain(end_to_end).chain(per_layer) {
        let name = text(entry, "name");
        assert!(name_ok(name), "bad name {name:?}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in workloads {
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(unit_ok(text(m, "unit")), "bad unit in {m:?}");
        assert!(matches!(text(m, "better"), "lower" | "higher"));
    }
    for m in end_to_end {
        let bound = m.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!((0.0..=0.25).contains(&bound), "bound of {m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

#[test]
fn every_named_metric_is_emitted_once_per_workload() {
    let spec = benchmark_json();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    std::fs::create_dir_all(&out).unwrap();
    for w in entries(&spec, "workloads") {
        let workload = text(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace, &out);
            let Value::Object(fields) = &line else {
                panic!("{workload}: the result is an object");
            };
            let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));

            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("{workload}: metrics is an object");
            };
            let declared = entries(&spec, key);
            assert_eq!(
                metrics.len(),
                declared.len(),
                "{workload} --trace {trace} emits exactly the {key} metrics"
            );
            for m in declared {
                let name = text(m, "name");
                let hits: Vec<&Value> = metrics
                    .iter()
                    .filter(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(hits.len(), 1, "{workload}: {name} emitted once");
                let value = hits[0].get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                assert_eq!(text(hits[0], "unit"), text(m, "unit"), "{workload}: {name}");
                if key == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{workload}: {name} is never 0");
                }
            }
        }
    }
}
