//! The two multi-run entry points: running every workload into one
//! `results.json`, and comparing two such files.

use crate::harness::iqr_over_median;
use crate::spec::Spec;
use crate::workloads::Workload;
use std::path::Path;
use taq_telemetry::Value;

/// Runs one workload in its own process and returns its detail record.
fn run_child(
    workload: Workload,
    trace: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its stderr (progress, failed checks)
    // passes straight through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let detail = out.join(format!("{}.trace{}.json", workload.name(), u8::from(trace)));
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("cannot read {}: {e}", detail.display()))?;
    Value::parse(&text).map_err(|e| format!("{} is not JSON: {e}", detail.display()))
}

fn metric_value(detail: &Value, name: &str) -> Option<f64> {
    detail
        .get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Every workload, one process each, one after another: an untraced run
/// for the end-to-end metrics, then a traced run for the ledger.
pub fn run_all(spec: &Spec, seed: u64, seconds: f64, smoke: bool, out: &Path) -> i32 {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut runs = Vec::new();
        for trace in [false, true] {
            match run_child(w, trace, seed, seconds, smoke, out) {
                Ok(detail) => {
                    let correct = detail
                        .get("result")
                        .and_then(|r| r.get("correct"))
                        .and_then(Value::as_bool);
                    all_correct &= correct == Some(true);
                    runs.push(detail);
                }
                Err(e) => {
                    eprintln!("taq-benchmark: {e}");
                    return 1;
                }
            }
        }
        let traced = runs.pop().expect("two runs");
        let untraced = runs.pop().expect("two runs");
        workloads.push(Value::object(vec![
            ("name", Value::Str(w.name().to_string())),
            ("untraced", untraced),
            ("traced", traced),
        ]));
    }

    println!("# end to end (one untraced run per workload, times at reference host speed)");
    print!("{:<18}", "workload");
    for m in &spec.end_to_end {
        print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>6}  digest", "noisy");
    for w in &workloads {
        let untraced = w.get("untraced").expect("assembled above");
        print!(
            "{:<18}",
            w.get("name").and_then(Value::as_str).unwrap_or("?")
        );
        for m in &spec.end_to_end {
            print!(
                " {:>18.4}",
                metric_value(untraced, &m.name).unwrap_or(f64::NAN)
            );
        }
        println!(
            " {:>6}  {}",
            untraced
                .get("noisy")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            untraced
                .get("digest")
                .and_then(Value::as_str)
                .unwrap_or("?"),
        );
    }
    println!("# per layer (one traced run per workload; 0 = not exercised there)");
    print!("{:<34}", "metric");
    for w in Workload::ALL {
        print!(" {:>17}", w.name());
    }
    println!();
    for m in &spec.per_layer {
        print!("{:<34}", format!("{} [{}]", m.name, m.unit));
        for w in &workloads {
            let traced = w.get("traced").expect("assembled above");
            print!(
                " {:>17.4}",
                metric_value(traced, &m.name).unwrap_or(f64::NAN)
            );
        }
        println!();
    }

    let results = Value::object(vec![
        ("schema", Value::Str("taq-benchmark-v1".to_string())),
        ("seed", Value::UInt(seed)),
        ("smoke", Value::Bool(smoke)),
        ("workloads", Value::Array(workloads)),
    ]);
    let path = out.join("results.json");
    if let Err(e) = std::fs::write(&path, results.to_json() + "\n") {
        eprintln!("taq-benchmark: cannot write {}: {e}", path.display());
        return 1;
    }
    println!("# wrote {}", path.display());
    i32::from(!all_correct)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn samples(detail: &Value, key: &str) -> Vec<f64> {
    detail
        .get(key)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// One row's verdict. `worse_by` is B's relative change in the bad
/// direction; a run marked `noisy`, or samples that spread wider than
/// the bound while the two runs overlap, cannot carry a claim.
fn verdict(worse_by: f64, bound: f64, noisy: bool, a: &[f64], b: &[f64]) -> &'static str {
    if noisy {
        return "unresolved";
    }
    if a.len() >= 2 && b.len() >= 2 {
        let wide = iqr_over_median(a) > bound || iqr_over_median(b) > bound;
        let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
        if wide && a_lo <= b_hi && b_lo <= a_hi {
            return "unresolved";
        }
    }
    if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

/// Prints one row per workload × end-to-end metric; returns 1 when any
/// row reads `worse`.
pub fn compare(spec: &Spec, a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("taq-benchmark: {e}");
            return 2;
        }
    };
    let find = |file: &Value, name: &str| -> Option<Value> {
        file.get("workloads")?
            .as_array()?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))?
            .get("untraced")
            .cloned()
    };
    println!("# A = {}\n# B = {}", a_path.display(), b_path.display());
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>12} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut any_worse = false;
    for w in Workload::ALL {
        let (Some(da), Some(db)) = (find(&a, w.name()), find(&b, w.name())) else {
            println!("{:<18} missing from one of the files", w.name());
            continue;
        };
        let noisy = [&da, &db]
            .iter()
            .any(|d| d.get("noisy").and_then(Value::as_bool) == Some(true));
        for m in &spec.end_to_end {
            let (name, bound) = (&m.name, m.bound.unwrap_or(0.0));
            let (Some(va), Some(vb)) = (metric_value(&da, name), metric_value(&db, name)) else {
                continue;
            };
            let key = match name.as_str() {
                "wall_s" | "events_per_s" => "rounds_s",
                "setup_s" => "setup_samples_s",
                _ => "",
            };
            let worse_by = if m.lower_is_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let v = verdict(
                worse_by,
                bound,
                noisy,
                &samples(&da, key),
                &samples(&db, key),
            );
            any_worse |= v == "worse";
            println!(
                "{:<18} {:<14} {:>14.4} {:>14.4} {:>12} {:>6.2}  {v}",
                w.name(),
                name,
                va,
                vb,
                format!("{:.3} of A", vb / va),
                bound
            );
        }
        let digest = |d: &Value| d.get("digest").and_then(Value::as_str).map(str::to_string);
        println!(
            "{:<18} simulated digests {}",
            w.name(),
            if digest(&da) == digest(&db) {
                "match"
            } else {
                "DIFFER: behaviour changed, so this is not a speed-only change"
            }
        );
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        let tight_a = [1.00, 1.01, 1.00, 1.01, 1.00];
        let tight_b = [1.20, 1.21, 1.20, 1.21, 1.20];
        assert_eq!(verdict(0.20, 0.10, false, &tight_a, &tight_b), "worse");
        assert_eq!(verdict(-0.20, 0.10, false, &tight_b, &tight_a), "better");
        assert_eq!(verdict(0.03, 0.10, false, &tight_a, &tight_a), "same");
        // A canary that moved makes any change unresolved.
        assert_eq!(verdict(0.20, 0.10, true, &tight_a, &tight_b), "unresolved");
        // Spread wider than the bound and overlapping runs.
        let wide_a = [1.0, 1.3, 0.9, 1.4, 1.1];
        let wide_b = [1.2, 1.5, 1.0, 1.6, 1.3];
        assert_eq!(verdict(0.18, 0.10, false, &wide_a, &wide_b), "unresolved");
        // No samples (single-value metrics): the ratio decides.
        assert_eq!(verdict(0.06, 0.05, false, &[], &[]), "worse");
    }
}
