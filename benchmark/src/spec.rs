//! The metric tables: every name the benchmark emits, with its unit,
//! direction and bound. They are written down once, in `BENCHMARK.json`
//! at the repository root, and read from the directory the benchmark is
//! run in.

use taq_telemetry::Value;

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub end_to_end: Vec<Metric>,
    /// A workload that does not exercise a wrapper-derived metric
    /// reports it as 0.
    pub per_layer: Vec<Metric>,
}

const FILE: &str = "BENCHMARK.json";

fn metrics(spec: &Value, key: &str) -> Option<Vec<Metric>> {
    spec.get(key)?
        .as_array()?
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                lower_is_better: match m.get("better")?.as_str()? {
                    "lower" => true,
                    "higher" => false,
                    _ => return None,
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(FILE)
            .map_err(|e| format!("cannot read {FILE} ({e}): run from the repository root"))?;
        let spec = Value::parse(&text).map_err(|e| format!("{FILE} is not JSON: {e}"))?;
        match (metrics(&spec, "end_to_end"), metrics(&spec, "per_layer")) {
            (Some(end_to_end), Some(per_layer)) => Ok(Spec {
                end_to_end,
                per_layer,
            }),
            _ => Err(format!(
                "{FILE}: end_to_end or per_layer is not as the contract has it"
            )),
        }
    }
}
