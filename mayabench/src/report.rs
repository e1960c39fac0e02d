//! Metric bookkeeping and the result line.
//!
//! `BENCHMARK.json` is the single list of metric names, units and bounds:
//! a run prints exactly the metrics it declares, in its order, and fails
//! on a computed metric it does not declare.

use maya::core::json::{parse_json, Json};
use maya::telemetry::json_string;
use std::collections::BTreeMap;
use std::path::Path;

/// One declared metric.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let items = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("no {key} list"))?;
            items
                .iter()
                .map(|m| {
                    let s = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_owned)
                            .ok_or(format!("{key}: no {f}"))
                    };
                    Ok(MetricSpec {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_is_better: s("better")? == "higher",
                        bound: match m.get("bound") {
                            Some(Json::Num(b)) => Some(*b),
                            _ => None,
                        },
                    })
                })
                .collect()
        };
        Ok(Spec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Table(BTreeMap<String, f64>);

impl Table {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Requests checked against their reference, and how many failed. Every
/// failure is printed with the request it belongs to.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, request: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("mayabench: request {request} FAILED: {why}");
        }
    }

    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed, self.attempted)
    }
}

/// Prints the human table on stderr and returns the JSON result line.
/// End-to-end metrics must all be present; a per-layer metric a workload
/// never exercises reads 0.
pub fn result_line(
    spec: &Spec,
    trace: bool,
    table: &Table,
    checks: &Checks,
) -> Result<String, String> {
    let declared = spec.metrics(trace);
    if let Some(extra) = table
        .0
        .keys()
        .find(|k| !declared.iter().any(|m| &m.name == *k))
    {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for m in declared {
        let value = match (table.get(&m.name), trace) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => return Err(format!("metric {} was not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", m.name));
        }
        eprintln!("  {:<36} {:>16.6} {}", m.name, value, m.unit);
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(&m.name),
            json_string(&m.unit)
        ));
    }
    eprintln!(
        "  {:<36} {:>16} of {}",
        "failed requests", checks.failed, checks.attempted
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    ))
}
